import dataclasses

import numpy as np
import pytest

from emtshape.materials import LameConstants, MaterialPair

BG = LameConstants(1.5, 1.2)
SOFT = MaterialPair(BG, LameConstants(0.6, 0.4))
STIFF = MaterialPair(BG, LameConstants(1.8, 1.5))


def random_pairs(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lam, mu = rng.uniform(0.2, 3.0, 2)
        scale = rng.uniform(0.3, 3.0)
        if scale == 1.0:
            continue
        out.append(MaterialPair(LameConstants(lam, mu),
                                LameConstants(scale * lam, scale * mu)))
    return out


def test_background_constants_exact():
    assert BG.alpha == pytest.approx(85.0 / 156.0, rel=1e-15)
    assert BG.beta == pytest.approx(15.0 / 52.0, rel=1e-15)


def test_contrast_constants_exact():
    # mu~ alpha + mu beta = 22/39 for the (0.6, 0.4) inclusion
    assert SOFT.m0 == pytest.approx(-156.0 / 55.0, rel=1e-14)
    assert SOFT.m1 == pytest.approx(39.0 / 22.0, rel=1e-14)
    assert SOFT.m2 == pytest.approx(9.0 / 22.0, rel=1e-14)


@pytest.mark.parametrize("mat", random_pairs(6))
def test_derived_identities(mat):
    # alpha / beta = (lam + 3 mu) / (lam + mu), for either medium
    for med in (mat.background, mat.inclusion):
        assert med.alpha * (med.lam + med.mu) == pytest.approx(
            med.beta * (med.lam + 3.0 * med.mu), rel=1e-14)
        assert med.alpha + med.beta == pytest.approx(1.0 / med.mu, rel=1e-14)
    assert mat.m1 > 0.0
    assert np.sign(mat.m0) == np.sign(mat.inclusion.mu - mat.background.mu)
    assert np.sign(mat.m2) == np.sign(mat.background.mu - mat.inclusion.mu)


def test_stiff_pair_signs():
    assert STIFF.m0 > 0.0
    assert STIFF.m2 < 0.0


def test_shear_matched_flag():
    pair = MaterialPair(BG, LameConstants(2.5, 1.2))
    assert pair.m0 == 0.0


@pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (1.0, -0.3), (-2.0, 1.0)])
def test_lame_validation(lam, mu):
    with pytest.raises(ValueError):
        LameConstants(lam, mu)


def test_constants_are_not_a_constructor_argument():
    with pytest.raises(TypeError):
        MaterialPair(BG, LameConstants(0.6, 0.4), "junk")
    assert [f.name for f in dataclasses.fields(MaterialPair) if f.init] == [
        "background", "inclusion"]
    pair = MaterialPair(BG, LameConstants(0.6, 0.4))
    fresh = MaterialPair(BG, LameConstants(0.6, 0.4))
    before = repr(pair)
    # the cached constants live outside the fields: reading them leaves
    # ==, hash and repr as they were
    assert (pair.m0, pair.m1, pair.m2) == (SOFT.m0, SOFT.m1, SOFT.m2)
    for med in (pair.background, pair.inclusion):
        assert med.alpha > med.beta > 0.0
    assert pair == fresh == SOFT and hash(pair) == hash(fresh)
    assert pair.background == LameConstants(1.5, 1.2)
    assert hash(pair.background) == hash(LameConstants(1.5, 1.2))
    assert repr(pair) == before == repr(fresh)
    assert "m0" not in before and "alpha" not in before


def test_pair_validation():
    with pytest.raises(ValueError, match="identical"):
        MaterialPair(BG, LameConstants(1.5, 1.2))
    with pytest.raises(ValueError, match=">= 0"):
        MaterialPair(BG, LameConstants(2.0, 0.4))
