import functools

import numpy as np
import pytest

from emtshape import emt
from emtshape.disk import binomial_shift, disk_emt_table
from emtshape.emt import (
    EmtTable,
    NoiseModel,
    apply_noise,
    emt_table,
    from_channels,
    table_from_json,
    table_to_json,
)
from emtshape.geometry import Disk, FourierCurve, Kite, sample
from emtshape.materials import LameConstants, MaterialPair

SOFT = MaterialPair(LameConstants(1.5, 1.2), LameConstants(0.6, 0.4))
STIFF = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))

KITE = Kite(0.6 + 0.8j, 0.65)


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("a0,gamma", [(0.0, 1.0), (-0.9 + 1.2j, 0.7)])
def test_disk_table_matches_closed_form(mat, a0, gamma):
    curve = sample(Disk(a0, gamma), 128)
    table = emt_table(curve, mat, 3)
    exact = disk_emt_table(mat, gamma, a0, 3)
    assert np.max(np.abs(table.values - exact)) < 1e-8 * np.max(np.abs(exact))


def test_symmetry_on_fourier_curve():
    rng = np.random.default_rng(11)
    modes = np.arange(-1, 5)
    coeffs = (0.05 / (1.0 + np.abs(modes))) * (rng.normal(size=6) + 1j * rng.normal(size=6))
    coeffs[2] = 1.0  # mode +1 after min_index shift
    curve = sample(FourierCurve(tuple(coeffs), min_index=-1), 128)
    table = emt_table(curve, SOFT, 4)
    swapped = table.values.transpose(1, 0, 3, 2)
    assert np.max(np.abs(table.values - swapped)) < 1e-8 * np.max(np.abs(table.values))


def random_curve_coefficients(seed):
    """Criterion 6's random smooth curve: modes -1..4, the unit mode +1 keeps it simple."""
    rng = np.random.default_rng(seed)
    modes = np.arange(-1, 5)
    coeffs = (0.05 / (1.0 + np.abs(modes))) * (rng.normal(size=6) + 1j * rng.normal(size=6))
    coeffs[2] = 1.0
    return coeffs


def curve_table(coeffs, mat):
    return emt_table(sample(FourierCurve(tuple(coeffs), min_index=-1), 128), mat, 5).values


@functools.cache
def random_curve_table(seed, mat):
    return curve_table(random_curve_coefficients(seed), mat)


def channels(values):
    """The complex channels F and S of a real table, entry by entry."""
    e = lambda t, s: values[:, :, t - 1, s - 1]
    return (e(1, 1) + e(2, 2) - 1j * (e(1, 2) - e(2, 1)),
            e(1, 1) - e(2, 2) + 1j * (e(1, 2) + e(2, 1)))


@pytest.mark.parametrize("order", [1, 5, 24])
def test_channel_conversions(order):
    rng = np.random.default_rng(order)
    scale = 10.0 ** rng.uniform(-3, 3, size=(order, 1, 1, 1))  # rows of unlike size
    values = rng.normal(size=(order, order, 2, 2)) * scale
    f, s = emt.channels(values)
    assert all(np.array_equal(g, w) for g, w in zip((f, s), channels(values)))
    assert np.abs(from_channels(f, s) - values).max() <= 4e-16 * np.abs(values).max()


@pytest.mark.parametrize("law", ["rotation", "reflection", "translation"])
@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rigid_motion_laws(seed, mat, law):
    # every shape is its own oracle: the plane's rigid motions act on the
    # table by exact laws, and the sampled nodes move with the curve
    coeffs, table = random_curve_coefficients(seed), random_curve_table(seed, mat)
    f, s = channels(table)
    n, m = np.ogrid[1:6, 1:6]
    if law == "rotation":  # z -> e^{i alpha} z
        alpha = 0.7
        got = channels(curve_table(np.exp(1j * alpha) * coeffs, mat))
        want = np.exp(1j * (m - n) * alpha) * f, np.exp(-1j * (n + m + 2) * alpha) * s
    elif law == "reflection":  # z -> conj(z), traversed counterclockwise
        got = channels(curve_table(coeffs.conj(), mat))
        want = f.conj(), s.conj()
    else:  # z -> z + b, recentered back at b
        b = 0.3 - 0.4j
        moved_f, moved_s = channels(curve_table(coeffs + b * (np.arange(-1, 5) == 0), mat))
        u = binomial_shift(5, b)
        got = np.conj(u) @ moved_f @ u.T, np.conj(u) @ moved_s @ u.T.conj()
        want = f, s
    scale = np.abs(table).max()
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * scale


def test_translation_invariance_of_leading_entry():
    a = emt_table(sample(Kite(0.0, 0.65), 128), SOFT, 1)
    b = emt_table(sample(Kite(2.0 - 1.5j, 0.65), 128), SOFT, 1)
    scale = np.max(np.abs(a.values))
    assert np.max(np.abs(a.values - b.values)) < 1e-9 * scale


def test_dilation_scaling():
    # E^{(t,s)}_{nm} scales as rho^{n+m} under z -> rho z
    base = (0.325, 0.0, 0.0, 1.0, 0.325)  # kite at the origin, modes -2..2
    rho = 0.5
    unit = emt_table(sample(FourierCurve(base, min_index=-2), 128), SOFT, 3)
    scaled = emt_table(sample(FourierCurve(tuple(rho * c for c in base), min_index=-2), 128),
                       SOFT, 3)
    n = np.arange(1, 4)[:, None, None, None]
    m = np.arange(1, 4)[None, :, None, None]
    predicted = unit.values * rho ** (n + m)
    assert np.max(np.abs(scaled.values - predicted)) < 1e-8 * np.max(np.abs(predicted))


def test_table_validation():
    with pytest.raises(ValueError):
        EmtTable(2, np.zeros((2, 2, 2, 1)))
    with pytest.raises(ValueError):
        EmtTable(0, np.zeros((0, 0, 2, 2)))
    bad = np.zeros((1, 1, 2, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        EmtTable(1, bad)


def test_table_values_write_protected():
    table = emt_table(sample(Disk(0.0, 1.0), 32), SOFT, 1)
    with pytest.raises(ValueError):
        table.values[0, 0, 0, 0] = 1.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0)
    with pytest.raises(ValueError):
        NoiseModel(float("nan"), 0)


def test_noise_determinism_and_zero_variance():
    table = emt_table(sample(Disk(0.3, 1.0), 32), SOFT, 2)
    noisy1 = apply_noise(table, NoiseModel(0.05, 7))
    noisy2 = apply_noise(table, NoiseModel(0.05, 7))
    assert np.array_equal(noisy1.values, noisy2.values)
    other = apply_noise(table, NoiseModel(0.05, 8))
    assert not np.array_equal(noisy1.values, other.values)
    silent = apply_noise(table, NoiseModel(0.0, 7))
    assert np.array_equal(silent.values, table.values)


def test_noise_is_single_application():
    table = emt_table(sample(Disk(0.3, 1.0), 32), SOFT, 1)
    noisy = apply_noise(table, NoiseModel(0.05, 7))
    assert noisy.provenance == NoiseModel(0.05, 7)
    with pytest.raises(ValueError, match="already"):
        apply_noise(noisy, NoiseModel(0.05, 8))


def test_noise_factor_statistics():
    table = EmtTable(4, np.ones((4, 4, 2, 2)))
    draws = np.stack([apply_noise(table, NoiseModel(0.05, seed)).values
                      for seed in range(500)])
    g = draws - 1.0
    assert abs(g.mean()) < 0.005
    assert g.var() == pytest.approx(0.05, rel=0.05)


def test_json_round_trip_exact_and_noisy():
    table = emt_table(sample(KITE, 64), SOFT, 2)
    back = table_from_json(table_to_json(table))
    assert back.order == table.order
    assert np.array_equal(back.values, table.values)
    assert back.provenance is None

    noisy = apply_noise(table, NoiseModel(0.01, 3))
    back = table_from_json(table_to_json(noisy))
    assert np.array_equal(back.values, noisy.values)
    assert back.provenance == NoiseModel(0.01, 3)


# each row names the message of the check that must reject it, so a row
# that an earlier check catches fails
MALFORMED_DOCUMENTS = [
    (lambda doc: doc.pop("order"), "document: 'order'"),
    (lambda doc: doc.pop("entries"), "document: 'entries'"),
    (lambda doc: doc["entries"].pop(), "has 15 entries, order 2 needs 16"),
    (lambda doc: doc["entries"][0].pop("value"), "malformed EMT entry .*: 'value'"),
    (lambda doc: doc["entries"][0].update(n=99), r"index \(99, 1, 1, 1\) out of range"),
    (lambda doc: doc.update(provenance={"kind": "mystery"}), "unknown provenance kind 'mystery'"),
    (lambda doc: doc.update(order="two"), "document: expected a number, got str"),
    (lambda doc: doc["entries"][0].update(value=True),
     "malformed EMT entry .*: expected a number, got bool"),
    (lambda doc: doc.update(note="exact"), "document: unknown keys: note"),
    (lambda doc: doc.update(provenance={"kind": "exact", "seed": 3}),
     "document: provenance: unknown keys: seed"),
    (lambda doc: doc.update(provenance={"kind": "noisy", "sigma2": 0.01, "seed": 3,
                                        "sigma": 0.1}),
     "document: provenance: unknown keys: sigma"),
    (lambda doc: doc["entries"][0].update(weight=1.0), "malformed EMT entry .*: unknown keys: weight"),
    (lambda doc: doc.update(provenance=None), "document: 'NoneType' object is not subscriptable"),
    # the right entry count with one (n, m, t, s) repeated
    (lambda doc: doc["entries"].__setitem__(1, dict(doc["entries"][0])), "missing entries"),
    # order 0 needs no entries, and is rejected as an order
    (lambda doc: doc.update(order=0, entries=[]), "order must be a positive integer"),
]


@pytest.mark.parametrize("mutate,match", MALFORMED_DOCUMENTS,
                         ids=[f"<lambda>{i}" for i in range(len(MALFORMED_DOCUMENTS))])
def test_json_malformed_documents(mutate, match):
    table = emt_table(sample(Disk(0.0, 1.0), 32), SOFT, 2)
    doc = table_to_json(table)
    mutate(doc)
    with pytest.raises(ValueError, match=match):
        table_from_json(doc)


@pytest.mark.parametrize("nodes,order", [(12, 6), (16, 8), (16, 9), (16, 7), (32, 15), (64, 31)])
def test_table_order_must_be_resolved(nodes, order):
    # z^order has mode order, which 2 order >= N nodes alias: unchecked, a
    # disk read 4.1 (N = 12, order 6) and 6.1 (N = 16, order 8) off its
    # closed form, relative to its largest entry.  Order N/2 - 1 is aliased
    # too, since the traction operators' factor z_j - z_l lifts its mode to
    # the Nyquist mode: Disk(0.3 + 0.2i, 1) read 0.27 (N = 16), 2.2e-3
    # (N = 32) and 1.5e-7 (N = 64) off its closed form
    curve = sample(Disk(0.0, 1.0), nodes)
    with pytest.raises(ValueError, match=f"order {order} needs at least {2 * order + 4} nodes"):
        emt_table(curve, SOFT, order)
    exact = disk_emt_table(SOFT, 1.0, 0.0, nodes // 2 - 2)
    table = emt_table(curve, SOFT, nodes // 2 - 2)
    assert np.abs(table.values - exact).max() <= 1e-13 * np.abs(exact).max()
