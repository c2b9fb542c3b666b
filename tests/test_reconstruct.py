import math

import numpy as np
import pytest

from emtshape.disk import disk_emt_table, disk_modified_emt
from emtshape.emt import EmtTable, emt_table
from emtshape.geometry import Disk, PerturbedDisk, Starfish, sample
from emtshape.materials import LameConstants, MaterialPair
from emtshape.reconstruct import (
    DiskEstimate,
    InversionError,
    ShapeEstimate,
    deltas,
    estimate_disk,
    fourier_coefficients,
    modified_emts,
    reconstruct,
    reconstruct_curve,
    shape_error,
    shape_estimate_from_json,
    shape_estimate_to_json,
)

SOFT = MaterialPair(LameConstants(1.5, 1.2), LameConstants(0.6, 0.4))
STIFF = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))


def exact_disk_table(mat, gamma, a0, order):
    return EmtTable(order, disk_emt_table(mat, gamma, a0, order))


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("a0,gamma", [(0.0, 1.0), (-0.9 + 1.2j, 0.7), (0.4 - 0.3j, 1.3)])
def test_estimate_disk_exact(mat, a0, gamma):
    est = estimate_disk(exact_disk_table(mat, gamma, a0, 2), mat)
    assert abs(est.a0 - a0) < 1e-12
    assert abs(est.gamma - gamma) < 1e-12


def test_estimate_disk_needs_order_two():
    with pytest.raises(InversionError, match="order 2"):
        estimate_disk(EmtTable(1, np.zeros((1, 1, 2, 2))), SOFT)


def test_estimate_disk_rejects_matched_shear():
    pair = MaterialPair(LameConstants(1.5, 1.2), LameConstants(2.5, 1.2))
    table = EmtTable(2, np.ones((2, 2, 2, 2)))
    with pytest.raises(InversionError, match="matched shear"):
        estimate_disk(table, pair)


def test_estimate_disk_rejects_contradictory_sign():
    # m0 < 0 for the soft pair, so a positive leading entry is impossible
    values = np.ones((2, 2, 2, 2))
    with pytest.raises(InversionError, match="not positive"):
        estimate_disk(EmtTable(2, values), SOFT)


def test_disk_estimate_validation():
    with pytest.raises(ValueError):
        DiskEstimate(0.0, -1.0)


def test_modified_emts_identity_at_origin():
    table = exact_disk_table(SOFT, 0.9, 0.3 - 0.2j, 4)
    modified = modified_emts(table, 0.0)
    assert np.allclose(modified, table.values, atol=1e-14)


@pytest.mark.parametrize("mat", [SOFT, STIFF])
def test_modified_emts_recenters_disk(mat):
    a0, gamma = -0.9 + 1.2j, 0.8
    table = exact_disk_table(mat, gamma, a0, 5)
    modified = modified_emts(table, a0)
    expected = np.array([[[[disk_modified_emt(mat, gamma, n, m, t, s)
                            for s in (1, 2)] for t in (1, 2)]
                          for m in range(1, 6)] for n in range(1, 6)])
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(modified - expected)) < 1e-10 * scale


def test_modified_emts_against_naive_expansion():
    # independent evaluation of the recombination on a random table
    rng = np.random.default_rng(5)
    order = 4
    table = EmtTable(order, rng.normal(size=(order, order, 2, 2)))
    a0 = 0.6 - 0.4j
    modified = modified_emts(table, a0)

    q = (1.0, 1.0j)
    for n in (2, 4):
        for m in (1, 3):
            for t in (1, 2):
                for s in (1, 2):
                    acc = 0.0
                    for k in range(1, n + 1):
                        u = q[t - 1] * np.conj(math.comb(n, k) * (-np.conj(a0)) ** (n - k))
                        for l in range(1, m + 1):
                            v = q[s - 1] * np.conj(math.comb(m, l) * (-np.conj(a0)) ** (m - l))
                            for a, ca in ((1, u.real), (2, u.imag)):
                                for b, cb in ((1, v.real), (2, v.imag)):
                                    acc += ca * cb * table.entry(k, l, a, b)
                    assert modified[n - 1, m - 1, t - 1, s - 1] == pytest.approx(
                        acc, rel=1e-12, abs=1e-12)


def test_deltas_vanish_on_exact_disk():
    a0, gamma = 0.5 + 0.1j, 1.1
    table = exact_disk_table(SOFT, gamma, a0, 4)
    modified = modified_emts(table, a0)
    gaps = deltas(modified, gamma, SOFT)
    assert np.max(np.abs(gaps)) < 1e-10 * np.max(np.abs(table.values))


def test_fourier_coefficients_channel_validation():
    pair = MaterialPair(LameConstants(1.5, 1.2), LameConstants(2.5, 1.2))
    with pytest.raises(InversionError, match="matched shear"):
        fourier_coefficients(np.zeros((2, 2, 2, 2)), 1.0, pair)


@pytest.mark.parametrize("mat", [SOFT, STIFF])
def test_disk_round_trip_is_clean(mat):
    est = reconstruct(exact_disk_table(mat, 0.7, -0.9 + 1.2j, 6), mat)
    assert abs(est.disk.a0 - (-0.9 + 1.2j)) < 1e-10
    assert est.disk.gamma == pytest.approx(0.7, abs=1e-10)
    assert np.max(np.abs(est.coeffs)) < 1e-9
    assert abs(est.diagnostics["h0Imag"]) < 1e-9


def test_single_mode_recovery():
    eps = 0.04
    truth = PerturbedDisk(0.0, 1.0, (0.0, 0.0, 0.0, eps / 2.0))
    table = emt_table(sample(truth, 128), SOFT, 5)
    est = reconstruct(table, SOFT)
    assert abs(est.coeffs[3] - eps / 2.0) < 1e-3
    others = np.delete(est.coeffs, 3)
    assert np.max(np.abs(others)) < 1e-3
    assert abs(est.disk.a0) < 5e-3
    assert est.disk.gamma == pytest.approx(1.0, abs=5e-3)


def test_second_channel_diagnostics_reported():
    table = emt_table(sample(Starfish(0.0, 0.125, 5), 128), SOFT, 6)
    est = reconstruct(table, SOFT)
    rows = est.diagnostics["secondChannel"]
    assert rows, "expected consistency rows for order 6"
    for row in rows:
        assert row["k"] == row["n"] + row["m"] + 2
        assert row["k"] <= 5
        assert "firstChannelGap" in row
    # the (1, 2) and (2, 1) rows both target k = 5 and must agree
    k5 = [complex(*row["value"]) for row in rows if row["k"] == 5]
    assert len(k5) == 2
    assert abs(k5[0] - k5[1]) < 1e-8


def test_readme_quick_start_numbers():
    # the values README's quick start prints, at their printed precision
    table = emt_table(sample(Starfish(0.0, 0.125, 5), 256), SOFT, order=6)
    est = reconstruct(table, SOFT)
    assert abs(est.disk.a0 - 0.0220) < 5e-5
    assert abs(est.disk.gamma - 1.0313) < 5e-5
    assert abs(est.coeffs[5] - 0.126) < 5e-4


def test_reconstruct_order_slicing():
    table = exact_disk_table(SOFT, 1.0, 0.1j, 6)
    est = reconstruct(table, SOFT, order=3)
    assert est.coeffs.size == 3
    with pytest.raises(ValueError):
        reconstruct(table, SOFT, order=7)
    with pytest.raises(ValueError):
        reconstruct(table, SOFT, order=0)


def test_translation_covariance_of_estimates():
    b = 1.5 - 0.7j
    est0 = reconstruct(exact_disk_table(SOFT, 0.9, 0.2 + 0.1j, 5), SOFT)
    est1 = reconstruct(exact_disk_table(SOFT, 0.9, 0.2 + 0.1j + b, 5), SOFT)
    assert abs((est1.disk.a0 - est0.disk.a0) - b) < 1e-9
    assert est1.disk.gamma == pytest.approx(est0.disk.gamma, abs=1e-10)


def test_reconstruct_curve_circle():
    est = ShapeEstimate(DiskEstimate(0.3 - 0.2j, 1.4), np.zeros(4, complex))
    pts = reconstruct_curve(est, 64)
    assert np.allclose(np.abs(pts - (0.3 - 0.2j)), 1.4)
    with pytest.raises(ValueError):
        reconstruct_curve(est, 0)


def test_shape_error_identical_curves():
    truth = sample(Starfish(0.0, 0.125, 5), 256)
    err = shape_error(truth.z, truth)
    assert err.hausdorff == 0.0
    assert err.radial_l2 < 1e-12


def test_shape_error_concentric_circles():
    truth = sample(Disk(0.0, 1.0), 512)
    over = sample(Disk(0.0, 1.25), 512)
    err = shape_error(over.z, truth, center=0.0)
    assert err.hausdorff == pytest.approx(0.25, abs=1e-3)
    assert err.radial_l2 == pytest.approx(0.25, abs=1e-6)


def test_shape_estimate_json_round_trip():
    table = emt_table(sample(Starfish(0.0, 0.125, 5), 128), SOFT, 6)
    est = reconstruct(table, SOFT)
    back = shape_estimate_from_json(shape_estimate_to_json(est))
    assert back.disk.a0 == est.disk.a0
    assert back.disk.gamma == est.disk.gamma
    assert np.array_equal(back.coeffs, est.coeffs)
    assert back.diagnostics == est.diagnostics


@pytest.mark.parametrize("doc", [
    {"gamma": 1.0, "coeffs": [[0.0, 0.0]]},
    {"a0": [0.0], "gamma": 1.0, "coeffs": [[0.0, 0.0]]},
    {"a0": [0.0, 0.0], "gamma": "one", "coeffs": [[0.0, 0.0]]},
    {"a0": [0.0, 0.0], "gamma": 1.0, "coeffs": [[0.0]]},
])
def test_shape_estimate_json_malformed(doc):
    with pytest.raises(ValueError):
        shape_estimate_from_json(doc)
