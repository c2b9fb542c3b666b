import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from emtshape.disk import disk_emt_table, disk_modified_emt, recentering_matrix
from emtshape.emt import EmtTable, NoiseModel, apply_noise, emt_table
from emtshape.geometry import Disk, Ellipse, Kite, PerturbedDisk, Starfish, fourier_series, sample
from emtshape.materials import LameConstants, MaterialPair
from emtshape.reconstruct import (
    DiskEstimate,
    InversionError,
    ShapeEstimate,
    _directed,
    deltas,
    estimate_disk,
    fourier_coefficients,
    modified_emts,
    reconstruct,
    reconstruct_curve,
    shape_error,
    shape_estimate_to_json,
)

SOFT = MaterialPair(LameConstants(1.5, 1.2), LameConstants(0.6, 0.4))
STIFF = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))


def exact_disk_table(mat, gamma, a0, order):
    return EmtTable(order, disk_emt_table(mat, gamma, a0, order))


def recentered(values, a0):
    """The reference recentering: the real congruence R(a0) E R(a0)^T of the
    whole table, indexed like EmtTable.values."""
    order = values.shape[0]
    r = recentering_matrix(order, a0)
    e = values.transpose(0, 2, 1, 3).reshape(2 * order, 2 * order)
    return (r @ e @ r.T).reshape(order, 2, order, 2).transpose(0, 2, 1, 3)


def channels(values):
    """The complex channels F and S of a real table, entry by entry."""
    e = lambda t, s: values[:, :, t - 1, s - 1]
    return (e(1, 1) + e(2, 2) - 1j * (e(1, 2) - e(2, 1)),
            e(1, 1) - e(2, 2) + 1j * (e(1, 2) + e(2, 1)))


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("a0,gamma", [(0.0, 1.0), (-0.9 + 1.2j, 0.7), (0.4 - 0.3j, 1.3)])
def test_estimate_disk_exact(mat, a0, gamma):
    est = estimate_disk(disk_emt_table(mat, gamma, a0, 2), mat)
    assert abs(est.a0 - a0) < 1e-12
    assert abs(est.gamma - gamma) < 1e-12


def test_estimate_disk_needs_order_two():
    with pytest.raises(InversionError, match="order 2"):
        estimate_disk(np.zeros((1, 1, 2, 2)), SOFT)


def test_estimate_disk_rejects_matched_shear():
    pair = MaterialPair(LameConstants(1.5, 1.2), LameConstants(2.5, 1.2))
    with pytest.raises(InversionError, match="matched shear"):
        estimate_disk(np.ones((2, 2, 2, 2)), pair)


def test_estimate_disk_rejects_contradictory_sign():
    # m0 < 0 for the soft pair, so a positive leading entry is impossible
    values = np.ones((2, 2, 2, 2))
    with pytest.raises(InversionError, match="not positive"):
        estimate_disk(values, SOFT)


def _overflowing_values():
    values = np.zeros((2, 2, 2, 2))
    values[0, 0] = -1e200 * np.eye(2)
    values[1, 1] = -np.eye(2)
    return values


def _far_centered_values():
    values = disk_emt_table(SOFT, 1.0, 0.0, 6).copy()
    values[0, 1, 0, 0] = values[1, 0, 0, 0] = 1e60
    return values


@pytest.mark.parametrize("make,match", [(_overflowing_values, "overflow"),
                                        (_far_centered_values, "not finite")])
def test_reconstruct_rejects_non_finite_inversion(make, match):
    values = make()
    with np.errstate(all="ignore"), pytest.raises(InversionError, match=match):
        reconstruct(EmtTable(values.shape[0], values), SOFT)


def test_disk_estimate_validation():
    with pytest.raises(ValueError):
        DiskEstimate(0.0, -1.0)


def test_modified_emts_identity_at_origin():
    table = exact_disk_table(SOFT, 0.9, 0.3 - 0.2j, 4)
    first, second = modified_emts(table.values, 0.0)
    f, s = channels(table.values)
    assert np.allclose(first, f[:, 0], rtol=0.0, atol=1e-14)
    assert np.allclose(second, s, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("mat", [SOFT, STIFF])
def test_modified_emts_recenters_disk(mat):
    a0, gamma = -0.9 + 1.2j, 0.8
    table = exact_disk_table(mat, gamma, a0, 5)
    first, second = modified_emts(table.values, a0)
    # the centered disk's own channels: F = 2 diag(moments), S = 0
    moments = disk_modified_emt(mat, gamma, 5)
    scale = np.max(np.abs(moments))
    assert np.max(np.abs(first - [2.0 * moments[0], 0, 0, 0, 0])) < 1e-10 * scale
    assert np.max(np.abs(second)) < 1e-10 * scale


def test_modified_emts_against_naive_expansion():
    # independent evaluation of the recombination on a random table
    rng = np.random.default_rng(5)
    order = 4
    table = EmtTable(order, rng.normal(size=(order, order, 2, 2)))
    a0 = 0.6 - 0.4j
    first, second = modified_emts(table.values, a0)

    q = (1.0, 1.0j)
    naive = np.zeros((order, order, 2, 2))
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
                                    acc += ca * cb * table.values[k - 1, l - 1, a - 1, b - 1]
                    naive[n - 1, m - 1, t - 1, s - 1] = acc
    f, s = channels(naive)
    for n in (2, 4):
        assert first[n - 1] == pytest.approx(f[n - 1, 0], rel=1e-12, abs=1e-12)
        for m in (1, 3):
            assert second[n - 1, m - 1] == pytest.approx(s[n - 1, m - 1], rel=1e-12, abs=1e-12)


def test_deltas_vanish_on_exact_disk():
    a0, gamma = 0.5 + 0.1j, 1.1
    table = exact_disk_table(SOFT, gamma, a0, 4)
    first, second = modified_emts(table.values, a0)
    gaps = deltas(first, disk_modified_emt(SOFT, gamma, 4))
    # the disk's second channel vanishes, so S' is its own gap
    scale = np.max(np.abs(table.values))
    assert np.max(np.abs(gaps)) < 1e-10 * scale
    assert np.max(np.abs(second)) < 1e-10 * scale


def test_fourier_coefficients_channel_validation():
    pair = MaterialPair(LameConstants(1.5, 1.2), LameConstants(2.5, 1.2))
    with pytest.raises(InversionError, match="matched shear"):
        fourier_coefficients(np.zeros(2, complex), np.zeros((2, 2), complex), 1.0, pair)


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
    cols = est.diagnostics["secondChannel"]
    assert cols["k"].size, "expected consistency rows for order 6"
    assert np.array_equal(cols["k"], cols["n"] + cols["m"] + 2)
    assert cols["k"].max() <= 5
    assert cols["firstChannelGap"].shape == cols["k"].shape
    # the (1, 2) and (2, 1) rows both target k = 5 and must agree
    k5 = cols["value"][cols["k"] == 5]
    assert len(k5) == 2
    assert abs(k5[0] - k5[1]) < 1e-8


def test_readme_quick_start_numbers():
    # the values README's quick start prints, at their printed precision
    table = emt_table(sample(Starfish(0.0, 0.125, 5), 256), SOFT, order=6)
    est = reconstruct(table, SOFT)
    assert abs(est.disk.a0 - 0.0220) < 5e-5
    assert abs(est.disk.gamma - 1.0313) < 5e-5
    assert abs(est.coeffs[5] - 0.126) < 5e-4


def same_estimate(a, b):
    return (np.array_equal(a.coeffs, b.coeffs)
            and shape_estimate_to_json(a) == shape_estimate_to_json(b))


def test_reconstruct_order_slicing():
    table = exact_disk_table(SOFT, 1.0, 0.1j, 6)
    est = reconstruct(table, SOFT, order=3)
    assert est.coeffs.size == 3
    sliced = EmtTable(3, table.values[:3, :3], table.provenance)
    assert same_estimate(est, reconstruct(sliced, SOFT))
    assert same_estimate(reconstruct(table, SOFT), reconstruct(table, SOFT, order=6))
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


@functools.cache
def kite_table():
    return emt_table(sample(Kite(0.2 + 0.1j, 0.3), 128), SOFT, 8)


def test_inversion_is_translation_covariant():
    # the origin-based fields of the inclusion moved by b are R(-b) times
    # its own, so its table is R(-b) E R(-b)^T
    b = 0.3 - 0.4j
    est = reconstruct(kite_table(), SOFT)
    moved = reconstruct(EmtTable(8, recentered(kite_table().values, -b)), SOFT)
    assert abs(moved.disk.a0 - (est.disk.a0 + b)) <= 1e-12 * abs(est.disk.a0 + b)
    assert moved.disk.gamma == pytest.approx(est.disk.gamma, rel=1e-12)
    assert np.abs(moved.coeffs - est.coeffs).max() <= 1e-12 * np.abs(est.coeffs).max()


def test_inversion_is_reflection_covariant():
    # z -> conj(z) flips the sign of every entry with t != s
    flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
    est = reconstruct(kite_table(), SOFT)
    mirrored = reconstruct(EmtTable(8, kite_table().values * flip), SOFT)
    assert mirrored.disk.a0 == est.disk.a0.conjugate()
    assert mirrored.disk.gamma == est.disk.gamma
    assert np.array_equal(mirrored.coeffs, est.coeffs.conj())


# the refinement test set: five shapes centered at 0.2
REFINEMENT_SHAPES = (Starfish(0.2, 0.125, 5), Ellipse(0.2, 1.2, 0.8), Starfish(0.2, 0.2, 3),
                     Kite(0.2, 0.3), Kite(0.2, 0.65))


@functools.cache
def refinement_table(index, mat):
    return emt_table(sample(REFINEMENT_SHAPES[index], 256), mat, 24)


def reference_estimate(values, mat, order):
    """Coefficients and second-channel values read from the whole real
    recentered table minus the disk's diagonal, as the inversion reads them."""
    values = values[:order, :order]
    disk = estimate_disk(values, mat)
    delta = recentered(values, disk.a0).copy()
    diag = np.arange(order)
    delta[diag, diag] -= disk_modified_emt(mat, disk.gamma, order)[:, None, None] * np.eye(2)
    f, s = channels(delta)
    factor = 16.0 * math.pi * (mat.inclusion.mu - mat.background.mu) * mat.m1
    n = np.arange(1, order + 1)
    coeffs = f[:, 0] / (factor * n * disk.gamma ** (n + 1))
    coeffs[0] = coeffs[0].real
    second = [s[n - 1, m - 1] / (factor * mat.m2 * n * m * disk.gamma ** (n + m))
              for n in range(1, order + 1) for m in range(1, order + 1) if n + m + 2 <= order - 1]
    return coeffs, np.array(second)


@pytest.mark.parametrize("order,tol", [(6, 1e-12), (12, 1e-12), (24, 1e-9)])
@pytest.mark.parametrize("sigma2", [0.0, 1e-4])
@pytest.mark.parametrize("mat", [SOFT, STIFF])
def test_channel_recentering_matches_real_reference(mat, sigma2, order, tol):
    for index in range(len(REFINEMENT_SHAPES)):
        table = refinement_table(index, mat)
        if sigma2:
            table = apply_noise(table, NoiseModel(sigma2, 7))
        est = reconstruct(table, mat, order)
        coeffs, second = reference_estimate(table.values, mat, order)
        scale = np.abs(coeffs).max()
        assert np.abs(est.coeffs - coeffs).max() <= tol * scale
        assert np.abs(est.diagnostics["secondChannel"]["value"] - second).max() <= tol * scale


@pytest.mark.parametrize("inclusion", [(1.8, 1.5), (1.0, 0.8), (0.6, 0.4)])
def test_mirror_symmetric_kite_center_lies_on_its_axis(inclusion):
    # criterion 3's kite is symmetric about Im z = 0.8, and the inversion is
    # reflection-covariant, so exact data put a0 on that line
    mat = MaterialPair(LameConstants(1.5, 1.2), LameConstants(*inclusion))
    est = reconstruct(emt_table(sample(Kite(0.6 + 0.8j, 0.65), 256), mat, 2), mat)
    assert abs(est.disk.a0.imag - 0.8) <= 1e-12


@pytest.mark.parametrize("order", [2, 3, 5])
def test_lower_order_inversion_is_a_prefix(order):
    # R(a0) is block lower-triangular in n, so the first o degrees of the
    # recentered table do not see the higher ones
    full = reconstruct(kite_table(), SOFT)
    low = reconstruct(kite_table(), SOFT, order)
    assert low.disk == full.disk
    want = full.coeffs[:order]
    assert np.abs(low.coeffs - want).max() <= 1e-13 * np.abs(want).max()


def test_reconstruct_curve_circle():
    est = ShapeEstimate(DiskEstimate(0.3 - 0.2j, 1.4), np.zeros(4, complex))
    pts = reconstruct_curve(est, 64)
    assert np.allclose(np.abs(pts - (0.3 - 0.2j)), 1.4)
    with pytest.raises(ValueError):
        reconstruct_curve(est, 0)


def test_shape_error_identical_curves():
    truth = sample(Starfish(0.0, 0.125, 5), 256)
    err = shape_error(truth.z, truth, center=0.0)
    assert err.hausdorff == 0.0


def test_shape_error_concentric_circles():
    truth = sample(Disk(0.0, 1.0), 512)
    over = sample(Disk(0.0, 1.25), 512)
    err = shape_error(over.z, truth, center=0.0)
    assert err.hausdorff == pytest.approx(0.25, abs=1e-3)


def test_shape_estimate_json_round_trip():
    table = emt_table(sample(Starfish(0.0, 0.125, 5), 128), SOFT, 6)
    est = reconstruct(table, SOFT)
    doc = shape_estimate_to_json(est)
    back = json.loads(json.dumps(doc))
    assert complex(*back["a0"]) == est.disk.a0
    assert back["gamma"] == est.disk.gamma
    assert np.array_equal([complex(*c) for c in back["coeffs"]], est.coeffs)
    assert back["diagnostics"] == doc["diagnostics"]
    assert back["diagnostics"]["h0Imag"] == est.diagnostics["h0Imag"]


# ---------------------------------------------------------------------------
# vectorized paths against their loop and dense-matrix references

SHAPES = {
    "starfish": Starfish(0.3 - 0.4j, 0.125, 5),
    "kite": Kite(0.6 + 0.8j, 0.65),
    "ellipse": Ellipse(-0.3j, 1.3, 0.7),
}


@functools.cache
def order24_table(shape):
    return emt_table(sample(SHAPES[shape], 256), SOFT, 24)


def estimate(shape, order, sigma2):
    table = order24_table(shape)
    if sigma2:
        table = apply_noise(table, NoiseModel(sigma2, 11))
    return reconstruct(table, SOFT, order)


def direct_curve(est, theta_samples):
    theta = 2.0 * math.pi * np.arange(theta_samples) / theta_samples
    modes = np.exp(1j * np.outer(np.arange(est.coeffs.size), theta))
    profile = 1.0 + 2.0 * (est.coeffs @ modes).real
    return est.disk.a0 + est.disk.gamma * np.exp(1j * theta) * profile


def dense_hausdorff(samples, truth_z):
    dist = np.abs(samples[:, None] - truth_z[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def estimate_case(shape, order, sigma2):
    est = estimate(shape, order, sigma2)
    return reconstruct_curve(est, 512), sample(SHAPES[shape], 512), est.disk.a0


def adversarial_case(kind):
    samples, truth, center = estimate_case("starfish", 12, 1e-2)
    rng = np.random.default_rng(5)
    if kind == "center-outside":
        center = 100.0 + 30.0j
    elif kind == "permuted":
        samples = rng.permutation(samples)
    elif kind == "theta-4":
        samples = reconstruct_curve(estimate("starfish", 12, 1e-2), 4)
    elif kind == "point-cloud":
        samples = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
        center = complex(samples.mean())
    elif kind == "identical":
        samples = truth.z
    elif kind == "nan":
        samples = samples.copy()
        samples[7] = complex(math.nan, 0.0)
    elif kind == "nan-in-truth":
        z = truth.z.copy()
        z[7] = complex(math.nan, 0.0)
        truth = dataclasses.replace(truth, z=z)
    elif kind == "arc":
        # samples to truth is 0, so the whole distance comes from truth to samples
        samples = truth.z[:100]
    elif kind == "one-sample":
        samples = reconstruct_curve(estimate("starfish", 12, 1e-2), 1)
    elif kind == "sixteen-rows":
        # 12 + 4 rows: the batches of 1, 2, 4 and 8 rows leave one row for the last
        samples = reconstruct_curve(estimate("ellipse", 6, 1e-2), 12)
        truth = sample(SHAPES["ellipse"], 4)
    elif kind == "duplicates":
        # repeated points tie their bounds; the doubled outlier ties at the maximum
        samples = np.concatenate([rng.choice(truth.z, 300), np.repeat(truth.z[0] + 0.5, 2)])
    return samples, truth, center


CASES = [pytest.param(functools.partial(estimate_case, shape, order, sigma2),
                      id=f"{shape}-order{order}-sigma2={sigma2}")
         for shape in SHAPES for order in (6, 12, 24) for sigma2 in (0.0, 1e-4, 1e-2)]
CASES += [pytest.param(functools.partial(adversarial_case, kind), id=kind)
          for kind in ("center-outside", "permuted", "theta-4", "point-cloud",
                       "identical", "nan", "nan-in-truth", "one-sample", "sixteen-rows",
                       "duplicates", "arc")]


@pytest.mark.parametrize("make", CASES)
def test_shape_error_matches_dense_reference(make):
    samples, truth, center = make()
    got = shape_error(samples, truth, center=center).hausdorff
    want = dense_hausdorff(samples, truth.z)
    assert np.array_equal(got, want, equal_nan=True)
    if samples is truth.z:
        assert got == 0.0
    if np.isnan(samples).any() or np.isnan(truth.z).any():
        assert math.isnan(got)


def sorted_by_angle(z, center):
    ang = np.angle(z - center)
    by = np.argsort(ang)
    return z[by], ang[by]


def dense_directed(p, q):
    return float(np.abs(p[:, None] - q[None, :]).min(axis=1).max())


@pytest.mark.parametrize("seed", ["zero", "exact", "above"])
@pytest.mark.parametrize("nan_in", [None, "p", "q"])
@pytest.mark.parametrize("case", ["estimate", "point-cloud"])
def test_directed_matches_dense_reference(case, nan_in, seed):
    samples, truth, center = (estimate_case("starfish", 12, 1e-2) if case == "estimate"
                              else adversarial_case(case))
    p, q = samples.copy(), truth.z.copy()
    exact = dense_directed(p, q)
    best = {"zero": 0.0, "exact": exact, "above": 2.0 * exact}[seed]
    if nan_in:
        (p if nan_in == "p" else q)[7] = complex(math.nan, 0.0)
    # a NaN angle sorts last, so in q it is an angular neighbour of the
    # rows of p at either end of the angle range
    got = _directed(*sorted_by_angle(p, center), *sorted_by_angle(q, center), best)
    want = dense_directed(p, q)
    assert np.array_equal(got, want if math.isnan(want) else max(best, want), equal_nan=True)


@pytest.mark.parametrize("shape,order,sigma2", [
    ("starfish", 6, 0.0), ("kite", 12, 1e-4), ("ellipse", 24, 1e-2), ("starfish", 24, 1e-2)])
@pytest.mark.parametrize("theta_samples", [512, 64, 24, 16, 8, 5, 1])
def test_reconstruct_curve_matches_direct_sum(shape, order, sigma2, theta_samples):
    est = estimate(shape, order, sigma2)
    want = direct_curve(est, theta_samples)
    got = reconstruct_curve(est, theta_samples)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the estimate's PerturbedDisk folds the same modes in the same order,
    # also where they wrap (2 * order > theta_samples)
    disk = PerturbedDisk(est.disk.a0, est.disk.gamma, tuple(est.coeffs))
    assert np.array_equal(got, fourier_series(*disk.modes(), theta_samples))


def test_shape_error_memory_is_subquadratic():
    # the dense 4096 x 4096 complex distance matrix alone would take 256 MiB
    truth = sample(Starfish(0.0, 0.125, 5), 4096)
    samples = sample(Starfish(0.02 - 0.01j, 0.14, 5), 4096).z
    tracemalloc.start()
    try:
        err = shape_error(samples, truth, center=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert 0.0 < err.hausdorff < 0.1


def loop_second_channel(second, coeffs, gamma, mat):
    mu_gap = mat.inclusion.mu - mat.background.mu
    m1, m2 = mat.m1, mat.m2
    order = second.shape[0]
    out = []
    for n in range(1, order + 1):
        for m in range(1, order + 1):
            k = n + m + 2
            if k > order - 1 or m2 == 0.0:
                continue
            denom = 16.0 * math.pi * n * m * gamma ** (n + m) * mu_gap * m1 * m2
            value = complex(second[n - 1, m - 1]) / denom
            out.append((n, m, k, value, abs(value - coeffs[k])))
    return out


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("shape,sigma2", [("starfish", 0.0), ("kite", 1e-4), ("ellipse", 1e-2)])
def test_second_channel_matches_loop_reference(mat, shape, sigma2):
    table = emt_table(sample(SHAPES[shape], 128), mat, 24)
    if sigma2:
        table = apply_noise(table, NoiseModel(sigma2, 3))
    disk = estimate_disk(table.values, mat)
    first, second = modified_emts(table.values, disk.a0)
    gaps = deltas(first, disk_modified_emt(mat, disk.gamma, 24))
    coeffs, diagnostics = fourier_coefficients(gaps, second, disk.gamma, mat)
    got = diagnostics["secondChannel"]
    want = loop_second_channel(second, coeffs, disk.gamma, mat)
    assert got["k"].size == 210
    assert list(zip(got["n"].tolist(), got["m"].tolist(), got["k"].tolist())) == [
        w[:3] for w in want]
    eps = np.finfo(float).eps
    for got_value, got_gap, (_, _, k, value, gap) in zip(
            got["value"], got["firstChannelGap"], want):
        # the division is complex/real instead of complex/complex: a few ulp
        assert abs(got_value - value) <= 4 * eps * abs(value)
        scale = max(abs(value), abs(coeffs[k]))
        assert abs(got_gap - gap) <= 4 * eps * scale


SECOND_CHANNEL_COLUMNS = ("n", "m", "k", "value", "firstChannelGap")


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("order", [6, 24])
@pytest.mark.parametrize("sigma2", [0.0, 1e-4])
def test_second_channel_json_rows_match_columns(mat, order, sigma2):
    table = emt_table(sample(SHAPES["starfish"], 128), mat, order)
    if sigma2:
        table = apply_noise(table, NoiseModel(sigma2, 3))
    est = reconstruct(table, mat)
    cols = est.diagnostics["secondChannel"]
    assert set(cols) == set(SECOND_CHANNEL_COLUMNS)
    for name in SECOND_CHANNEL_COLUMNS:
        assert not cols[name].flags.writeable, name
        with pytest.raises(ValueError):
            cols[name][...] = 0
    rows = shape_estimate_to_json(est)["diagnostics"]["secondChannel"]
    assert len(rows) == cols["k"].size == (order - 3) * (order - 4) // 2
    for i, row in enumerate(rows):
        assert list(row) == list(SECOND_CHANNEL_COLUMNS)
        for name in ("n", "m", "k"):
            assert type(row[name]) is int and row[name] == cols[name][i]
        assert [type(part) for part in row["value"]] == [float, float]
        assert complex(*row["value"]) == cols["value"][i]
        assert type(row["firstChannelGap"]) is float
        assert row["firstChannelGap"] == cols["firstChannelGap"][i]


def test_second_channel_columns_empty_without_m2():
    # lambda + mu = 1.1e-16 > 0 is admissible, yet 2 mu + lambda rounds to 1.0,
    # so beta = 0.0 and M2 = -0.0
    mat = MaterialPair(LameConstants(-0.9999999999999999, 1.0), LameConstants(0.0, 2.0))
    assert mat.m2 == 0.0
    coeffs, diagnostics = fourier_coefficients(np.ones(24, complex), np.ones((24, 24), complex),
                                               1.0, mat)
    cols = diagnostics["secondChannel"]
    assert coeffs.size == 24
    assert [cols[name].size for name in SECOND_CHANNEL_COLUMNS] == [0] * 5
    assert cols["value"].dtype == complex and cols["firstChannelGap"].dtype == float
    est = ShapeEstimate(DiskEstimate(0.0, 1.0), coeffs, diagnostics)
    assert shape_estimate_to_json(est)["diagnostics"]["secondChannel"] == []
