"""Acceptance checks for the moment-tensor shape-recovery pipeline.

Each test computes one end-to-end criterion and prints a single PASS/FAIL
summary line outside pytest's capture, so a ``pytest -v`` run doubles as an
acceptance report.
"""

import math
import time

import numpy as np

from emtshape.disk import disk_emt_table
from emtshape.emt import EmtTable, NoiseModel, apply_noise, emt_table
from emtshape.geometry import (
    Disk,
    FourierCurve,
    Kite,
    PerturbedDisk,
    Starfish,
    sample,
)
from emtshape.materials import LameConstants, MaterialPair
from emtshape.reconstruct import (
    InversionError,
    reconstruct,
    reconstruct_curve,
    shape_error,
)

BG = LameConstants(1.5, 1.2)
SOFT = MaterialPair(BG, LameConstants(0.6, 0.4))
STIFF = MaterialPair(BG, LameConstants(1.8, 1.5))

KITE = Kite(0.6 + 0.8j, 0.65)

# Published kite recoveries: inclusion constants -> (a0, gamma).
KITE_REFERENCE = (
    (LameConstants(1.8, 1.5), 0.8814 + 0.8146j, 1.0105),
    (LameConstants(1.0, 0.8), 0.9179 + 0.7986j, 0.9964),
    (LameConstants(0.6, 0.4), 0.8967 + 0.8001j, 1.0113),
)


def _report(capfd, ok, label, detail):
    with capfd.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def exact_disk_table(mat, gamma, a0, order):
    return EmtTable(order, disk_emt_table(mat, gamma, a0, order))


def test_criterion_1_disk_oracle_equivalence(capfd):
    start = time.perf_counter()
    worst = 0.0
    for mat in (SOFT, STIFF):
        for a0 in (0.0, -0.9 + 1.2j):
            for gamma in (0.7, 1.0, 1.3):
                table = emt_table(sample(Disk(a0, gamma), 256), mat, 6)
                exact = exact_disk_table(mat, gamma, a0, 6).values
                scale = np.max(np.abs(exact))
                gap = np.abs(table.values - exact)
                # Relative per entry; absolute against the table scale where
                # the exact value is itself a numerical zero.
                norm = np.where(np.abs(exact) > 1e-6 * scale, np.abs(exact), scale)
                worst = max(worst, float(np.max(gap / norm)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(capfd, ok, "criterion 1 disk quadrature vs closed forms",
            f"max normalized error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 60.0


def test_criterion_2_disk_round_trip(capfd):
    start = time.perf_counter()
    worst_disk = 0.0
    worst_coeff = 0.0
    for mat in (SOFT, STIFF):
        for a0, gamma in ((0.0, 1.0), (-0.9 + 1.2j, 0.7)):
            est = reconstruct(exact_disk_table(mat, gamma, a0, 6), mat)
            worst_disk = max(worst_disk, abs(est.disk.a0 - a0),
                             abs(est.disk.gamma - gamma))
            worst_coeff = max(worst_coeff, float(np.max(np.abs(est.coeffs))))
    elapsed = time.perf_counter() - start
    ok = worst_disk < 1e-8 and worst_coeff < 1e-7 and elapsed < 10.0
    _report(capfd, ok, "criterion 2 disk round trip",
            f"max disk-parameter error {worst_disk:.2e}, "
            f"max residual coefficient {worst_coeff:.2e}, {elapsed:.2f}s")
    assert worst_disk < 1e-8
    assert worst_coeff < 1e-7
    assert elapsed < 10.0


def test_criterion_3_kite_reference_recoveries(capfd):
    start = time.perf_counter()
    curve = sample(KITE, 256)
    failures = []
    for inclusion, a0_ref, gamma_ref in KITE_REFERENCE:
        mat = MaterialPair(BG, inclusion)
        est = reconstruct(emt_table(curve, mat, 2), mat)
        gaps = {"Re a0": abs(est.disk.a0.real - a0_ref.real),
                "Im a0": abs(est.disk.a0.imag - a0_ref.imag),
                "gamma": abs(est.disk.gamma - gamma_ref)}
        failures += [f"inclusion ({inclusion.lam}, {inclusion.mu}): "
                     f"{name} gap {gap:.4f}"
                     for name, gap in gaps.items() if not gap < 0.02]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(capfd, ok, "criterion 3 kite vs published recoveries",
            "; ".join(failures) if failures
            else f"all components within 0.02, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)
    assert elapsed < 60.0


def test_criterion_4_starfish_mode_recovery(capfd):
    start = time.perf_counter()
    table = emt_table(sample(Starfish(0.0, 0.125, 5), 256), SOFT, 6)
    est = reconstruct(table, SOFT)
    rel = abs(est.coeffs[5] - 0.125) / 0.125
    spurious = float(np.max(np.abs(est.coeffs[:5])))
    elapsed = time.perf_counter() - start
    ok = rel < 0.25 and spurious < 0.03 and elapsed < 60.0
    _report(capfd, ok, "criterion 4 starfish dominant-mode recovery",
            f"mode-5 relative gap {rel:.1%}, max spurious mode {spurious:.4f}, "
            f"{elapsed:.1f}s")
    assert rel < 0.25
    assert spurious < 0.03
    assert elapsed < 60.0


def test_criterion_5_superlinear_error_decay(capfd):
    # The remainder of the coefficient formulas is o(eps), so halving the
    # perturbation must shrink the recovered-coefficient error by more
    # than half; 0.6 leaves slack for quadrature noise.
    start = time.perf_counter()
    summaries = []
    worst = 0.0
    for k in (2, 3, 5):
        errors = []
        for eps in (0.1, 0.05, 0.025):
            profile = [0.0] * (k + 1)
            profile[k] = eps / 2.0
            curve = sample(PerturbedDisk(0.0, 1.0, tuple(profile)), 256)
            est = reconstruct(emt_table(curve, SOFT, k + 1), SOFT)
            errors.append(abs(est.coeffs[k] - eps / 2.0))
        ratios = (errors[1] / errors[0], errors[2] / errors[1])
        worst = max(worst, *ratios)
        summaries.append(f"k={k}: {ratios[0]:.2f}/{ratios[1]:.2f}")
    elapsed = time.perf_counter() - start
    ok = worst < 0.6
    _report(capfd, ok, "criterion 5 superlinear coefficient-error decay",
            f"halving ratios {', '.join(summaries)}, {elapsed:.1f}s")
    assert worst < 0.6


def test_criterion_6_symmetry_on_random_curves(capfd):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        modes = np.arange(-1, 5)
        coeffs = (0.05 / (1.0 + np.abs(modes))) * (rng.normal(size=6)
                                                   + 1j * rng.normal(size=6))
        coeffs[2] = 1.0  # unit mode +1 keeps the curve simple
        curve = sample(FourierCurve(tuple(coeffs), min_index=-1), 128)
        table = emt_table(curve, SOFT, 4)
        asym = np.max(np.abs(table.values - table.values.transpose(1, 0, 3, 2)))
        worst = max(worst, float(asym / np.max(np.abs(table.values))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8
    _report(capfd, ok, "criterion 6 moment-table symmetry on random curves",
            f"max normalized asymmetry {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8


def test_criterion_7_noise_determinism_and_variance(capfd):
    start = time.perf_counter()
    base = EmtTable(2, np.ones((2, 2, 2, 2)))
    first = apply_noise(base, NoiseModel(0.05, seed=123))
    second = apply_noise(base, NoiseModel(0.05, seed=123))
    other = apply_noise(base, NoiseModel(0.05, seed=124))
    deterministic = bool(np.array_equal(first.values, second.values)
                         and not np.array_equal(first.values, other.values))
    factors = np.concatenate(
        [apply_noise(base, NoiseModel(0.05, seed=seed)).values.ravel() - 1.0
         for seed in range(10_000)])
    variance = float(np.var(factors))
    rel = abs(variance - 0.05) / 0.05
    elapsed = time.perf_counter() - start
    ok = deterministic and rel < 0.05
    _report(capfd, ok, "criterion 7 noise determinism and variance",
            f"seed-stable {deterministic}, empirical variance {variance:.5f} "
            f"(gap {rel:.1%} over {factors.size} factors), {elapsed:.1f}s")
    assert deterministic
    assert rel < 0.05


def test_criterion_8_noise_sensitivity_grows_with_center_offset(capfd):
    start = time.perf_counter()
    medians = {}
    for label, a0 in (("centered", 0.0), ("off-center", -0.9 + 1.2j)):
        truth = sample(Starfish(a0, 0.125, 5), 256)
        exact = emt_table(truth, SOFT, 6)
        errors = []
        for seed in range(50):
            noisy = apply_noise(exact, NoiseModel(0.05, seed=seed))
            try:
                est = reconstruct(noisy, SOFT)
            except InversionError:
                errors.append(math.inf)  # failed recovery: unbounded error
                continue
            samples = reconstruct_curve(est, 512)
            errors.append(shape_error(samples, truth, center=est.disk.a0).hausdorff)
        medians[label] = float(np.median(errors))
    elapsed = time.perf_counter() - start
    ok = medians["off-center"] > medians["centered"]
    _report(capfd, ok, "criterion 8 noise sensitivity grows with |a0|",
            f"median Hausdorff error centered {medians['centered']:.3f} "
            f"vs off-center {medians['off-center']:.3f}, {elapsed:.1f}s")
    assert medians["off-center"] > medians["centered"]
