import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emtshape import transmission
from emtshape.emt import emt_table
from emtshape.geometry import (
    Disk,
    Ellipse,
    FourierCurve,
    Kite,
    Starfish,
    descriptor_to_json,
    sample,
)
from emtshape.materials import LameConstants, MaterialPair
from emtshape.transmission import (
    _assemble,
    _circulant_rows,
    _log_quadrature_row,
    _mirror_axis,
    _periodic_columns,
    _rhs,
    _write_real_linear,
    evaluate_background,
    solve_densities,
)

SOFT = MaterialPair(LameConstants(1.5, 1.2), LameConstants(0.6, 0.4))
STIFF = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))

KITE = Kite(0.6 + 0.8j, 0.65)


def random_curve(seed):
    """Criterion 6's random smooth curve, modes -1..4 with the unit mode +1:
    no mirror symmetry, so its solves take the full system."""
    rng = np.random.default_rng(seed)
    modes = np.arange(-1, 5)
    coeffs = (0.05 / (1.0 + np.abs(modes))) * (rng.normal(size=6) + 1j * rng.normal(size=6))
    coeffs[2] = 1.0
    return FourierCurve(tuple(coeffs), min_index=-1)


ASYMMETRIC = random_curve(0)


def trace_rows(curve, mat):
    # the trace equations of the assembled system over the density columns:
    # the psi columns are S~[psi]|, the phi columns -S[phi]|
    n = curve.n
    return _assemble(curve, mat)[: 2 * n, : 4 * n]


def cauchy_sides(curve, mat=SOFT):
    # the exterior and interior boundary values of the Cauchy integral, as
    # source-by-target matrices [l, j], read off the traction equations of
    # the assembled system: the phi columns hold the exterior side and the
    # psi columns the interior, each as P + Q and i (P - Q) with
    # P = (beta/2) A - (alpha/2) conj(A) and A = C diag(dz) in this orientation
    n, bg, inc = curve.n, mat.background, mat.inclusion
    cols = np.ascontiguousarray(_assemble(curve, mat)[2 * n : 4 * n, : 4 * n].T).view(complex)
    p = (cols[0::2] - 1j * cols[1::2]) / 2.0
    sides = []
    for sources, alpha, beta in ((slice(n, 2 * n), -bg.mu * bg.alpha, -bg.mu * bg.beta),
                                 (slice(0, n), inc.mu * inc.alpha, inc.mu * inc.beta)):
        b, c = beta / 2.0, alpha / 2.0
        a = (b * p[sources] + c * np.conj(p[sources])) / (b * b - c * c)
        sides.append(a / curve.dz)
    return sides


def translated(curve, center):
    # the curve moved by -center, so its background fields are those of z - center
    return dataclasses.replace(curve, z=curve.z - center)


def nodes(n):
    return 2.0 * math.pi * np.arange(n) / n


def disk_densities(mat, gamma, n, curve, q):
    """Exact (phi, psi) on the sampled disk for the field conj(q (z - a0)^n):
    c phi_{-n} and d phi_{-n} with phi_k = e^{i k theta} / gamma,
    c = conj(q) n gamma^n M0 and d = -2 conj(q) n gamma^n M1 / alpha~."""
    scale = np.conj(q) * n * gamma**n
    mode = np.exp(-1j * n * nodes(curve.n)) / gamma
    return scale * mat.m0 * mode, -2.0 * scale * mat.m1 / mat.inclusion.alpha * mode


def apply_block(block, v):
    # the real block acts on each row of v with Re and Im interleaved node by node
    return (v.view(float) @ block.T).view(complex)


def residuals(curve, mat, h, traction, psi, phi):
    # A x - b at the densities, one column per field: rows are the trace and
    # traction residuals in the max norm relative to b, and the largest
    # rigid-motion pairing of the constraint rows (b = 0 there).  A density
    # pair carries no slacks, so their columns drop out.
    n = curve.n
    b = _rhs(curve, h, traction)[:, : 4 * n].T.reshape(2, 2 * n, -1)
    r = _assemble(curve, mat)[:, : 4 * n] @ np.concatenate([psi, phi], axis=1).view(float).T
    rel = np.abs(r[: 4 * n].reshape(2, 2 * n, -1) - b).max(axis=1) / np.abs(b).max(axis=1)
    return np.vstack([rel, np.abs(r[4 * n :]).max(axis=0)])


# ---------------------------------------------------------------------------
# quadrature building blocks on the unit circle


@pytest.mark.parametrize("k", [1, -1, 2, -3, 7])
def test_log_quadrature_reproduces_symbol(k):
    n = 32
    theta = 2.0 * math.pi * np.arange(n) / n
    row = _log_quadrature_row(n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    mat = row[idx]
    out = mat @ np.exp(1j * k * theta)
    assert np.max(np.abs(out + (2.0 * math.pi / abs(k)) * np.exp(1j * k * theta))) < 1e-12


def test_log_quadrature_annihilates_constants():
    assert abs(_log_quadrature_row(64).sum()) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 32])
def test_periodic_columns_built_once_per_node_count(n):
    cols = _periodic_columns(n)
    assert all(again is first for again, first in zip(_periodic_columns(n), cols))
    for col in cols:
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0.0
    ik, *circulants = cols
    # fft order, the Nyquist mode dropped
    k = np.concatenate([np.arange(n // 2), [0], np.arange(1 - n // 2, 0)])
    assert np.array_equal(ik, 1j * k)
    j = np.arange(n)
    for col2 in circulants:
        col = col2[:n]
        for lo, hi in [(0, n), (1, n // 2 + 1), (n - 1, n)]:
            l = np.arange(lo, hi)[:, None]
            assert np.array_equal(_circulant_rows(col2, lo, hi), col[(j - l) % n])


@pytest.mark.parametrize("k", [0, 1, -1, 2, -2, 5])
def test_single_layer_trace_circle_symbol(k):
    # S[e^{ik tau}] = -(alpha/2|k|) e^{ik theta} on the unit circle, plus the
    # beta corrections -beta/2 at k = 0 and +(beta/2) e^{i theta} at k = 1
    alpha, beta = SOFT.background.alpha, SOFT.background.beta
    curve = sample(Disk(0.0, 1.0), 32)
    theta = nodes(32)
    out = apply_block(-trace_rows(curve, SOFT)[:, 2 * curve.n :], np.exp(1j * k * theta))
    expected = np.zeros_like(out)
    if k != 0:
        expected = -(alpha / (2.0 * abs(k))) * np.exp(1j * k * theta)
    else:
        expected = expected - beta / 2.0
    if k == 1:
        expected = expected + (beta / 2.0) * np.exp(1j * theta)
    assert np.max(np.abs(out - expected)) < 1e-12


@pytest.mark.parametrize("k", range(-5, 6))
def test_cauchy_boundary_values_circle(k):
    # interior value of C[e^{ik tau}]: -e^{i(k-1)theta} for k >= 1, else 0;
    # exterior value: +e^{i(k-1)theta} for k <= 0, else 0
    curve = sample(Disk(0.0, 1.0), 32)
    c_ext, c_int = cauchy_sides(curve)
    theta = nodes(32)
    f = np.exp(1j * k * theta)
    mode = np.exp(1j * (k - 1) * theta)
    want_int = -mode if k >= 1 else 0.0 * mode
    want_ext = mode if k <= 0 else 0.0 * mode
    assert np.max(np.abs(f @ c_int - want_int)) < 1e-12
    assert np.max(np.abs(f @ c_ext - want_ext)) < 1e-12


@pytest.mark.parametrize("shape", [Ellipse(0.3 + 0.2j, 1.2, 0.8), Kite(0.2, 0.3)],
                         ids=["ellipse", "kite"])
def test_cauchy_boundary_values_off_circle(shape):
    # with g = h zeta'/|zeta'|, C[g](z) = -(1/2 pi) int h/(zeta - z) dzeta: -i h(z)
    # inside and 0 outside for h holomorphic inside, 0 inside and +i h(z)
    # outside for h holomorphic outside and O(zeta^-2); away from the circle
    # the diagonal limit z''/(2 z') of the smooth remainder is not constant
    curve = sample(shape, 128)
    c_ext, c_int = cauchy_sides(curve)
    z = curve.z
    unit = curve.dz / np.abs(curve.dz)
    for h in (np.ones_like(z), z, z**2 + (0.3 - 0.1j) * z + 1.0, z**3):
        assert np.max(np.abs((h * unit) @ c_int + 1j * h)) < 1e-12
        assert np.max(np.abs((h * unit) @ c_ext)) < 1e-12
    h = (z - shape.center) ** -2.0
    assert np.max(np.abs((h * unit) @ c_int)) < 1e-12
    assert np.max(np.abs((h * unit) @ c_ext - 1j * h)) < 1e-12


def test_real_linear_writer_acts_on_interleaved_parts():
    # rows of A^T for a non-square panel: 3 sources, 5 targets
    rng = np.random.default_rng(5)
    p, q, u = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
               for shape in [(3, 5), (3, 5), 3])
    rows = np.empty((6, 10))
    expected = p.T @ u + q.T @ np.conj(u)
    p_before, q_before = p.copy(), q.copy()
    _write_real_linear(rows, p, q)
    assert np.allclose(rows.T @ u.view(float), expected.view(float), rtol=0.0, atol=1e-14)
    # p is kept and q holds P - Q, the rows of Im u before their factor i
    assert np.array_equal(p, p_before) and np.array_equal(q, p_before - q_before)


# ---------------------------------------------------------------------------
# background fields


def row(n, t):
    return 2 * (n - 1) + (t - 1)


def holomorphic_background(curve, mat, t, n):
    """Values and traction, stacked as one field, of the rotation-free field
    kappa p z^n - z conj(n p z^(n-1)), p = 1 (t = 3) or i (t = 4), kappa =
    (lam+3mu)/(lam+mu); the pipeline's fields are t = 1, 2 only, so this
    reference keeps the solver under test on holomorphic data."""
    lam, mu = mat.background.lam, mat.background.mu
    kappa = (lam + 3.0 * mu) / (lam + mu)
    z, dz = curve.z, curve.dz
    p = 1.0 if t == 3 else 1.0j
    h = kappa * p * z**n - z * np.conj(n * p * z ** (n - 1))
    dg = p * n * z ** (n - 1) * dz + dz * np.conj(p * n * z ** (n - 1))
    if n > 1:
        dg = dg + z * np.conj(p * n * (n - 1) * z ** (n - 2) * dz)
    return h[None], (-2.0j * mu * dg / np.abs(dz))[None]


def test_background_field_values():
    # every row of the stacked evaluation is conj(q_t (z - c)^n) and its
    # traction carries no net force and no net torque
    center = 0.3 - 0.2j
    curve = sample(KITE, 128)
    h, traction = evaluate_background(translated(curve, center), SOFT.background.mu, 4)
    assert h.shape == traction.shape == (8, 128)
    for n in range(1, 5):
        for t, q in ((1, 1.0), (2, 1.0j)):
            j = row(n, t)
            assert np.allclose(h[j], np.conj(q * (curve.z - center) ** n), rtol=1e-14, atol=0.0)
            force = np.sum(curve.weight * traction[j])
            torque = np.sum(curve.weight * np.real(1j * np.conj(curve.z) * traction[j]))
            scale = np.max(np.abs(traction[j]))
            assert abs(force) < 1e-12 * scale
            assert abs(torque) < 1e-12 * scale


def test_background_traction_circle():
    # t = 1, n = 1 on the unit circle: traction = 2 mu e^{-i theta}
    curve = sample(Disk(0.0, 1.0), 16)
    h, traction = evaluate_background(curve, SOFT.background.mu, 1)
    theta = nodes(16)
    assert np.allclose(h[0], np.exp(-1j * theta))
    assert np.allclose(traction[0], 2.0 * SOFT.background.mu * np.exp(-1j * theta))


def test_background_traction_rigid_rotation_free():
    # the conormal derivative of a linear field integrates to zero force and
    # zero torque on any closed curve
    curve = sample(KITE, 128)
    _, stacked = evaluate_background(curve, SOFT.background.mu, 2)
    holomorphic = [holomorphic_background(curve, SOFT, t, 2)[1][0] for t in (3, 4)]
    for traction in [stacked[row(2, 1)], stacked[row(2, 2)], *holomorphic]:
        force = np.sum(curve.weight * traction)
        torque = np.sum(curve.weight * np.real(1j * np.conj(curve.z) * traction))
        assert abs(force) < 1e-10
        assert abs(torque) < 1e-10


# ---------------------------------------------------------------------------
# the discretized transmission system


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("n,q", [(1, 1.0), (2, 1.0j), (3, 1.0)])
def test_exact_disk_densities_satisfy_equations(mat, n, q):
    center, gamma = -0.3 + 0.5j, 0.9
    curve = sample(Disk(center, gamma), 64)
    phi, psi = disk_densities(mat, gamma, n, curve, q)
    h, traction = evaluate_background(translated(curve, center), mat.background.mu, n)
    j = row(n, 1 if q == 1.0 else 2)
    assert np.all(residuals(curve, mat, h[j : j + 1], traction[j : j + 1],
                            psi[None], phi[None]) < 1e-10)


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("t,n", [(1, 1), (2, 1), (1, 2), (2, 3)])
def test_solver_matches_disk_closed_form(mat, t, n):
    center, gamma = -0.9 + 1.2j, 0.7
    # node counts on, off and below the panel size
    for nodes in (128, 100, 48):
        curve = sample(Disk(center, gamma), nodes)
        h, traction = evaluate_background(translated(curve, center), mat.background.mu, n)
        j = row(n, t)
        psi, phi = solve_densities(curve, mat, h[j : j + 1], traction[j : j + 1])
        q = 1.0 if t == 1 else 1.0j
        phi_exact, psi_exact = disk_densities(mat, gamma, n, curve, q)
        scale = max(np.max(np.abs(phi_exact)), np.max(np.abs(psi_exact)))
        assert np.max(np.abs(phi[0] - phi_exact)) < 1e-8 * scale
        assert np.max(np.abs(psi[0] - psi_exact)) < 1e-8 * scale


@pytest.mark.parametrize("mat", [SOFT, STIFF])
@pytest.mark.parametrize("t,n", [(1, 1), (2, 2), (3, 1), (4, 2)])
def test_kite_solution_residuals(t, n, mat):
    # node counts on and off the panel size; below it the kite is under-
    # resolved and the traction residual is above round-off (8e-10 at N=64)
    for nodes in (128, 100):
        curve = sample(KITE, nodes)
        if t in (1, 2):
            h, traction = evaluate_background(curve, mat.background.mu, n)
            j = row(n, t)
            h, traction = h[j : j + 1], traction[j : j + 1]
        else:
            h, traction = holomorphic_background(curve, mat, t, n)
        psi, phi = solve_densities(curve, mat, h, traction)
        assert np.all(residuals(curve, mat, h, traction, psi, phi) < 1e-10)
        # LAPACK factors in column-major order, so dgesv overwrites the
        # system with its LU, no copy or transpose made
        assert _assemble(curve, mat).flags.f_contiguous


@pytest.mark.parametrize("nodes", [16, 100, 256])
def test_panel_partition_leaves_the_system_unchanged(monkeypatch, nodes):
    # every entry takes the same operations whichever panel its source is in;
    # the panel height is the entry budget over N: one panel up to 128 nodes
    curve = sample(KITE, nodes)
    system = _assemble(curve, STIFF)
    for panel in (1, 7, nodes):
        monkeypatch.setattr(transmission, "_PANEL_ENTRIES", panel * nodes)
        assert np.array_equal(_assemble(curve, STIFF), system)


def test_batched_solve_matches_single():
    curve = sample(KITE, 64)
    h, traction = evaluate_background(curve, SOFT.background.mu, 2)
    psi, phi = solve_densities(curve, SOFT, h, traction)
    assert psi.shape == phi.shape == (4, 64)
    for j in range(4):
        psi_j, phi_j = solve_densities(curve, SOFT, h[j : j + 1], traction[j : j + 1])
        assert np.allclose(phi[j], phi_j[0], atol=1e-13)
        assert np.allclose(psi[j], psi_j[0], atol=1e-13)


def numpy_densities(curve, mat, h, traction):
    # np.linalg.solve on the same system and right-hand sides, which copies both
    n = curve.n
    x = np.linalg.solve(_assemble(curve, mat), _rhs(curve, h, traction).T).T
    densities = np.ascontiguousarray(x[:, : 4 * n]).view(complex)
    return densities[:, :n], densities[:, n:]


@pytest.mark.skipif(sys.platform != "linux", reason="Linux numpy builds export dgesv")
@pytest.mark.parametrize("nodes", [100, 128])
def test_in_place_solve_matches_numpy(monkeypatch, nodes):
    # the same dgesv on the same data gives the same bits, and the in-place
    # path never reaches np.linalg.solve
    def copying_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve copies the system")

    curve = sample(ASYMMETRIC, nodes)
    assert _mirror_axis(curve) is None
    h, traction = evaluate_background(curve, STIFF.background.mu, 12)
    expected = numpy_densities(curve, STIFF, h, traction)
    monkeypatch.setattr(np.linalg, "solve", copying_solve)
    for got, want in zip(solve_densities(curve, STIFF, h, traction), expected):
        assert np.array_equal(got, want)


def test_fallback_solve_matches_in_place(monkeypatch):
    # both the full system and the mirrored blocks
    for shape in (ASYMMETRIC, KITE):
        curve = sample(shape, 128)
        h, traction = evaluate_background(curve, STIFF.background.mu, 12)
        expected = solve_densities(curve, STIFF, h, traction)
        with monkeypatch.context() as patch:
            patch.setattr(transmission, "_lapack_dgesv", lambda: None)
            for got, want in zip(solve_densities(curve, STIFF, h, traction), expected):
                assert np.array_equal(got, want)


def rotated(shape, angle, shift):
    # shape turned by angle about the origin and moved by shift, as a FourierCurve
    k, c = shape.modes()
    coeffs = dict(zip(k, c))
    modes = range(min(k), max(k) + 1)
    return FourierCurve(tuple(np.exp(1j * angle) * coeffs.get(m, 0.0) + (shift if m == 0 else 0.0)
                              for m in modes), min_index=min(k))


@pytest.mark.skipif(sys.platform != "linux", reason="Linux numpy builds export dgesv")
@pytest.mark.parametrize("inclusion", [(0.6, 0.4), (1.8, 1.5), (30.0, 20.0)])
@pytest.mark.parametrize("shape", [Kite(0.2, 0.65), Starfish(0.3 + 0.1j, 0.125, 5),
                                   Ellipse(0.3 + 0.2j, 1.2, 0.8), Disk(-0.9 + 1.2j, 1.0),
                                   rotated(Kite(0.2, 0.65), 0.7, 0.3 - 0.4j)])
def test_mirrored_solve_matches_full_system(monkeypatch, shape, inclusion):
    # a mirror-symmetric curve is solved as two half-size blocks, in place,
    # and its table agrees with the full system's to round-off
    def copying_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve copies the system")

    mat = MaterialPair(SOFT.background, LameConstants(*inclusion))
    for nodes in (64, 100, 128, 256):
        curve = sample(shape, nodes)
        assert _mirror_axis(curve) is not None
        with monkeypatch.context() as patch:
            patch.setattr(transmission, "_mirror_axis", lambda curve: None)
            full = emt_table(curve, mat, 12).values
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", copying_solve)
            patch.setattr(transmission, "_assemble", None)
            mirrored = emt_table(curve, mat, 12).values
        assert np.abs(mirrored - full).max() <= 1e-12 * np.abs(full).max()


def test_curve_off_symmetry_takes_the_full_system(monkeypatch):
    # the kite's nodes pushed off its axis by 1e-9 miss the reflection by
    # far more than round-off, so the solve is the full system's, bit for bit
    kite = rotated(KITE, 0.0, 0.0)
    coeffs = list(kite.coefficients)
    coeffs[2 - kite.min_index] += 1e-9j  # the e^{2i theta} mode
    pushed = FourierCurve(tuple(coeffs), min_index=kite.min_index)
    assert _mirror_axis(sample(kite, 128)) is not None
    curve = sample(pushed, 128)
    assert _mirror_axis(curve) is None
    h, traction = evaluate_background(curve, STIFF.background.mu, 12)
    expected = numpy_densities(curve, STIFF, h, traction)
    monkeypatch.setattr(transmission, "_solve_mirrored", None)
    for got, want in zip(solve_densities(curve, STIFF, h, traction), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("nodes", [16, 100, 256])
def test_panel_partition_leaves_the_mirrored_solve_unchanged(monkeypatch, nodes):
    curve = sample(KITE, nodes)
    h, traction = evaluate_background(curve, STIFF.background.mu, 6)
    expected = solve_densities(curve, STIFF, h, traction)
    for panel in (1, 7, nodes):
        monkeypatch.setattr(transmission, "_PANEL_ENTRIES", panel * nodes)
        for got, want in zip(solve_densities(curve, STIFF, h, traction), expected):
            assert np.array_equal(got, want)


SOLVE_PEAK = """
import json
import sys
from emtshape import transmission
from emtshape.geometry import descriptor_from_json, sample
from emtshape.materials import LameConstants, MaterialPair
from emtshape.transmission import evaluate_background, solve_densities


def peak():
    # this process image's high-water mark: ru_maxrss would start from the
    # parent's, which it inherits across the exec
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def solve_in_place(a, b, solve=transmission._solve_in_place):
    rises.append(peak() - before)
    solve(a, b)


curve = sample(descriptor_from_json(json.loads(sys.argv[2])), int(sys.argv[1]))
mat = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))
h, traction = evaluate_background(curve, mat.background.mu, 12)
transmission._solve_in_place = solve_in_place
rises = []
before = peak()
solve_densities(curve, mat, h, traction)
print(rises[0], peak() - before)
"""


def run_fresh(script, *args):
    # the standard output of script run in a fresh interpreter on this source tree
    src = str(Path(transmission.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True).stdout


def solve_peak(shape, n):
    # the rises of the high-water mark, in KiB, when the first LU starts and
    # when the solve returns, a fresh interpreter solving for 24 fields
    doc = json.dumps(descriptor_to_json(shape))
    assembled, solved = map(int, run_fresh(SOLVE_PEAK, str(n), doc).split())
    return assembled, solved


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB and dgesv exported")
def test_solve_holds_the_system_once():
    # VmHWM is the process's high-water mark, so each solve of the asymmetric
    # curve runs alone in a fresh interpreter.  The assembly holds the system and its 1.75 MiB
    # scratch, and rises 2.0-2.4 MiB above the system at N = 128 and at
    # N = 512 alike, so its rise is bounded on its own at both.  The LU's first call also faults in
    # the BLAS buffers (about 8 MiB, by thread count and CPU), so the solve
    # is bounded at N = 512 only, where a copy of the system for LAPACK would
    # double the rise.
    for n in (128, 512):
        size = 4 * n + 3
        system_kib = size * size * 8 / 1024
        assembled, solved = solve_peak(ASYMMETRIC, n)
        assert assembled < system_kib + 4096
        if n == 512:
            assert solved < 1.5 * system_kib


@pytest.mark.skipif(sys.platform != "linux", reason="/proc/self/status and dgesv exported")
def test_mirrored_solve_holds_half_the_system():
    # A mirror-symmetric curve's two blocks hold half the full system, and
    # the panel rows (2 MiB at N = 512) the same allocation's other half,
    # beside the 1.75 MiB scratch: at N = 512 they rise 21.7 MiB, 0.68 of a
    # system, and the solve 25.2 MiB, 0.62 of the full path's 40.3 MiB.  The
    # full path holds at least 0.4 of a system more, whatever the BLAS
    # buffers take.
    n = 512
    system_kib = (4 * n + 3) ** 2 * 8 / 1024
    assembled, solved = solve_peak(KITE, n)
    _, full = solve_peak(ASYMMETRIC, n)
    assert assembled < 0.5 * system_kib + 8192
    assert solved < full - 0.4 * system_kib


ASSEMBLY_FAULTS = """
import resource
import numpy as np
from emtshape.geometry import Kite, sample
from emtshape.materials import LameConstants, MaterialPair
from emtshape.transmission import _assemble


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


curve = sample(Kite(0.2, 0.65), 512)
mat = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))
for _ in range(2):
    _assemble(curve, mat)
before = faults()
_assemble(curve, mat)
assembled = faults() - before
before = faults()
np.zeros((4 * 512 + 3,) * 2).fill(1.0)
print(assembled, faults() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts page faults")
def test_assembly_faults_in_its_scratch_once():
    # In a process that has only assembled at N >= 512, glibc hands the heap
    # top back to the system whenever a large block is freed, so temporaries
    # freed with each panel would be faulted in again for every panel, about
    # 9,500 faults per N = 512 assembly beyond those of the system.  The
    # scratch is one block per call, about 450 pages, that glibc serves
    # again from its heap.  Filling a zeroed array of the system's size in
    # the same process counts the system's own faults, transparent huge
    # pages or not.
    assembled, system = map(int, run_fresh(ASSEMBLY_FAULTS).split())
    assert assembled - system <= 1024


def test_density_real_linearity():
    # the map H -> (phi, psi) is real-linear: solving for t=1 and t=2 and
    # recombining must equal the solution of the recombined trace data
    curve = sample(KITE, 64)
    h, traction = evaluate_background(curve, SOFT.background.mu, 2)
    rows = [row(2, 1), row(2, 2)]
    psi, phi = solve_densities(curve, SOFT, h[rows], traction[rows])
    weights = np.array([0.7, -1.3])  # real weights only
    # feed the combination through the solver via the residual identity
    lhs = apply_block(trace_rows(curve, SOFT), np.concatenate([weights @ psi, weights @ phi]))
    assert np.max(np.abs(lhs - weights @ h[rows])) < 1e-9


@pytest.mark.parametrize("inclusion", [(0.6, 0.4), (1.8, 1.5), (30.0, 20.0)])
@pytest.mark.parametrize("shape", [Ellipse(0.3 + 0.2j, 1.2, 0.8), Ellipse(0.0, 2.0, 0.5),
                                   Kite(0.2, 0.3), Starfish(0.2, 0.125, 5)])
def test_eshelby_polynomial_property(shape, inclusion):
    # Eshelby: inside an ellipse, a background field of degree n induces a
    # polynomial of degree n in z and conj(z), so the trace H + S[phi]| has no
    # Fourier modes beyond n.  The other shapes are negative controls.
    mat = MaterialPair(SOFT.background, LameConstants(*inclusion))
    curve = sample(shape, 256)
    h, traction = evaluate_background(curve, mat.background.mu, 6)
    _, phi = solve_densities(curve, mat, h, traction)
    u_hat = np.abs(np.fft.fft(h - apply_block(trace_rows(curve, mat)[:, 2 * curve.n :], phi)))
    # row 2(n-1) + (t-1) of h has degree n
    beyond = np.abs(np.fft.fftfreq(curve.n, 1.0 / curve.n)) > np.arange(len(h))[:, None] // 2 + 1
    tail = np.where(beyond, u_hat, 0.0).max(axis=1) / u_hat.max(axis=1)
    if isinstance(shape, Ellipse):
        assert tail.max() <= 1e-10
    else:
        assert tail.min() > 1e-3
