"""Nystrom solver for the planar inclusion transmission system.

Displacements are complex-valued; the transmission pair (psi, phi) solves

    S~[psi]| - S[phi]|          = H          (trace)
    dnu~ S~[psi]|- - dnu S[phi]|+ = dnu H    (traction)

with phi orthogonal to the discrete rigid motions {1, i, iz}.  The log kernel
of the single-layer trace uses the trigonometric product quadrature (exact
for trigonometric polynomials below the Nyquist mode); the traction operators
are built from boundary values of Cauchy-type integrals (circular Hilbert
transform + smooth remainder) and spectral differentiation.  Conjugations
make every operator real-linear but not complex-linear, u -> P u + Q conj(u),
so the assembled system is real of size 4N+3.  Its unknowns and equations
interleave real and imaginary parts node by node, so each operator enters as
P + Q and i (P - Q) viewed as float pairs; the extra three columns are
rigid-motion slacks attached to the traction rows, the extra three rows the
orthogonality constraints on phi.

The system is filled in the Fortran order LAPACK factors in, one panel of
source nodes at a time, so no N x N piece of it is ever held: a panel has a
fixed number of entries, so fewer sources as N grows, and its pieces are
written into the system as soon as they exist, in one scratch of a few
panel-sized arrays that every panel refills and that is freed with the
assembly, about 1.75 MiB beside the system at any N.  The circulant
columns and the derivative symbol depend on N alone and are built once per
node count.  The dgesv of the LAPACK numpy links factors the system in
place, its LU overwriting the system and the solutions the right-hand-side
rows, so the system is held once per solve; np.linalg.solve, which copies
it, runs only on builds where that symbol is not found.

A curve that is mirror-symmetric about the line through its nodes 0 and
N/2, node N - j the mirror image of node j to a few ulps (the kite, the
starfish, ellipses, disks, and perturbed disks with real modes, all
sampled by geometry.sample), is solved as two blocks of size 2N + 1 and
2N + 2, the parts of the system that the reflection keeps and flips: half
the panels are written, each folded over the node pairs into both blocks,
and the two LUs take a quarter of the flops and half the memory.  Every
other curve takes the full system.  The blocks solve the same equations
in other combinations, so the tables differ from the full system's by
round-off only: at most 3e-14 of the largest entry over the kite,
starfish, ellipse and an off-center disk at N = 64 to 256 and order 12,
for soft, stiff and near-rigid inclusions.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import BoundaryCurve
from .materials import MaterialPair

__all__ = ["SolverError", "evaluate_background", "solve_densities"]


class SolverError(RuntimeError):
    """Raised when the discretized transmission system cannot be solved."""


def evaluate_background(curve: BoundaryCurve, mu: float,
                        order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values and traction densities of the background fields
    h_n^(t) = conj(q_t z^n), q_1 = 1, q_2 = i, n <= order.

    Both arrays have shape (2 order, N); row 2(n-1) + (t-1) holds h_n^(t).
    The traction (conormal derivative per unit arc length, mu the background
    shear modulus) comes from the complex representation: with potentials
    (f, g) of h, traction * dsigma = -2 i mu d/dtheta [f + z conj(f') + conj(g)],
    here 2 i mu conj(q_t n z^(n-1) dz) dtheta.
    """
    powers = curve.z ** np.arange(order + 1)[:, None]
    q = np.array([1.0, 1.0j])[:, None]
    n = np.arange(1, order + 1)[:, None, None]
    h = np.conj(q * powers[1:, None])
    traction = np.conj(q * n * powers[:-1, None] * curve.dz)
    traction *= 2.0j * mu / np.abs(curve.dz)
    return h.reshape(2 * order, -1), traction.reshape(2 * order, -1)


# ---------------------------------------------------------------------------
# periodic spectral operators

@functools.cache
def _periodic_columns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only pieces of the system that depend on N alone, so each node
    count builds them once per process: the derivative symbol i k (Fourier
    modes in fft order, the Nyquist mode dropped) and the doubled circulant
    columns (see _circulant_rows) of the log-kernel correction, of the
    Hilbert and cot part of the Cauchy kernel, and of the spectral derivative.

    Kernels of theta_j - theta_l = 2 pi m / N enter as circulant columns in
    m; the half angle is folded to (0, pi/2] so that it stays accurate next
    to the diagonal on both sides (cot is odd and sin even about m = N/2).
    """
    k = np.rint(np.fft.fftfreq(n, 1.0 / n))
    k[n // 2] = 0.0
    m = np.arange(1, n)
    half = math.pi * np.minimum(m, n - m) / n
    log_sin = np.concatenate([[0.0], np.log(2.0 * np.sin(half))])
    cot = np.concatenate([[0.0], np.where(m < n - m, 0.5, -0.5) / np.tan(half)])
    cols = (0.5 * _log_quadrature_row(n) - (2.0 * math.pi / n) * log_sin,
            -0.5 * np.fft.ifft(1j * np.sign(k)).real - cot / n,
            np.fft.ifft(1j * k).real)
    out = (1j * k, *(np.tile(col, 2) for col in cols))
    for x in out:
        x.setflags(write=False)
    return out


def _circulant_rows(col2: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the transposed circulant, [l, j] -> col[(j - l) mod N],
    as a read-only view of the doubled column col2 = (col, col)."""
    n = col2.shape[0] // 2
    return np.lib.stride_tricks.sliding_window_view(col2, n)[n - hi + 1 : n - lo + 1][::-1]


def _spectral_derivative(f: np.ndarray, ik: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """d/dtheta of periodic nodal values along the last axis, in out if
    given; ik is the derivative symbol of _periodic_columns."""
    f_hat = np.fft.fft(f, axis=-1, out=out)
    f_hat *= ik
    return np.fft.ifft(f_hat, axis=-1, out=f_hat)


def _log_quadrature_row(n: int) -> np.ndarray:
    # weights R_d with sum_l R_{(j-l) mod N} e^{ik tau_l} = -(2 pi/|k|) e^{ik theta_j}:
    # the inverse FFT of that symbol, 0 at k = 0, the Nyquist mode counted once
    k = np.arange(n // 2 + 1, dtype=float)
    k[0] = np.inf
    return np.fft.irfft(-2.0 * math.pi / k, n)


# ---------------------------------------------------------------------------
# assembly.  Every operator below is real-linear, u -> P u + Q conj(u), with
# P and Q material scalars times curve-only pieces, so the materials only
# scale them.  Unknowns and equations interleave the real and imaginary parts
# node by node: the unknowns are (Re psi_0, Im psi_0, Re psi_1, ..., Re phi_0,
# Im phi_0, ..., three slacks), the equations (trace, traction, three
# constraints) in the same way.  A^T is filled in C order, which is A in the
# Fortran order LAPACK factors in: the pieces of one panel of source nodes l
# give the rows of A^T that hold psi_l and phi_l.

# a panel holds at most _PANEL_ENTRIES target-by-source entries, 128, 64, 32
# and 16 sources at N = 128 to 1024, and every panel refills one scratch of
# six complex and two real panels, 1.75 MiB beside the system at any N, that
# lives and dies with the assembly, so a panel allocates and faults in no
# large array.  kern's panel becomes c's once the trace rows are written:
# seven, one role each, put the scratch and the N = 128 system past glibc's
# trim threshold, twice the system, so every assembly faulted both in again
# and ran 1.5-2x slower.  Half the entries assemble 6-8% slower at
# N = 128 to 512, and twice as many are no faster (-5% and +4% at N = 256
# and 512).
_PANEL_ENTRIES = 16384


def _write_real_linear(rows: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Write u -> P u + Q conj(u) into the rows of A^T that hold Re u_l and
    Im u_l of the panel's sources, over the 2N equations (Re, Im) of the
    targets.  p and q are P^T and Q^T, entry [l - lo, j]; q is overwritten.
    Since P u + Q conj(u) = (P + Q) Re u + i (P - Q) Im u, those rows are
    P + Q and i (P - Q) with each complex entry viewed as its (Re, Im)
    pair, computed straight into them, P - Q by way of q."""
    np.add(p, q, out=rows[0::2].view(complex))
    np.multiply(1j, np.subtract(p, q, out=q), out=rows[1::2].view(complex))


def _write_panel(psi: np.ndarray, phi: np.ndarray, curve: BoundaryCurve, mat: MaterialPair,
                 lo: int, hi: int, limits: tuple[np.ndarray, ...], work: np.ndarray,
                 real: np.ndarray) -> None:
    """Write the equation columns 0..4N-1 of the rows of A^T that hold
    psi_l and phi_l for the source nodes l = lo..hi-1 into psi and phi,
    2 (hi - lo) rows each.  limits are the per-node arrays of _panels; work
    and real are the scratch's complex and real (hi - lo) x N buffers, all
    entries [l - lo, j] over the target nodes j, so nothing of panel size
    is allocated here.  The curve-only pieces, with diff = z_j - z_l:

    log    single-layer log kernel with its product quadrature weights
    kern   (diff / conj(diff)) w
    a      A = diag(dz) C_ext, C_ext the exterior boundary values of the
           Cauchy integral C[g](z) = (1/2pi) int g/(z-zeta) dsigma; the
           interior A_int = A - i diag(|dz|) differs on the diagonal only
    q      diag(dz) conj(C_ext) + diff * (D conj(C_ext)), with D the
           spectral derivative
    dq     diff * (D diag(v)), v = i |dz| / conj(dz): since conj(C_int) =
           conj(C_ext) + diag(v), the interior side's q is q + dq + diag(dz v)
    """
    n, z, dz, w = curve.n, curve.z, curve.dz, curve.weight[lo:hi]
    ik, log_col, cauchy_col, deriv_col = _periodic_columns(n)
    speed, kern_diag, cauchy_diag, v = (x[lo:hi] for x in limits)
    diag = (np.arange(hi - lo), np.arange(lo, hi))
    diff, c, a, q, p, t = work
    kern = c  # done with before c is written
    log, p_real = real
    bg, inc = mat.background, mat.inclusion
    trace, traction = slice(0, 2 * n), slice(2 * n, 4 * n)
    np.subtract(z[None, :], z[lo:hi, None], out=diff)

    # log|diff| = log(2 |sin((theta_j - theta_l)/2)|) + smooth, with the
    # smooth part's diagonal limit log|dz_j|
    np.abs(diff, out=log)
    log[diag] = speed
    np.log(log, out=log)
    log *= 2.0 * math.pi / n
    log += _circulant_rows(log_col, lo, hi)
    log *= (speed / (2.0 * math.pi))[:, None]

    np.conj(diff, out=kern)
    with np.errstate(divide="ignore", invalid="ignore"):  # diagonal set below
        np.divide(diff, kern, out=kern)
    kern[diag] = kern_diag
    kern *= w[:, None]
    for rows, alpha, beta in ((psi, inc.alpha, inc.beta), (phi, -bg.alpha, -bg.beta)):
        # S[u]|: P = alpha log + g 1 w^T is real and Q = g kern, g = -beta / 4 pi
        g = -beta / (4.0 * math.pi)
        np.multiply(alpha, log, out=p_real)
        p_real += (g * w)[:, None]
        _write_real_linear(rows[:, trace], p_real, np.multiply(g, kern, out=t))

    # C_ext = -i (-I/2 + pv) diag(|dz|/dz) with the principal value
    # pv = -(i/2) H - (i/N) ks: H is the periodic conjugation matrix and
    # ks = -dz_l/(z_j - z_l) - (1/2) cot((theta_l - theta_j)/2) the smooth
    # remainder of the Cauchy kernel, with diagonal limit z''/(2 z')
    with np.errstate(divide="ignore", invalid="ignore"):  # diagonal set below
        np.divide((dz[lo:hi] / n)[:, None], diff, out=c)
    c[diag] = cauchy_diag
    c += _circulant_rows(cauchy_col, lo, hi)
    c *= (speed / dz[lo:hi])[:, None]
    np.multiply(dz, c, out=a)

    np.conj(c, out=c)
    _spectral_derivative(c, ik, out=q)
    q *= diff
    q += np.multiply(dz, c, out=c)
    # D diag(v) is the circulant derivative matrix with scaled columns
    dq = np.multiply(_circulant_rows(deriv_col, lo, hi), v[:, None], out=c)
    dq *= diff

    # phi sees the exterior side of the Cauchy pieces; psi the interior,
    # derived from them in place once phi's rows are written
    for rows, alpha, beta in ((phi, -bg.mu * bg.alpha, -bg.mu * bg.beta),
                              (psi, inc.mu * inc.alpha, inc.mu * inc.beta)):
        if rows is psi:
            a[diag] -= 1j * speed
            q += dq
            q[diag] += dz[lo:hi] * v
        # dG/dtheta of S[u]|, traction * dsigma = -2 i mu (dG/dtheta) dtheta:
        # P = (beta/2) A - (alpha/2) conj(A) and Q = (beta/2) q
        np.multiply(0.5 * beta, a, out=p)
        p -= np.multiply(0.5 * alpha, np.conj(a, out=t), out=t)
        _write_real_linear(rows[:, traction], p, np.multiply(0.5 * beta, q, out=t))


def _panel_height(n: int, count: int) -> int:
    """Sources per panel: the panel's entry budget over N, at most count."""
    return min(count, max(1, _PANEL_ENTRIES // n))


def _panels(curve: BoundaryCurve, mat: MaterialPair, count: int, height: int, destination):
    """Write the rows of A^T of the source nodes 0..count-1, height at a
    time, into destination(lo, hi) = (psi rows, phi rows), yielding
    (lo, hi, psi, phi) once a panel's rows are written."""
    n, dz = curve.n, curve.dz
    work, real = np.empty((6, height, n), dtype=complex), np.empty((2, height, n))
    # |dz| and the diagonal limits of kern, of the Cauchy kernel and of the
    # interior side's correction v, once per node
    speed = np.abs(dz)
    limits = (speed, dz / np.conj(dz),
              0.5j - _spectral_derivative(dz, _periodic_columns(n)[0]) / (2.0 * n * dz),
              1j * speed / np.conj(dz))
    for lo in range(0, count, height):
        hi = min(lo + height, count)
        psi, phi = destination(lo, hi)
        _write_panel(psi, phi, curve, mat, lo, hi, limits, work[:, : hi - lo],
                     real[:, : hi - lo])
        yield lo, hi, psi, phi


def _assemble(curve: BoundaryCurve, mat: MaterialPair) -> np.ndarray:
    """The real (4N+3) x (4N+3) system in Fortran order, the order LAPACK
    factors in: it is filled as A^T in C order, one panel of sources at a
    time, so no N x N piece is held."""
    n, z, w = curve.n, curve.z, curve.weight

    # row r of at is the column of unknown r; its columns are the equations
    at = np.zeros((4 * n + 3, 4 * n + 3))
    for _ in _panels(curve, mat, n, _panel_height(n, n),
                     lambda lo, hi: (at[2 * lo : 2 * hi], at[2 * (n + lo) : 2 * (n + hi)])):
        pass

    # slack columns on the traction rows: the constants 1 and i and the
    # dilation field z.  The rows are written in dG/dtheta variables, so
    # their exact left null space is spanned by Re/Im of the periodicity sum
    # and by Re sum(conj(z) * row); the rotation i*z pairs to zero against
    # the last and cannot close the rank, while z pairs to sum(|z|^2) > 0.
    at[4 * n :, 2 * n : 4 * n] = np.array([np.ones(n), np.full(n, 1j), z]).view(float)

    # discrete orthogonality of phi to the rigid motions m = 1, i and -i z:
    # the column of m holds w (Re m, Im m), the pairing sum w Re(conj(m) phi)
    at[2 * n : 4 * n, 4 * n :] = np.array([w, 1j * w, -1j * w * z]).view(float).T
    return at.T


def _rhs(curve: BoundaryCurve, h: np.ndarray, traction: np.ndarray) -> np.ndarray:
    """The right-hand sides as C-order rows of 4N+3, one per field, which is
    B in the column-major order LAPACK solves in; the constraint entries
    are zero."""
    n = curve.n
    b = np.zeros((len(h), 4 * n + 3))
    rows = b[:, : 4 * n].view(complex)
    rows[:, :n] = h
    np.multiply(0.5j * np.abs(curve.dz), traction, out=rows[:, n:])  # = mu * dG_H/dtheta
    return b


@functools.cache
def _lapack_dgesv():
    """The dgesv of the LAPACK numpy.linalg calls, with its integer type, or
    None where none of the names numpy's builds give it resolves (Windows,
    Accelerate).  Looked up once per process; dlsym on the extension's
    handle also searches the libraries it links."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    ilp64 = getattr(_umath_linalg, "_ilp64", False)
    names = ("scipy_dgesv_64_", "dgesv_64_") if ilp64 else ("scipy_dgesv_", "dgesv_")
    dgesv = next((f for f in (getattr(lib, name, None) for name in names)
                  if f is not None), None)
    if dgesv is None:
        return None
    integer = ctypes.c_int64 if ilp64 else ctypes.c_int32
    ref = ctypes.POINTER(integer)
    # n, nrhs, a, lda, ipiv, b, ldb, info
    dgesv.argtypes = [ref, ref, ctypes.c_void_p, ref, ctypes.c_void_p, ctypes.c_void_p,
                      ref, ref]
    dgesv.restype = None
    return dgesv, integer


def _solve_in_place(a: np.ndarray, b: np.ndarray) -> None:
    """Overwrite the rows of b, the right-hand sides, with the solutions of
    a x = b, and a, in Fortran order, with its LU factors."""
    size = len(a)
    if not (a.shape == (size, size) and b.ndim == 2 and b.shape[1] == size
            and a.flags.f_contiguous and b.flags.c_contiguous
            and a.dtype == b.dtype == np.float64):
        raise ValueError("dgesv needs a Fortran-ordered square system and C-ordered rows")
    lapack = _lapack_dgesv()
    if lapack is None:
        try:
            b[...] = np.linalg.solve(a, b.T).T
        except np.linalg.LinAlgError as exc:
            raise SolverError("transmission system singular") from exc
        return
    dgesv, integer = lapack
    ipiv = np.empty(size, dtype=integer)
    info = integer()
    dgesv(integer(size), integer(len(b)), a.ctypes.data, integer(size), ipiv.ctypes.data,
          b.ctypes.data, integer(size), info)
    if info.value:
        raise SolverError(f"transmission system singular: pivot {info.value} of {size} "
                          "is exactly zero")


# ---------------------------------------------------------------------------
# mirror-symmetric curves.  With e^{i alpha} the direction of the line through
# z_0 and z_{N/2}, the reflection across it maps node j to node N - j and a
# nodal value u to R u = e^{2i alpha} conj(u).  When it maps the curve onto
# itself, the system commutes with it: A P = Q A, where P reflects both
# densities node by node, and Q reflects the trace rows and, with a minus
# sign, the traction rows, which are written in dG/dtheta variables and so
# change sign with the direction of theta.  Taken about z_0, the rigid
# motions e^{i alpha}, i e^{i alpha} and -i (z - z_0) and the slack fields
# i e^{i alpha}, e^{i alpha} and z - z_0 each keep or flip their sign.  The
# system splits into an even block of size 2N + 1 and an odd one of 2N + 2:
# half the panels fill both, and the two LUs take a quarter of the flops.

# how far, in units of the rounding error of max|z - z_0| and max|dz|, the
# nodes and their derivatives may miss the reflection for a curve to take
# the mirrored path
_MIRROR_ULPS = 16


def _mirror_axis(curve: BoundaryCurve) -> complex | None:
    """e^{i alpha} of the line through z_0 and z_{N/2} when the reflection
    across it maps every node j, and its derivative reversed, onto node
    N - j to round-off; None when it does not."""
    n, z, dz = curve.n, curve.z, curve.dz
    chord = z[n // 2] - z[0]
    if not abs(chord) > 0.0:
        return None
    axis = chord / abs(chord)
    rho, mirror, rel = axis * axis, -np.arange(n) % n, z - z[0]
    misses = (np.abs(rel[mirror] - rho * np.conj(rel)).max() / np.abs(rel).max(),
              np.abs(dz[mirror] + rho * np.conj(dz)).max() / np.abs(dz).max())
    return axis if all(miss <= _MIRROR_ULPS * np.finfo(float).eps for miss in misses) else None


def _fold(y: np.ndarray, axis: complex, keep: np.ndarray, flip: np.ndarray) -> None:
    """Fold nodal values y over the node pairs (j, N - j) into the parts
    that the reflection R keeps and flips, N/2 complex entries each on the
    last axis: y_j + R y_{N-j} and y_j - R y_{N-j} for j = 1..N/2-1.  At
    the nodes 0 and N/2 on the axis each part has one real degree of
    freedom, the component of y along the axis (keep) or across it (flip),
    which entry 0 holds for node 0 in Re and for node N/2 in Im."""
    half = y.shape[-1] // 2
    for out, w in ((keep, np.conj(axis)), (flip, -1j * np.conj(axis))):
        out[..., 0] = (w * y[..., 0]).real + 1j * (w * y[..., half]).real
    mirrored = np.conj(y[..., :half:-1])
    mirrored *= axis * axis
    np.add(y[..., 1:half], mirrored, out=keep[..., 1:])
    np.subtract(y[..., 1:half], mirrored, out=flip[..., 1:])


def _fold_equations(rows: np.ndarray, axis: complex, even: np.ndarray, odd: np.ndarray) -> None:
    """Fold the equation columns of rows of A^T into the rows even and odd
    of the blocks' transposes: the even block keeps what R keeps of the
    trace rows and flips of the traction rows."""
    n = rows.shape[-1] // 4
    _fold(rows[:, : 2 * n].view(complex), axis, even[:, :n].view(complex),
          odd[:, :n].view(complex))
    _fold(rows[:, 2 * n :].view(complex), axis, odd[:, n : 2 * n].view(complex),
          even[:, n : 2 * n].view(complex))


def _solve_mirrored(curve: BoundaryCurve, mat: MaterialPair, h: np.ndarray,
                    traction: np.ndarray, axis: complex) -> tuple[np.ndarray, np.ndarray]:
    """solve_densities for a curve that the reflection across axis through
    z_0 maps onto itself, as the even and the odd block.

    Each block's transpose is filled in C order like A^T.  Its rows are the
    unknowns: per density N coordinates, rows 2l and 2l + 1 the (Re, Im) of
    c_l for node pairs l = 1..N/2-1, with u_l = (c_l^even + c_l^odd)/2 and
    u_{N-l} = R (c_l^even - c_l^odd)/2, and rows 0 and 1 the components of
    u_0 and u_{N/2} along the axis (even) or across it (odd); then the
    slacks.  Its columns are the folded trace and traction rows, then the
    constraints."""
    n, half = curve.n, curve.n // 2
    across, rel = 1j * axis, curve.z - curve.z[0]
    # One allocation the full system's size holds both blocks and the panel
    # rows, so that malloc serves every solve at a node count alike.  Blocks
    # of their own size, freed to the heap, lifted glibc's mmap and trim
    # thresholds and the heap kept up to two blocks' worth of pages under
    # the next full system (forward_contrast's peak RSS read 107 MiB against
    # 87); mapped apart, they came on top of the heap that a full N = 256
    # system had left (roundtrip_cli, 65.6 MiB against 59.3).  Its untouched
    # part is never faulted in where the allocation is mapped.  The rows fit
    # beside the blocks at panels of at most N/2 sources.
    sizes = (2 * n + 1) ** 2, (2 * n + 2) ** 2
    memory = np.zeros((4 * n + 3) ** 2)
    even = memory[: sizes[0]].reshape(2 * n + 1, 2 * n + 1)
    odd = memory[sizes[0] : sum(sizes)].reshape(2 * n + 2, 2 * n + 2)
    height = _panel_height(n, half)
    panel = memory[sum(sizes) : sum(sizes) + 16 * height * n].reshape(2, 2 * height, 4 * n)
    turn = np.array([[axis.real, axis.imag], [-axis.imag, axis.real]])
    for lo, hi, psi, phi in _panels(curve, mat, half + 1, height,
                                    lambda lo, hi: panel[:, : 2 * (hi - lo)]):
        for offset, rows in ((0, psi), (n, phi)):
            for node, slot in ((0, offset), (half, offset + 1)):
                if lo <= node < hi:
                    # u_node along and across the axis, the even and odd row
                    pair = rows[2 * (node - lo) : 2 * (node - lo) + 2]
                    pair[...] = turn @ pair
                    folded = np.empty((2, 2, 2 * n))
                    _fold_equations(pair, axis, *folded)
                    even[slot, : 2 * n], odd[slot, : 2 * n] = folded[0, 0], folded[1, 1]
            first, last = max(lo, 1), min(hi, half)
            if first < last:
                _fold_equations(rows[2 * (first - lo) : 2 * (last - lo)], axis,
                                even[offset + 2 * first : offset + 2 * last],
                                odd[offset + 2 * first : offset + 2 * last])

    # the slack fields on the traction rows, one even and two odd
    slacks = np.zeros((3, 4 * n))
    slacks[:, 2 * n :] = np.array([np.full(n, across), np.full(n, axis), rel]).view(float)
    folded = np.empty((2, 3, 2 * n))
    _fold_equations(slacks, axis, *folded)
    even[2 * n :, : 2 * n], odd[2 * n :, : 2 * n] = folded[0, :1], folded[1, 1:]
    # the constraints pair phi with the rigid motions, one even and two odd;
    # on the axis the unknown is u's component along or across it
    for block, along, motions in ((even, axis, [axis]), (odd, across, [across, -1j * rel])):
        for c, motion in enumerate(motions):
            pairing = curve.weight * motion
            column = block[n : 2 * n, 2 * n + c]
            column[:2] = (np.conj(along) * pairing[[0, half]]).real
            column[2:] = pairing[1:half].view(float)

    fields = np.multiply(0.5j * np.abs(curve.dz), traction)  # = mu * dG_H/dtheta
    rhs = [np.zeros((len(h), len(block))) for block in (even, odd)]
    _fold_equations(np.concatenate([h, fields], axis=1).view(float), axis, *rhs)
    for block, b in zip((even, odd), rhs):
        _solve_in_place(block.T, b)
    c_even, c_odd = (b[:, : 2 * n].view(complex).reshape(len(h), 2, half) for b in rhs)
    densities = np.empty((len(h), 2, n), dtype=complex)
    densities[..., 0] = axis * (c_even[..., 0].real + 1j * c_odd[..., 0].real)
    densities[..., half] = axis * (c_even[..., 0].imag + 1j * c_odd[..., 0].imag)
    densities[..., 1:half] = 0.5 * (c_even[..., 1:] + c_odd[..., 1:])
    densities[..., :half:-1] = (0.5 * axis * axis) * np.conj(c_even[..., 1:] - c_odd[..., 1:])
    return densities[:, 0], densities[:, 1]


def solve_densities(curve: BoundaryCurve, mat: MaterialPair, h: np.ndarray,
                    traction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the transmission system for the fields whose values h and
    tractions stack on axis 0, shape (fields, N); the matrix is assembled
    and factorized a single time, as two half-size blocks when the curve is
    mirror-symmetric (_mirror_axis).  Returns the densities (psi, phi), each
    of shape (fields, N)."""
    axis = _mirror_axis(curve)
    if axis is not None:
        return _solve_mirrored(curve, mat, h, traction, axis)
    n = curve.n
    a = _assemble(curve, mat)
    b = _rhs(curve, h, traction)  # after the assembly, so not beside its scratch
    _solve_in_place(a, b)
    densities = b[:, : 4 * n].view(complex)
    return densities[:, :n], densities[:, n:]
