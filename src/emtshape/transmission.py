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


def _write_panel(at: np.ndarray, curve: BoundaryCurve, mat: MaterialPair, lo: int, hi: int,
                 limits: tuple[np.ndarray, ...], work: np.ndarray, real: np.ndarray) -> None:
    """Write the rows of A^T that hold psi_l and phi_l for the source nodes
    l = lo..hi-1.  limits are the per-node arrays of _assemble; work and
    real are the scratch's complex and real (hi - lo) x N buffers, all
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
    psi, phi = at[2 * lo : 2 * hi], at[2 * (n + lo) : 2 * (n + hi)]
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


def _assemble(curve: BoundaryCurve, mat: MaterialPair) -> np.ndarray:
    """The real (4N+3) x (4N+3) system in Fortran order, the order LAPACK
    factors in: it is filled as A^T in C order, one panel of sources at a
    time, so no N x N piece is held."""
    n, z, dz, w = curve.n, curve.z, curve.dz, curve.weight

    # row r of at is the column of unknown r; its columns are the equations
    at = np.zeros((4 * n + 3, 4 * n + 3))
    height = min(n, max(1, _PANEL_ENTRIES // n))
    work, real = np.empty((6, height, n), dtype=complex), np.empty((2, height, n))
    # |dz| and the diagonal limits of kern, of the Cauchy kernel and of the
    # interior side's correction v, once per node
    speed = np.abs(dz)
    limits = (speed, dz / np.conj(dz),
              0.5j - _spectral_derivative(dz, _periodic_columns(n)[0]) / (2.0 * n * dz),
              1j * speed / np.conj(dz))
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        _write_panel(at, curve, mat, lo, hi, limits, work[:, : hi - lo], real[:, : hi - lo])

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


def solve_densities(curve: BoundaryCurve, mat: MaterialPair, h: np.ndarray,
                    traction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the transmission system for the fields whose values h and
    tractions stack on axis 0, shape (fields, N); the matrix is assembled
    and factorized a single time.  Returns the densities (psi, phi), each of
    shape (fields, N), views of the solved rows."""
    n = curve.n
    a = _assemble(curve, mat)
    b = _rhs(curve, h, traction)  # after the assembly, so not beside its scratch
    _solve_in_place(a, b)
    densities = b[:, : 4 * n].view(complex)
    return densities[:, :n], densities[:, n:]
