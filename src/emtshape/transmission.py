"""Nystrom solver for the planar inclusion transmission system.

Displacements are complex-valued; the transmission pair (psi, phi) solves

    S~[psi]| - S[phi]|          = H          (trace)
    dnu~ S~[psi]|- - dnu S[phi]|+ = dnu H    (traction)

with phi orthogonal to the discrete rigid motions {1, i, iz}.  The log kernel
of the single-layer trace uses the trigonometric product quadrature (exact
for trigonometric polynomials below the Nyquist mode); the traction operators
are built from boundary values of Cauchy-type integrals (circular Hilbert
transform + smooth remainder) and spectral differentiation.  Conjugations
make every operator real-linear but not complex-linear, so the assembled
system is real of size 4N+3: the extra three columns are rigid-motion slacks
attached to the traction rows, the extra three rows the orthogonality
constraints on phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryCurve
from .materials import MaterialPair

__all__ = [
    "SolverError",
    "evaluate_background",
    "solve_densities",
    "residual_norms",
    "rigid_motion_residuals",
]


class SolverError(RuntimeError):
    """Raised when the discretized transmission system cannot be solved."""


def evaluate_background(curve: BoundaryCurve, mu: float, order: int,
                        center: complex = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values and traction densities of the background fields
    h_n^(t) = conj(q_t w^n), q_1 = 1, q_2 = i, w = z - center, n <= order.

    Both arrays have shape (2 order, N); row 2(n-1) + (t-1) holds h_n^(t).
    The traction (conormal derivative per unit arc length, mu the background
    shear modulus) comes from the complex representation: with potentials
    (f, g) of h, traction * dsigma = -2 i mu d/dtheta [f + z conj(f') + conj(g)],
    here 2 i mu conj(q_t n w^(n-1) dz) dtheta.
    """
    powers = (curve.z - center) ** np.arange(order + 1)[:, None]
    q = np.array([1.0, 1.0j])[:, None]
    n = np.arange(1, order + 1)[:, None, None]
    h = np.conj(q * powers[1:, None])
    traction = np.conj(q * n * powers[:-1, None] * curve.dz)
    traction *= 2.0j * mu / np.abs(curve.dz)
    return h.reshape(2 * order, -1), traction.reshape(2 * order, -1)


# ---------------------------------------------------------------------------
# periodic spectral operators

def _circulant(col: np.ndarray) -> np.ndarray:
    n = col.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx]


def _wavenumbers(n: int) -> np.ndarray:
    # Fourier modes in fft order with the Nyquist mode dropped (set to 0)
    k = np.rint(np.fft.fftfreq(n, 1.0 / n))
    k[n // 2] = 0.0
    return k


def _spectral_derivative(f: np.ndarray) -> np.ndarray:
    """d/dtheta of periodic nodal values, along axis 0."""
    f_hat = np.fft.fft(f, axis=0)
    f_hat *= (1j * _wavenumbers(f.shape[0])).reshape((-1,) + (1,) * (f.ndim - 1))
    return np.fft.ifft(f_hat, axis=0)


def _log_quadrature_row(n: int) -> np.ndarray:
    # weights R_d with sum_l R_{(j-l) mod N} e^{ik tau_l} = -(2 pi/|k|) e^{ik theta_j}
    d = np.arange(n)
    m = np.arange(1, n // 2)
    series = (np.cos(2.0 * math.pi * np.outer(d, m) / n) / m).sum(axis=1)
    return -(4.0 * math.pi / n) * (series + np.where(d % 2 == 0, 1.0, -1.0) / n)


# ---------------------------------------------------------------------------
# curve-only operator pieces.  Every operator below is real-linear,
# phi -> P phi + Q conj(phi), and enters the system as the real 2N x 2N block
# [[Re P + Re Q, Im Q - Im P], [Im P + Im Q, Re P - Re Q]].  P and Q are
# material scalars times the pieces of _CurveOperators, so the materials
# only scale them.

@dataclass(frozen=True)
class _CurveOperators:
    """Real N x N pieces of the Nystrom system that depend only on the curve.

    log    single-layer log kernel with its product quadrature weights
    kern   (diff / conj(diff)) w, with diff_jl = z_j - z_l
    a      A = diag(dz) C_ext, C_ext the exterior boundary values of the Cauchy
           integral C[g](z) = (1/2pi) int g/(z-zeta) dsigma; the interior
           A_int = A - i diag(|dz|) differs on the diagonal only
    q_ext, q_int  diag(dz) conj(C) + diff * (D conj(C)) for each side, with D
           the spectral derivative

    Complex pieces are stored as (real part, imaginary part).
    """

    n: int
    weight: np.ndarray
    speed: np.ndarray
    log: np.ndarray
    kern: tuple[np.ndarray, np.ndarray]
    a: tuple[np.ndarray, np.ndarray]
    q_ext: tuple[np.ndarray, np.ndarray]
    q_int: tuple[np.ndarray, np.ndarray]


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x.real.copy(), x.imag.copy()


def _curve_operators(curve: BoundaryCurve) -> _CurveOperators:
    n, z, dz, w = curve.n, curve.z, curve.dz, curve.weight
    speed = np.abs(dz)
    diff = z[:, None] - z[None, :]
    diag = np.diag_indices(n)
    k = _wavenumbers(n)

    # kernels of theta_j - theta_l = 2 pi m / N enter as circulant columns in
    # m; the half angle is folded to (0, pi/2] so that it stays accurate next
    # to the diagonal on both sides (cot is odd and sin even about m = N/2)
    m = np.arange(1, n)
    half = math.pi * np.minimum(m, n - m) / n
    log_sin = np.concatenate([[0.0], np.log(2.0 * np.sin(half))])
    cot = np.concatenate([[0.0], np.where(m < n - m, 0.5, -0.5) / np.tan(half)])

    # log|diff| = log(2 |sin((theta_j - theta_l)/2)|) + smooth, with the
    # smooth part's diagonal limit log|dz_j|
    log = np.abs(diff)
    log[diag] = speed
    np.log(log, out=log)
    log *= 2.0 * math.pi / n
    log += _circulant(0.5 * _log_quadrature_row(n) - (2.0 * math.pi / n) * log_sin)
    log *= (speed / (2.0 * math.pi))[None, :]

    with np.errstate(divide="ignore", invalid="ignore"):  # diagonals set below
        kern = diff / np.conj(diff)
        c = (dz / n)[None, :] / diff
    kern[diag] = dz / np.conj(dz)
    kern *= w[None, :]
    kern = _split(kern)

    # C_ext = -i (-I/2 + pv) diag(|dz|/dz) with the principal value
    # pv = -(i/2) H - (i/N) ks: H is the periodic conjugation matrix and
    # ks = -dz_l/(z_j - z_l) - (1/2) cot((theta_l - theta_j)/2) the smooth
    # remainder of the Cauchy kernel, with diagonal limit z''/(2 z')
    c[diag] = 0.5j - _spectral_derivative(dz) / (2.0 * n * dz)
    c += _circulant(-0.5 * np.fft.ifft(1j * np.sign(k)).real - cot / n)
    c *= (speed / dz)[None, :]
    a = _split(dz[:, None] * c)

    np.conj(c, out=c)
    q = _spectral_derivative(c)
    q *= diff
    q += dz[:, None] * c
    q_ext = _split(q)
    # conj(C_int) = conj(C_ext) + diag(v), and D diag(v) is the circulant
    # derivative matrix with scaled columns; it reuses the buffer of c
    v = 1j * speed / np.conj(dz)
    dv = np.multiply(_circulant(np.fft.ifft(1j * k).real), v[None, :], out=c)
    dv *= diff
    q += dv
    q[diag] += dz * v
    return _CurveOperators(n=n, weight=w, speed=speed, log=log, kern=kern,
                           a=a, q_ext=q_ext, q_int=_split(q))


def _scaled_sum(out: np.ndarray, s: float, x: np.ndarray, t: float, y: np.ndarray) -> None:
    np.multiply(x, s, out=out)
    out += t * y


def _trace_block(out: np.ndarray, ops: _CurveOperators, alpha: float, beta: float) -> None:
    """Write the real block of the single-layer trace S[phi]| into out."""
    n = ops.n
    k_re, k_im = ops.kern
    c = -beta / (4.0 * math.pi)
    # P = alpha log + c 1 w^T is real; Q = c kern
    _scaled_sum(out[:n, :n], alpha, ops.log, c, k_re)
    _scaled_sum(out[n:, n:], alpha, ops.log, -c, k_re)
    out[:n, :n] += c * ops.weight
    out[n:, n:] += c * ops.weight
    np.multiply(k_im, c, out=out[:n, n:])
    np.multiply(k_im, c, out=out[n:, :n])


def _traction_block(out: np.ndarray, ops: _CurveOperators, alpha: float, beta: float,
                    interior: bool) -> None:
    """Write the real block of dG/dtheta of the single layer into out, where
    traction * dsigma = -2 i mu (dG/dtheta) dtheta, from the interior or the
    exterior side."""
    n = ops.n
    a_re, a_im = ops.a
    q_re, q_im = ops.q_int if interior else ops.q_ext
    # P = (beta/2) A - (alpha/2) conj(A), Q = (beta/2) q
    s, t, u = 0.5 * (beta - alpha), 0.5 * (beta + alpha), 0.5 * beta
    _scaled_sum(out[:n, :n], s, a_re, u, q_re)
    _scaled_sum(out[:n, n:], u, q_im, -t, a_im)
    _scaled_sum(out[n:, :n], t, a_im, u, q_im)
    _scaled_sum(out[n:, n:], s, a_re, -u, q_re)
    if interior:
        j = np.arange(n)
        out[j, n + j] += t * ops.speed
        out[n + j, j] -= t * ops.speed


def _assemble(curve: BoundaryCurve, mat: MaterialPair) -> np.ndarray:
    n = curve.n
    k = mat.constants
    mu, mu_t = mat.background.mu, mat.inclusion.mu
    ops = _curve_operators(curve)
    a = np.zeros((4 * n + 3, 4 * n + 3))

    # every block is linear in (alpha, beta), so the material factors scale them
    _trace_block(a[: 2 * n, : 2 * n], ops, k.alpha_tilde, k.beta_tilde)
    _trace_block(a[: 2 * n, 2 * n : 4 * n], ops, -k.alpha, -k.beta)
    _traction_block(a[2 * n : 4 * n, : 2 * n], ops,
                    mu_t * k.alpha_tilde, mu_t * k.beta_tilde, interior=True)
    _traction_block(a[2 * n : 4 * n, 2 * n : 4 * n], ops,
                    -mu * k.alpha, -mu * k.beta, interior=False)

    # slack columns on the traction rows: constants and the dilation field z.
    # The rows are written in dG/dtheta variables, so their exact left null
    # space is spanned by Re/Im of the periodicity sum and by Re sum(conj(z) *
    # row); the rotation i*z pairs to zero against the last and cannot close
    # the rank, while z pairs to sum(|z|^2) > 0.
    z = curve.z
    a[2 * n : 3 * n, 4 * n] = 1.0
    a[3 * n : 4 * n, 4 * n + 1] = 1.0
    a[2 * n : 3 * n, 4 * n + 2] = z.real
    a[3 * n : 4 * n, 4 * n + 2] = z.imag

    # discrete orthogonality of phi to the rigid motions
    w = curve.weight
    a[4 * n, 2 * n : 3 * n] = w
    a[4 * n + 1, 3 * n : 4 * n] = w
    a[4 * n + 2, 2 * n : 3 * n] = w * z.imag
    a[4 * n + 2, 3 * n : 4 * n] = -w * z.real
    return a


def _rhs(curve: BoundaryCurve, h: np.ndarray, traction: np.ndarray) -> np.ndarray:
    """The 4N equation rows of the right-hand side, one column per field."""
    v = 0.5j * np.abs(curve.dz) * traction  # = mu * dG_H/dtheta
    return np.concatenate([h.real, h.imag, v.real, v.imag], axis=1).T


def solve_densities(curve: BoundaryCurve, mat: MaterialPair, h: np.ndarray,
                    traction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the transmission system for the fields whose values h and
    tractions stack on axis 0, shape (fields, N); the matrix is assembled
    and factorized a single time.  Returns the densities (psi, phi), each of
    shape (fields, N)."""
    n = curve.n
    a = _assemble(curve, mat)
    b = np.zeros((4 * n + 3, len(h)))
    b[: 4 * n] = _rhs(curve, h, traction)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(a)
        raise SolverError(f"transmission system singular (cond ~ {cond:.3e})") from exc
    psi = x[:n] + 1j * x[n : 2 * n]
    phi = x[2 * n : 3 * n] + 1j * x[3 * n : 4 * n]
    return psi.T, phi.T


def rigid_motion_residuals(curve: BoundaryCurve, phi: np.ndarray) -> np.ndarray:
    """The three discrete rigid-motion pairings of each row of phi, shape
    (fields, 3) (all ~ 0 after a solve)."""
    w = curve.weight
    return np.stack([phi.real @ w, phi.imag @ w,
                     np.real(1j * np.conj(curve.z) * phi) @ w], axis=-1)


def residual_norms(curve: BoundaryCurve, mat: MaterialPair, h: np.ndarray,
                   traction: np.ndarray, psi: np.ndarray,
                   phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative weighted-l2 residuals of the two discretized equations, one
    entry per field on axis 0 of the arrays."""
    n = curve.n
    x = np.concatenate([psi.real, psi.imag, phi.real, phi.imag], axis=1).T
    b = _rhs(curve, h, traction)
    # a density pair carries no rigid-motion slacks: their columns drop out
    r = _assemble(curve, mat)[: 4 * n, : 4 * n] @ x - b
    w2 = np.tile(curve.weight, 2)  # rows hold Re then Im of each equation

    def wnorm(v):
        return np.sqrt(w2 @ v**2)

    eps = np.finfo(float).tiny
    trace, traction_rows = slice(0, 2 * n), slice(2 * n, 4 * n)
    return (wnorm(r[trace]) / np.maximum(wnorm(b[trace]), eps),
            wnorm(r[traction_rows]) / np.maximum(wnorm(b[traction_rows]), eps))
