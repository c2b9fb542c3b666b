"""Closed-form transmission solutions for a circular inclusion.

On a disk the density basis phi_k(theta) = gamma^{-1} e^{i k theta}
diagonalizes the transmission system, so every contracted moment is
available in closed form.  These formulas are the reference values
for the Nystrom solver and the anchor of the inversion.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .materials import MaterialPair

__all__ = [
    "binomial_shift",
    "disk_modified_emt",
    "disk_emt_general",
    "disk_emt_table",
    "recentering_matrix",
]


def disk_modified_emt(mat: MaterialPair, gamma: float, order: int) -> np.ndarray:
    """Diagonal of the centered disk's table, 2 pi M0 n gamma^{2n} for
    n = 1..order: in the disk-centered fields E^{(t,s)}_{nm} is this value
    when n = m and t = s, and zero otherwise."""
    n = np.arange(1, order + 1)
    return 2.0 * math.pi * mat.m0 * n * gamma ** (2 * n)


def disk_emt_general(mat: MaterialPair, gamma: float, a0: complex, n: int, m: int,
                     t: int, s: int) -> float:
    """Contracted moment of the (possibly off-center) disk for origin-based
    background fields conj(q_t z^n), conj(q_s z^m); one entry of
    disk_emt_table.  Entrywise,

        E^{(t,s)}_{nm} = 2 pi M0 Re{ q_t conj(q_s) S_nm },
        S_nm = sum_{k=1}^{min(n,m)} k gamma^{2k} b_{nk} conj(b_{mk}),
        b_{nk} = C(n,k) a0^{n-k}.

    Symmetric under (n,t) <-> (m,s) exchange; reduces to disk_modified_emt at
    a0 = 0.  E.g. E^{(1,1)}_{12} = 2 pi gamma^2 M0 (a0 + conj(a0)).
    """
    if t not in (1, 2) or s not in (1, 2):
        raise ValueError(f"closed forms cover t, s in {{1, 2}}, got t={t}, s={s}")
    if min(n, m) < 1:
        raise ValueError(f"degrees must be >= 1, got n={n}, m={m}")
    return float(disk_emt_table(mat, gamma, a0, max(n, m))[n - 1, m - 1, t - 1, s - 1])


def disk_emt_table(mat: MaterialPair, gamma: float, a0: complex, order: int) -> np.ndarray:
    """All contracted moments of the disk D(a0, gamma) with n, m <= order and
    t, s in {1, 2}, indexed like EmtTable.values.

    In the a0-centered fields the table D is diagonal (disk_modified_emt),
    and R(-a0) expands the origin-based fields in those, so the origin-based
    table is R(-a0) D R(-a0)^T.
    """
    r = recentering_matrix(order, -complex(a0))
    diag = np.repeat(disk_modified_emt(mat, gamma, order), 2)
    return (r @ (diag[:, None] * r.T)).reshape(order, 2, order, 2).transpose(0, 2, 1, 3)


def recentering_matrix(order: int, a0: complex) -> np.ndarray:
    """Real 2*order x 2*order change of basis from origin-based to
    a0-centered background fields.

    With q_1 = 1, q_2 = i and u_nk = q_t C(n,k) (-a0)^{n-k},

        conj(q_t (z - a0)^n) = const + sum_{k=1}^{n} Re(u_nk) conj(z^k)
                                     + Im(u_nk) conj(i z^k).

    Row (n, t) holds Re/Im u_nk in columns (k, 1)/(k, 2); index (n, t) maps
    to 2(n-1) + (t-1).  Density map and EMT pairing are real-linear, so a
    table E flattened the same way recenters as R(a0) E R(a0)^T, and
    R(a0) R(-a0) = I.
    """
    u = binomial_shift(order, a0)
    # t = 2 multiplies u by i: (Re u, Im u) -> (-Im u, Re u)
    r = np.empty((order, 2, order, 2))
    r[:, 0, :, 0] = u.real
    r[:, 0, :, 1] = u.imag
    r[:, 1, :, 0] = -u.imag
    r[:, 1, :, 1] = u.real
    return r.reshape(2 * order, 2 * order)


def binomial_shift(order: int, a0: complex) -> np.ndarray:
    """Lower-triangular complex u_nk = C(n,k) (-a0)^{n-k} for n, k = 1..order,
    the coefficients of (z - a0)^n = (-a0)^n + sum_k u_nk z^k.

    It is the one recentering map: recentering_matrix splits it into real
    blocks, and the inversion recenters the table's complex channels with it
    (reconstruct.modified_emts)."""
    comb, lag = _binomial_table(order)
    return comb * (complex(-a0) ** np.arange(order))[lag]


@functools.cache
def _binomial_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only C(n,k) and lag max(n-k, 0) for n, k = 1..order; they depend
    on the order alone, so each order builds them once per process."""
    deg = np.arange(1, order + 1)
    comb = np.array([[math.comb(n, k) for k in deg] for n in deg], dtype=float)
    lag = np.maximum(deg[:, None] - deg[None, :], 0)
    comb.setflags(write=False)
    lag.setflags(write=False)
    return comb, lag
