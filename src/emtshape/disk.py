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

from .emt import from_channels
from .materials import MaterialPair

__all__ = [
    "binomial_shift",
    "disk_modified_emt",
    "disk_emt_general",
    "disk_emt_table",
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

    The a0-centered disk's channels are F = 2 diag(disk_modified_emt) and
    S = 0; recentered at -a0 (binomial_shift) they give the origin-based table.
    """
    u = binomial_shift(order, -complex(a0))
    f = np.conj(u) @ (2.0 * disk_modified_emt(mat, gamma, order)[:, None] * u.T)
    return from_channels(f, np.zeros_like(f))


def binomial_shift(order: int, a0: complex) -> np.ndarray:
    """Lower-triangular complex u_nk = C(n,k) (-a0)^{n-k} for n, k = 1..order,
    the coefficients of (z - a0)^n = (-a0)^n + sum_k u_nk z^k.

    It is the one recentering map: a table's channels F, S (emt.channels)
    recenter at a0 as F' = conj(u) F u^T and S' = conj(u) S u^H, in the
    inversion (reconstruct.modified_emts) and, at -a0, in disk_emt_table."""
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
