import math

import numpy as np
import pytest

from emtshape.disk import (
    binomial_shift,
    disk_emt_general,
    disk_emt_table,
    disk_modified_emt,
)
from emtshape.materials import LameConstants, MaterialPair

SOFT = MaterialPair(LameConstants(1.5, 1.2), LameConstants(0.6, 0.4))
STIFF = MaterialPair(LameConstants(1.5, 1.2), LameConstants(1.8, 1.5))


def test_modified_emt_diagonal():
    m0 = SOFT.m0
    for gamma in (0.7, 1.3):
        moments = disk_modified_emt(SOFT, gamma, 5)
        assert moments.shape == (5,)
        for n in range(1, 6):
            expected = 2.0 * math.pi * m0 * n * gamma ** (2 * n)
            assert moments[n - 1] == pytest.approx(expected, rel=1e-14)
        # the centered table is diagonal in (n, m) and in (t, s)
        expected = np.einsum("nm,ts,n->nmts", np.eye(5), np.eye(2), moments)
        assert np.array_equal(disk_emt_table(SOFT, gamma, 0.0, 5), expected)


def test_general_emt_reduces_to_centered():
    moments = disk_modified_emt(SOFT, 0.9, 3)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for t in (1, 2):
                for s in (1, 2):
                    expected = moments[n - 1] if (n, t) == (m, s) else 0.0
                    assert disk_emt_general(SOFT, 0.9, 0.0, n, m, t, s) == pytest.approx(
                        expected, abs=1e-14
                    )


def test_general_emt_symmetry():
    a0 = -0.9 + 1.2j
    table = disk_emt_table(STIFF, 1.3, a0, 4)
    swapped = table.transpose(1, 0, 3, 2)  # (n,m,t,s) -> (m,n,s,t)
    assert np.max(np.abs(table - swapped)) < 1e-12 * np.max(np.abs(table))


@pytest.mark.parametrize("a0", [0.0, -0.9 + 1.2j, 0.3 - 0.2j])
def test_disk_emt_table_matches_binomial_sum(a0):
    # E^{(t,s)}_{nm} = 2 pi M0 Re{q_t conj(q_s) S_nm},
    # S_nm = sum_k k gamma^{2k} C(n,k) a0^{n-k} conj(C(m,k) a0^{m-k})
    gamma, order, q = 0.8, 6, (1.0, 1.0j)
    m0 = STIFF.m0
    table = disk_emt_table(STIFF, gamma, a0, order)
    for n in range(1, order + 1):
        for m in range(1, order + 1):
            s_nm = sum(k * gamma ** (2 * k) * math.comb(n, k) * a0 ** (n - k)
                       * np.conj(math.comb(m, k) * a0 ** (m - k))
                       for k in range(1, min(n, m) + 1))
            for t in (1, 2):
                for s in (1, 2):
                    exact = 2.0 * math.pi * m0 * (q[t - 1] * np.conj(q[s - 1]) * s_nm).real
                    assert table[n - 1, m - 1, t - 1, s - 1] == pytest.approx(
                        exact, rel=1e-13, abs=1e-13 * np.max(np.abs(table)))


def test_general_emt_hand_values():
    # E^{(1,1)}_{12} = 4 pi gamma^2 M0 Re(a0); E^{(1,2)}_{12} = -4 pi gamma^2 M0 Im(a0)
    a0, gamma = -0.9 + 1.2j, 0.7
    m0 = SOFT.m0
    assert disk_emt_general(SOFT, gamma, a0, 1, 2, 1, 1) == pytest.approx(
        4.0 * math.pi * gamma**2 * m0 * a0.real, rel=1e-13)
    assert disk_emt_general(SOFT, gamma, a0, 1, 2, 1, 2) == pytest.approx(
        -4.0 * math.pi * gamma**2 * m0 * a0.imag, rel=1e-13)
    assert disk_emt_general(SOFT, gamma, 0.0, 1, 1, 1, 1) == pytest.approx(
        2.0 * math.pi * gamma**2 * m0, rel=1e-14)


def test_recentering_matrix_inverse_is_opposite_shift():
    a0 = 0.4 - 0.3j
    product = binomial_shift(12, a0) @ binomial_shift(12, -a0)
    assert np.max(np.abs(product - np.eye(12))) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 6, 24, 40])
@pytest.mark.parametrize("a0", [0.0, -0.9 + 1.2j, 0.3 - 0.2j])
def test_recentering_matrix_matches_definition(order, a0):
    # the recentering matrix binomial_shift: u_nk = C(n,k) (-a0)^(n-k) for
    # k <= n, zero above the diagonal
    want = np.zeros((order, order), dtype=complex)
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            want[n - 1, k - 1] = math.comb(n, k) * complex(-a0) ** (n - k)
    got = binomial_shift(order, a0)
    assert np.array_equal(got, want)
    got[...] = 7.0  # the per-order tables behind it are shared between calls
    assert np.array_equal(binomial_shift(order, a0), want)


def test_general_emt_index_validation():
    with pytest.raises(ValueError):
        disk_emt_general(SOFT, 1.0, 0.0, 1, 1, 3, 1)
    with pytest.raises(ValueError):
        disk_emt_general(SOFT, 1.0, 0.0, 1, 1, 1, 0)
