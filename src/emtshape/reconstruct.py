"""Two-step analytic inversion of contracted EMTs into a boundary estimate.

Step 1 fits a disk D(a0, gamma) to the three leading entries.  Step 2
recenters the table's two complex channels at a0 (one binomial matrix),
subtracts the exact disk's first channel, and divides the resulting
first-channel column by its known factors to read off the Fourier
coefficients eps*h_k of the radial perturbation.  The product eps*h_k is
never separated into factors.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .disk import binomial_shift, disk_modified_emt
from .emt import EmtTable
from .geometry import BoundaryCurve
from .materials import MaterialPair

__all__ = [
    "InversionError",
    "DiskEstimate",
    "ShapeEstimate",
    "ShapeError",
    "estimate_disk",
    "modified_emts",
    "deltas",
    "fourier_coefficients",
    "reconstruct",
    "reconstruct_curve",
    "shape_error",
    "shape_estimate_to_json",
]

class InversionError(RuntimeError):
    """Raised when the EMT data admit no disk fit (wrong-signed leading entry,
    matched shear moduli, a table too small for Step 1, or a radius that
    overflows), or when the inversion overflows or is not finite."""


@dataclass(frozen=True)
class DiskEstimate:
    a0: complex
    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and positive")


@dataclass(frozen=True)
class ShapeEstimate:
    disk: DiskEstimate
    coeffs: np.ndarray  # eps*h_k for k = 0 .. order-1
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d complex sequence")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class ShapeError:
    hausdorff: float


def estimate_disk(values: np.ndarray, mat: MaterialPair) -> DiskEstimate:
    """Disk whose E^{(1,1)}_{11}, E^{(1,1)}_{12}, E^{(1,2)}_{12} match the data,
    ``values`` indexed like EmtTable.values."""
    if values.shape[0] < 2:
        raise InversionError("disk fit needs entries up to order 2")
    m0 = mat.m0
    if m0 == 0.0:
        raise InversionError(
            "matched shear moduli (mu = mu~) make the leading EMT vanish; "
            "the disk radius is not identifiable from this data"
        )
    ratio = float(values[0, 0, 0, 0]) / (2.0 * math.pi * m0)
    if ratio <= 0.0:
        raise InversionError(
            f"E^(1,1)_11 / M0 = {2.0 * math.pi * ratio:.6g} is not positive: "
            "the leading entry contradicts the material contrast "
            "(noise-corrupted table?)"
        )
    gamma = math.sqrt(ratio)
    if not math.isfinite(gamma):
        raise InversionError(f"the disk radius overflows for M0 = {m0:.6g}")
    a0 = (float(values[0, 1, 0, 0]) - 1j * float(values[0, 1, 0, 1])) / (
        4.0 * math.pi * gamma**2 * m0
    )
    return DiskEstimate(a0, gamma)


def modified_emts(values: np.ndarray, a0: complex) -> tuple[np.ndarray, np.ndarray]:
    """The table's complex channels recentered at a0: the first-channel
    column F'_{n1} and the second channel S'_{nm}, n, m = 1..order, of
    ``values`` indexed like EmtTable.values (order = values.shape[0]).

    At each (n, m) the channels are F = E^{11} + E^{22} - i (E^{12} - E^{21})
    and S = E^{11} - E^{22} + i (E^{12} + E^{21}), so the table is the real
    bilinear form Re(conj(S) a b + conj(F) a conj(b)) / 2 of the fields'
    complex coefficients a, b.  The real congruence R(a0) E R(a0)^T of
    disk.recentering_matrix is then F' = conj(u) F u^T and
    S' = conj(u) S u^H with u = disk.binomial_shift(order, a0); the first
    row of u is (1, 0, ..., 0), so F'_{n1} is the one product conj(u) F_{k1}.
    """
    u = binomial_shift(values.shape[0], a0)
    c = values.view(complex)[..., 0]  # c[n, m, t] = E^{(t,1)} + i E^{(t,2)}
    first = np.conj(u @ (c[:, 0, 0] - 1j * c[:, 0, 1]))
    second = np.conj(u) @ (c[..., 0] + 1j * c[..., 1]) @ u.T.conj()
    return first, second


def deltas(first: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Data-minus-disk gaps of the recentered first-channel column F'_{n1}.

    The centered disk's channels are F = 2 diag(moments) and S = 0, where
    moments = disk_modified_emt is its table's diagonal, so only F'_{11}
    moves, and the second channel's gaps are S' itself."""
    out = first.copy()
    out[0] -= 2.0 * moments[0]
    return out


def fourier_coefficients(gaps: np.ndarray, second: np.ndarray, gamma: float,
                         mat: MaterialPair) -> tuple[np.ndarray, dict]:
    """eps*h_k for k = 0..order-1 from the first-channel gaps at (n, m) =
    (k + 1, 1) (``gaps`` from deltas, order = gaps.size), and the
    second-channel consistency values from the recentered second channel
    ``second`` (order x order, from modified_emts).

    Returns (coeffs, diagnostics); diagnostics carries the discarded
    imaginary part of h_0 ("h0Imag") and the second-channel consistency
    values eps*h_{n+m+2}, which are reported but never merged into the
    estimate.  "secondChannel" holds them as read-only columns "n", "m",
    "k" = n + m + 2 <= order - 1 (row-major in (n, m)), complex "value" and
    float "firstChannelGap" = |value - coeffs[k]|; all are empty when M2 = 0.
    shape_estimate_to_json turns the columns into rows.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    mu_gap = mat.inclusion.mu - mat.background.mu
    if mu_gap == 0.0:
        raise InversionError(
            "matched shear moduli (mu = mu~): both channel denominators vanish"
        )
    m2 = mat.m2
    factor = 16.0 * math.pi * mu_gap * mat.m1  # shared by both channels
    order = gaps.shape[0]
    n = np.arange(1, order + 1)
    coeffs = gaps / (factor * n * gamma ** (n + 1))
    h0_imag = float(coeffs[0].imag)
    coeffs[0] = coeffs[0].real

    # with M2 = 0 the second channel carries no data: order 0 gives no rows
    nn, mm, k = _second_channel_index(order if m2 != 0.0 else 0)
    value = second[nn - 1, mm - 1] / (factor * m2 * nn * mm * gamma ** (nn + mm))
    gap = np.abs(value - coeffs[k])
    value.setflags(write=False)
    gap.setflags(write=False)
    return coeffs, {"h0Imag": h0_imag, "secondChannel": {
        "n": nn, "m": mm, "k": k, "value": value, "firstChannelGap": gap}}


@functools.cache
def _second_channel_index(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only n, m and k = n + m + 2 of the second-channel pairs with
    k <= order - 1, in row-major (n, m) order; they depend on the order
    alone, so each order builds them once per process."""
    deg = np.arange(1, order + 1)
    ni, mi = np.nonzero(np.add.outer(deg, deg) <= order - 3)
    n, m = deg[ni], deg[mi]
    k = n + m + 2
    for column in (n, m, k):
        column.setflags(write=False)
    return n, m, k


def reconstruct(table: EmtTable, mat: MaterialPair,
                order: int | None = None) -> ShapeEstimate:
    """Full two-step inversion; order (<= table.order) truncates the data."""
    if order is None:
        order = table.order
    if not 1 <= order <= table.order:
        raise ValueError(f"order must lie in 1..{table.order}")
    values = table.values[:order, :order]
    disk = estimate_disk(values, mat)
    # overflow shows up as inf or nan, which the one check below catches
    with np.errstate(all="ignore"):
        first, second = modified_emts(values, disk.a0)
        moments = disk_modified_emt(mat, disk.gamma, order)
        coeffs, diagnostics = fourier_coefficients(deltas(first, moments), second,
                                                   disk.gamma, mat)
    # the quantities the estimate is read from: a coefficient is finite only
    # if its gap is, and a second-channel value when its gap to a finite
    # coefficient is
    finite = (cmath.isfinite(disk.a0) and np.isfinite(moments).all()
              and np.isfinite(second).all() and math.isfinite(diagnostics["h0Imag"])
              and np.isfinite(coeffs).all()
              and np.isfinite(diagnostics["secondChannel"]["firstChannelGap"]).all())
    if not finite:
        raise InversionError("the inversion of this table overflows or is not finite "
                             f"(a0 = {disk.a0:.6g}, gamma = {disk.gamma:.6g})")
    return ShapeEstimate(disk, coeffs, diagnostics)


def reconstruct_curve(est: ShapeEstimate, theta_samples: int) -> np.ndarray:
    """Boundary samples a0 + gamma e^{i theta} (1 + 2 Re sum eps*h_k e^{ik theta})
    at theta_j = 2 pi j / theta_samples, without the checks of
    geometry.sample: a noisy estimate need be neither simple nor resolved by
    the sample count.  The modes fold into the slots of one inverse FFT in
    the order of the estimate's PerturbedDisk.modes, so the samples are its
    geometry.fourier_series bit for bit."""
    if theta_samples < 1:
        raise ValueError("theta_samples must be positive")
    gamma, coeffs = est.disk.gamma, est.coeffs
    k = 1 + np.multiply.outer(np.arange(coeffs.size), (1, -1))
    c = gamma * np.column_stack((coeffs, coeffs.conj()))
    folded = np.zeros(theta_samples, dtype=complex)
    folded[0] = est.disk.a0
    folded[1 % theta_samples] += gamma
    np.add.at(folded, k.ravel() % theta_samples, c.ravel())
    return np.fft.ifft(folded, norm="forward")


def shape_error(samples: np.ndarray, truth: BoundaryCurve,
                center: complex) -> ShapeError:
    """Symmetric discrete Hausdorff distance: the exact max-of-min of
    |samples_i - truth_j| (NaN if any distance is NaN), found without the
    full distance matrix by _directed, run samples to truth and then truth
    to samples seeded with the first maximum.  ``center`` orders both sets
    by angle for the search."""
    samples = np.asarray(samples, dtype=complex)
    ang_s, ang_t = np.angle(samples - center), np.angle(truth.z - center)
    # a curve's angles come in long sorted runs, which timsort takes whole
    by_s, by_t = np.argsort(ang_s, kind="stable"), np.argsort(ang_t, kind="stable")
    s, t = (samples[by_s], ang_s[by_s]), (truth.z[by_t], ang_t[by_t])
    return ShapeError(_directed(*t, *s, _directed(*s, *t, 0.0)))


def _directed(p: np.ndarray, ang_p: np.ndarray,
              q: np.ndarray, ang_q: np.ndarray, best: float) -> float:
    """max(best, max_i min_j |p_i - q_j|) for point sets sorted by their
    angles ang_p, ang_q about a common center; NaN when a point is.

    Bound and verify (Taha & Hanbury, IEEE TPAMI 37(11), 2015): a point's
    distance to the nearest of its 7 angular neighbours in q bounds its
    nearest distance from above.  The bound is mostly exact, so resolving
    the row with the largest bound mostly settles the maximum; the rows
    whose bound still exceeds it are then resolved, largest bound first, in
    batches of 2, 4, 8 and then 16 rows.  A larger ``best`` prunes more.
    Every value compared is an entry of the dense matrix, so the result is
    bit-identical to the dense max-of-min, and memory stays linear in the
    set sizes.
    """
    near = q.take(np.searchsorted(ang_q, ang_p) + np.arange(-3, 4)[:, None], mode="wrap")
    bound = np.abs(p - near).min(axis=0)
    top = bound.argmax()  # the first NaN if there is one
    if math.isnan(bound[top]) or math.isnan(ang_q[-1]):  # NaN angles sort last
        return math.nan
    if bound[top] > best:
        best = max(best, float(np.abs(p[top] - q).min()))
        bound[top] = best  # still a bound on its row, and now never above best
    left = np.flatnonzero(bound > best)
    visit = left[np.argsort(bound[left])[::-1]]
    start, size = 0, 2
    while start < visit.size and bound[visit[start]] > best:
        rows = p[visit[start:start + size]]
        best = max(best, float(np.abs(rows[:, None] - q).min(axis=1).max()))
        start += size
        size = min(2 * size, 16)
    return best


def shape_estimate_to_json(est: ShapeEstimate) -> dict:
    """JSON document of an estimate; the second-channel columns become one
    {"n", "m", "k", "value": [re, im], "firstChannelGap"} row per pair."""
    diagnostics = dict(est.diagnostics)
    if "secondChannel" in diagnostics:
        cols = diagnostics["secondChannel"]
        diagnostics["secondChannel"] = [
            {"n": n, "m": m, "k": k, "value": [re, im], "firstChannelGap": g}
            for n, m, k, re, im, g in zip(cols["n"].tolist(), cols["m"].tolist(),
                                          cols["k"].tolist(), cols["value"].real.tolist(),
                                          cols["value"].imag.tolist(),
                                          cols["firstChannelGap"].tolist())
        ]
    return {
        "a0": [float(est.disk.a0.real), float(est.disk.a0.imag)],
        "gamma": float(est.disk.gamma),
        "coeffs": [[float(c.real), float(c.imag)] for c in est.coeffs],
        "diagnostics": diagnostics,
    }
