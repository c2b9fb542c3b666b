"""Contracted elastic moment tensors and the multiplicative noise model.

The contracted EMT of an inclusion pairs the density phi solved for the
background field h_n^(t) against a second polynomial field h_m^(s):

    E^{(t,s)}_{nm} = integral Re{ h_m^(s)(z) conj(phi(z)) } dsigma(z),

which equals the real 2-vector pairing of the field against the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryCurve, check_keys, json_number
from .materials import MaterialPair
from .transmission import SolverError, evaluate_background, solve_densities

__all__ = [
    "EmtTable",
    "NoiseModel",
    "channels",
    "from_channels",
    "emt_table",
    "apply_noise",
    "noise_from_json",
    "provenance_to_json",
    "table_to_json",
    "table_from_json",
]


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise: every entry is scaled by (1 + g) with
    g ~ N(0, sigma2), drawn from ``numpy.random.default_rng(seed)``."""

    sigma2: float
    seed: int

    def __post_init__(self) -> None:
        if not (self.sigma2 >= 0.0 and math.isfinite(self.sigma2)):
            raise ValueError("noise variance must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"noise seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class EmtTable:
    """Contracted EMTs E^{(t,s)}_{nm} for 1 <= n,m <= order, t,s in {1,2}.

    values[n-1, m-1, t-1, s-1] holds E^{(t,s)}_{nm}; provenance is None for
    exact tables and the generating NoiseModel for noisy ones.
    """

    order: int
    values: np.ndarray
    provenance: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        values = np.array(self.values, dtype=float)
        if values.shape != (self.order, self.order, 2, 2):
            raise ValueError(
                f"values must have shape {(self.order, self.order, 2, 2)}, "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("EMT entries must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def emt_table(curve: BoundaryCurve, mat: MaterialPair, order: int) -> EmtTable:
    """All entries with n, m <= order and t, s in {1, 2}; raises
    SolverError when they are not finite, and ValueError when the curve's
    N nodes do not resolve the order (order <= N/2 - 2).

    The transmission system is factorized once; the 2*order fields h_n^(t)
    serve both as right-hand sides and as test fields, so the table is one
    product of the stacked densities with the stacked field values.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    # z^order has mode `order` even on a disk, and the traction operators'
    # factor z_j - z_l lifts mode N/2 - 1 to the Nyquist mode
    if 2 * order + 4 > curve.n:
        raise ValueError(f"order {order} needs at least {2 * order + 4} nodes, got {curve.n}")
    # rows (n, t) and columns (m, s) flattened as 2(n-1) + (t-1)
    with np.errstate(all="ignore"):  # a curve far from unit size overflows
        h, traction = evaluate_background(curve, mat.background.mu, order)
        _, phi = solve_densities(curve, mat, h, traction)
        values = ((np.conj(phi) * curve.weight) @ h.T).real
    if not np.all(np.isfinite(values)):
        raise SolverError(f"order-{order} EMT table is not finite")
    return EmtTable(order, values.reshape(order, 2, order, 2).transpose(0, 2, 1, 3))


def channels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex channels F = E^{11} + E^{22} - i (E^{12} - E^{21}) and
    S = E^{11} - E^{22} + i (E^{12} + E^{21}) at each (n, m) of ``values``
    indexed like EmtTable.values; from_channels inverts it."""
    e = lambda t, s: values[:, :, t - 1, s - 1]
    f = np.empty(values.shape[:2], dtype=complex)
    s = np.empty_like(f)
    f.real, f.imag = e(1, 1) + e(2, 2), e(2, 1) - e(1, 2)
    s.real, s.imag = e(1, 1) - e(2, 2), e(1, 2) + e(2, 1)
    return f, s


def from_channels(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The real table, indexed like EmtTable.values, of the channels F and S
    (order x order each): E^{(t,s)}_{nm} = Re(conj(S) q_t q_s
    + conj(F) q_t conj(q_s)) / 2 with q = (1, i)."""
    values = np.empty(f.shape + (2, 2))
    values[..., 0, 0] = (f.real + s.real) / 2.0
    values[..., 0, 1] = (s.imag - f.imag) / 2.0
    values[..., 1, 0] = (s.imag + f.imag) / 2.0
    values[..., 1, 1] = (f.real - s.real) / 2.0
    return values


def apply_noise(table: EmtTable, noise: NoiseModel) -> EmtTable:
    """Perturb every entry by an independent multiplicative Gaussian factor.

    Draws come from ``default_rng(seed)`` as a single normal block of shape
    (order, order, 2, 2), i.e. in C order: n outermost, then m, t, s.
    Raises SolverError when a noisy entry is not finite.
    """
    if table.provenance is not None:
        raise ValueError("table already carries noise; apply_noise needs an exact table")
    rng = np.random.default_rng(noise.seed)
    factors = 1.0 + rng.normal(0.0, math.sqrt(noise.sigma2), size=table.values.shape)
    with np.errstate(over="ignore"):  # a large table times a large factor
        values = table.values * factors
    try:
        return EmtTable(table.order, values, noise)
    except ValueError as exc:  # the only entries it can reject are not finite
        raise SolverError(f"noisy order-{table.order} EMT table is not finite") from exc


def noise_from_json(block, name: str) -> NoiseModel:
    """The {"sigma2", "seed"} noise block of a config, a noisy table's
    provenance without its "kind"; raises KeyError, TypeError or ValueError
    when it is malformed or carries other keys (that message leads with ``name``)."""
    noise = NoiseModel(json_number(block["sigma2"]), json_number(block["seed"], integer=True))
    check_keys(block, provenance_to_json(noise).keys() - {"kind"}, name)
    return noise


def provenance_to_json(noise: NoiseModel | None) -> dict:
    """The "provenance" block of a table document."""
    if noise is None:
        return {"kind": "exact"}
    return {"kind": "noisy", "sigma2": noise.sigma2, "seed": noise.seed}


_TABLE_KEYS = ("order", "provenance", "entries")
_ENTRY_KEYS = ("n", "m", "t", "s", "value")


def table_to_json(table: EmtTable) -> dict:
    entries = [dict(zip(_ENTRY_KEYS, (n + 1, m + 1, t + 1, s + 1, float(value))))
               for (n, m, t, s), value in np.ndenumerate(table.values)]
    return dict(zip(_TABLE_KEYS, (table.order, provenance_to_json(table.provenance), entries)))


def table_from_json(data: dict) -> EmtTable:
    try:
        check_keys(data, _TABLE_KEYS)
        order = json_number(data["order"], integer=True)
        provenance_data = data["provenance"]
        entries = list(data["entries"])
        kind = provenance_data["kind"]
        if kind not in ("exact", "noisy"):
            raise ValueError(f"unknown provenance kind {kind!r}")
        block = {key: value for key, value in provenance_data.items() if key != "kind"}
        provenance = noise_from_json(block, "provenance") if kind == "noisy" else None
        check_keys(provenance_data, provenance_to_json(provenance), "provenance")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed EMT table document: {exc}") from exc
    if order < 1:
        raise ValueError("order must be a positive integer")
    # before allocating: the document's order alone must not size the array
    if len(entries) != 4 * order**2:
        raise ValueError(f"EMT table document has {len(entries)} entries, "
                         f"order {order} needs {4 * order**2}")
    values = np.full((order, order, 2, 2), np.nan)
    for entry in entries:
        try:
            check_keys(entry, _ENTRY_KEYS)
            n, m, t, s, value = (json_number(entry[key], integer=key != "value")
                                 for key in _ENTRY_KEYS)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed EMT entry {entry!r}: {exc}") from exc
        if not (1 <= n <= order and 1 <= m <= order and t in (1, 2) and s in (1, 2)):
            raise ValueError(f"EMT entry index {(n, m, t, s)} out of range")
        values[n - 1, m - 1, t - 1, s - 1] = value
    if np.isnan(values).any():
        raise ValueError("EMT table document is missing entries")
    return EmtTable(order, values, provenance)
