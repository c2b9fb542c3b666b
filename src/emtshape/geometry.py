"""Smooth closed boundary curves: Fourier-mode descriptors and quadrature sampling.

Curves are parametrized over theta in [0, 2pi) with positions identified with
complex numbers.  Every descriptor is a finite Fourier series
z(theta) = sum_k c_k e^{i k theta}, listed by its ``modes()``, and
``fourier_series`` evaluates such a series on the uniform grid.  Sampling
uses arc-length trapezoidal weights, which is spectrally accurate for these
shapes; z' is the series of the i k c_k, never a difference quotient.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Disk",
    "Ellipse",
    "Kite",
    "Starfish",
    "PerturbedDisk",
    "FourierCurve",
    "CurveDescriptor",
    "BoundaryCurve",
    "fourier_series",
    "sample",
    "descriptor_to_json",
    "descriptor_from_json",
    "json_number",
    "check_keys",
]


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def modes(self) -> tuple[list[int], list[complex]]:
        return [0, 1], [self.center, self.radius]


@dataclass(frozen=True)
class Ellipse:
    center: complex
    semi_axis_a: float
    semi_axis_b: float

    def __post_init__(self) -> None:
        if not (self.semi_axis_a > 0 and self.semi_axis_b > 0):
            raise ValueError("ellipse semi-axes must be positive")

    def modes(self) -> tuple[list[int], list[complex]]:
        a, b = self.semi_axis_a, self.semi_axis_b
        return [0, 1, -1], [self.center, (a + b) / 2, (a - b) / 2]


@dataclass(frozen=True)
class Kite:
    """center + e^{i theta} + coefficient * cos(2 theta)."""

    center: complex
    coefficient: float

    def modes(self) -> tuple[list[int], list[complex]]:
        half = self.coefficient / 2
        return [0, 1, 2, -2], [self.center, 1.0, half, half]


@dataclass(frozen=True)
class Starfish:
    """center + (1 + 2*modeAmplitude*cos(modeIndex*theta)) e^{i theta}."""

    center: complex
    mode_amplitude: float
    mode_index: int

    def __post_init__(self) -> None:
        if not (isinstance(self.mode_index, int) and self.mode_index >= 1):
            raise ValueError(f"mode index must be a positive integer, got {self.mode_index}")

    def modes(self) -> tuple[list[int], list[complex]]:
        k, amp = self.mode_index, self.mode_amplitude
        return [0, 1, 1 + k, 1 - k], [self.center, 1.0, amp, amp]


@dataclass(frozen=True)
class PerturbedDisk:
    """a0 + radius * e^{i theta} * (1 + 2 Re{sum_k coeffs[k] e^{i k theta}}).

    ``coefficients[k]`` is the (already epsilon-scaled) k-th complex mode of
    the radial perturbation, k = 0, 1, ...; this is the curve a
    reconstruction estimates, and ``reconstruct.reconstruct_curve`` folds
    an estimate's modes in the order ``modes`` lists them.
    """

    center: complex
    radius: float
    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    def modes(self) -> tuple[list[int], list[complex]]:
        # 2 Re{c e^{ik theta}} = c e^{ik theta} + conj(c) e^{-ik theta}
        k, c = [0, 1], [self.center, self.radius]
        for j, cj in enumerate(self.coefficients):
            k += [1 + j, 1 - j]
            c += [self.radius * cj, self.radius * cj.conjugate()]
        return k, c


@dataclass(frozen=True)
class FourierCurve:
    """z(theta) = sum_j coefficients[j] e^{i (min_index + j) theta}."""

    coefficients: tuple[complex, ...]
    min_index: int = 0

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise ValueError("fourier curve needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    def modes(self) -> tuple[list[int], list[complex]]:
        k0 = self.min_index
        return list(range(k0, k0 + len(self.coefficients))), list(self.coefficients)


CurveDescriptor = Union[Disk, Ellipse, Kite, Starfish, PerturbedDisk, FourierCurve]


@dataclass(frozen=True)
class BoundaryCurve:
    """Quadrature-sampled closed curve.

    z, dz are positions and exact derivatives (counterclockwise) at the n
    nodes theta_j = 2 pi j / n, and weight_j = (2 pi / n) |dz_j| are
    arc-length trapezoidal weights.
    """

    n: int
    z: np.ndarray
    dz: np.ndarray
    weight: np.ndarray


def fourier_series(k, c, n: int) -> np.ndarray:
    """sum_m c[m] e^{i k[m] theta_j} at theta_j = 2 pi j / n, j = 0..n-1.

    e^{ik theta_j} depends on k mod n only: the modes fold into n slots and
    one inverse FFT gives the grid values.  The fold takes each k as an
    exact Python integer, so an index of any size folds without overflow.
    """
    folded = np.zeros(n, dtype=complex)
    np.add.at(folded, [int(ki) % n for ki in k], c)
    return np.fft.ifft(folded, norm="forward")


def sample(descriptor: CurveDescriptor, n: int) -> BoundaryCurve:
    """Sample a descriptor at n uniform parameters.

    n must be even (the singular-kernel quadrature downstream needs it) and
    at least 4, and the grid must resolve every nonzero mode (2|k| < n).
    Orientation is normalized to counterclockwise; degenerate or
    self-intersecting parametrizations are rejected via the tangent-winding
    spot check.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"node count must be even and >= 4, got {n}")
    k, c = descriptor.modes()
    unresolved = [ki for ki, ci in zip(k, c) if ci != 0 and 2 * abs(ki) >= n]
    if unresolved:
        raise ValueError(f"mode {max(unresolved, key=abs)} is not resolved by "
                         f"{n} nodes (needs 2|k| < n)")
    with np.errstate(over="ignore", invalid="ignore"):
        z = fourier_series(k, c, n)
        dz = fourier_series(k, [1j * ki * ci for ki, ci in zip(k, c)], n)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(dz))):
        raise ValueError("curve points or derivatives are not finite")

    speed = np.abs(dz)
    if speed.min() <= 1e-12 * speed.max():
        raise ValueError("parametrization speed vanishes; degenerate descriptor")

    # the orientation is the sign of the area, Im sum conj(z) dz; scaling z
    # and dz by the power of two that brings their largest component into
    # [0.5, 1) keeps the sum from overflowing and leaves each rounding as is
    scale = math.ldexp(1.0, -math.frexp(max(np.abs(z.view(float)).max(),
                                            np.abs(dz.view(float)).max()))[1])
    if np.imag(np.conj(z * scale) @ (dz * scale)) < 0.0:
        # reverse orientation: z~(theta) = z(-theta) on the same grid
        idx = (-np.arange(n)) % n
        z = z[idx]
        dz = -dz[idx]
    # Hopf Umlaufsatz: a simple regular closed curve has tangent winding +-1;
    # anything else indicates a self-intersecting or degenerate descriptor.
    # The winding of the polygon dz about 0 sums the angles dz turns by.
    if round(np.angle(np.roll(dz, -1) / dz).sum() / (2.0 * math.pi)) != 1:
        raise ValueError("curve is not simple (tangent winding != 1)")

    weight = (2.0 * math.pi / n) * np.abs(dz)
    return BoundaryCurve(n=n, z=z, dz=dz, weight=weight)


def _c(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def json_number(value, integer: bool = False) -> float | int:
    """A JSON number as a finite float, or as an int when ``integer`` is set.

    Raises ValueError for bools and every other non-number, for NaN and
    infinities, for magnitudes beyond float range and, with ``integer``,
    for non-integral values (an integral float such as 3.0 is accepted).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {type(value).__name__}")
    # false for NaN, for infinities and for ints that no float can hold
    if not abs(value) <= sys.float_info.max:
        raise ValueError("expected a finite number within float range")
    if not integer:
        return float(value)
    if value != int(value):
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


def check_keys(obj: dict, allowed, name: str = "") -> None:
    """Raise ValueError naming the keys of the JSON object ``obj`` not in
    ``allowed``; a nested object's ``name`` leads the message."""
    where = f"{name}: " if name else ""
    if not isinstance(obj, dict):
        raise TypeError(f"{where}expected a JSON object, got {type(obj).__name__}")
    if unknown := sorted(set(obj).difference(allowed)):
        raise ValueError(f"{where}unknown keys: {', '.join(unknown)}")


def _as_complex(pair) -> complex:
    re, im = pair
    return complex(json_number(re), json_number(im))


def descriptor_to_json(d: CurveDescriptor) -> dict:
    """JSON object for a descriptor; complex values as [re, im] pairs."""
    if isinstance(d, Disk):
        return {"kind": "disk", "center": _c(d.center), "radius": d.radius}
    if isinstance(d, Ellipse):
        return {"kind": "ellipse", "center": _c(d.center),
                "semiAxisA": d.semi_axis_a, "semiAxisB": d.semi_axis_b}
    if isinstance(d, Kite):
        return {"kind": "kite", "center": _c(d.center), "coefficient": d.coefficient}
    if isinstance(d, Starfish):
        return {"kind": "starfish", "center": _c(d.center),
                "modeAmplitude": d.mode_amplitude, "modeIndex": d.mode_index}
    if isinstance(d, PerturbedDisk):
        return {"kind": "perturbedDisk", "center": _c(d.center), "radius": d.radius,
                "coefficients": [_c(c) for c in d.coefficients]}
    if isinstance(d, FourierCurve):
        return {"kind": "fourierCurve", "minIndex": d.min_index,
                "coefficients": [_c(c) for c in d.coefficients]}
    raise TypeError(f"not a curve descriptor: {d!r}")


def descriptor_from_json(obj: dict) -> CurveDescriptor:
    try:
        kind = obj["kind"]
        if kind == "disk":
            d = Disk(_as_complex(obj["center"]), json_number(obj["radius"]))
        elif kind == "ellipse":
            d = Ellipse(_as_complex(obj["center"]), json_number(obj["semiAxisA"]),
                        json_number(obj["semiAxisB"]))
        elif kind == "kite":
            d = Kite(_as_complex(obj["center"]), json_number(obj["coefficient"]))
        elif kind == "starfish":
            d = Starfish(_as_complex(obj["center"]), json_number(obj["modeAmplitude"]),
                         json_number(obj["modeIndex"], integer=True))
        elif kind == "perturbedDisk":
            d = PerturbedDisk(_as_complex(obj["center"]), json_number(obj["radius"]),
                              tuple(_as_complex(c) for c in obj["coefficients"]))
        elif kind == "fourierCurve":
            d = FourierCurve(tuple(_as_complex(c) for c in obj["coefficients"]),
                             json_number(obj.get("minIndex", 0), integer=True))
        else:
            raise ValueError(f"unknown curve kind {kind!r}")
        check_keys(obj, descriptor_to_json(d))
        return d
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed curve descriptor: {exc}") from exc
