"""Smooth closed boundary curves: analytic descriptors and quadrature sampling.

Curves are parametrized over theta in [0, 2pi) with positions identified with
complex numbers.  Sampling is uniform in theta with arc-length trapezoidal
weights, which is spectrally accurate for the analytic shapes used here.
Derivatives come from the descriptors analytically, never from differencing.
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
    "sample",
    "winding_number",
    "descriptor_to_json",
    "descriptor_from_json",
    "json_number",
]


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def point(self, theta):
        return self.center + self.radius * np.exp(1j * theta)

    def derivative(self, theta):
        return 1j * self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class Ellipse:
    center: complex
    semi_axis_a: float
    semi_axis_b: float

    def __post_init__(self) -> None:
        if not (self.semi_axis_a > 0 and self.semi_axis_b > 0):
            raise ValueError("ellipse semi-axes must be positive")

    def point(self, theta):
        return self.center + self.semi_axis_a * np.cos(theta) + 1j * self.semi_axis_b * np.sin(theta)

    def derivative(self, theta):
        return -self.semi_axis_a * np.sin(theta) + 1j * self.semi_axis_b * np.cos(theta)


@dataclass(frozen=True)
class Kite:
    """center + e^{i theta} + coefficient * cos(2 theta)."""

    center: complex
    coefficient: float

    def point(self, theta):
        return self.center + np.exp(1j * theta) + self.coefficient * np.cos(2.0 * theta)

    def derivative(self, theta):
        return 1j * np.exp(1j * theta) - 2.0 * self.coefficient * np.sin(2.0 * theta)


@dataclass(frozen=True)
class Starfish:
    """center + (1 + 2*modeAmplitude*cos(modeIndex*theta)) e^{i theta}."""

    center: complex
    mode_amplitude: float
    mode_index: int

    def __post_init__(self) -> None:
        if not (isinstance(self.mode_index, int) and self.mode_index >= 1):
            raise ValueError(f"mode index must be a positive integer, got {self.mode_index}")

    def point(self, theta):
        r = 1.0 + 2.0 * self.mode_amplitude * np.cos(self.mode_index * theta)
        return self.center + r * np.exp(1j * theta)

    def derivative(self, theta):
        k = self.mode_index
        r = 1.0 + 2.0 * self.mode_amplitude * np.cos(k * theta)
        dr = -2.0 * self.mode_amplitude * k * np.sin(k * theta)
        return (dr + 1j * r) * np.exp(1j * theta)


@dataclass(frozen=True)
class PerturbedDisk:
    """a0 + radius * e^{i theta} * (1 + 2 Re{sum_k coeffs[k] e^{i k theta}}).

    ``coefficients[k]`` is the (already epsilon-scaled) k-th complex mode of
    the radial perturbation, k = 0, 1, ...; this is the class the
    reconstruction produces.
    """

    center: complex
    radius: float
    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    def _profile(self, theta):
        r = np.zeros_like(np.asarray(theta, dtype=float), dtype=complex)
        dr = np.zeros_like(r)
        for k, c in enumerate(self.coefficients):
            e = c * np.exp(1j * k * theta)
            r += e
            dr += 1j * k * e
        return 1.0 + 2.0 * r.real, 2.0 * dr.real

    def point(self, theta):
        r, _ = self._profile(theta)
        return self.center + self.radius * r * np.exp(1j * theta)

    def derivative(self, theta):
        r, dr = self._profile(theta)
        return self.radius * (dr + 1j * r) * np.exp(1j * theta)


@dataclass(frozen=True)
class FourierCurve:
    """z(theta) = sum_j coefficients[j] e^{i (min_index + j) theta}."""

    coefficients: tuple[complex, ...]
    min_index: int = 0

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise ValueError("fourier curve needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    def point(self, theta):
        z = np.zeros_like(np.asarray(theta, dtype=float), dtype=complex)
        for j, c in enumerate(self.coefficients):
            z += c * np.exp(1j * (self.min_index + j) * theta)
        return z

    def derivative(self, theta):
        dz = np.zeros_like(np.asarray(theta, dtype=float), dtype=complex)
        for j, c in enumerate(self.coefficients):
            k = self.min_index + j
            dz += 1j * k * c * np.exp(1j * k * theta)
        return dz


CurveDescriptor = Union[Disk, Ellipse, Kite, Starfish, PerturbedDisk, FourierCurve]


@dataclass(frozen=True)
class BoundaryCurve:
    """Quadrature-sampled closed curve.

    theta_j = 2 pi j / N; z, dz are nodal positions and analytic derivatives
    (counterclockwise), and weight_j = (2 pi / N) |dz_j| are arc-length
    trapezoidal weights.
    """

    descriptor: CurveDescriptor
    n: int
    theta: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    weight: np.ndarray

    @property
    def perimeter(self) -> float:
        return float(self.weight.sum())


def winding_number(w) -> np.ndarray:
    """Winding number about 0 of the closed polygon with vertices w, reduced
    along the last axis (a stack of polygons gives an array of integers)."""
    ang = np.angle(w)
    inc = np.diff(ang, axis=-1, append=ang[..., :1])
    inc = (inc + math.pi) % (2.0 * math.pi) - math.pi
    return np.rint(inc.sum(axis=-1) / (2.0 * math.pi)).astype(int)


def sample(descriptor: CurveDescriptor, n: int = 256) -> BoundaryCurve:
    """Sample a descriptor at n uniform parameters.

    n must be even (the singular-kernel quadrature downstream needs it) and
    at least 4.  Orientation is normalized to counterclockwise; degenerate or
    self-intersecting parametrizations are rejected via the tangent-winding
    spot check.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"node count must be even and >= 4, got {n}")
    theta = 2.0 * math.pi * np.arange(n) / n
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.asarray(descriptor.point(theta), dtype=complex)
        dz = np.asarray(descriptor.derivative(theta), dtype=complex)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(dz))):
        raise ValueError("curve points or derivatives are not finite")

    speed = np.abs(dz)
    if speed.min() <= 1e-12 * max(speed.max(), 1.0):
        raise ValueError("parametrization speed vanishes; degenerate descriptor")

    area = 0.5 * (2.0 * math.pi / n) * float(np.imag(np.conj(z) @ dz))
    if area < 0.0:
        # reverse orientation: z~(theta) = z(-theta) on the same grid
        idx = (-np.arange(n)) % n
        z = z[idx]
        dz = -dz[idx]
    # Hopf Umlaufsatz: a simple regular closed curve has tangent winding +-1;
    # anything else indicates a self-intersecting or degenerate descriptor.
    if winding_number(dz) != 1:
        raise ValueError("curve is not simple (tangent winding != 1)")

    weight = (2.0 * math.pi / n) * np.abs(dz)
    return BoundaryCurve(descriptor=descriptor, n=n, theta=theta, z=z, dz=dz, weight=weight)


def _c(value: complex) -> list[float]:
    return [float(np.real(value)), float(np.imag(value))]


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
            return Disk(_as_complex(obj["center"]), json_number(obj["radius"]))
        if kind == "ellipse":
            return Ellipse(_as_complex(obj["center"]), json_number(obj["semiAxisA"]),
                           json_number(obj["semiAxisB"]))
        if kind == "kite":
            return Kite(_as_complex(obj["center"]), json_number(obj["coefficient"]))
        if kind == "starfish":
            return Starfish(_as_complex(obj["center"]), json_number(obj["modeAmplitude"]),
                            json_number(obj["modeIndex"], integer=True))
        if kind == "perturbedDisk":
            return PerturbedDisk(_as_complex(obj["center"]), json_number(obj["radius"]),
                                 tuple(_as_complex(c) for c in obj["coefficients"]))
        if kind == "fourierCurve":
            return FourierCurve(tuple(_as_complex(c) for c in obj["coefficients"]),
                                json_number(obj.get("minIndex", 0), integer=True))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed curve descriptor: {exc}") from exc
    raise ValueError(f"unknown curve kind {kind!r}")
