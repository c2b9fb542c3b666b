"""Material parameters and derived constants for plane elastostatics.

Everything downstream (layer potentials, moment tensors, the inversion
formulas) is driven by a handful of scalars derived from the two Lame pairs.
They are cached on first use outside the dataclass fields, so they take no
part in ==, hash or repr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "LameConstants",
    "MaterialPair",
]


@dataclass(frozen=True)
class LameConstants:
    """Isotropic Lame pair (lam, mu); dimensionless shear and bulk moduli.

    Requires finite values with mu > 0 and lam + mu > 0 (ellipticity of the
    plane Lame operator).
    The JSON key for ``lam`` is "lambda"; the Python name avoids the keyword.

    alpha and beta weight the two kernels of the medium's fundamental
    solution; alpha (lam+mu) == beta (lam+3mu) and alpha + beta == 1/mu.
    """

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError(
                f"Lame constants must be finite, got lam={self.lam}, mu={self.mu}")
        if not self.mu > 0:
            raise ValueError(f"shear modulus must be positive, got mu={self.mu}")
        if not self.lam + self.mu > 0:
            raise ValueError(f"need lam + mu > 0, got lam+mu={self.lam + self.mu}")

    @cached_property
    def alpha(self) -> float:
        return 0.5 * (1.0 / self.mu + 1.0 / (2.0 * self.mu + self.lam))

    @cached_property
    def beta(self) -> float:
        return 0.5 * (1.0 / self.mu - 1.0 / (2.0 * self.mu + self.lam))


@dataclass(frozen=True)
class MaterialPair:
    """Background and inclusion Lame constants.

    Invariants: the pairs are not jointly identical, and the contrast is
    sign-consistent, (lam - lam~)(mu - mu~) >= 0.  Equal shear moduli are
    permitted (the forward problem is still well posed when only lam differs)
    and give ``m0 == 0``, which the reconstruction refuses.

    m0, m1 and m2 are the contrast combinations the disk formulas and the
    inversion consume, with alpha, beta those of the background (so m1 > 0
    and sign(m0) == sign(mu~ - mu)):

        m0 = 2(mu~ - mu) / (mu~ alpha + mu beta)
        m1 = 1 / (mu~ alpha + mu beta)
        m2 = beta (mu - mu~) / (mu~ alpha + mu beta)
    """

    background: LameConstants
    inclusion: LameConstants

    def __post_init__(self) -> None:
        bg, inc = self.background, self.inclusion
        if bg.lam == inc.lam and bg.mu == inc.mu:
            raise ValueError("background and inclusion materials are identical")
        if (bg.lam - inc.lam) * (bg.mu - inc.mu) < 0:
            raise ValueError(
                "need (lam - lam~)(mu - mu~) >= 0, got "
                f"({bg.lam - inc.lam})*({bg.mu - inc.mu}) < 0"
            )

    @cached_property
    def _denom(self) -> float:
        bg = self.background
        return self.inclusion.mu * bg.alpha + bg.mu * bg.beta

    @cached_property
    def m0(self) -> float:
        return 2.0 * (self.inclusion.mu - self.background.mu) / self._denom

    @cached_property
    def m1(self) -> float:
        return 1.0 / self._denom

    @cached_property
    def m2(self) -> float:
        return self.background.beta * (self.background.mu - self.inclusion.mu) / self._denom
