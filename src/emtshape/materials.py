"""Material parameters and derived constants for plane elastostatics.

Everything downstream (layer potentials, moment tensors, the inversion
formulas) is driven by a handful of scalars derived from the two Lame pairs,
so they are computed eagerly at construction and cached on the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "LameConstants",
    "DerivedConstants",
    "MaterialPair",
]


@dataclass(frozen=True)
class LameConstants:
    """Isotropic Lame pair (lam, mu); dimensionless shear and bulk moduli.

    Requires finite values with mu > 0 and lam + mu > 0 (ellipticity of the
    plane Lame operator).
    The JSON key for ``lam`` is "lambda"; the Python name avoids the keyword.
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


def _alpha_beta(mat: LameConstants) -> tuple[float, float]:
    a = 0.5 * (1.0 / mat.mu + 1.0 / (2.0 * mat.mu + mat.lam))
    b = 0.5 * (1.0 / mat.mu - 1.0 / (2.0 * mat.mu + mat.lam))
    return a, b


@dataclass(frozen=True)
class DerivedConstants:
    """Scalars derived from a background/inclusion pair.

    alpha, beta (and the inclusion analogues alpha_tilde, beta_tilde) weight
    the two kernels of the fundamental solution.  m0, m1, m2 are the contrast
    combinations the disk formulas and the inversion consume:

        m0 = 2(mu~ - mu) / (mu~ alpha + mu beta)
        m1 = 1 / (mu~ alpha + mu beta)
        m2 = beta (mu - mu~) / (mu~ alpha + mu beta)

    Identities: alpha (lam+mu) == beta (lam+3mu), m1 > 0,
    sign(m0) == sign(mu~ - mu).
    """

    alpha: float
    beta: float
    alpha_tilde: float
    beta_tilde: float
    m0: float
    m1: float
    m2: float


@dataclass(frozen=True)
class MaterialPair:
    """Background and inclusion Lame constants.

    Invariants: the pairs are not jointly identical, and the contrast is
    sign-consistent, (lam - lam~)(mu - mu~) >= 0.  Equal shear moduli are
    permitted (the forward problem is still well posed when only lam differs)
    and show up downstream as ``constants.m0 == 0``; the reconstruction
    refuses such pairs.

    Derived constants are computed once here and cached as ``constants``.
    """

    background: LameConstants
    inclusion: LameConstants
    constants: DerivedConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bg, inc = self.background, self.inclusion
        if bg.lam == inc.lam and bg.mu == inc.mu:
            raise ValueError("background and inclusion materials are identical")
        if (bg.lam - inc.lam) * (bg.mu - inc.mu) < 0:
            raise ValueError(
                "need (lam - lam~)(mu - mu~) >= 0, got "
                f"({bg.lam - inc.lam})*({bg.mu - inc.mu}) < 0"
            )
        alpha, beta = _alpha_beta(bg)
        alpha_t, beta_t = _alpha_beta(inc)
        denom = inc.mu * alpha + bg.mu * beta
        object.__setattr__(self, "constants", DerivedConstants(
            alpha=alpha,
            beta=beta,
            alpha_tilde=alpha_t,
            beta_tilde=beta_t,
            m0=2.0 * (inc.mu - bg.mu) / denom,
            m1=1.0 / denom,
            m2=beta * (bg.mu - inc.mu) / denom,
        ))
