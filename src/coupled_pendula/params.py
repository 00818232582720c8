"""Parameter types, derived constants, and coordinate transforms.

Physical setup
--------------
A horizontal beam of mass m0 slides along the x-axis against a spring of
stiffness k.  Two pendula hang from the beam: massless rods of lengths
l1, l2 carrying bob masses m1, m2, with angles θ1, θ2 measured from the
downward vertical.  Viscous damping acts on the beam (β0) and on each bob
(β1, β2).  Generalized coordinates are q = (x, θ1, θ2).

The sum/difference angles

    σ = θ1 + θ2,    δ = θ1 − θ2

diagonalize the synchronization question: δ → 0 is in-phase motion,
σ → 0 is antiphase (mirror-image) motion.  The linear change of
coordinates y = L q uses

    L = [[1, 0, 0], [0, 1, 1], [0, 1, −1]],
    L⁻¹ = [[1, 0, 0], [0, 1/2, 1/2], [0, 1/2, −1/2]].

Dimensionless groups (m = m0 + m1 + m2 is the total mass):

    μ  = (m1 + m2) / (2m)                     mass ratio, 0 < μ < 1/2
    λ̄  = 2g / (l1 + l2)                       reference squared frequency
    Y  = k (l1 + l2) / (2 m g)                spring vs gravity
    Λ  = (l1 + l2) / (2 √(l1 l2))             length asymmetry, Λ ≥ 1
    ρ  = (l1−l2)/(l1+l2) · (m1−m2)/(2m)       combined asymmetry, |ρ| < 1/2

and, for equal-length pendula (l1 = l2 = l):

    ω = √(g/l),   η = (βp/mp)/ω,   X = (β0/m)/ω

with mp, βp the common bob mass and damping.  For unequal pendula the
equal-length quantities are computed from the mean length and flagged as
nominal.

All angles are radians and all quantities are SI; every type here is an
immutable value and every function is pure, so unrestricted concurrent
use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParamError",
    "PhysicalParams",
    "DerivedConstants",
    "ReducedParams",
    "SystemState",
    "reduce_params",
    "derived_constants",
    "params_from_dimensionless",
    "identical_pendula",
]

#: Relative tolerance below which two pendula count as identical.
IDENTICAL_RTOL = 1e-12


class ParamError(ValueError):
    """Invalid physical parameter; ``field`` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional parameters of the beam-and-pendula system (SI units).

    Pendulum masses may be zero to express degenerate limits (a massless
    pendulum must then also be undamped); every analysis routine that
    divides by m1 or m2 rejects such inputs explicitly.
    """

    m0: float  # beam mass [kg]
    m1: float  # bob 1 mass [kg]
    m2: float  # bob 2 mass [kg]
    l1: float  # rod 1 length [m]
    l2: float  # rod 2 length [m]
    beta0: float  # beam damping [kg/s]
    beta1: float  # bob 1 damping [kg/s]
    beta2: float  # bob 2 damping [kg/s]
    k: float  # spring stiffness [kg/s^2]
    g: float = 9.81  # gravity [m/s^2]

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ParamError(name, "must be finite")
        for name in ("m0", "l1", "l2", "k", "g"):
            if not getattr(self, name) > 0:
                raise ParamError(name, "must be positive")
        for name in ("m1", "m2"):
            if getattr(self, name) < 0:
                raise ParamError(name, "must be non-negative")
        for name in ("beta0", "beta1", "beta2"):
            if getattr(self, name) < 0:
                raise ParamError(name, "must be non-negative")
        if self.beta1 > 0 and self.m1 == 0:
            raise ParamError("beta1", "damping on a massless pendulum")
        if self.beta2 > 0 and self.m2 == 0:
            raise ParamError("beta2", "damping on a massless pendulum")

    @property
    def m(self) -> float:
        """Total mass m0 + m1 + m2."""
        return self.m0 + self.m1 + self.m2

    @property
    def frictionless(self) -> bool:
        return self.beta0 == 0.0 and self.beta1 == 0.0 and self.beta2 == 0.0

    def require_positive_pendula(self, where: str = "operation") -> None:
        if self.m1 <= 0:
            raise ParamError("m1", f"must be positive for {where}")
        if self.m2 <= 0:
            raise ParamError("m2", f"must be positive for {where}")


def _rel_close(a, b):
    """|a − b| ≤ IDENTICAL_RTOL (|a| + |b|), on floats or element-wise on arrays."""
    s = abs(a) + abs(b)
    return (s == 0.0) | (abs(a - b) <= IDENTICAL_RTOL * s)


def identical_pendula(p: PhysicalParams) -> bool:
    """True when the two pendula agree in length, mass, and damping."""
    return (_rel_close(p.l1, p.l2) and _rel_close(p.m1, p.m2)
            and _rel_close(p.beta1, p.beta2))


@dataclass(frozen=True)
class DerivedConstants:
    """Sum/difference combinations of the per-pendulum quantities.

    All minus-superscript fields vanish exactly for identical pendula.
    """

    am_plus: float  # (m1 l1^2 + m2 l2^2)/4           [kg m^2]
    am_minus: float  # (m1 l1^2 - m2 l2^2)/4           [kg m^2]
    abeta_plus: float  # (β1 l1^2 + β2 l2^2)/4           [kg m^2/s]
    abeta_minus: float  # (β1 l1^2 - β2 l2^2)/4           [kg m^2/s]
    bm_plus: float  # (m1 l1 + m2 l2)/2               [kg m]
    bm_minus: float  # (m1 l1 - m2 l2)/2               [kg m]
    bbeta_plus: float  # (β1 l1 + β2 l2)/2               [kg m/s]
    bbeta_minus: float  # (β1 l1 - β2 l2)/2               [kg m/s]
    l_plus: float  # (l1 + l2)/(2 l1 l2)             [1/m]
    l_minus: float  # (l1 - l2)/(2 l1 l2)             [1/m]
    betam_plus: float  # (β1/m1 + β2/m2)/2               [1/s]
    betam_minus: float  # (β1/m1 - β2/m2)/2               [1/s]


def derived_constants(p: PhysicalParams) -> DerivedConstants:
    """Evaluate the sum/difference constants for a parameter set.

    The β/m ratios require positive bob masses; with zero masses (and
    hence zero bob damping) they are reported as zero.
    """
    bm1 = p.beta1 / p.m1 if p.m1 > 0 else 0.0
    bm2 = p.beta2 / p.m2 if p.m2 > 0 else 0.0
    return DerivedConstants(
        am_plus=(p.m1 * p.l1**2 + p.m2 * p.l2**2) / 4.0,
        am_minus=(p.m1 * p.l1**2 - p.m2 * p.l2**2) / 4.0,
        abeta_plus=(p.beta1 * p.l1**2 + p.beta2 * p.l2**2) / 4.0,
        abeta_minus=(p.beta1 * p.l1**2 - p.beta2 * p.l2**2) / 4.0,
        bm_plus=(p.m1 * p.l1 + p.m2 * p.l2) / 2.0,
        bm_minus=(p.m1 * p.l1 - p.m2 * p.l2) / 2.0,
        bbeta_plus=(p.beta1 * p.l1 + p.beta2 * p.l2) / 2.0,
        bbeta_minus=(p.beta1 * p.l1 - p.beta2 * p.l2) / 2.0,
        l_plus=(p.l1 + p.l2) / (2.0 * p.l1 * p.l2),
        l_minus=(p.l1 - p.l2) / (2.0 * p.l1 * p.l2),
        betam_plus=(bm1 + bm2) / 2.0,
        betam_minus=(bm1 - bm2) / 2.0,
    )


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless groups plus the two dimensional scales ω and λ̄.

    ``nominal`` is set when the pendula are not identical, in which case
    ω, η, X are computed from mean length/mass/damping and are indicative
    only; localization analyses reject nominal inputs.
    """

    mu: float  # (m1+m2)/(2m)
    lambda_bar: float  # 2g/(l1+l2)            [1/s^2]
    Y: float  # k(l1+l2)/(2mg)
    Lambda: float  # (l1+l2)/(2 sqrt(l1 l2)), >= 1
    rho: float  # length-mass asymmetry, |rho| < 1/2
    omega: float  # sqrt(g/l)             [1/s]
    eta: float  # (βp/mp)/ω
    X: float  # (β0/m)/ω
    nominal: bool = False


def reduce_params(p: PhysicalParams) -> ReducedParams:
    """Compute the dimensionless parameter set.

    Raises :class:`ParamError` when a pendulum mass is not strictly
    positive (μ and η would be ill-defined).
    """
    p.require_positive_pendula("parameter reduction")
    return ReducedParams(*_reduced_groups(p.m0, p.m1, p.m2, p.l1, p.l2, p.beta0,
                                          p.beta1, p.beta2, p.k, p.g),
                         nominal=not identical_pendula(p))


def _reduced_groups(m0, m1, m2, l1, l2, beta0, beta1, beta2, k, g, sqrt=math.sqrt):
    """(μ, λ̄, Y, Λ, ρ, ω, η, X) on floats, or on parameter columns with
    ``sqrt=np.sqrt``; both run the same arithmetic (and sqrt is correctly
    rounded), so a column entry has the bits of its float call."""
    m = m0 + m1 + m2
    mu = (m1 + m2) / (2.0 * m)
    lam_bar = 2.0 * g / (l1 + l2)
    Y = k * (l1 + l2) / (2.0 * m * g)
    Lam = (l1 + l2) / (2.0 * sqrt(l1 * l2))
    rho = (l1 - l2) / (l1 + l2) * (m1 - m2) / (2.0 * m)
    l_mean = 0.5 * (l1 + l2)
    mp = 0.5 * (m1 + m2)
    bp = 0.5 * (beta1 + beta2)
    omega = sqrt(g / l_mean)
    eta = (bp / mp) / omega
    X = (beta0 / m) / omega
    return mu, lam_bar, Y, Lam, rho, omega, eta, X


def params_from_dimensionless(eta: float, X: float, Y: float, mu: float,
                              omega: float = 1.0) -> PhysicalParams:
    """Build identical-pendula physical parameters realizing (η, X, Y, μ, ω).

    Inverse of :func:`reduce_params` on the identical-pendula slice, at
    total mass m = 1 kg (a free scale) and standard gravity.
    """
    if not 0.0 < mu < 0.5:
        raise ParamError("mu", "must lie in (0, 1/2)")
    if omega <= 0:
        raise ParamError("omega", "must be positive")
    length = PhysicalParams.g / omega**2
    return PhysicalParams(
        m0=1.0 - 2.0 * mu,
        m1=mu,
        m2=mu,
        l1=length,
        l2=length,
        beta0=X * omega,
        beta1=eta * omega * mu,
        beta2=eta * omega * mu,
        k=Y * omega**2,
    )


# ---------------------------------------------------------------------------
# System state and the q <-> y coordinate change
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemState:
    """Coordinates and velocities, in q-form (x, θ1, θ2) or y-form (x, σ, δ)."""

    form: str  # "q" or "y"
    coords: tuple[float, float, float]
    vels: tuple[float, float, float]

    def __post_init__(self):
        if self.form not in ("q", "y"):
            raise ValueError(f"unknown state form {self.form!r}")

    @classmethod
    def from_q(cls, x, theta1, theta2, xdot=0.0, theta1dot=0.0, theta2dot=0.0):
        return cls("q", (float(x), float(theta1), float(theta2)),
                   (float(xdot), float(theta1dot), float(theta2dot)))

    @classmethod
    def from_y(cls, x, sigma, delta, xdot=0.0, sigmadot=0.0, deltadot=0.0):
        return cls("y", (float(x), float(sigma), float(delta)),
                   (float(xdot), float(sigmadot), float(deltadot)))

    def as_vector(self) -> np.ndarray:
        """Six-vector (coords, vels) in this state's own form."""
        return np.array(self.coords + self.vels)

    def to_y(self) -> "SystemState":
        if self.form == "y":
            return self
        x, t1, t2 = self.coords
        vx, v1, v2 = self.vels
        return SystemState("y", (x, t1 + t2, t1 - t2), (vx, v1 + v2, v1 - v2))

    def to_q(self) -> "SystemState":
        if self.form == "q":
            return self
        x, sg, dl = self.coords
        vx, vs, vd = self.vels
        return SystemState(
            "q",
            (x, 0.5 * (sg + dl), 0.5 * (sg - dl)),
            (vx, 0.5 * (vs + vd), 0.5 * (vs - vd)),
        )
