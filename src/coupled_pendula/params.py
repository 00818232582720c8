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

:class:`PhysicalParams` alone decides the parameter domain; nothing
downstream checks masses or scales again.

The module also holds every type a run configuration is built from, so
that reading and checking a config needs no other module of the package:
the damping model (:class:`DampingModel`), the two failure types the CLI
maps to exit codes (:class:`StiffnessError`, :class:`CrossCheckError`),
and the quadrant box of the region analysis (:data:`MAX_XY`,
:data:`MIN_ETA`, :data:`MAX_ETA`) with the region grid
(:class:`GridSpec`, at most :data:`MAX_GRID_NODES` nodes).  Nothing here
imports numpy at module level; the two methods that return arrays
(:meth:`GridSpec.axis`, :meth:`SystemState.as_vector`) import it when
called, so ``reduce`` starts without it.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

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
    "DampingModel",
    "StiffnessError",
    "CrossCheckError",
    "GridSpec",
    "MAX_XY",
    "MIN_ETA",
    "MAX_ETA",
    "MAX_GRID_NODES",
]

#: Relative tolerance below which two pendula count as identical.
IDENTICAL_RTOL = 1e-12

#: Bounds of every field of :class:`PhysicalParams` (a damping may also be 0).
MIN_SCALE = 1e-40
MAX_SCALE = 1e40


class ParamError(ValueError):
    """Invalid physical parameter; ``field`` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional parameters of the beam-and-pendula system (SI units).

    The one check of the parameter domain: every field lies in
    [MIN_SCALE, MAX_SCALE] = [1e-40, 1e40], or is 0 for a damping, so both
    pendula have positive mass; anything else, or a beam so light that
    1 − 2μ rounds to 0, raises :class:`ParamError` naming the field.  Why
    1e±40: each quantity built from the fields (derived constants, reduced
    groups, linear system, sextic) is a sum of monomials in them, or a
    quotient of such sums, so its extremes lie at the box's corners; at all
    2^10 of them, each damping also at 0, every one is finite and normal out
    to 1e±50, and the first overflow at 1e±55
    (``test_domain_corners_stay_finite_and_normal``).
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
            damping = name.startswith("beta")
            if not (MIN_SCALE <= value <= MAX_SCALE or damping and value == 0):
                raise ParamError(name, f"out of range: not {'0 or ' if damping else ''}in "
                                       f"[{MIN_SCALE:g}, {MAX_SCALE:g}]")
        if not 1.0 - (self.m1 + self.m2) / self.m > 0:  # 1 − 2μ, the sextic's lead
            raise ParamError("m0", "negligible against m1 + m2")

    @property
    def m(self) -> float:
        """Total mass m0 + m1 + m2."""
        return self.m0 + self.m1 + self.m2

    @property
    def frictionless(self) -> bool:
        return self.beta0 == 0.0 and self.beta1 == 0.0 and self.beta2 == 0.0


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
    """Evaluate the sum/difference constants for a parameter set."""
    bm1 = p.beta1 / p.m1
    bm2 = p.beta2 / p.m2
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
    """Compute the dimensionless parameter set."""
    groups = _reduced_groups(p.m0, p.m1, p.m2, p.l1, p.l2, p.beta0,
                             p.beta1, p.beta2, p.k, p.g)
    return ReducedParams(*groups, nominal=not identical_pendula(p))


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
# Damping model and failure types
# ---------------------------------------------------------------------------


class DampingModel(enum.Enum):
    """Which viscous-friction model generates the damping forces.

    FULL_VELOCITY damps each mass against its full velocity; the
    generalized force on (x, θ1, θ2) is

        (−β ẋ − Σ β_j l_j θ̇_j cos θ_j,
         −β_1 l_1 (ẋ cos θ_1 + l_1 θ̇_1),
         −β_2 l_2 (ẋ cos θ_2 + l_2 θ̇_2)),       β = β0 + β1 + β2.

    ROTATIONAL_ONLY damps the bobs along their rotational direction only:

        (−β0 ẋ − Σ β_j l_j θ̇_j cos θ_j, −β_1 l_1² θ̇_1, −β_2 l_2² θ̇_2).
    """

    FULL_VELOCITY = "full"
    ROTATIONAL_ONLY = "rotational"


class StiffnessError(RuntimeError):
    """The integration could not go on: the right-hand side was not finite
    at t = 0, the step size fell below 10 ulps of t, or the evaluation
    budget ran out.  ``t_reached`` is the last time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(message)
        self.t_reached = t_reached


class CrossCheckError(RuntimeError):
    """Two independent computations of one quantity disagreed beyond tolerance."""


# ---------------------------------------------------------------------------
# The quadrant box and the region grid
# ---------------------------------------------------------------------------

#: The quadrant box: X, Y ∈ (0, MAX_XY], η ∈ [MIN_ETA, MAX_ETA], μ ∈ (0, ½).
MAX_XY, MIN_ETA, MAX_ETA = 1e30, 1e-121, 1e121


def _check_box(**fields) -> dict:
    """The fields as Python floats, so that the kernel runs in float64 (a
    numpy float32 would keep it in float32); refuse a bool, a non-real or
    an out-of-box value, naming the field.  Each field but η and μ is an
    X or a Y, grid bounds included."""
    checked = {}
    for name, v in fields.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ParamError(name, "must be a real number")
        try:
            v = float(v)
        except OverflowError:  # a number beyond the float range: refused below
            v = math.nan
        if name == "mu":
            inside, span = 0.0 < v < 0.5, "(0, 1/2)"
        elif name == "eta":
            inside, span = MIN_ETA <= v <= MAX_ETA, f"[{MIN_ETA:g}, {MAX_ETA:g}]"
        else:
            inside, span = 0.0 < v <= MAX_XY, f"(0, {MAX_XY:g}]"
        if not inside:
            raise ParamError(name, f"must lie in {span}")
        checked[name] = v
    return checked


#: Most grid nodes (nx·ny) a sweep accepts: 2000×2000.  The sweep streams
#: its blocks into the CSV, so its memory is set by the block size alone,
#: not by the grid; it writes about 112 bytes per CSV row.
MAX_GRID_NODES = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid inside the quadrant box, of at most :data:`MAX_GRID_NODES` nodes."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    spacing: str = "log"

    def __post_init__(self):
        bounds = _check_box(x_min=self.x_min, x_max=self.x_max,
                            y_min=self.y_min, y_max=self.y_max)
        for name, v in bounds.items():
            object.__setattr__(self, name, v)
        if not self.x_min <= self.x_max:
            raise ParamError("x_min", "grid must satisfy x_min <= x_max")
        if not self.y_min <= self.y_max:
            raise ParamError("y_min", "grid must satisfy y_min <= y_max")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ParamError(name, "must be an integer")
            if v < 1:
                raise ParamError(name, "grid must have at least one node per axis")
        nodes = int(self.nx) * int(self.ny)
        if nodes > MAX_GRID_NODES:
            raise ParamError("nx*ny", f"grid has {nodes} nodes; the limit is {MAX_GRID_NODES}")
        if self.spacing not in ("log", "linear"):
            raise ParamError("spacing", "must be 'log' or 'linear'")

    def axis(self, which: str):
        """The x or y nodes as a numpy array."""
        import numpy as np

        lo, hi, n = ((self.x_min, self.x_max, self.nx) if which == "x"
                     else (self.y_min, self.y_max, self.ny))
        if self.spacing == "log":
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)


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

    def as_vector(self):
        """Six-vector (coords, vels) in this state's own form, a numpy array."""
        import numpy as np

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
