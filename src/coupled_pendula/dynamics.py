"""Nonlinear equations of motion, energy, and time integration.

Two independent right-hand sides are maintained on purpose:

* :func:`accel_q` assembles the 3x3 inertia matrix and force vector in
  the q = (x, θ1, θ2) coordinates and solves the linear system
  numerically.  This is the ground-truth path.
* :func:`accel_y` evaluates the explicit closed form of the same
  accelerations in the y = (x, σ, δ) coordinates, obtained by
  eliminating the pendulum rows: with Θ = m − m1 cos²θ1 − m2 cos²θ2,

      Θ ẍ = −k x + g (m1 s1 c1 + m2 s2 c2)
            + m1 l1 θ̇1² s1 + m2 l2 θ̇2² s2 − D(θ) ẋ
      l_i θ̈_i = −g s_i − ẍ c_i − (β_i/m_i)(ẋ c_i + l_i θ̇_i)

  (c_i = cos θ_i, s_i = sin θ_i) and σ̈ = θ̈1 + θ̈2, δ̈ = θ̈1 − θ̈2.  The
  beam damping factor is D = β0 + β1 s1² + β2 s2² for full-velocity
  damping and D = β0 for rotational-only damping, which also drops the
  ẋ c_i terms in the pendulum rows.

Cross-validating the two paths (see the test suite and the ``verify``
command) guards against transcription mistakes in either one.

The closed form is written once and takes its cos/sin from a module
argument: numpy for :func:`accel_y` and the batched cross-checks, and
``math`` on plain floats for the integrator's right-hand side, where
numpy's per-call overhead on scalars would dominate.  On a scalar both
give the same bits.  On an array they can differ in the last bit, because
numpy squares array elements exactly while float ``**`` calls libm
``pow``: 4 of 30,000 accelerations on 10,000 random states differ.  The
cross-checks compare against a tolerance, so this does not matter to
them.  Θ = m0 + m1 sin²θ1 + m2 sin²θ2 ≥ m0 > 0, so the division by Θ
needs no guard.

The integrator is scipy's DOP853, the explicit adaptive Dormand–Prince
8(5,3) pair (Hairer, Nørsett & Wanner, *Solving Ordinary Differential
Equations I*, §II.5), with tight default tolerances: at these the
eighth-order pair takes far fewer steps than a fifth-order one, and the
system is non-stiff for physically sensible damping.  A run whose state
blows up to inf or nan stalls the solver and raises
:class:`StiffnessError`, and so does a run that spends
:data:`MAX_RHS_EVALS` right-hand-side evaluations without reaching its
end.  Right-hand sides are pure functions and each
integration owns its state, so separate trajectories may run
concurrently.

scipy loads on the first integration, not at import: ``reduce``,
``spectrum`` and ``regions`` never integrate, and ``scipy.integrate``
would otherwise be most of their start-up time.  The module attribute
``solve_ivp`` resolves through a module ``__getattr__`` (PEP 562) that
imports and caches scipy's function, and :func:`integrate` reads it from
the module globals on every call, so a rebinding of
``dynamics.solve_ivp`` (a tracer's wrapper, a test's counter) is honoured.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams, SystemState

__all__ = [
    "DampingModel",
    "MAX_RHS_EVALS",
    "StiffnessError",
    "CrossCheckError",
    "Trajectory",
    "accel_q",
    "accel_y",
    "energy",
    "integrate",
]


def __getattr__(name):
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """The integration could not go on: the step size underflowed or the
    evaluation budget ran out.  ``t_reached`` is the last time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(message)
        self.t_reached = t_reached


class CrossCheckError(RuntimeError):
    """Two independent computations of one quantity disagreed beyond tolerance."""


# ---------------------------------------------------------------------------
# Accelerations: mass-matrix path (q-form)
# ---------------------------------------------------------------------------


def _accel_q_arrays(x, t1, t2, xd, t1d, t2d, p: PhysicalParams,
                    model: DampingModel):
    """Batched mass-matrix solve; scalar or broadcastable array inputs.

    The pendulum rows are scaled by 1/(m_i l_i), which leaves the system
    unchanged for m_i > 0 and stays regular in the massless limit
    (where the row reduces to the ideal-pendulum relation
    l_i θ̈_i + ẍ cos θ_i + g sin θ_i = 0).
    """
    x, t1, t2, xd, t1d, t2d = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, t1, t2, xd, t1d, t2d)))
    shape = x.shape
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    full = model is DampingModel.FULL_VELOCITY

    m = p.m
    A = np.empty(shape + (3, 3))
    A[..., 0, 0] = m
    A[..., 0, 1] = p.m1 * p.l1 * c1
    A[..., 0, 2] = p.m2 * p.l2 * c2
    A[..., 1, 0] = c1
    A[..., 1, 1] = p.l1
    A[..., 1, 2] = 0.0
    A[..., 2, 0] = c2
    A[..., 2, 1] = 0.0
    A[..., 2, 2] = p.l2

    beta_x = (p.beta0 + p.beta1 + p.beta2) if full else p.beta0
    b = np.empty(shape + (3,))
    b[..., 0] = (-p.k * x + p.m1 * p.l1 * t1d**2 * s1 + p.m2 * p.l2 * t2d**2 * s2
                 - beta_x * xd
                 - p.beta1 * p.l1 * t1d * c1 - p.beta2 * p.l2 * t2d * c2)
    r1 = -p.g * s1
    r2 = -p.g * s2
    if p.m1 > 0:
        drag1 = p.beta1 * (xd * c1 + p.l1 * t1d) if full else p.beta1 * p.l1 * t1d
        r1 = r1 - drag1 / p.m1
    if p.m2 > 0:
        drag2 = p.beta2 * (xd * c2 + p.l2 * t2d) if full else p.beta2 * p.l2 * t2d
        r2 = r2 - drag2 / p.m2
    b[..., 1] = r1
    b[..., 2] = r2

    acc = np.linalg.solve(A, b[..., None])[..., 0]
    return acc[..., 0], acc[..., 1], acc[..., 2]


def accel_q(state: SystemState, p: PhysicalParams,
            model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """Accelerations (ẍ, θ̈1, θ̈2) from the assembled inertia system."""
    q = state.to_q()
    xdd, a1, a2 = _accel_q_arrays(*q.coords, *q.vels, p, model)
    return np.array([float(xdd), float(a1), float(a2)])


# ---------------------------------------------------------------------------
# Accelerations: explicit path (y-form)
# ---------------------------------------------------------------------------

def _accel_y_arrays(x, sg, dl, xd, sgd, dld, p: PhysicalParams,
                    model: DampingModel, trig=np):
    """Explicit accelerations (ẍ, σ̈, δ̈); requires m1, m2 > 0.

    ``trig`` supplies cos and sin: ``np`` for arrays or numpy scalars,
    ``math`` for the plain floats the integrator feeds in.  A scalar gets
    the same bits either way, because numpy's float64 cos, sin and
    scalar ``**`` call the same libm functions as ``math`` and ``float``.
    Array elements can differ in the last bit: numpy squares them
    exactly instead of calling ``pow``.
    """
    t1, t2 = 0.5 * (sg + dl), 0.5 * (sg - dl)
    t1d, t2d = 0.5 * (sgd + dld), 0.5 * (sgd - dld)
    c1, s1 = trig.cos(t1), trig.sin(t1)
    c2, s2 = trig.cos(t2), trig.sin(t2)
    full = model is DampingModel.FULL_VELOCITY

    theta = p.m - p.m1 * c1**2 - p.m2 * c2**2
    drag_x = p.beta0 + p.beta1 * s1**2 + p.beta2 * s2**2 if full else p.beta0
    xdd = (-p.k * x
           + p.g * (p.m1 * s1 * c1 + p.m2 * s2 * c2)
           + p.m1 * p.l1 * t1d**2 * s1 + p.m2 * p.l2 * t2d**2 * s2
           - drag_x * xd) / theta

    bm1, bm2 = p.beta1 / p.m1, p.beta2 / p.m2
    drag1 = bm1 * (xd * c1 + p.l1 * t1d) if full else bm1 * p.l1 * t1d
    drag2 = bm2 * (xd * c2 + p.l2 * t2d) if full else bm2 * p.l2 * t2d
    a1 = (-p.g * s1 - xdd * c1 - drag1) / p.l1
    a2 = (-p.g * s2 - xdd * c2 - drag2) / p.l2
    return xdd, a1 + a2, a1 - a2


def accel_y(state: SystemState, p: PhysicalParams,
            model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """Accelerations (ẍ, σ̈, δ̈) from the explicit closed form."""
    p.require_positive_pendula("explicit y-form accelerations")
    y = state.to_y()
    xdd, sdd, ddd = _accel_y_arrays(*y.coords, *y.vels, p, model)
    return np.array([float(xdd), float(sdd), float(ddd)])


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def _energy_q(x, t1, t2, xd, t1d, t2d, p: PhysicalParams):
    """Energy from q-form coordinates; scalar or array inputs."""
    kin = (0.5 * p.m * xd**2
           + 0.5 * p.m1 * p.l1**2 * t1d**2 + 0.5 * p.m2 * p.l2**2 * t2d**2
           + p.m1 * p.l1 * xd * t1d * np.cos(t1)
           + p.m2 * p.l2 * xd * t2d * np.cos(t2))
    pot = 0.5 * p.k * x**2 - p.m1 * p.g * p.l1 * np.cos(t1) - p.m2 * p.g * p.l2 * np.cos(t2)
    return kin + pot


def energy(state: SystemState, p: PhysicalParams) -> float:
    """Total mechanical energy (J).

    E = ½ m ẋ² + Σ (½ m_j l_j² θ̇_j² + m_j l_j ẋ θ̇_j cos θ_j)
        + ½ k x² − Σ m_j g l_j cos θ_j,

    so the rest state at the origin has E = −(m1 g l1 + m2 g l2).  Along
    damped motion E is non-increasing (full-velocity damping gives
    dE/dt = −β0 ẋ² − Σ β_j ((ẋ cos θ_j + l_j θ̇_j)² + ẋ² sin²θ_j) ≤ 0);
    without friction E is conserved.
    """
    q = state.to_q()
    return float(_energy_q(*q.coords, *q.vels, p))


def _energy_arrays(y6: np.ndarray, p: PhysicalParams) -> np.ndarray:
    """Energy along an (N, 6) array of y-form states."""
    x, sg, dl, xd, sgd, dld = (y6[:, i] for i in range(6))
    return _energy_q(x, 0.5 * (sg + dl), 0.5 * (sg - dl),
                     xd, 0.5 * (sgd + dld), 0.5 * (sgd - dld), p)


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------

CSV_HEADER = "t,x,sigma,delta,xdot,sigmadot,deltadot,energy"

#: Most right-hand-side evaluations one integration may spend, about 100
#: times what the README's 60 s example run takes (10,421).  A huge
#: initial state or a very long ``t_end`` needs far more, and would
#: otherwise run for hours.
MAX_RHS_EVALS = 1_000_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution in y-form with energies.

    ``states`` has shape (N, 6) with columns (x, σ, δ, ẋ, σ̇, δ̇).
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.energies)):
            raise ValueError("trajectory arrays must have equal lengths")

    def write_csv(self, path) -> None:
        """Write the trajectory as CSV with 9-digit scientific notation."""
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for t, row, e in zip(self.times, self.states, self.energies):
                vals = [t, *row, e]
                fh.write(",".join(format(v, ".9e") for v in vals) + "\n")


def integrate(state0: SystemState, p: PhysicalParams,
              model: DampingModel = DampingModel.FULL_VELOCITY,
              t_end: float = 10.0, *,
              samples: int = 1001,
              rtol: float = 1e-10,
              atol: float = 1e-12) -> Trajectory:
    """Integrate the full nonlinear system and sample it uniformly.

    Uses the explicit y-form right-hand side and scipy's DOP853, the
    Dormand–Prince 8(5,3) pair.  A right-hand side that is
    not finite at the initial state raises :class:`StiffnessError` at
    t=0 before the solver starts: scipy would pick a NaN first step and
    never return.  So does the evaluation after the first
    :data:`MAX_RHS_EVALS`, at the time the solver asked for.
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    p.require_positive_pendula("time integration")
    y0 = state0.to_y().as_vector()
    evals = 0

    def rhs(t, y):
        nonlocal evals
        evals += 1
        if evals > MAX_RHS_EVALS:
            raise StiffnessError(f"integration stopped at t={t:.6g}: {MAX_RHS_EVALS} "
                                 "right-hand-side evaluations spent", t_reached=float(t))
        y = y.tolist()
        try:
            acc = _accel_y_arrays(*y, p, model, math)
        except (ValueError, OverflowError):
            # The state has blown up: math.cos(inf) and float ** overflow
            # raise where numpy returns nan or inf.  NaN derivatives make
            # the solver reject every step until it stalls, which is
            # reported as StiffnessError.
            acc = (math.nan,) * 3
        return (y[3], y[4], y[5], *acc)

    if not all(map(math.isfinite, rhs(0.0, y0))):
        raise StiffnessError("right-hand side is not finite at t=0", t_reached=0.0)
    t_eval = np.linspace(0.0, t_end, samples)
    solver = globals().get("solve_ivp") or __getattr__("solve_ivp")
    sol = solver(rhs, (0.0, t_end), y0, method="DOP853",
                 rtol=rtol, atol=atol, t_eval=t_eval, dense_output=False)
    if sol.status == -1:
        raise StiffnessError(
            f"integration stalled at t={sol.t[-1] if len(sol.t) else 0.0:.6g}: {sol.message}",
            t_reached=float(sol.t[-1]) if len(sol.t) else 0.0)
    states = sol.y.T.copy()
    return Trajectory(times=sol.t.copy(), states=states,
                      energies=_energy_arrays(states, p))
