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
      l_i θ̈_i = −g s_i − ẍ c_i − (β_i/m_i)(ẋ c_i + l_i θ̇_i) + f_i/m_i

  (c_i = cos θ_i, s_i = sin θ_i) and σ̈ = θ̈1 + θ̈2, δ̈ = θ̈1 − θ̈2.  The
  beam damping factor is D = β0 + β1 s1² + β2 s2² for full-velocity
  damping and D = β0 for rotational-only damping, which also drops the
  ẋ c_i terms in the pendulum rows.  Any drive forces f_i cancel from
  the beam equation exactly.

Cross-validating the two paths (see the test suite and the ``verify``
command) guards against transcription mistakes in either one.

The closed form is written once and takes its cos/sin from a module
argument: numpy for :func:`accel_y` and the batched cross-checks, and
``math`` on plain floats for the integrator's right-hand side, where
numpy's per-call overhead on scalars would dominate.  Both give the same
bits.  Θ = m0 + m1 sin²θ1 + m2 sin²θ2 ≥ m0 > 0, so the division by Θ
needs no guard.

The integrator is an explicit adaptive Runge-Kutta embedded 5(4) pair
(scipy's RK45) with tight default tolerances; the system is non-stiff
for physically sensible damping.  A run whose state blows up to inf or
nan stalls the solver and raises :class:`StiffnessError`.  Right-hand
sides are pure functions and each integration owns its state, so
separate trajectories may run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .params import EscapementSpec, PhysicalParams, SystemState, ZERO_ESCAPEMENT

__all__ = [
    "DampingModel",
    "StiffnessError",
    "CrossCheckError",
    "Trajectory",
    "generalized_damping",
    "accel_q",
    "accel_y",
    "theta_factor",
    "energy",
    "integrate",
]


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
    """Adaptive step-size underflow; ``t_reached`` is the last good time."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(message)
        self.t_reached = t_reached


class CrossCheckError(RuntimeError):
    """The two acceleration formulations disagreed beyond tolerance."""


# ---------------------------------------------------------------------------
# Generalized damping forces
# ---------------------------------------------------------------------------


def generalized_damping(state: SystemState, p: PhysicalParams,
                        model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """Generalized friction force on (x, θ1, θ2) for the given model."""
    q = state.to_q()
    _, t1, t2 = q.coords
    xd, t1d, t2d = q.vels
    c1, c2 = np.cos(t1), np.cos(t2)
    fx_common = -p.beta1 * p.l1 * t1d * c1 - p.beta2 * p.l2 * t2d * c2
    if model is DampingModel.FULL_VELOCITY:
        beta = p.beta0 + p.beta1 + p.beta2
        return np.array([
            -beta * xd + fx_common,
            -p.beta1 * p.l1 * (xd * c1 + p.l1 * t1d),
            -p.beta2 * p.l2 * (xd * c2 + p.l2 * t2d),
        ])
    return np.array([
        -p.beta0 * xd + fx_common,
        -p.beta1 * p.l1**2 * t1d,
        -p.beta2 * p.l2**2 * t2d,
    ])


# ---------------------------------------------------------------------------
# Accelerations: mass-matrix path (q-form)
# ---------------------------------------------------------------------------


def _accel_q_arrays(x, t1, t2, xd, t1d, t2d, p: PhysicalParams,
                    model: DampingModel, f1=0.0, f2=0.0):
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
                 - p.beta1 * p.l1 * t1d * c1 - p.beta2 * p.l2 * t2d * c2
                 + f1 * c1 + f2 * c2)
    r1 = -p.g * s1
    r2 = -p.g * s2
    if p.m1 > 0:
        drag1 = p.beta1 * (xd * c1 + p.l1 * t1d) if full else p.beta1 * p.l1 * t1d
        r1 = r1 + (f1 - drag1) / p.m1
    if p.m2 > 0:
        drag2 = p.beta2 * (xd * c2 + p.l2 * t2d) if full else p.beta2 * p.l2 * t2d
        r2 = r2 + (f2 - drag2) / p.m2
    b[..., 1] = r1
    b[..., 2] = r2

    acc = np.linalg.solve(A, b[..., None])[..., 0]
    return acc[..., 0], acc[..., 1], acc[..., 2]


def accel_q(state: SystemState, p: PhysicalParams,
            model: DampingModel = DampingModel.FULL_VELOCITY,
            escapement: EscapementSpec = ZERO_ESCAPEMENT,
            t: float = 0.0) -> np.ndarray:
    """Accelerations (ẍ, θ̈1, θ̈2) from the assembled inertia system."""
    q = state.to_q()
    f1, f2 = escapement.forces(q, t)
    xdd, a1, a2 = _accel_q_arrays(*q.coords, *q.vels, p, model, f1, f2)
    return np.array([float(xdd), float(a1), float(a2)])


# ---------------------------------------------------------------------------
# Accelerations: explicit path (y-form)
# ---------------------------------------------------------------------------

def theta_factor(state: SystemState, p: PhysicalParams) -> float:
    """Inertial denominator Θ = m − m1 cos²θ1 − m2 cos²θ2 (kg).

    Equals m(1−2μ) = m0 at the origin and never drops below m0 for
    valid parameters.
    """
    q = state.to_q()
    _, t1, t2 = q.coords
    return float(p.m - p.m1 * np.cos(t1) ** 2 - p.m2 * np.cos(t2) ** 2)


def _accel_y_arrays(x, sg, dl, xd, sgd, dld, p: PhysicalParams,
                    model: DampingModel, f1=0.0, f2=0.0, trig=np):
    """Explicit accelerations (ẍ, σ̈, δ̈); requires m1, m2 > 0.

    ``trig`` supplies cos and sin: ``np`` for arrays or numpy scalars,
    ``math`` for the plain floats the integrator feeds in.  Scalars get
    the same bits either way, because numpy's float64 cos, sin and
    scalar ``**`` call the same libm functions as ``math`` and ``float``.
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
    a1 = (-p.g * s1 - xdd * c1 - drag1 + f1 / p.m1) / p.l1
    a2 = (-p.g * s2 - xdd * c2 - drag2 + f2 / p.m2) / p.l2
    return xdd, a1 + a2, a1 - a2


def accel_y(state: SystemState, p: PhysicalParams,
            model: DampingModel = DampingModel.FULL_VELOCITY,
            escapement: EscapementSpec = ZERO_ESCAPEMENT,
            t: float = 0.0) -> np.ndarray:
    """Accelerations (ẍ, σ̈, δ̈) from the explicit closed form."""
    p.require_positive_pendula("explicit y-form accelerations")
    y = state.to_y()
    f1, f2 = escapement.forces(state.to_q(), t)
    xdd, sdd, ddd = _accel_y_arrays(*y.coords, *y.vels, p, model, f1, f2)
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

    def state_at(self, i: int) -> SystemState:
        row = self.states[i]
        return SystemState.from_y(*row)

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
              atol: float = 1e-12,
              escapement: EscapementSpec = ZERO_ESCAPEMENT,
              cross_check_every: int = 0) -> Trajectory:
    """Integrate the full nonlinear system and sample it uniformly.

    Uses the explicit y-form right-hand side.  When
    ``cross_check_every`` is positive, every Nth sampled state is also
    pushed through the mass-matrix path and a disagreement beyond
    1e-9 relative raises :class:`CrossCheckError`.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    p.require_positive_pendula("time integration")
    y0 = state0.to_y().as_vector()
    zero_esc = escapement.is_zero

    def rhs(t, y):
        y = y.tolist()
        if zero_esc:
            f1 = f2 = 0.0
        else:
            f1, f2 = escapement.forces(SystemState.from_y(*y).to_q(), t)
        try:
            acc = _accel_y_arrays(*y, p, model, f1, f2, math)
        except (ValueError, OverflowError):
            # The state has blown up: math.cos(inf) and float ** overflow
            # raise where numpy returns nan or inf.  NaN derivatives make
            # the solver reject every step until it stalls, which is
            # reported as StiffnessError.
            acc = (math.nan,) * 3
        return (y[3], y[4], y[5], *acc)

    t_eval = np.linspace(0.0, t_end, samples)
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="RK45",
                    rtol=rtol, atol=atol, t_eval=t_eval, dense_output=False)
    if sol.status == -1:
        raise StiffnessError(
            f"integration stalled at t={sol.t[-1] if len(sol.t) else 0.0:.6g}: {sol.message}",
            t_reached=float(sol.t[-1]) if len(sol.t) else 0.0)
    states = sol.y.T.copy()
    traj = Trajectory(times=sol.t.copy(), states=states,
                      energies=_energy_arrays(states, p))

    if cross_check_every > 0:
        idx = np.arange(0, samples, cross_check_every)
        for i in idx:
            s = traj.state_at(int(i))
            ay = accel_y(s, p, model, escapement, float(traj.times[i]))
            aq = accel_q(s, p, model, escapement, float(traj.times[i]))
            ay_from_q = np.array([aq[0], aq[1] + aq[2], aq[1] - aq[2]])
            scale = max(1.0, float(np.max(np.abs(ay_from_q))))
            if np.max(np.abs(ay - ay_from_q)) > 1e-9 * scale:
                raise CrossCheckError(
                    f"acceleration formulations disagree at t={traj.times[i]:.6g}")
    return traj
