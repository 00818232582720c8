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
numpy's per-call overhead on scalars would dominate.  It reads the
parameters from a tuple (:func:`_y_constants`) that an integration builds
once, not from the dataclass on every call.  On a scalar both modules
give the same bits.  On an array they can differ in the last bit, because
numpy squares array elements exactly while float ``**`` calls libm
``pow``: 4 of 30,000 accelerations on 10,000 random states differ.  The
cross-checks compare against a tolerance, so this does not matter to
them.  Θ = m0 + m1 sin²θ1 + m2 sin²θ2 ≥ m0 > 0, so the division by Θ
needs no guard.

The integrator is the in-repo DOP853 of :mod:`._dop853`, the explicit
adaptive Dormand–Prince 8(5,3) pair (Hairer, Nørsett & Wanner, *Solving
Ordinary Differential Equations I*, §II.5) stepped as scipy's
``solve_ivp(method="DOP853")`` steps it, with tight default tolerances:
at these the eighth-order pair takes far fewer steps than a fifth-order
one, and the system is non-stiff for physically sensible damping.  It
steps a batch of trajectories in lockstep, each with its own step-size
control, through one autonomous right-hand side that the rows share and
that evaluates each row on plain floats; the decay-rate fits integrate
their trajectories as one batch.  The first trajectory whose right-hand
side is not finite at t = 0, whose state blows up to inf or nan (the
solver then rejects steps until the step size falls below 10 ulps of t),
or that spends :data:`MAX_RHS_EVALS` evaluations short of its end stops
the batch and raises :class:`StiffnessError`.  The right-hand side is
pure and each integration owns its state, so integrations may run
concurrently.

Integrations reach the solver through the module attribute ``solve_ivp``,
read from the module globals on every call, so a rebinding of
``dynamics.solve_ivp`` (a tracer's wrapper, a test's counter) sees every
integration.  It returns the total right-hand-side evaluations as
``nfev`` and ``status`` −1 when a trajectory ended the batch.  No command
imports scipy; the test suite keeps scipy's ``solve_ivp`` as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import BLOCK_ROWS, e9_column, write_csv
from ._dop853 import solve_ivp
from .params import DampingModel, PhysicalParams, StiffnessError, SystemState

__all__ = [
    "MAX_RHS_EVALS",
    "Trajectory",
    "accel_q",
    "accel_y",
    "energy",
    "integrate",
]


# ---------------------------------------------------------------------------
# Accelerations: mass-matrix path (q-form)
# ---------------------------------------------------------------------------


def _accel_q_arrays(x, t1, t2, xd, t1d, t2d, p: PhysicalParams,
                    model: DampingModel):
    """Batched mass-matrix solve; scalar or broadcastable array inputs.

    The pendulum rows are scaled by 1/(m_i l_i).
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
    drag1 = p.beta1 * (xd * c1 + p.l1 * t1d) if full else p.beta1 * p.l1 * t1d
    drag2 = p.beta2 * (xd * c2 + p.l2 * t2d) if full else p.beta2 * p.l2 * t2d
    b[..., 1] = -p.g * s1 - drag1 / p.m1
    b[..., 2] = -p.g * s2 - drag2 / p.m2

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

def _y_constants(p: PhysicalParams, model: DampingModel) -> tuple:
    """The parameters as :func:`_accel_y_arrays` reads them, β/m included."""
    return (p.m, p.m1, p.m2, p.l1, p.l2, p.g, p.k, p.beta0, p.beta1, p.beta2,
            p.beta1 / p.m1, p.beta2 / p.m2, model is DampingModel.FULL_VELOCITY)


def _accel_y_arrays(x, sg, dl, xd, sgd, dld, c: tuple, trig=np):
    """Explicit accelerations (ẍ, σ̈, δ̈), with ``c = _y_constants(p, model)``.

    ``trig`` supplies cos and sin: ``np`` for arrays or numpy scalars,
    ``math`` for the plain floats the integrator feeds in.  A scalar gets
    the same bits either way, because numpy's float64 cos, sin and
    scalar ``**`` call the same libm functions as ``math`` and ``float``.
    Array elements can differ in the last bit: numpy squares them
    exactly instead of calling ``pow``.
    """
    m, m1, m2, l1, l2, g, k, beta0, beta1, beta2, bm1, bm2, full = c
    t1, t2 = 0.5 * (sg + dl), 0.5 * (sg - dl)
    t1d, t2d = 0.5 * (sgd + dld), 0.5 * (sgd - dld)
    c1, s1 = trig.cos(t1), trig.sin(t1)
    c2, s2 = trig.cos(t2), trig.sin(t2)

    theta = m - m1 * c1**2 - m2 * c2**2
    drag_x = beta0 + beta1 * s1**2 + beta2 * s2**2 if full else beta0
    xdd = (-k * x
           + g * (m1 * s1 * c1 + m2 * s2 * c2)
           + m1 * l1 * t1d**2 * s1 + m2 * l2 * t2d**2 * s2
           - drag_x * xd) / theta

    drag1 = bm1 * (xd * c1 + l1 * t1d) if full else bm1 * l1 * t1d
    drag2 = bm2 * (xd * c2 + l2 * t2d) if full else bm2 * l2 * t2d
    a1 = (-g * s1 - xdd * c1 - drag1) / l1
    a2 = (-g * s2 - xdd * c2 - drag2) / l2
    return xdd, a1 + a2, a1 - a2


def accel_y(state: SystemState, p: PhysicalParams,
            model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """Accelerations (ẍ, σ̈, δ̈) from the explicit closed form."""
    y = state.to_y()
    xdd, sdd, ddd = _accel_y_arrays(*y.coords, *y.vels, _y_constants(p, model))
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

#: Most right-hand-side evaluations one trajectory may spend, about 100
#: times what the README's 60 s example run takes (10,421).  A huge
#: initial state or a very long ``t_end`` needs far more, and would
#: otherwise run for hours.
MAX_RHS_EVALS = 1_000_000
#: Default relative and absolute error tolerances of every integration.
RTOL, ATOL = 1e-10, 1e-12


@dataclass(frozen=True, eq=False)
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
        """Write the trajectory as CSV, every cell ``.9e``, ten significant digits."""
        values = np.column_stack([self.times, self.states, self.energies])

        def blocks():
            for lo in range(0, len(values), BLOCK_ROWS):
                block = values[lo:lo + BLOCK_ROWS]
                yield e9_column(block.ravel()).reshape(block.shape).T

        write_csv(path, CSV_HEADER, blocks())


def integrate(state0: SystemState, p: PhysicalParams,
              model: DampingModel = DampingModel.FULL_VELOCITY,
              t_end: float = 10.0, *,
              samples: int = 1001,
              rtol: float = RTOL, atol: float = ATOL) -> Trajectory:
    """Integrate the full nonlinear system and sample it uniformly.

    Uses the explicit y-form right-hand side and the in-repo DOP853, the
    Dormand–Prince 8(5,3) pair.  Raises :class:`StiffnessError` when the
    right-hand side is not finite at t = 0, when the step size falls
    below 10 ulps of t, or before the evaluations pass
    :data:`MAX_RHS_EVALS`.
    """
    return _integrate_rows([state0], [p], model, [t_end], samples, rtol, atol)[0]


def _rhs(params, model: DampingModel):
    """The right-hand side y' that a batch of trajectories shares, on the
    plain floats the solver passes, with each one's parameters read once."""
    consts = [_y_constants(p, model) for p in params]

    def rhs(rows, states):
        out = []
        for i, (x, sg, dl, xd, sgd, dld) in zip(rows, states):
            try:
                out += (xd, sgd, dld, *_accel_y_arrays(x, sg, dl, xd, sgd, dld, consts[i], math))
            except (ValueError, OverflowError):
                # The state has blown up: math.cos(inf) and float ** overflow
                # raise where numpy returns nan or inf.  NaN derivatives make
                # the solver reject every step until it stalls, which is
                # reported as StiffnessError.
                out += (xd, sgd, dld, math.nan, math.nan, math.nan)
        return out
    return rhs


def _integrate_rows(states, params, model: DampingModel, t_ends, samples: int,
                    rtol: float = RTOL, atol: float = ATOL) -> list[Trajectory]:
    """:func:`integrate` for several trajectories at once, stepped as one
    batch: each takes the steps it would take alone, and its samples agree
    with its lone run to rounding.  The first trajectory to stop ends the
    batch and raises its :class:`StiffnessError`."""
    for t_end in t_ends:
        if not 0 < t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
    y0 = np.array([s.to_y().as_vector() for s in states])
    sol = solve_ivp(_rhs(params, model), y0, t_ends, samples,
                    rtol=rtol, atol=atol, max_evals=MAX_RHS_EVALS)
    if sol.message is not None:
        raise StiffnessError(sol.message, t_reached=sol.t_reached)
    return [Trajectory(times=times, states=states, energies=_energy_arrays(states, p))
            for times, states, p in zip(sol.t, sol.y, params)]
