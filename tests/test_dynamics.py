import math

import numpy as np
import pytest

from coupled_pendula import (
    DampingModel,
    SystemState,
    Trajectory,
    accel_q,
    accel_y,
    delta_closed_form,
    energy,
    integrate,
    linear_system,
)
from coupled_pendula.dynamics import (CSV_HEADER, _accel_q_arrays, _accel_y_arrays,
                                      _y_constants)
from coupled_pendula.verification import random_params

from oracles import generalized_damping, propagate_linear, reference_trajectory

FULL = DampingModel.FULL_VELOCITY
ROT = DampingModel.ROTATIONAL_ONLY


def accel_q_as_y(state, p, model=FULL):
    aq = accel_q(state, p, model)
    return np.array([aq[0], aq[1] + aq[2], aq[1] - aq[2]])


# ---------------------------------------------------------------------------
# equilibrium and degenerate limits
# ---------------------------------------------------------------------------

def test_origin_is_equilibrium(rng):
    rest = SystemState.from_q(0, 0, 0)
    for _ in range(50):
        p = random_params(rng)
        for model in (FULL, ROT):
            assert np.max(np.abs(accel_q(rest, p, model))) == 0.0
            assert np.max(np.abs(accel_y(rest, p, model))) == 0.0


def test_displaced_beam_accel_cross_check(asymmetric_params):
    import dataclasses
    p = dataclasses.replace(asymmetric_params, beta0=0.0, beta1=0.0, beta2=0.0)
    s = SystemState.from_q(0.3, 0, 0)
    ay = accel_y(s.to_y(), p)
    assert np.allclose(accel_q_as_y(s, p), ay, rtol=1e-12, atol=1e-14)


def test_theta_factor_at_origin(asymmetric_params):
    # with both pendula hanging the inertial denominator is Theta = m0, so
    # a displaced beam at rest accelerates as -k x / m0 on both paths
    p = asymmetric_params
    s = SystemState.from_q(0.3, 0, 0)
    for xdd in (accel_q(s, p)[0], accel_y(s, p)[0]):
        assert xdd == pytest.approx(-p.k * 0.3 / p.m0, rel=1e-13)


# ---------------------------------------------------------------------------
# formulation equivalence (module-scale; full sweep in acceptance)
# ---------------------------------------------------------------------------

def test_accel_formulations_agree(rng):
    for _ in range(40):
        p = random_params(rng)
        n = 50
        x = rng.uniform(-1, 1, n)
        t1, t2, xd, t1d, t2d = rng.uniform(-1, 1, (5, n))
        for model in (FULL, ROT):
            xdd, a1, a2 = _accel_q_arrays(x, t1, t2, xd, t1d, t2d, p, model)
            ref = np.stack([xdd, a1 + a2, a1 - a2])
            got = np.stack(_accel_y_arrays(x, t1 + t2, t1 - t2, xd,
                                           t1d + t2d, t1d - t2d, _y_constants(p, model)))
            scale = np.maximum(1.0, np.abs(ref).max(axis=0))
            assert np.max(np.abs(got - ref).max(axis=0) / scale) <= 1e-9


def test_plain_float_accel_matches_numpy_bits(rng):
    # the integrator evaluates the closed form with math on floats,
    # accel_y with numpy; both must give the same bits
    for _ in range(20):
        p = random_params(rng)
        for v in rng.uniform(-3, 3, (50, 6)).tolist():
            for model in (FULL, ROT):
                plain = _accel_y_arrays(*v, _y_constants(p, model), math)
                assert list(plain) == accel_y(SystemState.from_y(*v), p, model).tolist()


def test_identical_pendula_delta_equation(identical_params):
    # x = xdot = sigma = sigmadot = 0, small delta: delta'' = -(g/l) d - (bp/mp) d'
    p = identical_params
    d0, dd0 = 1e-6, 2e-6
    s = SystemState.from_y(0, 0, d0, 0, 0, dd0)
    acc = accel_y(s, p)
    expected = -(p.g / p.l1) * d0 - (p.beta1 / p.m1) * dd0
    assert acc[2] == pytest.approx(expected, rel=1e-9)
    assert abs(acc[0]) < 1e-12
    assert abs(acc[1]) < 1e-12


# ---------------------------------------------------------------------------
# generalized damping
# ---------------------------------------------------------------------------

def test_damping_zero_velocity(asymmetric_params):
    s = SystemState.from_q(0.4, 0.6, -0.2)
    for model in (FULL, ROT):
        assert np.all(generalized_damping(s, asymmetric_params, model) == 0.0)


def test_damping_full_velocity_beam_component(asymmetric_params):
    p = asymmetric_params
    s = SystemState.from_q(0, 0, 0, 0.7, 0.3, -0.4)
    f = generalized_damping(s, p, FULL)
    beta = p.beta0 + p.beta1 + p.beta2
    assert f[0] == pytest.approx(-beta * 0.7 - p.beta1 * p.l1 * 0.3 - p.beta2 * p.l2 * -0.4,
                                 rel=1e-14)


def test_damping_rotational_pendulum_component(asymmetric_params):
    p = asymmetric_params
    for xd in (0.0, 1.3):
        s = SystemState.from_q(0, 0.2, 0.1, xd, 0.3, -0.4)
        f = generalized_damping(s, p, ROT)
        assert f[1] == pytest.approx(-p.beta1 * p.l1**2 * 0.3, rel=1e-14)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_reference_at_rest(asymmetric_params):
    p = asymmetric_params
    rest = SystemState.from_q(0, 0, 0)
    assert energy(rest, p) == pytest.approx(-(p.m1 * p.g * p.l1 + p.m2 * p.g * p.l2),
                                            rel=1e-14)


def test_energy_conserved_without_friction(rng):
    p = random_params(rng, damped=False)
    y0 = SystemState.from_y(0.02, 0.05, -0.03, 0, 0, 0)
    traj = integrate(y0, p, FULL, t_end=20.0, samples=2001)
    e0 = traj.energies[0]
    assert np.max(np.abs(traj.energies - e0)) <= 1e-8 * abs(e0)


def test_energy_monotone_under_full_damping(rng):
    for _ in range(3):
        p = random_params(rng)
        y0 = SystemState.from_y(0.05, 0.3, -0.2, 0.02, 0.1, 0.05)
        traj = integrate(y0, p, FULL, t_end=15.0, samples=3001)
        e = traj.energies
        assert np.all(e[1:] <= e[:-1] + 1e-12 * np.abs(e[:-1]))


def test_energy_rate_is_damping_power(rng):
    # dE/dt = qdot . Phi for both damping models, spot-checked by finite differences
    p = random_params(rng)
    s = SystemState.from_q(0.1, 0.4, -0.3, 0.2, -0.5, 0.3)
    for model in (FULL, ROT):
        acc = accel_q(s, p, model)
        qd = np.array(s.vels)
        phi = generalized_damping(s, p, model)
        h = 1e-7
        coords = np.array(s.coords) + h * qd
        vels = qd + h * acc
        s2 = SystemState.from_q(*coords, *vels)
        de_dt = (energy(s2, p) - energy(s, p)) / h
        assert de_dt == pytest.approx(float(qd @ phi), rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_zero_state_stays_zero(identical_params):
    traj = integrate(SystemState.from_y(0, 0, 0), identical_params, FULL, 5.0,
                     samples=101)
    assert np.max(np.abs(traj.states)) == 0.0


def test_delta_only_matches_closed_form(identical_params):
    p = identical_params
    d0 = 1e-3
    traj = integrate(SystemState.from_y(0, 0, d0), p, FULL, 12.0, samples=1201)
    ref = delta_closed_form(p, d0, 0.0, traj.times)
    assert np.max(np.abs(traj.states[:, 2] - ref)) <= 1e-6 * d0
    # x and sigma stay at the nonlinear coupling scale (amplitude^3)
    assert np.max(np.abs(traj.states[:, 1])) <= 1e-6


def test_linear_regime_matches_jacobian_system(identical_params):
    p = identical_params
    amp = 1e-4
    y0 = SystemState.from_y(amp * p.l1, amp, amp * 0.5, 0, 0, 0)
    periods = 10 * 2 * np.pi / np.sqrt(p.g / p.l1)
    traj = integrate(y0, p, FULL, periods, samples=2001)
    ref = propagate_linear(linear_system(p, FULL), y0.as_vector(), traj.times)
    scale = np.max(np.abs(ref), axis=0)
    err = np.max(np.abs(traj.states - ref), axis=0) / scale
    assert np.max(err) <= 1e-3


@pytest.mark.parametrize("model", [FULL, ROT])
@pytest.mark.parametrize("fixture", ["identical_params", "asymmetric_params"])
def test_integrate_matches_tight_mass_matrix_reference(request, fixture, model):
    # the error per component, relative to its largest magnitude along a
    # reference 100x tighter through the other acceleration path; the
    # default tolerances land near 5e-10, and 100x looser rtol and atol
    # above 5e-8
    p = request.getfixturevalue(fixture)
    state = SystemState.from_y(0.01, 0.02, 0.015)
    traj = integrate(state, p, model, 10.0, samples=201)
    ref = reference_trajectory(state, p, model, traj.times)
    err = np.max(np.abs(traj.states - ref), axis=0) / np.max(np.abs(ref), axis=0)
    assert np.max(err) <= 1e-8


def test_rotational_model_integrates(identical_params):
    traj = integrate(SystemState.from_y(0.01, 0.05, -0.02), identical_params,
                     ROT, 5.0, samples=501)
    assert traj.energies[-1] < traj.energies[0]


def test_trajectory_csv_format(tmp_path, identical_params):
    traj = integrate(SystemState.from_y(0.01, 0.02, 0.03), identical_params,
                     FULL, 1.0, samples=11)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    row = lines[3].split(",")
    assert len(row) == 8
    for cell in row:
        float(cell)
        assert "e" in cell  # scientific notation
    # round trip: the sampled states are recoverable at the printed precision
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(parsed[:, 1:7], traj.states, rtol=1e-8, atol=1e-12)


def _reference_trajectory_csv(traj):
    """The CSV bytes with one ``format(v, ".9e")`` per cell."""
    rows = np.column_stack([traj.times, traj.states, traj.energies]).tolist()
    return "".join([CSV_HEADER + "\n"]
                   + [",".join(format(v, ".9e") for v in row) + "\n" for row in rows]).encode()


def test_trajectory_csv_bytes_match_format(tmp_path):
    # signed cells over four full 4,096-row blocks and a partial one: zeros
    # of both signs (the rest state and zero velocities), magnitudes below
    # 1e-13, three-digit exponents, and decimal near-ties
    rng = np.random.default_rng(7)
    n = 17_000
    v = rng.choice([-1.0, 1.0], (n, 8)) * 10.0 ** rng.uniform(-20.0, 12.0, (n, 8))
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-13, -9.99999999995e-14, 1.5e-150,
               -2.5e200, -1.7976931348623157e308, 1e10, -9999999999.5, 1.0000000005]
    v[rng.integers(0, n, 3000), rng.integers(0, 8, 3000)] = rng.choice(special, 3000)
    v[0, 1:7] = 0.0
    v[1, 4:7] = -0.0
    traj = Trajectory(times=v[:, 0], states=v[:, 1:7], energies=v[:, 7])
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    assert path.read_bytes() == _reference_trajectory_csv(traj)


def test_integrated_trajectory_csv_bytes_match_format(tmp_path, identical_params):
    traj = integrate(SystemState.from_y(-0.01, 0.02, -0.03), identical_params,
                     FULL, 5.0, samples=501)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    assert path.read_bytes() == _reference_trajectory_csv(traj)


def test_solve_ivp_seam_honours_rebinding(monkeypatch, identical_params):
    # the module attribute is the in-repo batch solver; a wrapper bound
    # over it (as a tracer does) sees every integration, one call per batch
    from coupled_pendula import _dop853, dynamics, regions
    assert not hasattr(dynamics, "no_such_name")
    assert dynamics.solve_ivp is _dop853.solve_ivp
    state = SystemState.from_y(0.01, 0.02, 0.015)
    ref = integrate(state, identical_params, FULL, 2.0, samples=21)
    calls = []

    def counting(rhs, y0, *args, **kwargs):
        calls.append(len(y0))
        return _dop853.solve_ivp(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    traj = integrate(state, identical_params, FULL, 2.0, samples=21)
    assert calls == [1]
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states, ref.states)
    regions.empirical_decay_rates([identical_params], [state], [20.0])
    assert calls == [1, 1]
    regions.empirical_decay_rates([identical_params] * 2, [state] * 2, [20.0, 10.0])
    assert calls == [1, 1, 2]


# ---------------------------------------------------------------------------
# stiffness failure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigmadot0", [1e160, math.inf, math.nan])
def test_non_finite_rhs_at_start_raises_before_solving(identical_params, sigmadot0):
    # a NaN right-hand side at t=0 would make the first step NaN, so the
    # solver stops the trajectory before stepping; at 1e160 the float **
    # overflows, which the right-hand side turns into NaN
    from coupled_pendula import StiffnessError
    with pytest.raises(StiffnessError, match="not finite at t=0") as exc:
        integrate(SystemState.from_y(0, 0, 0, 0, sigmadot0, 0), identical_params,
                  FULL, t_end=1.0, samples=3)
    assert exc.value.t_reached == 0.0


def _forced_solver(force):
    # the in-repo solver on the right-hand side as ``force`` rewrites it
    from coupled_pendula import _dop853

    def solver(rhs, *args, **kwargs):
        return _dop853.solve_ivp(lambda rows, states: force(rhs, rows, states),
                                 *args, **kwargs)
    return solver


def test_finite_time_blowup_raises_stiffness_error(identical_params, monkeypatch):
    # sigma'' = 1 + sigma'^2, in place of the equations of motion, sends
    # sigma' = tan t to infinity at t = pi/2, where the step size falls
    # below 10 ulps of t; the solver must stall there (at t = 1.5707963268,
    # 6,023 evaluations), long before its evaluation budget runs out
    from coupled_pendula import StiffnessError, dynamics

    def blowup(rhs, rows, states):
        d = rhs(rows, states)
        for j, y in enumerate(states):
            d[6 * j + 4] = 1.0 + y[4] * y[4]
        return d

    monkeypatch.setattr(dynamics, "solve_ivp", _forced_solver(blowup))
    with pytest.raises(StiffnessError, match="integration stalled") as exc:
        integrate(SystemState.from_y(0, 0, 0), identical_params, FULL,
                  t_end=2.0, samples=101)
    assert abs(exc.value.t_reached - math.pi / 2) <= 1e-6


def test_infinite_state_in_solver_raises_stiffness_error(identical_params, monkeypatch):
    # the state becomes inf (and 0 * inf = nan) on every call after the
    # derivative at t=0; the plain-float right-hand side must stall the
    # solver, not leak math's ValueError
    from coupled_pendula import StiffnessError, dynamics
    calls = []

    def inf_after_first(rhs, rows, states):
        if calls:
            states = [[v * math.inf for v in y] for y in states]
        calls.append(len(rows))
        return rhs(rows, states)

    monkeypatch.setattr(dynamics, "solve_ivp", _forced_solver(inf_after_first))
    with pytest.raises(StiffnessError) as exc:
        integrate(SystemState.from_y(0.01, 0.02, 0.015), identical_params, FULL,
                  t_end=5.0, samples=11)
    assert exc.value.t_reached == 0.0
