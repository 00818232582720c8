import math

import numpy as np
import pytest

from coupled_pendula import (
    DampingModel,
    PhysicalParams,
    SystemState,
    accel_q,
    accel_y,
    delta_closed_form,
    energy,
    generalized_damping,
    integrate,
    linear_system,
    theta_factor,
)
from coupled_pendula.dynamics import CSV_HEADER, _accel_q_arrays, _accel_y_arrays

from conftest import draw_params
from oracles import propagate_linear

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
        p = draw_params(rng)
        for model in (FULL, ROT):
            assert np.max(np.abs(accel_q(rest, p, model))) == 0.0
            assert np.max(np.abs(accel_y(rest, p, model))) == 0.0


def test_massless_pendula_reduce_to_spring_mass():
    p = PhysicalParams(m0=1.5, m1=0, m2=0, l1=1, l2=1, beta0=0.4,
                       beta1=0, beta2=0, k=3.0)
    s = SystemState.from_q(0.2, 0, 0, -0.1, 0, 0)
    acc = accel_q(s, p, FULL)
    assert acc[0] == pytest.approx((-3.0 * 0.2 - 0.4 * -0.1) / 1.5, rel=1e-14)


def test_displaced_beam_accel_cross_check(asymmetric_params):
    import dataclasses
    p = dataclasses.replace(asymmetric_params, beta0=0.0, beta1=0.0, beta2=0.0)
    s = SystemState.from_q(0.3, 0, 0)
    ay = accel_y(s.to_y(), p)
    assert np.allclose(accel_q_as_y(s, p), ay, rtol=1e-12, atol=1e-14)


def test_theta_factor_at_origin(asymmetric_params):
    p = asymmetric_params
    rest = SystemState.from_q(0, 0, 0)
    assert theta_factor(rest, p) == pytest.approx(p.m0, rel=1e-14)
    assert theta_factor(rest, p) == pytest.approx(p.m * (1 - 2 * ((p.m1 + p.m2) / (2 * p.m))),
                                                  rel=1e-12)


# ---------------------------------------------------------------------------
# formulation equivalence (module-scale; full sweep in acceptance)
# ---------------------------------------------------------------------------

def test_accel_formulations_agree(rng):
    for _ in range(40):
        p = draw_params(rng)
        n = 50
        x = rng.uniform(-1, 1, n)
        t1, t2, xd, t1d, t2d = rng.uniform(-1, 1, (5, n))
        for model in (FULL, ROT):
            xdd, a1, a2 = _accel_q_arrays(x, t1, t2, xd, t1d, t2d, p, model)
            ref = np.stack([xdd, a1 + a2, a1 - a2])
            got = np.stack(_accel_y_arrays(x, t1 + t2, t1 - t2, xd,
                                           t1d + t2d, t1d - t2d, p, model))
            scale = np.maximum(1.0, np.abs(ref).max(axis=0))
            assert np.max(np.abs(got - ref).max(axis=0) / scale) <= 1e-9


def test_plain_float_accel_matches_numpy_bits(rng):
    # the integrator evaluates the closed form with math on floats,
    # accel_y with numpy; both must give the same bits
    for _ in range(20):
        p = draw_params(rng)
        for v in rng.uniform(-3, 3, (50, 6)).tolist():
            for model in (FULL, ROT):
                plain = _accel_y_arrays(*v, p, model, 0.0, 0.0, math)
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
    p = draw_params(rng, damped=False)
    y0 = SystemState.from_y(0.02, 0.05, -0.03, 0, 0, 0)
    traj = integrate(y0, p, FULL, t_end=20.0, samples=2001)
    e0 = traj.energies[0]
    assert np.max(np.abs(traj.energies - e0)) <= 1e-8 * abs(e0)


def test_energy_monotone_under_full_damping(rng):
    for _ in range(3):
        p = draw_params(rng)
        y0 = SystemState.from_y(0.05, 0.3, -0.2, 0.02, 0.1, 0.05)
        traj = integrate(y0, p, FULL, t_end=15.0, samples=3001)
        e = traj.energies
        assert np.all(e[1:] <= e[:-1] + 1e-12 * np.abs(e[:-1]))


def test_energy_rate_is_damping_power(rng):
    # dE/dt = qdot . Phi for both damping models, spot-checked by finite differences
    p = draw_params(rng)
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


def test_cross_check_hook_runs(identical_params):
    traj = integrate(SystemState.from_y(0.01, 0.05, -0.02), identical_params,
                     FULL, 2.0, samples=201, cross_check_every=50)
    assert len(traj.times) == 201


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


# ---------------------------------------------------------------------------
# escapement hook and stiffness failure
# ---------------------------------------------------------------------------

def test_escapement_hook_consistent_between_formulations(identical_params):
    from coupled_pendula import EscapementSpec
    esc = EscapementSpec(f1=lambda s, t: 0.05, f2=lambda s, t: -0.02)
    s = SystemState.from_q(0.05, 0.2, -0.1, 0.01, 0.1, -0.05)
    ay = accel_y(s, identical_params, FULL, esc, t=0.3)
    aq = accel_q(s, identical_params, FULL, esc, t=0.3)
    ref = np.array([aq[0], aq[1] + aq[2], aq[1] - aq[2]])
    assert np.allclose(ay, ref, rtol=1e-11, atol=1e-13)
    # a nonzero drive breaks the equilibrium at the origin
    rest = SystemState.from_q(0, 0, 0)
    assert np.max(np.abs(accel_q(rest, identical_params, FULL, esc))) > 0


def test_finite_time_blowup_raises_stiffness_error(identical_params):
    from coupled_pendula import EscapementSpec, StiffnessError
    esc = EscapementSpec(f1=lambda s, t: 1.0 / (1.0 - t) ** 2)
    with pytest.raises(StiffnessError) as exc:
        integrate(SystemState.from_y(0, 0, 0), identical_params, FULL,
                  t_end=2.0, samples=101, escapement=esc)
    assert 0.0 < exc.value.t_reached <= 1.05


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_infinite_drive_raises_stiffness_error(identical_params):
    # the state blows up to inf on the first trial step (scipy's inf * 0
    # warns); the plain-float right-hand side must stall the solver, not
    # leak math's ValueError
    from coupled_pendula import EscapementSpec, StiffnessError
    esc = EscapementSpec(f1=lambda s, t: float("inf"))
    with pytest.raises(StiffnessError) as exc:
        integrate(SystemState.from_y(0.01, 0.02, 0.015), identical_params, FULL,
                  t_end=5.0, samples=11, escapement=esc)
    assert exc.value.t_reached == 0.0
