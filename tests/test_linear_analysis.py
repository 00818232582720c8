import dataclasses
import math

import numpy as np
import pytest

from coupled_pendula import (
    CrossCheckError,
    DampingModel,
    ParamError,
    PhysicalParams,
    SystemState,
    amplitude_profiles,
    closed_form,
    coupling_b,
    delta_closed_form,
    fundamental_frequencies,
    integrate,
    linear_system,
    params_from_dimensionless,
    periodicity_params,
    perturbation_p,
    reduce_params,
)
from coupled_pendula.linear_analysis import frequency_cubic
from coupled_pendula.verification import random_params

from oracles import congruence, linearize_frictionless, propagate_linear

FULL = DampingModel.FULL_VELOCITY


def frictionless(p: PhysicalParams) -> PhysicalParams:
    return dataclasses.replace(p, beta0=0.0, beta1=0.0, beta2=0.0)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_identical_pendula_decouple_delta(identical_params):
    a1, v1 = linearize_frictionless(identical_params)
    assert a1[0, 2] == 0.0 and a1[1, 2] == 0.0
    assert v1[1, 2] == 0.0
    # third row couples only to delta
    assert a1[2, 0] == 0.0 and a1[2, 1] == 0.0


def test_linearize_rejects_massless():
    # a massless pendulum is refused where the parameters are built, so
    # no linearization ever sees one
    with pytest.raises(ParamError, match="^m1:"):
        PhysicalParams(m0=1, m1=0, m2=0, l1=1, l2=1, beta0=0, beta1=0, beta2=0, k=1)


def test_congruence_oracle(rng):
    l_inv = np.array([[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, -0.5]])
    for _ in range(50):
        p = random_params(rng)
        abar = np.array([[p.m, p.m1 * p.l1, p.m2 * p.l2],
                         [p.m1 * p.l1, p.m1 * p.l1**2, 0],
                         [p.m2 * p.l2, 0, p.m2 * p.l2**2]])
        vbar = np.diag([p.k, p.m1 * p.l1 * p.g, p.m2 * p.l2 * p.g])
        a1, v1 = linearize_frictionless(p)
        scale = np.max(np.abs(a1))
        assert np.max(np.abs(a1 - congruence(l_inv, abar))) <= 1e-14 * scale
        assert np.max(np.abs(v1 - congruence(l_inv, vbar))) <= 1e-14 * np.max(np.abs(v1))
        # symmetric positive definite
        assert np.all(np.linalg.eigvalsh(a1) > 0)
        assert np.all(np.linalg.eigvalsh(v1) > 0)


# ---------------------------------------------------------------------------
# fundamental frequencies
# ---------------------------------------------------------------------------

def test_equal_length_pair_closed_form():
    # mu = 0.25, Y = 1: squared pair = 2 omega^2 (1 -+ sqrt(0.5))
    p = params_from_dimensionless(eta=0.0, X=0.0, Y=1.0, mu=0.25, omega=2.0)
    ff = fundamental_frequencies(p)
    ws = ff.omega_sq
    assert ff.omega1_sq == pytest.approx(2 * ws * (1 - math.sqrt(0.5)), rel=1e-12)
    assert ff.omega2_sq == pytest.approx(2 * ws * (1 + math.sqrt(0.5)), rel=1e-12)
    # companion-matrix oracle on the cubic
    roots = np.sort(np.roots(frequency_cubic(reduce_params(p))[::-1]).real)
    assert np.allclose(roots, ff.lambdas, rtol=1e-10)
    assert any(abs(r - ws) <= 1e-10 * ws for r in roots)  # omega^2 is a root


def test_small_mu_limits():
    for Y, lim1, lim2 in ((2.0, 1.0, 2.0), (0.5, 0.5, 1.0)):
        p = params_from_dimensionless(eta=0.0, X=0.0, Y=Y, mu=1e-8, omega=1.0)
        ff = fundamental_frequencies(p)
        assert ff.omega1_sq == pytest.approx(lim1, rel=1e-6)
        assert ff.omega2_sq == pytest.approx(lim2, rel=1e-6)


def test_mu_near_half_limits():
    mu = 0.5 - 1e-9
    Y = 3.0
    p = params_from_dimensionless(eta=0.0, X=0.0, Y=Y, mu=mu, omega=1.0)
    ff = fundamental_frequencies(p)
    assert ff.omega1_sq == pytest.approx(Y / (1 + Y), rel=1e-6)
    assert ff.omega2_sq > 1e6


def test_frequency_ordering_random(rng):
    for _ in range(2000):
        p = random_params(rng, damped=False, identical=True)
        ff = fundamental_frequencies(p)
        assert ff.omega1_sq < ff.omega_sq < ff.omega2_sq
        rp = reduce_params(p)
        assert (1 + rp.Y) ** 2 > 4 * rp.Y * (1 - 2 * rp.mu)


def test_general_lengths_match_generalized_eigenproblem(rng):
    for _ in range(100):
        p = random_params(rng, damped=False)
        a1, v1 = linearize_frictionless(p)
        ref = np.sort(np.linalg.eigvals(np.linalg.solve(a1, v1)).real)
        ff = fundamental_frequencies(p)
        assert np.allclose(ff.lambdas, ref, rtol=1e-8)


@pytest.mark.parametrize("roots, message", [
    ([1 + 1j, 1 - 1j, 2], "complex mode frequencies"),
    ([-1.0, 1.0, 2.0], "non-positive mode frequency"),
])
def test_bad_mode_frequencies_raise_cross_check_error(monkeypatch, asymmetric_params,
                                                     roots, message):
    monkeypatch.setattr(np, "roots", lambda c: np.array(roots))
    with pytest.raises(CrossCheckError, match=message):
        fundamental_frequencies(asymmetric_params)


# ---------------------------------------------------------------------------
# coupling length B
# ---------------------------------------------------------------------------

def test_coupling_value_and_identity():
    p = params_from_dimensionless(eta=0.0, X=0.0, Y=1.0, mu=0.25, omega=math.sqrt(9.81))
    # l = g/omega^2 = 1; B = mu*l/sqrt((1+Y)^2 - 4Y(1-2mu)) = 0.25/sqrt(2)
    assert coupling_b(p) == pytest.approx(0.25 / math.sqrt(2), rel=1e-12)


def test_coupling_vanishes_at_large_y():
    length = 9.81  # omega = 1 -> l = g
    values = [coupling_b(params_from_dimensionless(0.0, 0.0, Y, 0.3, omega=1.0))
              for Y in (1e2, 1e4, 1e6)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.3 * length / 1e5


def test_coupling_maximum_location():
    # interior maximum at Y = 1-4mu for mu < 1/4; decreasing from Y->0 otherwise
    length = 9.81
    mu = 0.2
    ys = np.linspace(1e-6, 2.0, 4001)
    bs = np.array([coupling_b(params_from_dimensionless(0.0, 0.0, Y, mu, omega=1.0))
                   for Y in ys])
    y_star = ys[np.argmax(bs)]
    assert y_star == pytest.approx(1 - 4 * mu, abs=2e-3)
    assert np.max(bs) == pytest.approx((length / 2) * math.sqrt(mu / (2 * (1 - 2 * mu))),
                                       rel=1e-6)
    mu = 0.3
    bs = np.array([coupling_b(params_from_dimensionless(0.0, 0.0, Y, mu, omega=1.0))
                   for Y in ys])
    assert np.all(np.diff(bs) < 0)
    assert bs[0] == pytest.approx(mu * length, rel=1e-4)


def test_coupling_rejects_unequal_lengths(asymmetric_params):
    with pytest.raises(ParamError):
        coupling_b(frictionless(asymmetric_params))


# ---------------------------------------------------------------------------
# closed-form solution
# ---------------------------------------------------------------------------

def closed_form_accel(sol, t):
    w = sol.mode_freqs
    phases = np.array([[sol.phi2, sol.phi1, 0.0],
                       [sol.alpha1, sol.alpha2, sol.alpha],
                       [0.0, 0.0, sol.alpha]])
    amps = np.array([sol.x_amps, sol.sigma_amps, sol.delta_amps])
    arg = np.asarray(t)[..., None, None] * w - phases
    return np.sum(-amps * w**2 * np.cos(arg), axis=-1)


def test_zero_delta_data_stays_in_phase(identical_params):
    p = frictionless(identical_params)
    sol = closed_form(p, SystemState.from_y(0.02, 0.1, 0.0, 0.01, -0.05, 0.0))
    t = np.linspace(0, 30, 500)
    assert np.max(np.abs(sol.evaluate(t)[:, 2])) == 0.0


def test_delta_mode_leaks_into_sigma_iff_masses_differ():
    p_eq = frictionless(params_from_dimensionless(0.0, 0.0, 2.0, 0.3, omega=2.0))
    sol = closed_form(p_eq, SystemState.from_y(0, 0, 0.3, 0, 0, 0.1))
    assert sol.sigma_amps[2] == 0.0
    p_neq = PhysicalParams(m0=1.0, m1=0.5, m2=1.0, l1=1.0, l2=1.0,
                           beta0=0, beta1=0, beta2=0, k=4.0)
    sol = closed_form(p_neq, SystemState.from_y(0, 0, 0.3, 0, 0, 0.1))
    assert sol.sigma_amps[2] != 0.0


def test_antiphase_initial_data_keeps_sigma_zero():
    # sigma(0) = x(0) = xdot(0) = sigmadot(0) = 0 with equal masses
    p = frictionless(params_from_dimensionless(0.0, 0.0, 1.5, 0.2, omega=1.7))
    sol = closed_form(p, SystemState.from_y(0, 0, 0.2, 0, 0, -0.1))
    t = np.linspace(0, 40, 800)
    vals = sol.evaluate(t)
    assert np.max(np.abs(vals[:, 0])) <= 1e-15
    assert np.max(np.abs(vals[:, 1])) <= 1e-15


def test_closed_form_reproduces_initial_data(rng):
    for _ in range(50):
        p = random_params(rng, damped=False, identical=True)
        p = dataclasses.replace(p, m2=p.m2 * rng.uniform(0.5, 1.5))  # masses may differ
        y0 = rng.uniform(-0.3, 0.3, 6)
        sol = closed_form(p, SystemState.from_y(*y0))
        got = sol.evaluate(0.0)
        assert np.max(np.abs(got - y0)) <= 1e-12 * max(1.0, np.max(np.abs(y0)))


def test_closed_form_satisfies_linear_ode(rng):
    for _ in range(20):
        p = random_params(rng, damped=False, identical=True)
        y0 = rng.uniform(-0.2, 0.2, 6)
        sol = closed_form(p, SystemState.from_y(*y0))
        a1, v1 = linearize_frictionless(p)
        t = np.linspace(0, 15, 121)
        pos = sol.evaluate(t)[:, :3]
        acc = closed_form_accel(sol, t)
        resid = acc @ a1.T + pos @ v1.T
        scale = np.max(np.abs(pos @ v1.T))
        assert np.max(np.abs(resid)) <= 1e-9 * max(scale, 1e-12)


def test_closed_form_rejects_damped(identical_params):
    with pytest.raises(ParamError):
        closed_form(identical_params, SystemState.from_y(0, 0, 0))


# ---------------------------------------------------------------------------
# delta closed form
# ---------------------------------------------------------------------------

def test_delta_undamped_is_harmonic():
    p = params_from_dimensionless(eta=0.0, X=0.1, Y=1.0, mu=0.25, omega=3.0)
    t = np.linspace(0, 5, 64)
    got = delta_closed_form(p, 0.01, 0.02, t)
    ref = 0.01 * np.cos(3.0 * t) + (0.02 / 3.0) * np.sin(3.0 * t)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_delta_critical_damping():
    om = 2.0
    p = params_from_dimensionless(eta=2.0, X=0.1, Y=1.0, mu=0.25, omega=om)
    t = np.linspace(0, 4, 41)
    d0, dd0 = 0.03, -0.01
    got = delta_closed_form(p, d0, dd0, t)
    ref = np.exp(-om * t) * (d0 + (dd0 + om * d0) * t)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-16)


def test_delta_overdamped_initial_conditions():
    p = params_from_dimensionless(eta=3.0, X=0.1, Y=1.0, mu=0.25, omega=1.5)
    h = 1e-7
    d0, dd0 = 0.02, 0.04
    v0 = (delta_closed_form(p, d0, dd0, h) - delta_closed_form(p, d0, dd0, -h)) / (2 * h)
    assert delta_closed_form(p, d0, dd0, 0.0) == pytest.approx(d0, rel=1e-14)
    assert v0 == pytest.approx(dd0, rel=1e-6)


def test_delta_matches_nonlinear_integration():
    p = params_from_dimensionless(eta=1.0, X=0.2, Y=1.0, mu=0.25, omega=2.5)
    d0 = 0.01
    traj = integrate(SystemState.from_y(0, 0, d0), p, FULL, 8.0, samples=801)
    ref = delta_closed_form(p, d0, 0.0, traj.times)
    assert np.max(np.abs(traj.states[:, 2] - ref)) <= 1e-6


# ---------------------------------------------------------------------------
# amplitude profiles
# ---------------------------------------------------------------------------

def test_profiles_at_unit_y():
    for mu in (0.1, 0.25, 0.4):
        _, p1, p2 = amplitude_profiles(mu, 1.0, 1.3)
        assert p1 == pytest.approx(0.5, rel=1e-12)
        assert p2 == pytest.approx(0.5, rel=1e-12)


def test_profile_phi_limits():
    length = 0.8
    phi0, _, _ = amplitude_profiles(0.2, 0.0, length)
    assert phi0 == 0.0
    phi_inf, _, _ = amplitude_profiles(0.2, 1e8, length)
    assert phi_inf == pytest.approx(2 / length, rel=1e-3)


def test_profile_psi1_small_y_keeps_its_digits():
    # Ψ⁽¹⁾ ≈ 2μY as Y → 0; ω1² taken as the difference base·(1 − s) loses
    # every digit of it there, the product relation keeps them
    for Y in (1e-12, 1e-20):
        _, p1, _ = amplitude_profiles(0.2, Y, 1.0)
        assert p1 == pytest.approx(2 * 0.2 * Y, rel=1e-9)


def test_profile_monotonicity():
    ys = np.linspace(1e-4, 50, 1000)
    for mu in (0.1, 0.3):
        phi, p1, p2 = amplitude_profiles(mu, ys, 1.0)
        assert np.all(np.diff(p1) > 0)
        assert np.all(np.diff(p2) < 0)
        assert p1[0] < 0.01 and abs(p2[0] - 1.0) < 0.01


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------

def test_periodicity_mu_zero_identity():
    ys = periodicity_params(2, 3, 0.0)
    assert ys == pytest.approx(((2 / 3) ** 2, (3 / 2) ** 2), rel=1e-12)


def test_periodicity_boundary():
    # map Y -> sqrt(Y(1-2mu))/(1+Y) has maximum sqrt(1-2mu)/2 at Y = 1
    mu = 0.3
    # choose q with q/(1+q^2) just above the attainable maximum
    target = math.sqrt(1 - 2 * mu) / 2
    for num, den in ((7, 8), (9, 10)):
        r = num * den / (num**2 + den**2)
        if r > target:
            assert periodicity_params(num, den, mu) == ()


def test_periodicity_invalid_rational():
    with pytest.raises(ValueError):
        periodicity_params(3, 2, 0.1)
    with pytest.raises(ValueError):
        periodicity_params(0, 2, 0.1)


def test_periodic_beam_motion(rng):
    # integrate the frictionless linear system over the common period
    num, den, mu = 1, 2, 0.1
    for Y in periodicity_params(num, den, mu):
        p = frictionless(params_from_dimensionless(0.0, 0.0, Y, mu, omega=1.0))
        ff = fundamental_frequencies(p)
        w1, w2 = math.sqrt(ff.omega1_sq), math.sqrt(ff.omega2_sq)
        assert w1 / w2 == pytest.approx(num / den, rel=1e-10)
        period = 2 * np.pi * den / w2
        y0 = np.array([0.05, 0.1, 0.0, 0.02, -0.03, 0.0])
        out = propagate_linear(linear_system(p, FULL), y0, np.array([0.0, period]))
        assert abs(out[1, 0] - out[0, 0]) <= 1e-6 * max(abs(y0[0]), 1e-3)


# ---------------------------------------------------------------------------
# asymmetry perturbation
# ---------------------------------------------------------------------------

def test_perturbation_vanishes_for_equal_lengths(identical_params):
    vals = perturbation_p(identical_params)
    assert np.max(np.abs(vals)) <= 1e-12


def test_perturbation_reference_closed_form(rng):
    # P(lambda_bar) == (1 - Lambda^2)(1 - 2mu - Y) + 2 Lambda^2 rho
    for _ in range(200):
        p = random_params(rng)
        rp = reduce_params(p)
        expected = (1 - rp.Lambda**2) * (1 - 2 * rp.mu - rp.Y) + 2 * rp.Lambda**2 * rp.rho
        got = perturbation_p(p)[0]
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_perturbation_sign_matches_root_shift(rng):
    # oracle: middle root of the perturbed cubic vs the reference lambda_bar
    checked = 0
    for _ in range(500):
        base = random_params(rng, damped=False)
        p = dataclasses.replace(base, l2=base.l1 * rng.uniform(0.93, 1.07),
                                m2=base.m1 * rng.uniform(0.8, 1.25))
        rp = reduce_params(p)
        p_lb = perturbation_p(p)[0]
        mid = np.sort(np.roots(frequency_cubic(rp)[::-1]).real)[1]
        shift = mid - rp.lambda_bar
        if abs(p_lb) < 1e-10 or abs(shift) < 1e-12 * rp.lambda_bar:
            continue
        checked += 1
        assert np.sign(p_lb) == np.sign(shift)
    assert checked > 300
