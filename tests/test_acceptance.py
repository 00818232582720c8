"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line on success (visible with -s or -rP);
a failed assertion is the FAIL line.  Every expected value is either an
exact closed form checked independently or comes from a stated oracle.
Criteria 01, 03, 04 and 09 run the ``verify`` check functions at larger
sizes and assert their ``worst`` metric; ``test_fault_injection_caught``
shows that each of those checks fails on a planted fault.
"""

import dataclasses
import time

import numpy as np
import pytest

from coupled_pendula import (
    DampingModel,
    PhysicalParams,
    SystemState,
    char_poly_general,
    closed_form,
    enestrom_kakeya,
    fundamental_frequencies,
    integrate,
    linear_system,
    params_from_dimensionless,
    poly_roots,
    reduce_params,
    routh_hurwitz,
)
from coupled_pendula.linear_analysis import frequency_cubic
from coupled_pendula.regions import _conic_values
from coupled_pendula.spectral import ek_ratios_dimensionless, zone_from_ratios
from coupled_pendula.verification import (
    DECAY_PANEL,
    check_decay_panel,
    check_ek_containment,
    check_factorization,
    check_formulation_equivalence,
    random_params,
    random_params_batch,
)

from oracles import param_rows, propagate_linear

FULL = DampingModel.FULL_VELOCITY
SEED = 987654321


def report(num: int, name: str, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}")


def test_acceptance_01_formulation_equivalence():
    t0 = time.monotonic()
    res = check_formulation_equivalence(np.random.default_rng(SEED), 10_000)
    elapsed = time.monotonic() - t0
    assert res.worst <= 1e-9, res.detail
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(1, "formulation equivalence", f"(10^4 states, {res.detail}, {elapsed:.2f}s)")


def test_acceptance_02_routh_hurwitz_stability():
    rows = random_params_batch(np.random.default_rng(SEED + 1), 10_000)
    coeffs = char_poly_general(rows)
    rep = routh_hurwitz(coeffs)
    bad = np.flatnonzero(rep.degenerate | ~rep.stable)
    assert bad.size == 0, f"chain not positive for {PhysicalParams(*rows[bad[0]])}"
    roots = poly_roots(coeffs)
    _, rho_M = enestrom_kakeya(coeffs)
    worst_re = float(np.max(np.max(roots.real, axis=1) / rho_M))
    bad = np.flatnonzero(~np.all(roots.real < -1e-12 * rho_M[:, None], axis=1))
    assert bad.size == 0, f"root too close to axis for {PhysicalParams(*rows[bad[0]])}"
    report(2, "Routh-Hurwitz stability",
           f"(10^4 draws, max Re/rho_M {worst_re:.2e})")


def test_acceptance_03_ek_containment():
    # the same 10^4 draws as acceptance 02
    res = check_ek_containment(np.random.default_rng(SEED + 1), 10_000)
    assert res.worst <= 0.0, res.detail
    report(3, "Enestrom-Kakeya containment", f"(10^4 draws, {res.detail})")


def test_acceptance_04_factorization():
    res = check_factorization(np.random.default_rng(SEED + 2), 1000)
    assert res.worst <= 1e-12, res.detail
    report(4, "sextic = quadratic x quartic", f"(10^3 draws, {res.detail})")


def test_acceptance_05_frequency_ordering_and_limits():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10_000):
        p = random_params(rng, damped=False, identical=True)
        ff = fundamental_frequencies(p)
        assert ff.omega1_sq < ff.omega_sq < ff.omega2_sq
    # limits at mu -> 0+ (omega = 1): omega1 -> omega, omega2 -> sqrt(Y) omega for Y >= 1
    for Y, l1, l2 in ((2.0, 1.0, 2.0), (4.0, 1.0, 4.0), (0.25, 0.5, 1.0)):
        p = params_from_dimensionless(eta=0.0, X=0.0, Y=Y, mu=1e-8, omega=1.0)
        ff = fundamental_frequencies(p)
        lo, hi = sorted((1.0, Y))
        assert np.sqrt(ff.omega1_sq) == pytest.approx(np.sqrt(lo), rel=1e-3)
        assert np.sqrt(ff.omega2_sq) == pytest.approx(np.sqrt(hi), rel=1e-3)
    report(5, "frequency ordering and small-mu limits", "(10^4 draws)")


def test_acceptance_06_closed_form_vs_numerical():
    t0 = time.monotonic()
    p = params_from_dimensionless(eta=0.0, X=0.0, Y=1.3, mu=0.08, omega=np.pi)
    amp = 1e-2  # rad
    y0 = SystemState.from_y(0.0, amp, 0.6 * amp, 0.0, 0.0, 0.0)
    sol = closed_form(p, y0)
    tb = 2 * np.pi / sol.mode_freqs[0]  # beam period (slowest mode)
    times = np.linspace(0.0, 20 * tb, 1500)
    ref = np.stack([sol.evaluate(t) for t in times])

    lin = propagate_linear(linear_system(p, FULL), y0.as_vector(), times)
    scale = np.max(np.abs(ref), axis=0)
    err_lin = np.max(np.abs(lin - ref) / scale)
    assert err_lin <= 1e-8, f"linear integration deviates {err_lin:.3e}"

    traj = integrate(y0, p, FULL, float(times[-1]), samples=len(times))
    err_nl = np.max(np.abs(traj.states - ref) / scale)
    assert err_nl <= 1e-3, f"nonlinear deviates {err_nl:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(6, "closed form vs numerical",
           f"(linear dev {err_lin:.2e}, nonlinear dev {err_nl:.2e}, {elapsed:.1f}s)")


def test_acceptance_07_no_inphase_counterexamples():
    rng = np.random.default_rng(SEED + 4)
    n = 100_000
    eta = rng.uniform(0.0, 1.0, n)
    X = 10 ** rng.uniform(-3, 3, n)
    Y = 10 ** rng.uniform(-3, 3, n)
    mu = rng.uniform(0.001, 0.499, n)
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    rho_M = np.maximum(r[:, 2], r[:, 3])
    violations = int(np.sum(0.5 * eta > rho_M))
    assert violations == 0
    report(7, "no in-phase facilitation", f"(10^5 draws, 0 counterexamples)")


def test_acceptance_08_conic_ratio_consistency():
    rng = np.random.default_rng(SEED + 5)
    n = 100_000
    eta = rng.uniform(0.05, 3.0, n)
    X = 10 ** rng.uniform(-2, 2, n)
    Y = 10 ** rng.uniform(-2, 2, n)
    mu = rng.uniform(0.01, 0.49, n)
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    comparisons = np.stack([r[:, 0] < r[:, 1], r[:, 0] < r[:, 3],
                            r[:, 1] < r[:, 2], r[:, 2] < r[:, 3]], axis=-1)
    vals = np.stack(_conic_values(X, Y, eta, mu), axis=-1)
    band = np.abs(vals) <= 1e-12 * (1 + X**2 + Y**2)[:, None]
    mismatches = int((((vals > 0) != comparisons) & ~band).sum())
    assert mismatches == 0
    report(8, "conic/ratio consistency", "(10^5 points, 0 mismatches)")


def test_acceptance_09_antiphase_decay_panel():
    assert len(DECAY_PANEL) == 20
    assert {e for e, *_ in DECAY_PANEL} == {0.25, 0.5, 1.0}
    zones = {zone_from_ratios(ek_ratios_dimensionless(eta, X, Y, mu))
             for eta, X, Y, mu, _ in DECAY_PANEL}
    assert zones == {"Z1", "Z2", "Z3", "Z4"}
    t0 = time.monotonic()
    res = check_decay_panel(DECAY_PANEL)
    elapsed = time.monotonic() - t0
    assert res.worst == 0, res.detail
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    report(9, "antiphase decay ordering", f"({res.detail}, {elapsed:.1f}s)")


def test_acceptance_10_gamma_resolution():
    # frictionless sextic coefficients == frequency-cubic coefficients,
    # exactly, under the stiffness-ratio reading of the printed parameter
    rng = np.random.default_rng(SEED + 6)
    for _ in range(10):
        p = dataclasses.replace(random_params(rng), beta0=0.0, beta1=0.0, beta2=0.0)
        [a] = char_poly_general(param_rows(p))
        c = frequency_cubic(reduce_params(p))
        pairs = ((a[6], c[3]), (a[4], -c[2]), (a[2], c[1]), (a[0], -c[0]))
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12)
        assert np.max(np.abs(a[1::2])) == 0.0
    report(10, "frictionless limit matches frequency cubic", "(10 draws, 1e-12)")
