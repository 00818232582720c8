import dataclasses
import math

import numpy as np
import pytest

from coupled_pendula import (
    DampingModel,
    EKInapplicableError,
    ParamError,
    PhysicalParams,
    PolyCoeffs,
    char_poly_general,
    char_poly_identical,
    ek_ratios,
    enestrom_kakeya,
    fundamental_frequencies,
    gershgorin,
    linear_system,
    params_from_dimensionless,
    poly_roots,
    reduce_params,
    routh_hurwitz,
    spectrum_report,
)
from coupled_pendula.dynamics import _accel_y_arrays
from coupled_pendula.spectral import (
    ek_ratios_dimensionless,
    quartic_from_dimensionless,
    zone_from_ratios,
)

from conftest import draw_params
from oracles import (
    aberth_roots,
    central_difference_jacobian,
    np_roots_polished,
    routh_first_column,
)

FULL = DampingModel.FULL_VELOCITY
ROT = DampingModel.ROTATIONAL_ONLY


# ---------------------------------------------------------------------------
# linear system
# ---------------------------------------------------------------------------

def test_identical_pendula_disentangle_delta(identical_params):
    J = linear_system(identical_params)
    # the delta-velocity row depends only on (delta, v)
    row = J[5].copy()
    row[2] = row[5] = 0.0
    assert np.max(np.abs(row)) == 0.0
    # and no other row feeds on delta or v
    assert np.max(np.abs(J[3:5][:, [2, 5]])) == 0.0


def test_frictionless_eigenvalues_match_cubic(rng):
    for _ in range(50):
        p = draw_params(rng, damped=False)
        J = linear_system(p)
        eig = np.linalg.eigvals(J)
        assert np.max(np.abs(eig.real)) <= 1e-8 * np.max(np.abs(eig))
        got = np.sort(eig.imag[eig.imag > 0] ** 2)
        assert np.allclose(got, fundamental_frequencies(p).lambdas, rtol=1e-8)


def test_jacobian_matches_rhs_derivative(rng):
    for model in (FULL, ROT):
        p = draw_params(rng)
        J = linear_system(p, model)

        def rhs(v):
            xdd, sdd, ddd = _accel_y_arrays(v[0], v[1], v[2], v[3], v[4], v[5], p, model)
            return np.array([v[3], v[4], v[5], xdd, sdd, ddd])

        num = central_difference_jacobian(rhs, np.zeros(6), step=1e-6)
        scale = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(num - J)) <= 1e-8 * scale * 10


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def det_oracle_coeffs(p: PhysicalParams, model=FULL) -> np.ndarray:
    """Interpolate det(lam I - J) * (1-2mu) at 7 nodes."""
    J = linear_system(p, model)
    mu = (p.m1 + p.m2) / (2 * p.m)
    pts = np.linspace(-3.0, 3.0, 7)
    vals = [np.linalg.det(t * np.eye(6) - J) * (1 - 2 * mu) for t in pts]
    return np.polyfit(pts, vals, 6)[::-1]


def test_frictionless_poly_is_even(rng):
    p = draw_params(rng, damped=False)
    c = char_poly_general(p).coeffs
    assert np.max(np.abs(c[1::2])) == 0.0


def test_constant_term(asymmetric_params):
    p = asymmetric_params
    c = char_poly_general(p).coeffs
    assert c[0] == pytest.approx(p.g**2 / (p.l1 * p.l2) * p.k / p.m, rel=1e-14)


@pytest.mark.parametrize("model", [FULL, ROT])
def test_char_poly_matches_determinant(model, rng):
    for _ in range(100):
        p = draw_params(rng)
        got = char_poly_general(p, model).coeffs
        ref = det_oracle_coeffs(p, model)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30)) <= 1e-9


def test_factorization_matches_general(rng):
    for _ in range(200):
        p = draw_params(rng, identical=True)
        quad, quart = char_poly_identical(p)
        prod = np.polymul(quart.coeffs[::-1], quad.coeffs[::-1])[::-1]
        ref = char_poly_general(p).coeffs
        assert np.max(np.abs(prod - ref) / np.abs(ref)) <= 1e-12


def test_factorization_rejects_asymmetric(asymmetric_params):
    with pytest.raises(ParamError):
        char_poly_identical(asymmetric_params)


def test_quadratic_factor_roots():
    # underdamped: conjugate pair with modulus omega; overdamped: two real
    p = params_from_dimensionless(eta=0.5, X=0.3, Y=1.0, mu=0.25, omega=2.0)
    quad, _ = char_poly_identical(p)
    r = poly_roots(quad)
    assert np.allclose(np.abs(r), 2.0, rtol=1e-12)
    assert np.allclose(r.real, -0.5 * 0.5 * 2.0, rtol=1e-12)
    p = params_from_dimensionless(eta=3.0, X=0.3, Y=1.0, mu=0.25, omega=2.0)
    quad, _ = char_poly_identical(p)
    r = poly_roots(quad)
    expected = sorted((-(3 + math.sqrt(5)) , -(3 - math.sqrt(5))))
    assert np.allclose(sorted(r.real), np.array(expected), rtol=1e-12)
    assert np.max(np.abs(r.imag)) == 0.0


def test_quartic_example_coefficients():
    p = params_from_dimensionless(eta=1.0, X=1.0, Y=1.0, mu=0.25, omega=1.0)
    _, quart = char_poly_identical(p)
    assert np.allclose(quart.coeffs, [1.0, 2.5, 3.0, 1.5, 0.5], rtol=1e-12)
    assert routh_hurwitz_stable_quartic(quart)


def routh_hurwitz_stable_quartic(quart):
    return bool(np.all(poly_roots(quart).real < 0))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_double_root():
    r = poly_roots(PolyCoeffs([1.0, 2.0, 1.0]))
    assert np.allclose(sorted(r.real), [-1, -1], atol=1e-7)
    assert np.max(np.abs(r.imag)) <= 1e-7


def test_unit_circle_roots():
    r = np.sort_complex(poly_roots(PolyCoeffs([1.0, 1.0, 1.0, 1.0])))
    assert np.allclose(r, np.sort_complex(np.array([-1, -1j, 1j])), atol=1e-12)


def test_roots_against_aberth_oracle(rng):
    for _ in range(50):
        p = draw_params(rng)
        poly = char_poly_general(p)
        got = poly_roots(poly)
        ref = aberth_roots(poly.coeffs)
        scale = np.max(np.abs(ref))
        # set distance: robust against ordering of conjugate pairs
        dist = np.abs(got[:, None] - ref[None, :])
        assert np.max(np.min(dist, axis=1)) <= 1e-9 * scale
        assert np.max(np.min(dist, axis=0)) <= 1e-9 * scale


def _assert_batch_matches_one_at_a_time(asc):
    asc = np.asarray(asc, dtype=float)
    batch = poly_roots(asc)
    assert batch.shape == (len(asc), asc.shape[1] - 1)
    for row, got in zip(asc, batch):
        ref = np_roots_polished(row)
        single = poly_roots(PolyCoeffs(row))
        assert np.array_equal(got, ref)
        assert np.array_equal(single, ref) and single.dtype == ref.dtype


def test_batched_roots_bit_identical_sextics(rng):
    _assert_batch_matches_one_at_a_time(
        [char_poly_general(draw_params(rng)).coeffs for _ in range(500)])


def test_batched_roots_bit_identical_quartics(rng):
    eta = rng.uniform(0.05, 3.0, 500)
    X, Y = 10 ** rng.uniform(-2, 2, (2, 500))
    mu = rng.uniform(0.01, 0.49, 500)
    _assert_batch_matches_one_at_a_time(
        [quartic_from_dimensionless(*v).coeffs for v in zip(eta, X, Y, mu)])


def test_batched_roots_bit_identical_real_roots(rng):
    # all-real spectra: np.roots returns a real array, so these rows take
    # the real-arithmetic polish and a single call returns float roots
    roots = -10 ** rng.uniform(-1, 1, (300, 6))
    _assert_batch_matches_one_at_a_time([np.poly(r)[::-1] for r in roots])


def test_batched_roots_bit_identical_quadratics():
    quads = [char_poly_identical(params_from_dimensionless(
        eta=eta, X=0.3, Y=1.0, mu=0.25, omega=2.0))[0].coeffs for eta in (0.5, 3.0)]
    # double root, plus zero constant terms, which np.roots strips and
    # returns as roots at the origin
    _assert_batch_matches_one_at_a_time(quads + [[1.0, 2.0, 1.0], [0.0, 1.0, 1.0],
                                                 [0.0, 0.0, 1.0]])


def test_batched_roots_reject_zero_leading_coefficient():
    with pytest.raises(ValueError):
        poly_roots(np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 0.0]]))


def test_root_residuals(rng):
    for _ in range(100):
        p = draw_params(rng)
        poly = char_poly_general(p)
        r = poly_roots(poly)
        res = np.abs(poly(r))
        bound = 1e-10 * np.max(np.abs(poly.coeffs)) * np.maximum(1.0, np.abs(r)) ** 6
        assert np.all(res <= bound)


# ---------------------------------------------------------------------------
# Routh-Hurwitz
# ---------------------------------------------------------------------------

def test_rh_all_roots_at_minus_one():
    coeffs = np.array([1.0, 6, 15, 20, 15, 6, 1])  # (lam+1)^6
    rep = routh_hurwitz(PolyCoeffs(coeffs))
    assert rep.stable and not rep.degenerate
    assert np.all(rep.chain > 0)


def test_rh_stable_for_valid_params(rng):
    for _ in range(500):
        p = draw_params(rng)
        rep = routh_hurwitz(char_poly_general(p))
        assert rep.stable
        assert np.all(rep.chain > 0)


def test_rh_detects_sign_flip(asymmetric_params):
    c = char_poly_general(asymmetric_params).coeffs.copy()
    c[1] = -c[1]
    rep = routh_hurwitz(PolyCoeffs(c))
    assert not rep.stable
    assert np.any(poly_roots(PolyCoeffs(c)).real >= 0)


def test_rh_matches_generic_routh_table(rng):
    for _ in range(500):
        roots = rng.uniform(-2, 1.5, 6).astype(complex)
        re, im = rng.uniform(-1.5, 1.0), rng.uniform(0.1, 2.0)
        roots[:2] = (re + 1j * im, re - 1j * im)
        asc = np.real(np.poly(roots))[::-1] * rng.uniform(0.3, 2.0)
        rep = routh_hurwitz(PolyCoeffs(asc))
        if rep.degenerate:
            continue
        ref = routh_first_column(asc)
        assert bool(np.all(ref > 0)) == rep.stable
        stable_roots = bool(np.all(np.real(np.roots(asc[::-1])) < 0))
        assert rep.stable == stable_roots


def test_rh_degenerate_pivot_falls_back_to_roots():
    # b1 = a4 a5 - a3 a6 = 0 by construction
    asc = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0])
    rep = routh_hurwitz(PolyCoeffs(asc))
    assert rep.degenerate
    assert rep.stable == bool(np.all(poly_roots(PolyCoeffs(asc)).real < 0))


def test_rh_requires_degree_six():
    with pytest.raises(ValueError):
        routh_hurwitz(PolyCoeffs([1.0, 2.0, 1.0]))


# ---------------------------------------------------------------------------
# Enestrom-Kakeya and ratios
# ---------------------------------------------------------------------------

def test_geometric_polynomial_on_unit_circle():
    poly = PolyCoeffs(np.ones(6))
    rho_m, rho_M = enestrom_kakeya(poly)
    assert rho_m == rho_M == 1.0
    assert np.allclose(np.abs(poly_roots(poly)), 1.0, rtol=1e-10)


def test_ek_requires_positive_coefficients():
    with pytest.raises(EKInapplicableError):
        enestrom_kakeya(PolyCoeffs([1.0, 0.0, 1.0]))


def test_quartic_annulus_from_couples():
    p = params_from_dimensionless(eta=1.0, X=1.0, Y=1.0, mu=0.25, omega=2.0)
    rp = reduce_params(p)
    r = ek_ratios(rp)
    assert np.allclose(r, np.array([0.4, 5 / 6, 2.0, 3.0]) * 2.0, rtol=1e-12)
    _, quart = char_poly_identical(p)
    rho_m, rho_M = enestrom_kakeya(quart)
    assert rho_m == pytest.approx(min(r[0], r[1]), rel=1e-12)
    assert rho_M == pytest.approx(max(r[2], r[3]), rel=1e-12)
    mods = np.abs(poly_roots(quart))
    assert np.all(mods >= rho_m * (1 - 1e-9)) and np.all(mods <= rho_M * (1 + 1e-9))


def test_ratio_couple_ordering(rng):
    eta = rng.uniform(0.05, 3.0, 100_000)
    X = 10 ** rng.uniform(-2, 2, 100_000)
    Y = 10 ** rng.uniform(-2, 2, 100_000)
    mu = rng.uniform(0.01, 0.49, 100_000)
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    assert np.all(r[:, 0] <= r[:, 2] * (1 + 1e-12))
    assert np.all(r[:, 1] <= r[:, 3] * (1 + 1e-12))


def test_ratios_match_quartic_coefficients(rng):
    for _ in range(200):
        p = draw_params(rng, identical=True)
        rp = reduce_params(p)
        r = ek_ratios(rp)
        _, quart = char_poly_identical(p)
        ref = quart.coeffs[:-1] / quart.coeffs[1:]
        assert np.max(np.abs(r - ref) / ref) <= 1e-14


def test_ratio_x_asymptote():
    r_small = ek_ratios_dimensionless(0.5, 1.0, 1.0, 0.25)
    r_big = ek_ratios_dimensionless(0.5, 1e9, 1.0, 0.25)
    assert r_big[3] > 1e8 > r_small[3]


def test_ek_containment_random(rng):
    for _ in range(300):
        p = draw_params(rng)
        poly = char_poly_general(p)
        rho_m, rho_M = enestrom_kakeya(poly)
        mods = np.abs(poly_roots(poly))
        assert np.all(mods >= rho_m * (1 - 1e-9))
        assert np.all(mods <= rho_M * (1 + 1e-9))


def test_beta_to_zero_continuity(rng):
    p = draw_params(rng)
    ref = np.sort(np.sqrt(fundamental_frequencies(p).lambdas))
    errs = []
    for j in range(10):
        scale = 10.0 ** (-j)
        pj = dataclasses.replace(p, beta0=p.beta0 * scale, beta1=p.beta1 * scale,
                                 beta2=p.beta2 * scale)
        roots = poly_roots(char_poly_general(pj))
        got = np.sort(roots.imag[roots.imag > 0])
        errs.append(np.max(np.abs(got - ref) / ref))
    assert errs[-1] <= 1e-6
    assert errs[-1] <= errs[0]


# ---------------------------------------------------------------------------
# Gershgorin
# ---------------------------------------------------------------------------

def test_eigenvalues_inside_disc_union(rng):
    for _ in range(50):
        p = draw_params(rng)
        J = linear_system(p)
        discs = gershgorin(J)
        for lam in np.linalg.eigvals(J):
            assert any(abs(lam - d.center) <= d.radius + 1e-12 for d in discs)


def test_disc_union_contains_origin(rng):
    for _ in range(20):
        discs = gershgorin(linear_system(draw_params(rng)))
        assert any(abs(d.center) <= d.radius for d in discs)


def test_diagonal_matrix_gives_point_discs():
    discs = gershgorin(np.diag([1.0, -2.0, 3.5]))
    assert [d.radius for d in discs] == [0.0, 0.0, 0.0]
    assert [d.center for d in discs] == [1.0, -2.0, 3.5]


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

def test_report_identical_has_factors_and_zone(identical_params):
    rep = spectrum_report(identical_params)
    assert rep.stable and rep.ek_applicable
    assert rep.zone in ("Z1", "Z2", "Z3", "Z4")
    assert rep.quadratic is not None and rep.quartic is not None
    assert rep.zone == zone_from_ratios(rep.ratios)
    d = rep.to_dict()
    assert len(d["rh_chain"]) == 7 and len(d["coeffs"]) == 7
    assert len(d["gershgorin"]) == 6


def test_report_asymmetric_has_no_zone(asymmetric_params):
    rep = spectrum_report(asymmetric_params)
    assert rep.stable
    assert rep.zone is None and rep.ratios is None
