import dataclasses
import math

import numpy as np
import pytest

from coupled_pendula import (
    DampingModel,
    EKInapplicableError,
    ParamError,
    PhysicalParams,
    char_poly_general,
    char_poly_identical,
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
from coupled_pendula.dynamics import _accel_y_arrays, _y_constants
from coupled_pendula.spectral import _quartic, ek_ratios_dimensionless, zone_from_ratios
from coupled_pendula.verification import random_params, random_params_batch

from oracles import (
    aberth_roots,
    central_difference_jacobian,
    np_roots_polished,
    param_rows,
    quartic,
    routh_first_column,
    scalar_routh_chain,
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
        p = random_params(rng, damped=False)
        J = linear_system(p)
        eig = np.linalg.eigvals(J)
        assert np.max(np.abs(eig.real)) <= 1e-8 * np.max(np.abs(eig))
        got = np.sort(eig.imag[eig.imag > 0] ** 2)
        assert np.allclose(got, fundamental_frequencies(p).lambdas, rtol=1e-8)


def test_jacobian_matches_rhs_derivative(rng):
    for model in (FULL, ROT):
        p = random_params(rng)
        J = linear_system(p, model)

        def rhs(v):
            xdd, sdd, ddd = _accel_y_arrays(v[0], v[1], v[2], v[3], v[4], v[5],
                                            _y_constants(p, model))
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
    c = char_poly_general(random_params_batch(rng, 1, damped=False))[0]
    assert np.max(np.abs(c[1::2])) == 0.0


def test_constant_term(asymmetric_params):
    p = asymmetric_params
    c = char_poly_general(param_rows(p))[0]
    assert c[0] == pytest.approx(p.g**2 / (p.l1 * p.l2) * p.k / p.m, rel=1e-14)


@pytest.mark.parametrize("model", [FULL, ROT])
def test_char_poly_matches_determinant(model, rng):
    rows = random_params_batch(rng, 100)
    coeffs = char_poly_general(rows, model)
    assert coeffs.shape == (100, 7)
    for row, got in zip(rows, coeffs):
        ref = det_oracle_coeffs(PhysicalParams(*row), model)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30)) <= 1e-9


@pytest.mark.parametrize("col, value, field", [(1, 0.0, "m1"), (4, 1.7, "m2"),
                                               (7, 0.9, "m2")])
def test_batched_identical_factors_reject_bad_rows(rng, col, value, field):
    # a massless pendulum, or one row whose twin lengths or dampings differ
    rows = random_params_batch(rng, 3, identical=True)
    rows[1, col] = value
    with pytest.raises(ParamError, match=field):
        char_poly_identical(rows)


def test_batched_char_poly_rejects_massless_pendulum(rng):
    rows = random_params_batch(rng, 3)
    rows[1, 2] = 0.0
    with pytest.raises(ParamError, match="m2"):
        char_poly_general(rows)


def test_factorization_rejects_asymmetric(asymmetric_params):
    with pytest.raises(ParamError):
        char_poly_identical(param_rows(asymmetric_params))


def test_quadratic_factor_roots():
    # underdamped: conjugate pair with modulus omega; overdamped: two real
    quad, _ = char_poly_identical(param_rows(*(params_from_dimensionless(
        eta=eta, X=0.3, Y=1.0, mu=0.25, omega=2.0) for eta in (0.5, 3.0))))
    under, over = poly_roots(quad)
    assert np.allclose(np.abs(under), 2.0, rtol=1e-12)
    assert np.allclose(under.real, -0.5 * 0.5 * 2.0, rtol=1e-12)
    expected = sorted((-(3 + math.sqrt(5)) , -(3 - math.sqrt(5))))
    assert np.allclose(sorted(over.real), np.array(expected), rtol=1e-12)
    assert np.max(np.abs(over.imag)) == 0.0


def test_quartic_example_coefficients():
    p = params_from_dimensionless(eta=1.0, X=1.0, Y=1.0, mu=0.25, omega=1.0)
    _, quart = char_poly_identical(param_rows(p))
    assert np.allclose(quart[0], [1.0, 2.5, 3.0, 1.5, 0.5], rtol=1e-12)
    assert np.all(poly_roots(quart).real < 0)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_double_root():
    [r] = poly_roots([[1.0, 2.0, 1.0]])
    assert np.allclose(sorted(r.real), [-1, -1], atol=1e-7)
    assert np.max(np.abs(r.imag)) <= 1e-7


def test_unit_circle_roots():
    r = np.sort_complex(poly_roots([[1.0, 1.0, 1.0, 1.0]])[0])
    assert np.allclose(r, np.sort_complex(np.array([-1, -1j, 1j])), atol=1e-12)


def test_roots_against_aberth_oracle(rng):
    coeffs = char_poly_general(random_params_batch(rng, 50))
    for asc, got in zip(coeffs, poly_roots(coeffs)):
        ref = aberth_roots(asc)
        scale = np.max(np.abs(ref))
        # set distance: robust against ordering of conjugate pairs
        dist = np.abs(got[:, None] - ref[None, :])
        assert np.max(np.min(dist, axis=1)) <= 1e-9 * scale
        assert np.max(np.min(dist, axis=0)) <= 1e-9 * scale


def _assert_rows_match_np_roots(asc):
    asc = np.asarray(asc, dtype=float)
    batch = poly_roots(asc)
    assert batch.shape == (len(asc), asc.shape[1] - 1)
    for row, got in zip(asc, batch):
        assert np.array_equal(got, np_roots_polished(row))


def test_batched_roots_bit_identical_sextics(rng):
    _assert_rows_match_np_roots(char_poly_general(random_params_batch(rng, 500)))


def test_batched_roots_bit_identical_quartics(rng):
    eta = rng.uniform(0.05, 3.0, 500)
    X, Y = 10 ** rng.uniform(-2, 2, (2, 500))
    mu = rng.uniform(0.01, 0.49, 500)
    _assert_rows_match_np_roots(quartic(X, Y, eta, mu))


def test_batched_roots_bit_identical_real_roots(rng):
    # all-real spectra: np.roots returns a real array, so these rows take
    # the real-arithmetic polish
    roots = -10 ** rng.uniform(-1, 1, (300, 6))
    _assert_rows_match_np_roots([np.poly(r)[::-1] for r in roots])


def test_batched_roots_bit_identical_quadratics():
    quads, _ = char_poly_identical(param_rows(*(params_from_dimensionless(
        eta=eta, X=0.3, Y=1.0, mu=0.25, omega=2.0) for eta in (0.5, 3.0))))
    # double root, plus zero constant terms, which np.roots strips and
    # returns as roots at the origin
    _assert_rows_match_np_roots([*quads, [1.0, 2.0, 1.0], [0.0, 1.0, 1.0],
                                 [0.0, 0.0, 1.0]])


def test_batched_roots_reject_zero_leading_coefficient():
    with pytest.raises(ValueError):
        poly_roots(np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 0.0]]))


def test_root_residuals(rng):
    coeffs = char_poly_general(random_params_batch(rng, 100))
    for asc, r in zip(coeffs, poly_roots(coeffs)):
        res = np.abs(np.polyval(asc[::-1], r))
        bound = 1e-10 * np.max(np.abs(asc)) * np.maximum(1.0, np.abs(r)) ** 6
        assert np.all(res <= bound)


# ---------------------------------------------------------------------------
# Routh-Hurwitz
# ---------------------------------------------------------------------------

def test_rh_all_roots_at_minus_one():
    coeffs = np.array([[1.0, 6, 15, 20, 15, 6, 1]])  # (lam+1)^6
    rep = routh_hurwitz(coeffs)
    assert rep.stable[0] and not rep.degenerate[0]
    assert np.all(rep.chain > 0)


def test_rh_detects_sign_flip(asymmetric_params):
    c = char_poly_general(param_rows(asymmetric_params))
    c[0, 1] = -c[0, 1]
    assert not routh_hurwitz(c).stable[0]
    assert np.any(poly_roots(c).real >= 0)


def test_rh_matches_generic_routh_table(rng):
    sextics = []
    for _ in range(500):
        roots = rng.uniform(-2, 1.5, 6).astype(complex)
        re, im = rng.uniform(-1.5, 1.0), rng.uniform(0.1, 2.0)
        roots[:2] = (re + 1j * im, re - 1j * im)
        sextics.append(np.real(np.poly(roots))[::-1] * rng.uniform(0.3, 2.0))
    rep = routh_hurwitz(sextics)
    for asc, stable, degenerate in zip(sextics, rep.stable, rep.degenerate):
        if degenerate:
            continue
        ref = routh_first_column(asc)
        assert bool(np.all(ref > 0)) == stable
        stable_roots = bool(np.all(np.real(np.roots(asc[::-1])) < 0))
        assert stable == stable_roots


# Rows whose chain meets a zero pivot: a5 = 0, b1 = a4 a5 - a3 a6 = 0,
# den = a3 b1 - a5 b2 = 0, e1 = 0, and e1 = 2^-44 / 1.5 with b2 < 0, inside
# the pivot tolerance; each leaves NaN from a later entry.
ZERO_PIVOT_ROWS = np.array([
    [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0],
    [1.0, 1.0, 3.0, 1.0, 3.0, 1.0, 1.0],
    [1.5, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0],
    [5.5 + 2.0**-44, 2.0, 1.0, 1.0, 3.0, 1.0, 1.0],
])


def test_rh_degenerate_pivot_falls_back_to_roots():
    rep = routh_hurwitz(ZERO_PIVOT_ROWS)
    assert np.all(rep.degenerate)
    stable_roots = [bool(np.all(np_roots_polished(asc).real < 0)) for asc in ZERO_PIVOT_ROWS]
    assert rep.stable.tolist() == stable_roots


def test_batched_rh_bit_identical(rng):
    sextics = list(char_poly_general(random_params_batch(rng, 300)))
    for _ in range(300):
        roots = rng.uniform(-2, 1.5, 6).astype(complex)
        re, im = rng.uniform(-1.5, 1.0), rng.uniform(0.1, 2.0)
        roots[:2] = (re + 1j * im, re - 1j * im)
        sextics.append(np.real(np.poly(roots))[::-1] * rng.uniform(0.3, 2.0))
    asc = np.vstack([sextics, ZERO_PIVOT_ROWS, -ZERO_PIVOT_ROWS[1:]])
    batch = routh_hurwitz(asc)
    ref_chain, ref_degenerate = zip(*map(scalar_routh_chain, asc))
    assert np.array_equal(batch.chain, ref_chain, equal_nan=True)
    assert np.array_equal(batch.degenerate, ref_degenerate)
    # a degenerate row takes the root-sign verdict, the others the chain's
    ref_stable = [bool(np.all(np_roots_polished(row).real < 0)) if degenerate
                  else bool(np.all(chain > 0))
                  for row, chain, degenerate in zip(asc, ref_chain, ref_degenerate)]
    assert batch.stable.tolist() == ref_stable
    assert 0 < np.count_nonzero(batch.stable) < len(asc)
    # the NaN entries start after the zero pivot, and nowhere else
    nan_from = [int(np.argmax(np.isnan(c))) for c in batch.chain[600:]]
    assert nan_from == [2, 2, 4, 5, 5, 2, 4, 5, 5]
    assert np.all(batch.degenerate[600:]) and not np.any(np.isnan(batch.chain[:600]))


def test_rh_requires_degree_six():
    with pytest.raises(ValueError):
        routh_hurwitz([[1.0, 2.0, 1.0]])


# ---------------------------------------------------------------------------
# Enestrom-Kakeya and ratios
# ---------------------------------------------------------------------------

def test_geometric_polynomial_on_unit_circle():
    poly = np.ones((1, 6))
    rho_m, rho_M = enestrom_kakeya(poly)
    assert rho_m.tolist() == rho_M.tolist() == [1.0]
    assert np.allclose(np.abs(poly_roots(poly)), 1.0, rtol=1e-10)


def test_ek_requires_positive_coefficients():
    with pytest.raises(EKInapplicableError):
        enestrom_kakeya([[1.0, 0.0, 1.0]])


def test_batched_ek_rejects_non_positive_row(rng):
    asc = char_poly_general(random_params_batch(rng, 4))
    asc[2, 3] = 0.0
    with pytest.raises(EKInapplicableError):
        enestrom_kakeya(asc)


def test_quartic_annulus_from_couples():
    p = params_from_dimensionless(eta=1.0, X=1.0, Y=1.0, mu=0.25, omega=2.0)
    rp = reduce_params(p)
    r = ek_ratios_dimensionless(rp.eta, rp.X, rp.Y, rp.mu) * rp.omega
    assert np.allclose(r, np.array([0.4, 5 / 6, 2.0, 3.0]) * 2.0, rtol=1e-12)
    _, quart = char_poly_identical(param_rows(p))
    [rho_m], [rho_M] = enestrom_kakeya(quart)
    assert rho_m == pytest.approx(min(r[0], r[1]), rel=1e-12)
    assert rho_M == pytest.approx(max(r[2], r[3]), rel=1e-12)
    mods = np.abs(poly_roots(quart))
    assert np.all(mods >= rho_m * (1 - 1e-9)) and np.all(mods <= rho_M * (1 + 1e-9))


def test_ratio_couple_ordering(rng):
    # a zone means something, under either damping model, only if
    # a0/a1 <= a2/a3 and a1/a2 <= a3/a4
    eta = rng.uniform(0.05, 3.0, 100_000)
    X = 10 ** rng.uniform(-2, 2, 100_000)
    Y = 10 ** rng.uniform(-2, 2, 100_000)
    mu = rng.uniform(0.01, 0.49, 100_000)
    rotational = np.stack(_quartic(eta, X, Y, mu, ROT), axis=1)
    for r in (ek_ratios_dimensionless(eta, X, Y, mu), rotational[:, :-1] / rotational[:, 1:]):
        assert np.all(r[:, 0] <= r[:, 2] * (1 + 1e-12))
        assert np.all(r[:, 1] <= r[:, 3] * (1 + 1e-12))


def test_ratios_match_quartic_coefficients(rng):
    rows = random_params_batch(rng, 200, identical=True)
    _, quarts = char_poly_identical(rows)
    for row, quart in zip(rows, quarts):
        rp = reduce_params(PhysicalParams(*row))
        r = ek_ratios_dimensionless(rp.eta, rp.X, rp.Y, rp.mu) * rp.omega
        ref = quart[:-1] / quart[1:]
        assert np.max(np.abs(r - ref) / ref) <= 1e-14


def test_ratio_x_asymptote():
    r_small = ek_ratios_dimensionless(0.5, 1.0, 1.0, 0.25)
    r_big = ek_ratios_dimensionless(0.5, 1e9, 1.0, 0.25)
    assert r_big[3] > 1e8 > r_small[3]


def test_beta_to_zero_continuity(rng):
    p = random_params(rng)
    ref = np.sort(np.sqrt(fundamental_frequencies(p).lambdas))
    scaled = param_rows(*(dataclasses.replace(
        p, beta0=p.beta0 * scale, beta1=p.beta1 * scale, beta2=p.beta2 * scale)
        for scale in 10.0 ** -np.arange(10)))
    errs = []
    for roots in poly_roots(char_poly_general(scaled)):
        got = np.sort(roots.imag[roots.imag > 0])
        errs.append(np.max(np.abs(got - ref) / ref))
    assert errs[-1] <= 1e-6
    assert errs[-1] <= errs[0]


# ---------------------------------------------------------------------------
# Gershgorin
# ---------------------------------------------------------------------------

def test_eigenvalues_inside_disc_union(rng):
    for _ in range(50):
        p = random_params(rng)
        J = linear_system(p)
        centers, radii = gershgorin(J)
        for lam in np.linalg.eigvals(J):
            assert np.any(np.abs(lam - centers) <= radii + 1e-12)


def test_disc_union_contains_origin(rng):
    for _ in range(20):
        centers, radii = gershgorin(linear_system(random_params(rng)))
        assert np.any(np.abs(centers) <= radii)


def test_diagonal_matrix_gives_point_discs():
    centers, radii = gershgorin(np.diag([1.0, -2.0, 3.5]))
    assert radii.tolist() == [0.0, 0.0, 0.0]
    assert centers.tolist() == [1.0, -2.0, 3.5]


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [FULL, ROT])
def test_report_identical_has_factors_and_zone(identical_params, model):
    doc = spectrum_report(identical_params, model)
    assert doc["stable"] and doc["rho_m"] is not None
    assert doc["zone"] in ("Z1", "Z2", "Z3", "Z4")
    assert len(doc["factors"]["quadratic"]) == 3 and len(doc["factors"]["quartic"]) == 5
    assert doc["zone"] == zone_from_ratios(doc["ratios"])
    assert len(doc["rh_chain"]) == 7 and len(doc["coeffs"]) == 7
    assert len(doc["gershgorin"]) == 6


@pytest.mark.parametrize("model", [FULL, ROT])
def test_report_reads_omega_ratios_and_zone_off_its_factors(rng, model):
    # one route: every identical-pendula number is computed from the
    # factors the document prints, to the bit
    for row in random_params_batch(rng, 60, identical=True):
        doc = spectrum_report(PhysicalParams(*row.tolist()), model)
        quadratic, quartic = doc["factors"]["quadratic"], doc["factors"]["quartic"]
        assert doc["omega"] == math.sqrt(quadratic[0])
        assert doc["ratios"] == [quartic[j] / quartic[j + 1] for j in range(4)]
        assert doc["zone"] == zone_from_ratios(doc["ratios"])


@pytest.mark.parametrize("field, value", [("beta0", 1.7e308), ("k", 1e308)])
def test_report_overflowing_coefficients_name_the_field(field, value):
    # the sextic's coefficients would overflow: refused at construction with
    # a typed error, with no numpy warning (the suite turns warnings into
    # errors) and no inf answer
    with pytest.raises(ParamError, match=f"^{field}: ") as exc:
        spectrum_report(PhysicalParams(**{**dict(m0=1, m1=1, m2=1, l1=1, l2=1, beta0=1,
                                                 beta1=1, beta2=1, k=1), field: value}))
    assert exc.value.field == field


@pytest.mark.parametrize("overrides, field", [
    ({"k": 1e308}, "k"),  # (l1 + l2)k/(d l1 l2) would overflow
    ({"l1": 1e-200, "l2": 1e-200}, "l1"),  # d·l1·l2 would underflow to 0
])
def test_linear_system_out_of_range_names_the_field(overrides, field):
    with pytest.raises(ParamError, match=f"^{field}: out of range") as exc:
        linear_system(PhysicalParams(**{**dict(m0=1, m1=1, m2=1, l1=1, l2=1, beta0=1,
                                               beta1=1, beta2=1, k=1), **overrides}))
    assert exc.value.field == field


def test_report_newton_overflow_emits_no_warning():
    # a Newton candidate of the root polish overflows and is thrown away;
    # the suite turns warnings into errors, so none may escape
    p = PhysicalParams(m0=1e-12, m1=1e-12, m2=1e-12, l1=1e-12, l2=1e-12, beta0=1e12,
                       beta1=0.0, beta2=1e12, k=1e-12, g=1e-12)
    doc = spectrum_report(p)
    assert doc["stable"] and doc["rho_m"] < 1e-24 < 1e24 < doc["rho_M"]


def test_report_asymmetric_has_no_zone(asymmetric_params):
    doc = spectrum_report(asymmetric_params)
    assert doc["stable"]
    assert doc["zone"] is None and doc["ratios"] is None and doc["factors"] is None
