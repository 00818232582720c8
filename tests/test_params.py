from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_pendula import (
    ParamError,
    PhysicalParams,
    SystemState,
    derived_constants,
    identical_pendula,
    params_from_dimensionless,
    reduce_params,
)
from coupled_pendula.verification import random_params



# ---------------------------------------------------------------------------
# reduce_params
# ---------------------------------------------------------------------------

def test_mu_simple_ratio():
    p = PhysicalParams(m0=2, m1=1, m2=1, l1=1, l2=1, beta0=0, beta1=0, beta2=0, k=1)
    assert reduce_params(p).mu == 0.25


def test_equal_lengths_give_unit_lambda_zero_rho():
    p = PhysicalParams(m0=1, m1=0.4, m2=2.5, l1=0.8, l2=0.8,
                       beta0=0, beta1=0, beta2=0, k=3)
    rp = reduce_params(p)
    assert rp.Lambda == 1.0
    assert rp.rho == 0.0
    assert not rp.nominal or True  # masses differ, so nominal is set
    assert rp.nominal


def test_rho_exact_rational():
    # exact-arithmetic oracle: rho = (l1-l2)/(l1+l2) * (m1-m2)/(2m)
    m0, m1, m2 = Fraction(1), Fraction(2), Fraction(3)
    l1, l2 = Fraction(1, 2), Fraction(1)
    expected = (l1 - l2) / (l1 + l2) * (m1 - m2) / (2 * (m0 + m1 + m2))
    assert expected == Fraction(1, 36)
    p = PhysicalParams(m0=1, m1=2, m2=3, l1=0.5, l2=1.0,
                       beta0=0, beta1=0, beta2=0, k=1)
    assert reduce_params(p).rho == pytest.approx(1 / 36, rel=1e-15)


def test_reduce_rejects_nonpositive_fields():
    with pytest.raises(ParamError, match="m0"):
        PhysicalParams(m0=0, m1=1, m2=1, l1=1, l2=1, beta0=0, beta1=0, beta2=0, k=1)
    with pytest.raises(ParamError, match="k"):
        PhysicalParams(m0=1, m1=1, m2=1, l1=1, l2=1, beta0=0, beta1=0, beta2=0, k=0)
    p = PhysicalParams(m0=1, m1=0, m2=1, l1=1, l2=1, beta0=0, beta1=0, beta2=0, k=1)
    with pytest.raises(ParamError, match="m1"):
        reduce_params(p)


def test_params_reject_non_finite_fields():
    kw = dict(m0=1, m1=1, m2=1, l1=1, l2=1, beta0=0, beta1=0, beta2=0, k=1, g=9.81)
    for field in kw:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParamError, match=f"^{field}: must be finite"):
                PhysicalParams(**{**kw, field: value})


def test_reduced_invariants_random(rng):
    for _ in range(10_000):
        rp = reduce_params(random_params(rng))
        assert 0.0 < rp.mu < 0.5
        assert rp.Lambda >= 1.0
        assert abs(rp.rho) < 0.5


def test_dimensionless_round_trip(rng):
    for _ in range(200):
        eta, X = rng.uniform(0.05, 1.5, 2)
        Y = rng.uniform(0.1, 10)
        mu = rng.uniform(0.05, 0.45)
        omega = rng.uniform(0.5, 5)
        rp = reduce_params(params_from_dimensionless(eta, X, Y, mu, omega=omega))
        assert rp.mu == pytest.approx(mu, rel=1e-12)
        assert rp.eta == pytest.approx(eta, rel=1e-12)
        assert rp.X == pytest.approx(X, rel=1e-12)
        assert rp.Y == pytest.approx(Y, rel=1e-12)
        assert rp.omega == pytest.approx(omega, rel=1e-12)
        assert not rp.nominal


# ---------------------------------------------------------------------------
# derived_constants
# ---------------------------------------------------------------------------

def test_minus_constants_vanish_for_identical_pendula():
    p = PhysicalParams(m0=1, m1=1, m2=1, l1=1, l2=1, beta0=0, beta1=0.1, beta2=0.1, k=1)
    d = derived_constants(p)
    assert identical_pendula(p)
    for name in ("am_minus", "abeta_minus", "bm_minus", "bbeta_minus",
                 "l_minus", "betam_minus"):
        assert getattr(d, name) == 0.0


def test_degenerate_single_pendulum_bm():
    p = PhysicalParams(m0=1, m1=1, m2=0, l1=2, l2=0.7, beta0=0, beta1=0, beta2=0, k=1)
    d = derived_constants(p)
    assert d.bm_plus == 1.0
    assert d.bm_minus == 1.0


def test_bm_values_exact():
    assert (Fraction(2) * Fraction(1, 2) + Fraction(1)) / 2 == 1
    assert (Fraction(2) * Fraction(1, 2) - Fraction(1)) / 2 == 0
    p = PhysicalParams(m0=1, m1=2, m2=1, l1=0.5, l2=1, beta0=0, beta1=0, beta2=0, k=1)
    d = derived_constants(p)
    assert d.bm_plus == 1.0
    assert d.bm_minus == 0.0


# ---------------------------------------------------------------------------
# coordinate transforms
# ---------------------------------------------------------------------------

def test_symmetric_angles_map_to_pure_sigma():
    s = SystemState.from_q(0.0, 0.3, 0.3)
    y = s.to_y()
    assert y.coords == (0.0, 0.6, 0.0)


def test_antisymmetric_angles_map_to_pure_delta():
    s = SystemState.from_q(0.0, 0.3, -0.3)
    y = s.to_y()
    assert y.coords == (0.0, 0.0, 0.6)


def test_round_trip_specific():
    s = SystemState.from_q(0.3, 0.1, -0.2, 0.05, -0.4, 0.7)
    back = s.to_y().to_q()
    assert np.max(np.abs(back.as_vector() - s.as_vector())) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(vals=st.lists(st.floats(-10, 10, allow_nan=False), min_size=6, max_size=6))
def test_round_trip_property(vals):
    s = SystemState.from_q(*vals)
    back = s.to_y().to_q()
    assert np.allclose(back.as_vector(), s.as_vector(), rtol=0, atol=1e-14 * (1 + np.max(np.abs(vals))))

