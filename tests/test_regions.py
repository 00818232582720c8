import itertools
import math
import os
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coupled_pendula import (
    BranchUnsupportedError,
    DampingModel,
    GridSpec,
    ParamError,
    PhysicalParams,
    QuadrantPoint,
    SystemState,
    antiphase_conditions,
    classify_zone,
    complex_root_bound,
    conic_conditions,
    empirical_decay_rates,
    integrate,
    params_from_dimensionless,
    poly_roots,
    reduce_params,
    region_map,
    semicircle_condition,
)
from coupled_pendula._csvio import BLOCK_ROWS, _EXP_WORDS, _LEAD_WORDS, _MID_WORDS, _e9_words
from coupled_pendula.params import MAX_ETA, MAX_GRID_NODES, MAX_XY, MIN_ETA
from coupled_pendula.regions import _conic_values, _flag_codes, _strict_peaks, _verdicts
from coupled_pendula.spectral import ek_ratios_dimensionless
from coupled_pendula.verification import DECAY_PANEL
from oracles import map_columns, quadrant_oracle, quartic, reference_region_csv

# Relative gap to a verdict's boundary below which a draw is set aside:
# there the kernel's formula and the oracle's definition may round apart.
BAND = 1e-12


def rand_points(rng, n, eta_hi=1.0):
    eta = rng.uniform(0.05, eta_hi, n)
    X = 10 ** rng.uniform(-2, 2, n)
    Y = 10 ** rng.uniform(-2, 2, n)
    mu = rng.uniform(0.01, 0.49, n)
    return eta, X, Y, mu


def kernel_draws(rng, n_ctx, n_pts, eta=(0.05, 1.0), mu=(0.01, 0.49), x=(-2, 2), y=(-2, 2)):
    """The verdict kernel on n_ctx uniform (η, μ) draws, each with n_pts
    (X, Y) draws log-uniform over the decades ``x`` and ``y``.

    Returns the kernel's columns, concatenated (``branch`` None if some
    η > 1), and the (X, Y, η, μ) columns of the draws.
    """
    etas, mus = rng.uniform(*eta, n_ctx), rng.uniform(*mu, n_ctx)
    X = 10 ** rng.uniform(*x, (n_ctx, n_pts))
    Y = 10 ** rng.uniform(*y, (n_ctx, n_pts))
    parts = [_verdicts(*row) for row in zip(X, Y, etas.tolist(), mus.tolist())]
    got = {k: None if any(v[k] is None for v in parts) else np.concatenate([v[k] for v in parts])
           for k in parts[0]}
    return got, (X.ravel(), Y.ravel(), np.repeat(etas, n_pts), np.repeat(mus, n_pts))


def assert_agree(got, want, gap, max_set_aside=10):
    """``got`` equals ``want`` wherever the relative gap to the boundary
    exceeds BAND; only a few draws lie within it."""
    near = gap <= BAND
    assert not np.any((got != want) & ~near)
    assert np.count_nonzero(near) <= max_set_aside


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------

def test_zone_example():
    q = QuadrantPoint(X=1.0, Y=1.0, eta=1.0, mu=0.25)
    assert np.allclose(q.ratios(), [0.4, 5 / 6, 2.0, 3.0], rtol=1e-12)
    assert classify_zone(q) == "Z2"


def test_zone_agrees_with_bruteforce(rng):
    got, cols = kernel_draws(rng, 20, 2500, eta=(0.05, 3.0))
    want, gap = quadrant_oracle(*cols)
    # rho_m is attained by a0/a1 or a1/a2, rho_M by a2/a3 or a3/a4
    r = want["ratios"]
    assert np.all((r[0] == want["rho_m"]) | (r[1] == want["rho_m"]))
    assert np.all((r[2] == want["rho_M"]) | (r[3] == want["rho_M"]))
    assert_agree(got["zone"], want["zone"], gap["zone"])
    for name in ("rho_m", "rho_M"):
        assert np.allclose(got[name], want[name], rtol=1e-14, atol=0)


def conic_zero_draws(rng, j, n_ctx=50, n_pts=400, ulps=8):
    """Draws within ±``ulps`` of conic ``j``'s zero set, for n_ctx uniform
    (η, μ) draws with η < 1, each with n_pts X draws log-uniform over
    [1e-2, 10].  Conic j is positive at Y = 0 and negative for large Y
    (conic1: η² − 1 < 0; conic4 falls linearly in Y), so the zero's Y is
    found by bisection in long double; X draws whose conic is not
    positive at Y = 0 are dropped.  Yields (X, Y, η, μ) per (η, μ) draw.
    """
    etas, mus = rng.uniform(0.05, 1.0, n_ctx), rng.uniform(0.01, 0.49, n_ctx)
    X = 10 ** rng.uniform(-2, 1, (n_ctx, n_pts))
    ld = np.longdouble
    Xl, el, ml = X.astype(ld), etas[:, None].astype(ld), mus[:, None].astype(ld)

    def conic(Y):
        return _conic_values(Xl, Y, el, ml)[j]

    lo = np.zeros_like(Xl)
    keep = conic(lo) > 0
    hi = keep.astype(ld)  # a dropped draw's bracket is [0, 0]
    while np.any(up := conic(hi) > 0):
        hi = np.where(up, 2 * hi, hi)
    mid = (lo + hi) / 2
    while np.any((lo < mid) & (mid < hi)):
        above = conic(mid) > 0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        mid = (lo + hi) / 2
    Y0 = hi.astype(float)
    Y = Y0 + rng.integers(-ulps, ulps + 1, Y0.shape) * np.spacing(Y0)
    for i in range(n_ctx):
        yield X[i, keep[i]], Y[i, keep[i]], float(etas[i]), float(mus[i])


@pytest.mark.parametrize("j", [0, 3])
def test_zone_agrees_with_conic_cells_at_their_boundary(j):
    # the zone's high bit is "a0/a1 does not attain ρm", the conic1 cell
    # negated except at an exact tie (to Z1/Z2); its low bit is the
    # conic4 cell; inA is condA where the high bit is 0, condB where 1
    n = 0
    for X, Y, eta, mu in conic_zero_draws(np.random.default_rng(28 + j), j):
        v = _verdicts(X, Y, eta, mu)
        c1 = _conic_values(X, Y, eta, mu)[0]
        high, low = v["zone"] >> 1, v["zone"] & 1
        assert v["zone"].dtype == np.intp
        assert np.array_equal(high, ~v["conics"][:, 0] & (c1 != 0))
        assert np.array_equal(low, v["conics"][:, 3])
        cond_a, cond_b, in_a = v["branch"][:, :3].T
        assert np.array_equal(in_a, np.where(high == 0, cond_a, cond_b))
        n += X.size
    assert n >= 8_000


def test_quadrant_point_validation():
    with pytest.raises(ParamError):
        QuadrantPoint(X=0.0, Y=1.0, eta=0.5, mu=0.2)
    with pytest.raises(ParamError):
        QuadrantPoint(X=1.0, Y=1.0, eta=0.5, mu=0.6)


@pytest.mark.parametrize("field, value", [
    ("X", math.inf), ("X", math.nan), ("Y", math.inf), ("Y", -1.0),
    ("eta", math.inf), ("eta", math.nan), ("eta", 0.0), ("mu", math.nan), ("mu", 0.5),
    # outside the box, and not a real number
    ("X", 2e30), ("Y", 2e30), ("eta", 1e-122), ("eta", 2e121),
    ("X", "1"), ("X", None), ("X", True), ("Y", "1"), ("Y", None), ("Y", False),
    ("eta", "0.6"), ("eta", None), ("eta", True), ("mu", "0.25"), ("mu", None), ("mu", False),
])
def test_non_finite_quadrant_input_names_the_field(field, value):
    # refused where it enters, before any verdict divides by it
    point = {**dict(X=1.0, Y=1.0, eta=0.6, mu=0.25), field: value}
    with pytest.raises(ParamError) as exc:
        QuadrantPoint(**point)
    assert exc.value.field == field
    if field in ("eta", "mu"):
        with pytest.raises(ParamError) as exc:
            region_map(GridSpec(0.1, 1.0, 0.1, 1.0, 3, 3), point["eta"], point["mu"])
        assert exc.value.field == field


def test_subnormal_eta_refused_without_warning():
    # below the box's η range the ratio a0/a1 ≤ 1/η would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError) as exc:
            region_map(GridSpec(5e-324, 1.0, 1.0, 1e30, 3, 3), 5e-324, 0.25)
        assert exc.value.field == "eta"
        with pytest.raises(ParamError) as exc:
            QuadrantPoint(X=5e-324, Y=1e30, eta=5e-324, mu=0.25)
        assert exc.value.field == "eta"


def test_float32_inputs_give_the_float64_cells():
    # each field is compared and stored as a Python float: a float32 η is
    # not cast against MAX_ETA in float32, nor does it keep the kernel there
    def f32(*vals):
        return [np.float32(v) for v in vals]

    def f64(*vals):
        return [float(np.float32(v)) for v in vals]

    bounds, nodes = (0.01, 10.0, 0.02, 7.0), (7, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta, spacing in ((0.6, "log"), (2.1, "linear"), (1e30, "log")):
            got = region_map(GridSpec(*f32(*bounds), *nodes, spacing), *f32(eta, 0.25))
            want = region_map(GridSpec(*f64(*bounds), *nodes, spacing), *f64(eta, 0.25))
            assert got.grid == want.grid and (got.eta, got.mu) == (want.eta, want.mu)
            assert type(got.eta) is float and type(got.grid.x_min) is float
            for name in ("xs", "ys"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            got, want = map_columns(got), map_columns(want)
            for name in ("zone", "conics", "rho_m", "rho_M"):
                assert np.array_equal(got[name], want[name]), name
            assert (got["branch"] is None) == (want["branch"] is None)
            assert got["branch"] is None or np.array_equal(got["branch"], want["branch"])
        point = (3.0, 1e29, 0.6, 0.25)
        q32, q64 = QuadrantPoint(*f32(*point)), QuadrantPoint(*f64(*point))
        assert q32 == q64 and all(type(v) is float for v in vars(q32).values())
        assert classify_zone(q32) == classify_zone(q64)
        assert conic_conditions(q32) == conic_conditions(q64)
        assert antiphase_conditions(q32) == antiphase_conditions(q64)


@pytest.mark.parametrize("build, field", [
    (lambda: GridSpec(0.1, 10**400, 0.1, 1.0, 3, 3), "x_max"),
    (lambda: GridSpec(0.1, 1.0, -10**400, 1.0, 3, 3), "y_min"),
    (lambda: QuadrantPoint(X=1.0, Y=Fraction(10**400), eta=0.6, mu=0.25), "Y"),
    (lambda: QuadrantPoint(X=1.0, Y=1.0, eta=10**400, mu=0.25), "eta"),
])
def test_value_beyond_float_range_names_the_field(build, field):
    # float() cannot convert it; it is refused like any out-of-box value
    with pytest.raises(ParamError, match=f"^{field}: must lie in") as exc:
        build()
    assert exc.value.field == field


def test_quadrant_corners_stay_finite():
    # each conic and quartic coefficient peaks at a corner of the box: at
    # every one the verdicts and the ratio cells neither overflow, nor
    # divide by zero, nor go NaN
    corners = itertools.product((5e-324, MAX_XY), (5e-324, MAX_XY), (MIN_ETA, 1.0, MAX_ETA),
                                (5e-324, 0.25, 0.5 - 2.0**-54))
    with np.errstate(all="raise", under="ignore"):
        for X, Y, eta, mu in corners:
            QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
            got = _verdicts(np.array([X]), np.array([Y]), eta, mu)
            _e9_cells(np.concatenate([got["rho_m"], got["rho_M"]]))
    # the η range holds every η of an in-domain parameter set: at the
    # identical-pendula corners of the PhysicalParams box, the beam's
    # damping also 0
    lo, hi = 1e-40, 1e40
    etas = []
    for m0, mp, length, beta0, bp, k, g in itertools.product(
            (lo, hi), (lo, hi), (lo, hi), (0.0, lo, hi), (lo, hi), (lo, hi), (lo, hi)):
        try:
            p = PhysicalParams(m0, mp, mp, length, length, beta0, bp, bp, k, g)
        except ParamError:  # a beam negligible against the pendula
            continue
        etas.append(reduce_params(p).eta)
    assert min(etas) < 1e-119 and max(etas) > 1e119
    assert all(MIN_ETA <= eta <= MAX_ETA for eta in etas)


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------

def test_conic_one_near_origin():
    q = QuadrantPoint(X=1e-9, Y=1e-9, eta=0.7, mu=0.2)
    assert conic_conditions(q)[0] is True


def test_conic_overflow_raises_param_error():
    # a point whose conics would overflow lies past the box: it is refused
    # when built, naming the field, with no warning
    for field, X, Y in (("X", 1e155, 1.0), ("X", 1e300, 1.0), ("Y", 1.0, 1e155)):
        with np.errstate(all="raise"), pytest.raises(ParamError, match=f"^{field}: must lie in"):
            QuadrantPoint(X=X, Y=Y, eta=0.6, mu=0.25)


def test_conics_equal_ratio_comparisons(rng):
    eta, X, Y, mu = rand_points(rng, 100_000, eta_hi=3.0)
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    comparisons = np.stack([r[:, 0] < r[:, 1], r[:, 0] < r[:, 3],
                            r[:, 1] < r[:, 2], r[:, 2] < r[:, 3]], axis=-1)
    vals = np.stack(_conic_values(X, Y, eta, mu), axis=-1)
    # ignore a tiny band around the conic zero sets
    band = np.abs(vals) <= 1e-12 * (1 + X**2 + Y**2)[:, None]
    mismatch = ((vals > 0) != comparisons) & ~band
    assert not mismatch.any()


def test_conic_degenerate_eta():
    # eta^2 = 4/3: first conic degenerates to lines; verdicts stay consistent
    eta = np.sqrt(4 / 3)
    got, cols = kernel_draws(np.random.default_rng(5), 40, 100, eta=(eta, eta),
                             mu=(0.05, 0.45), x=(-1.5, 1.5), y=(-1.5, 1.5))
    want, gap = quadrant_oracle(*cols)
    assert_agree(got["conics"], want["conics"], gap["conics"])


# ---------------------------------------------------------------------------
# antiphase conditions
# ---------------------------------------------------------------------------

def test_antiphase_example_not_facilitated():
    q = QuadrantPoint(X=1.0, Y=1.0, eta=1.0, mu=0.25)
    v = antiphase_conditions(q)
    # (A): 1 < 2*0.4 = 0.8 is false
    assert v.cond_a is False
    assert v.in_a_set is False


def test_antiphase_condition_is_line_inequality(rng):
    # (A) <=> eta X + (eta^2-2) Y + 2 mu eta^2 < 0; (B) similarly
    got, (X, Y, eta, mu) = kernel_draws(rng, 100, 200)
    want, gap = quadrant_oracle(X, Y, eta, mu)
    cond_a, cond_b, in_a, _ = got["branch"].T
    for name, flags in (("cond_a", cond_a), ("cond_b", cond_b), ("in_a", in_a)):
        assert_agree(flags, want[name], gap[name])
    for flags, terms in ((cond_a, (eta * X, (eta**2 - 2) * Y, 2 * mu * eta**2)),
                         (cond_b, ((eta**2 - 2) * X, -eta * Y, eta * (1 - 4 * mu)))):
        line = sum(terms)
        assert_agree(flags, line < 0, np.abs(line) / sum(np.abs(t) for t in terms))


def test_antiphase_rejects_large_eta():
    with pytest.raises(BranchUnsupportedError):
        antiphase_conditions(QuadrantPoint(X=1.0, Y=1.0, eta=1.5, mu=0.2))


@pytest.mark.parametrize("verdict", [antiphase_conditions, semicircle_condition])
def test_branch_verdicts_refuse_eta_above_one(verdict):
    q = QuadrantPoint(X=1.0, Y=1.0, eta=1.0 + 1e-12, mu=0.2)
    with pytest.raises(BranchUnsupportedError, match="eta <= 1 only"):
        verdict(q)


def test_scalar_verdicts_example_point():
    # one-row calls at X = Y = eta = 1, mu = 1/4: ratios 0.4, 5/6, 2, 3
    q = QuadrantPoint(X=1.0, Y=1.0, eta=1.0, mu=0.25)
    assert conic_conditions(q) == (True, True, True, True)
    assert antiphase_conditions(q) == (False, True, False)
    assert semicircle_condition(q) is True


# ---------------------------------------------------------------------------
# in-phase impossibility and semicircle
# ---------------------------------------------------------------------------

def test_no_inphase_always_true(rng):
    got, (X, Y, eta, mu) = kernel_draws(rng, 100, 100, eta=(0.01, 1.0), mu=(0.001, 0.499),
                                        x=(-3, 3), y=(-3, 3))
    want, _ = quadrant_oracle(X, Y, eta, mu)
    assert np.allclose(got["rho_M"], want["rho_M"], rtol=1e-14, atol=0)
    assert np.all(2.0 * got["rho_M"] - eta >= 0)  # the in-phase theorem's margin


def test_inphase_theorem_holds_exactly(rng):
    # the module docstring's in-phase proof, in rational arithmetic, for η
    # up to 3: a3/a4 = η + X/(1−2μ), so 2ρM ≥ 2·max(a2/a3, a3/a4) > η
    for _ in range(5000):
        eta = Fraction(int(rng.integers(1, 3001)), 1000)
        mu = Fraction(int(rng.integers(1, 1000)), 2000)
        X, Y = (Fraction(int(rng.integers(1, 10**6)), 10 ** int(rng.integers(0, 19)))
                for _ in range(2))
        a2, a3, a4 = eta * X + Y + 1, X + (1 - 2 * mu) * eta, 1 - 2 * mu
        assert a3 / a4 == eta + X / (1 - 2 * mu)
        assert 2 * max(a2 / a3, a3 / a4) > eta, (X, Y, eta, mu)


def test_no_inphase_root_comparison(rng):
    # direct spectral check: delta real part -eta*omega/2 >= -rho_M
    for _ in range(2000):
        eta = rng.uniform(0.05, 1.0)
        X, Y = 10 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(0.01, 0.49)
        r = ek_ratios_dimensionless(eta, X, Y, mu)
        assert -0.5 * eta >= -max(r[2], r[3])


def test_semicircle_eta_one_everywhere(rng):
    for _ in range(500):
        X, Y = 10 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(0.01, 0.49)
        assert semicircle_condition(QuadrantPoint(X=X, Y=Y, eta=1.0, mu=mu))


def test_semicircle_proof_holds_exactly(rng):
    # semicircle_condition's proof, in rational arithmetic: for η ≤ 1,
    # ρM ≥ max(a2/a3, a3/a4) > 1 at every quadrant point.  Half the draws
    # put X at most 0.1 past (1−2μ)(1−η), below which a3/a4 ≤ 1 and a2/a3
    # must carry the bound; Y reaches down to 1e-18
    for k in range(5000):
        eta = Fraction(int(rng.integers(1, 1001)), 1000)
        mu = Fraction(int(rng.integers(1, 1000)), 2000)
        Y = Fraction(int(rng.integers(1, 10**6)), 10 ** int(rng.integers(0, 19)))
        edge = (1 - 2 * mu) * (1 - eta) * Fraction(int(rng.integers(0, 10**6)), 10**6)
        X = edge + Fraction(1, 10 ** int(rng.integers(1, 13))) if k % 2 else \
            Fraction(int(rng.integers(1, 10**6)), 10 ** int(rng.integers(0, 10)))
        a2, a3, a4 = eta * X + Y + 1, X + (1 - 2 * mu) * eta, 1 - 2 * mu
        assert max(a2 / a3, a3 / a4) > 1, (X, Y, eta, mu)


def test_semicircle_equals_direct_comparison(rng):
    got, cols = kernel_draws(rng, 100, 100)
    want, gap = quadrant_oracle(*cols)
    assert_agree(got["branch"][:, 3], want["semicircle"], gap["semicircle"])


# ---------------------------------------------------------------------------
# refined complex-root bound
# ---------------------------------------------------------------------------

def test_refined_bound_premise_never_holds_for_stable_quartics(rng):
    # rho_m^2 <= (a0/a1)(a1/a2) = a0/a2 and a2^2 >= (Y+1)^2 >= 4 a0, so
    # 2 rho_m^2 <= a2/2; with a2/a4 >= a2 the premise a2/a4 <= 2 rho_m^2
    # fails by at least a2/2 at every quadrant point, for any eta.
    # Columns eta, log10 X, log10 Y, mu, drawn row by row.
    eta, lx, ly, mu = rng.uniform([0.05, -2, -2, 0.01], [3.0, 2, 2, 0.49], (20_000, 4)).T
    X, Y = 10**lx, 10**ly
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    a2 = eta * X + Y + 1.0
    margin = a2 / (1.0 - 2.0 * mu) - 2.0 * np.minimum(r[:, 0], r[:, 1]) ** 2
    assert np.all(margin > 0)
    assert np.all(margin >= 0.5 * a2 * (1 - 1e-12))


def test_root_bound_never_applies():
    # the premise fails everywhere, so no point needs a root, not even
    # the far edges of the box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X, Y in ((MAX_XY, 1.0), (MAX_XY, MAX_XY), (1.0, MAX_XY), (0.3, 0.7)):
            assert complex_root_bound(QuadrantPoint(X=X, Y=Y, eta=0.6, mu=0.25)) \
                == (False, None)


# ---------------------------------------------------------------------------
# region maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid, eta, mu", [
    (GridSpec(0.01, 10.0, 0.01, 10.0, 60, 50, "log"), 0.6, 0.25),
    (GridSpec(0.05, 5.0, 0.05, 5.0, 40, 40, "linear"), 1.0, 0.125),
    (GridSpec(0.1, 8.0, 0.1, 8.0, 45, 35, "linear"), 1.7, 0.3),
])
def test_region_map_matches_quadrant_oracle(grid, eta, mu):
    # the formula check of every CSV column: each verdict of the map
    # against its definition on the hand-written quartic
    rmap = region_map(grid, eta, mu)
    want, gap = quadrant_oracle(np.tile(rmap.xs, rmap.ys.size), np.repeat(rmap.ys, rmap.xs.size),
                                eta, mu)
    got = map_columns(rmap)
    assert_agree(got["zone"], want["zone"], gap["zone"])
    assert_agree(got["conics"], want["conics"], gap["conics"])
    for name in ("rho_m", "rho_M"):
        assert np.allclose(got[name], want[name], rtol=1e-14, atol=0)
    if eta > 1.0:
        assert got["branch"] is None
        return
    for k, name in enumerate(("cond_a", "cond_b", "in_a", "semicircle")):
        assert_agree(got["branch"][:, k], want[name], gap[name])


@pytest.mark.parametrize("grid, eta, mu", [
    (GridSpec(0.01, 10.0, 0.01, 10.0, 101, 103, "log"), 0.6, 0.25),
    (GridSpec(0.01, 10.0, 0.01, 10.0, 101, 103, "linear"), 2.1, 0.2),
])
def test_blockwise_map_equals_one_kernel_call(grid, eta, mu):
    # 10,403 nodes: two full sweep blocks and a partial third
    assert 2 * BLOCK_ROWS < grid.nx * grid.ny < 3 * BLOCK_ROWS
    rmap = region_map(grid, eta, mu)
    want = _verdicts(np.tile(rmap.xs, grid.ny), np.repeat(rmap.ys, grid.nx), eta, mu)
    # the map holds no per-node column: the blocks stream from the kernel
    assert all(np.size(a) < grid.nx * grid.ny for a in vars(rmap).values())
    got = map_columns(rmap)
    for name, col in want.items():
        assert got[name] is None if col is None else np.array_equal(got[name], col), name


def test_conic_overflow_in_last_block_refuses_the_grid():
    # a grid whose top row, y = 1e155, would square past the float range in
    # the last sweep block is refused when built, naming y_max; at the
    # box's edge the same grid sweeps every block with finite values
    with pytest.raises(ParamError) as exc:
        GridSpec(0.01, 10.0, 0.01, 1e155, 100, 100, "log")
    assert exc.value.field == "y_max"
    grid = GridSpec(0.01, 10.0, 0.01, MAX_XY, 100, 100, "log")
    assert grid.nx * (grid.ny - 1) >= BLOCK_ROWS
    with np.errstate(all="raise", under="ignore"):
        got = map_columns(region_map(grid, 0.6, 0.25))
    assert np.isfinite(got["rho_m"]).all() and np.isfinite(got["rho_M"]).all()


def _sweep_peak(grid, path):
    """Peak traced memory of one sweep streamed into its CSV."""
    tracemalloc.start()
    try:
        region_map(grid, 0.6, 0.25).write_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_and_csv_memory_peak_bounded(tmp_path):
    # the benchmark's 500x500 sweep with its CSV, streamed in blocks: numpy
    # memory peaks near 2.2 MB, where per-node columns peaked at 10.5 MB and
    # one kernel call on every node at 25 MB
    peak = _sweep_peak(GridSpec(0.01, 10.0, 0.01, 10.0, 500, 500, "log"), tmp_path / "map.csv")
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_sweep_memory_does_not_grow_with_the_grid():
    # a hundredfold grid streams through the same blocks: per-node columns
    # raised the peak from 3.5 MB at 100x100 to 27.9 MB at 1000x1000
    small, large = (_sweep_peak(GridSpec(0.01, 10.0, 0.01, 10.0, n, n, "log"), os.devnull)
                    for n in (100, 1000))
    assert large - small < 0.5e6, f"peaks {small / 1e6:.2f} and {large / 1e6:.2f} MB"


def test_map_zone_boundaries_match_conics():
    grid = GridSpec(0.05, 5.0, 0.05, 5.0, 100, 100, "linear")
    rmap = region_map(grid, eta=1.0, mu=0.25)
    zone = map_columns(rmap)["zone"]
    for iy in range(0, 100, 7):
        for ix in range(0, 99, 1):
            if zone[iy * 100 + ix] != zone[iy * 100 + ix + 1]:
                # some conic must change sign within this cell pair
                va = np.array(_conic_values(rmap.xs[ix], rmap.ys[iy], 1.0, 0.25))
                vb = np.array(_conic_values(rmap.xs[ix + 1], rmap.ys[iy], 1.0, 0.25))
                assert np.any(np.sign(va) != np.sign(vb))


def test_map_refinement_stability():
    coarse, fine = (map_columns(region_map(GridSpec(0.1, 4.0, 0.1, 4.0, n, n, "linear"),
                                           0.5, 0.2))["zone"] for n in (20, 39))
    # every coarse node also appears in the fine grid (odd indices)
    for iy in range(20):
        for ix in range(20):
            assert coarse[iy * 20 + ix] == fine[2 * iy * 39 + 2 * ix]


def test_map_low_mu_excludes_origin_region():
    rmap = region_map(GridSpec(0.02, 2.0, 0.02, 2.0, 40, 40, "linear"), eta=1.0, mu=0.1)
    in_a = map_columns(rmap)["branch"][:, 2].reshape(40, 40)  # (iy, ix)
    assert not in_a[:4, :4].any()


def test_map_csv_format(tmp_path):
    grid = GridSpec(0.01, 10.0, 0.01, 10.0, 12, 9, "log")
    rmap = region_map(grid, eta=0.5, mu=0.25)
    path = tmp_path / "map.csv"
    rmap.write_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 12 * 9 + 1
    assert lines[0].startswith("X,Y,zone,conic1")
    first = lines[1].split(",")
    assert len(first) == 14
    assert first[2] in ("Z1", "Z2", "Z3", "Z4")
    # row-major in Y then X: the first nx rows share the same Y
    ys = {ln.split(",")[1] for ln in lines[1:13]}
    assert len(ys) == 1


def _scalar_csv_row(X, Y, eta, mu):
    """One CSV row rebuilt from the scalar public verdicts."""
    flag = {True: "true", False: "false", None: "na"}
    q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
    if eta <= 1.0:
        anti = antiphase_conditions(q)
        branch = [anti.cond_a, anti.cond_b, anti.in_a_set, semicircle_condition(q)]
    else:
        branch = [None] * 4
    bound = complex_root_bound(q)
    r = q.ratios()
    return ",".join([format(X, ".9e"), format(Y, ".9e"), classify_zone(q),
                     *(flag[c] for c in conic_conditions(q)),
                     *(flag[b] for b in branch),
                     flag[bound.refined_ok if bound.applicable else None],
                     format(min(r[0], r[1]), ".9e"), format(max(r[2], r[3]), ".9e")])


@pytest.mark.parametrize("grid, eta, mu", [
    (GridSpec(0.01, 10.0, 0.01, 10.0, 12, 9, "log"), 0.5, 0.25),
    (GridSpec(0.1, 4.0, 0.1, 4.0, 6, 5, "linear"), 1.5, 0.2),
])
def test_map_csv_rows_match_scalar_verdicts(tmp_path, grid, eta, mu):
    path = tmp_path / "map.csv"
    region_map(grid, eta=eta, mu=mu).write_csv(path)
    rows = path.read_text().splitlines()[1:]
    expected = [_scalar_csv_row(float(X), float(Y), eta, mu)
                for Y in grid.axis("y") for X in grid.axis("x")]
    assert rows == expected


def _e9_cells(v):
    """The ``.9e`` cells of the CSV writer as (n, 20) zero-padded uint8 rows."""
    return _e9_words(v)[0].view(np.uint8)


def _e9_strings(v):
    """The cells with their pad bytes dropped, as the CSV writer drops them."""
    cells = _e9_cells(v)
    lines = np.column_stack([cells, np.full(len(cells), ord("\n"), np.uint8)])
    return lines[lines != 0].tobytes().split(b"\n")[:-1]


def test_flag_codes_pack_flag_k_as_bit_k():
    flags = np.array(list(itertools.product([False, True], repeat=4)))
    assert _flag_codes(flags).tolist() == [sum(int(f) << k for k, f in enumerate(row))
                                           for row in flags.tolist()]


def test_e9_word_tables_hold_their_f_strings():
    def joined(strings):
        return "".join(strings).encode()

    assert _LEAD_WORDS.tobytes() == joined(f"{sign}{q // 10}.{q % 10}"
                                           for sign in ("\0", "-") for q in range(100))
    assert _MID_WORDS.tobytes() == joined(f"{r:04d}" for r in range(10_000))
    assert _EXP_WORDS.tobytes() == joined(f"e{9 - k:+03d}" for k in range(23))


def test_e9_cells_exact_on_log_uniform_draws():
    rng = np.random.default_rng(5)
    v = rng.choice([-1.0, 1.0], 1_000_000) * 10.0 ** rng.uniform(-15.0, 12.0, 1_000_000)
    expected = [format(x, ".9e").encode() for x in v.tolist()]
    assert _e9_strings(v) == expected


def test_e9_cells_exact_on_adversarial_values():
    v = [12345678905.0, 1234567890.5, 9.9999999995, 99999.999995,
         9.99999999996, 9999999999.6, 0.99999999996, 5e-324, 0.0, -0.0,
         -1.5e-100, -2.5, math.inf, -math.inf, math.nan, 1e22, 1.7976931348623157e308]
    for edge in (1e-13, 1e10):
        v += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    v += [10.0**k for k in range(-15, 13)] + [float(f"1e{k}") for k in range(-15, 13)]
    # doubles nearest to decimal ties d.ddddddddd5e±x: about 40% of them
    # round the wrong way if the near-tie fallback is skipped
    rng = np.random.default_rng(6)
    v += [float(f"{m}5e{k}") for m, k in zip(rng.integers(10**9, 10**10, 2000).tolist(),
                                                rng.integers(-23, 0, 2000).tolist())]
    v += [-x for x in v]
    assert _e9_strings(v) == [format(x, ".9e").encode() for x in v]


@pytest.mark.parametrize("grid, eta, mu", [
    (GridSpec(0.01, 10.0, 0.01, 10.0, 130, 130, "log"), 0.6, 0.25),  # 16,900 rows
    (GridSpec(0.05, 5.0, 0.02, 8.0, 130, 130, "linear"), 2.1, 0.2),
    (GridSpec(0.3, 0.3, 0.7, 0.7, 1, 1, "log"), 0.6, 0.25),
    # four full blocks and a partial one; X, Y and rho mix 15-byte fast cells
    # with 16-byte format cells (3-digit exponents) within and across
    # blocks, so a byte left over from the previous block would show
    (GridSpec(1e-200, MAX_XY, 1e-200, MAX_XY, 130, 130, "log"), 0.6, 0.25),
    # rows wider than a block, so a block starts inside a row
    (GridSpec(0.01, 10.0, 0.01, 10.0, 4_500, 3, "log"), 0.6, 0.25),
    # one column: blocks of 4,096 one-node rows
    (GridSpec(0.5, 0.5, 0.01, 10.0, 1, 9_000, "linear"), 2.1, 0.2),
])
def test_map_csv_matches_reference_writer(tmp_path, grid, eta, mu):
    # written over a stale, longer file, so a byte of its tail left behind would show
    rmap = region_map(grid, eta=eta, mu=mu)
    want = reference_region_csv(rmap)
    path = tmp_path / "map.csv"
    path.write_bytes(b"#" * (len(want) + BLOCK_ROWS))
    rmap.write_csv(path)
    assert path.read_bytes() == want


@pytest.mark.parametrize("eta", [0.6, 2.1])
def test_map_rows_skip_translate(tmp_path, monkeypatch, eta):
    # every cell of a map inside [1e-13, 1e10) is pad-free or comes with its
    # length, so each block is squeezed and written without translate
    from coupled_pendula import _csvio
    texts, text = [], _csvio._Rows.text

    def recorded(self, *args):
        texts.append(text(self, *args))
        return texts[-1]

    monkeypatch.setattr(_csvio._Rows, "text", recorded)
    region_map(GridSpec(0.01, 10.0, 0.01, 10.0, 101, 103, "log"), eta, 0.25) \
        .write_csv(tmp_path / "map.csv")
    assert len(texts) == 3 and all(isinstance(t, memoryview) for t in texts)


@pytest.mark.parametrize("eta", [0.6, 2.1])
def test_summary_same_whether_or_not_written(tmp_path, eta):
    # the writer keeps the counts of its sweep; a map never written sweeps
    # for them alone; both match the kernel's columns
    grid = GridSpec(0.01, 10.0, 0.01, 10.0, 101, 103, "log")
    written, unwritten = region_map(grid, eta, 0.25), region_map(grid, eta, 0.25)
    written.write_csv(tmp_path / "map.csv")
    cols = map_columns(region_map(grid, eta, 0.25))
    want = {z: int(np.count_nonzero(cols["zone"] == k)) / cols["zone"].size
            for k, z in enumerate(("Z1", "Z2", "Z3", "Z4"))}
    want_in_a = None if cols["branch"] is None else \
        int(np.count_nonzero(cols["branch"][:, 2])) / cols["zone"].size
    for rmap in (written, unwritten):
        assert rmap.zone_fractions() == want
        assert rmap.in_a_fraction() == want_in_a


def test_array_records_compare_by_identity():
    # a generated field-wise __eq__ would compare numpy arrays and raise on
    # the ambiguous truth value; records holding arrays compare and hash as
    # objects instead
    grid = GridSpec(0.01, 10.0, 0.01, 10.0, 4, 3, "log")
    p = PhysicalParams(2.0, 1.0, 1.0, 1.0, 1.0, 0.3, 0.1, 0.1, 5.0)
    start = SystemState.from_y(0.01, 0.02, 0.015)
    maps = [region_map(grid, 0.5, 0.25) for _ in range(2)]
    trajs = [integrate(start, p, DampingModel.FULL_VELOCITY, 1.0, samples=5) for _ in range(2)]
    assert np.array_equal(maps[0].xs, maps[1].xs) and np.array_equal(maps[0].ys, maps[1].ys)
    assert np.array_equal(trajs[0].states, trajs[1].states)
    for a, b in (maps, trajs):
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_grid_touching_axes_rejected():
    with pytest.raises(ParamError):
        GridSpec(0.0, 1.0, 0.1, 1.0, 5, 5, "linear")


@pytest.mark.parametrize("field, value", [
    ("nx", 2.9), ("ny", True), ("nx", "3"), ("ny", None),
    ("x_min", "a"), ("y_max", None), ("x_max", False), ("y_min", math.nan),
])
def test_grid_entry_rejected_with_field(field, value):
    kw = dict(x_min=0.1, x_max=1.0, y_min=0.1, y_max=1.0, nx=3, ny=3, spacing="log")
    kw[field] = value
    with pytest.raises(ParamError) as exc:
        GridSpec(**kw)
    assert exc.value.field == field


def test_grid_node_limit():
    GridSpec(0.1, 1.0, 0.1, 1.0, 1, MAX_GRID_NODES, "linear")
    # numpy integers too: their product must not wrap round under the limit
    for nx, ny in ((2, MAX_GRID_NODES // 2 + 1), (np.int64(2**32), np.int64(2**32))):
        with pytest.raises(ParamError) as exc:
            GridSpec(0.1, 1.0, 0.1, 1.0, nx, ny, "linear")
        assert exc.value.field == "nx*ny"


def test_map_eta_above_one_refuses_branch_verdicts():
    rmap = region_map(GridSpec(0.1, 1.0, 0.1, 1.0, 4, 4, "linear"), eta=1.5, mu=0.2)
    got = map_columns(rmap)
    assert got["branch"] is None
    assert got["zone"][0] in range(4)
    assert rmap.in_a_fraction() is None


# ---------------------------------------------------------------------------
# empirical decay rates
# ---------------------------------------------------------------------------

def test_delta_rate_matches_prediction():
    omega = np.pi
    p = params_from_dimensionless(eta=0.5, X=1.0, Y=1.0, mu=0.25, omega=omega)
    y0 = SystemState.from_y(0.0005, 0.002, 0.002)
    [(_, rate_delta)] = empirical_decay_rates([p], [y0], [14.0])
    assert rate_delta == pytest.approx(0.5 * omega / 2, rel=0.05)


def test_strict_peaks_match_find_peaks():
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    eta, X, Y, mu, n_periods = DECAY_PANEL[0]
    p = params_from_dimensionless(eta, X, Y, mu, omega=np.pi)
    y0 = SystemState.from_y(0.002 * p.g / np.pi**2, 0.002, 0.002)
    traj = integrate(y0, p, DampingModel.FULL_VELOCITY, 2.0 * n_periods, samples=4001)
    for column in (1, 2):
        a = np.abs(traj.states[:, column])
        assert np.array_equal(_strict_peaks(a), find_peaks(a)[0])


def test_decay_requires_enough_peaks():
    # a short trajectory's entry is the fit's ValueError, returned, not raised
    p = params_from_dimensionless(eta=0.5, X=1.0, Y=1.0, mu=0.25, omega=np.pi)
    [fit] = empirical_decay_rates([p], [SystemState.from_y(0.0, 0.002, 0.002)], [1.0])
    assert isinstance(fit, ValueError) and "peaks" in str(fit)


def test_in_a_with_all_real_roots_implies_faster_sigma(rng):
    # all-real quartic roots have modulus >= rho_m; inside the facilitated
    # set rho_m > eta/2, so every sigma mode decays faster than delta.
    # The combination needs heavy pendula (mu near 1/2), a lightly damped
    # pendulum pair, moderate beam damping, and a soft spring.
    got, cols = kernel_draws(rng, 400, 100, eta=(0.05, 0.4), mu=(0.44, 0.4999),
                             x=(math.log10(0.3), math.log10(0.7)), y=(-2, -0.6))
    want, gap = quadrant_oracle(*cols)
    in_a = got["branch"][:, 2]
    assert_agree(in_a, want["in_a"], gap["in_a"])
    X, Y, eta, mu = (c[in_a] for c in cols)
    roots = poly_roots(quartic(X, Y, eta, mu))
    real = np.all(np.abs(roots.imag) <= 1e-9 * np.abs(roots), axis=1)
    assert np.count_nonzero(real) >= 200
    assert np.all(np.min(np.abs(roots[real].real), axis=1) > 0.5 * eta[real])
