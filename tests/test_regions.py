import math
import warnings

import numpy as np
import pytest

from coupled_pendula import (
    BranchUnsupportedError,
    DampingModel,
    GridSpec,
    ParamError,
    QuadrantPoint,
    SystemState,
    antiphase_conditions,
    classify_zone,
    complex_root_bound,
    conic_conditions,
    empirical_decay_rates,
    integrate,
    mu_threshold,
    no_inphase_check,
    params_from_dimensionless,
    poly_roots,
    region_map,
    semicircle_condition,
)
from coupled_pendula.regions import (
    MAX_GRID_NODES,
    _EXP_WORDS,
    _LEAD_WORDS,
    _MID_WORDS,
    _TAIL_WORDS,
    _e9_cells,
    _strict_peaks,
)
from coupled_pendula.spectral import ek_ratios_dimensionless, quartic_from_dimensionless
from coupled_pendula.verification import DECAY_PANEL
from oracles import reference_region_csv


def rand_points(rng, n, eta_hi=1.0):
    eta = rng.uniform(0.05, eta_hi, n)
    X = 10 ** rng.uniform(-2, 2, n)
    Y = 10 ** rng.uniform(-2, 2, n)
    mu = rng.uniform(0.01, 0.49, n)
    return eta, X, Y, mu


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------

def test_zone_example():
    q = QuadrantPoint(X=1.0, Y=1.0, eta=1.0, mu=0.25)
    assert np.allclose(q.ratios(), [0.4, 5 / 6, 2.0, 3.0], rtol=1e-12)
    assert classify_zone(q) == "Z2"


def test_zone_agrees_with_bruteforce(rng):
    eta, X, Y, mu = rand_points(rng, 100_000, eta_hi=3.0)
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    for i in rng.choice(100_000, 400, replace=False):
        q = QuadrantPoint(X=X[i], Y=Y[i], eta=eta[i], mu=mu[i])
        zone = classify_zone(q)
        rho_m, rho_M = np.min(r[i]), np.max(r[i])
        assert rho_m in (r[i, 0], r[i, 1]) and rho_M in (r[i, 2], r[i, 3])
        expected = {("yes", "yes"): "Z1", ("yes", "no"): "Z2",
                    ("no", "yes"): "Z3", ("no", "no"): "Z4"}[
            ("yes" if r[i, 0] <= r[i, 1] else "no",
             "yes" if r[i, 2] >= r[i, 3] else "no")]
        assert zone == expected


def test_quadrant_point_validation():
    with pytest.raises(ParamError):
        QuadrantPoint(X=0.0, Y=1.0, eta=0.5, mu=0.2)
    with pytest.raises(ParamError):
        QuadrantPoint(X=1.0, Y=1.0, eta=0.5, mu=0.6)


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------

def test_conic_one_near_origin():
    q = QuadrantPoint(X=1e-9, Y=1e-9, eta=0.7, mu=0.2)
    assert conic_conditions(q)[0] is True


def test_conic_overflow_raises_param_error():
    # the point path refuses what the grid path refuses, with no warning
    for X, Y in ((1e155, 1.0), (1e300, 1.0), (1.0, 1e155)):
        q = QuadrantPoint(X=X, Y=Y, eta=0.6, mu=0.25)
        with np.errstate(all="raise"), pytest.raises(ParamError, match="^point: conic"):
            conic_conditions(q)


def test_conics_equal_ratio_comparisons(rng):
    eta, X, Y, mu = rand_points(rng, 100_000, eta_hi=3.0)
    r = ek_ratios_dimensionless(eta, X, Y, mu)
    comparisons = np.stack([r[:, 0] < r[:, 1], r[:, 0] < r[:, 3],
                            r[:, 1] < r[:, 2], r[:, 2] < r[:, 3]], axis=-1)
    from coupled_pendula.regions import _conic_values
    vals = np.stack(_conic_values(X, Y, eta, mu), axis=-1)
    # ignore a tiny band around the conic zero sets
    band = np.abs(vals) <= 1e-12 * (1 + X**2 + Y**2)[:, None]
    mismatch = ((vals > 0) != comparisons) & ~band
    assert not mismatch.any()


def test_conic_degenerate_eta():
    # eta^2 = 4/3: first conic degenerates to lines; verdicts stay consistent
    eta = np.sqrt(4 / 3)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        X, Y = 10 ** rng.uniform(-1.5, 1.5, 2)
        mu = rng.uniform(0.05, 0.45)
        q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
        r = q.ratios()
        assert conic_conditions(q)[0] == (r[0] < r[1])


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
    for _ in range(10_000):
        eta = rng.uniform(0.05, 1.0)
        X, Y = 10 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(0.01, 0.49)
        q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
        v = antiphase_conditions(q)
        assert v.cond_a == (eta * X + (eta**2 - 2) * Y + 2 * mu * eta**2 < 0)
        assert v.cond_b == ((2 - eta**2) * X + eta * Y - eta * (1 - 4 * mu) > 0)


def test_antiphase_rejects_large_eta():
    with pytest.raises(BranchUnsupportedError):
        antiphase_conditions(QuadrantPoint(X=1.0, Y=1.0, eta=1.5, mu=0.2))


def test_mu_threshold_values():
    assert mu_threshold(1.0) == pytest.approx(1 / 6, rel=1e-14)
    assert mu_threshold(1e-9) == pytest.approx(0.25, rel=1e-6)
    etas = np.linspace(0.01, 1.0, 100)
    vals = np.array([mu_threshold(e) for e in etas])
    assert np.all(vals < 0.25)
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# in-phase impossibility and semicircle
# ---------------------------------------------------------------------------

def test_no_inphase_always_true(rng):
    for _ in range(10_000):
        eta = rng.uniform(0.01, 1.0)
        X, Y = 10 ** rng.uniform(-3, 3, 2)
        mu = rng.uniform(0.001, 0.499)
        chk = no_inphase_check(QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu))
        assert chk.ok
        assert chk.margin >= 0


def test_no_inphase_margin_example():
    chk = no_inphase_check(QuadrantPoint(X=1.0, Y=1.0, eta=1.0, mu=0.25))
    assert chk.margin == pytest.approx(2 * 3.0 - 1.0, rel=1e-12)


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


def test_semicircle_equals_direct_comparison(rng):
    for _ in range(10_000):
        eta = rng.uniform(0.05, 1.0)
        X, Y = 10 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(0.01, 0.49)
        q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
        r = q.ratios()
        assert semicircle_condition(q) == bool(1.0 < max(r[2], r[3]))


# ---------------------------------------------------------------------------
# refined complex-root bound
# ---------------------------------------------------------------------------

def test_vieta_identity_constructed_quartic():
    xi1, k1, xi2, k2 = -0.3, 0.9, -0.7, 1.4
    roots = np.array([xi1 + 1j * k1, xi1 - 1j * k1, xi2 + 1j * k2, xi2 - 1j * k2])
    asc = np.real(np.poly(roots))[::-1] * 1.7
    a = asc
    assert 2 * (xi1 + xi2) == pytest.approx(-a[3] / a[4], rel=1e-12)
    assert (xi1**2 + k1**2 + xi2**2 + k2**2 + 4 * xi1 * xi2
            == pytest.approx(a[2] / a[4], rel=1e-12))


def test_refined_bound_premise_never_holds_for_stable_quartics(rng):
    # rho_m^2 <= (a0/a1)(a1/a2) = a0/a2 and a2^2 >= (Y+1)^2 >= 4 a0, so
    # 2 rho_m^2 <= a2/2; with a2/a4 >= a2 the premise a2/a4 <= 2 rho_m^2
    # fails by at least a2/2 at every quadrant point, for any eta.
    for _ in range(20_000):
        eta = rng.uniform(0.05, 3.0)
        X, Y = 10 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(0.01, 0.49)
        q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
        rb = complex_root_bound(q)
        assert not rb.applicable
        r = q.ratios()
        a2 = eta * X + Y + 1.0
        margin = a2 / (1.0 - 2.0 * mu) - 2.0 * min(r[0], r[1]) ** 2
        assert margin > 0
        assert margin >= 0.5 * a2 * (1 - 1e-12)


def test_real_pattern_not_applicable():
    # heavy beam damping pushes the quartic to real roots
    q = QuadrantPoint(X=50.0, Y=0.1, eta=0.5, mu=0.25)
    rb = complex_root_bound(q)
    assert rb.pattern in ("real", "mixed")
    assert not rb.applicable and rb.b_bound is None and rb.refined_ok is None


def test_root_bound_overflow_raises_param_error():
    # a quartic whose roots overflow in the polish is refused with no
    # warning, also where its conics are still finite (X = 1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X, Y in ((1e155, 1.0), (1e100, 1.0), (1.0, 1e300)):
            q = QuadrantPoint(X=X, Y=Y, eta=0.6, mu=0.25)
            with pytest.raises(ParamError, match="^point: quartic roots overflow"):
                complex_root_bound(q)


# ---------------------------------------------------------------------------
# region maps
# ---------------------------------------------------------------------------

def test_map_zone_boundaries_match_conics():
    grid = GridSpec(0.05, 5.0, 0.05, 5.0, 100, 100, "linear")
    rmap = region_map(grid, eta=1.0, mu=0.25)
    from coupled_pendula.regions import _conic_values
    for iy in range(0, 100, 7):
        for ix in range(0, 99, 1):
            if rmap.zone[iy * 100 + ix] != rmap.zone[iy * 100 + ix + 1]:
                # some conic must change sign within this cell pair
                va = np.array(_conic_values(rmap.xs[ix], rmap.ys[iy], 1.0, 0.25))
                vb = np.array(_conic_values(rmap.xs[ix + 1], rmap.ys[iy], 1.0, 0.25))
                assert np.any(np.sign(va) != np.sign(vb))


def test_map_refinement_stability():
    coarse = region_map(GridSpec(0.1, 4.0, 0.1, 4.0, 20, 20, "linear"), 0.5, 0.2)
    fine = region_map(GridSpec(0.1, 4.0, 0.1, 4.0, 39, 39, "linear"), 0.5, 0.2)
    # every coarse node also appears in the fine grid (odd indices)
    for iy in range(20):
        for ix in range(20):
            assert coarse.zone[iy * 20 + ix] == fine.zone[2 * iy * 39 + 2 * ix]


def test_map_low_mu_excludes_origin_region():
    rmap = region_map(GridSpec(0.02, 2.0, 0.02, 2.0, 40, 40, "linear"), eta=1.0, mu=0.1)
    in_a = rmap.branch[:, 2].reshape(40, 40)  # (iy, ix)
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


def _e9_strings(v):
    cells = _e9_cells(np.asarray(v))
    return cells.view(f"S{cells.shape[1]}").ravel().tolist()


def test_e9_word_tables_hold_their_f_strings():
    def joined(strings):
        return "".join(strings).encode()

    assert _LEAD_WORDS.tobytes() == joined(f"{q // 100}.{q % 100:02d}" for q in range(1000))
    assert _MID_WORDS.tobytes() == joined(f"{r:04d}" for r in range(10_000))
    assert _TAIL_WORDS.tobytes() == joined(f"{r:03d}e" for r in range(1000))
    assert _EXP_WORDS.tobytes() == joined(f"{9 - k:+03d}\0" for k in range(23))


def test_e9_cells_exact_on_log_uniform_draws():
    v = 10.0 ** np.random.default_rng(5).uniform(-15.0, 12.0, 1_000_000)
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
    assert _e9_strings(v) == [format(x, ".9e").encode() for x in v]


@pytest.mark.parametrize("grid, eta, mu", [
    (GridSpec(0.01, 10.0, 0.01, 10.0, 130, 130, "log"), 0.6, 0.25),  # 16,900 rows
    (GridSpec(0.05, 5.0, 0.02, 8.0, 130, 130, "linear"), 2.1, 0.2),
    (GridSpec(0.3, 0.3, 0.7, 0.7, 1, 1, "log"), 0.6, 0.25),
    # a full block and a partial one; X, Y and rho mix 15-byte fast cells
    # with 16-byte format cells (3-digit exponents) within and across
    # blocks, so a byte left over from the previous block would show;
    # region_map refuses non-finite conics, so they are all finite here
    (GridSpec(1e-200, 1e100, 1e-200, 1e100, 130, 130, "log"), 0.6, 0.25),
])
def test_map_csv_matches_reference_writer(tmp_path, grid, eta, mu):
    rmap = region_map(grid, eta=eta, mu=mu)
    path = tmp_path / "map.csv"
    rmap.write_csv(path)
    assert path.read_bytes() == reference_region_csv(rmap)


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
    assert rmap.branch is None
    assert rmap.zone[0] in range(4)
    assert rmap.in_a_fraction() is None


# ---------------------------------------------------------------------------
# empirical decay rates
# ---------------------------------------------------------------------------

def test_delta_rate_matches_prediction():
    omega = np.pi
    p = params_from_dimensionless(eta=0.5, X=1.0, Y=1.0, mu=0.25, omega=omega)
    y0 = SystemState.from_y(0.0005, 0.002, 0.002)
    _, rate_delta = empirical_decay_rates(p, y0, 14.0)
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
    p = params_from_dimensionless(eta=0.5, X=1.0, Y=1.0, mu=0.25, omega=np.pi)
    with pytest.raises(ValueError, match="peaks"):
        empirical_decay_rates(p, SystemState.from_y(0.0, 0.002, 0.002), 1.0)


def test_in_a_with_all_real_roots_implies_faster_sigma(rng):
    # all-real quartic roots have modulus >= rho_m; inside the facilitated
    # set rho_m > eta/2, so every sigma mode decays faster than delta.
    # The combination needs heavy pendula (mu near 1/2), a lightly damped
    # pendulum pair, moderate beam damping, and a soft spring.
    found = 0
    for _ in range(40_000):
        eta = rng.uniform(0.05, 0.4)
        X = rng.uniform(0.3, 0.7)
        Y = 10 ** rng.uniform(-2, -0.6)
        mu = rng.uniform(0.44, 0.4999)
        q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
        if not antiphase_conditions(q).in_a_set:
            continue
        if complex_root_bound(q).pattern != "real":
            continue
        found += 1
        roots = poly_roots(quartic_from_dimensionless([eta], [X], [Y], [mu]))
        assert float(np.min(np.abs(roots.real))) > 0.5 * eta
        if found >= 200:
            break
    assert found >= 200
