"""The in-repo DOP853 against scipy's ``solve_ivp(method="DOP853")``, its oracle."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from coupled_pendula import DampingModel, PhysicalParams, SystemState, _dop853
from coupled_pendula.dynamics import MAX_RHS_EVALS, _rhs
from coupled_pendula.params import params_from_dimensionless
from coupled_pendula.verification import DECAY_PANEL, PANEL_OMEGA

RTOL, ATOL = 1e-10, 1e-12


def test_tableau_is_scipys():
    ref = dop853_coefficients
    n = ref.N_STAGES
    assert np.array_equal(_dop853.A, ref.A)
    assert np.array_equal(_dop853.B, ref.B)
    assert np.array_equal(_dop853.E3, ref.E3) and np.array_equal(_dop853.E5, ref.E5)
    assert np.array_equal(_dop853.D, ref.D)
    assert _dop853.B.shape == (n,) and _dop853.E5.shape == (n + 1,)


def _panel_rows(samples=4001):
    """The four trajectories of ``verify``'s decay panel."""
    period = 2.0 * np.pi / PANEL_OMEGA
    params = [params_from_dimensionless(eta, X, Y, mu, omega=PANEL_OMEGA)
              for eta, X, Y, mu, _ in DECAY_PANEL[:4]]
    states = [SystemState.from_y(0.002 * p.l1, 0.002, 0.002) for p in params]
    return params, states, [n * period for *_, n in DECAY_PANEL[:4]], samples


def _sparse_panel_rows():
    """The panel sampled so sparsely that in most passes some rows step
    past no sample while others interpolate."""
    return _panel_rows(41)


def _readme_row():
    """The README's example ``simulate`` run."""
    p = PhysicalParams(m0=2.0, m1=1.0, m2=1.0, l1=1.0, l2=1.0,
                       beta0=0.3, beta1=0.1, beta2=0.1, k=5.0)
    return [p], [SystemState.from_y(0.01, 0.02, 0.015)], [60.0], 2001


def _mixed_rows():
    """All twenty panel points and twelve seeded identical-pendula draws,
    with ends spread over 1-3 s, so that rows leave the batch at
    different passes."""
    rng = np.random.default_rng(853)
    points = [row[:4] for row in DECAY_PANEL] + list(zip(
        rng.uniform(0.2, 0.95, 12), rng.uniform(0.5, 2.0, 12),
        rng.uniform(0.5, 2.0, 12), rng.uniform(0.05, 0.45, 12)))
    params = [params_from_dimensionless(*point, omega=PANEL_OMEGA) for point in points]
    states = [SystemState.from_y(0.002 * p.l1, 0.002, 0.002) for p in params]
    return params, states, rng.permutation(np.linspace(1.0, 3.0, 32)).tolist(), 101


@pytest.mark.parametrize("rows", [_panel_rows, _sparse_panel_rows, _readme_row, _mixed_rows],
                         ids=["panel", "sparse_panel", "readme", "mixed_32"])
def test_batch_matches_scipy(rows):
    # one batch against one scipy run per row, at the same tolerances and
    # on the same right-hand side: each row spends the evaluations scipy
    # spends on it alone, and its samples agree to rounding
    params, states, t_ends, samples = rows()
    rhs = _rhs(params, DampingModel.FULL_VELOCITY)
    y0 = np.array([s.to_y().as_vector() for s in states])
    calls = [0] * len(params)

    def counted(index, states):
        for i in index:
            calls[i] += 1
        return rhs(index, states)

    sol = _dop853.solve_ivp(counted, y0, t_ends, samples, rtol=RTOL, atol=ATOL,
                            max_evals=MAX_RHS_EVALS)
    assert sol.status == 0 and sol.message is None and sol.t_reached is None
    nfev = []
    for i, (y, t_end, times, states_got) in enumerate(zip(y0, t_ends, sol.t, sol.y)):
        ref = scipy_solve_ivp(lambda t, v, i=i: rhs([i], [v.tolist()]), (0.0, t_end), y,
                              method="DOP853", rtol=RTOL, atol=ATOL,
                              t_eval=np.linspace(0.0, t_end, samples))
        assert ref.status == 0
        nfev.append(ref.nfev)
        assert np.array_equal(times, ref.t)
        assert np.max(np.abs(states_got - ref.y.T)) <= 1e-12
    assert calls == nfev
    assert sol.nfev == sum(nfev)


def test_first_stopped_row_ends_the_batch():
    # a row that runs out of evaluations ends the batch with its own
    # message and time, after the rows it outlasted reached their ends;
    # a row whose right-hand side is not finite at t=0 ends it before any
    # step
    params, states, t_ends, samples = _readme_row()
    rhs = _rhs(params * 3, DampingModel.FULL_VELOCITY)
    y0 = np.array([states[0].to_y().as_vector()] * 3)
    t_ends = [1.0, 60.0, 2.0]
    alone = _dop853.solve_ivp(rhs, y0[1:2], t_ends[1:2], 21, rtol=RTOL, atol=ATOL,
                              max_evals=600)
    sol = _dop853.solve_ivp(rhs, y0, t_ends, 21, rtol=RTOL, atol=ATOL, max_evals=600)
    assert sol.status == alone.status == -1
    assert sol.message.endswith(": 600 right-hand-side evaluations spent")
    assert sol.message == alone.message
    assert 2.0 < sol.t_reached < 60.0 and abs(sol.t_reached - alone.t_reached) <= 1e-8
    assert np.isfinite(sol.y[[0, 2]]).all() and np.isnan(sol.y[1][-1]).all()
    assert np.array_equal(np.isnan(sol.y[1]), np.isnan(alone.y[0]))
    assert np.nanmax(np.abs(sol.y[1] - alone.y[0])) <= 1e-12

    y0[2, 4] = np.nan
    sol = _dop853.solve_ivp(rhs, y0, t_ends, 21, rtol=RTOL, atol=ATOL,
                            max_evals=MAX_RHS_EVALS)
    assert sol.status == -1 and sol.message == "right-hand side is not finite at t=0"
    assert sol.t_reached == 0.0 and sol.nfev == 3
    assert np.isnan(sol.y).all()
