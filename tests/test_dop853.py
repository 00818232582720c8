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
    assert np.array_equal(_dop853.C, ref.C)
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


@pytest.mark.parametrize("rows", [_panel_rows, _sparse_panel_rows, _readme_row],
                         ids=["panel", "sparse_panel", "readme"])
def test_batch_matches_scipy(rows):
    # one batch against one scipy run per row, at the same tolerances and
    # on the same right-hand sides: the same evaluations, and samples that
    # agree to rounding
    params, states, t_ends, samples = rows()
    funs = [_rhs(p, DampingModel.FULL_VELOCITY) for p in params]
    y0 = np.array([s.to_y().as_vector() for s in states])
    sol = _dop853.solve_ivp(funs, y0, t_ends, samples, rtol=RTOL, atol=ATOL,
                            max_evals=MAX_RHS_EVALS)
    assert sol.status == 0 and sol.message == [None] * len(funs)
    assert sol.t_reached.tolist() == t_ends
    nfev = 0
    for fun, y, t_end, times, states_got in zip(funs, y0, t_ends, sol.t, sol.y):
        ref = scipy_solve_ivp(lambda t, v, fun=fun: fun(t, v.tolist()), (0.0, t_end), y,
                              method="DOP853", rtol=RTOL, atol=ATOL,
                              t_eval=np.linspace(0.0, t_end, samples))
        assert ref.status == 0
        nfev += ref.nfev
        assert np.array_equal(times, ref.t)
        assert np.max(np.abs(states_got - ref.y.T)) <= 1e-12
    assert sol.nfev == nfev


def test_rows_stop_on_their_own():
    # a row whose right-hand side is not finite at t=0, and one that runs
    # out of evaluations, stop with their own message and time; the third
    # runs to its end as it would alone
    params, states, t_ends, samples = _readme_row()
    fun = _rhs(params[0], DampingModel.FULL_VELOCITY)
    y0 = np.array([states[0].to_y().as_vector()] * 3)
    y0[0, 4] = np.nan
    alone = _dop853.solve_ivp([fun], y0[2:], [2.0], 21, rtol=RTOL, atol=ATOL,
                              max_evals=MAX_RHS_EVALS)
    sol = _dop853.solve_ivp([fun] * 3, y0, [1.0, 60.0, 2.0], 21, rtol=RTOL, atol=ATOL,
                            max_evals=600)
    assert sol.status == -1
    assert sol.message[0] == "right-hand side is not finite at t=0"
    assert sol.message[1].endswith(": 600 right-hand-side evaluations spent")
    assert sol.message[2] is None
    assert sol.t_reached[0] == 0.0 and 0.0 < sol.t_reached[1] < 60.0
    assert sol.t_reached[2] == 2.0
    assert np.all(np.isnan(sol.y[0])) and np.isnan(sol.y[1][-1]).all()
    assert np.max(np.abs(sol.y[2] - alone.y[0])) <= 1e-15
