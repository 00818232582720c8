"""Cross-module consistency checks behind the ``verify`` CLI command.

Each check pits one production path against an independent oracle:
explicit accelerations vs the assembled inertia system, the factorized
characteristic polynomial vs the general one, root moduli vs the
annulus, the Routh-Hurwitz verdict vs computed root signs, and fitted
nonlinear decay rates vs the spectral prediction.
The acceptance suite runs these same checks at larger sizes and asserts
``CheckResult.worst``, the number each verdict compares to its tolerance.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from . import spectral
from .dynamics import DampingModel, _accel_q_arrays, _accel_y_arrays, _y_constants
from .params import PhysicalParams, SystemState, params_from_dimensionless
from .regions import empirical_decay_rates


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    worst: float  # worst error or violation, or a count of failures


# (field, low, high) of each uniform variate of one parameter draw, in
# the order the draw consumes the generator.  Identical pendula draw no
# twin fields (each copies its first-pendulum field); undamped draws skip
# every beta, which stays zero.
_PARAM_DRAWS = (("m0", 0.2, 4.0), ("m1", 0.1, 2.0), ("m2", 0.1, 2.0),
                ("l1", 0.3, 2.5), ("l2", 0.3, 2.5), ("beta1", 0.02, 1.0),
                ("beta2", 0.02, 1.0), ("beta0", 0.02, 2.0), ("k", 0.5, 40.0))
_TWINS = {"m2": "m1", "l2": "l1", "beta2": "beta1"}


def _draw_layout(damped: bool, identical: bool):
    """Uniform bounds of one draw's variates, and the column that each
    ``PhysicalParams`` field takes from [variates..., 0.0, g]."""
    draws = [d for d in _PARAM_DRAWS if (damped or not d[0].startswith("beta"))
             and not (identical and d[0] in _TWINS)]
    col = {name: j for j, (name, _, _) in enumerate(draws)}
    if identical:
        col.update({twin: col[first] for twin, first in _TWINS.items() if first in col})
    col["g"] = len(draws) + 1
    take = np.array([col.get(f, len(draws)) for f in PhysicalParams.__dataclass_fields__])
    return take, np.array([d[1] for d in draws]), np.array([d[2] for d in draws])


_LAYOUTS = {(d, i): _draw_layout(d, i) for d in (True, False) for i in (True, False)}


def random_params_batch(rng: np.random.Generator, n: int, *, damped: bool = True,
                        identical: bool = False) -> np.ndarray:
    """n physically sensible random draws as (n, 10) parameter rows.

    The rows are in ``PhysicalParams`` field order, the batch form that
    ``spectral.char_poly_general`` takes.  The generator is consumed
    exactly as by n successive :func:`random_params` calls, and row i
    holds the i-th of those draws to the bit.
    """
    take, low, high = _LAYOUTS[damped, identical]
    ext = np.zeros((n, len(low) + 2))  # [variates..., 0.0, g], indexed by ``take``
    # what rng.uniform computes per variate, low + (high - low) * u, without
    # the cost of its broadcasting path on a one-row draw
    ext[:, :len(low)] = low + (high - low) * rng.random((n, len(low)))
    ext[:, -1] = PhysicalParams.g
    return ext[:, take]


def random_params(rng: np.random.Generator, *, damped: bool = True,
                  identical: bool = False) -> PhysicalParams:
    """A physically sensible random parameter draw."""
    row = random_params_batch(rng, 1, damped=damped, identical=identical)[0]
    return PhysicalParams(*row.tolist())


def check_formulation_equivalence(rng: np.random.Generator, n: int = 10_000) -> CheckResult:
    """Explicit y-form accelerations vs the mass-matrix solve, both damping models."""
    worst = 0.0
    per_set = 500
    for _ in range(max(1, n // per_set)):
        p = random_params(rng)
        x = rng.uniform(-1, 1, per_set)
        t1, t2 = rng.uniform(-1, 1, (2, per_set))
        xd, t1d, t2d = rng.uniform(-1, 1, (3, per_set))
        model = DampingModel.FULL_VELOCITY if rng.random() < 0.7 else DampingModel.ROTATIONAL_ONLY
        xdd_q, a1, a2 = _accel_q_arrays(x, t1, t2, xd, t1d, t2d, p, model)
        ref = np.stack([xdd_q, a1 + a2, a1 - a2])
        got = np.stack(_accel_y_arrays(x, t1 + t2, t1 - t2, xd, t1d + t2d, t1d - t2d,
                                        _y_constants(p, model)))
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=0))
        worst = max(worst, float(np.max(np.max(np.abs(got - ref), axis=0) / scale)))
    return CheckResult("formulation_equivalence", worst <= 1e-9,
                       f"max relative disagreement {worst:.3e} (tol 1e-9)", worst)


def check_factorization(rng: np.random.Generator, n: int = 200) -> CheckResult:
    """Quadratic x quartic reproduces the sextic for identical pendula,
    under both damping models on the same n draws.

    The product is built column-wise, each coefficient summing its terms
    in ascending degree of the quadratic, the order of ``np.polymul``.
    That one goes through a BLAS dot product, which may fuse a
    multiply-add, so a row can differ from it in the last bit.
    """
    rows = random_params_batch(rng, n, identical=True)
    worst = 0.0
    for model in DampingModel:
        quad, quart = spectral.char_poly_identical(rows, model)
        prod = np.zeros((n, 7))
        for j in range(3):
            prod[:, j:j + 5] += quart * quad[:, j:j + 1]
        ref = spectral.char_poly_general(rows, model)
        worst = max(worst, float(np.max(np.abs(prod - ref) / np.abs(ref), initial=0.0)))
    return CheckResult("factorization", worst <= 1e-12,
                       f"max relative coefficient error {worst:.3e} (tol 1e-12)", worst)


# Polynomials are drawn, built, tested and solved in blocks of at most
# this many rows.  An annulus block consumes the generator as its rows
# drawn one at a time would; a Routh-Hurwitz block draws its root-built
# rows apart (``_rh_block``).  The bound keeps the stacked companion
# matrices and polish temporaries small: one 2,000-row batch instead
# raises the peak RSS of a process running three ``verify`` passes from
# 39.7 to 41.5 MB.
_ROOT_BLOCK = 256


def _blocks(n: int):
    """Index ranges of the blocks that cover n polynomials."""
    return (range(start, min(start + _ROOT_BLOCK, n)) for start in range(0, n, _ROOT_BLOCK))


def check_ek_containment(rng: np.random.Generator, n: int = 2000) -> CheckResult:
    """Every sextic root modulus inside the annulus [ρm, ρM]."""
    worst = 0.0
    for block in _blocks(n):
        coeffs = spectral.char_poly_general(random_params_batch(rng, len(block)))
        rho_m, rho_M = spectral.enestrom_kakeya(coeffs)
        mod = np.abs(spectral.poly_roots(coeffs))
        below = np.max(rho_m[:, None] * (1 - spectral.ANNULUS_SLACK) - mod, axis=1) / rho_m
        above = np.max(mod - rho_M[:, None] * (1 + spectral.ANNULUS_SLACK), axis=1) / rho_M
        worst = max(worst, float(np.max(below)), float(np.max(above)))
    return CheckResult("ek_containment", worst <= 0.0,
                       f"max relative annulus violation {worst:.3e}", worst)


def _rh_block(rng: np.random.Generator, block: range) -> np.ndarray:
    """Sextics of one ``check_rh_vs_roots`` block.

    The k rows i % 4 == 0 are built from roots, possibly unstable: first
    one (k, 5) draw uniform in [-2, 0.8], four real roots and the real
    part re of a conjugate pair, then one (k,) draw of its imaginary part
    im, uniform in [0.1, 2].  The other rows come last, from
    :func:`random_params_batch`.
    """
    built = np.arange(block.start, block.stop) % 4 == 0
    roots = rng.uniform(-2.0, 0.8, (np.count_nonzero(built), 5))
    re, im = roots[:, 4], rng.uniform(0.1, 2.0, len(roots))
    # ascending coefficients of λ² − 2re·λ + re² + im², times each (λ − r)
    monic = np.zeros((len(roots), 7))
    monic[:, 0], monic[:, 1], monic[:, 2] = re * re + im * im, -2.0 * re, 1.0
    for d in range(2, 6):
        r = roots[:, d - 2:d - 1]
        monic[:, 1:d + 2] = monic[:, :d + 1] - r * monic[:, 1:d + 2]
        monic[:, :1] *= -r
    coeffs = np.empty((len(block), 7))
    coeffs[built] = monic
    coeffs[~built] = spectral.char_poly_general(random_params_batch(rng, len(block) - len(roots)))
    return coeffs


def check_rh_vs_roots(rng: np.random.Generator, n: int = 2000) -> CheckResult:
    """Chain verdict equals the root-sign verdict, stable and unstable."""
    bad = 0
    for block in _blocks(n):
        coeffs = _rh_block(rng, block)
        verdicts = spectral.routh_hurwitz(coeffs).stable
        stable_roots = np.all(spectral.poly_roots(coeffs).real < 0, axis=1)
        bad += int(np.count_nonzero(verdicts != stable_roots))
    return CheckResult("rh_vs_roots", bad == 0, f"{bad} verdict mismatches out of {n}", bad)


# Curated (eta, X, Y, mu, t_end_periods) quadrant points for the decay
# comparison: all four zones at every eta in {0.25, 0.5, 1.0}, quartic
# roots in two complex pairs, and prediction gaps wide enough (>= 30%)
# to resolve by envelope fitting at the +-5% criterion.  t_end is in
# units of the pendulum period 2π/ω; each entry leaves the slow modes
# at least 5 envelope peaks in the fit window while keeping every
# signal above the integrator noise floor.
DECAY_PANEL: list[tuple[float, float, float, float, float]] = [
    (0.25, 0.9966, 0.5962, 0.1110, 7.8),   # Z1
    (0.25, 0.9254, 0.5545, 0.1011, 8.6),   # Z1
    (0.25, 1.2790, 0.7693, 0.2419, 6.5),   # Z2
    (0.25, 1.3391, 0.6648, 0.2507, 6.1),   # Z2
    (0.25, 0.8862, 0.7689, 0.2100, 7.8),   # Z3
    (0.25, 0.8335, 0.7166, 0.2253, 8.2),   # Z3
    (0.25, 1.0991, 0.9413, 0.1743, 6.8),   # Z4
    (0.25, 1.0859, 0.9723, 0.1786, 6.8),   # Z4
    (0.50, 0.0064, 0.2368, 0.4320, 6.9),   # Z1
    (0.50, 0.0071, 0.2033, 0.4221, 7.2),   # Z1
    (0.50, 1.3592, 0.7733, 0.1264, 6.0),   # Z2
    (0.50, 1.6174, 1.1979, 0.1621, 6.3),   # Z2
    (0.50, 0.0105, 1.9690, 0.0833, 8.5),   # Z3
    (0.50, 0.0107, 4.2816, 0.3511, 8.1),   # Z3
    (0.50, 1.0410, 1.2770, 0.2004, 7.3),   # Z4
    (0.50, 0.9917, 1.4533, 0.3352, 7.6),   # Z4
    (1.00, 0.0149, 11.1321, 0.3058, 5.0),  # Z1
    (1.00, 0.2585, 0.1802, 0.0360, 11.0),  # Z2
    (1.00, 0.0157, 3.7815, 0.1899, 5.0),   # Z3
    (1.00, 0.1690, 0.1523, 0.0230, 11.4),  # Z4
]
PANEL_OMEGA = np.pi  # pendulum frequency ω of every panel point (1/s)


def check_decay_panel(panel=None) -> CheckResult:
    """Nonlinear σ/δ decay ordering vs the spectral prediction.

    Both predicted rates come from ``spectral.char_poly_identical`` of the
    parameter rows that are integrated: the σ rate is the least |Re| of
    the quartic's roots, the δ rate half the quadratic's middle
    coefficient (β/m).  The panel's trajectories are integrated as one
    batch.  A point whose trajectory is too short for the envelope fit
    counts as failed, with the fit's message in place of the rates.
    """
    panel = DECAY_PANEL[:4] if panel is None else panel
    omega = PANEL_OMEGA
    period = 2.0 * np.pi / omega
    params = [params_from_dimensionless(eta, X, Y, mu, omega=omega)
              for eta, X, Y, mu, _ in panel]
    quads, quarts = spectral.char_poly_identical([dataclasses.astuple(p) for p in params])
    sigma_rates = np.min(np.abs(spectral.poly_roots(quarts).real), axis=1).tolist()
    delta_rates = (0.5 * quads[:, 1]).tolist()
    fits = empirical_decay_rates(
        params, [SystemState.from_y(0.002 * p.l1, 0.002, 0.002) for p in params],
        [n_periods * period for *_, n_periods in panel])
    bad = []
    for (eta, X, Y, mu, _), sigma_rate_pred, delta_rate_pred, fit in zip(
            panel, sigma_rates, delta_rates, fits):
        predict_sigma_faster = sigma_rate_pred > delta_rate_pred
        if isinstance(fit, ValueError):  # too few envelope peaks to fit
            bad.append((eta, X, Y, mu, str(fit)))
            continue
        rs, rd = fit
        ok = ((rs > rd) == predict_sigma_faster
              and abs(rd - delta_rate_pred) <= 0.05 * delta_rate_pred
              and abs(rs - sigma_rate_pred) <= 0.05 * sigma_rate_pred)
        if not ok:
            bad.append((eta, X, Y, mu, rs, rd, sigma_rate_pred, delta_rate_pred))
    return CheckResult("decay_panel", not bad,
                       f"{len(bad)} of {len(panel)} panel points failed" +
                       (f"; first: {bad[0]}" if bad else ""), len(bad))


def run_verification(seed: int) -> list[CheckResult]:
    """Run the whole suite.  Each check is called by its module-global
    name, so a wrapper set on this module sees its call."""
    rng = np.random.default_rng(seed)
    return [check_formulation_equivalence(rng), check_factorization(rng),
            check_ek_containment(rng), check_rh_vs_roots(rng), check_decay_panel()]
