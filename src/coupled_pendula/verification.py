"""Cross-module consistency checks behind the ``verify`` CLI command.

Each check pits one production path against an independent oracle:
explicit accelerations vs the assembled inertia system, the factorized
characteristic polynomial vs the general one, root moduli vs the
annulus, the Routh-Hurwitz verdict vs computed root signs, and fitted
nonlinear decay rates vs the spectral prediction.  ``fault`` injects a
deliberate perturbation into the named check so the harness can confirm
a broken formula is actually caught.
The acceptance suite runs these same checks at larger sizes and asserts
``CheckResult.worst``, the number each verdict compares to its tolerance.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import spectral
from .dynamics import DampingModel, _accel_q_arrays, _accel_y_arrays
from .params import PhysicalParams, SystemState, params_from_dimensionless
from .regions import empirical_decay_rates


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    worst: float  # worst error or violation, or a count of failures


def random_params(rng: np.random.Generator, *, damped: bool = True,
                  identical: bool = False) -> PhysicalParams:
    """A physically sensible random parameter draw."""
    m0 = rng.uniform(0.2, 4.0)
    if identical:
        m1 = m2 = rng.uniform(0.1, 2.0)
        l1 = l2 = rng.uniform(0.3, 2.5)
        b1 = b2 = rng.uniform(0.02, 1.0) if damped else 0.0
    else:
        m1, m2 = rng.uniform(0.1, 2.0, 2)
        l1, l2 = rng.uniform(0.3, 2.5, 2)
        b1, b2 = rng.uniform(0.02, 1.0, 2) if damped else (0.0, 0.0)
    b0 = rng.uniform(0.02, 2.0) if damped else 0.0
    k = rng.uniform(0.5, 40.0)
    return PhysicalParams(m0=m0, m1=m1, m2=m2, l1=l1, l2=l2,
                          beta0=b0, beta1=b1, beta2=b2, k=k)


def check_formulation_equivalence(rng: np.random.Generator, n: int = 10_000,
                                  fault: bool = False) -> CheckResult:
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
        got = np.stack(_accel_y_arrays(x, t1 + t2, t1 - t2, xd, t1d + t2d, t1d - t2d, p, model))
        if fault:
            got = got * (1.0 + 1e-6)
            fault = False
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=0))
        worst = max(worst, float(np.max(np.max(np.abs(got - ref), axis=0) / scale)))
    return CheckResult("formulation_equivalence", worst <= 1e-9,
                       f"max relative disagreement {worst:.3e} (tol 1e-9)", worst)


def check_factorization(rng: np.random.Generator, n: int = 200,
                        fault: bool = False) -> CheckResult:
    """Quadratic x quartic reproduces the sextic for identical pendula."""
    worst = 0.0
    for _ in range(n):
        p = random_params(rng, identical=True)
        quad, quart = spectral.char_poly_identical(p)
        qc = quart.coeffs * (1.0 + 1e-6) if fault else quart.coeffs
        fault = False
        prod = np.polymul(qc[::-1], quad.coeffs[::-1])[::-1]
        ref = spectral.char_poly_general(p).coeffs
        worst = max(worst, float(np.max(np.abs(prod - ref) / np.abs(ref))))
    return CheckResult("factorization", worst <= 1e-12,
                       f"max relative coefficient error {worst:.3e} (tol 1e-12)", worst)


# Polynomials are drawn one at a time, in the same RNG order as a plain
# loop, into blocks of at most this many rows; each block is solved with
# one batched ``poly_roots`` call.  The bound keeps the stacked companion
# matrices and polish temporaries small.
_ROOT_BLOCK = 256


def _blocks(n: int):
    """Index ranges of the blocks that cover n polynomials."""
    return (range(start, min(start + _ROOT_BLOCK, n)) for start in range(0, n, _ROOT_BLOCK))


def check_ek_containment(rng: np.random.Generator, n: int = 2000,
                         fault: bool = False) -> CheckResult:
    """Every sextic root modulus inside the annulus [ρm, ρM]."""
    worst = 0.0
    coeffs = np.empty((_ROOT_BLOCK, 7))
    annulus = np.empty((_ROOT_BLOCK, 2))
    for block in _blocks(n):
        size = len(block)
        for j in range(size):
            poly = spectral.char_poly_general(random_params(rng))
            coeffs[j] = poly.coeffs
            annulus[j] = spectral.enestrom_kakeya(poly)
        mod = np.abs(spectral.poly_roots(coeffs[:size]))
        rho_m, rho_M = annulus[:size].T
        if fault:  # plant a root just outside the first annulus
            mod[0, 0] = rho_M[0] * 1.001
            fault = False
        below = np.max(rho_m[:, None] * (1 - 1e-9) - mod, axis=1) / rho_m
        above = np.max(mod - rho_M[:, None] * (1 + 1e-9), axis=1) / rho_M
        worst = max(worst, float(np.max(below)), float(np.max(above)))
    return CheckResult("ek_containment", worst <= 0.0,
                       f"max relative annulus violation {worst:.3e}", worst)


def check_rh_vs_roots(rng: np.random.Generator, n: int = 2000,
                      fault: bool = False) -> CheckResult:
    """Chain verdict equals the root-sign verdict, stable and unstable."""
    bad = 0
    coeffs = np.empty((_ROOT_BLOCK, 7))
    verdicts = np.empty(_ROOT_BLOCK, dtype=bool)
    for block in _blocks(n):
        size = len(block)
        for j, i in enumerate(block):
            if i % 4 == 0:
                # constructed polynomial, possibly unstable
                roots = rng.uniform(-2.0, 0.8, 6) + 0j
                re, im = rng.uniform(-2.0, 0.8), rng.uniform(0.1, 2.0)
                roots[:2] = (re + 1j * im, re - 1j * im)
                poly = spectral.PolyCoeffs(np.real(np.poly(roots))[::-1])
            else:
                poly = spectral.char_poly_general(random_params(rng))
            coeffs[j] = poly.coeffs
            verdicts[j] = spectral.routh_hurwitz(poly).stable
        if fault:
            verdicts[0] = not verdicts[0]
            fault = False
        stable_roots = np.all(spectral.poly_roots(coeffs[:size]).real < 0, axis=1)
        bad += int(np.count_nonzero(verdicts[:size] != stable_roots))
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


def check_decay_panel(panel=None, fault: bool = False) -> CheckResult:
    """Nonlinear σ/δ decay ordering vs the spectral prediction.

    A point whose trajectory is too short for the envelope fit counts as
    failed, with the fit's message in place of the rates.
    """
    panel = DECAY_PANEL[:4] if panel is None else panel
    omega = PANEL_OMEGA
    period = 2.0 * np.pi / omega
    bad = []
    for eta, X, Y, mu, n_periods in panel:
        p = params_from_dimensionless(eta, X, Y, mu, omega=omega)
        quart = spectral.quartic_from_dimensionless(eta, X, Y, mu, omega)
        sigma_rate_pred = float(np.min(np.abs(spectral.poly_roots(quart).real)))
        delta_rate_pred = 0.5 * eta * omega
        predict_sigma_faster = sigma_rate_pred > delta_rate_pred
        if fault:
            predict_sigma_faster = not predict_sigma_faster
            fault = False
        length = p.g / omega**2
        y0 = SystemState.from_y(0.002 * length, 0.002, 0.002)
        t_end = n_periods * period
        try:
            rs, rd = empirical_decay_rates(p, y0, t_end)
        except ValueError as exc:  # too few envelope peaks to fit
            bad.append((eta, X, Y, mu, str(exc)))
            continue
        ok = ((rs > rd) == predict_sigma_faster
              and abs(rd - delta_rate_pred) <= 0.05 * delta_rate_pred
              and abs(rs - sigma_rate_pred) <= 0.05 * sigma_rate_pred)
        if not ok:
            bad.append((eta, X, Y, mu, rs, rd, sigma_rate_pred, delta_rate_pred))
    return CheckResult("decay_panel", not bad,
                       f"{len(bad)} of {len(panel)} panel points failed" +
                       (f"; first: {bad[0]}" if bad else ""), len(bad))


ALL_CHECKS = ("formulation_equivalence", "factorization", "ek_containment",
              "rh_vs_roots", "decay_panel")


def run_verification(seed: int, fault: Optional[str] = None,
                     fast: bool = False) -> list[CheckResult]:
    """Run the whole suite; ``fault`` names a check to sabotage."""
    if fault is not None and fault not in ALL_CHECKS:
        raise ValueError(f"unknown check {fault!r}")
    rng = np.random.default_rng(seed)
    scale = 5 if fast else 1
    return [
        check_formulation_equivalence(rng, n=10_000 // scale,
                                      fault=fault == "formulation_equivalence"),
        check_factorization(rng, n=200 // scale, fault=fault == "factorization"),
        check_ek_containment(rng, n=2000 // scale, fault=fault == "ek_containment"),
        check_rh_vs_roots(rng, n=2000 // scale, fault=fault == "rh_vs_roots"),
        check_decay_panel(panel=DECAY_PANEL[:2] if fast else None,
                          fault=fault == "decay_panel"),
    ]
