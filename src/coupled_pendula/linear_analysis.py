"""Frictionless linearization: normal modes and closed-form solutions.

Linearizing the undamped system about the hanging equilibrium gives
A1 ÿ + V1 y = 0 in y = (x, σ, δ) with

    A1 = [[m,   Bm+, Bm−],        V1 = [[k, 0,       0      ],
          [Bm+, Am+, Am−],              [0, Bm+ g/2, Bm− g/2],
          [Bm−, Am−, Am+]],             [0, Bm− g/2, Bm+ g/2]],

the congruence transforms L⁻¹ Ā L⁻¹ of the q-form inertia and stiffness
matrices.  The squared mode frequencies solve the cubic

    (1−2μ) ν³ − λ̄ [Y + 2Λ²(1−μ−ρ)] ν² + λ̄² Λ² (1+2Y) ν − λ̄³ Λ² Y = 0.

For equal rod lengths (Λ = 1, ρ = 0) the value ν = ω² = g/l is an exact
root (the δ mode) and the remaining pair is

    ω²_{1,2} = ω² (1+Y) / (2(1−2μ)) · [1 ∓ √(1 − 4Y(1−2μ)/(1+Y)²)],

ordered ω1 < ω < ω2.  The x/σ modal amplitudes share the coupling length

    B = μ l / √((1+Y)² − 4Y(1−2μ))
      = (l²/2g) (ω1²−ω²)(ω2²−ω²) / (ω1²−ω2²) > 0,

which vanishes as Y → ∞ and has its maximum at Y = 1−4μ when μ < 1/4
(value (l/2)√(μ/(2(1−2μ)))) and at Y → 0 (value μl) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import CrossCheckError
from .params import (
    ParamError,
    PhysicalParams,
    ReducedParams,
    SystemState,
    _rel_close,
    identical_pendula,
    reduce_params,
)

__all__ = [
    "FundamentalFrequencies",
    "ClosedFormSolution",
    "frequency_cubic",
    "fundamental_frequencies",
    "coupling_b",
    "closed_form",
    "delta_closed_form",
    "amplitude_profiles",
    "periodicity_params",
    "perturbation_p",
]


def frequency_cubic(rp: ReducedParams) -> np.ndarray:
    """Ascending coefficients of the squared-frequency cubic."""
    lb, Lam2 = rp.lambda_bar, rp.Lambda**2
    return np.array([
        -(lb**3) * Lam2 * rp.Y,
        lb**2 * Lam2 * (1.0 + 2.0 * rp.Y),
        -lb * (rp.Y + 2.0 * Lam2 * (1.0 - rp.mu - rp.rho)),
        1.0 - 2.0 * rp.mu,
    ])


def _pair_squared(omega_sq, Y, mu):
    """(ω1², ω2²) of the equal-length closed form; on floats or arrays."""
    s = np.sqrt(1.0 - 4.0 * Y * (1.0 - 2.0 * mu) / (1.0 + Y) ** 2)
    base = omega_sq * (1.0 + Y) / (2.0 * (1.0 - 2.0 * mu))
    # lower root via the product relation: stable when s is close to 1
    return 2.0 * Y * omega_sq / ((1.0 + Y) * (1.0 + s)), base * (1.0 + s)


def _coupling_length(mu, Y, length):
    """B = μ l / √((1+Y)² − 4Y(1−2μ)); on floats or arrays."""
    return mu * length / np.sqrt((1.0 + Y) ** 2 - 4.0 * Y * (1.0 - 2.0 * mu))


@dataclass(frozen=True)
class FundamentalFrequencies:
    """Squared mode frequencies, ascending; closed forms when l1 = l2."""

    lambdas: np.ndarray  # three positive values [1/s^2], ascending
    equal_length: bool
    omega1_sq: Optional[float] = None
    omega2_sq: Optional[float] = None
    omega_sq: Optional[float] = None


def fundamental_frequencies(p: PhysicalParams) -> FundamentalFrequencies:
    """Solve the squared-frequency cubic.

    Equal lengths use the exact root ω² = g/l plus the closed-form pair;
    the general case uses companion-matrix eigenvalues, which stay
    robust when roots approach each other near μ → 1/2.
    """
    rp = reduce_params(p)
    if _rel_close(p.l1, p.l2):
        omega_sq = p.g / (0.5 * (p.l1 + p.l2))
        w1s, w2s = _pair_squared(omega_sq, rp.Y, rp.mu)
        lams = np.sort(np.array([w1s, omega_sq, w2s]))
        return FundamentalFrequencies(lambdas=lams, equal_length=True,
                                      omega1_sq=w1s, omega2_sq=w2s,
                                      omega_sq=omega_sq)
    asc = frequency_cubic(rp)
    roots = np.roots(asc[::-1])
    scale = float(np.max(np.abs(roots)))
    if not np.all(np.abs(roots.imag) <= 1e-9 * scale):
        raise CrossCheckError("complex mode frequencies")
    lams = np.sort(roots.real)
    if not lams[0] > 0:
        raise CrossCheckError("non-positive mode frequency")
    return FundamentalFrequencies(lambdas=lams, equal_length=False)


def coupling_b(p: PhysicalParams) -> float:
    """Modal coupling length B (m) for equal rod lengths.

    Cross-checks the closed form against the frequency-product identity
    to 1e-10 relative before returning; a violation raises
    :class:`CrossCheckError`.
    """
    if not _rel_close(p.l1, p.l2):
        raise ParamError("l2", "coupling length requires l1 = l2")
    rp = reduce_params(p)
    length = 0.5 * (p.l1 + p.l2)
    b = float(_coupling_length(rp.mu, rp.Y, length))
    ff = fundamental_frequencies(p)
    w1s, w2s, ws = ff.omega1_sq, ff.omega2_sq, ff.omega_sq
    lhs = length**2 / (2.0 * p.g) * (w1s - ws) * (w2s - ws) / (w1s - w2s)
    # the differences cancel catastrophically for extreme Y; allow the
    # corresponding floating-point floor on top of the 1e-10 tolerance
    floor = (length**2 / (2.0 * p.g) * (w2s - ws) / (w2s - w1s)
             * 64.0 * np.finfo(float).eps * max(w1s, ws))
    if not abs(lhs - b) <= 1e-10 * b + floor:
        raise CrossCheckError("coupling-length identity violated")
    return b


# ---------------------------------------------------------------------------
# Closed-form solution for equal lengths, no friction
# ---------------------------------------------------------------------------


def _amp_phase(a: float, b_over_w: float) -> tuple[float, float]:
    return math.hypot(a, b_over_w), math.atan2(b_over_w, a)


@dataclass(frozen=True)
class ClosedFormSolution:
    """Three-mode solution x, σ, δ = Σ_k amp_k cos(w_k t − phase_k).

    Modes are ordered (ω1, ω2, ω).  Amplitudes are signed; phases come
    from the two-argument arctangent, which fixes the quadrant that a
    tan-based convention would leave ambiguous.
    """

    omega1: float
    omega2: float
    omega: float
    B: float
    zeta1: float
    zeta2: float
    C0: float
    C0_dot: float
    alpha: float  # δ-mode phase
    alpha1: float  # σ mode-1 phase
    alpha2: float  # σ mode-2 phase
    phi1: float  # x mode-2 phase (built from ζ1 data)
    phi2: float  # x mode-1 phase (built from ζ2 data)
    x_amps: tuple[float, float, float]
    sigma_amps: tuple[float, float, float]
    delta_amps: tuple[float, float, float]

    @property
    def mode_freqs(self) -> np.ndarray:
        return np.array([self.omega1, self.omega2, self.omega])

    def evaluate(self, t):
        """Coordinates and velocities at time(s) t; shape (..., 6)."""
        t = np.asarray(t, dtype=float)
        w = self.mode_freqs
        phases = np.array([
            [self.phi2, self.phi1, 0.0],
            [self.alpha1, self.alpha2, self.alpha],
            [0.0, 0.0, self.alpha],
        ])
        amps = np.array([self.x_amps, self.sigma_amps, self.delta_amps])
        arg = t[..., None, None] * w - phases  # (..., 3 coords, 3 modes)
        pos = np.sum(amps * np.cos(arg), axis=-1)
        vel = np.sum(-amps * w * np.sin(arg), axis=-1)
        return np.concatenate([pos, vel], axis=-1)


def closed_form(p: PhysicalParams, y0: SystemState) -> ClosedFormSolution:
    """Exact solution of the linearized frictionless equal-length system."""
    if not p.frictionless:
        raise ParamError("beta0", "closed form requires a frictionless system")
    if not _rel_close(p.l1, p.l2):
        raise ParamError("l2", "closed form requires l1 = l2")
    p.require_positive_pendula("closed-form solution")

    length = 0.5 * (p.l1 + p.l2)
    rp = reduce_params(p)
    ff = fundamental_frequencies(p)
    w1s, w2s, ws = ff.omega1_sq, ff.omega2_sq, ff.omega_sq
    w1, w2, om = math.sqrt(w1s), math.sqrt(w2s), math.sqrt(ws)
    z1 = w1s / (w1s - ws)
    z2 = w2s / (w2s - ws)
    b = coupling_b(p)
    r = (p.m1 - p.m2) / (p.m1 + p.m2)

    yv = y0.to_y().as_vector()
    x0, s0, d0, xd0, sd0, dd0 = (float(v) for v in yv)
    c0 = s0 + r * d0
    c0d = sd0 + r * dd0

    # x(t): mode 1 carries the ζ2-loaded data, mode 2 the ζ1-loaded data.
    r2x, phi2 = _amp_phase(2 * z2 * x0 / length + c0, (2 * z2 * xd0 / length + c0d) / w1)
    r1x, phi1 = _amp_phase(2 * z1 * x0 / length + c0, (2 * z1 * xd0 / length + c0d) / w2)
    x_amps = (b * r2x, -b * r1x, 0.0)

    yml = rp.Y / (rp.mu * length)
    s1a, alpha1 = _amp_phase(yml * x0 - z1 * c0, (yml * xd0 - z1 * c0d) / w1)
    s2a, alpha2 = _amp_phase(yml * x0 - z2 * c0, (yml * xd0 - z2 * c0d) / w2)
    ad, alpha = _amp_phase(d0, dd0 / om)
    sigma_amps = (2 * b / length * s1a, -2 * b / length * s2a, -r * ad)
    delta_amps = (0.0, 0.0, ad)

    return ClosedFormSolution(
        omega1=w1, omega2=w2, omega=om, B=b, zeta1=z1, zeta2=z2,
        C0=c0, C0_dot=c0d, alpha=alpha, alpha1=alpha1, alpha2=alpha2,
        phi1=phi1, phi2=phi2,
        x_amps=x_amps, sigma_amps=sigma_amps, delta_amps=delta_amps,
    )


def delta_closed_form(p: PhysicalParams, delta0: float, delta0_dot: float, t):
    """δ(t) for identical pendula: damped oscillator with rate ηω/2.

    Overdamped (η² > 4), underdamped (η² < 4), and critical branches.
    Accepts scalar or array t.
    """
    if not identical_pendula(p):
        raise ParamError("m2", "delta closed form requires identical pendula")
    p.require_positive_pendula("delta closed form")
    rp = reduce_params(p)
    om, eta = rp.omega, rp.eta
    t = np.asarray(t, dtype=float)
    decay = np.exp(-0.5 * eta * om * t)
    if eta**2 > 4.0:
        q = 0.5 * math.sqrt(eta**2 - 4.0) * om
        out = decay * (delta0 * np.cosh(q * t)
                       + (delta0_dot + 0.5 * eta * om * delta0) / q * np.sinh(q * t))
    elif eta**2 < 4.0:
        q = 0.5 * math.sqrt(4.0 - eta**2) * om
        out = decay * (delta0 * np.cos(q * t)
                       + (delta0_dot + 0.5 * eta * om * delta0) / q * np.sin(q * t))
    else:
        out = decay * (delta0 + (delta0_dot + 0.5 * eta * om * delta0) * t)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Amplitude profiles, periodicity, and asymmetry perturbation
# ---------------------------------------------------------------------------


def amplitude_profiles(mu: float, Y, length: float):
    """Per-datum oscillation amplitude profiles (Φ, Ψ⁽¹⁾, Ψ⁽²⁾) over Y.

    Φ(Y) = 2 B Y/(μ l²) rises from 0 to 2/l; Ψ⁽¹⁾ = −(2/l) B ζ1 grows
    from 0 through 1/2 at Y = 1 toward 1; Ψ⁽²⁾ = (2/l) B ζ2 falls from 1
    through 1/2 at Y = 1 toward 0.  Vectorized over Y ≥ 0.
    """
    if not 0.0 < mu < 0.5:
        raise ParamError("mu", "must lie in (0, 1/2)")
    if length <= 0:
        raise ParamError("l1", "length must be positive")
    Y = np.asarray(Y, dtype=float)
    if np.any(Y < 0):
        raise ParamError("Y", "must be non-negative")
    b = _coupling_length(mu, Y, length)
    w1s, w2s = _pair_squared(1.0, Y, mu)  # in units of omega^2
    z1 = w1s / (w1s - 1.0)
    z2 = w2s / (w2s - 1.0)
    phi = 2.0 * b * Y / (mu * length**2)
    psi1_prof = -2.0 / length * b * z1
    psi2_prof = 2.0 / length * b * z2
    if phi.ndim:
        return phi, psi1_prof, psi2_prof
    return float(phi), float(psi1_prof), float(psi2_prof)


def periodicity_params(q_num: int, q_den: int, mu: float) -> tuple[float, ...]:
    """Spring parameters Y making the beam motion periodic.

    The beam is periodic exactly when ω1/ω2 equals the rational
    q = q_num/q_den in (0, 1), i.e. when √(Y(1−2μ))/(1+Y) = q/(1+q²).
    That quadratic in Y has zero or two positive solutions (reciprocal
    to each other); returns them ascending, or () when none exist.
    """
    if not (isinstance(q_num, int) and isinstance(q_den, int)):
        raise ValueError("q_num and q_den must be integers")
    if not 0 < q_num < q_den:
        raise ValueError("require 0 < q_num < q_den")
    if not 0.0 <= mu < 0.5:  # mu = 0 admitted as the light-pendula limit
        raise ParamError("mu", "must lie in [0, 1/2)")
    r = q_num * q_den / float(q_num**2 + q_den**2)  # q/(1+q^2)
    one = 1.0 - 2.0 * mu
    disc = one * (one - 4.0 * r**2)
    if disc < 0.0:
        return ()
    mid = one - 2.0 * r**2
    root = math.sqrt(disc)
    lo = (mid - root) / (2.0 * r**2)
    hi = (mid + root) / (2.0 * r**2)
    if root == 0.0:
        return (lo,)
    return (lo, hi)


def perturbation_p(p: PhysicalParams) -> tuple[float, float, float]:
    """Normalized frequency cubic evaluated at the equal-length references.

    Returns P(λ̄), P(ω1²), P(ω2²) with P(ν) = cubic(ν)/λ̄³ and the
    reference pair computed from the closed form with ω² → λ̄.  All three
    vanish when l1 = l2; the sign of P at a reference point is the sign
    of the corresponding root shift caused by the asymmetry.
    """
    rp = reduce_params(p)
    asc = frequency_cubic(rp)
    lb = rp.lambda_bar
    w1s, w2s = _pair_squared(lb, rp.Y, rp.mu)

    def pn(nu: float) -> float:
        return float(np.polyval(asc[::-1], nu) / lb**3)

    return pn(lb), pn(w1s), pn(w2s)
