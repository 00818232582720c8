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
(value (l/2)√(μ/(2(1−2μ)))) and at Y → 0 (value μl) otherwise.  The
code takes the pair, B and the modal ratios ζk = ωk²/(ωk²−ω²) from the
first form, with the root written as √((1−Y)² + 8μY), so all three keep
their digits down to light pendula (μ → 0); the second form's
differences cancel there, so it is a test identity, not a runtime check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    CrossCheckError,
    ParamError,
    PhysicalParams,
    ReducedParams,
    SystemState,
    _rel_close,
    identical_pendula,
    reduce_params,
)
from .spectral import poly_roots

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


def _disc_root(Y, mu):
    """r = √((1+Y)² − 4Y(1−2μ)), computed as √((1−Y)² + 8μY): a sum of
    non-negative terms, so it keeps its digits as μ → 0 at Y ≈ 1, and
    ``hypot`` keeps it from overflowing; on floats or arrays."""
    return np.hypot(1.0 - Y, np.sqrt(8.0 * mu * Y))


def _pair_squared(omega_sq, Y, mu):
    """(ω1², ω2²) of the equal-length closed form; on floats or arrays."""
    big = 1.0 + Y + _disc_root(Y, mu)
    # lower root via the product relation ω1²ω2² = Yω⁴/(1−2μ): no cancellation
    return 2.0 * Y * omega_sq / big, omega_sq * big / (2.0 * (1.0 - 2.0 * mu))


def _coupling_length(mu, Y, length):
    """B = μ l / r; on floats or arrays."""
    return mu * length / _disc_root(Y, mu)


def _zetas(Y, mu):
    """(ζ1, ζ2) = (ω1²/(ω1²−ω²), ω2²/(ω2²−ω²)) = (−2Y/(r+d), 2Y/(r−d)) with
    d = 1 − Y; on floats (as 0-d arrays) or arrays.  As (r+d)(r−d) = 8μY,
    ζ1 = −(r−d)/(4μ) and ζ2 = (r+d)/(4μ) too; taking the forms that add
    keeps ζ exact as ω1 or ω2 approaches ω (μ → 0), where ωk² − ω² cancels."""
    d = 1.0 - Y
    t = _disc_root(Y, mu) + abs(d)
    small, large = 2.0 * Y / t, t / (4.0 * mu)
    return np.where(d >= 0, -small, -large), np.where(d >= 0, large, small)


@dataclass(frozen=True, eq=False)
class FundamentalFrequencies:
    """Squared mode frequencies, ascending; closed forms when l1 = l2."""

    lambdas: np.ndarray  # three positive values [1/s^2], ascending
    omega1_sq: Optional[float] = None
    omega2_sq: Optional[float] = None
    omega_sq: Optional[float] = None


def fundamental_frequencies(p: PhysicalParams) -> FundamentalFrequencies:
    """Solve the squared-frequency cubic.

    Equal lengths use the exact root ω² = g/l plus the closed-form pair;
    the general case uses :func:`spectral.poly_roots` (companion-matrix
    eigenvalues with a Newton polish), which stays robust when roots
    approach each other near μ → 1/2.
    """
    rp = reduce_params(p)
    if _rel_close(p.l1, p.l2):
        omega_sq = p.g / (0.5 * (p.l1 + p.l2))
        w1s, w2s = _pair_squared(omega_sq, rp.Y, rp.mu)
        lams = np.sort(np.array([w1s, omega_sq, w2s]))
        return FundamentalFrequencies(lambdas=lams, omega1_sq=w1s, omega2_sq=w2s,
                                      omega_sq=omega_sq)
    roots = poly_roots(frequency_cubic(rp)[None])[0]
    scale = float(np.max(np.abs(roots)))
    if not np.all(np.abs(roots.imag) <= 1e-9 * scale):
        raise CrossCheckError("complex mode frequencies")
    lams = np.sort(roots.real)
    if not lams[0] > 0:
        raise CrossCheckError("non-positive mode frequency")
    return FundamentalFrequencies(lambdas=lams)


def coupling_b(p: PhysicalParams) -> float:
    """Modal coupling length B = μl/√((1+Y)² − 4Y(1−2μ)) (m) for equal rod lengths.

    The closed form keeps its digits down to μ → 0 (``_disc_root``); the
    tests check it against the frequency-product identity of the module
    docstring where that identity's differences do not cancel.
    """
    if not _rel_close(p.l1, p.l2):
        raise ParamError("l2", "coupling length requires l1 = l2")
    rp = reduce_params(p)
    return float(_coupling_length(rp.mu, rp.Y, 0.5 * (p.l1 + p.l2)))


# ---------------------------------------------------------------------------
# Closed-form solution for equal lengths, no friction
# ---------------------------------------------------------------------------


def _amp_phase(a: float, b_over_w: float) -> tuple[float, float]:
    return math.hypot(a, b_over_w), math.atan2(b_over_w, a)


@dataclass(frozen=True, eq=False)
class ClosedFormSolution:
    """Three-mode solution: coordinate i of (x, σ, δ) is
    Σ_k amps[i, k] cos(mode_freqs[k] t − phases[i, k]).

    Modes are ordered (ω1, ω2, ω).  Amplitudes are signed; phases come
    from the two-argument arctangent, which fixes the quadrant that a
    tan-based convention would leave ambiguous.
    """

    mode_freqs: np.ndarray  # (3,): ω1, ω2, ω [1/s]
    amps: np.ndarray  # (3, 3): rows x, σ, δ; columns the modes
    phases: np.ndarray  # (3, 3), laid out as amps

    def evaluate(self, t):
        """Coordinates and velocities at time(s) t; shape (..., 6)."""
        t = np.asarray(t, dtype=float)
        w = self.mode_freqs
        arg = t[..., None, None] * w - self.phases  # (..., 3 coords, 3 modes)
        pos = np.sum(self.amps * np.cos(arg), axis=-1)
        vel = np.sum(-self.amps * w * np.sin(arg), axis=-1)
        return np.concatenate([pos, vel], axis=-1)


def closed_form(p: PhysicalParams, y0: SystemState) -> ClosedFormSolution:
    """Exact solution of the linearized frictionless equal-length system."""
    if not p.frictionless:
        raise ParamError("beta0", "closed form requires a frictionless system")
    if not _rel_close(p.l1, p.l2):
        raise ParamError("l2", "closed form requires l1 = l2")

    length = 0.5 * (p.l1 + p.l2)
    rp = reduce_params(p)
    ff = fundamental_frequencies(p)
    w1, w2, om = (math.sqrt(v) for v in (ff.omega1_sq, ff.omega2_sq, ff.omega_sq))
    z1, z2 = (float(z) for z in _zetas(rp.Y, rp.mu))
    b = float(_coupling_length(rp.mu, rp.Y, length))
    r = (p.m1 - p.m2) / (p.m1 + p.m2)

    x0, s0, d0, xd0, sd0, dd0 = (float(v) for v in y0.to_y().as_vector())
    c0 = s0 + r * d0
    c0d = sd0 + r * dd0

    # x(t): mode 1 carries the ζ2-loaded data, mode 2 the ζ1-loaded data.
    r2x, phi2 = _amp_phase(2 * z2 * x0 / length + c0, (2 * z2 * xd0 / length + c0d) / w1)
    r1x, phi1 = _amp_phase(2 * z1 * x0 / length + c0, (2 * z1 * xd0 / length + c0d) / w2)
    yml = rp.Y / (rp.mu * length)
    s1a, alpha1 = _amp_phase(yml * x0 - z1 * c0, (yml * xd0 - z1 * c0d) / w1)
    s2a, alpha2 = _amp_phase(yml * x0 - z2 * c0, (yml * xd0 - z2 * c0d) / w2)
    ad, alpha = _amp_phase(d0, dd0 / om)

    return ClosedFormSolution(
        mode_freqs=np.array([w1, w2, om]),
        amps=np.array([[b * r2x, -b * r1x, 0.0],
                       [2 * b / length * s1a, -2 * b / length * s2a, -r * ad],
                       [0.0, 0.0, ad]]),
        phases=np.array([[phi2, phi1, 0.0], [alpha1, alpha2, alpha], [0.0, 0.0, alpha]]),
    )


def delta_closed_form(p: PhysicalParams, delta0: float, delta0_dot: float, t):
    """δ(t) for identical pendula: damped oscillator with rate ηω/2.

    Overdamped (η² > 4), underdamped (η² < 4), and critical branches.
    Accepts scalar or array t.
    """
    if not identical_pendula(p):
        raise ParamError("m2", "delta closed form requires identical pendula")
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
    through 1/2 at Y = 1 toward 0.  Vectorized over finite Y ≥ 0.
    """
    if not 0.0 < mu < 0.5:
        raise ParamError("mu", "must lie in (0, 1/2)")
    if not 0.0 < length < math.inf:  # NaN fails the comparison too
        raise ParamError("l1", "length must be positive and finite")
    Y = np.asarray(Y, dtype=float)
    if not np.all((Y >= 0) & (Y < math.inf)):
        raise ParamError("Y", "must be finite and non-negative")
    b = _coupling_length(mu, Y, length)
    z1, z2 = _zetas(Y, mu)
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
