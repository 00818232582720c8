"""Damped linear system, characteristic polynomials, and root localization.

The linearized first-order system in (x, σ, δ, ẋ, σ̇, δ̇) has a degree-6
characteristic polynomial with positive coefficients whenever all three
damping coefficients are positive; a Routh-Hurwitz chain then certifies
that every root has negative real part, and the Eneström-Kakeya theorem
confines the root moduli to the annulus

    ρm = min_j a_j/a_{j+1}  ≤  |z|  ≤  ρM = max_j a_j/a_{j+1}.

For identical pendula the sextic factors into the δ quadratic
λ² + (βp/mp) λ + g/l times the x/σ quartic

    (1−2μ) λ⁴ + [X+(1−2μ)η] ω λ³ + (ηX+Y+1) ω² λ²
             + (ηY+X+2μη) ω³ λ + Y ω⁴,

whose consecutive coefficient ratios

    a0/a1 = Y ω/(X+ηY+2μη)            a1/a2 = (X+ηY+2μη) ω/(ηX+Y+1)
    a2/a3 = (ηX+Y+1) ω/(X+(1−2μ)η)    a3/a4 = (X+(1−2μ)η) ω/(1−2μ)

satisfy a0/a1 ≤ a2/a3 and a1/a2 ≤ a3/a4, so ρm is attained by one of the
first two and ρM by one of the last two; which one wins partitions the
(X, Y) quadrant into the zones Z1-Z4 used by the region classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import DampingModel
from .params import ParamError, PhysicalParams, ReducedParams, identical_pendula, reduce_params

__all__ = [
    "EKInapplicableError",
    "PolyCoeffs",
    "RouthHurwitzReport",
    "GershgorinDisc",
    "SpectrumReport",
    "linear_system",
    "char_poly_general",
    "char_poly_identical",
    "quartic_from_dimensionless",
    "poly_roots",
    "routh_hurwitz",
    "enestrom_kakeya",
    "ek_ratios",
    "ek_ratios_dimensionless",
    "zone_from_ratios",
    "gershgorin",
    "spectrum_report",
]


class EKInapplicableError(ValueError):
    """Eneström-Kakeya needs strictly positive coefficients."""


@dataclass(frozen=True)
class PolyCoeffs:
    """Real polynomial, coefficients in ascending degree order."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.size < 1 or c[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)


# ---------------------------------------------------------------------------
# Linear system and characteristic polynomials
# ---------------------------------------------------------------------------


def linear_system(p: PhysicalParams,
                  model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """6x6 matrix of the linearized system in (x, σ, δ, ẋ, σ̇, δ̇)."""
    p.require_positive_pendula("linear system")
    m, g, k = p.m, p.g, p.k
    l1, l2 = p.l1, p.l2
    m1, m2 = p.m1, p.m2
    b0, b1, b2 = p.beta0, p.beta1, p.beta2
    mu = (m1 + m2) / (2.0 * m)
    bm1, bm2 = b1 / m1, b2 / m2
    full = model is DampingModel.FULL_VELOCITY

    J = np.zeros((6, 6))
    J[0, 3] = J[1, 4] = J[2, 5] = 1.0

    d = m * (1.0 - 2.0 * mu)
    J[3, 0] = -k / d
    J[3, 1] = 0.5 * (m1 + m2) * g / d
    J[3, 2] = 0.5 * (m1 - m2) * g / d
    J[3, 3] = -b0 / d

    e = d * l1 * l2
    J[4, 0] = (l1 + l2) * k / e
    J[4, 1] = -(l1 + l2) * m * g / 2.0 / e
    J[4, 2] = 0.5 * g * (m * (l1 - l2) - 2.0 * (m1 * l1 - m2 * l2)) / e
    J[5, 0] = -(l1 - l2) * k / e
    J[5, 1] = (l1 - l2) * m * g / 2.0 / e
    J[5, 2] = -0.5 * g * (m * (l1 + l2) - 2.0 * (m1 * l1 + m2 * l2)) / e
    if full:
        beta = b0 + b1 + b2
        J[4, 3] = ((l1 + l2) * beta - m * (bm1 * l2 + bm2 * l1)
                   - (bm1 - bm2) * (m1 * l1 - m2 * l2)) / e
        J[5, 3] = (-(l1 - l2) * beta - m * (bm1 * l2 - bm2 * l1)
                   + (bm1 - bm2) * (m1 * l1 + m2 * l2)) / e
    else:
        J[4, 3] = (l1 + l2) * b0 / e
        J[5, 3] = -(l1 - l2) * b0 / e
    J[4, 4] = J[5, 5] = -0.5 * (bm1 + bm2)
    J[4, 5] = J[5, 4] = -0.5 * (bm1 - bm2)
    return J


def char_poly_general(p: PhysicalParams,
                      model: DampingModel = DampingModel.FULL_VELOCITY) -> PolyCoeffs:
    """Degree-6 characteristic polynomial, leading coefficient 1−2μ."""
    p.require_positive_pendula("characteristic polynomial")
    m, g, k = p.m, p.g, p.k
    gl1, gl2 = g / p.l1, g / p.l2
    km = k / m
    m1, m2 = p.m1, p.m2
    b0, b1, b2 = p.beta0, p.beta1, p.beta2
    bm1, bm2 = b1 / m1, b2 / m2
    mu = (m1 + m2) / (2.0 * m)
    one = 1.0 - 2.0 * mu

    a0 = gl1 * gl2 * km
    a4 = (b0 / m) * (bm1 + bm2) + one * bm1 * bm2 + gl2 * (m - m1) / m + gl1 * (m - m2) / m + km
    a5 = b0 / m + one * (bm1 + bm2)
    a6 = one
    if model is DampingModel.FULL_VELOCITY:
        beta = b0 + b1 + b2
        a1 = gl1 * gl2 * beta / m + km * (gl2 * bm1 + gl1 * bm2)
        a2 = (gl1 * gl2
              + gl1 * (km + bm1 * (b0 + b2) / m)
              + gl2 * (km + bm2 * (b0 + b1) / m)
              + km * bm1 * bm2
              + (gl2 - gl1) / m * (b0 * (bm1 - bm2) - b1 * b2 * (m1 - m2) / (m1 * m2)))
        a3 = ((b1 / m) * (gl2 * (m - m1) / m1 + gl1)
              + (b2 / m) * (gl1 * (m - m2) / m2 + gl2)
              + km * (bm1 + bm2)
              + (b0 / m) * (gl1 + gl2)
              + b0 * b1 * b2 / (m * m1 * m2))
    else:
        a1 = gl1 * gl2 * b0 / m + km * (gl2 * bm1 + gl1 * bm2)
        a2 = (gl1 * gl2 + km * (gl1 + gl2)
              + gl2 * (b0 / m) * bm1 + gl1 * (b0 / m) * bm2
              + km * bm1 * bm2)
        a3 = (b0 * b1 * b2 / (m * m1 * m2)
              + (b0 / m) * (gl1 + gl2)
              + bm1 * gl2 * (m - m1) / m
              + bm2 * gl1 * (m - m2) / m
              + km * (bm1 + bm2))
    return PolyCoeffs(np.array([a0, a1, a2, a3, a4, a5, a6]))


def quartic_from_dimensionless(eta: float, X: float, Y: float, mu: float,
                               omega: float = 1.0) -> PolyCoeffs:
    """The x/σ quartic for identical pendula in dimensionless form."""
    one = 1.0 - 2.0 * mu
    return PolyCoeffs(np.array([
        Y * omega**4,
        (eta * Y + X + 2.0 * mu * eta) * omega**3,
        (eta * X + Y + 1.0) * omega**2,
        (X + one * eta) * omega,
        one,
    ]))


def char_poly_identical(p: PhysicalParams) -> tuple[PolyCoeffs, PolyCoeffs]:
    """(δ quadratic, x/σ quartic) whose product is the sextic.

    Rejects parameter sets whose pendula are not identical.
    """
    if not identical_pendula(p):
        raise ParamError("m2", "factorized polynomial requires identical pendula")
    p.require_positive_pendula("factorized polynomial")
    rp = reduce_params(p)
    length = 0.5 * (p.l1 + p.l2)
    bp_over_mp = (p.beta1 + p.beta2) / (p.m1 + p.m2)
    quad = PolyCoeffs(np.array([p.g / length, bp_over_mp, 1.0]))
    quart = quartic_from_dimensionless(rp.eta, rp.X, rp.Y, rp.mu, rp.omega)
    return quad, quart


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


def _horner(desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row-wise ``np.polyval``: desc is (n, N), z is (n, k)."""
    y = np.zeros_like(z)
    for j in range(desc.shape[1]):
        y = y * z + desc[:, j:j + 1]
    return y


def _polish(desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton step per root, kept only where it lowers |p(r)|."""
    deriv = desc[:, :-1] * np.arange(desc.shape[1] - 1, 0, -1)
    pv = _horner(desc, roots)
    dv = _horner(deriv, roots)
    safe = np.abs(dv) > 0
    polished = np.where(safe, roots - np.where(safe, pv, 0) / np.where(safe, dv, 1), roots)
    better = np.abs(_horner(desc, polished)) < np.abs(pv)
    return np.where(better, polished, roots)


def poly_roots(c) -> np.ndarray:
    """All complex roots via companion-matrix eigenvalues + Newton polish.

    ``c`` is a :class:`PolyCoeffs`, giving a (degree,) array, or an
    (n, degree+1) array of ascending coefficients with nonzero leading
    terms, giving (n, degree).  A batch is solved with one stacked
    eigenvalue call; each row gets exactly the bits ``np.roots`` and
    ``np.polyval`` would give it alone: the companion matrices are
    built the same way, zero constant terms become appended zero roots,
    and rows whose eigenvalues are all real are polished in real
    arithmetic.  One Newton step is applied per root and kept only when
    it reduces the residual |p(r)|.
    """
    single = isinstance(c, PolyCoeffs)
    asc = np.atleast_2d(c.coeffs if single else np.asarray(c, dtype=float))
    n, size = asc.shape
    if size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if np.any(asc[:, -1] == 0.0):
        raise ValueError("leading coefficient must be nonzero")
    desc = asc[:, ::-1]
    # zero constant terms: np.roots strips them and appends roots at 0
    n_zero = np.argmax(asc != 0.0, axis=1)
    eig = np.zeros((n, size - 1), dtype=complex)
    real = np.ones(n, dtype=bool)
    for t in np.unique(n_zero).tolist():
        rows = np.flatnonzero(n_zero == t)
        m = size - 1 - t  # companion size after stripping
        if m == 0:
            continue
        comp = np.zeros((rows.size, m, m))
        comp[:, 1:, :-1] = np.eye(m - 1)
        comp[:, 0, :] = -desc[rows, 1:m + 1] / desc[rows, :1]
        w = np.linalg.eigvals(comp)
        eig[rows, :m] = w
        real[rows] = np.all(w.imag == 0.0, axis=1)
    roots = np.empty((n, size - 1), dtype=complex)
    roots[real] = _polish(desc[real], eig[real].real)
    roots[~real] = _polish(desc[~real], eig[~real])
    if single:
        return roots[0].real if real[0] else roots[0]
    return roots


# ---------------------------------------------------------------------------
# Routh-Hurwitz chain for the degree-6 polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouthHurwitzReport:
    """Seven-entry chain; stable iff all entries positive.

    ``degenerate`` marks a zero pivot, in which case the verdict comes
    from the computed roots instead of the chain (entries past the pivot
    are NaN).
    """

    chain: np.ndarray
    stable: bool
    degenerate: bool = False


def routh_hurwitz(c: PolyCoeffs) -> RouthHurwitzReport:
    """Routh-Hurwitz first column for a degree-6 polynomial."""
    if c.degree != 6:
        raise ValueError("chain is specific to degree-6 polynomials")
    a0, a1, a2, a3, a4, a5, a6 = c.coeffs
    scale = float(np.max(np.abs(c.coeffs)))
    tiny = 1e-13

    chain = np.full(7, np.nan)
    chain[0], chain[1], chain[6] = a6, a5, a0

    def degenerate() -> RouthHurwitzReport:
        stable = bool(np.all(poly_roots(c).real < 0))
        return RouthHurwitzReport(chain=chain, stable=stable, degenerate=True)

    if abs(a5) <= tiny * scale:
        return degenerate()
    b1 = a4 * a5 - a3 * a6
    b2 = a2 * a5 - a1 * a6
    if abs(b1) <= tiny * (abs(a4 * a5) + abs(a3 * a6)):
        return degenerate()
    chain[2] = b1 / a5
    d1 = a3 - a5 * b2 / b1
    chain[3] = d1
    den = a3 * b1 - a5 * b2
    if abs(den) <= tiny * (abs(a3 * b1) + abs(a5 * b2)):
        return degenerate()
    e1 = (b2 - b1 * (a1 * b1 - a0 * a5**2) / den) / a5
    chain[4] = e1
    if abs(e1) <= tiny * (abs(b2) + abs(b1 * (a1 * b1 - a0 * a5**2) / den)) / abs(a5):
        return degenerate()
    chain[5] = a1 - a0 * a5**2 / b1 - a0 * d1 / e1
    return RouthHurwitzReport(chain=chain, stable=bool(np.all(chain > 0)))


# ---------------------------------------------------------------------------
# Eneström-Kakeya annulus and zone selection
# ---------------------------------------------------------------------------


def enestrom_kakeya(c: PolyCoeffs) -> tuple[float, float]:
    """Annulus radii (ρm, ρM) from consecutive coefficient ratios."""
    if np.any(c.coeffs <= 0):
        raise EKInapplicableError("all coefficients must be strictly positive")
    ratios = c.coeffs[:-1] / c.coeffs[1:]
    return float(np.min(ratios)), float(np.max(ratios))


def ek_ratios_dimensionless(eta, X, Y, mu, omega=1.0):
    """The four quartic coefficient ratios; broadcasts over array input."""
    eta, X, Y, mu = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (eta, X, Y, mu)))
    one = 1.0 - 2.0 * mu
    q1 = X + eta * Y + 2.0 * mu * eta
    q2 = eta * X + Y + 1.0
    q3 = X + one * eta
    return np.stack([Y / q1, q1 / q2, q2 / q3, q3 / one], axis=-1) * omega


def ek_ratios(rp: ReducedParams) -> np.ndarray:
    """Closed-form annulus ratios (a0/a1, a1/a2, a2/a3, a3/a4) in 1/s.

    Defined for the identical-pendula regime; nominal reductions are
    rejected.
    """
    if rp.nominal:
        raise ParamError("l2", "annulus ratios require identical pendula")
    return ek_ratios_dimensionless(rp.eta, rp.X, rp.Y, rp.mu, rp.omega)


def zone_from_ratios(ratios: np.ndarray) -> str:
    """Zone label by which ratios attain ρm and ρM (ties to lower index)."""
    r = np.asarray(ratios, dtype=float)
    rm_first = r[0] <= r[1]
    rM_first = r[2] >= r[3]
    if rm_first:
        return "Z1" if rM_first else "Z2"
    return "Z3" if rM_first else "Z4"


# ---------------------------------------------------------------------------
# Gershgorin discs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GershgorinDisc:
    center: complex
    radius: float


def gershgorin(mat: np.ndarray) -> list[GershgorinDisc]:
    """Row discs (center = diagonal entry, radius = off-diagonal row sum)."""
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    discs = []
    for i in range(a.shape[0]):
        radius = float(np.sum(np.abs(a[i]))) - abs(a[i, i])
        discs.append(GershgorinDisc(center=complex(a[i, i]), radius=radius))
    return discs


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Everything the spectrum command emits for one parameter set."""

    coeffs: np.ndarray  # ascending sextic coefficients
    roots: np.ndarray  # complex, sorted by (re, im)
    rh_chain: np.ndarray
    stable: bool
    rh_degenerate: bool
    ek_applicable: bool
    rho_m: Optional[float]
    rho_M: Optional[float]
    ratios: Optional[np.ndarray]  # quartic ratios, identical pendula only
    zone: Optional[str]
    omega: Optional[float]
    gershgorin_discs: list[GershgorinDisc] = field(default_factory=list)
    quadratic: Optional[np.ndarray] = None
    quartic: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        def opt(x):
            return None if x is None else float(x)

        d = {
            "coeffs": [float(v) for v in self.coeffs],
            "roots": [{"re": float(r.real), "im": float(r.imag)} for r in self.roots],
            "rh_chain": [None if np.isnan(v) else float(v) for v in self.rh_chain],
            "stable": self.stable,
            "rh_degenerate": self.rh_degenerate,
            "rho_m": opt(self.rho_m),
            "rho_M": opt(self.rho_M),
            "ratios": None if self.ratios is None else [float(v) for v in self.ratios],
            "zone": self.zone,
            "omega": opt(self.omega),
            "gershgorin": [
                {"center_re": float(g.center.real), "center_im": float(g.center.imag),
                 "radius": float(g.radius)}
                for g in self.gershgorin_discs
            ],
        }
        if self.ratios is not None and self.omega:
            d["ratios_over_omega"] = [float(v) / self.omega for v in self.ratios]
            d["rho_m_over_omega"] = opt(self.rho_m / self.omega if self.rho_m is not None else None)
            d["rho_M_over_omega"] = opt(self.rho_M / self.omega if self.rho_M is not None else None)
        d["factors"] = None
        if self.quadratic is not None:
            d["factors"] = {
                "quadratic": [float(v) for v in self.quadratic],
                "quartic": [float(v) for v in self.quartic],
            }
        return d


def spectrum_report(p: PhysicalParams,
                    model: DampingModel = DampingModel.FULL_VELOCITY) -> SpectrumReport:
    """Characteristic polynomial, roots, RH chain, annulus, and discs."""
    poly = char_poly_general(p, model)
    roots = np.sort_complex(poly_roots(poly))
    rh = routh_hurwitz(poly)
    discs = gershgorin(linear_system(p, model))

    try:
        rho_m, rho_M = enestrom_kakeya(poly)
        ek_ok = True
    except EKInapplicableError:
        rho_m = rho_M = None
        ek_ok = False

    ratios = zone = omega = quad_c = quart_c = None
    if identical_pendula(p) and model is DampingModel.FULL_VELOCITY:
        rp = reduce_params(p)
        omega = rp.omega
        quad, quart = char_poly_identical(p)
        quad_c, quart_c = quad.coeffs, quart.coeffs
        if np.all(quart.coeffs > 0):  # ratios undefined for undamped factors
            ratios = ek_ratios(rp)
            zone = zone_from_ratios(ratios)

    return SpectrumReport(
        coeffs=poly.coeffs, roots=roots, rh_chain=rh.chain, stable=rh.stable,
        rh_degenerate=rh.degenerate, ek_applicable=ek_ok,
        rho_m=rho_m, rho_M=rho_M, ratios=ratios, zone=zone, omega=omega,
        gershgorin_discs=discs, quadratic=quad_c, quartic=quart_c,
    )
