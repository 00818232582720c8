"""Damped linear system, characteristic polynomials, and root localization.

The linearized first-order system in (x, σ, δ, ẋ, σ̇, δ̇) has a degree-6
characteristic polynomial with positive coefficients whenever all three
damping coefficients are positive; a Routh-Hurwitz chain then certifies
that every root has negative real part, and the Eneström-Kakeya theorem
confines the root moduli to the annulus

    ρm = min_j a_j/a_{j+1}  ≤  |z|  ≤  ρM = max_j a_j/a_{j+1}.

For identical pendula the sextic factors into the δ quadratic
λ² + (βp/mp) λ + g/l times the x/σ quartic

    (1−2μ) λ⁴ + [X+(1−2μ)η] ω λ³ + (ηX+Y+1) ω² λ² + a1 ω³ λ + Y ω⁴,

with a1 = ηY+X+2μη under full-velocity damping and a1 = ηY+X under
rotational-only damping.  Its consecutive coefficient ratios

    a0/a1 = Y ω/a1                    a1/a2 = a1 ω/(ηX+Y+1)
    a2/a3 = (ηX+Y+1) ω/(X+(1−2μ)η)    a3/a4 = (X+(1−2μ)η) ω/(1−2μ)

satisfy a0/a1 ≤ a2/a3 and a1/a2 ≤ a3/a4 under either damping model, so
ρm is attained by one of the first two and ρM by one of the last two;
which one wins partitions the (X, Y) quadrant into the zones Z1-Z4 used
by the region classifier.

The sextic, its identical-pendula factors, the chain, the annulus and
the roots take their parameter sets or polynomials as the rows of an
array; a single one is a one-row batch.  Rows never mix: the arithmetic
runs column-wise, so a row gets the same bits in any batch.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CrossCheckError, DampingModel
from .params import ParamError, PhysicalParams, _reduced_groups, _rel_close, identical_pendula

__all__ = [
    "ANNULUS_SLACK",
    "EKInapplicableError",
    "RouthHurwitzReport",
    "linear_system",
    "char_poly_general",
    "char_poly_identical",
    "poly_roots",
    "routh_hurwitz",
    "enestrom_kakeya",
    "ek_ratios_dimensionless",
    "zone_from_ratios",
    "gershgorin",
    "spectrum_report",
]


class EKInapplicableError(ValueError):
    """Eneström-Kakeya needs strictly positive coefficients."""


# ---------------------------------------------------------------------------
# Linear system and characteristic polynomials
# ---------------------------------------------------------------------------


def linear_system(p: PhysicalParams,
                  model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """6x6 matrix of the linearized system in (x, σ, δ, ẋ, σ̇, δ̇)."""
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
    e = d * l1 * l2
    J[3, 0] = -k / d
    J[3, 1] = 0.5 * (m1 + m2) * g / d
    J[3, 2] = 0.5 * (m1 - m2) * g / d
    J[3, 3] = -b0 / d

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


def _sextic(m0, m1, m2, l1, l2, b0, b1, b2, k, g, model):
    """The seven ascending sextic coefficients, on parameter columns."""
    m = m0 + m1 + m2
    gl1, gl2 = g / l1, g / l2
    km = k / m
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
    return a0, a1, a2, a3, a4, a5, a6


def char_poly_general(p, model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """Degree-6 characteristic polynomials, leading coefficient 1−2μ.

    ``p`` is an (n, 10) array of parameter rows in ``PhysicalParams``
    field order (m0, m1, m2, l1, l2, beta0, beta1, beta2, k, g); the
    result is (n, 7) ascending coefficients.
    """
    rows = _checked_rows(p, "characteristic polynomial")
    return np.stack(_sextic(*rows.T, model), axis=1)


def _checked_rows(p, where: str) -> np.ndarray:
    """``p`` as (n, 10) parameter rows with positive pendulum masses."""
    rows = np.asarray(p, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 10:
        raise ValueError("parameter rows must have shape (n, 10)")
    for name, col in (("m1", rows[:, 1]), ("m2", rows[:, 2])):
        if not np.all(col > 0):
            raise ParamError(name, f"must be positive for {where}")
    return rows


def _quartic(eta, X, Y, mu, model):
    """Ascending x/σ quartic coefficients at ω = 1, on columns."""
    one = 1.0 - 2.0 * mu
    a1 = eta * Y + X
    if model is DampingModel.FULL_VELOCITY:
        a1 = a1 + 2.0 * mu * eta
    return (Y, a1, eta * X + Y + 1.0, X + one * eta, one)


def char_poly_identical(p, model: DampingModel = DampingModel.FULL_VELOCITY
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(δ quadratics, x/σ quartics) whose row-wise products are the sextics
    of :func:`char_poly_general` under the same damping model.

    ``p`` is (n, 10) parameter rows as for :func:`char_poly_general`; the
    result is (n, 3) and (n, 5) ascending coefficients.  The quadratic is
    the same under both models; only the quartic's a1 differs (module
    docstring).  Rejects rows whose pendula are not identical.  The
    quartic is the ω = 1 one with a_j scaled by ω^(4−j), each power a
    float ``**`` (libm ``pow``): numpy's array power squares exactly and
    runs its own ``pow`` for higher powers, and each differs from libm in
    the last bit for some doubles.
    """
    rows = _checked_rows(p, "factorized polynomial")
    _, m1, m2, l1, l2, _, b1, b2, _, g = rows.T
    if not np.all(_rel_close(l1, l2) & _rel_close(m1, m2) & _rel_close(b1, b2)):
        raise ParamError("m2", "factorized polynomial requires identical pendula")
    mu, _, Y, _, _, omega, eta, X = _reduced_groups(*rows.T, sqrt=np.sqrt)
    quad = (g / (0.5 * (l1 + l2)), (b1 + b2) / (m1 + m2), 1.0)
    powers = np.array([[w ** j for j in range(4, -1, -1)] for w in omega.tolist()])
    return (np.stack(np.broadcast_arrays(*quad), axis=1),
            np.stack(_quartic(eta, X, Y, mu, model), axis=1) * powers)


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
    """One Newton step per root, kept only where it lowers |p(r)|; a step
    whose residual overflows compares false, so it is never kept."""
    deriv = desc[:, :-1] * np.arange(desc.shape[1] - 1, 0, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        pv = _horner(desc, roots)
        dv = _horner(deriv, roots)
        safe = np.abs(dv) > 0
        polished = np.where(safe, roots - np.where(safe, pv, 0) / np.where(safe, dv, 1), roots)
        better = np.abs(_horner(desc, polished)) < np.abs(pv)
    return np.where(better, polished, roots)


def poly_roots(c) -> np.ndarray:
    """All complex roots via companion-matrix eigenvalues + Newton polish.

    ``c`` is an (n, degree+1) array of ascending coefficients with
    nonzero leading terms; the result is (n, degree) complex.  The batch
    is solved with one stacked eigenvalue call of the companion matrices
    ``np.roots`` builds, and one Newton step is applied per root and kept
    only when it reduces the residual |p(r)|.  Each row with a nonzero
    constant term gets the bits ``np.roots`` and ``np.polyval`` would give
    it alone; every row a command builds has one (the sextic's
    a0 = (g/l1)(g/l2)(k/m) > 0, the quartic's a0 = Yω⁴ > 0).  A zero
    constant term gives a root at exactly 0.
    """
    asc = np.asarray(c, dtype=float)
    if asc.ndim != 2:
        raise ValueError("coefficients must have shape (n, degree+1)")
    n, size = asc.shape
    if size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if np.any(asc[:, -1] == 0.0):
        raise ValueError("leading coefficient must be nonzero")
    desc = asc[:, ::-1]
    comp = np.zeros((n, size - 1, size - 1))
    comp[:, 1:, :-1] = np.eye(size - 2)
    comp[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    return _polish(desc, np.linalg.eigvals(comp).astype(complex))


# ---------------------------------------------------------------------------
# Routh-Hurwitz chain for the degree-6 polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouthHurwitzReport:
    """Seven-entry chains, one row per polynomial; stable iff all entries
    positive.

    ``degenerate`` marks a zero pivot, in which case the verdict comes
    from the computed roots instead of the chain (entries past the pivot
    are NaN).  ``stable`` and ``degenerate`` have one entry per row.
    """

    chain: np.ndarray
    stable: np.ndarray
    degenerate: np.ndarray


# Column of the first chain entry that a zero pivot leaves undefined, for
# the pivots a5, b1, den and e1 in the order the chain meets them.
_NAN_FROM = np.array([2, 2, 4, 5])


def routh_hurwitz(c) -> RouthHurwitzReport:
    """Routh-Hurwitz first column for degree-6 polynomials.

    ``c`` is an (n, 7) array of ascending coefficients with nonzero
    leading terms; the chain runs on all rows at once, each row stopping
    its pivot tests at its first zero pivot.  Only degenerate rows are
    solved with :func:`poly_roots`.
    """
    asc = np.asarray(c, dtype=float)
    if asc.ndim != 2 or asc.shape[1] != 7:
        raise ValueError("chain is specific to degree-6 polynomials")
    if np.any(asc[:, -1] == 0.0):
        raise ValueError("leading coefficient must be nonzero")
    a0, a1, a2, a3, a4, a5, a6 = asc.T
    tiny = 1e-13

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b1 = a4 * a5 - a3 * a6
        b2 = a2 * a5 - a1 * a6
        d1 = a3 - a5 * b2 / b1
        den = a3 * b1 - a5 * b2
        a0a5sq = a0 * (a5 * a5)
        tail = b1 * (a1 * b1 - a0a5sq) / den
        e1 = (b2 - tail) / a5
        chain = np.stack([a6, a5, b1 / a5, d1, e1,
                          a1 - a0a5sq / b1 - a0 * d1 / e1, a0], axis=1)
        zero_pivot = np.stack([
            np.abs(a5) <= tiny * np.max(np.abs(asc), axis=1),
            np.abs(b1) <= tiny * (np.abs(a4 * a5) + np.abs(a3 * a6)),
            np.abs(den) <= tiny * (np.abs(a3 * b1) + np.abs(a5 * b2)),
            np.abs(e1) <= tiny * (np.abs(b2) + np.abs(tail)) / np.abs(a5),
        ], axis=1)
    degenerate = np.any(zero_pivot, axis=1)
    nan_from = np.where(degenerate, _NAN_FROM[np.argmax(zero_pivot, axis=1)], 7)
    chain[np.arange(7) >= nan_from[:, None]] = np.nan
    chain[:, 6] = a0  # the last entry needs no pivot
    stable = np.all(chain > 0, axis=1)
    if np.any(degenerate):
        stable[degenerate] = np.all(poly_roots(asc[degenerate]).real < 0, axis=1)
    return RouthHurwitzReport(chain=chain, stable=stable, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Eneström-Kakeya annulus and zone selection
# ---------------------------------------------------------------------------

#: Relative slack of every check that the root moduli lie in the annulus [ρm, ρM].
ANNULUS_SLACK = 1e-9


def enestrom_kakeya(c):
    """Annulus radii (ρm, ρM) from consecutive coefficient ratios.

    ``c`` is an (n, N) array of ascending coefficients; the result is two
    (n,) arrays.  Any non-positive coefficient in any row raises.
    """
    asc = np.asarray(c, dtype=float)
    if np.any(asc <= 0):
        raise EKInapplicableError("all coefficients must be strictly positive")
    ratios = asc[:, :-1] / asc[:, 1:]
    return np.min(ratios, axis=1), np.max(ratios, axis=1)


def ek_ratios_dimensionless(eta, X, Y, mu):
    """The four ratios a_j/a_{j+1} of the ω = 1 full-velocity quartic, the
    region layer's; broadcasts over array input.  ``spectrum`` takes its
    ratios from the quartic factor it prints instead."""
    a = _quartic(*(np.asarray(v, dtype=float) for v in (eta, X, Y, mu)),
                 DampingModel.FULL_VELOCITY)
    r = np.empty(a[1].shape + (4,))  # a1 holds all four inputs: the broadcast shape
    for j in range(4):
        np.divide(a[j], a[j + 1], out=r[..., j])
    return r


_ZONES = ("Z1", "Z2", "Z3", "Z4")


def zone_from_ratios(ratios) -> str:
    """Zone label Z1-Z4 of one row of four ratios: Z1 when a0/a1 attains ρm
    and a2/a3 attains ρM, plus 2 when a0/a1 does not and 1 when a2/a3 does
    not; ties go to the lower index."""
    r0, r1, r2, r3 = ratios
    return _ZONES[2 * (not r0 <= r1) + (not r2 >= r3)]


# ---------------------------------------------------------------------------
# Gershgorin discs
# ---------------------------------------------------------------------------


def gershgorin(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row discs as (centers, radii): the diagonal entries and the
    off-diagonal absolute row sums."""
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    centers = np.diag(a)
    return centers, np.sum(np.abs(a), axis=1) - np.abs(centers)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


def _cross_check_error(message: str, roots: np.ndarray, deciding: np.ndarray,
                       real_parts: bool = False) -> Exception:
    """:class:`CrossCheckError`, or :class:`ParamError` when the roots that
    decide the check lie below what companion eigenvalues resolve,
    4·2⁻⁵²·max|z|: each in modulus, or, with ``real_parts``, each in |Re z|.
    Then the coefficients span too many decades for the check to decide."""
    tol = 4 * 2.0**-52 * np.max(np.abs(roots))
    if np.all(np.abs(roots[deciding]) <= tol):
        return ParamError("coeffs", f"roots too small to resolve fail a cross-check ({message})")
    if real_parts and np.all(np.abs(roots[deciding].real) <= tol):
        return ParamError("coeffs", "real parts too close to 0 to resolve fail a "
                                    f"cross-check ({message})")
    return CrossCheckError(message)


def spectrum_report(p: PhysicalParams,
                    model: DampingModel = DampingModel.FULL_VELOCITY) -> dict:
    """The ``spectrum`` document of one parameter set.

    Holds the sextic, its roots sorted by (re, im), the Routh-Hurwitz
    chain, the annulus (``None`` radii when a coefficient is not
    positive) and the Gershgorin discs; for identical pendula, under
    either damping model, also the factors and ω = √(quadratic a0) and,
    when the quartic is damped, the quartic's ratios and their zone, each
    computed from the printed factors.  The roots must agree with the chain
    verdict and lie in the annulus to :data:`ANNULUS_SLACK`, or
    :class:`CrossCheckError` is raised, or :class:`ParamError` when the
    roots that decide a disagreement are too small, or too close to the
    imaginary axis, to resolve (see :func:`_cross_check_error`).
    """
    row = np.array([dataclasses.astuple(p)])
    coeffs = char_poly_general(row, model)
    roots = np.sort_complex(poly_roots(coeffs)[0])
    rh = routh_hurwitz(coeffs)
    stable = bool(rh.stable[0])
    if bool(np.all(roots.real < 0)) != stable:
        # Re ≥ 0, or the largest Re when every root says stable
        deciding = roots.real >= min(0.0, roots.real.max())
        raise _cross_check_error("chain verdict disagrees with roots", roots, deciding,
                                 real_parts=True)
    try:
        rho_m, rho_M = (float(r[0]) for r in enestrom_kakeya(coeffs))
    except EKInapplicableError:
        rho_m = rho_M = None
    else:
        mods = np.abs(roots)
        outside = (mods < rho_m * (1 - ANNULUS_SLACK)) | (mods > rho_M * (1 + ANNULUS_SLACK))
        if np.any(outside):
            raise _cross_check_error("root outside the annulus", roots, outside)
    centers, radii = gershgorin(linear_system(p, model))
    doc = {
        "coeffs": coeffs[0].tolist(),
        "roots": [{"re": r.real, "im": r.imag} for r in roots.tolist()],
        "rh_chain": [None if math.isnan(v) else v for v in rh.chain[0].tolist()],
        "stable": stable,
        "rh_degenerate": bool(rh.degenerate[0]),
        "rho_m": rho_m,
        "rho_M": rho_M,
        "ratios": None,
        "zone": None,
        "omega": None,
        "gershgorin": [{"center_re": c, "center_im": 0.0, "radius": r}
                       for c, r in zip(centers.tolist(), radii.tolist())],
        "factors": None,
    }
    if identical_pendula(p):
        quad, quart = (f[0] for f in char_poly_identical(row, model))
        doc["omega"] = omega = math.sqrt(quad[0])  # quad[0] = g/l = ω²
        doc["factors"] = {"quadratic": quad.tolist(), "quartic": quart.tolist()}
        if np.all(quart > 0):  # ratios undefined for undamped factors
            ratios = (quart[:-1] / quart[1:]).tolist()
            doc["ratios"] = ratios
            doc["zone"] = zone_from_ratios(ratios)
            doc["ratios_over_omega"] = [v / omega for v in ratios]
            doc["rho_m_over_omega"] = None if rho_m is None else rho_m / omega
            doc["rho_M_over_omega"] = None if rho_M is None else rho_M / omega
    return doc
