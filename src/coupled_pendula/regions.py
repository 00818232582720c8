"""Classification of the (X, Y) damping/stiffness quadrant.

For identical pendula the δ modes sit at distance ηω/2 from the
imaginary axis while the x/σ spectrum lives in the Eneström-Kakeya
annulus [ρm, ρM].  Comparing the two yields, per quadrant point:

* zone Z1-Z4: which coefficient ratios attain ρm and ρM;
* conic conditions: the four pairwise ratio comparisons as explicit
  quadratic inequalities in (X, Y);
* antiphase facilitation: ηω < 2ρm, split into condition (A) when
  ρm = a0/a1 (zones Z1, Z2) and (B) when ρm = a1/a2 (zones Z3, Z4) —
  the set 𝒜 collects the points whose zone-matching condition holds;
* in-phase impossibility: ηω/2 ≤ ρM always holds for η ≤ 1, so the δ
  pair can never decay faster than the whole x/σ spectrum;
* semicircle membership: ω ≤ ρM, i.e. whether the δ eigenvalue pair
  (modulus exactly ω) lies inside the outer annulus radius;
* a refined bound for quartics with two complex root pairs: whenever
  a2/a4 ≤ 2ρm², every root real part lies left of the negative root of
  r² + (a3/a4) r/2 + (a2/a4 − 2ρm²)/4 = 0; pushing that root left of
  −ηω/2 certifies antiphase tendency without computing roots.  The
  premise never holds in the open quadrant (see ``complex_root_bound``),
  so grid sweeps report the refined verdict as ``na``.

All verdicts here are dimensionless (ω ≡ 1).  Analyses specific to the
η ≤ 1 branch refuse η > 1 rather than guess.  Grid sweeps evaluate every
node at once and keep the verdicts as numpy columns.

``RegionMap.write_csv`` fills one reused uint8 buffer of 16,384 rows per
block, without a Python string per row.  Separators are set once; each
block overwrites every cell column in full, so no byte of the previous
block survives.  Float cells are five uint32 words from the word tables
of ``_e9_cells``, the others one lookup-table row per zone/flag
combination; pad bytes are dropped with ``buf[buf != 0]``.  The bytes
equal ``format(x, ".9e")`` per float: the ten-digit significand is
rint(x·10^k) with an exact power of ten, which carries one rounding
error of at most 2^-20, and every value whose rounding that error could
flip, or that lies outside [1e-13, 1e10), goes to ``format`` itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import spectral
from .dynamics import DampingModel, integrate
from .params import ParamError, PhysicalParams, SystemState, identical_pendula

__all__ = [
    "BranchUnsupportedError",
    "QuadrantPoint",
    "AntiphaseVerdict",
    "InphaseCheck",
    "RootBound",
    "GridSpec",
    "MAX_GRID_NODES",
    "RegionMap",
    "classify_zone",
    "conic_conditions",
    "antiphase_conditions",
    "mu_threshold",
    "no_inphase_check",
    "semicircle_condition",
    "complex_root_bound",
    "region_map",
    "empirical_decay_rates",
]


class BranchUnsupportedError(ValueError):
    """Requested verdict is only analyzed for η ≤ 1."""


@dataclass(frozen=True)
class QuadrantPoint:
    """A point of the open positive quadrant with its (η, μ) context."""

    X: float
    Y: float
    eta: float
    mu: float

    def __post_init__(self):
        if not self.X > 0:
            raise ParamError("X", "must be positive")
        if not self.Y > 0:
            raise ParamError("Y", "must be positive")
        if not self.eta > 0:
            raise ParamError("eta", "must be positive")
        if not 0.0 < self.mu < 0.5:
            raise ParamError("mu", "must lie in (0, 1/2)")

    def ratios(self) -> np.ndarray:
        return spectral.ek_ratios_dimensionless(self.eta, self.X, self.Y, self.mu)


def classify_zone(q: QuadrantPoint) -> str:
    """Zone Z1-Z4 from the ratio comparison; ties go to the lower index."""
    return spectral.zone_from_ratios(q.ratios())


def _conic_values(X, Y, eta, mu):
    e2 = eta * eta
    one = 1.0 - 2.0 * mu
    c1 = X**2 + (e2 - 1.0) * Y**2 + eta * X * Y + 4.0 * mu * eta * X \
        + (4.0 * mu * e2 - 1.0) * Y + 4.0 * mu**2 * e2
    c2 = X**2 + eta * X * Y + eta * X + one * (e2 - 1.0) * Y + 2.0 * mu * one * e2
    c3 = (e2 - 1.0) * X**2 + Y**2 + eta * X * Y + eta * X \
        + (2.0 - one * e2) * Y + 1.0 - 2.0 * mu * one * e2
    c4 = X**2 + one * eta * X - one * Y + one * (one * e2 - 1.0)
    return c1, c2, c3, c4


def _conic_signs(X, Y, eta: float, mu: float, field: str) -> np.ndarray:
    """Signs of the four conics, stacked on a last axis of length 4.

    Raises :class:`ParamError` on ``field`` where a conic overflows: the
    sign of an infinite or NaN value decides nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.stack(_conic_values(X, Y, eta, mu), axis=-1)
    if not np.isfinite(vals).all():
        raise ParamError(field, f"conic values overflow on this {field} at eta = {eta:.6g}")
    return vals > 0


def conic_conditions(q: QuadrantPoint) -> tuple[bool, bool, bool, bool]:
    """Signs of the four ratio-comparison conics.

    Positive values mean, in order: a0/a1 < a1/a2, a0/a1 < a3/a4,
    a1/a2 < a2/a3, a2/a3 < a3/a4.  A point whose conics overflow raises
    :class:`ParamError`, as a grid does.
    """
    return tuple(_conic_signs(np.float64(q.X), np.float64(q.Y), q.eta, q.mu,
                              "point").tolist())


class AntiphaseVerdict(NamedTuple):
    cond_a: bool
    cond_b: bool
    in_a_set: bool


def antiphase_conditions(q: QuadrantPoint) -> AntiphaseVerdict:
    """Conditions (A) and (B): does the δ decay rate ηω/2 stay below ρm?

    (A) is the comparison against a0/a1 (binding in Z1 ∪ Z2), (B)
    against a1/a2 (binding in Z3 ∪ Z4).  ``in_a_set`` is the condition
    matching the point's zone.  Only the η ≤ 1 branch is analyzed.
    """
    if q.eta > 1.0:
        raise BranchUnsupportedError("antiphase conditions analyzed for eta <= 1 only")
    r = q.ratios()
    cond_a = bool(q.eta < 2.0 * r[0])
    cond_b = bool(q.eta < 2.0 * r[1])
    in_a = cond_a if r[0] <= r[1] else cond_b
    return AntiphaseVerdict(cond_a=cond_a, cond_b=cond_b, in_a_set=in_a)


def mu_threshold(eta: float) -> float:
    """Mass-ratio threshold (2−η²)/(2(4−η²)) separating the map cases."""
    if not 0.0 < eta <= 1.0:
        raise BranchUnsupportedError("threshold defined for 0 < eta <= 1")
    return (2.0 - eta**2) / (2.0 * (4.0 - eta**2))


class InphaseCheck(NamedTuple):
    ok: bool
    margin: float  # 2 ρM/ω − η, non-negative whenever ok


def no_inphase_check(q: QuadrantPoint) -> InphaseCheck:
    """Verify ηω/2 ≤ ρM: the δ pair cannot out-decay the x/σ annulus.

    For η ≤ 1 this holds at every quadrant point, which is why in-phase
    synchronization is never facilitated.
    """
    if q.eta > 1.0:
        raise BranchUnsupportedError("in-phase check analyzed for eta <= 1 only")
    r = q.ratios()
    margin = 2.0 * max(r[2], r[3]) - q.eta
    return InphaseCheck(ok=bool(margin >= 0.0), margin=float(margin))


def semicircle_condition(q: QuadrantPoint) -> bool:
    """Whether the δ eigenvalue pair (|z| = ω) lies within |z| ≤ ρM.

    Equivalent closed forms per zone: with ρM = a2/a3 (Z1 ∪ Z3) the
    condition reads Y > (1−η)X + (1−2μ)η − 1; with ρM = a3/a4
    (Z2 ∪ Z4) it reads X > (1−2μ)(1−η).
    """
    if q.eta > 1.0:
        raise BranchUnsupportedError("semicircle condition analyzed for eta <= 1 only")
    one = 1.0 - 2.0 * q.mu
    r = q.ratios()
    if r[2] >= r[3]:
        return bool(q.Y > (1.0 - q.eta) * q.X + one * q.eta - 1.0)
    return bool(q.X > one * (1.0 - q.eta))


class RootBound(NamedTuple):
    applicable: bool
    b_bound: Optional[float]  # in units of ω
    refined_ok: Optional[bool]
    pattern: str  # "complex", "real", or "mixed"


_REAL_ROOT_RTOL = 1e-9


def _root_pattern(roots: np.ndarray) -> str:
    scale = np.maximum(np.abs(roots), 1e-30)
    n_real = int(np.sum(np.abs(roots.imag) <= _REAL_ROOT_RTOL * scale))
    return {4: "real", 0: "complex"}.get(n_real, "mixed")


def complex_root_bound(q: QuadrantPoint) -> RootBound:
    """Coefficient-only real-part bound for the all-complex root pattern.

    Applicable when the quartic has two conjugate pairs and
    a2/a4 ≤ 2ρm²; then every root real part is ≤ the negative root
    of r² + (a3/a4) r/2 + (a2/a4 − 2ρm²)/4, and ``refined_ok`` records
    whether that bound clears −ηω/2.  Real or mixed patterns return
    not-applicable; the direct root comparison is used instead.

    The premise never holds in the open quadrant, whatever the root
    pattern.  With a0 = Y, a2 = ηX + Y + 1 and a4 = 1 − 2μ ∈ (0, 1):
    ρm² ≤ (a0/a1)(a1/a2) = a0/a2, and a2² ≥ (Y + 1)² ≥ 4Y = 4a0, so
    2ρm² ≤ a2/2; since a2/a4 ≥ a2, a2/a4 − 2ρm² ≥ a2/2 > 0 for every
    X, Y, η > 0 and μ ∈ (0, ½).  The check is kept as the scalar
    reference; grid sweeps report the refined verdict as ``na``.

    A point whose quartic overflows in the root finder raises
    :class:`ParamError`, as :func:`conic_conditions` does.
    """
    quart = spectral.quartic_from_dimensionless([q.eta], [q.X], [q.Y], [q.mu], omega=1.0)
    try:
        with np.errstate(all="ignore", over="raise", invalid="raise"):
            roots = spectral.poly_roots(quart)[0]
    except FloatingPointError:
        raise ParamError("point", f"quartic roots overflow on this point "
                                  f"at eta = {q.eta:.6g}") from None
    pattern = _root_pattern(roots)
    if pattern != "complex":
        return RootBound(applicable=False, b_bound=None, refined_ok=None, pattern=pattern)
    r = q.ratios()
    rho_m = min(r[0], r[1])
    a = quart[0]
    a24 = a[2] / a[4]
    if a24 > 2.0 * rho_m**2:
        return RootBound(applicable=False, b_bound=None, refined_ok=None, pattern=pattern)
    h = a[3] / a[4] / 2.0
    b_bound = 0.5 * (-h - math.sqrt(h * h - (a24 - 2.0 * rho_m**2)))
    return RootBound(applicable=True, b_bound=float(b_bound),
                     refined_ok=bool(-0.5 * q.eta >= b_bound), pattern=pattern)


# ---------------------------------------------------------------------------
# Grid sweeps
# ---------------------------------------------------------------------------


#: Most grid nodes (nx·ny) a sweep accepts: 2000×2000.  A sweep peaks at
#: about 116 bytes per node in memory and writes about 112 per CSV row.
MAX_GRID_NODES = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid strictly inside the open quadrant, with at most
    :data:`MAX_GRID_NODES` nodes."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    spacing: str = "log"

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v)):
                raise ParamError(name, "grid bounds must be finite numbers")
        if not 0.0 < self.x_min <= self.x_max:
            raise ParamError("x_min", "grid must satisfy 0 < x_min <= x_max")
        if not 0.0 < self.y_min <= self.y_max:
            raise ParamError("y_min", "grid must satisfy 0 < y_min <= y_max")
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ParamError(name, "must be an integer")
            if v < 1:
                raise ParamError(name, "grid must have at least one node per axis")
        nodes = int(self.nx) * int(self.ny)
        if nodes > MAX_GRID_NODES:
            raise ParamError("nx*ny", f"grid has {nodes} nodes; the limit is {MAX_GRID_NODES}")
        if self.spacing not in ("log", "linear"):
            raise ParamError("spacing", "must be 'log' or 'linear'")

    def axis(self, which: str) -> np.ndarray:
        lo, hi, n = ((self.x_min, self.x_max, self.nx) if which == "x"
                     else (self.y_min, self.y_max, self.ny))
        if n == 1:
            return np.array([lo])
        if self.spacing == "log":
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)


_ZONES = ("Z1", "Z2", "Z3", "Z4")
_CSV_HEADER = ("X,Y,zone,conic1,conic2,conic3,conic4,condA,condB,inA,"
               "semicircle,refined,rho_m_over_omega,rho_M_over_omega")


def _byte_cells(strings: list[str]) -> np.ndarray:
    """ASCII strings as rows of a uint8 array, zero-padded to the longest."""
    a = np.array(strings, dtype=bytes)
    return a.view(np.uint8).reshape(a.size, a.itemsize)


# The middle cells of a row, zone through refined, indexed by
# zone·16 + conic bits (·16 + branch bits when η ≤ 1); flag k is bit k.
_FLAGS = [",".join("true" if code >> k & 1 else "false" for k in range(4))
          for code in range(16)]
_MIDDLE_NA = _byte_cells([f"{z},{c},na,na,na,na,na" for z in _ZONES for c in _FLAGS])
_MIDDLE_BRANCH = _byte_cells([f"{z},{c},{b},na" for z in _ZONES for c in _FLAGS
                              for b in _FLAGS])

# Widest ``.9e`` string, "-d.ddddddddde-ddd", padded to five uint32 words.
_E9_WIDTH = 20
# 10**k for k = 0..22, all exact in binary64 (5**22 < 2**53).
_POW10 = np.array([float(10**k) for k in range(23)])
# Row i holds the four ASCII digits of i, "0000" to "9999".
# Built in uint16: int64 temporaries would raise the peak RSS of every
# command that imports this module by about 1 MB.
_DIGITS4 = (np.arange(10_000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)


# Word tables "D.DD", "DDDD", "DDDe" and "±EE\0" of a fast cell, one uint32 per entry,
# indexed by the top three significand digits, the next four, the last three, and k.
_LEAD_WORDS = np.insert(_DIGITS4[:1000, 1:], 1, ord("."), axis=1).view(np.uint32).ravel()
_MID_WORDS = _DIGITS4.view(np.uint32).ravel()
_TAIL_WORDS = np.insert(_DIGITS4[:1000, 1:], 3, ord("e"), axis=1).view(np.uint32).ravel()
_EXP_WORDS = np.insert(np.insert(_DIGITS4[np.abs(np.arange(9, -14, -1)), 2:], 2, 0, axis=1),
                       0, np.where(np.arange(23) > 9, ord("-"), ord("+")), axis=1
                       ).view(np.uint32).ravel()


def _e9_cells(v: np.ndarray) -> np.ndarray:
    """``format(x, ".9e")`` of every value as (n, 20) zero-padded uint8 rows.

    Fast path, for x in [1e-13, 1e10): with e = ⌊log10 x⌋ and k = 9 − e
    clipped to [0, 22], 10^k is exact, so s = x·10^k carries a single
    rounding error.  Rounding is monotone and 1e9, 1e10 are doubles, so
    s lands in [1e9, 1e10) exactly when x·10^k does, and then 9 − k is
    the decimal exponent of x and the error is at most half an ulp of a
    number below 2^34, i.e. 2^-20.  Unless s is within 1e-5 of a
    half-integer, d = rint(s) is therefore the correctly rounded ten-digit
    significand, written from the word tables.  Every other value goes
    through ``format`` one at a time: near-ties (about 2 in 10^5),
    roundings up to 10^10, s outside [1e9, 1e10) (log10 off by one next
    to a power of ten), and values out of range, non-finite or ≤ 0.  This
    is Loitsch's split (Grisu, PLDI 2010): a fast path that is exact
    whenever it answers, and an exact printer for the rest.
    """
    v = np.asarray(v, dtype=float)
    fast = (v >= 1e-13) & (v < 1e10)
    x = np.where(fast, v, 1.0)
    k = np.clip(9 - np.floor(np.log10(x)).astype(np.int64), 0, 22)
    s = x * _POW10[k]
    d = np.rint(s)
    fast &= (s >= 1e9) & (d < 1e10) & (np.abs(s - np.floor(s) - 0.5) > 1e-5)
    d = np.where(fast, d, 1e9).astype(np.int64)  # keeps the table indices in range
    high, tail = np.divmod(d, 1000)
    lead, mid = np.divmod(high, 10**4)
    out = np.column_stack([_LEAD_WORDS[lead], _MID_WORDS[mid], _TAIL_WORDS[tail],
                           _EXP_WORDS[k], np.zeros(v.size, np.uint32)]).view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = _byte_cells([format(u, ".9e") for u in v[slow].tolist()])
        out[slow] = 0
        out[slow, :cells.shape[1]] = cells
    return out


# Rows per block of the CSV writer; bounds its buffers to a few MB.
_CSV_BLOCK = 16_384


def _flag_codes(flags: np.ndarray) -> np.ndarray:
    """Rows of four flags packed as bits 0-3."""
    return flags @ np.array([1, 2, 4, 8], dtype=np.uint8)


@dataclass(frozen=True)
class RegionMap:
    """Verdicts over a grid as per-node columns, row-major in Y then X.

    ``zone`` indexes Z1-Z4; ``conics`` holds the four conic signs and
    ``branch`` the condA, condB, inA and semicircle flags, both (n, 4),
    with ``branch`` None when η > 1.
    """

    grid: GridSpec
    eta: float
    mu: float
    xs: np.ndarray
    ys: np.ndarray
    zone: np.ndarray
    conics: np.ndarray
    branch: Optional[np.ndarray]
    rho_m: np.ndarray
    rho_M: np.ndarray

    def zone_fractions(self) -> dict[str, float]:
        counts = np.bincount(self.zone, minlength=len(_ZONES)).tolist()
        return {z: c / self.zone.size for z, c in zip(_ZONES, counts)}

    def in_a_fraction(self) -> Optional[float]:
        if self.branch is None:
            return None
        return int(np.count_nonzero(self.branch[:, 2])) / len(self.branch)

    def write_csv(self, path) -> None:
        """One header line, then one row per node, built in one reused block buffer."""
        nx, n = self.grid.nx, self.zone.size
        x_cells, y_cells = _e9_cells(self.xs), _e9_cells(self.ys)
        middle = _MIDDLE_NA if self.branch is None else _MIDDLE_BRANCH
        w = _E9_WIDTH + 1  # a float cell and its separator
        starts = np.cumsum([0, w, w, middle.shape[1] + 1, w])  # X, Y, middle, rho_m, rho_M
        buf = np.full((min(n, _CSV_BLOCK), starts[-1] + w), ord(","), dtype=np.uint8)
        buf[:, -1] = ord("\n")  # the cells overwrite every comma but the separators
        with open(path, "wb") as fh:
            fh.write((_CSV_HEADER + "\n").encode())
            for lo in range(0, n, _CSV_BLOCK):
                rows = slice(lo, lo + _CSV_BLOCK)
                node = np.arange(lo, min(lo + _CSV_BLOCK, n))
                code = self.zone[rows] * 16 + _flag_codes(self.conics[rows])
                if self.branch is not None:
                    code = code * 16 + _flag_codes(self.branch[rows])
                block = buf[:node.size]
                cells = (x_cells[node % nx], y_cells[node // nx], middle[code],
                         _e9_cells(self.rho_m[rows]), _e9_cells(self.rho_M[rows]))
                for start, c in zip(starts, cells):
                    block[:, start:start + c.shape[1]] = c  # pad bytes included
                fh.write(block[block != 0].tobytes())


def region_map(grid: GridSpec, eta: float, mu: float) -> RegionMap:
    """Evaluate every verdict on the grid; refuse it if a conic overflows."""
    if not eta > 0:
        raise ParamError("eta", "must be positive")
    if not 0.0 < mu < 0.5:
        raise ParamError("mu", "must lie in (0, 1/2)")
    xs = grid.axis("x")
    ys = grid.axis("y")
    X = np.tile(xs, ys.size)
    Y = np.repeat(ys, xs.size)
    conics = _conic_signs(X, Y, eta, mu, "grid")
    r = spectral.ek_ratios_dimensionless(eta, X, Y, mu)  # (n, 4)
    rm_first = r[:, 0] <= r[:, 1]
    rM_first = r[:, 2] >= r[:, 3]
    branch = None
    if eta <= 1.0:
        one = 1.0 - 2.0 * mu
        cond_a = eta < 2.0 * r[:, 0]
        cond_b = eta < 2.0 * r[:, 1]
        semi = np.where(rM_first, Y > (1.0 - eta) * X + one * eta - 1.0,
                        X > one * (1.0 - eta))
        branch = np.stack([cond_a, cond_b, np.where(rm_first, cond_a, cond_b), semi],
                          axis=-1)
    return RegionMap(grid=grid, eta=eta, mu=mu, xs=xs, ys=ys,
                     zone=2 * ~rm_first + ~rM_first,
                     conics=conics,
                     branch=branch,
                     rho_m=np.minimum(r[:, 0], r[:, 1]),
                     rho_M=np.maximum(r[:, 2], r[:, 3]))


# ---------------------------------------------------------------------------
# Empirical decay rates from nonlinear simulation
# ---------------------------------------------------------------------------


def _strict_peaks(a: np.ndarray) -> np.ndarray:
    """Indices of samples strictly greater than both neighbours."""
    return np.flatnonzero((a[1:-1] > a[:-2]) & (a[1:-1] > a[2:])) + 1


def _envelope_rate(times: np.ndarray, signal: np.ndarray, t_start: float) -> float:
    """Exponential decay rate from log-envelope peaks past t_start."""
    peaks = _strict_peaks(np.abs(signal))
    peaks = peaks[(times[peaks] >= t_start) & (np.abs(signal[peaks]) > 1e-300)]
    if peaks.size < 5:
        raise ValueError(f"only {peaks.size} envelope peaks in the fit window; "
                         "need at least 5 (lengthen the trajectory)")
    slope, _ = np.polyfit(times[peaks], np.log(np.abs(signal[peaks])), 1)
    return float(-slope)


def empirical_decay_rates(p: PhysicalParams, y0: SystemState, t_end: float,
                          samples: int = 4001) -> tuple[float, float]:
    """Fitted decay rates of σ and δ from a nonlinear trajectory.

    Peak amplitudes of each signal over the final 60% of the run are fit
    by least squares in log scale; identical, damped pendula required.
    """
    if not identical_pendula(p):
        raise ParamError("m2", "decay-rate fit requires identical pendula")
    if p.frictionless:
        raise ParamError("beta0", "decay-rate fit requires damping")
    traj = integrate(y0, p, DampingModel.FULL_VELOCITY, t_end, samples=samples)
    t_start = 0.4 * t_end
    rate_sigma = _envelope_rate(traj.times, traj.states[:, 1], t_start)
    rate_delta = _envelope_rate(traj.times, traj.states[:, 2], t_start)
    return rate_sigma, rate_delta
