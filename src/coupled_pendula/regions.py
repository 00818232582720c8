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

``RegionMap.write_csv`` builds the CSV in blocks of at most 16,384 rows
without a Python string per row.  Each cell is a zero-padded uint8 row:
the float cells come from ``_e9_cells`` and the zone, flag and ``na``
cells from one lookup-table row per zone/flag combination.  A block is
the concatenation of its cell and separator columns; its pad bytes are
dropped with ``block[block != 0]`` and the rest is written at once.
The bytes equal ``format(x, ".9e")`` per float: ``_e9_cells`` computes
the ten-digit significand as rint(x·10^k) with an exact power of ten,
which carries one rounding error of at most 2^-20, and sends every
value whose rounding that error could flip, or that lies outside
[1e-13, 1e10), to ``format`` itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import spectral
from .dynamics import DampingModel, Trajectory, integrate
from .params import ParamError, PhysicalParams, SystemState, identical_pendula

__all__ = [
    "BranchUnsupportedError",
    "QuadrantPoint",
    "AntiphaseVerdict",
    "InphaseCheck",
    "RootBound",
    "GridSpec",
    "RegionVerdict",
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


def conic_conditions(q: QuadrantPoint) -> tuple[bool, bool, bool, bool]:
    """Signs of the four ratio-comparison conics.

    Positive values mean, in order: a0/a1 < a1/a2, a0/a1 < a3/a4,
    a1/a2 < a2/a3, a2/a3 < a3/a4.
    """
    vals = _conic_values(q.X, q.Y, q.eta, q.mu)
    return tuple(bool(v > 0) for v in vals)


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
    """
    quart = spectral.quartic_from_dimensionless(q.eta, q.X, q.Y, q.mu, omega=1.0)
    roots = spectral.poly_roots(quart)
    pattern = _root_pattern(roots)
    if pattern != "complex":
        return RootBound(applicable=False, b_bound=None, refined_ok=None, pattern=pattern)
    r = q.ratios()
    rho_m = min(r[0], r[1])
    a = quart.coeffs
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


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid strictly inside the open quadrant."""

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


@dataclass(frozen=True)
class RegionVerdict:
    """All verdicts at one node; Optional fields are None when η > 1.

    ``refined`` is always None in grid sweeps: the premise of the refined
    bound never holds (see ``complex_root_bound``).
    """

    zone: str
    conics: tuple[bool, bool, bool, bool]
    cond_a: Optional[bool]
    cond_b: Optional[bool]
    in_a_set: Optional[bool]
    semicircle: Optional[bool]
    refined: Optional[bool]
    rho_m_over_omega: float
    rho_M_over_omega: float


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

# Widest ``.9e`` string: "-d.ddddddddde-ddd".
_E9_WIDTH = 17
# 10**k for k = 0..22, all exact in binary64 (5**22 < 2**53).
_POW10 = np.array([float(10**k) for k in range(23)])
# Row i holds the four ASCII digits of i, "0000" to "9999".
# Built in uint16: int64 temporaries would raise the peak RSS of every
# command that imports this module by about 1 MB.
_DIGITS4 = (np.arange(10_000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)


def _e9_cells(v: np.ndarray) -> np.ndarray:
    """``format(x, ".9e")`` of every value as (n, 17) zero-padded uint8 rows.

    Fast path, for x in [1e-13, 1e10): with e = ⌊log10 x⌋ and k = 9 − e
    clipped to [0, 22], 10^k is exact, so s = x·10^k carries a single
    rounding error.  Rounding is monotone and 1e9, 1e10 are doubles, so
    s lands in [1e9, 1e10) exactly when x·10^k does, and then 9 − k is
    the decimal exponent of x and the error is at most half an ulp of a
    number below 2^34, i.e. 2^-20.  Unless s is within 1e-5 of a
    half-integer, d = rint(s) is therefore the correctly rounded ten-digit
    significand, written with integer arithmetic.  Every other value goes
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
    e = 9 - k

    out = np.zeros((v.size, _E9_WIDTH), dtype=np.uint8)
    high, low = np.divmod(d, 10**4)
    lead, mid = np.divmod(high, 10**4)  # lead holds the first two digits
    out[:, 0] = _DIGITS4[lead, 2]
    out[:, 1] = ord(".")
    out[:, 2] = _DIGITS4[lead, 3]
    out[:, 3:7] = _DIGITS4[mid]
    out[:, 7:11] = _DIGITS4[low]
    out[:, 11] = ord("e")
    out[:, 12] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 13:15] = _DIGITS4[np.abs(e), 2:]

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

    def verdict_at(self, ix: int, iy: int) -> RegionVerdict:
        if not (0 <= ix < self.grid.nx and 0 <= iy < self.grid.ny):
            raise IndexError(f"node ({ix}, {iy}) outside the "
                             f"{self.grid.nx}x{self.grid.ny} grid")
        i = iy * self.grid.nx + ix
        branch = (None,) * 4 if self.branch is None else self.branch[i].tolist()
        return RegionVerdict(zone=_ZONES[self.zone[i]], conics=tuple(self.conics[i].tolist()),
                             cond_a=branch[0], cond_b=branch[1], in_a_set=branch[2],
                             semicircle=branch[3], refined=None,
                             rho_m_over_omega=float(self.rho_m[i]),
                             rho_M_over_omega=float(self.rho_M[i]))

    def zone_fractions(self) -> dict[str, float]:
        counts = np.bincount(self.zone, minlength=len(_ZONES)).tolist()
        return {z: c / self.zone.size for z, c in zip(_ZONES, counts)}

    def in_a_fraction(self) -> Optional[float]:
        if self.branch is None:
            return None
        return int(np.count_nonzero(self.branch[:, 2])) / len(self.branch)

    def write_csv(self, path) -> None:
        """One header line, then one row per node, built in byte blocks."""
        nx = self.grid.nx
        x_cells, y_cells = _e9_cells(self.xs), _e9_cells(self.ys)
        middle = _MIDDLE_NA if self.branch is None else _MIDDLE_BRANCH
        with open(path, "wb") as fh:
            fh.write((_CSV_HEADER + "\n").encode())
            for lo in range(0, self.zone.size, _CSV_BLOCK):
                rows = slice(lo, lo + _CSV_BLOCK)
                node = np.arange(lo, min(lo + _CSV_BLOCK, self.zone.size))
                code = self.zone[rows] * 16 + _flag_codes(self.conics[rows])
                if self.branch is not None:
                    code = code * 16 + _flag_codes(self.branch[rows])
                sep = np.full((node.size, 1), ord(","), dtype=np.uint8)
                block = np.concatenate(
                    [x_cells[node % nx], sep, y_cells[node // nx], sep, middle[code], sep,
                     _e9_cells(self.rho_m[rows]), sep, _e9_cells(self.rho_M[rows]),
                     np.full_like(sep, ord("\n"))], axis=1)
                fh.write(block[block != 0].tobytes())


def region_map(grid: GridSpec, eta: float, mu: float) -> RegionMap:
    """Evaluate every verdict on the grid."""
    if not eta > 0:
        raise ParamError("eta", "must be positive")
    if not 0.0 < mu < 0.5:
        raise ParamError("mu", "must lie in (0, 1/2)")
    xs = grid.axis("x")
    ys = grid.axis("y")
    X = np.tile(xs, ys.size)
    Y = np.repeat(ys, xs.size)
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
                     conics=np.stack(_conic_values(X, Y, eta, mu), axis=-1) > 0,
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
                          samples: int = 4001,
                          trajectory: Optional[Trajectory] = None) -> tuple[float, float]:
    """Fitted decay rates of σ and δ from a nonlinear trajectory.

    Peak amplitudes of each signal over the final 60% of the run are fit
    by least squares in log scale; identical, damped pendula required.
    A precomputed trajectory may be passed to avoid re-integration.
    """
    if not identical_pendula(p):
        raise ParamError("m2", "decay-rate fit requires identical pendula")
    if p.frictionless:
        raise ParamError("beta0", "decay-rate fit requires damping")
    traj = trajectory if trajectory is not None else integrate(
        y0, p, DampingModel.FULL_VELOCITY, t_end, samples=samples)
    t_start = 0.4 * t_end
    rate_sigma = _envelope_rate(traj.times, traj.states[:, 1], t_start)
    rate_delta = _envelope_rate(traj.times, traj.states[:, 2], t_start)
    return rate_sigma, rate_delta
