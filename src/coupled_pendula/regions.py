"""Classification of the (X, Y) damping/stiffness quadrant.

For identical pendula the δ modes sit at distance ηω/2 from the
imaginary axis while the x/σ spectrum lives in the Eneström-Kakeya
annulus [ρm, ρM].  Comparing the two yields, per quadrant point:

* zone Z1-Z4: which coefficient ratios attain ρm and ρM, read off the
  signs of conic1 = a1² − a0a2 (a0/a1 attains ρm when ≥ 0) and
  conic4 = a3² − a2a4 (a3/a4 alone attains ρM when > 0), so that a zone
  never contradicts its row's conic cells;
* conic conditions: the four pairwise ratio comparisons as explicit
  quadratic inequalities in (X, Y);
* antiphase facilitation: ηω < 2ρm, split into condition (A) when
  ρm = a0/a1 (zones Z1, Z2) and (B) when ρm = a1/a2 (zones Z3, Z4) —
  the set 𝒜 collects the points whose zone-matching condition holds;
* semicircle membership: ω ≤ ρM, i.e. whether the δ eigenvalue pair
  (modulus exactly ω) lies inside the outer annulus radius, proven true
  for η ≤ 1 (``semicircle_condition``);
* the refined real-part bound, proven never to apply (``complex_root_bound``).

In-phase synchronization is never facilitated, for any η: with
a3 = X + (1−2μ)η and a4 = 1 − 2μ, ρM ≥ a3/a4 = η + X/(1−2μ) > η, so
2ρM − η > 0 and the δ pair never out-decays the whole x/σ spectrum.

The quadrant domain is a fixed box, checked once where X, Y, η and μ
enter (``params._check_box``, which :class:`~.params.GridSpec` also
calls): X, Y ∈ (0, 1e30], η ∈ [1e-121, 1e121] and μ ∈ (0, ½).  It holds
every η of an in-domain ``PhysicalParams`` (η = (β/m)/ω, β/m ≤ 1e80,
1/ω ≤ 1e40), and inside it the kernel is plain arithmetic.  Each conic
and quartic coefficient is a sum of monomials, largest at a corner of
the box, where none exceeds 1e302.  The ratios stay finite, as
a0/a1 ≤ 1/η, a1/a2 ≤ 1/η + 2η, a2/a3 ≤ (ηX + Y + 1)/((1−2μ)η),
a3/a4 = η + X/(1−2μ), 1 − 2μ ≥ 2⁻⁵³ and a1, a3 ≥ X > 0, a2 ≥ 1
(``test_quadrant_corners_stay_finite``).

All verdicts here are dimensionless (ω ≡ 1) and come from one columnar
kernel, ``_verdicts``, which holds the one copy of each formula: a grid
sweep calls it on blocks of ``BLOCK_ROWS`` nodes, and each scalar verdict
is a one-row call.  Analyses specific to the η ≤ 1 branch refuse η > 1
rather than guess.  The sweep is a stream: each block goes straight into
the shared ``.9e`` block writer of ``_csvio`` and is then dropped, so the
block size alone, not the grid, sets the sweep's memory.

The module also fits σ/δ decay rates to nonlinear trajectories
(``empirical_decay_rates``, the decay panel's fit).  That function alone
integrates, and it imports the integrator when called, so a sweep loads
neither :mod:`.dynamics` nor :mod:`._dop853`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import spectral
from .spectral import _ZONES
from ._csvio import BLOCK_ROWS, byte_cells, e9_column, write_csv
from .params import DampingModel, GridSpec, ParamError, _check_box, identical_pendula

__all__ = [
    "BranchUnsupportedError", "QuadrantPoint", "AntiphaseVerdict", "RootBound", "RegionMap",
    "classify_zone", "conic_conditions", "antiphase_conditions", "semicircle_condition",
    "complex_root_bound", "region_map", "empirical_decay_rates",
]


class BranchUnsupportedError(ValueError):
    """Requested verdict is only analyzed for η ≤ 1."""


@dataclass(frozen=True)
class QuadrantPoint:
    """A point of the quadrant box with its (η, μ) context."""

    X: float
    Y: float
    eta: float
    mu: float

    def __post_init__(self):
        for name, v in _check_box(**vars(self)).items():
            object.__setattr__(self, name, v)

    def ratios(self) -> np.ndarray:
        return spectral.ek_ratios_dimensionless(self.eta, self.X, self.Y, self.mu)


def _conic_values(X, Y, eta, mu):
    e2 = eta * eta
    one = 1.0 - 2.0 * mu
    # X², Y², ηX and ηXY once for the conics that share them
    x2, y2, ex = X**2, Y**2, eta * X
    exy = ex * Y
    c1 = x2 + (e2 - 1.0) * y2 + exy + 4.0 * mu * eta * X \
        + (4.0 * mu * e2 - 1.0) * Y + 4.0 * mu**2 * e2
    c2 = x2 + exy + ex + one * (e2 - 1.0) * Y + 2.0 * mu * one * e2
    c3 = (e2 - 1.0) * x2 + y2 + exy + ex \
        + (2.0 - one * e2) * Y + 1.0 - 2.0 * mu * one * e2
    c4 = x2 + one * eta * X - one * Y + one * (one * e2 - 1.0)
    return c1, c2, c3, c4


def _verdicts(X: np.ndarray, Y: np.ndarray, eta: float, mu: float) -> dict:
    """Every verdict at the points of the (n,) columns X and Y for one checked (η, μ).

    The one copy of each formula: grids and single points both come here.
    Returns the columns ``zone``, ``conics``, ``branch``, ``rho_m`` and
    ``rho_M`` described under :class:`RegionMap`.  The zone's two bits are
    conic1 < 0 and the conic4 cell (module docstring), and conic1 ≥ 0
    picks condA, else condB, for inA.
    """
    conics = np.empty(np.shape(X) + (4,), bool)
    values = _conic_values(X, Y, eta, mu)
    for j, c in enumerate(values):
        np.greater(c, 0, out=conics[..., j])
    r = spectral.ek_ratios_dimensionless(eta, X, Y, mu)  # (n, 4)
    rm_first = values[0] >= 0
    zone = 2 * ~rm_first + conics[:, 3]
    branch = None
    if eta <= 1.0:
        branch = np.empty(conics.shape, bool)
        cond_a, cond_b = branch[:, 0], branch[:, 1]
        np.less(eta, 2.0 * r[:, 0], out=cond_a)
        np.less(eta, 2.0 * r[:, 1], out=cond_b)
        branch[:, 2] = np.where(rm_first, cond_a, cond_b)
        branch[:, 3] = True  # semicircle: proven true for η ≤ 1 (``semicircle_condition``)
    return dict(zone=zone, conics=conics, branch=branch,
                rho_m=np.minimum(r[:, 0], r[:, 1]), rho_M=np.maximum(r[:, 2], r[:, 3]))


def _at(q: QuadrantPoint, refuse: Optional[str] = None) -> dict:
    """The kernel's one-row call at ``q``; η > 1 raises :class:`BranchUnsupportedError`
    for ``refuse``, the name of a verdict analyzed for η ≤ 1 only."""
    v = _verdicts(np.array([q.X]), np.array([q.Y]), q.eta, q.mu)
    if refuse and v["branch"] is None:
        raise BranchUnsupportedError(f"{refuse} analyzed for eta <= 1 only")
    return v


def classify_zone(q: QuadrantPoint) -> str:
    """Zone Z1-Z4 from the signs of conic1 and conic4; ties go to the lower index."""
    return _ZONES[int(_at(q)["zone"][0])]


def conic_conditions(q: QuadrantPoint) -> tuple[bool, bool, bool, bool]:
    """Signs of the four ratio-comparison conics.

    Positive values mean, in order: a0/a1 < a1/a2, a0/a1 < a3/a4,
    a1/a2 < a2/a3, a2/a3 < a3/a4.
    """
    return tuple(_at(q)["conics"][0].tolist())


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
    return AntiphaseVerdict(*_at(q, "antiphase conditions")["branch"][0, :3].tolist())


def semicircle_condition(q: QuadrantPoint) -> bool:
    """Whether the δ eigenvalue pair (|z| = ω) lies within |z| ≤ ρM,
    proven true at every quadrant point with η ≤ 1.

    ρM > 1 fails only if a2/a3 ≤ 1 and a3/a4 ≤ 1.  With a4 = 1 − 2μ in
    (0, 1), the second reads X ≤ (1−2μ)(1−η), and the first then gives
    Y + 1 ≤ X(1−η) + (1−2μ)η ≤ (1−2μ)(1 − η + η²) ≤ 1 − 2μ < 1, impossible
    for Y > 0.  The one-row call still refuses η > 1.
    """
    return bool(_at(q, "semicircle condition")["branch"][0, 3])


class RootBound(NamedTuple):
    applicable: bool
    refined_ok: Optional[bool]


def complex_root_bound(q: QuadrantPoint) -> RootBound:
    """The refined real-part bound, proven never to apply in the quadrant.

    With two conjugate root pairs and a2/a4 ≤ 2ρm², every root real part is
    ≤ the negative root of r² + (a3/a4) r/2 + (a2/a4 − 2ρm²)/4.  The premise
    fails everywhere: with a0 = Y, a2 = ηX + Y + 1 and a4 = 1 − 2μ ∈ (0, 1),
    ρm² ≤ (a0/a1)(a1/a2) = a0/a2 and a2² ≥ (Y + 1)² ≥ 4a0, so 2ρm² ≤ a2/2
    and a2/a4 − 2ρm² ≥ a2/2 > 0 for all X, Y, η > 0 and μ ∈ (0, ½).  The
    name stays for the benchmark's gates, which rebuild the CSV's
    ``refined`` cell from it.
    """
    return RootBound(applicable=False, refined_ok=None)


# ---------------------------------------------------------------------------
# Grid sweeps
# ---------------------------------------------------------------------------


_CSV_HEADER = ("X,Y,zone,conic1,conic2,conic3,conic4,condA,condB,inA,"
               "semicircle,refined,rho_m_over_omega,rho_M_over_omega")


# The middle cells of a row, zone through refined, and their lengths, indexed
# by zone·16 + conic bits (·16 + branch bits when η ≤ 1); flag k is bit k.
_FLAGS = [",".join("true" if code >> k & 1 else "false" for k in range(4))
          for code in range(16)]
_MIDDLE_NA = byte_cells([f"{z},{c},na,na,na,na,na" for z in _ZONES for c in _FLAGS])
_MIDDLE_BRANCH = byte_cells([f"{z},{c},{b},na" for z in _ZONES for c in _FLAGS
                             for b in _FLAGS])


def _flag_codes(flags: np.ndarray) -> np.ndarray:
    """Rows of four flags packed as bits 0-3.

    A C-ordered row of four bools read as a little-endian uint32 u is
    f0 + f1·2⁸ + f2·2¹⁶ + f3·2²⁴; u·(2³ + 2¹⁰ + 2¹⁷ + 2²⁴) mod 2³² puts fk
    at bit 24 + k, and every other product term below bit 24 or at 32 or
    above, so bits 24-27 are the code.
    """
    u = np.ascontiguousarray(flags).view("<u4").ravel()
    return u * np.uint32(0x01020408) >> 24


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Verdicts over a grid, row-major in Y then X, as a stream of blocks.

    No per-node column is kept: :meth:`blocks` runs the kernel on each
    block as it is read and counts zones and inA nodes, and
    :meth:`write_csv` writes each block as it comes, so the summary of a
    written map needs no second sweep.
    """

    grid: GridSpec
    eta: float
    mu: float
    xs: np.ndarray
    ys: np.ndarray
    # zone and inA fractions of the last full sweep (inA None when η > 1)
    _summary: Optional[tuple] = field(default=None, init=False, repr=False)

    def blocks(self):
        """Yield ``(ix, iy, verdicts)`` for each block of :data:`BLOCK_ROWS`
        nodes: their X and Y indices and the columns of :func:`_verdicts`.

        ``zone`` indexes Z1-Z4; ``conics`` holds the four conic signs and
        ``branch`` the condA, condB, inA and semicircle flags, both (n, 4),
        with ``branch`` None when η > 1.
        """
        n, zones, in_a = self.xs.size * self.ys.size, np.zeros(4, np.intp), 0
        for lo in range(0, n, BLOCK_ROWS):
            iy, ix = np.divmod(np.arange(lo, min(lo + BLOCK_ROWS, n)), self.grid.nx)
            v = _verdicts(self.xs[ix], self.ys[iy], self.eta, self.mu)
            zones += np.bincount(v["zone"], minlength=4)
            if v["branch"] is not None:
                in_a += int(np.count_nonzero(v["branch"][:, 2]))
            yield ix, iy, v
        object.__setattr__(self, "_summary", (
            {z: count / n for z, count in zip(_ZONES, zones.tolist())},
            None if v["branch"] is None else in_a / n))

    def _swept_summary(self) -> tuple:
        if self._summary is None:  # never written: sweep without formatting
            for _ in self.blocks():
                pass
        return self._summary

    def zone_fractions(self) -> dict[str, float]:
        return dict(self._swept_summary()[0])

    def in_a_fraction(self) -> Optional[float]:
        return self._swept_summary()[1]

    def write_csv(self, path) -> None:
        """One header line, then one row per node, row-major in Y then X."""
        x_cells, y_cells = e9_column(self.xs), e9_column(self.ys)

        def rows():
            for ix, iy, v in self.blocks():
                # zone is an intp column, so the codes, up to 1,023, do not wrap
                code = v["zone"] * 16 + _flag_codes(v["conics"])
                if v["branch"] is None:
                    cells, lengths = _MIDDLE_NA
                else:
                    cells, lengths = _MIDDLE_BRANCH
                    code = code * 16 + _flag_codes(v["branch"])
                yield (x_cells[ix], y_cells[iy], (cells[code], lengths[code]),
                       e9_column(v["rho_m"]), e9_column(v["rho_M"]))

        write_csv(path, _CSV_HEADER, rows())


def region_map(grid: GridSpec, eta: float, mu: float) -> RegionMap:
    """The verdicts over the grid, after checking η and μ once.

    Nothing is evaluated here: the map's blocks run the kernel on
    :data:`BLOCK_ROWS` nodes at a time as they are read, so no column
    spans the grid.
    """
    eta, mu = _check_box(eta=eta, mu=mu).values()
    return RegionMap(grid, eta, mu, grid.axis("x"), grid.axis("y"))


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


#: Samples per trajectory of the decay-rate fit.
DECAY_FIT_SAMPLES = 4001


def empirical_decay_rates(p, y0, t_end) -> list:
    """Fitted decay rates of σ and δ from nonlinear trajectories.

    Takes equal-length sequences of parameters (identical, damped
    pendula), initial states and end times, and integrates them as one
    lockstep batch.  Peak amplitudes of each signal over the final 60% of
    a run are fit by least squares in log scale.  Returns one entry per
    trajectory: its pair of rates, or the ValueError its fit raised when
    the fit window holds fewer than five peaks, so that one short
    trajectory does not hide the rates of the others.
    """
    # imported here, so that a sweep alone never loads the integrator
    from .dynamics import _integrate_rows

    params, states, t_ends = list(p), list(y0), list(t_end)
    if not len(params) == len(states) == len(t_ends):
        raise ValueError("one initial state and one end time per parameter set")
    for q in params:
        if not identical_pendula(q):
            raise ParamError("m2", "decay-rate fit requires identical pendula")
        if q.frictionless:
            raise ParamError("beta0", "decay-rate fit requires damping")
    trajs = _integrate_rows(states, params, DampingModel.FULL_VELOCITY, t_ends, DECAY_FIT_SAMPLES)
    fits = []
    for traj, t_end_i in zip(trajs, t_ends):
        t_start = 0.4 * t_end_i
        try:
            fits.append((_envelope_rate(traj.times, traj.states[:, 1], t_start),
                         _envelope_rate(traj.times, traj.states[:, 2], t_start)))
        except ValueError as exc:
            fits.append(exc)
    return fits
