"""Span recorder and the outside-in instrumentation of the package.

The program itself is not instrumented. For a traced pass the benchmark
swaps each listed public function (and the package's call into
``scipy.integrate.solve_ivp``) for a wrapper that records a span, in every
package module that binds it, and puts the originals back afterwards.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Optional

from workloads import VERIFY_CHECKS


class Recorder:
    """Spans and counters of one traced pass, all in one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None  # index of the CLI call being traced
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "start": perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "op": self.op})
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time."""
        agg: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            a = agg.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += s["end"] - s["start"]
            a["self_s"] += own
        return agg


# ---------------------------------------------------------------------------
# Counters read at the boundaries
# ---------------------------------------------------------------------------


def _solver_counts(rec, result, args, kwargs):
    rec.counts["dynamics.rhs_evals"] += int(result.nfev)
    rec.counts["dynamics.solver_failures"] += int(result.status < 0)


def _file_bytes(key):
    def hook(rec, result, args, kwargs):
        rec.counts[key] += os.path.getsize(args[1])
    return hook


def _grid_nodes(rec, result, args, kwargs):
    grid = args[0] if args else kwargs["grid"]
    rec.counts["regions.nodes"] += grid.nx * grid.ny


def _check_failed(rec, result, args, kwargs):
    rec.counts["verification.checks_failed"] += int(not result.ok)


# (module, attribute, span name, hook); the attribute is a function bound
# in that module, or "Class.method".
TARGETS = [
    ("coupled_pendula.cli", "load_config", "cli.load_config", None),
    ("coupled_pendula.dynamics", "integrate", "dynamics.integrate", None),
    ("coupled_pendula.dynamics", "solve_ivp", "scipy.solve_ivp", _solver_counts),
    ("coupled_pendula.dynamics", "Trajectory.write_csv", "dynamics.write_csv",
     _file_bytes("dynamics.csv_bytes")),
    ("coupled_pendula.spectral", "char_poly_general", "spectral.char_poly_general", None),
    ("coupled_pendula.spectral", "poly_roots", "spectral.poly_roots", None),
    ("coupled_pendula.spectral", "routh_hurwitz", "spectral.routh_hurwitz", None),
    ("coupled_pendula.spectral", "enestrom_kakeya", "spectral.enestrom_kakeya", None),
    ("coupled_pendula.regions", "region_map", "regions.region_map", _grid_nodes),
    ("coupled_pendula.regions", "RegionMap.write_csv", "regions.write_csv",
     _file_bytes("regions.csv_bytes")),
    ("coupled_pendula.regions", "RegionMap.zone_fractions", "regions.zone_fractions", None),
    ("coupled_pendula.regions", "RegionMap.in_a_fraction", "regions.in_a_fraction", None),
    ("coupled_pendula.regions", "empirical_decay_rates", "regions.empirical_decay_rates", None),
    ("coupled_pendula.verification", "run_verification", "verification.run_verification", None),
] + [("coupled_pendula.verification", f"check_{c}", f"verification.{c}", _check_failed)
     for c in VERIFY_CHECKS]


def _wrap(fn, name: str, rec: Recorder, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, result, args, kwargs)
        return result
    return wrapper


@contextmanager
def instrumented(rec: Recorder):
    """Record spans into ``rec`` for every call into TARGETS inside the block."""
    package = [m for n, m in sys.modules.items()
               if n == "coupled_pendula" or n.startswith("coupled_pendula.")]
    patched = []  # (owner, attribute, original)
    try:
        for module, attr, name, hook in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[module], cls_name)
                orig = owner.__dict__[meth]
                patched.append((owner, meth, orig))
                setattr(owner, meth, _wrap(orig, name, rec, hook))
                continue
            orig = getattr(sys.modules[module], attr)
            wrapper = _wrap(orig, name, rec, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield rec
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
