"""Command-line front end: ``reduce``, ``simulate``, ``spectrum``,
``regions``, and ``verify``.

All inputs come from a JSON config file (flags select only the command
and output path) so that every run is reproducible from a checked-in
document.  Outputs are canonical: object keys sorted, floats
printed with 17 significant digits, so identical runs are byte-identical.

Exit codes: 0 success, 2 validation failure (also a massless pendulum or
a field outside [1e-40, 1e40], a config or output path that cannot be
opened, a config that is not UTF-8, and, as a backstop, any floating-point
error), 3 integration failure, 4 method inapplicable (reported, other
results still emitted), 5 internal cross-check violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import CrossCheckError, DampingModel, StiffnessError, integrate
from .params import (
    ParamError,
    PhysicalParams,
    SystemState,
    derived_constants,
    identical_pendula,
    reduce_params,
)
from .regions import GridSpec, region_map
from .spectral import linear_system, spectrum_report
from .verification import run_verification

__all__ = ["RunConfig", "ConfigError", "MAX_SAMPLES", "load_config", "canonical_json", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATION = 3
EXIT_INAPPLICABLE = 4
EXIT_CROSSCHECK = 5


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Canonical JSON emission
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f != f or f in (float("inf"), float("-inf")):
            return "null"
        return format(f, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(json.dumps(k) + ":" + canonical_json(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

_PARAM_KEYS = ("m0", "m1", "m2", "l1", "l2", "beta0", "beta1", "beta2", "k")
_GRID_DEFAULTS = {"x_min": 0.01, "x_max": 10.0, "y_min": 0.01, "y_max": 10.0,
                  "nx": 50, "ny": 50, "spacing": "log"}
#: Most trajectory samples ``simulate`` accepts; a sample costs about 130
#: bytes in memory and as many in the CSV.
MAX_SAMPLES = 1_000_000
#: Largest t_end·ρ(J), ρ the linearization's spectral radius, and |component| of
#: the dimensionless initial state (x/l, σ, δ, ẋ/(lω), σ̇/ω, δ̇/ω) ``simulate`` accepts;
#: at 12 to 43 evaluations per unit of t_end·ρ such a run stays inside MAX_RHS_EVALS.
MAX_T_END_RHO = 1e4
MAX_STATE_SCALE = 1e3


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    damping: DampingModel
    initial_state: SystemState
    t_end: float
    samples: int
    grid: GridSpec
    seed: int
    out: Optional[str] = None


def _number(doc: dict, key: str, default=None) -> float:
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing required key: {key}")
        return default
    v = doc[key]
    if not _is_finite_number(v):
        raise ConfigError(f"{key}: expected a finite number")
    return float(v)


def _is_finite_number(v) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration; unknown keys rejected."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    known = set(_PARAM_KEYS) | {"g", "damping", "initial_state", "t_end",
                                "samples", "grid", "seed", "out"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown key: {unknown[0]}")

    params = PhysicalParams(**{k: _number(doc, k) for k in _PARAM_KEYS},
                            g=_number(doc, "g", 9.81))

    try:
        damping = DampingModel(doc.get("damping", "full"))
    except ValueError:
        raise ConfigError(f"damping: expected one of {sorted(m.value for m in DampingModel)}")

    state_raw = doc.get("initial_state", [0.0] * 6)
    if (not isinstance(state_raw, list) or len(state_raw) != 6
            or not all(map(_is_finite_number, state_raw))):
        raise ConfigError("initial_state: expected a list of 6 finite numbers (x, sigma, "
                          "delta, xdot, sigmadot, deltadot)")
    state = SystemState.from_y(*(float(v) for v in state_raw))

    grid_raw = doc.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid: expected an object")
    unknown = sorted(set(grid_raw) - set(_GRID_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown grid key: {unknown[0]}")
    grid_kv = dict(_GRID_DEFAULTS)
    grid_kv.update(grid_raw)
    grid = GridSpec(**grid_kv)

    samples = doc.get("samples", 2001)
    seed = doc.get("seed", 1)
    if not isinstance(samples, int) or not 2 <= samples <= MAX_SAMPLES:
        raise ConfigError(f"samples: expected an integer in [2, {MAX_SAMPLES}]")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")
    t_end = _number(doc, "t_end", 60.0)
    if not t_end > 0:
        raise ConfigError("t_end: expected a positive number")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out: expected a string path")

    return RunConfig(params=params, damping=damping,
                     initial_state=state, t_end=t_end,
                     samples=samples, grid=grid, seed=seed, out=out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_reduce(cfg: RunConfig) -> int:
    rp = reduce_params(cfg.params)
    dc = derived_constants(cfg.params)
    print(canonical_json({"reduced": dataclasses.asdict(rp),
                          "derived": dataclasses.asdict(dc)}))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: Optional[str]) -> int:
    path = out or cfg.out or "trajectory.csv"
    p, y0 = cfg.params, cfg.initial_state.to_y()
    omega, length = reduce_params(p).omega, 0.5 * (p.l1 + p.l2)
    scales = (length, 1.0, 1.0, length * omega, omega, omega)
    if not all(abs(v) <= MAX_STATE_SCALE * s for v, s in zip(y0.coords + y0.vels, scales)):
        raise ParamError("initial_state", f"a dimensionless component exceeds {MAX_STATE_SCALE:g}")
    rho = float(np.abs(np.linalg.eigvals(linear_system(p, cfg.damping))).max())
    if not cfg.t_end * rho <= MAX_T_END_RHO:
        raise ParamError("t_end", f"t_end * rho(J) = {cfg.t_end * rho:.6g} > {MAX_T_END_RHO:g}")
    traj = integrate(cfg.initial_state, cfg.params, cfg.damping, cfg.t_end,
                     samples=cfg.samples)
    traj.write_csv(path)
    e0 = traj.energies[0]
    drift = float(np.max(np.abs(traj.energies - e0)) / max(abs(e0), 1e-300))
    print(canonical_json({
        "out": path,
        "samples": len(traj.times),
        "t_end": cfg.t_end,
        "energy_initial": float(e0),
        "energy_final": float(traj.energies[-1]),
        "max_energy_drift": drift,
    }))
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: Optional[str]) -> int:
    doc = spectrum_report(cfg.params, cfg.damping)
    text = canonical_json(doc)
    path = out or cfg.out
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if doc["rho_m"] is None:
        print("annulus localization inapplicable: some coefficients are not positive",
              file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_OK


def cmd_regions(cfg: RunConfig, out: Optional[str]) -> int:
    if not identical_pendula(cfg.params):
        raise ParamError("m2", "region analysis requires identical pendula")
    if cfg.damping is not DampingModel.FULL_VELOCITY:
        raise ParamError("damping", "region analysis covers full-velocity damping only")
    rp = reduce_params(cfg.params)
    rmap = region_map(cfg.grid, rp.eta, rp.mu)
    path = out or cfg.out or "regions.csv"
    rmap.write_csv(path)
    print(canonical_json({
        "out": path,
        "cells": cfg.grid.nx * cfg.grid.ny,
        "eta": rp.eta,
        "mu": rp.mu,
        "zone_fractions": rmap.zone_fractions(),
        "in_a_fraction": rmap.in_a_fraction(),
    }))
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = run_verification(cfg.seed)
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    if all(r.ok for r in results):
        print(f"verify: {len(results)}/{len(results)} checks passed")
        return EXIT_OK
    print("verify: FAILURES detected", file=sys.stderr)
    return EXIT_CROSSCHECK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coupled-pendula",
        description="Beam-and-pendula dynamics, spectrum localization, and "
                    "synchronization region maps")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (("reduce", "print dimensionless and derived constants"),
                      ("simulate", "integrate the nonlinear system to CSV"),
                      ("spectrum", "characteristic polynomial report (JSON)"),
                      ("regions", "sweep the (X, Y) quadrant to CSV"),
                      ("verify", "run the cross-module oracle checks")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.add_argument("--out", default=None, help="output file path")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(args.config)
            if args.command == "reduce":
                return cmd_reduce(cfg)
            if args.command == "simulate":
                return cmd_simulate(cfg, args.out)
            if args.command == "spectrum":
                return cmd_spectrum(cfg, args.out)
            if args.command == "regions":
                return cmd_regions(cfg, args.out)
            return cmd_verify(cfg)
    except (ConfigError, ParamError, OSError, UnicodeDecodeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StiffnessError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except CrossCheckError as exc:
        print(f"cross-check error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
