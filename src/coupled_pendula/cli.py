"""Command-line front end: ``reduce``, ``simulate``, ``spectrum``,
``regions``, and ``verify``.

All inputs come from a JSON config file (flags select only the command
and output path) so that every run is reproducible from a checked-in
document.  Outputs are canonical: object keys sorted, floats
printed with 17 significant digits, so identical runs are byte-identical.

Exit codes: 0 success, 2 validation failure (also a massless pendulum or
a field outside [1e-40, 1e40], a config or output path that cannot be
opened, a config that is not UTF-8, or the floating-point backstop below),
3 integration failure, 4 method inapplicable (reported, other results
still emitted), 5 internal cross-check violation.

Each command imports the modules it runs when it is called, so a command
loads only what it needs: ``reduce`` runs on this module and
:mod:`.params` alone, without numpy.  The floating-point backstop is
numpy's ``errstate(over, divide, invalid="raise")`` around the four
commands that do array arithmetic (``simulate``, ``spectrum``,
``regions``, ``verify``; see ``_COMMANDS``): an overflow, a division by
zero or an invalid operation there raises FloatingPointError, which exits
2.  Config loading and ``reduce`` compute on Python floats, which raise
or return inf on their own and which ``errstate`` does not govern.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

from .params import (
    CrossCheckError,
    DampingModel,
    GridSpec,
    ParamError,
    PhysicalParams,
    StiffnessError,
    SystemState,
    derived_constants,
    identical_pendula,
    reduce_params,
)

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
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    numpy scalars are numbers.Integral or numbers.Real and arrays convert
    through ``tolist``, so that this needs no numpy import."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        f = float(obj)
        if f != f or f in (float("inf"), float("-inf")):
            return "null"
        return format(f, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(json.dumps(k) + ":" + canonical_json(v) for k, v in items) + "}"
    if hasattr(obj, "tolist"):  # a numpy array
        return canonical_json(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

#: Most trajectory samples ``simulate`` accepts; a sample costs about 130
#: bytes in memory and as many in the CSV.
MAX_SAMPLES = 1_000_000
#: Largest t_end·ρ(J), ρ the linearization's spectral radius, and |component| of
#: the dimensionless initial state (x/l, σ, δ, ẋ/(lω), σ̇/ω, δ̇/ω) ``simulate`` accepts;
#: at 12 to 43 evaluations per unit of t_end·ρ such a run stays inside MAX_RHS_EVALS.
#: ρ(J) is the largest root modulus of the sextic, from the ``poly_roots`` solve
#: whose roots ``spectrum`` prints.
MAX_T_END_RHO = 1e4
MAX_STATE_SCALE = 1e3


@dataclass(frozen=True)
class RunConfig:
    """A checked run; a config that omits a key gets that field's default."""

    params: PhysicalParams
    damping: DampingModel = DampingModel.FULL_VELOCITY
    initial_state: SystemState = SystemState.from_y(0.0, 0.0, 0.0)  # at rest
    t_end: float = 60.0
    samples: int = 2001
    grid: GridSpec = GridSpec()
    seed: int = 1
    out: Optional[str] = None


def _number(doc: dict, key: str, default) -> float:
    v = doc.get(key, default)
    if v is dataclasses.MISSING:
        raise ConfigError(f"missing required key: {key}")
    if not _is_finite_number(v):
        raise ConfigError(f"{key}: expected a finite number")
    return float(v)


def _is_finite_number(v) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; a repeated key is refused, where ``json``
    would keep its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key: {key}")
        doc[key] = value
    return doc


def load_config(path: str) -> RunConfig:
    """Parse and validate a UTF-8 JSON run config; unknown and repeated keys rejected."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:
        # also an integer literal past the digit limit, or nesting too deep
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    param_fields = dataclasses.fields(PhysicalParams)
    known = {f.name for f in param_fields + dataclasses.fields(RunConfig)} - {"params"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown key: {unknown[0]}")

    params = PhysicalParams(**{f.name: _number(doc, f.name, f.default) for f in param_fields})

    try:
        damping = DampingModel(doc.get("damping", RunConfig.damping))
    except ValueError:
        raise ConfigError(f"damping: expected one of {sorted(m.value for m in DampingModel)}")

    state = doc.get("initial_state", RunConfig.initial_state)
    if state is not RunConfig.initial_state:
        if not (isinstance(state, list) and len(state) == 6 and all(map(_is_finite_number, state))):
            raise ConfigError("initial_state: expected a list of 6 finite numbers (x, sigma, "
                              "delta, xdot, sigmadot, deltadot)")
        state = SystemState.from_y(*state)

    grid = doc.get("grid", RunConfig.grid)
    if grid is not RunConfig.grid:
        if not isinstance(grid, dict):
            raise ConfigError("grid: expected an object")
        unknown = sorted(set(grid) - {f.name for f in dataclasses.fields(GridSpec)})
        if unknown:
            raise ConfigError(f"unknown grid key: {unknown[0]}")
        grid = GridSpec(**grid)

    samples = doc.get("samples", RunConfig.samples)
    seed = doc.get("seed", RunConfig.seed)
    if not isinstance(samples, int) or not 2 <= samples <= MAX_SAMPLES:
        raise ConfigError(f"samples: expected an integer in [2, {MAX_SAMPLES}]")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")
    t_end = _number(doc, "t_end", RunConfig.t_end)
    if not t_end > 0:
        raise ConfigError("t_end: expected a positive number")
    out = doc.get("out", RunConfig.out)
    if out is not None and not isinstance(out, str):
        raise ConfigError("out: expected a string path")

    return RunConfig(params=params, damping=damping,
                     initial_state=state, t_end=t_end,
                     samples=samples, grid=grid, seed=seed, out=out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` and a newline to the file ``out``, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _trapping_fp_errors(command):
    """``command`` run with numpy's overflow, division by zero and invalid
    operations raising FloatingPointError instead of warning."""
    @functools.wraps(command)
    def trapped(cfg: RunConfig, out: Optional[str]) -> int:
        import numpy as np

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return command(cfg, out)
    return trapped


def cmd_reduce(cfg: RunConfig, out: Optional[str]) -> int:
    rp = reduce_params(cfg.params)
    dc = derived_constants(cfg.params)
    _emit(canonical_json({"reduced": dataclasses.asdict(rp),
                          "derived": dataclasses.asdict(dc)}), out)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: Optional[str]) -> int:
    import numpy as np

    from .dynamics import integrate
    from .spectral import char_poly_general, poly_roots

    path = out or "trajectory.csv"
    p, y0 = cfg.params, cfg.initial_state.to_y()
    omega, length = reduce_params(p).omega, 0.5 * (p.l1 + p.l2)
    scales = (length, 1.0, 1.0, length * omega, omega, omega)
    if not all(abs(v) <= MAX_STATE_SCALE * s for v, s in zip(y0.coords + y0.vels, scales)):
        raise ParamError("initial_state", f"a dimensionless component exceeds {MAX_STATE_SCALE:g}")
    row = np.array([dataclasses.astuple(p)])
    rho = float(np.abs(poly_roots(char_poly_general(row, cfg.damping))).max())
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
    from .spectral import spectrum_report

    doc = spectrum_report(cfg.params, cfg.damping)
    _emit(canonical_json(doc), out)
    if doc["rho_m"] is None:
        print("annulus localization inapplicable: some coefficients are not positive",
              file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_OK


def cmd_regions(cfg: RunConfig, out: Optional[str]) -> int:
    from .regions import region_map

    if not identical_pendula(cfg.params):
        raise ParamError("m2", "region analysis requires identical pendula")
    if cfg.damping is not DampingModel.FULL_VELOCITY:
        raise ParamError("damping", "region analysis covers full-velocity damping only")
    if cfg.params.beta1 == 0:  # then beta2 == 0 too, and eta = 0 lies outside the quadrant box
        raise ParamError("beta1", "region analysis requires damped pendula")
    rp = reduce_params(cfg.params)
    rmap = region_map(cfg.grid, rp.eta, rp.mu)
    path = out or "regions.csv"
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


def cmd_verify(cfg: RunConfig, out: Optional[str]) -> int:
    from .verification import run_verification

    results = run_verification(cfg.seed)
    lines = [f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}" for res in results]
    passed = all(r.ok for r in results)
    if passed:
        lines.append(f"verify: {len(results)}/{len(results)} checks passed")
    _emit("\n".join(lines), out)
    if passed:
        return EXIT_OK
    print("verify: FAILURES detected", file=sys.stderr)
    return EXIT_CROSSCHECK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


#: Each command's function, called as ``fn(cfg, out)`` with ``--out`` or else the
#: config's ``out``, and its help line.  The commands that do array arithmetic
#: run under the floating-point trap.
_COMMANDS = {
    "reduce": (cmd_reduce, "print dimensionless and derived constants"),
    "simulate": (_trapping_fp_errors(cmd_simulate), "integrate the nonlinear system to CSV"),
    "spectrum": (_trapping_fp_errors(cmd_spectrum), "characteristic polynomial report (JSON)"),
    "regions": (_trapping_fp_errors(cmd_regions), "sweep the (X, Y) quadrant to CSV"),
    "verify": (_trapping_fp_errors(cmd_verify), "run the cross-module oracle checks"),
}

# Built once, at import: a main call only parses its argv.
_PARSER = argparse.ArgumentParser(
    prog="coupled-pendula",
    description="Beam-and-pendula dynamics, spectrum localization, and "
                "synchronization region maps")
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True)
for _name, (_, _doc) in _COMMANDS.items():
    _sp = _SUBPARSERS.add_parser(_name, help=_doc)
    _sp.add_argument("--config", required=True, help="JSON configuration file")
    _sp.add_argument("--out", default=None, help="output file path")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        return command(cfg, args.out or cfg.out)
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
