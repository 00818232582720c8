"""Correctness gates: every CLI call's output is checked against an
independent expectation, prepared once per config outside the timing.

* ``reduce``: the printed constants equal the library's ``reduce_params``.
* ``simulate``: CSV shape and finiteness, the time grid, the whole sampled
  trajectory against a reference integrated through the mass-matrix path
  (``accel_q``) with DOP853 at tighter tolerances, energy that never rises
  beyond print roundoff on dissipative runs, and the printed summary.
* ``regions``: the row count, every cell of a seeded sample of nodes
  against the scalar public verdicts, and the printed fractions against a
  recount of the whole CSV.
* ``verify``: exit code 0 and a PASS line for each of the five checks.

``corrupt`` plants a fault in an output so the self-test can confirm that
the gate rejects it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from coupled_pendula import (
    BranchUnsupportedError,
    DampingModel,
    PhysicalParams,
    QuadrantPoint,
    SystemState,
    accel_q,
    antiphase_conditions,
    classify_zone,
    complex_root_bound,
    conic_conditions,
    energy,
    integrate,
    reduce_params,
    semicircle_condition,
)

from workloads import VERIFY_CHECKS, Op

# Largest trajectory error, per component and relative to that component's
# largest magnitude along the reference. The program's RK45 at rtol 1e-10,
# atol 1e-12 lands below 1.5e-9 on these configs; loosening rtol or atol by
# 100x lands above 2.5e-8.
TRAJECTORY_TOL = 1e-8
# Energy may rise between samples only by print roundoff: the CSV carries
# 10 significant digits.
ENERGY_RISE_TOL = 1e-8
REFERENCE_RTOL, REFERENCE_ATOL = 1e-12, 1e-14
SIM_HEADER = "t,x,sigma,delta,xdot,sigmadot,deltadot,energy"
REGIONS_HEADER = ("X,Y,zone,conic1,conic2,conic3,conic4,condA,condB,inA,"
                  "semicircle,refined,rho_m_over_omega,rho_M_over_omega")
REGIONS_SAMPLE = 64
_PARAM_KEYS = ("m0", "m1", "m2", "l1", "l2", "beta0", "beta1", "beta2", "k")


@dataclass
class CallResult:
    """What one in-process or fresh-interpreter CLI call produced."""

    op: Op
    command: str
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None  # traceback when the call raised
    out_path: Optional[str] = None


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def params_of(config: dict) -> PhysicalParams:
    return PhysicalParams(**{k: config[k] for k in _PARAM_KEYS}, g=config.get("g", 9.81))


def _close(got, want: float, rtol: float) -> bool:
    """Whether ``got``, a number or a numeric string, is within rtol of ``want``."""
    try:
        got = float(got)
    except (TypeError, ValueError):
        return False
    return abs(got - want) <= rtol * max(abs(got), abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Expectations, prepared once per config
# ---------------------------------------------------------------------------


def reference_trajectory(config: dict) -> np.ndarray:
    """y-form states on the sample grid from the mass-matrix path."""
    p = params_of(config)
    model = DampingModel(config.get("damping", "full"))
    q0 = SystemState.from_y(*config["initial_state"]).to_q().as_vector()

    def rhs(t, q):
        return np.concatenate([q[3:], accel_q(SystemState.from_q(*q), p, model)])

    t_end, samples = config["t_end"], config["samples"]
    sol = solve_ivp(rhs, (0.0, t_end), q0, method="DOP853",
                    rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL,
                    t_eval=np.linspace(0.0, t_end, samples))
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    x, t1, t2, xd, t1d, t2d = sol.y
    return np.column_stack([x, t1 + t2, t1 - t2, xd, t1d + t2d, t1d - t2d])


def _expected_cells(X: float, Y: float, eta: float, mu: float) -> list:
    """The CSV cells of one node from the scalar public verdicts."""
    q = QuadrantPoint(X=X, Y=Y, eta=eta, mu=mu)
    flag = {True: "true", False: "false", None: "na"}
    try:
        anti = antiphase_conditions(q)
        branch = [flag[anti.cond_a], flag[anti.cond_b], flag[anti.in_a_set],
                  flag[semicircle_condition(q)]]
    except BranchUnsupportedError:
        branch = ["na"] * 4
    bound = complex_root_bound(q)
    r = q.ratios()
    return [X, Y, classify_zone(q), *(flag[c] for c in conic_conditions(q)), *branch,
            flag[bound.refined_ok if bound.applicable else None],
            min(r[0], r[1]), max(r[2], r[3])]


def _axis(lo: float, hi: float, n: int, spacing: str) -> np.ndarray:
    if n == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, n) if spacing == "log" else np.linspace(lo, hi, n)


def prepare(command: str, config: dict, rng: np.random.Generator):
    """The expectation a gate compares a ``command`` call's output with."""
    if command == "simulate":
        return reference_trajectory(config)
    if command == "verify":
        return None
    rp = reduce_params(params_of(config))
    if command == "regions":
        g = config["grid"]
        xs = _axis(g["x_min"], g["x_max"], g["nx"], g["spacing"])
        ys = _axis(g["y_min"], g["y_max"], g["ny"], g["spacing"])
        rows = np.sort(rng.choice(xs.size * ys.size, REGIONS_SAMPLE, replace=False))
        return {int(i): _expected_cells(float(xs[i % xs.size]), float(ys[i // xs.size]),
                                        rp.eta, rp.mu) for i in rows}
    return rp


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def _summary(result: CallResult, v: Verdict) -> dict:
    try:
        doc = json.loads(result.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        v.problems.append("stdout: no JSON summary")
        return {}
    if not isinstance(doc, dict):
        v.problems.append("stdout: summary is not an object")
        return {}
    return doc


def trajectory_error(states: np.ndarray, reference: np.ndarray) -> float:
    """Largest per-component error relative to the component's magnitude."""
    scale = np.maximum(np.max(np.abs(reference), axis=0), 1e-12)
    return float(np.max(np.abs(states - reference) / scale))


def energy_must_decrease(config: dict) -> bool:
    """Whether damping dissipates energy at every state.

    Full-velocity damping always does. Rotational-only damping dissipates
    the quadratic form β0 ẋ² + Σ β_j l_j θ̇_j (ẋ cos θ_j + l_j θ̇_j), which
    is positive definite exactly when β0 > Σ β_j cos²θ_j / 4, so for every
    angle when β0 > (β1 + β2) / 4.
    """
    if config.get("damping", "full") == "full":
        return True
    return config["beta0"] > (config["beta1"] + config["beta2"]) / 4.0


def _check_reduce(result: CallResult, rp, v: Verdict) -> None:
    reduced = _summary(result, v).get("reduced")
    if not isinstance(reduced, dict):
        v.problems.append("reduce: no 'reduced' object")
        return
    for key in ("mu", "eta", "X", "Y", "omega"):
        if not _close(reduced.get(key), getattr(rp, key), 1e-15):
            v.problems.append(f"reduce: {key} differs from reduce_params")


def _check_simulate(result: CallResult, reference: np.ndarray, v: Verdict) -> None:
    config = result.op.config
    with open(result.out_path) as fh:
        header = fh.readline().rstrip("\n")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            v.problems.append(f"csv: unparsable ({exc})")
            return
    if header != SIM_HEADER:
        v.problems.append("csv: wrong header")
    if data.shape != (config["samples"], 8):
        v.problems.append(f"csv: shape {data.shape}, expected ({config['samples']}, 8)")
        return
    if not np.all(np.isfinite(data)):
        v.problems.append("csv: non-finite values")
        return
    times, states, energies = data[:, 0], data[:, 1:7], data[:, 7]
    if np.max(np.abs(times - np.linspace(0.0, config["t_end"], config["samples"]))) > 1e-9 * config["t_end"]:
        v.problems.append("csv: wrong time grid")
    err = trajectory_error(states, reference)
    if err > TRAJECTORY_TOL:
        v.problems.append(f"state: trajectory error {err:.3e} > {TRAJECTORY_TOL:g}")
    e_scale = float(np.max(np.abs(energies)))
    p = params_of(config)
    for i in (0, len(energies) // 2, len(energies) - 1):
        if abs(energy(SystemState.from_y(*states[i]), p) - energies[i]) > 1e-9 * e_scale:
            v.problems.append(f"energy: column differs from energy() at row {i}")
            break
    if energy_must_decrease(config):
        rise = float(np.max(energies - np.minimum.accumulate(energies)))
        if rise > ENERGY_RISE_TOL * e_scale:
            v.problems.append(f"energy: rises by {rise:.3e} J on a damped run")
    doc = _summary(result, v)
    drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    # (value the CSV gives, allowed difference from CSV print roundoff)
    expected = {"samples": (config["samples"], 0.0), "t_end": (config["t_end"], 0.0),
                "energy_initial": (energies[0], 1e-9 * e_scale),
                "energy_final": (energies[-1], 1e-9 * e_scale),
                "max_energy_drift": (drift, 1e-8)}
    for key, (want, tol) in expected.items():
        got = doc.get(key)
        if not isinstance(got, (int, float)) or abs(got - want) > tol:
            v.problems.append(f"stdout: {key} is {got}, CSV gives {want}")
    if doc.get("out") != result.out_path:
        v.problems.append("stdout: wrong output path")


def _check_regions(result: CallResult, expected: dict, v: Verdict) -> None:
    config = result.op.config
    nodes = config["grid"]["nx"] * config["grid"]["ny"]
    zones = dict.fromkeys(("Z1", "Z2", "Z3", "Z4"), 0)
    in_a = {"true": 0, "false": 0, "na": 0}
    refined_useful = rows = 0
    with open(result.out_path) as fh:
        if fh.readline().rstrip("\n") != REGIONS_HEADER:
            v.problems.append("csv: wrong header")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) != 14 or cells[2] not in zones or cells[9] not in in_a:
                v.problems.append(f"csv: malformed row {rows}")
                return
            zones[cells[2]] += 1
            in_a[cells[9]] += 1
            refined_useful += cells[11] != "na"
            want = expected.get(rows)
            if want is not None:
                # 2e-9: the CSV prints floats with 10 significant digits
                bad = [j for j, (cell, w) in enumerate(zip(cells, want))
                       if (cell != w if isinstance(w, str) else not _close(cell, w, 2e-9))]
                if bad:
                    v.problems.append(f"csv: row {rows} differs from the scalar verdicts "
                                      f"in columns {bad}")
            rows += 1
    v.stats.update(rows=rows, refined_useful=refined_useful)
    if rows != nodes:
        v.problems.append(f"csv: {rows} rows, expected {nodes}")
        return
    doc = _summary(result, v)
    rp = reduce_params(params_of(config))
    if doc.get("cells") != nodes or doc.get("eta") != rp.eta or doc.get("mu") != rp.mu:
        v.problems.append("stdout: cells, eta or mu wrong")
    fractions = doc.get("zone_fractions") or {}
    for z, n in zones.items():
        if fractions.get(z) != n / rows:
            v.problems.append(f"stdout: {z} fraction {fractions.get(z)}, CSV gives {n / rows}")
    want_in_a = None if in_a["na"] else in_a["true"] / rows
    if doc.get("in_a_fraction") != want_in_a:
        v.problems.append(f"stdout: in_a_fraction {doc.get('in_a_fraction')}, CSV gives {want_in_a}")
    if doc.get("out") != result.out_path:
        v.problems.append("stdout: wrong output path")


def _check_verify(result: CallResult, v: Verdict) -> None:
    lines = result.stdout.strip().splitlines()
    passed = {line.split()[1].rstrip(":") for line in lines
              if line.startswith("PASS ") and len(line.split()) > 1}
    if passed != set(VERIFY_CHECKS) or any(line.startswith("FAIL") for line in lines):
        v.problems.append(f"verify: PASS lines for {sorted(passed)}")
    if not lines or lines[-1] != f"verify: {len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed":
        v.problems.append("verify: no all-passed summary line")


def check(result: CallResult, expected) -> Verdict:
    """Gate one call; any problem makes it a failed operation."""
    v = Verdict()
    if result.error is not None:
        v.problems.append("raised: " + result.error.strip().splitlines()[-1])
        return v
    if result.code != 0:
        v.problems.append(f"exit code {result.code}: {result.stderr.strip()[-200:]}")
        return v
    if result.out_path is not None and not os.path.exists(result.out_path):
        v.problems.append("no output file")
        return v
    if result.command == "reduce":
        _check_reduce(result, expected, v)
    elif result.command == "simulate":
        _check_simulate(result, expected, v)
    elif result.command == "regions":
        _check_regions(result, expected, v)
    else:
        _check_verify(result, v)
    return v


# ---------------------------------------------------------------------------
# Planted faults
# ---------------------------------------------------------------------------


def _rewrite_line(path: str, index: int, edit) -> None:
    """Apply ``edit`` to line ``index`` (0 = header) of a text file."""
    tmp = path + ".tmp"
    with open(path) as src, open(tmp, "w") as dst:
        for i, line in enumerate(src):
            dst.write(edit(line) if i == index else line)
    os.replace(tmp, path)


def corrupt(result: CallResult, expected) -> None:
    """Plant one wrong value in the call's output, in place."""
    if result.command == "simulate":
        # the final beam position, off by ten times the trajectory tolerance
        shift = 10 * TRAJECTORY_TOL * float(np.max(np.abs(expected[:, 0])))

        def nudge(line):
            cells = line.rstrip("\n").split(",")
            cells[1] = format(float(cells[1]) + shift, ".9e")
            return ",".join(cells) + "\n"
        _rewrite_line(result.out_path, result.op.config["samples"], nudge)
    elif result.command == "regions":
        # flip conic1 on the first sampled node
        def flip(line):
            cells = line.rstrip("\n").split(",")
            cells[3] = "false" if cells[3] == "true" else "true"
            return ",".join(cells) + "\n"
        _rewrite_line(result.out_path, 1 + min(expected), flip)
    else:
        result.stdout = result.stdout.replace("PASS", "FAIL", 1)


def loosened_trajectory_errors(config: dict, reference: np.ndarray) -> dict:
    """Trajectory errors of the library integrator with 100x looser tolerances."""
    p = params_of(config)
    model = DampingModel(config.get("damping", "full"))
    s0 = SystemState.from_y(*config["initial_state"])
    out = {}
    for name, tols in (("rtol", {"rtol": 1e-8}), ("atol", {"atol": 1e-10})):
        traj = integrate(s0, p, model, config["t_end"], samples=config["samples"], **tols)
        out[name] = trajectory_error(traj.states, reference)
    return out
