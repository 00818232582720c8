"""End-to-end benchmark of the coupled-pendula CLI, with a traced run for
per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0

One process runs one workload. It writes seeded JSON configs, times
fresh interpreters running ``coupled-pendula reduce`` (``setup_s``), makes
one warm-up call and then passes of in-process ``coupled_pendula.cli.main``
calls in a closed loop for up to ``--seconds`` seconds, and gates every
call's output. With ``--trace 1`` it alternates untraced and traced passes and
reports per-layer metrics instead of end-to-end ones. ``--plant-fault``
corrupts every in-process call's output before the gate, which must then
count each of those calls as failed.

The last line of stdout is the result as one JSON object; the line before
it is the run's provenance. A fuller record, with the spans of a traced
run, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spans import Recorder, instrumented
from workloads import VERIFY_CHECKS, WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
# What the ``coupled-pendula`` console script runs.
CLI_SHIM = "import sys; from coupled_pendula.cli import main; sys.exit(main())"
IMPORT_METRICS = {
    "cli.import_s": "coupled_pendula.cli",
    "dynamics.import_s": "coupled_pendula.dynamics",
    "spectral.import_s": "coupled_pendula.spectral",
    "regions.import_s": "coupled_pendula.regions",
    "package.import_s": "coupled_pendula",
    "scipy_integrate.import_s": "scipy.integrate",
    "scipy_signal.import_s": "scipy.signal",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-fault", action="store_true",
                    help="corrupt every in-process call's output before the gate")
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and result of a fresh interpreter started in the checkout."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def import_breakdown() -> dict[str, float]:
    """Cumulative import time per module, as ``-X importtime`` reports it."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        _, proc = run_child(["-X", "importtime", "-c", "import coupled_pendula.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importing the package failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        runs.append(cumulative)
    return {metric: statistics.median(r.get(module, 0.0) for r in runs)
            for metric, module in IMPORT_METRICS.items()}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() or None


def python_lines(directory: Path) -> int:
    total = 0
    for path in sorted(directory.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plant_fault": args.plant_fault,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": git_commit(),
        "src_lines": python_lines(SRC), "test_lines": python_lines(ROOT / "tests"),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Bench:
    """One workload's configs, expectations, passes and tallies."""

    def __init__(self, args, work: Path, gates, cli):
        self.args, self.work, self.gates, self.cli = args, work, gates, cli
        self.ops = make_ops(args.workload, args.seed)
        self.config_paths = []
        for op in self.ops:
            path = work / f"{op.name}.json"
            path.write_text(json.dumps(op.config, indent=1) + "\n")
            self.config_paths.append(str(path))
        rng = np.random.default_rng([args.seed, 7])
        self.expected = [gates.prepare(op.command, op.config, rng) for op in self.ops]
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def tally(self, result, expected) -> dict:
        """Count one call as attempted, and as failed unless its gate passes."""
        verdict = self.gates.check(result, expected)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.problems.append(f"{result.op.name} ({result.command}): "
                                 + "; ".join(verdict.problems[:3]))
        return verdict.stats

    def measure_setup(self) -> float:
        op, times = self.ops[0], []
        expected = self.gates.prepare("reduce", op.config, None)
        for _ in range(SETUP_REPEATS):
            seconds, proc = run_child(["-c", CLI_SHIM, "reduce", "--config", self.config_paths[0]])
            times.append(seconds)
            self.tally(self.gates.CallResult(op, "reduce", proc.returncode, proc.stdout,
                                             proc.stderr), expected)
        return statistics.median(times)

    def _call(self, i: int):
        op = self.ops[i]
        out_path = None if op.command == "verify" else str(self.work / f"{op.name}.csv")
        argv = [op.command, "--config", self.config_paths[i]]
        if out_path is not None:
            argv += ["--out", out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        code = error = None
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        return self.gates.CallResult(op, op.command, code, stdout.getvalue(),
                                     stderr.getvalue(), error, out_path)

    def run_pass(self, rec=None) -> tuple[float, list]:
        """Wall time and results of one pass of every call, back to back."""
        results = []
        gc.collect()  # start every pass from the same collector state, as a fresh process would
        t0 = perf_counter()
        root = rec.open("pass") if rec else None
        for i in range(len(self.ops)):
            if rec:
                rec.op = i
                idx = rec.open("cli.main")
            results.append(self._call(i))
            if rec:
                rec.close(idx)
        if rec:
            rec.close(root)
        return perf_counter() - t0, results

    def gate(self, results) -> list[dict]:
        """Gate every output of a pass; returns the gates' stats."""
        if self.args.plant_fault:
            for result, expected in zip(results, self.expected):
                self.gates.corrupt(result, expected)
        return [self.tally(r, e) for r, e in zip(results, self.expected)]

    def self_test(self, results) -> list[str]:
        """Plant a fault in a good output of the last pass; the gate must reject it."""
        missed = []
        result, expected = results[0], self.expected[0]
        if not self.gates.check(result, expected).ok:
            return missed  # already counted as a failure
        self.gates.corrupt(result, expected)
        if self.gates.check(result, expected).ok:
            missed.append(f"planted fault in {result.op.name} passed the gate")
        if result.command == "simulate":
            for name, err in self.gates.loosened_trajectory_errors(result.op.config,
                                                                   expected).items():
                if err <= self.gates.TRAJECTORY_TOL:
                    missed.append(f"100x looser {name} passed the trajectory gate ({err:.3e})")
        return missed


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_frac", "fraction"),
                         ("us_per_rhs", "us"), ("ns_per_node", "ns")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(rec, stats: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    t, c = rec.totals(), rec.counts

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def self_of(prefix):
        return sum(a["self_s"] for n, a in t.items() if n.startswith(prefix))

    nfev, nodes = c["dynamics.rhs_evals"], c["regions.nodes"]
    rows = sum(s.get("rows", 0) for s in stats)
    m = {
        "cli.load_config_s": total("cli.load_config"),
        "dynamics.integrate_calls": calls("dynamics.integrate"),
        "dynamics.integrate_s": total("dynamics.integrate"),
        "dynamics.rhs_evals": nfev,
        "dynamics.us_per_rhs": total("scipy.solve_ivp") / nfev * 1e6 if nfev else 0.0,
        "dynamics.solver_failures": c["dynamics.solver_failures"],
        "dynamics.write_csv_s": total("dynamics.write_csv"),
        "dynamics.csv_bytes": c["dynamics.csv_bytes"],
        "spectral.enestrom_kakeya_s": total("spectral.enestrom_kakeya"),
        "regions.nodes": nodes,
        "regions.region_map_s": total("regions.region_map"),
        "regions.ns_per_node": total("regions.region_map") / nodes * 1e9 if nodes else 0.0,
        "regions.write_csv_s": total("regions.write_csv"),
        "regions.csv_bytes": c["regions.csv_bytes"],
        "regions.summary_s": total("regions.zone_fractions") + total("regions.in_a_fraction"),
        "regions.refined_useful_frac":
            sum(s.get("refined_useful", 0) for s in stats) / rows if rows else 0.0,
        "regions.decay_fit_self_s": t.get("regions.empirical_decay_rates", {}).get("self_s", 0.0),
        "verification.checks_failed": c["verification.checks_failed"],
        "trace.spans": len(rec.spans),
        "trace.unattributed_s": t["pass"]["self_s"],
        "trace.self_sum_s": sum(a["self_s"] for a in t.values()),
    }
    for fn in ("char_poly_general", "poly_roots", "routh_hurwitz"):
        m[f"spectral.{fn}_calls"] = calls(f"spectral.{fn}")
        m[f"spectral.{fn}_s"] = total(f"spectral.{fn}")
    for check in VERIFY_CHECKS:
        m[f"verification.{check}_s"] = total(f"verification.{check}")
    for layer in ("cli", "dynamics", "scipy", "spectral", "regions", "verification"):
        m[f"{layer}.self_s"] = self_of(layer + ".")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coupled_pendula" / "cli.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'coupled_pendula'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gates  # imports the package, so only once src/ is on the path
    from coupled_pendula import cli

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        bench = Bench(args, work, gates, cli)
        metrics = {}
        if args.trace == 0:
            metrics["setup_s"] = (bench.measure_setup(), "s")
        else:
            for name, value in import_breakdown().items():
                metrics[name] = (value, "s")
        bench.gate([bench._call(0)])  # warm-up: loads what every later call uses
        untraced, traced, per_pass, spans = [], [], [], []
        t0, step = perf_counter(), 0.0
        while (not untraced or (args.trace and not traced)
               or perf_counter() - t0 + step <= args.seconds):
            # A pass starts only if it should end within --seconds, judged by
            # the last pass and its gate, so a run never overruns by a pass.
            step_start = perf_counter()
            if args.trace and len(traced) < len(untraced):
                rec = Recorder()
                with instrumented(rec):
                    elapsed, results = bench.run_pass(rec)
                traced.append(elapsed)
                per_pass.append(layer_metrics(rec, bench.gate(results)))
                spans.append(rec.spans)
            else:
                elapsed, results = bench.run_pass()
                bench.gate(results)
                untraced.append(elapsed)
            step = perf_counter() - step_start
        missed = bench.self_test(results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace == 0:
            metrics["run_s"] = (statistics.median(untraced), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
            metrics["success_rate"] = (1.0 - bench.failed / bench.attempted, "fraction")
        else:
            for name in per_pass[0]:
                metrics[name] = (statistics.median(p[name] for p in per_pass), unit_of(name))
            run_u, run_t = statistics.median(untraced), statistics.median(traced)
            metrics["trace.untraced_run_s"] = (run_u, "s")
            metrics["trace.traced_run_s"] = (run_t, "s")
            metrics["trace.overhead_s"] = (run_t - run_u, "s")

        for problem in bench.problems[:10] + missed:
            print(f"perfbench: {problem}", file=sys.stderr)
        prov = provenance(args)
        prov.update(passes_untraced=untraced, passes_traced=traced,
                    calls=[op.name for op in bench.ops], self_test_missed=missed)
        result = {
            "correct": bench.failed == 0 and not missed,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        OUT_DIR.mkdir(exist_ok=True)
        record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps({"provenance": prov, "result": result,
                                           "problems": bench.problems,
                                           "spans": spans}) + "\n")
        print("provenance: " + json.dumps(prov))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
