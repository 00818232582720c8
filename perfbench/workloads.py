"""Seeded inputs for the benchmark workloads.

A workload is the list of CLI calls that make up one pass. The benchmark
repeats the same pass in a closed loop, so every pass of a run does the
same work; the seed only chooses the parameters. Parameter ranges are
narrow on purpose: the cost of one pass must not depend on the seed, or
seed-to-seed differences would show up as run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pinned sizes, as in the ROADMAP baseline table.
SIM_T_END = 60.0
SIM_SAMPLES = 2001
GRID_NODES_PER_AXIS = 500

WORKLOADS = ("simulate", "regions", "verify")
VERIFY_CHECKS = ("formulation_equivalence", "factorization", "ek_containment",
                 "rh_vs_roots", "decay_panel")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``coupled-pendula <command> --config <name>.json``."""

    name: str
    command: str
    config: dict


def _near(rng: np.random.Generator, centre: float, rel: float = 0.1) -> float:
    return float(centre * rng.uniform(1.0 - rel, 1.0 + rel))


def _simulate_ops(rng: np.random.Generator) -> list[Op]:
    # Every combination of identical/asymmetric pendula and damping model,
    # around the README's default configuration. beta0 > (beta1 + beta2)/4
    # holds for every draw, which keeps rotational-only damping dissipative
    # (see gates.energy_must_decrease).
    ops = []
    for identical in (True, False):
        for damping in ("full", "rotational"):
            m1, l1, b1 = _near(rng, 1.0), _near(rng, 1.0), _near(rng, 0.1)
            if identical:
                m2, l2, b2 = m1, l1, b1
            else:
                m2, l2, b2 = _near(rng, 1.0), _near(rng, 1.0), _near(rng, 0.1)
            config = {
                "m0": _near(rng, 2.0), "m1": m1, "m2": m2, "l1": l1, "l2": l2,
                "beta0": _near(rng, 0.3), "beta1": b1, "beta2": b2,
                "k": _near(rng, 5.0), "damping": damping,
                "initial_state": [_near(rng, 0.01), _near(rng, 0.02),
                                  _near(rng, 0.015), 0.0, 0.0, 0.0],
                "t_end": SIM_T_END, "samples": SIM_SAMPLES,
            }
            kind = "identical" if identical else "asymmetric"
            ops.append(Op(f"simulate-{kind}-{damping}", "simulate", config))
    return ops


def _regions_ops(rng: np.random.Generator) -> list[Op]:
    # One sweep on the analysed eta <= 1 branch (log grid) and one on the
    # eta > 1 branch, whose verdicts are all "na" (linear grid).
    # Imported here: the package is importable only once run.py has put
    # the checkout's src/ on the path.
    from coupled_pendula import params_from_dimensionless

    ops = []
    for name, eta, spacing in (("regions-low-eta", rng.uniform(0.2, 0.95), "log"),
                               ("regions-high-eta", rng.uniform(1.2, 3.0), "linear")):
        p = params_from_dimensionless(eta=float(eta), X=rng.uniform(0.5, 2.0),
                                      Y=rng.uniform(0.5, 2.0), mu=rng.uniform(0.05, 0.45),
                                      omega=rng.uniform(2.5, 3.5))
        config = {
            "m0": p.m0, "m1": p.m1, "m2": p.m2, "l1": p.l1, "l2": p.l2,
            "beta0": p.beta0, "beta1": p.beta1, "beta2": p.beta2, "k": p.k,
            "grid": {"x_min": 0.01, "x_max": 10.0, "y_min": 0.01, "y_max": 10.0,
                     "nx": GRID_NODES_PER_AXIS, "ny": GRID_NODES_PER_AXIS,
                     "spacing": spacing},
        }
        ops.append(Op(name, "regions", config))
    return ops


def _verify_ops(rng: np.random.Generator, seed: int) -> list[Op]:
    config = {"m0": _near(rng, 2.0), "m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0,
              "beta0": _near(rng, 0.3), "beta1": 0.1, "beta2": 0.1,
              "k": _near(rng, 5.0), "seed": seed}
    return [Op("verify", "verify", config)]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The calls of one pass of ``workload``; the same seed gives the same calls."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "simulate":
        return _simulate_ops(rng)
    if workload == "regions":
        return _regions_ops(rng)
    return _verify_ops(rng, seed)
