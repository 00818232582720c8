import json
import math

import numpy as np
import pytest

from coupled_pendula.cli import canonical_json, load_config, main
from coupled_pendula.verification import check_decay_panel, run_verification

BASE = {
    "m0": 2.0, "m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0,
    "beta0": 0.3, "beta1": 0.1, "beta2": 0.1, "k": 5.0,
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = dict(BASE)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_defaults_applied(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.params.g == 9.81
    assert cfg.damping.value == "full"
    assert cfg.initial_state.as_vector().tolist() == [0.0] * 6


def test_unknown_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, bogus=1.0)
    code, _, err = run(capsys, "reduce", "--config", path)
    assert code == 2
    assert "bogus" in err


def test_missing_key_rejected(tmp_path, capsys):
    doc = dict(BASE)
    del doc["k"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "reduce", "--config", str(path))
    assert code == 2 and "k" in err


@pytest.mark.parametrize("command, field, overrides", [
    ("spectrum", "beta0", {"beta0": math.nan}),
    ("simulate", "initial_state", {"initial_state": [0.01, math.nan, 0, 0, 0, 0]}),
    ("simulate", "t_end", {"t_end": math.inf}),
    ("simulate", "t_end", {"t_end": -1.0}),
    ("simulate", "t_end", {"t_end": 0.0}),
    ("verify", "seed", {"seed": True}),
    ("verify", "seed", {"seed": -1}),
])
def test_non_finite_input_rejected(tmp_path, capsys, command, field, overrides):
    # json writes and reads NaN/Infinity literals; each, like a
    # non-positive t_end or a bool or negative seed, must fail validation
    # instead of reaching the solver or the random generator
    path = write_config(tmp_path, **overrides)
    code, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith(f"error: {field}:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_values(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce", "--config", write_config(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"]["mu"] == 0.25
    assert doc["reduced"]["omega"] == pytest.approx(math.sqrt(9.81), rel=1e-12)
    assert doc["derived"]["bm_minus"] == 0.0


def test_reduce_invalid_exit_names_field(tmp_path, capsys):
    code, _, err = run(capsys, "reduce", "--config", write_config(tmp_path, m0=0.0))
    assert code == 2
    assert "m0" in err


def test_reduce_output_idempotent(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run(capsys, "reduce", "--config", path)
    assert code == 0
    assert canonical_json(json.loads(out)) == out.strip()
    code2, out2, _ = run(capsys, "reduce", "--config", path)
    assert out2 == out  # byte-identical reruns


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_state(tmp_path, capsys):
    path = write_config(tmp_path, t_end=2.0, samples=21)
    out_csv = tmp_path / "t.csv"
    code, out, _ = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 22
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.max(np.abs(data[:, 1:7])) == 0.0
    assert np.all(data[:, 7] == data[0, 7])  # constant energy offset
    summary = json.loads(out)
    assert summary["samples"] == 21


def test_simulate_frictionless_energy_drift(tmp_path, capsys):
    path = write_config(tmp_path, beta0=0.0, beta1=0.0, beta2=0.0,
                        initial_state=[0.01, 0.02, -0.01, 0, 0, 0],
                        t_end=20.0, samples=501)
    code, out, _ = run(capsys, "simulate", "--config", path,
                       "--out", str(tmp_path / "t.csv"))
    assert code == 0
    assert json.loads(out)["max_energy_drift"] <= 1e-8


def test_simulate_delta_decay_matches_closed_form(tmp_path, capsys):
    from coupled_pendula import PhysicalParams, delta_closed_form
    path = write_config(tmp_path, initial_state=[0, 0, 0.001, 0, 0, 0],
                        t_end=10.0, samples=1001)
    out_csv = tmp_path / "t.csv"
    code, _, _ = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    p = PhysicalParams(**BASE)
    ref = delta_closed_form(p, 0.001, 0.0, data[:, 0])
    assert abs(data[-1, 3] - ref[-1]) <= 1e-6


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_identical_report(tmp_path, capsys):
    code, out, _ = run(capsys, "spectrum", "--config", write_config(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["stable"] is True
    assert doc["zone"] in ("Z1", "Z2", "Z3", "Z4")
    assert doc["factors"] is not None
    assert len(doc["factors"]["quartic"]) == 5
    assert len(doc["roots"]) == 6
    mods = [math.hypot(r["re"], r["im"]) for r in doc["roots"]]
    assert min(mods) >= doc["rho_m"] * (1 - 1e-9)
    assert max(mods) <= doc["rho_M"] * (1 + 1e-9)


def test_spectrum_to_file_deterministic(tmp_path, capsys):
    path = write_config(tmp_path)
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "spectrum", "--config", path, "--out", str(f1))[0] == 0
    assert run(capsys, "spectrum", "--config", path, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_spectrum_frictionless_inapplicable(tmp_path, capsys):
    path = write_config(tmp_path, beta0=0.0, beta1=0.0, beta2=0.0)
    code, out, err = run(capsys, "spectrum", "--config", path)
    assert code == 4
    doc = json.loads(out)
    assert doc["rho_m"] is None
    assert "inapplicable" in err


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def test_regions_all_zones_present(tmp_path, capsys):
    # identical pendula tuned to eta = 0.5, mu = 0.25; on this grid every
    # zone is populated (at eta = 1, mu >= 1/4 the zones Z3 and Z4 are
    # provably empty: the first conic becomes X^2+XY+X+4mu^2 > 0)
    om = math.sqrt(9.81)
    path = write_config(tmp_path, beta1=0.5 * om, beta2=0.5 * om, beta0=0.3,
                        grid={"x_min": 0.01, "x_max": 10.0, "y_min": 0.01,
                              "y_max": 10.0, "nx": 50, "ny": 50, "spacing": "log"})
    out_csv = tmp_path / "map.csv"
    code, out, _ = run(capsys, "regions", "--config", path, "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["eta"] == pytest.approx(0.5, rel=1e-12)
    assert summary["mu"] == 0.25
    assert all(summary["zone_fractions"][z] > 0 for z in ("Z1", "Z2", "Z3", "Z4"))
    assert len(out_csv.read_text().splitlines()) == 50 * 50 + 1


def test_regions_grid_validation(tmp_path, capsys):
    path = write_config(tmp_path, grid={"x_min": 0.0})
    code, _, err = run(capsys, "regions", "--config", path)
    assert code == 2 and "x_min" in err


def test_regions_rejects_asymmetric(tmp_path, capsys):
    path = write_config(tmp_path, l2=1.3)
    code, _, err = run(capsys, "regions", "--config", path)
    assert code == 2


@pytest.mark.parametrize("grid, field", [
    ({"nx": 2.9}, "nx"),
    ({"ny": True}, "ny"),
    ({"nx": "a"}, "nx"),
    ({"x_max": math.inf}, "x_max"),
    ({"y_min": "a"}, "y_min"),
])
def test_regions_grid_entry_rejected(tmp_path, capsys, grid, field):
    path = write_config(tmp_path, grid=grid)
    code, _, err = run(capsys, "regions", "--config", path,
                       "--out", str(tmp_path / "map.csv"))
    assert code == 2 and field in err
    assert not (tmp_path / "map.csv").exists()


def test_threads_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["regions", "--config", write_config(tmp_path), "--threads", "4"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_GOLDEN = {
    1: ("PASS formulation_equivalence: max relative disagreement 1.889e-15 (tol 1e-9)\n"
        "PASS factorization: max relative coefficient error 5.941e-16 (tol 1e-12)\n"),
    7: ("PASS formulation_equivalence: max relative disagreement 1.831e-15 (tol 1e-9)\n"
        "PASS factorization: max relative coefficient error 6.129e-16 (tol 1e-12)\n"),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_GOLDEN))
def test_verify_stdout_golden(tmp_path, capsys, seed):
    # pinned bytes: a change in the random draws or in any check's
    # arithmetic shows up here
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, seed=seed))
    assert code == 0
    assert out == VERIFY_GOLDEN[seed] + (
        "PASS ek_containment: max relative annulus violation 0.000e+00\n"
        "PASS rh_vs_roots: 0 verdict mismatches out of 2000\n"
        "PASS decay_panel: 0 of 4 panel points failed\n"
        "verify: 5/5 checks passed\n")


def test_verification_fast_passes():
    results = run_verification(seed=7, fast=True)
    assert all(r.ok for r in results)
    assert {r.name for r in results} == {"formulation_equivalence", "factorization",
                                         "ek_containment", "rh_vs_roots", "decay_panel"}


@pytest.mark.parametrize("fault", ["formulation_equivalence", "factorization",
                                   "ek_containment", "rh_vs_roots", "decay_panel"])
def test_fault_injection_caught(fault):
    results = run_verification(seed=7, fast=True, fault=fault)
    by_name = {r.name: r.ok for r in results}
    assert by_name[fault] is False
    others = {k: v for k, v in by_name.items() if k != fault}
    assert all(others.values())


def test_decay_panel_short_trajectory_counts_as_failed():
    # half a period leaves too few envelope peaks to fit; the point must
    # fail the check instead of raising out of ``verify``
    res = check_decay_panel([(0.5, 1.0, 1.0, 0.25, 0.5)])
    assert not res.ok and res.worst == 1
    assert res.detail.startswith("1 of 1 panel points failed; first: (0.5, 1.0, 1.0, 0.25, ")
    assert "envelope peaks" in res.detail
