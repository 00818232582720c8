import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coupled_pendula
from coupled_pendula import DampingModel, spectral, verification
from coupled_pendula.cli import (MAX_SAMPLES, MAX_T_END_RHO, RunConfig, canonical_json,
                                  load_config, main)
from coupled_pendula.params import MAX_GRID_NODES, MAX_XY, GridSpec, PhysicalParams
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

# The config's parameter keys and its "grid" keys, in field order.
PARAM_KEYS = ("m0", "m1", "m2", "l1", "l2", "beta0", "beta1", "beta2", "k", "g")
GRID_KEYS = ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "spacing")


def test_config_keys_are_the_dataclass_fields():
    # the parametrizations below cover every field of the two dataclasses
    assert PARAM_KEYS == tuple(f.name for f in dataclasses.fields(PhysicalParams))
    assert GRID_KEYS == tuple(f.name for f in dataclasses.fields(GridSpec))


def test_defaults_applied(tmp_path):
    # an omitted key takes its RunConfig field's default, and the defaults
    # are the documented values
    cfg = load_config(write_config(tmp_path))
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.name != "params"}
    assert {name: getattr(cfg, name) for name in defaults} == defaults
    assert cfg.params.g == 9.81
    assert cfg.damping.value == "full"
    assert cfg.initial_state.form == "y"
    assert cfg.initial_state.as_vector().tolist() == [0.0] * 6
    assert (cfg.t_end, cfg.samples, cfg.seed, cfg.out) == (60.0, 2001, 1, None)
    assert cfg.grid == GridSpec(x_min=0.01, x_max=10.0, y_min=0.01, y_max=10.0,
                                nx=50, ny=50, spacing="log")


@pytest.mark.parametrize("key", ("bogus", "params") + GRID_KEYS)
def test_unknown_key_rejected(tmp_path, capsys, key):
    # a grid key belongs under "grid", and "params" names no config key
    path = write_config(tmp_path, **{key: 1.0})
    code, out, err = run(capsys, "reduce", "--config", path)
    assert (code, out, err) == (2, "", f"error: unknown key: {key}\n")


@pytest.mark.parametrize("key", PARAM_KEYS + ("grid", "seed"))
def test_unknown_grid_key_rejected(tmp_path, capsys, key):
    path = write_config(tmp_path, grid={key: 1.0})
    code, out, err = run(capsys, "regions", "--config", path, "--out", str(tmp_path / "o"))
    assert (code, out, err) == (2, "", f"error: unknown grid key: {key}\n")


@pytest.mark.parametrize("key", PARAM_KEYS[:-1])
def test_missing_key_rejected(tmp_path, capsys, key):
    doc = dict(BASE)
    del doc[key]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reduce", "--config", str(path))
    assert (code, out, err) == (2, "", f"error: missing required key: {key}\n")


@pytest.mark.parametrize("members, key", [
    ('"k": 50.0', "k"),
    ('"grid": {"nx": 10, "ny": 10, "nx": 20}', "nx"),
])
def test_duplicate_key_rejected(tmp_path, capsys, members, key):
    # json keeps the last of two equal keys; a config must not run with
    # one of two values silently dropped
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE)[:-1] + ", " + members + "}")
    code, out, err = run(capsys, "regions", "--config", str(path), "--out", str(tmp_path / "o"))
    assert (code, out, err) == (2, "", f"error: duplicate key: {key}\n")


@pytest.mark.parametrize("encoding, code", [("utf-8", 0), ("latin-1", 2)])
def test_config_is_read_as_utf8_in_any_locale(tmp_path, encoding, code):
    # under an ASCII locale a UTF-8 config still loads; one that is not
    # UTF-8 is a bad input
    doc = dict(BASE, out="caf\u00e9.json")
    (tmp_path / "config.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode(encoding))
    env = child_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run([sys.executable, "-m", "coupled_pendula.cli", "reduce", "--config",
                           "config.json", "--out", "reduce.json"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "reduce.json").exists() == (code == 0)


COMMANDS = ("reduce", "simulate", "spectrum", "regions", "verify")

MAIN_HELP = """\
usage: coupled-pendula [-h] {reduce,simulate,spectrum,regions,verify} ...

Beam-and-pendula dynamics, spectrum localization, and synchronization region
maps

positional arguments:
  {reduce,simulate,spectrum,regions,verify}
    reduce              print dimensionless and derived constants
    simulate            integrate the nonlinear system to CSV
    spectrum            characteristic polynomial report (JSON)
    regions             sweep the (X, Y) quadrant to CSV
    verify              run the cross-module oracle checks

options:
  -h, --help            show this help message and exit
"""

COMMAND_HELP = """\
usage: coupled-pendula {} [-h] --config CONFIG [--out OUT]

options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON configuration file
  --out OUT        output file path
"""


@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_help_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out == (MAIN_HELP if command is None else COMMAND_HELP.format(command))


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once, at import: a main call only parses its argv
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write_config(tmp_path)
    for _ in range(3):
        assert run(capsys, "reduce", "--config", path)[0] == 0
    assert built == []


@pytest.mark.parametrize("command, field, overrides", [
    ("spectrum", "beta0", {"beta0": math.nan}),
    ("simulate", "initial_state", {"initial_state": [0.01, math.nan, 0, 0, 0, 0]}),
    ("simulate", "t_end", {"t_end": math.inf}),
    ("simulate", "t_end", {"t_end": -1.0}),
    ("simulate", "t_end", {"t_end": 0.0}),
    ("verify", "seed", {"seed": True}),
    ("verify", "seed", {"seed": -1}),
    ("reduce", "damping", {"damping": ["full"]}),
    ("spectrum", "damping", {"damping": {}}),
])
def test_non_finite_input_rejected(tmp_path, capsys, command, field, overrides):
    # json writes and reads NaN/Infinity literals; each, like a
    # non-positive t_end, a bool or negative seed or a damping name that
    # is not a string, must fail validation instead of reaching the
    # solver, the random generator or a dict lookup
    path = write_config(tmp_path, **overrides)
    code, _, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith(f"error: {field}:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, overrides, message", [
    ("spectrum", {"m0": 1e-30}, "m0: negligible against m1 + m2"),
    ("simulate", {"m0": 1e-30}, "m0: negligible against m1 + m2"),
    ("reduce", {"l1": 1e300}, "l1: out of range"),  # float ** overflows
    ("spectrum", {"beta0": 1.7e308}, "beta0: out of range"),
    ("reduce", {"k": 1e308}, "k: out of range"),  # Y overflows
    ("reduce", {"l1": 1e300, "l2": 1e300}, "l1: out of range"),  # l1·l2 overflows
    ("reduce", {"l1": 1e-200, "l2": 1e-200}, "l1: out of range"),  # l1·l2 underflows
    ("simulate", {"k": 1e308}, "k: out of range"),
], ids=["spectrum_light_beam", "simulate_light_beam", "reduce_long_rod", "spectrum_huge_beta0",
        "reduce_stiff_spring", "reduce_long_rods", "reduce_short_rods", "simulate_stiff_spring"])
def test_extreme_numbers_exit_2(tmp_path, capsys, command, overrides, message):
    # finite but extreme parameters whose arithmetic overflows, or a beam
    # so light that 1 - 2 mu rounds to 0, are refused in one line
    path = write_config(tmp_path, **overrides)
    code, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, config, out_is_dir", [
    ("regions", "directory", False),
    ("regions", "not_utf8", False),
    ("regions", "valid", True),
    ("simulate", "valid", True),
    ("spectrum", "valid", True),
])
def test_file_error_exits_2(tmp_path, capsys, command, config, out_is_dir):
    # a config or output path that cannot be read or written is a bad
    # input, reported in one line, not a traceback
    if config == "directory":
        path = tmp_path / "config.d"
        path.mkdir()
    elif config == "not_utf8":
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{")
    else:
        path = write_config(tmp_path, t_end=1.0, samples=3)
    out = tmp_path / "out"
    if out_is_dir:
        out.mkdir()
    code, stdout, err = run(capsys, command, "--config", str(path), "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and stdout == ""
    if out_is_dir:
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


@pytest.mark.parametrize("command, module, function", [
    ("simulate", "dynamics", "integrate"),
    ("spectrum", "spectral", "spectrum_report"),
    ("regions", "regions", "region_map"),
    ("verify", "verification", "run_verification"),
])
def test_floating_point_error_exits_2(tmp_path, capsys, monkeypatch, command, module, function):
    # the commands that do array arithmetic run with numpy's floating-point
    # errors raised: an overflow in their numpy code exits 2 in one line,
    # not with a warning, an inf in the output or a traceback
    def overflowing(*args, **kwargs):
        return np.float64(1e308) * np.float64(10.0)

    monkeypatch.setattr(importlib.import_module(f"coupled_pendula.{module}"), function,
                        overflowing)
    path = write_config(tmp_path, grid={"nx": 2, "ny": 2}, t_end=1.0, samples=3)
    code, out, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert err == "error: overflow encountered in scalar multiply\n"
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


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_out_receives_what_stdout_would(tmp_path, capsys, command):
    # like spectrum, reduce and verify write their report to --out, or
    # else to the config's out, in place of stdout
    path = write_config(tmp_path)
    code, printed, _ = run(capsys, command, "--config", path)
    assert code == 0 and printed
    flag_out = tmp_path / "flag.out"
    assert run(capsys, command, "--config", path, "--out", str(flag_out)) == (0, "", "")
    assert flag_out.read_text() == printed
    config_out = tmp_path / "config.out"
    path = write_config(tmp_path, name="with_out.json", out=str(config_out))
    assert run(capsys, command, "--config", path) == (0, "", "")
    assert config_out.read_text() == printed


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


README_STATE = [0.01, 0.02, 0.015, 0, 0, 0]


@pytest.mark.parametrize("overrides", [
    {"t_end": 60.0},
    {"beta0": 0.0, "beta1": 0.0, "beta2": 0.0, "t_end": 2000.0},
])
def test_simulate_evaluation_budget_exits_3(tmp_path, capsys, monkeypatch, overrides):
    # runs inside the run-size bounds still end in exit 3 when the
    # evaluation budget runs out (lowered here: the README run takes
    # 10,421 evaluations, and the frictionless one sits just below the
    # t_end * rho(J) bound)
    from coupled_pendula import dynamics
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 5000)
    path = write_config(tmp_path, **{"initial_state": README_STATE, "samples": 11,
                                     **overrides})
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 3 and out == ""
    assert err.startswith("integration error: integration stopped at t=")
    assert err.endswith(": 5000 right-hand-side evaluations spent\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("field, overrides", [
    ("initial_state", {"initial_state": [1e10, 0, 0, 0, 0, 0]}),
    ("initial_state", {"initial_state": [1e150, 0, 0, 0, 0, 0]}),
    ("initial_state", {"initial_state": [0, 0, 0, 0, 1e6, 0]}),
    ("initial_state", {"initial_state": [0, 0, 0, 0, 1e160, 0]}),
    ("t_end", {"beta0": 0.0, "beta1": 0.0, "beta2": 0.0, "t_end": 1e6,
               "initial_state": README_STATE}),
], ids=["x0_1e10", "x0_1e150", "sigmadot0_1e6", "sigmadot0_1e160", "frictionless_t_end_1e6"])
def test_simulate_run_size_refused(tmp_path, capsys, monkeypatch, field, overrides):
    # a huge initial state or a very long run would exhaust the evaluation
    # budget (or overflow the right-hand side at t=0); it is refused
    # before integrating, with no solver warning.  The lowered budget
    # turns a missed refusal into a quick exit 3.
    from coupled_pendula import dynamics
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 5000)
    path = write_config(tmp_path, **{"t_end": 1.0, "samples": 11, **overrides})
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_simulate_run_size_bound_at_its_edge(tmp_path, capsys, monkeypatch, factor):
    # rho(J) is the largest modulus of the roots spectrum prints: a run 1%
    # inside the bound is integrated (and spends the lowered budget), one
    # 1% outside is refused before integrating
    from coupled_pendula import dynamics
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 5000)
    code, out, _ = run(capsys, "spectrum", "--config",
                       write_config(tmp_path, initial_state=README_STATE))
    assert code == 0
    rho = max(math.hypot(r["re"], r["im"]) for r in json.loads(out)["roots"])
    path = write_config(tmp_path, "edge.json", initial_state=README_STATE, samples=11,
                        t_end=factor * MAX_T_END_RHO / rho)
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert out == "" and not out_csv.exists()
    if factor < 1:
        assert code == 3
        assert err.startswith("integration error: integration stopped at t=")
    else:
        assert code == 2
        assert err == f"error: t_end: t_end * rho(J) = {factor * MAX_T_END_RHO:.6g} > 10000\n"


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


# Pinned bytes of the whole document: (overrides, exit code, stdout
# without its newline) for the README config, rotational damping,
# asymmetric pendula, the frictionless case, whose annulus is
# inapplicable (exit 4), and an overdamped config under each damping
# model, whose six roots are all real (zone Z2).
SPECTRUM_GOLDEN = {
    "readme": ({}, 0, (
        '{"coeffs":[120.29512500000001,14.482012500000002,120.96980000000002,3.68425000000000'
        '05,15.984999999999999,0.17499999999999999,0.5],"factors":{"quadratic":[9.81000000000'
        '00005,0.10000000000000001,1],"quartic":[12.262500000000003,1.3512500000000001,11.067'
        '500000000001,0.125,0.5]},"gershgorin":[{"center_im":0,"center_re":0,"radius":1},{"ce'
        'nter_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radius":1},{"cent'
        'er_im":0,"center_re":-0.14999999999999999,"radius":7.4050000000000002},{"center_im":'
        '0,"center_re":-0.10000000000000001,"radius":24.720000000000002},{"center_im":0,"cent'
        'er_re":-0.10000000000000001,"radius":9.8100000000000005}],"omega":3.1320919526731652'
        ',"ratios":[9.0749306197964863,0.12209170996159928,88.540000000000006,0.25],"ratios_o'
        'ver_omega":[2.897402361399783,0.038980883002938956,28.268646431160249,0.079818857101'
        '762619],"rh_chain":[0.5,0.17499999999999999,5.4585714285714264,1.1325368031928802,28'
        '.380640835799078,5.8249824255923581,120.29512500000001],"rh_degenerate":false,"rho_M'
        '":91.342857142857142,"rho_M_over_omega":29.163529846209723,"rho_m":0.119715933232922'
        '59,"rho_m_over_omega":0.038222355870091207,"roots":[{"im":-4.5765226999120117,"re":-'
        '0.064078099079635589},{"im":4.5765226999120117,"re":-0.064078099079635589},{"im":-1.'
        '0802811939414101,"re":-0.060921900920364251},{"im":1.0802811939414101,"re":-0.060921'
        '900920364251},{"im":-3.1316928329579206,"re":-0.0500000000000001},{"im":3.1316928329'
        '579206,"re":-0.0500000000000001}],"stable":true,"zone":"Z3"}'
    )),
    "rotational": ({"damping": "rotational"}, 0, (
        '{"coeffs":[120.29512500000001,9.6702075000000001,120.92075000000003,3.19375000000000'
        '05,15.984999999999999,0.17499999999999999,0.5],"factors":{"quadratic":[9.81000000000'
        '00005,0.10000000000000001,1],"quartic":[12.262500000000003,0.86075000000000013,11.06'
        '7500000000001,0.125,0.5]},"gershgorin":[{"center_im":0,"center_re":0,"radius":1},{"c'
        'enter_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radius":1},{"cen'
        'ter_im":0,"center_re":-0.14999999999999999,"radius":7.4050000000000002},{"center_im"'
        ':0,"center_re":-0.10000000000000001,"radius":24.920000000000002},{"center_im":0,"cen'
        'ter_re":-0.10000000000000001,"radius":9.8100000000000005}],"omega":3.132091952673165'
        '2,"ratios":[14.24629683415626,0.077772758075446133,88.540000000000006,0.25],"ratios_'
        'over_omega":[4.5484925249392463,0.024830930652935956,28.268646431160249,0.0798188571'
        '01762619],"rh_chain":[0.5,0.17499999999999999,6.8599999999999977,0.81386260932944543'
        ',37.6483161306003,4.0009740139785688,120.29512500000001],"rh_degenerate":false,"rho_'
        'M":91.342857142857142,"rho_M_over_omega":29.163529846209723,"rho_m":0.07997144824192'
        '7034,"rho_m_over_omega":0.025532918397773514,"roots":[{"im":-4.5764292111970173,"re"'
        ':-0.088883076724084395},{"im":4.5764292111970173,"re":-0.088883076724084395},{"im":-'
        '3.1316928329579206,"re":-0.050000000000000086},{"im":3.1316928329579206,"re":-0.0500'
        '00000000000086},{"im":-1.0813187820330785,"re":-0.036116923275915529},{"im":1.081318'
        '7820330785,"re":-0.036116923275915529}],"stable":true,"zone":"Z3"}'
    )),
    "asymmetric": ({"m1": 0.8, "m2": 1.1, "l1": 0.7, "l2": 1.2,
                    "beta1": 0.15, "beta2": 0.08}, 0, (
        '{"coeffs":[146.88049450549457,18.841169955044958,143.29902378871131,4.69838276307026'
        '26,17.868677156177156,0.21037296037296035,0.51282051282051277],"factors":null,"gersh'
        'gorin":[{"center_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radiu'
        's":1},{"center_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":-0.1500000'
        '0000000002,"radius":7.895500000000002},{"center_im":0,"center_re":-0.130113636363636'
        '35,"radius":28.612970779220785},{"center_im":0,"center_re":-0.13011363636363635,"rad'
        'ius":18.013446969696975}],"omega":null,"ratios":null,"rh_chain":[0.51282051282051277'
        ',0.21037296037296035,6.415555739274577,1.5055024816157894,37.605054169488682,8.14450'
        '2208283237,146.88049450549457],"rh_degenerate":false,"rho_M":84.938088642659295,"rho'
        '_m":0.13148149552522781,"roots":[{"im":-4.8358267361215672,"re":-0.08016958110442346'
        '},{"im":4.8358267361215672,"re":-0.08016958110442346},{"im":-1.0938862492484904,"re"'
        ':-0.065962130472424718},{"im":1.0938862492484904,"re":-0.065962130472424718},{"im":-'
        '3.1925267313932086,"re":-0.058981924786788223},{"im":3.1925267313932086,"re":-0.0589'
        '81924786788223}],"stable":true,"zone":null}'
    )),
    "frictionless": ({"beta0": 0.0, "beta1": 0.0, "beta2": 0.0}, 4, (
        '{"coeffs":[120.29512500000001,0,120.76110000000001,0,15.965,0,0.5],"factors":{"quadr'
        'atic":[9.8100000000000005,0,1],"quartic":[12.262500000000003,0,11.06,0,0.5]},"gershg'
        'orin":[{"center_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radius'
        '":1},{"center_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":-0,"radius"'
        ':7.4050000000000002},{"center_im":0,"center_re":-0,"radius":24.620000000000001},{"ce'
        'nter_im":0,"center_re":-0,"radius":9.8100000000000005}],"omega":3.1320919526731652,"'
        'ratios":null,"rh_chain":[0.5,0,null,null,null,null,120.29512500000001],"rh_degenerat'
        'e":true,"rho_M":null,"rho_m":null,"roots":[{"im":-1.0819808367688042,"re":0},{"im":1'
        '.0819808367688042,"re":0},{"im":-3.1320919526731652,"re":2.9582283945787943e-31},{"i'
        'm":3.1320919526731652,"re":2.9582283945787943e-31},{"im":-4.5770424368652165,"re":4.'
        '9303806576313238e-31},{"im":4.5770424368652165,"re":4.9303806576313238e-31}],"stable'
        '":false,"zone":null}'
    )),
    "overdamped": ({"beta0": 40.0, "beta1": 12.0, "beta2": 12.0}, 0, (
        '{"coeffs":[120.29512500000001,1834.0776000000001,3361.4811000000004,1901.6399999999999'
        ',327.96500000000003,22,0.5],"factors":{"quadratic":[9.8100000000000005,12,1],"quartic"'
        ':[12.262500000000003,171.96000000000001,131.06,15.999999999999998,0.5]},"gershgorin":['
        '{"center_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radius":1},{"ce'
        'nter_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":-20,"radius":7.4050000'
        '000000011},{"center_im":0,"center_re":-12,"radius":40.620000000000005},{"center_im":0,'
        '"center_re":-12,"radius":9.8100000000000023}],"omega":3.1320919526731652,"ratios":[0.0'
        '71310188415910691,1.3120708072638487,8.1912500000000019,31.999999999999996],"ratios_ov'
        'er_omega":[0.022767590956277371,0.41891196908954981,2.6152648529392528,10.216813709025'
        '613],"rh_chain":[0.5,22,284.74590909090915,1645.1462521769806,3003.9595796899071,1758.'
        '9026362812217,120.29512500000001],"rh_degenerate":false,"rho_M":44,"rho_M_over_omega":'
        '14.048118849910219,"rho_m":0.065588896020539161,"rho_m_over_omega":0.02094092287570312'
        '9,"roots":[{"im":0,"re":-19.397750973657093},{"im":0,"re":-11.117616632770787},{"im":0'
        ',"re":-11.007961420414418},{"im":0,"re":-1.5186581983208753},{"im":0,"re":-0.882383367'
        '23040489},{"im":0,"re":-0.075629407606221347}],"stable":true,"zone":"Z2"}'
    )),
    "overdamped_rotational": ({"beta0": 40.0, "beta1": 12.0, "beta2": 12.0,
                               "damping": "rotational"}, 0, (
        '{"coeffs":[120.29512500000001,1256.6610000000001,2655.1611000000003,1842.78,327.965000'
        '00000003,22,0.5],"factors":{"quadratic":[9.8100000000000005,12,1],"quartic":[12.262500'
        '000000003,113.10000000000001,131.06,15.999999999999998,0.5]},"gershgorin":[{"center_im'
        '":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radius":1},{"center_im":0,'
        '"center_re":0,"radius":1},{"center_im":0,"center_re":-20,"radius":7.4050000000000011},'
        '{"center_im":0,"center_re":-12,"radius":64.620000000000005},{"center_im":0,"center_re"'
        ':-12,"radius":9.8100000000000023}],"omega":3.1320919526731652,"ratios":[0.108421750663'
        '12999,0.86296352815504351,8.1912500000000019,31.999999999999996],"ratios_over_omega":['
        '0.034616400891613233,0.27552305015136125,2.6152648529392528,10.216813709025613],"rh_ch'
        'ain":[0.5,22,286.08363636363634,1640.7928663264397,2409.1059814899895,1165.47968206587'
        '03,120.29512500000001],"rh_degenerate":false,"rho_M":44,"rho_M_over_omega":14.04811884'
        '9910219,"rho_m":0.09572599531615926,"rho_m_over_omega":0.030562958164258053,"roots":[{'
        '"im":0,"re":-18.461784262397643},{"im":0,"re":-12.578243096522153},{"im":0,"re":-11.11'
        '7616632769527},{"im":0,"re":-0.88238336723041311},{"im":0,"re":-0.83322046219985657},{'
        '"im":0,"re":-0.12675217888035958}],"stable":true,"zone":"Z2"}'
    )),
}


@pytest.mark.parametrize("name", list(SPECTRUM_GOLDEN))
def test_spectrum_stdout_golden(tmp_path, capsys, name):
    overrides, code, text = SPECTRUM_GOLDEN[name]
    got, out, err = run(capsys, "spectrum", "--config", write_config(tmp_path, **overrides))
    assert (got, out) == (code, text + "\n")
    assert err == ("annulus localization inapplicable: some coefficients are not positive\n"
                   if code else "")


@pytest.mark.parametrize("sabotage, message", [
    ("routh_hurwitz", "chain verdict disagrees with roots"),
    ("enestrom_kakeya", "root outside the annulus"),
])
def test_spectrum_cross_check_failure_exits_5(tmp_path, capsys, monkeypatch,
                                              sabotage, message):
    # a flipped chain verdict, or an annulus too small for the roots,
    # must stop the document from being written
    from coupled_pendula import spectral
    real = getattr(spectral, sabotage)

    def broken(c):
        got = real(c)
        if sabotage == "routh_hurwitz":
            return dataclasses.replace(got, stable=~got.stable)
        rho_m, rho_M = got
        return rho_m, 0.01 * rho_M

    monkeypatch.setattr(spectral, sabotage, broken)
    out_json = tmp_path / "s.json"
    code, out, err = run(capsys, "spectrum", "--config", write_config(tmp_path),
                         "--out", str(out_json))
    assert code == 5 and out == ""
    assert err == f"cross-check error: {message}\n"
    assert not out_json.exists()


def spectrum_refused(tmp_path, capsys, config):
    """stderr of a ``spectrum`` run that must exit 2 and write nothing."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_json = tmp_path / "s.json"
    code, out, err = run(capsys, "spectrum", "--config", str(path), "--out", str(out_json))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert not out_json.exists()
    return err


def test_spectrum_unresolved_roots_exit_2(tmp_path, capsys):
    # fields 1e±24 apart: the smallest roots lie below what the companion
    # eigenvalues resolve and fall outside the annulus; the input is badly
    # conditioned, not the program at fault
    err = spectrum_refused(tmp_path, capsys, {
        "m0": 1e24, "m1": 1e-24, "m2": 1e24, "l1": 1e-24, "l2": 1e-24, "beta0": 0,
        "beta1": 0, "beta2": 1e-24, "k": 1e-24, "g": 1e24})
    assert err.startswith("error: coeffs: roots too small to resolve fail a cross-check")


@pytest.mark.parametrize("config", [
    # the chain says stable, and the roots with Re >= 0 have
    # |Re z| <= 4 * 2**-52 * max|z|
    {"m0": 33264404.119562298, "m1": 1134650.3821165161, "m2": 7.075006784484925e-09,
     "l1": 1.5697371380829997e-12, "l2": 62974258210.05288,
     "beta0": 1.7405881741345752e-11, "beta1": 7.619460973934221e-12,
     "beta2": 9562679.1223757, "k": 567707867.4497334, "g": 1.4647884252943843e-08},
    # the chain says unstable and every root has Re < 0, the largest by
    # less than 4 * 2**-52 * max|z| (a seeded log-uniform draw over 1e±12)
    {"m0": 150244.5066070294, "m1": 0.00010220564069576752, "m2": 11220829558.885069,
     "l1": 0.08952645739620461, "l2": 2.4807103956879288e-06,
     "beta0": 1.1996536718598479e-12, "beta1": 0.025489334443926436,
     "beta2": 5.158468106724271e-09, "k": 3.446993510723191e-05,
     "g": 2.2394228244823826e-06},
], ids=["chain_stable", "chain_unstable"])
def test_spectrum_unresolved_real_parts_exit_2(tmp_path, capsys, config):
    # the roots that decide the chain-vs-roots check sit closer to the
    # imaginary axis than the eigenvalue solve resolves
    err = spectrum_refused(tmp_path, capsys, config)
    assert err.startswith("error: coeffs: real parts too close to 0 to resolve fail a "
                          "cross-check (chain verdict disagrees with roots)")


def test_spectrum_newton_overflow_is_discarded(tmp_path, capsys):
    # a Newton candidate of the root polish overflows; it is thrown away
    # like any step that does not lower |p(r)|, and the report is written
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m0": 1e-12, "m1": 1e-12, "m2": 1e-12, "l1": 1e-12,
                                "l2": 1e-12, "beta0": 1e12, "beta1": 0.0, "beta2": 1e12,
                                "k": 1e-12, "g": 1e-12}))
    code, out, err = run(capsys, "spectrum", "--config", str(path))
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc["stable"] and 0 < doc["rho_m"] < 1e-24 and doc["rho_M"] > 1e24


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


def test_regions_runs_the_kernel_once_per_node(tmp_path, capsys, monkeypatch):
    # the CSV and the summary come from one streamed sweep: the summary
    # reads the counts the writer kept, it does not sweep again
    from coupled_pendula import regions
    rows, kernel = [], regions._verdicts

    def counted(X, *rest):
        rows.append(len(X))
        return kernel(X, *rest)

    monkeypatch.setattr(regions, "_verdicts", counted)
    grid = {"x_min": 0.01, "x_max": 10.0, "y_min": 0.01, "y_max": 10.0,
            "nx": 97, "ny": 89, "spacing": "log"}
    code, out, _ = run(capsys, "regions", "--config", write_config(tmp_path, grid=grid),
                       "--out", str(tmp_path / "map.csv"))
    assert code == 0 and json.loads(out)["in_a_fraction"] is not None
    assert sum(rows) == 97 * 89 and len(rows) > 1


# Pinned bytes: (overrides, stdout without its newline, sha256 of the CSV)
# for η = 0.5 on a log grid, η = 1 exactly (ω = 2 at g = 4) on a linear
# grid, and η = 1.7 on a linear grid, whose branch cells are all "na".
REGIONS_GOLDEN = {
    "eta-below-one-log": (
        {"beta1": 0.5 * math.sqrt(9.81), "beta2": 0.5 * math.sqrt(9.81),
         "grid": {"x_min": 0.01, "x_max": 10.0, "y_min": 0.01, "y_max": 10.0,
                  "nx": 60, "ny": 50, "spacing": "log"}},
        '{"cells":3000,"eta":0.5,"in_a_fraction":0.53733333333333333,"mu":0.25,"out":"map.c'
        'sv","zone_fractions":{"Z1":0.24233333333333335,"Z2":0.34033333333333332,"Z3":0.39033'
        '333333333331,"Z4":0.027}}',
        "7222a4a9d020af169a8152c97b18a81b48f814c4553a8af836c9716d31628be9"),
    "eta-one": (
        {"g": 4.0, "m0": 3.0, "m1": 0.5, "m2": 0.5, "beta1": 1.0, "beta2": 1.0,
         "grid": {"x_min": 0.05, "x_max": 5.0, "y_min": 0.05, "y_max": 5.0,
                  "nx": 40, "ny": 40, "spacing": "linear"}},
        '{"cells":1600,"eta":1,"in_a_fraction":0.46187499999999998,"mu":0.125,"out":"map.csv'
        '","zone_fractions":{"Z1":0.14874999999999999,"Z2":0.78812499999999996,"Z3":0.063125'
        '000000000001,"Z4":0}}',
        "ab44647d05757a470f445a5a256d5ef062bd4f1f87143c035aa789f3e6b89a68"),
    "eta-above-one-linear": (
        {"m0": 1.0, "beta1": 1.7 * math.sqrt(9.81), "beta2": 1.7 * math.sqrt(9.81),
         "grid": {"x_min": 0.1, "x_max": 8.0, "y_min": 0.1, "y_max": 8.0,
                  "nx": 45, "ny": 35, "spacing": "linear"}},
        '{"cells":1575,"eta":1.7,"in_a_fraction":null,"mu":0.33333333333333331,"out":"map.cs'
        'v","zone_fractions":{"Z1":0.10476190476190476,"Z2":0.89523809523809528,"Z3":0,"Z4":0}}',
        "f683181f31e5278360c335ec77daeb9721d4ad5802a63dff66934d3ebf99659f"),
}


@pytest.mark.parametrize("name", list(REGIONS_GOLDEN))
def test_regions_output_golden(tmp_path, capsys, monkeypatch, name):
    overrides, text, digest = REGIONS_GOLDEN[name]
    path = write_config(tmp_path, **overrides)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "regions", "--config", path, "--out", "map.csv") == (0, text + "\n", "")
    assert hashlib.sha256((tmp_path / "map.csv").read_bytes()).hexdigest() == digest


def test_regions_grid_validation(tmp_path, capsys):
    path = write_config(tmp_path, grid={"x_min": 0.0})
    code, _, err = run(capsys, "regions", "--config", path)
    assert code == 2 and "x_min" in err


def test_regions_rejects_asymmetric(tmp_path, capsys):
    path = write_config(tmp_path, l2=1.3)
    code, _, err = run(capsys, "regions", "--config", path)
    assert code == 2


def test_regions_rejects_rotational_damping(tmp_path, capsys):
    # the region layer analyzes the full-velocity quartic only; a rotational
    # config is refused before the CSV is opened, not mapped as full-velocity
    path = write_config(tmp_path, damping="rotational")
    out_csv = tmp_path / "map.csv"
    code, out, err = run(capsys, "regions", "--config", path, "--out", str(out_csv))
    assert code == 2 and out == ""
    assert err.startswith("error: damping:") and "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("overrides, field", [
    ({"damping": "rotational"}, "damping"),
    ({"l2": 1.3}, "m2"),
    ({"grid": {"x_min": 0.0}}, "x_min"),
    ({"grid": {"x_max": 1e155}}, "x_max"),
    ({"grid": {"nx": 2001, "ny": 2000}}, "nx*ny"),
    ({"beta1": 0.0, "beta2": 0.0}, "beta1"),
])
def test_regions_refusal_leaves_an_existing_csv_alone(tmp_path, capsys, overrides, field):
    # a refused config exits 2 before the CSV is opened, so a file already
    # at --out keeps every byte
    out_csv = tmp_path / "map.csv"
    out_csv.write_bytes(b"an earlier map\n" * 1000)
    code, out, err = run(capsys, "regions", "--config", write_config(tmp_path, **overrides),
                         "--out", str(out_csv))
    assert code == 2 and out == "" and err.startswith(f"error: {field}:")
    assert out_csv.read_bytes() == b"an earlier map\n" * 1000


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


@pytest.mark.parametrize("command, overrides, field", [
    ("simulate", {"samples": 10**9}, "samples"),
    ("simulate", {"samples": MAX_SAMPLES + 1}, "samples"),
    ("regions", {"grid": {"nx": 10**5, "ny": 10**5}}, "nx*ny"),
    ("regions", {"grid": {"nx": 2001, "ny": 2000}}, "nx*ny"),
])
def test_run_size_over_limit_rejected(tmp_path, capsys, command, overrides, field):
    # a finite, valid-looking size that would exhaust memory or time is
    # refused before any work starts
    path = write_config(tmp_path, **overrides)
    code, stdout, err = run(capsys, command, "--config", path, "--out", str(tmp_path / "o"))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {field}:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_size_limits_admit_pinned_configs(tmp_path):
    # the benchmark's 2,001 samples and 500x500 grid, and the limits themselves
    for samples, n in ((2001, 500), (MAX_SAMPLES, 2000)):
        cfg = load_config(write_config(tmp_path, samples=samples, grid={"nx": n, "ny": n}))
        assert cfg.samples == samples and cfg.grid.nx * cfg.grid.ny == n * n
    assert MAX_GRID_NODES == 2000 * 2000


@pytest.mark.parametrize("grid, code", [
    ({"x_max": 1e155}, 2),  # X**2 would overflow in the conics of the first sweep block
    # up to the box's edge, with 3-digit exponents in the CSV
    ({"x_min": 1e-200, "x_max": 1e30, "y_min": 1e-200, "y_max": 1e30}, 0),
    # Y**2 would overflow on the top row only, in the last sweep block
    ({"y_min": 0.01, "y_max": 1e155, "nx": 100, "ny": 100}, 2),
    # past the box, though no conic would overflow
    ({"x_min": 1e-200, "x_max": 1e100, "y_min": 1e-200, "y_max": 1e100}, 2),
])
def test_regions_conic_overflow_rejected(tmp_path, capsys, grid, code):
    grid = dict({"nx": 20, "ny": 20}, **grid)
    path = write_config(tmp_path, grid=grid)
    out_csv = tmp_path / "map.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(capsys, "regions", "--config", path, "--out", str(out_csv))
    assert got == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if code:
        field = next(k for k in ("x_max", "y_max") if grid.get(k, 0.0) > MAX_XY)
        assert err.startswith(f"error: {field}:") and not out_csv.exists()
    else:
        assert len(out_csv.read_text().splitlines()) == grid["nx"] * grid["ny"] + 1


def test_threads_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["regions", "--config", write_config(tmp_path), "--threads", "4"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_GOLDEN = {
    1: ("PASS formulation_equivalence: max relative disagreement 1.889e-15 (tol 1e-9)\n"
        "PASS factorization: max relative coefficient error 6.152e-16 (tol 1e-12)\n"),
    7: ("PASS formulation_equivalence: max relative disagreement 1.831e-15 (tol 1e-9)\n"
        "PASS factorization: max relative coefficient error 6.243e-16 (tol 1e-12)\n"),
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


def _scaled_accels(inner):
    return lambda *args: tuple(a * (1.0 + 1e-6) for a in inner(*args))


def _scaled_quartic(inner):
    def planted(rows, model):
        quad, quart = inner(rows, model)
        quart[0] *= 1.0 + 1e-6
        return quad, quart
    return planted


def _scaled_rotational_a1(inner):
    def planted(rows, model):
        quad, quart = inner(rows, model)
        if model is DampingModel.ROTATIONAL_ONLY:
            quart[:, 1] *= 1.0 + 1e-6
        return quad, quart
    return planted


def _far_root(inner):
    def planted(coeffs):
        roots = inner(coeffs)
        roots[0, 0] *= 1e3
        return roots
    return planted


def _flipped_verdict(inner):
    def planted(coeffs):
        report = inner(coeffs)
        report.stable[0] = not report.stable[0]
        return report
    return planted


def _swapped_rates(inner):
    def planted(*args, **kwargs):
        fits = inner(*args, **kwargs)
        fits[0] = fits[0][::-1]
        return fits
    return planted


# fault -> (check, module, kernel the check calls, wrapper that plants a fault in it)
FAULTS = {
    "formulation_equivalence": ("formulation_equivalence", verification, "_accel_y_arrays",
                                _scaled_accels),
    "factorization": ("factorization", spectral, "char_poly_identical", _scaled_quartic),
    "factorization_rotational_a1": ("factorization", spectral, "char_poly_identical",
                                    _scaled_rotational_a1),
    "ek_containment": ("ek_containment", spectral, "poly_roots", _far_root),
    "rh_vs_roots": ("rh_vs_roots", spectral, "routh_hurwitz", _flipped_verdict),
    "decay_panel": ("decay_panel", verification, "empirical_decay_rates", _swapped_rates),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_injection_caught(monkeypatch, fault):
    # a broken kernel, planted for the duration of one check, fails that
    # check and no other
    name, module, kernel, plant = FAULTS[fault]
    check = getattr(verification, f"check_{name}")

    def faulted(*args):
        with monkeypatch.context() as m:
            m.setattr(module, kernel, plant(getattr(module, kernel)))
            return check(*args)

    monkeypatch.setattr(verification, f"check_{name}", faulted)
    by_name = {r.name: r.ok for r in run_verification(seed=7)}
    assert by_name.pop(name) is False
    assert list(by_name.values()) == [True] * 4


@pytest.mark.parametrize("factor, scale", [(1, 2.0), (0, 1.2)],
                         ids=["quartic_a1_x2", "quadratic_a1_x1.2"])
def test_decay_panel_predicts_from_the_factorization(monkeypatch, factor, scale):
    # both predicted rates come from ``char_poly_identical`` of the
    # integrated rows: a wrong a1 in either factor fails every panel point
    inner = spectral.char_poly_identical

    def planted(rows, model=DampingModel.FULL_VELOCITY):
        factors = inner(rows, model)
        factors[factor][:, 1] *= scale
        return factors

    with monkeypatch.context() as m:
        m.setattr(spectral, "char_poly_identical", planted)
        res = check_decay_panel()
    assert not res.ok
    assert res.detail.startswith("4 of 4 panel points failed")


def test_decay_panel_short_trajectory_counts_as_failed():
    # half a period leaves too few envelope peaks to fit; the point must
    # fail the check instead of raising out of ``verify``
    res = check_decay_panel([(0.5, 1.0, 1.0, 0.25, 0.5)])
    assert not res.ok and res.worst == 1
    assert res.detail.startswith("1 of 1 panel points failed; first: (0.5, 1.0, 1.0, 0.25, ")
    assert "envelope peaks" in res.detail


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

START_PROBE = """
import json, sys
from coupled_pendula.cli import main
codes = [main([c, "--config", sys.argv[1], "--out", c + ".out"]) for c in sys.argv[2:]]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "numpy": "numpy" in sys.modules,
                  "package": sorted(m for m in sys.modules
                                    if m.split(".")[0] == "coupled_pendula")}))
"""


def child_env(**settings):
    """The environment of a child interpreter that imports the package from
    the same directory as this suite, with ``settings`` added."""
    src = str(Path(coupled_pendula.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **settings)


def run_fresh(tmp_path, config, *commands):
    """Run ``main`` for each command in one fresh interpreter; returns the
    exit codes, the scipy modules, whether numpy is loaded and the package
    modules loaded afterwards."""
    proc = subprocess.run([sys.executable, "-c", START_PROBE, config, *commands],
                          capture_output=True, text=True, env=child_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_non_integrating_commands_never_import_scipy(tmp_path):
    # scipy is a test-only dependency: no command imports it, the two that
    # integrate included; nor does any command load linear_analysis, a
    # library module no command runs
    path = write_config(tmp_path, grid={"nx": 3, "ny": 3}, t_end=1.0, samples=3)
    loaded = run_fresh(tmp_path, path, "reduce", "spectrum", "regions", "simulate", "verify")
    assert loaded["codes"] == [0, 0, 0, 0, 0]
    assert loaded["scipy"] == []
    assert "coupled_pendula.linear_analysis" not in loaded["package"]


def test_reduce_starts_without_numpy(tmp_path):
    # reduce is Python-float arithmetic on the parameter types: a fresh
    # start loads the package, its parameter module and the CLI, no more
    loaded = run_fresh(tmp_path, write_config(tmp_path), "reduce")
    assert loaded["codes"] == [0]
    assert loaded["numpy"] is False
    assert loaded["package"] == ["coupled_pendula", "coupled_pendula.cli",
                                 "coupled_pendula.params"]


def test_spectrum_loads_no_integrator_or_sweep(tmp_path):
    # spectrum runs the spectral layer alone: none of the integrator, the
    # CSV writer, the region sweep or the oracle checks
    loaded = run_fresh(tmp_path, write_config(tmp_path), "spectrum")
    assert loaded["codes"] == [0]
    unused = {f"coupled_pendula.{m}" for m in ("dynamics", "_dop853", "_csvio", "regions",
                                               "verification", "linear_analysis")}
    assert not unused & set(loaded["package"]), loaded["package"]


def test_regions_loads_no_integrator(tmp_path):
    # the sweep classifies the quadrant from the quartic's coefficients;
    # only the decay fit, which no region sweep runs, needs the integrator
    loaded = run_fresh(tmp_path, write_config(tmp_path, grid={"nx": 3, "ny": 3}), "regions")
    assert loaded["codes"] == [0]
    assert loaded["package"] == [f"coupled_pendula{m}" for m in (
        "", "._csvio", ".cli", ".params", ".regions", ".spectral")]


# (command, config overrides, out path) of each run whose bytes are the
# same under every kernel setting below: reduce, and a region sweep on
# each branch, η ≤ 1 on a log grid and η > 1 on a linear one
PORTABLE_RUNS = (
    ("reduce", {}, None),
    ("regions", {"grid": {"nx": 100, "ny": 100, "spacing": "log"}}, "log.csv"),
    ("regions", {"beta1": 5.0, "beta2": 5.0,
                 "grid": {"nx": 100, "ny": 100, "spacing": "linear"}}, "linear.csv"),
)

PORTABLE_PROBE = """
import contextlib, io, json, sys
from coupled_pendula.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    results.append([code, stdout.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("settings", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
], ids=["openblas_haswell", "openblas_prescott", "numpy_baseline_simd"])
def test_portable_outputs_same_under_other_kernels(tmp_path, capsys, monkeypatch, settings):
    # reduce and regions print and write the same bytes whatever BLAS kernel
    # or numpy SIMD level runs them: a child interpreter with another one
    # reproduces this process's stdout and CSV files.  The variables are set
    # on the child alone; a setting this numpy or OpenBLAS build refuses
    # is skipped.
    env = child_env(**settings)
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env=env, timeout=120)
    if probe.returncode or probe.stderr:
        pytest.skip(f"this build refuses {settings}: {probe.stderr.strip()[-300:]}")
    here, child = tmp_path / "here", tmp_path / "child"
    here.mkdir()
    child.mkdir()
    argvs = [[command, "--config", write_config(tmp_path, f"run{i}.json", **overrides)]
             + (["--out", out] if out else [])
             for i, (command, overrides, out) in enumerate(PORTABLE_RUNS)]
    monkeypatch.chdir(here)
    want = [list(run(capsys, *argv)[:2]) for argv in argvs]
    assert [code for code, _ in want] == [0, 0, 0]
    proc = subprocess.run([sys.executable, "-c", PORTABLE_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, cwd=child, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want
    for _, _, out in PORTABLE_RUNS[1:]:
        assert (child / out).read_bytes() == (here / out).read_bytes(), out


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

_EXTREME = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e-41, 1e-40, 1e40, 1e41, 1e300,
                            1.7e308, -1.7e308, math.inf, -math.inf, math.nan, 10**400])
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.integers(-2, 2), max_size=2), st.just({}))
_PLAUSIBLE = st.floats(min_value=1e-3, max_value=1e3)
_OPTIONAL = {
    "g": _PLAUSIBLE,
    "damping": st.sampled_from(["full", "rotational"]),
    "initial_state": st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    "t_end": st.floats(1e-3, 2.0),
    "samples": st.integers(2, 50),
    "seed": st.integers(0, 3),
    "grid": st.fixed_dictionaries(
        {"nx": st.integers(1, 4), "ny": st.integers(1, 4)},
        optional={k: _PLAUSIBLE for k in ("x_min", "x_max", "y_min", "y_max")}
        | {"spacing": st.sampled_from(["log", "linear"])}),
}


@st.composite
def config_docs(draw):
    """A plausible config with up to two faults: a key set to an extreme
    or non-finite number or to a value of the wrong type, a key missing,
    or an unknown key.  Grids are small and runs short."""
    doc = {k: draw(_PLAUSIBLE) for k in BASE}
    if draw(st.booleans()):  # identical pendula, as `regions` needs
        doc.update(m2=doc["m1"], l2=doc["l1"], beta2=doc["beta1"])
    doc.update(draw(st.fixed_dictionaries({}, optional=_OPTIONAL)))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from([*BASE, *_OPTIONAL, "bogus"]))
        fault = draw(st.sampled_from(["extreme", "junk", "missing"]))
        if fault == "missing":
            doc.pop(key, None)
            continue
        doc[key] = draw(_EXTREME if fault == "extreme" else _JUNK)
        if key == "initial_state" and fault == "extreme":
            doc[key] = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), _EXTREME),
                                     min_size=6, max_size=6))
        if key == "grid" and fault == "extreme":
            doc[key] = {"nx": 2, "ny": 2, draw(st.sampled_from(
                ["x_min", "x_max", "y_min", "y_max"])): doc[key]}
    return doc


@settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True,
          database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["reduce", "spectrum", "regions", "simulate"]),
       doc=config_docs())
def test_fuzzed_configs_exit_cleanly(tmp_path, capsys, monkeypatch, command, doc):
    # whatever the document, a command ends in a documented exit code with
    # a one-line message, not a traceback, and within the deadline; a
    # low evaluation budget keeps the runs that integrate short
    from coupled_pendula import dynamics
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 2000)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err and len(err.splitlines()) <= 1
