import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coupled_pendula
from coupled_pendula.cli import MAX_SAMPLES, canonical_json, load_config, main
from coupled_pendula.regions import MAX_GRID_NODES
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


def test_simulate_integration_failure_exits_3(tmp_path, capsys):
    # a sigma-dot of 1e160 overflows the right-hand side at t=0
    path = write_config(tmp_path, initial_state=[0, 0, 0, 0, 1e160, 0])
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 3 and out == ""
    assert err.startswith("integration error:") and "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("overrides", [
    {"initial_state": [1e10, 0, 0, 0, 0, 0]},
    {"initial_state": [1e150, 0, 0, 0, 0, 0]},
    {"initial_state": [0, 0, 0, 0, 1e6, 0]},
    {"beta0": 0.0, "beta1": 0.0, "beta2": 0.0, "t_end": 1e6,
     "initial_state": [0.01, 0.02, 0.015, 0, 0, 0]},
])
def test_simulate_evaluation_budget_exits_3(tmp_path, capsys, monkeypatch, overrides):
    # a huge initial state or a very long run would integrate for hours;
    # the evaluation budget ends it in exit 3 (lowered here to keep the
    # suite fast)
    from coupled_pendula import dynamics
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 5000)
    path = write_config(tmp_path, **{"t_end": 1.0, "samples": 11, **overrides})
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 3 and out == ""
    assert err.startswith("integration error: integration stopped at t=")
    assert err.endswith(": 5000 right-hand-side evaluations spent\n")
    assert not out_csv.exists()


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
# asymmetric pendula and the frictionless case, whose annulus is
# inapplicable (exit 4).
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
        ',"ratios":[9.0749306197964863,0.12209170996159927,88.540000000000006,0.25],"ratios_o'
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
        '05,15.984999999999999,0.17499999999999999,0.5],"factors":null,"gershgorin":[{"center'
        '_im":0,"center_re":0,"radius":1},{"center_im":0,"center_re":0,"radius":1},{"center_i'
        'm":0,"center_re":0,"radius":1},{"center_im":0,"center_re":-0.14999999999999999,"radi'
        'us":7.4050000000000002},{"center_im":0,"center_re":-0.10000000000000001,"radius":24.'
        '920000000000002},{"center_im":0,"center_re":-0.10000000000000001,"radius":9.81000000'
        '00000005}],"omega":null,"ratios":null,"rh_chain":[0.5,0.17499999999999999,6.85999999'
        '99999977,0.81386260932944543,37.6483161306003,4.0009740139785688,120.29512500000001]'
        ',"rh_degenerate":false,"rho_M":91.342857142857142,"rho_m":0.079971448241927034,"root'
        's":[{"im":-4.5764292111970173,"re":-0.088883076724084395},{"im":4.5764292111970173,"'
        're":-0.088883076724084395},{"im":-3.1316928329579206,"re":-0.050000000000000086},{"i'
        'm":3.1316928329579206,"re":-0.050000000000000086},{"im":-1.0813187820330785,"re":-0.'
        '036116923275915529},{"im":1.0813187820330785,"re":-0.036116923275915529}],"stable":t'
        'rue,"zone":null}'
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
    ({"x_max": 1e155}, 2),  # X**2 overflows in the conics
    ({"x_min": 1e-200, "x_max": 1e100, "y_min": 1e-200, "y_max": 1e100}, 0),
])
def test_regions_conic_overflow_rejected(tmp_path, capsys, grid, code):
    path = write_config(tmp_path, grid=dict(grid, nx=20, ny=20))
    out_csv = tmp_path / "map.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(capsys, "regions", "--config", path, "--out", str(out_csv))
    assert got == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if code:
        assert err.startswith("error: grid:") and not out_csv.exists()
    else:
        assert len(out_csv.read_text().splitlines()) == 20 * 20 + 1


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


@pytest.mark.parametrize("fault", ["formulation_equivalence", "factorization",
                                   "ek_containment", "rh_vs_roots", "decay_panel"])
def test_fault_injection_caught(fault):
    results = run_verification(seed=7, fault=fault)
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


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

SCIPY_PROBE = """
import json, sys
from coupled_pendula.cli import main
codes = [main([c, "--config", sys.argv[1], "--out", c + ".out"]) for c in sys.argv[2:]]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(tmp_path, config, *commands):
    """Run ``main`` for each command in one fresh interpreter importing the
    package from the same directory as this suite; returns the exit codes
    and the scipy modules loaded afterwards."""
    src = str(Path(coupled_pendula.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, config, *commands],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["codes"], doc["scipy"]


def test_non_integrating_commands_never_import_scipy(tmp_path):
    path = write_config(tmp_path, grid={"nx": 3, "ny": 3})
    codes, loaded = run_fresh(tmp_path, path, "reduce", "spectrum", "regions")
    assert codes == [0, 0, 0]
    assert loaded == []


def test_simulate_loads_scipy_integrate(tmp_path):
    path = write_config(tmp_path, t_end=1.0, samples=3)
    codes, loaded = run_fresh(tmp_path, path, "simulate")
    assert codes == [0]
    assert "scipy.integrate" in loaded
