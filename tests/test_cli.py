"""End-to-end command-line behavior through click's test runner."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hamelflow.cli import main
from hamelflow.config import (ConfigError, build_boundary, load_config,
                              solver_config)

SOLVE_CFG = {
    "flow": {"phi0": 2.5, "mu0": 0.2, "mu": 0.2},
    "boundary": {"modes": {"vr": [[0.0, 0.0], [0.01, 0.0]],
                           "vtheta": [[0.01, 0.0]]}},
    "solver": {"n_modes": 6, "nodes_per_decade": 32, "r_max": 1e3},
}

# Weak flux: solve finds the circulation by shooting.  The "shoot" ids
# below run solve on this config.
SHOOT_CFG = {
    "flow": {"phi0": 1.0, "mu0": 5.0},
    "boundary": {"modes": {"vr": [[0.0, 0.0], [0.01, 0.0]],
                           "vtheta": [[0.01, 0.0]]}},
    "solver": {"n_modes": 6, "nodes_per_decade": 32, "r_max": 1e3},
}


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("base", [SOLVE_CFG, SHOOT_CFG],
                         ids=["solve", "shoot"])
def test_solve_is_deterministic(tmp_path, runner, base):
    cfg = write_cfg(tmp_path, {**base, "output": {"write_field": True}})
    one = tmp_path / "one"
    two = tmp_path / "two"
    for out in (one, two):
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "converged" in res.output
    for name in ("report.json", "modes.json", "modes.csv", "field.csv"):
        assert read_bytes(one / name) == read_bytes(two / name)
    report = json.loads((one / "report.json").read_text())
    assert report["converged"] is True
    assert report["ns_residual"] < 1e-4
    assert report["phi0"] == base["flow"]["phi0"]


def test_solve_overrides_change_the_run(tmp_path, runner):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out),
                               "--mu", "0.25", "--mu0", "0.25"])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["mu"] == 0.25


def test_solve_nonconvergence_exits_2(tmp_path, runner):
    bad = json.loads(json.dumps(SOLVE_CFG))
    bad["boundary"]["modes"]["vr"] = [[0.0, 0.0], [30.0, 0.0]]
    bad["solver"]["max_iter"] = 4
    cfg = write_cfg(tmp_path, bad)
    res = runner.invoke(main, ["solve", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "did not converge" in res.output


def test_divergent_tail_exits_2_in_one_line(tmp_path, runner,
                                            divergent_sources):
    # A weak-flux trace whose sources give a divergent quadrature tail
    # (the runner calls solve in this process, so the patch reaches it):
    # a typed solver failure, not a traceback.
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["flow"] = {"phi0": 1.8, "mu0": 0.5}
    cfg["solver"] = {"n_modes": 16}
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert res.output.count("\n") == 1
    assert "did not converge" in res.output
    assert "does not converge" in res.output
    # the diverging kernel row: mode 1 of the vorticity stack, zeta_1^+
    assert re.search(r"\(kernel row 0, zeta=0\.4579\d*\+0\.1841\d*j\)$",
                     res.output.strip())


@pytest.mark.parametrize("base, phi0", [
    (SOLVE_CFG, 2.0000001), (SHOOT_CFG, 1.9999999)], ids=["solve", "shoot"])
def test_degenerate_flux_exits_1_in_one_line(tmp_path, runner, base, phi0):
    cfg = json.loads(json.dumps(base))
    cfg["flow"]["phi0"] = phi0
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert "Traceback" not in res.output
    assert res.output.count("\n") == 1
    assert "degenerate band" in res.output


def test_branch_degenerate_flux_exits_1_in_one_line(tmp_path, runner):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["flow"]["phi0"] = 2.0000001
    cfg["branch"] = {"mu_values": [0.15, 0.2]}
    out = tmp_path / "o"
    res = runner.invoke(main, ["branch", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert "Traceback" not in res.output
    assert res.output.count("\n") == 1
    assert "degenerate band" in res.output
    assert not out.exists()


@pytest.mark.parametrize("module", ["scipy", "jsonschema", "hamelflow.uniq",
                                    "hamelflow.verify"])
def test_cli_import_leaves_scipy_out(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, hamelflow.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_formatter_tables_unbuilt():
    # The float kernel's tables are built by the first artifact written,
    # not by every CLI start; the second count shows the probe sees them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import hamelflow.cli, hamelflow.report as r; "
            "built = lambda: r._tables.cache_info().currsize; n = built(); "
            "r.format_rows([[0.5]], ','); print(n, built())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "1"]


def test_invalid_config_exits_1(tmp_path, runner):
    bad = json.loads(json.dumps(SOLVE_CFG))
    bad["flow"]["phi0"] = -1.0
    cfg = write_cfg(tmp_path, bad)
    res = runner.invoke(main, ["solve", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert "flow.phi0" in res.output


@pytest.mark.parametrize("args, message", [
    (["solve", "--config", "missing.json"], "cannot read config"),
    (["branch", "--config", "."], "cannot read config"),
    (["export", "--solution", "missing", "--out", "x.csv"],
     "has no modes.json")],
    ids=["missing-config", "directory-config", "missing-solution"])
def test_unreadable_input_exits_1_in_one_line(tmp_path, runner, args,
                                              message):
    # exit 2 is for non-convergence, not for a path that cannot be read
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert "Traceback" not in res.output
    assert res.output.count("\n") == 1
    assert message in res.output


INT_CFG = {**SOLVE_CFG, "solver": {**SOLVE_CFG["solver"], "max_iter": 20},
           "output": {"write_field": True, "theta_points": 16}}


@pytest.mark.parametrize("block, key", [
    ("solver", "n_modes"), ("solver", "max_iter"), ("output", "theta_points")])
def test_integer_valued_floats_run_as_ints(tmp_path, runner, block, key):
    # JSON Schema's "integer" admits 6.0; the run and its bytes are those
    # of the int config
    floated = json.loads(json.dumps(INT_CFG))
    floated[block][key] = float(floated[block][key])
    outs = []
    for name, payload in (("int", INT_CFG), ("float", floated)):
        outs.append(tmp_path / name)
        res = runner.invoke(main, ["solve", "--config",
                                   write_cfg(tmp_path, payload, name + ".json"),
                                   "--out", str(outs[-1])])
        assert res.exit_code == 0, res.output
    for name in ("report.json", "modes.json", "modes.csv", "field.csv"):
        assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)


@pytest.mark.parametrize("block, key, literal", [
    ("flow", "phi0", "NaN"), ("solver", "r_max", "Infinity"),
    ("flow", "mu0", "NaN"), ("solver", "r_max", "1e400")],
    ids=["phi0-NaN", "r_max-Infinity", "mu0-NaN", "r_max-1e400"])
def test_non_finite_numbers_are_not_json(tmp_path, runner, block, key,
                                         literal):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg[block][key] = "@"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    res = runner.invoke(main, ["solve", "--config", str(path),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert res.output.count("\n") == 1
    assert f"config is not valid JSON: {literal} is not a finite" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--phi0", "-1", "-1.0 is less than the minimum of 0"),
    ("--phi0", "nan", "nan is not a finite number"),
    ("--mu0", "inf", "inf is not a finite number"),
    ("--mu", "nan", "nan is not a finite number")],
    ids=["phi0-negative", "phi0-nan", "mu0-inf", "mu-nan"])
def test_flow_overrides_are_validated(tmp_path, runner, flag, value, message):
    res = runner.invoke(main, ["solve", "--config",
                               write_cfg(tmp_path, SOLVE_CFG),
                               "--out", str(tmp_path / "o"), flag, value])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert res.output.count("\n") == 1
    assert f"config invalid at $.flow.{flag[2:]}: {message}" in res.output
    assert not (tmp_path / "o").exists()


def test_override_replaces_an_invalid_flow_value(tmp_path, runner):
    bad = json.loads(json.dumps(SOLVE_CFG))
    bad["flow"]["phi0"] = -1.0
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, bad),
                               "--out", str(out), "--phi0", "2.5"])
    assert res.exit_code == 0, res.output
    assert json.loads((out / "report.json").read_text())["phi0"] == 2.5


def test_shoot_closes_circulation(tmp_path, runner):
    cfg = write_cfg(tmp_path, SHOOT_CFG)
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "converged" in res.output
    report = json.loads((out / "report.json").read_text())
    assert abs(report["mu"] - 5.0) < 0.01
    assert abs(report["shoot_residual"]) < 1e-8


def test_shoot_reports_one_mu_per_step(tmp_path, runner):
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config",
                               write_cfg(tmp_path, SHOOT_CFG),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert len(report["mu_history"]) == report["iterations"] + 1 > 2


@pytest.mark.parametrize("key, value", [
    ("max_shoot", 40), ("relaxation", 0.5), ("resonance_tol", 1e-8),
    ("tail_exponent_floor", -1.1)],
    ids=["max_shoot", "relaxation", "resonance_tol", "tail_exponent_floor"])
def test_removed_solver_key_is_rejected_in_one_line(tmp_path, runner, key,
                                                     value):
    cfg = json.loads(json.dumps(SHOOT_CFG))
    cfg["solver"][key] = value
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.output.count("\n") == 1
    assert key in res.output and "Traceback" not in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("base", [SOLVE_CFG, SHOOT_CFG],
                         ids=["solve", "shoot"])
def test_grid_of_fewer_than_5_nodes_is_rejected_in_one_line(tmp_path, runner,
                                                            base):
    # r_max=2 at 8 nodes per decade gives 4 nodes; the 5-node grid of
    # r_max=3 still solves (test_report's [5-nodes] case)
    cfg = json.loads(json.dumps(base))
    cfg["solver"].update(r_max=2, nodes_per_decade=8)
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert res.output.count("\n") == 1
    assert "solver settings rejected" in res.output
    assert "4 nodes" in res.output and "at least 5" in res.output
    assert not (tmp_path / "o").exists()


def _sixteen_rows(base, nonzero_row=None):
    """``base`` with 16 vr and vtheta rows; the added rows are zero except
    ``nonzero_row`` (1-based mode number) of vr, if given."""
    cfg = json.loads(json.dumps(base))
    modes = cfg["boundary"]["modes"]
    for key in ("vr", "vtheta"):
        modes[key] += [[0.0, 0.0]] * (16 - len(modes[key]))
    if nonzero_row is not None:
        modes["vr"][nonzero_row - 1] = [0.001, 0.0]
    cfg["solver"]["n_modes"] = 16
    return cfg


@pytest.mark.parametrize("base", [SOLVE_CFG, SHOOT_CFG],
                         ids=["solve", "shoot"])
def test_quick_ignores_trailing_zero_mode_rows(tmp_path, runner, base):
    # --quick caps n_modes at 8; rows above the last nonzero one prescribe
    # nothing, so a config that writes all 16 rows still runs.
    cfg = write_cfg(tmp_path, _sixteen_rows(base))
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--quick", "--config", cfg,
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert json.loads((out / "modes.json").read_text())["n_max"] == 8


def test_quick_rejects_nonzero_mode_row_above_cap(tmp_path, runner):
    cfg = write_cfg(tmp_path, _sixteen_rows(SOLVE_CFG, nonzero_row=12))
    res = runner.invoke(main, ["solve", "--quick", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.output.count("\n") == 1
    assert "boundary prescribes mode 12 but n_modes=8" in res.output
    assert "Traceback" not in res.output


def test_branch_sweep_members_and_extras(tmp_path, runner):
    payload = json.loads(json.dumps(SOLVE_CFG))
    payload["branch"] = {"mu_values": [0.15, 0.2]}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["branch", "--config", cfg, "--out", str(out),
                               "--mu", "0.25"])
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "summary.json").read_text())
    assert [m["mu"] for m in summary["members"]] == [0.15, 0.2, 0.25]
    assert summary["failed"] == 0
    for idx, member in enumerate(summary["members"]):
        assert member["converged"]
        assert (out / f"mu_{idx:02d}" / "modes.json").exists()
    # all members share one trace
    checks = [tuple(m["trace_checksum"]) for m in summary["members"]]
    ur0 = checks[0][0]
    assert all(abs(c[0] - ur0) < 1e-9 for c in checks)


def test_branch_needs_mu_values_and_high_phi0(tmp_path, runner):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    res = runner.invoke(main, ["branch", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert "no circulations" in res.output

    low = write_cfg(tmp_path, SHOOT_CFG, name="low.json")
    res = runner.invoke(main, ["branch", "--config", low,
                               "--out", str(tmp_path / "o"), "--mu", "5.0"])
    assert res.exit_code == 1
    assert "phi0 > 2" in res.output


def test_verify_quick_prints_every_check(tmp_path, runner):
    out = tmp_path / "v"
    res = runner.invoke(main, ["verify", "--quick", "--out", str(out)])
    assert res.exit_code == 0, res.output
    passes = [ln for ln in res.output.splitlines() if ln.startswith("[PASS]")]
    assert len(passes) == 12
    assert "all 12 checks passed" in res.output
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 12


def test_export_formats(tmp_path, runner):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out = tmp_path / "sol"
    assert runner.invoke(main, ["solve", "--config", cfg,
                                "--out", str(out)]).exit_code == 0

    csv_path = tmp_path / "modes_export.csv"
    res = runner.invoke(main, ["export", "--solution", str(out),
                               "--out", str(csv_path)])
    assert res.exit_code == 0, res.output
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("n,r,gamma_re,gamma_im,dgamma_re,dgamma_im,"
                        "w_re,w_im,dw_re,dw_im")
    assert len(lines) > 100
    assert read_bytes(csv_path) == read_bytes(out / "modes.csv")

    empty = tmp_path / "empty"
    empty.mkdir()
    res = runner.invoke(main, ["export", "--solution", str(empty),
                               "--out", "x"])
    assert res.exit_code == 1
    assert "no modes.json" in res.output


NO_PROFILE = '{"r": [1.0], "modes": [{"n": 0, "gamma": [[0.0, 0.0]]}]}'


@pytest.mark.parametrize("content", [
    '{"a": 1}', "not json", NO_PROFILE, '{"r": [], "modes": []}'],
    ids=["no-modes-key", "not-json-csv", "no-profile-key-csv",
         "no-modes-json"])
def test_export_rejects_input_that_is_not_modes_json(tmp_path, runner,
                                                     content):
    src = tmp_path / "modes.json"
    src.write_text(content)
    res = runner.invoke(main, ["export", "--solution", str(src),
                               "--out", str(tmp_path / "x")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert "Traceback" not in res.output
    assert res.output.count("\n") == 1
    assert "is not a modes.json" in res.output


def test_export_csv_keeps_signed_zeros_and_nulls(tmp_path, runner):
    pair = [[-0.0, 1e300], [None, -0.0]]
    modes = {"r": [1.0, 2.5], "modes": [
        {"n": 3, "gamma": pair, "dgamma": pair, "w": pair, "dw": pair}]}
    src = tmp_path / "modes.json"
    src.write_text(json.dumps(modes))
    out = tmp_path / "modes.csv"
    res = runner.invoke(main, ["export", "--solution", str(src),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_text().splitlines()[1:] == [
        "3,1.0" + ",-0.0,1.0000000000000001e+300" * 4,
        "3,2.5" + ",null,-0.0" * 4]


def test_sample_boundary_cross_checks_mu0(tmp_path):
    theta = 2.0 * np.pi * np.arange(32) / 32
    ur = -1.0 + 0.01 * np.cos(theta)
    ut = 5.0 + 0.01 * np.sin(theta)
    cfg = {"flow": {"phi0": 1.0, "mu0": 4.0},
           "boundary": {"theta_samples": {"ur": list(ur), "utheta": list(ut)}},
           "solver": {"n_modes": 4}}
    sc = solver_config(cfg)
    with pytest.raises(ConfigError, match="disagrees"):
        build_boundary(cfg, sc)
    cfg["flow"]["mu0"] = 5.0
    boundary = build_boundary(cfg, sc)
    assert abs(boundary.mu0 - 5.0) < 1e-12


def test_sample_boundary_needs_enough_samples():
    cfg = {"flow": {"phi0": 1.0},
           "boundary": {"theta_samples": {"ur": [0.0] * 8,
                                          "utheta": [1.0] * 8}},
           "solver": {"n_modes": 8}}
    with pytest.raises(ConfigError, match="resolve"):
        build_boundary(cfg, solver_config(cfg))


def test_mode_boundary_needs_mu0():
    cfg = {"flow": {"phi0": 2.5},
           "boundary": {"modes": {"vr": [[0.01, 0.0]]}}}
    with pytest.raises(ConfigError, match="mu0"):
        build_boundary(cfg, solver_config(cfg))


def test_mode_boundary_rejects_excess_rows():
    cfg = {"flow": {"phi0": 2.5, "mu0": 0.2},
           "boundary": {"modes": {"vr": [[0.01, 0.0]] * 5}},
           "solver": {"n_modes": 3}}
    with pytest.raises(ConfigError, match="n_modes"):
        build_boundary(cfg, solver_config(cfg))


def test_quick_mode_caps_resolution():
    cfg = {"flow": {"phi0": 2.5, "mu0": 0.2},
           "boundary": {"modes": {"vr": [[0.01, 0.0]]}},
           "solver": {"n_modes": 32, "nodes_per_decade": 256}}
    sc = solver_config(cfg, quick=True)
    assert sc.n_modes == 8
    assert sc.nodes_per_decade == 48
    full = solver_config(cfg)
    assert full.n_modes == 32
    assert full.nodes_per_decade == 256


def test_schema_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"flow": {"phi0": 1.0}, "boundary": {},
                                "extra": 1}))
    with pytest.raises(ConfigError, match="invalid"):
        load_config(str(path))
