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

import hamelflow.solve
from hamelflow import BoundarySpectrum
from hamelflow.cli import main
from hamelflow.config import (ConfigError, build_boundary, load_config,
                              solver_config)
from hamelflow.field import NS_RESIDUAL_LIMIT
from hamelflow.solve import SolverConvergenceError

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


# phi0 = 20: the low modes decay like r^-20, which 32 nodes/decade does not
# resolve; the solve converges, with ns_residual 0.13 (3.6e-4 at 128).
UNRESOLVED_CFG = {
    "flow": {"phi0": 20.0, "mu0": 0.2, "mu": 0.2},
    "boundary": {"modes": {"vr": [[0.01, 0.0]], "vtheta": [[0.01, 0.0]]}},
    "solver": {"n_modes": 4, "nodes_per_decade": 32, "r_max": 1e4},
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


def test_unresolved_solve_warns_and_exits_0(tmp_path, runner):
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config",
                               write_cfg(tmp_path, UNRESOLVED_CFG),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["ns_residual"] >= NS_RESIDUAL_LIMIT
    (warning,) = report["warnings"]
    assert warning.startswith(f"ns_residual {report['ns_residual']:.3g} ")
    assert "solver.nodes_per_decade = 32" in warning
    assert res.stderr == f"warning: {warning}\n"


def test_solve_replaces_existing_outputs(tmp_path, runner):
    # A re-run into the same --out writes new files: a hard link to an old
    # artifact and a symlink at an artifact's path, dangling or not, are
    # replaced, not written through.  The first run differs (another
    # config, mu = mu0 = 0.25), so writing through would change the linked
    # bytes.
    payload = {**SOLVE_CFG, "output": {"write_field": True}}
    cfg = write_cfg(tmp_path, payload)
    first = write_cfg(tmp_path, {**payload, "flow": {"phi0": 2.5, "mu0": 0.25,
                                                    "mu": 0.25}},
                      name="first.json")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    res = runner.invoke(main, ["solve", "--config", first, "--out", str(out)])
    assert res.exit_code == 0, res.output
    old_modes = read_bytes(out / "modes.csv")
    link = tmp_path / "modes_link.csv"
    os.link(out / "modes.csv", link)
    sentinel = tmp_path / "sentinel"
    sentinel.write_bytes(b"sentinel\n")
    (out / "field.csv").unlink()
    (out / "field.csv").symlink_to(sentinel)
    (out / "report.json").unlink()
    (out / "report.json").symlink_to(tmp_path / "missing")
    for target in (out, fresh):
        res = runner.invoke(main, ["solve", "--config", cfg,
                                   "--out", str(target)])
        assert res.exit_code == 0, res.output
    for name in ("report.json", "modes.json", "modes.csv", "field.csv"):
        assert read_bytes(out / name) == read_bytes(fresh / name), name
    assert not (out / "field.csv").is_symlink()
    assert not (out / "report.json").is_symlink()
    assert not (tmp_path / "missing").exists()
    assert read_bytes(link) == old_modes != read_bytes(out / "modes.csv")
    assert read_bytes(sentinel) == b"sentinel\n"


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


def test_scan_overflow_exits_2_in_one_line(tmp_path, runner):
    # phi0 = 60 at r_max = 1e6: the mean mode's sink-weighted row grows
    # beyond the double range over the grid; a typed failure, not a NaN.
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["flow"] = {"phi0": 60.0, "mu0": 0.2, "mu": 0.2}
    cfg["solver"] = {"n_modes": 4, "nodes_per_decade": 32, "r_max": 1e6}
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert res.output.count("\n") == 1
    assert "quadrature failed in Picard iteration 1" in res.output
    assert res.output.strip().endswith("(out kernel row 4, zeta=-61+0j)")


# phi0 = mu = 0 (stokes): zeta_1^- = -1 and mode 1 has no decaying response.
# The band is 2 < phi0 < 2 + 1e-6 only: just below 2 (shoot) the solve
# never divides by phi0 - 2, and it shoots to the circulation of phi0 = 2.
@pytest.mark.parametrize("base, flow, message", [
    (SOLVE_CFG, {"phi0": 2.0000001}, "degenerate band"),
    (SHOOT_CFG, {"phi0": 1.9999999}, None),
    (SHOOT_CFG, {"phi0": 0.0, "mu0": 0.0}, "phi0=0 with mu=0")],
    ids=["solve", "shoot", "stokes"])
def test_degenerate_flux_exits_1_in_one_line(tmp_path, runner, base, flow,
                                             message):
    cfg = json.loads(json.dumps(base))
    cfg["flow"].update(flow)
    res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(tmp_path / "o")])
    if message is None:
        assert res.exit_code == 0, res.output
        cfg["flow"]["phi0"] = 2.0
        at_two = runner.invoke(main, ["solve", "--out", str(tmp_path / "two"),
                                      "--config", write_cfg(tmp_path, cfg)])
        assert at_two.exit_code == 0, at_two.output
        mu = [json.loads((tmp_path / d / "report.json").read_text())["mu"]
              for d in ("o", "two")]
        assert abs(mu[0] - mu[1]) < 1e-12
        return
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # handled, no traceback
    assert "Traceback" not in res.output
    assert res.output.count("\n") == 1
    assert message in res.output


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


def test_cli_reads_and_writes_without_the_locale_encoding(tmp_path):
    # Under -X warn_default_encoding with EncodingWarning an error, every
    # file the CLI opens must name its encoding: the config that solve and
    # branch read and the artifacts that all three commands write.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cfg = write_cfg(tmp_path, {**SOLVE_CFG,
                               "branch": {"mu_values": [0.1, 0.3]}})
    cli = [sys.executable, "-X", "warn_default_encoding",
           "-W", "error::EncodingWarning", "-m", "hamelflow.cli"]
    for args in (["solve", "--config", cfg, "--out", str(tmp_path / "run")],
                 ["branch", "--config", cfg, "--out",
                  str(tmp_path / "branch")],
                 ["verify", "--quick", "--out", str(tmp_path / "verify")]):
        res = subprocess.run(cli + args, env=env, capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "branch" / "mu_01" / "modes.csv").is_file()
    assert (tmp_path / "verify" / "verify_report.json").is_file()


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
    (["branch", "--config", "."], "cannot read config")],
    ids=["missing-config", "directory-config"])
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


def test_solve_and_branch_take_their_parameters_from_the_config(tmp_path,
                                                                runner):
    # The config file is the one source of a run's parameters: an option
    # for one of them is click's usage error (exit 2), and nothing is
    # written.
    for name in ("solve", "branch"):
        assert {p.name for p in main.commands[name].params} == {
            "config_path", "outdir", "seed"}
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config",
                               write_cfg(tmp_path, SOLVE_CFG),
                               "--out", str(out), "--mu", "0.25"])
    assert res.exit_code == 2
    assert "No such option '--mu'" in res.output
    assert not out.exists()


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
    """``base`` with 16 vr and vtheta rows at n_modes = 8; the added rows
    are zero except ``nonzero_row`` (1-based mode number) of vr, if
    given."""
    cfg = json.loads(json.dumps(base))
    modes = cfg["boundary"]["modes"]
    for key in ("vr", "vtheta"):
        modes[key] += [[0.0, 0.0]] * (16 - len(modes[key]))
    if nonzero_row is not None:
        modes["vr"][nonzero_row - 1] = [0.001, 0.0]
    cfg["solver"]["n_modes"] = 8
    return cfg


@pytest.mark.parametrize("base", [SOLVE_CFG, SHOOT_CFG],
                         ids=["solve", "shoot"])
def test_quick_ignores_trailing_zero_mode_rows(tmp_path, runner, base):
    # Rows above the last nonzero one prescribe nothing, so a config that
    # writes all 16 rows still runs at n_modes = 8.
    cfg = write_cfg(tmp_path, _sixteen_rows(base))
    out = tmp_path / "o"
    res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert json.loads((out / "modes.json").read_text())["n_max"] == 8


def test_quick_rejects_nonzero_mode_row_above_cap(tmp_path, runner):
    cfg = write_cfg(tmp_path, _sixteen_rows(SOLVE_CFG, nonzero_row=12))
    res = runner.invoke(main, ["solve", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.output.count("\n") == 1
    assert "boundary prescribes mode 12 but n_modes=8" in res.output
    assert "Traceback" not in res.output


def test_branch_sweep_members_and_extras(tmp_path, runner):
    payload = json.loads(json.dumps(SOLVE_CFG))
    payload["branch"] = {"mu_values": [0.15, 0.2, 0.25]}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["branch", "--config", cfg, "--out", str(out)])
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


def test_branch_summary_carries_each_members_circulation_at_r_max(tmp_path,
                                                                 runner):
    # summary.json holds each member's report.json circulation_at_r_max,
    # bit for bit.
    payload = json.loads(json.dumps(SOLVE_CFG))
    payload["branch"] = {"mu_values": [0.15, 0.25]}
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["branch", "--config",
                               write_cfg(tmp_path, payload), "--out",
                               str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "summary.json").read_text())
    for idx, member in enumerate(summary["members"]):
        assert "mu_effective" not in member
        report = json.loads(
            (out / f"mu_{idx:02d}" / "report.json").read_text())
        assert "circulation_fit" not in report
        assert (member["circulation_at_r_max"].hex()
                == report["circulation_at_r_max"].hex())


def test_branch_records_a_failed_member_and_exits_2(tmp_path, runner,
                                                  monkeypatch):
    # One member's solve fails: summary.json records it with its error, the
    # converged members are written, and the command exits 2 in one line.
    picard = hamelflow.solve.picard_solve

    def fail_at_02(boundary, config=None):
        if boundary.mu == 0.2:
            raise SolverConvergenceError("no contraction (forced)")
        return picard(boundary, config)

    monkeypatch.setattr(hamelflow.solve, "picard_solve", fail_at_02)
    payload = json.loads(json.dumps(SOLVE_CFG))
    payload["branch"] = {"mu_values": [0.15, 0.2, 0.25]}
    out = tmp_path / "sweep"
    cfg = write_cfg(tmp_path, payload)
    res = runner.invoke(main, ["branch", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert res.output == f"2/3 members converged; wrote {out}/summary.json\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] == 1
    failed = summary["members"][1]
    assert failed == {"mu": 0.2, "converged": False,
                      "error": "no contraction (forced)"}
    assert [m["converged"] for m in summary["members"]] == [True, False, True]
    assert sorted(p.name for p in out.iterdir()) == ["mu_00", "mu_02",
                                                     "summary.json"]
    for idx in (0, 2):
        assert (out / f"mu_{idx:02d}" / "modes.json").exists()


def test_branch_needs_mu_values_and_high_phi0(tmp_path, runner):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    res = runner.invoke(main, ["branch", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.output.count("\n") == 1
    assert "no circulations" in res.output

    low = write_cfg(tmp_path, {**SHOOT_CFG, "branch": {"mu_values": [5.0]}},
                    name="low.json")
    res = runner.invoke(main, ["branch", "--config", low,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert "phi0 > 2" in res.output


BATTERY = ["exponent_identities", "existence_threshold",
           "manufactured_solution", "ode_residuals", "picard_fixed_point",
           "circulation_shooting", "hardy_inequality", "quadratic_forms",
           "positivity_window", "q1_negativity_probe"]


def test_verify_quick_prints_every_check(tmp_path, runner):
    out = tmp_path / "v"
    res = runner.invoke(main, ["verify", "--quick", "--out", str(out)])
    assert res.exit_code == 0, res.output
    passes = [ln for ln in res.output.splitlines() if ln.startswith("[PASS]")]
    assert [ln.split(":")[0] for ln in passes] == [f"[PASS] {name}"
                                                   for name in BATTERY]
    assert "all 10 checks passed" in res.output
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["all_passed"] is True
    assert [c["name"] for c in payload["checks"]] == BATTERY


def test_verify_records_a_failing_solve_and_runs_on(tmp_path, runner,
                                                    monkeypatch):
    # A check whose solve raises fails with metric inf; the battery prints
    # every check and exits 1 (the runner calls verify in this process,
    # so the patch reaches it).
    import hamelflow.verify
    from hamelflow import SolverConvergenceError

    def no_contraction(*args):
        raise SolverConvergenceError("no contraction (patched)")

    monkeypatch.setattr(hamelflow.verify, "shoot_mu", no_contraction)
    out = tmp_path / "v"
    res = runner.invoke(main, ["verify", "--quick", "--out", str(out)])
    assert res.exit_code == 1
    lines = [ln for ln in res.output.splitlines() if ln.startswith("[")]
    assert [ln.split(":")[0] for ln in lines] == [
        f"[{'FAIL' if name == 'circulation_shooting' else 'PASS'}] {name}"
        for name in BATTERY]
    assert ("[FAIL] circulation_shooting: SolverConvergenceError: "
            "no contraction (patched)") in lines
    (record,) = [c for c in json.loads((out / "verify_report.json")
                                       .read_text())["checks"]
                 if not c["passed"]]
    assert record["name"] == "circulation_shooting"
    assert record["metric"] is None     # inf, written as null


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


def test_spectrum_errors_are_config_errors():
    # build_boundary turns a ValueError from building the spectrum, in
    # either form, into ConfigError
    theta = 2.0 * np.pi * np.arange(16) / 16
    band = {"ur": list(-2.0000001 + 0.01 * np.cos(theta)),
            "utheta": [0.2] * 16}
    cases = [
        ({"phi0": 2.0000001}, {"theta_samples": band}, "degenerate band"),
        ({"phi0": 2.0000001, "mu0": 0.2}, {"modes": {"vr": [[0.01, 0.0]]}},
         "degenerate band"),
        ({"phi0": 1.0}, {"theta_samples": {"ur": [-1.0] * 16,
                                           "utheta": [1.0] * 15}},
         "ur and utheta need matching"),
        ({"phi0": 1.0}, {"theta_samples": {"ur": [-1.0] * 8,
                                           "utheta": [1.0] * 8}},
         "8 samples cannot resolve n_max=4; need at least 10")]
    for flow, boundary, message in cases:
        cfg = {"flow": flow, "boundary": boundary, "solver": {"n_modes": 4}}
        with pytest.raises(ConfigError, match=message):
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


def test_mode_boundary_is_from_modes():
    # The config's mode form is BoundarySpectrum.from_modes on the same
    # rows, to the byte; zero rows above the last prescribed one count for
    # nothing.
    cfg = {"flow": {"phi0": 2.5, "mu0": 0.3, "mu": 0.2},
           "boundary": {"modes": {
               "vr": [[0.0, 0.0], [0.01, -0.02], [0.0, 0.0]],
               "vtheta": [[0.01, 0.0], [0.0, 0.0], [-0.003, 0.004]]}},
           "solver": {"n_modes": 4}}
    got = build_boundary(cfg, solver_config(cfg))
    want = BoundarySpectrum.from_modes(4, 2.5, 0.3, 0.2,
                                       vr={2: 0.01 - 0.02j},
                                       vtheta={1: 0.01, 3: -0.003 + 0.004j})
    assert (got.n_max, got.phi0, got.mu0, got.mu) == (4, 2.5, 0.3, 0.2)
    assert got.vr.tobytes() == want.vr.tobytes()
    assert got.vtheta.tobytes() == want.vtheta.tobytes()


def test_schema_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"flow": {"phi0": 1.0}, "boundary": {},
                                "extra": 1}))
    with pytest.raises(ConfigError, match="invalid"):
        load_config(str(path))
