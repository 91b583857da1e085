"""The experiment scripts import the package, parse their options and run
end to end on small settings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_help_exits_0(script):
    res = run_script(script, "--help")
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout


def test_branch_portrait_runs(tmp_path):
    res = run_script(ROOT / "scripts" / "branch_portrait.py", "--n-modes",
                     "4", "--nodes-per-decade", "24", "--mu-values", "0.15",
                     "0.2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    members = summary["members"]
    assert [m["mu"] for m in members] == [0.15, 0.2]
    assert all(m["converged"] for m in members)
    # one trace, two flows
    assert members[1]["trace_gap_to_first"] < 1e-12
    assert members[1]["field_gap_to_first"] > 1e-4
    # the circulation left beyond r_max: 5.0e-4 and 8.7e-8
    assert all("mu_effective" not in m for m in members)
    assert all(abs(m["circulation_at_r_max"]) <= 0.05 * m["mu"]
               for m in members)


def test_branch_portrait_writes_strict_json(tmp_path):
    # A flat trace (--eps 0) leaves no active mode, so beta0 is undefined:
    # summary.json holds null for it, not the NaN token a JSON parser
    # other than Python's rejects.
    res = run_script(ROOT / "scripts" / "branch_portrait.py", "--eps", "0",
                     "--n-modes", "4", "--nodes-per-decade", "24",
                     "--mu-values", "0.15", "0.2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    text = (tmp_path / "summary.json").read_text(encoding="ascii")
    summary = json.loads(text, parse_constant=reject)
    assert [m["beta0"] for m in summary["members"]] == [None, None]


def test_verification_portrait_runs(tmp_path):
    out = tmp_path / "portrait.json"
    res = run_script(ROOT / "scripts" / "verification_portrait.py",
                     "--quick", "--out", str(out))
    assert res.returncode == 0, res.stderr
    portrait = json.loads(out.read_text())
    assert portrait["battery"]["all_passed"]
    assert [row["n"] for row in portrait["decay"]] == [1, 2, 3, 4]
    hardy = portrait["inequalities"]["hardy"]
    assert [row["alpha"] for row in hardy] == [1.5, 2.0, 3.0]
    for row in hardy:
        assert abs(row["eigenvalue"] - row["closed_form"]) < 1e-3
    for row in portrait["inequalities"]["backgrounds"]:
        assert abs(row["q1_eigenvalue"] - row["q1_closed_form"]) < 1e-3
