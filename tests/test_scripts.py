"""The experiment scripts import the package and parse their options."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_help_exits_0(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(script), "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout
