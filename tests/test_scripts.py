"""The scripts under ``scripts/`` run cleanly against the package under test."""

import sys

import pytest

from helpers import SCRIPTS, run_child


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce_worked_examples.py"],
        ["measure_claims.py", "--systems", "20"],
        ["differential.py", "--tables", "5"],
    ],
)
def test_script_runs(argv):
    done = run_child([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
