"""Pinned stdout of every subcommand, in both formats, on the worked inputs.

The inputs live in ``tests/golden`` and the expected reports in
``tests/golden/out``, one file per case, named after the command and the
input.  Commands run from the input directory, so the ``input`` field of a
JSON report is the bare file name.

``digests.json`` pins, for a fixed subset of the seeded corpus of
``scripts/differential.py``, the sha256 of each case's exit code, stdout
and stderr; the cases run from the corpus directory, as these do from
theirs.

After an intended change to the output, rewrite the pinned files and
digests with ``PYTHONPATH=src python3 tests/test_golden.py`` and review
the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

import helpers  # noqa: F401  (puts scripts/ on the import path)
import differential
from reducts.cli import main

GOLDEN = Path(__file__).parent / "golden"

_EVERY_INPUT = [
    "classify",
    "reduct",
    "reduct --verbose",
    "reduct --algo yao --verbose",
    "all-reducts",
    "covering",
]

# (input arguments, commands run on it)
_RUNS = [
    ("five_by_four.csv", ["matrix", *_EVERY_INPUT, "relations --excludes a1,a2->a3", "audit"]),
    ("labelled.csv --id-col", ["matrix"]),
    ("ladder.json", [*_EVERY_INPUT, "relations --excludes a2->a1"]),
    ("walkthrough.json", [*_EVERY_INPUT, "relations"]),
    # Columns out of name order: printed sets still list names sorted.
    ("reversed.csv", ["audit"]),
]


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")


CASES = {
    f"{_slug(command)}__{Path(source.split()[0]).stem}.{fmt}": [
        *command.split(), *source.split(), "--format", fmt
    ]
    for source, commands in _RUNS
    for command in commands
    for fmt in ("text", "json")
}


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_pinned_file(name):
    expected = (GOLDEN / "out" / name).read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == expected


def _digests(pinned: dict, directory: Path) -> dict[str, str]:
    """The digest of each pinned case, run on a corpus written to
    ``directory`` from the pinned seed and table count."""
    corpus = differential.write_corpus(directory, pinned["seed"], pinned["tables"])
    by_name = {" ".join(argv): argv for argv in corpus}
    names = sorted(pinned["digests"])
    missing = [name for name in names if name not in by_name]
    assert not missing, f"pinned cases the corpus lacks: {missing}"
    results = differential.run_in(directory, [by_name[name] for name in names])
    return dict(zip(names, map(differential.digest, results)))


def test_differential_digests_match_pinned(tmp_path):
    pinned = json.loads(differential.DIGESTS.read_text(encoding="utf-8"))
    assert _digests(pinned, tmp_path) == pinned["digests"]


def test_digests_name_the_pinned_cases_the_corpus_lacks(tmp_path):
    pinned = {"seed": 0, "tables": 0, "digests": {"reduct --gone --format json f0.json": ""}}
    with pytest.raises(AssertionError, match="reduct --gone --format json f0.json"):
        _digests(pinned, tmp_path)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / "out" / name).write_text(_stdout(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN / 'out'}")
    pinned = json.loads(differential.DIGESTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        pinned["digests"] = _digests(pinned, Path(tmp))
    differential.DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned['digests'])} digests to {differential.DIGESTS}")
