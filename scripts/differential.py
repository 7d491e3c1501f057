#!/usr/bin/env python3
"""Run every CLI subcommand variant over a seeded corpus, and compare trees.

The corpus is written to a temporary directory.  It holds seeded tables
from ``measure_claims.random_system`` (every other one drawn from a pool
of a few rows, so most rows repeat), single-object and all-identical
tables, tables with a label column and non-ASCII names for ``--id-col``,
random family files (a few malformed), and the inputs under
``tests/golden/``.  Each input runs every variant in text and in JSON;
each case calls ``reducts.cli.main`` in process and records its exit
code, stdout and stderr.

Without ``--against``, the corpus runs in this process on this
checkout's ``src``, and the script exits 1 if any case raised or failed
an internal check (exit 2).  With ``--against REV``, it runs on this
checkout's ``src`` and on a ``git archive`` export of REV (no worktree is
added), each in its own child process with a fixed hash seed, and the
script exits 1 on any difference in stdout, stderr or exit code.

    python3 scripts/differential.py [--seed N] [--tables N] [--against REV]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
GOLDEN = REPO / "tests" / "golden"

# Every variant runs once with --format text and once with --format json.
VARIANTS = (
    ["matrix"],
    ["classify"],
    ["reduct"],
    ["reduct", "--verbose"],
    ["reduct", "--algo", "yao"],
    ["reduct", "--algo", "yao", "--verbose"],
    ["reduct", "--select", "freq"],
    ["reduct", "--select", "freq", "--verbose"],
    ["reduct", "--no-minimize"],
    ["reduct", "--no-minimize", "--verbose"],
    ["all-reducts"],
    ["relations"],
    ["relations", "--excludes", "a1->a2", "--excludes", "a2,a3->a1"],
    ["audit"],
    ["covering"],
)

LABEL_PREFIXES = ("é", "объект", 'q"', "日本", "a,b")
NAME_POOL = ("a", "b", "c", "d", "é", "жук", "名")

# Run in a child process whose PYTHONPATH holds one tree's src and this
# directory; it reads the cases on stdin and writes the results as JSON.
_CHILD = (
    "import json, sys, differential; "
    "json.dump(differential.run_cases(json.load(sys.stdin)), sys.stdout)"
)


def _write_table(path: Path, system, *, labelled: bool) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if labelled:
            prefix = LABEL_PREFIXES
            names = [f"{prefix[a % len(prefix)]}{a + 1}" for a in range(system.n_attributes)]
            writer.writerow(["object", *names])
            for i, row in enumerate(system.rows):
                writer.writerow([f"{prefix[i % len(prefix)]} {i}", *row])
        else:
            writer.writerow(system.attributes)
            writer.writerows(system.rows)


def _random_family(rng: random.Random) -> list:
    names = NAME_POOL[: rng.randint(1, len(NAME_POOL))]
    rows: list = [
        rng.sample(names, rng.randint(1, min(3, len(names))))
        for _ in range(rng.randint(0, 8))
    ]
    if rows and rng.random() < 0.1:
        rows[rng.randrange(len(rows))] = rng.choice([[], [1], [""]])
    if rows:
        rows.append(list(rows[0]))  # a repeated member
    return rows


def write_corpus(directory: Path, seed: int, tables: int) -> list[list[str]]:
    """Write the corpus under ``directory`` and return every case's argv."""
    from measure_claims import random_system

    rng = random.Random(seed)
    inputs: list[tuple[Path, list[str]]] = []
    for k in range(tables):
        kind = ("plain", "pooled", "single", "identical", "labelled")[k % 5]
        if kind == "single":
            system = random_system(rng, 1, 6)
        elif kind == "identical":
            system = random_system(rng, 10, 6, pool=1)
        else:
            pool = rng.randint(1, 4) if kind == "pooled" else None
            system = random_system(rng, 10, 6, pool=pool)
        table = directory / f"t{k}_{kind}.csv"
        _write_table(table, system, labelled=kind == "labelled")
        inputs.append((table, ["--id-col"] if kind == "labelled" else []))
        family = directory / f"f{k}.json"
        family.write_text(json.dumps(_random_family(rng), ensure_ascii=False), encoding="utf-8")
        inputs.append((family, []))
    for source in sorted(GOLDEN.glob("*.*")):
        copy = directory / f"golden_{source.name}"
        shutil.copyfile(source, copy)
        inputs.append((copy, []))
        if copy.suffix == ".csv":
            inputs.append((copy, ["--id-col"]))
    return [
        [*variant, *extra, "--format", fmt, str(path)]
        for path, extra in inputs
        for variant in VARIANTS
        for fmt in ("text", "json")
    ]


def run_cases(cases: list[list[str]]) -> list[list]:
    """Exit code, stdout and stderr of ``reducts.cli.main`` on each argv.

    A case that raises records -1 and the exception's last line, without
    file paths, so two trees can be compared."""
    from reducts.cli import main

    results = []
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # a crash is an outcome to compare
                code = -1
                err.write("".join(traceback.format_exception_only(type(exc), exc)))
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def _run_tree(src: Path, cases: list[list[str]], cwd: Path) -> list[list]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(SCRIPTS)]), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    if done.returncode:
        sys.exit(f"differential: the run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], capture_output=True)
    if archive.returncode:
        sys.exit(f"differential: cannot export {rev}: {archive.stderr.decode().strip()}")
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def _compare(cases, here, there) -> int:
    differing = [
        (argv, [part for part, a, b in zip(("exit code", "stdout", "stderr"), x, y) if a != b])
        for argv, x, y in zip(cases, here, there)
        if x != y
    ]
    for argv, parts in differing[:20]:
        print(f"differs in {', '.join(parts)}: {' '.join(argv)}")
    print(f"{len(cases)} cases, {len(differing)} differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tables", type=int, default=100, help="seeded tables, each with a family file")
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args()
    sys.path.insert(0, str(REPO / "src"))

    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp, "corpus")
        corpus.mkdir()
        cases = write_corpus(corpus, args.seed, args.tables)
        if args.against is not None:
            tree = Path(tmp, "against")
            _export(args.against, tree)
            here = _run_tree(REPO / "src", cases, Path(tmp))
            there = _run_tree(tree / "src", cases, Path(tmp))
            return _compare(cases, here, there)
        results = run_cases(cases)
    codes = Counter(code for code, _, _ in results)
    print(f"{len(cases)} cases; exit codes: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
    return 1 if codes[-1] or codes[2] else 0


if __name__ == "__main__":
    raise SystemExit(main())
