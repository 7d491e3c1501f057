"""Seeded inputs for the benchmark workloads.

A run is a sequence of rounds.  Round ``r`` of a workload draws its tables
from ``random.Random(f"{workload}:{seed}:{r}")``, so the same seed always
yields the same files, and however many rounds a run reaches, no input
repeats within it: each CLI call sees a table no earlier call has seen, as
a fresh ``reducts`` process would.  Tables are written as CSV; their
discernibility families are written as JSON family files (arrays of arrays
of attribute names, members in first-seen row-major pair order).  The
program under test only ever sees these files.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

from oracle import bits, first_seen, pair_masks

WORKLOADS = ("wide-table", "tall-table", "audit-batch")


@dataclass(frozen=True)
class Table:
    """One generated input: attribute names and rows of symbol strings."""

    attrs: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a round: which subcommand, on which input."""

    kind: str  # metric stem: classify, reduct_ea, reduct_yao, ...
    args: tuple[str, ...]  # the subcommand and its options, less the input path
    table: Table
    family_input: bool  # True when the op reads the table's .json family file
    fmt: str  # "json" or "text"


def _names(m: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(m))


def random_table(rng: random.Random, n: int, m: int, symbols: int, apart: bool = False) -> Table:
    """``n`` rows of ``m`` uniform symbols.  With ``apart``, a row is redrawn
    unless it differs from every earlier row in two attributes or more."""
    alphabet = [str(s) for s in range(symbols)]
    rows: list[tuple[str, ...]] = []
    # A row within one attribute of an earlier row shares with it the row
    # left after deleting that attribute.
    near: set[tuple[int, tuple[str, ...]]] = set()
    while len(rows) < n:
        row = tuple(rng.choice(alphabet) for _ in range(m))
        if apart:
            keys = [(a, row[:a] + row[a + 1 :]) for a in range(m)]
            if not near.isdisjoint(keys):
                continue
            near.update(keys)
        rows.append(row)
    return Table(_names(m), tuple(rows))


# Per workload: the op mix of one round as (kind, subcommand args, weight,
# input).  Every workload runs every subcommand, so each reports a median
# for each; the weights keep each workload's own emphasis.  A kind with
# weight w runs w times per round, each time on a table of its own, so no
# invocation repeats another.  The weights also put the overall p50 and p90
# inside one command's latency cluster rather than between two.  ``input``
# is "csv", "json" (the table's family file) or "small" (a smaller table of
# the same kind, for a command that at full size would dominate the
# workload: the audit scans 2^m subsets, and the matrix prints n^2 cells).
_MIXES: dict[str, tuple[tuple[str, tuple[str, ...], int, str], ...]] = {
    "wide-table": (
        ("classify", ("classify",), 4, "csv"),
        ("covering", ("covering",), 2, "csv"),
        ("reduct_ea", ("reduct",), 3, "csv"),
        ("reduct_yao", ("reduct", "--algo", "yao", "--select", "freq"), 3, "csv"),
        ("all_reducts", ("all-reducts",), 4, "csv"),
        ("matrix", ("matrix",), 2, "csv"),
        ("relations", ("relations",), 2, "small"),
        ("audit", ("audit",), 2, "small"),
    ),
    "tall-table": (
        ("classify", ("classify",), 1, "csv"),
        ("reduct_ea", ("reduct",), 1, "csv"),
        ("reduct_yao", ("reduct", "--algo", "yao"), 1, "csv"),
        ("all_reducts", ("all-reducts",), 1, "csv"),
        ("covering", ("covering",), 1, "csv"),
        ("matrix", ("matrix",), 1, "small"),
        ("relations", ("relations",), 1, "csv"),
        ("audit", ("audit",), 2, "csv"),
    ),
    "audit-batch": (
        ("audit", ("audit",), 4, "csv"),
        ("relations", ("relations",), 1, "csv"),
        ("all_reducts", ("all-reducts",), 2, "json"),
        ("classify", ("classify",), 1, "json"),
        ("reduct_ea", ("reduct",), 1, "json"),
        ("reduct_yao", ("reduct", "--algo", "yao"), 1, "json"),
        ("covering", ("covering",), 1, "json"),
        ("matrix", ("matrix",), 1, "csv"),
    ),
}

# Text output exercises the text renderers and the fixed per-call cost on
# the tiny tables; the two large-table workloads use JSON, which is what
# scripts consume.
_FORMAT = {"wide-table": "json", "tall-table": "json", "audit-batch": "text"}

# A round runs the mix once per level: audit-batch once for each attribute
# count 5..9, so every round holds the same mix of audit sizes (the audit
# scans 2^m subsets), however many rounds a run gets through.
_LEVELS = {"wide-table": (0,), "tall-table": (0,), "audit-batch": (5, 6, 7, 8, 9)}


def _draw(workload: str, rng: random.Random, level: int, slot: int, source: str) -> Table:
    if workload == "wide-table":
        # 150 rows over 3^10 cells: the family holds most of the 1023
        # possible sets, so absorption and covering dominate.  No two rows
        # differ in fewer than two attributes, so no row repeats and no
        # member is a singleton; a singleton or two would otherwise come and
        # go from table to table, and with them half the absorption work.
        return random_table(rng, 150, 7 if source == "small" else 10, 3, apart=True)
    if workload == "tall-table":
        # 500 rows over 2^8 cells: about 220 distinct rows, so most object
        # pairs repeat a pair of rows, and the family stays under 256 sets.
        return random_table(rng, 200 if source == "small" else 500, 8, 2)
    # audit-batch: tiny tables, ``level`` attributes; the object count
    # cycles 6..12 by position in the round (the audit's cost doubles
    # between 6 and 12 objects).
    while True:
        t = random_table(rng, 6 + slot % 7, level, 3)
        if len(set(t.rows)) > 1:
            return t


def family_names(table: Table) -> list[list[str]]:
    """The table's discernibility family as sorted name lists, first-seen order."""
    return [[table.attrs[i] for i in bits(mask)] for mask in first_seen(pair_masks(table.rows))]


def round_ops(workload: str, seed: int, rnd: int) -> list[Op]:
    """The ops of round ``rnd`` of a run, each on a table of its own."""
    if workload not in _MIXES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    ops: list[Op] = []
    for level, (kind, args, weight, source) in itertools.product(_LEVELS[workload], _MIXES[workload]):
        for _ in range(weight):
            table = _draw(workload, rng, level, len(ops), source)
            ops.append(Op(kind, args, table, source == "json", _FORMAT[workload]))
    return ops


def write_inputs(ops: list[Op], workdir: str) -> list[list[str]]:
    """Write every op's input file into ``workdir``; return each op's argv."""
    argvs = []
    for idx, op in enumerate(ops):
        if op.family_input:
            path = os.path.join(workdir, f"t{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(family_names(op.table), fh)
        else:
            path = os.path.join(workdir, f"t{idx}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(op.table.attrs) + "\n")
                fh.writelines(",".join(r) + "\n" for r in op.table.rows)
        argvs.append([*op.args, path] + (["--format", "json"] if op.fmt == "json" else []))
    return argvs
