"""Scaling sweep: each layer's public call timed once per table size.

Usage (from the root of a checkout):
    python3 perfbench/sweep.py [--budget SECONDS]

Regenerates the baseline table of ROADMAP.md: seeded uniform 3-valued
tables at 100x10, 300x12, 600x16 and 1000x20.  Each cell (one size, one
layer call) runs in a child process of its own, which builds the call's
inputs untimed, times the call once, and reports its wall time and the
child's peak RSS.  A cell still running after ``--budget`` seconds is
killed, and one that runs out of its CELL_MEMORY bytes of address space
stops; both are recorded as "over_budget", and so is every larger cell of
a layer already over budget, without being run.  A call the package refuses for its size (exit 3
territory) is recorded as "over_cap".
This report is not gated: one timing per cell is an order of magnitude,
not a measurement to compare PRs by.  The gated benchmark is run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SIZES = ((100, 10), (300, 12), (600, 16), (1000, 20))
SEED = 1
# Address space a cell may map, so that the n^2 matrix at 1000x20 cannot
# exhaust the host's memory.
CELL_MEMORY = 2 << 30
LAYERS = (
    "model.load_table",
    "discern.discernibility_matrix",
    "discern.absorb",
    "characters.classify_all",
    "reducers.ea_reduce",
    "reducers.yao_row_wise",
    "reducers.all_reducts_bruteforce",
    "discern.reducts_by_expansion",
    "covering.minimal_description",
    "relations.relation_report_from_system",
    "relations.audit_theorems",
    "cli.main covering",
)


def _cell_csv(n: int, m: int) -> Path:
    """Where the CLI cells read their table; the parent removes it, since a
    child killed over budget cannot."""
    return HERE.parent / ".perfbench_work" / f"sweep-{n}x{m}.csv"


def _cell(n: int, m: int, layer: str) -> dict:
    """Build the inputs of one layer call, then time the call once."""
    resource.setrlimit(resource.RLIMIT_AS, (CELL_MEMORY, CELL_MEMORY))
    sys.path.insert(0, str(SRC))
    from reducts import cli
    from reducts.characters import classify_all
    from reducts.covering import covering_from_family, minimal_description
    from reducts.discern import absorb, discernibility_matrix, reducts_by_expansion
    from reducts.errors import ResourceLimitError
    from reducts.model import load_table
    from reducts.reducers import SelectionPolicy, all_reducts_bruteforce, ea_reduce, yao_row_wise
    from reducts.relations import audit_theorems, relation_report_from_system

    import gen
    from worker import peak_rss_kib

    table = gen.random_table(random.Random(f"sweep:{SEED}:{n}x{m}"), n, m, 3)
    text = ",".join(table.attrs) + "\n" + "".join(",".join(r) + "\n" for r in table.rows)
    system = load_table(text)
    info: dict = {}
    if layer in ("model.load_table", "cli.main covering"):
        path = _cell_csv(n, m)
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        calls = {
            "model.load_table": lambda: load_table(text),
            "cli.main covering": lambda: cli.main(["covering", str(path), "--format", "json"]),
        }
    else:
        family = discernibility_matrix(system).family
        info["family_raw"] = len(family)
        universe = frozenset(range(m))
        space = covering_from_family(family)
        calls = {
            "discern.discernibility_matrix": lambda: discernibility_matrix(system),
            "discern.absorb": lambda: absorb(family),
            "characters.classify_all": lambda: classify_all(family, universe),
            "reducers.ea_reduce": lambda: ea_reduce(family, SelectionPolicy.FIRST),
            "reducers.yao_row_wise": lambda: yao_row_wise(family, SelectionPolicy.FIRST),
            "reducers.all_reducts_bruteforce": lambda: all_reducts_bruteforce(family, universe),
            "discern.reducts_by_expansion": lambda: reducts_by_expansion(family),
            "covering.minimal_description": lambda: [minimal_description(space, a) for a in sorted(space.ground)],
            "relations.relation_report_from_system": lambda: relation_report_from_system(system),
            "relations.audit_theorems": lambda: audit_theorems(system),
        }
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = calls[layer]()
    except ResourceLimitError as err:
        return {"status": "over_cap", "detail": str(err), **info}
    seconds = time.perf_counter() - t0
    if layer == "discern.absorb":
        info["family_absorbed"] = len(result.minimal)
    return {"status": "ok", "seconds": seconds, "peak_rss_mb": peak_rss_kib() / 1024, **info}


def _run_cell(n: int, m: int, layer: str, budget: float) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--cell", str(n), str(m), layer]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return {"status": "over_budget", "budget_s": budget}
    finally:
        _cell_csv(n, m).unlink(missing_ok=True)
    if proc.returncode != 0:
        return {"status": "error", "detail": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(cell: dict) -> str:
    if cell["status"] == "ok":
        return f"{cell['seconds']:.3g} s"
    return cell["status"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=float, default=60.0, help="seconds per cell (default 60)")
    parser.add_argument("--cell", nargs=3, metavar=("N", "M", "LAYER"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        n, m, layer = args.cell
        try:
            cell = _cell(int(n), int(m), layer)
        except MemoryError:
            cell = {"status": "over_budget", "detail": "memory"}
        print(json.dumps(cell))
        return 0
    if not (SRC / "reducts" / "cli.py").is_file():
        print(f"sweep.py: no reducts package under {SRC}", file=sys.stderr)
        return 2

    previous: dict = {}
    print("| table (n×m) | |F| raw → absorbed | " + " | ".join(LAYERS) + " | peak RSS |")
    print("|---" * (len(LAYERS) + 3) + "|")
    for n, m in SIZES:
        row = {
            layer: previous[layer] if previous.get(layer, {}).get("status") == "over_budget"
            else _run_cell(n, m, layer, args.budget)
            for layer in LAYERS
        }
        previous = row
        raw = row["discern.discernibility_matrix"].get("family_raw", "?")
        absorbed = row["discern.absorb"].get("family_absorbed", "?")
        peak = max((c.get("peak_rss_mb", 0) for c in row.values()), default=0)
        print(f"| {n}×{m} | {raw} → {absorbed} | " + " | ".join(_fmt(row[l]) for l in LAYERS)
              + f" | {peak:.0f} MB |", flush=True)
    with contextlib.suppress(OSError):
        _cell_csv(0, 0).parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
