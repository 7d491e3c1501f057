"""Benchmark of the ``reducts`` command line, one workload per run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  One run:

1. Set-up, repeated SETUP_REPEATS times (``setup_s`` is the median): start
   a fresh interpreter that imports ``reducts.cli``.  That is the program's
   own set-up; generating the inputs is the benchmark's, and is timed
   apart.
2. Start the workload process (worker.py), a closed loop with one client
   calling ``reducts.cli.main(argv)`` in-process for S seconds, whole
   rounds at a time; it writes each round's inputs (gen.py) just before
   the round, outside every timer.
3. Regenerate each op's table from the seed and check the op's output
   against the oracle (oracle.py, check.py), which shares no code with
   ``reducts``.  Failed ops count against ``success_ratio``; the run goes
   on.
4. Print the metrics.  With ``--trace 0`` these are the end-to-end metrics;
   with ``--trace 1`` the workload process records a span around every
   public layer function (spans.py) and the metrics are per layer, per op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload untraced and traced and prints both, with the tracing
overhead; see README.md for the metrics and what each should predict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import check
import gen
import oracle
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

KINDS = ("classify", "reduct_ea", "reduct_yao", "all_reducts", "covering", "matrix", "relations", "audit")


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _setup() -> float:
    """Median wall time of a fresh interpreter importing ``reducts.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reducts.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_worker(workload: str, seed: int, base: Path, seconds: float, trace: bool) -> dict:
    outdir = base / "out"
    outdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(outdir), str(seconds), "1" if trace else "0"],
        capture_output=True,
        text=True,
        timeout=seconds + 150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((outdir / "ops.json").read_text())
    record["outdir"] = outdir
    return record


def _ops_run(workload: str, seed: int, record) -> list[gen.Op]:
    """The generated op behind each op record, regenerated from the seed."""
    rounds: dict[int, list[gen.Op]] = {}
    ops = []
    for rec in record["ops"]:
        if rec["round"] not in rounds:
            rounds[rec["round"]] = gen.round_ops(workload, seed, rec["round"])
        ops.append(rounds[rec["round"]][rec["index"]])
    return ops


def _check_ops(ops: list[gen.Op], record) -> list[str | None]:
    """One failure reason, or None, per op run."""
    reasons = []
    for n, (op, rec) in enumerate(zip(ops, record["ops"])):
        if rec["code"] != 0:
            reasons.append(f"exit {rec['code']}: {rec['stderr'].strip()[-300:]}")
            continue
        table = op.table
        facts = (oracle.family_facts if op.family_input else oracle.table_facts)(table.attrs, table.rows)
        output = (record["outdir"] / f"op{n}.out").read_text(encoding="utf-8")
        reasons.append(check.check(op.kind, op.fmt, output, facts, table.rows))
    return reasons


def _kinds(ops: list[gen.Op], values) -> dict[str, list[float]]:
    """``values`` (one per op) grouped by the op's subcommand kind."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for op, value in zip(ops, values):
        by_kind[op.kind].append(value)
    return by_kind


def _in_refs(record) -> list[float]:
    """Each op's latency in reference units: its wall time divided by the
    median time of the reference work done before each op of its round."""
    refs: dict[int, list[float]] = defaultdict(list)
    for op in record["ops"]:
        refs[op["round"]].append(op["ref"])
    unit = {rnd: statistics.median(v) for rnd, v in refs.items()}
    return [op["latency"] / unit[op["round"]] for op in record["ops"]]


def end_to_end_metrics(ops, record, setup_s: float, attempted: int, failed: int) -> dict:
    lat = _in_refs(record)
    by_kind = _kinds(ops, lat)
    metrics = {
        "ops_per_kref": (1000 * len(lat) / sum(lat), "1/kref"),
        "latency_p50_ref": (statistics.median(lat), "ref"),
        "latency_p90_ref": (_p90(lat), "ref"),
    }
    for kind in KINDS:
        metrics[f"{kind}_p50_ref"] = (statistics.median(by_kind[kind]), "ref")
    metrics["peak_rss_mb"] = (record["peak_rss_kib"] / 1024, "MB")
    metrics["success_ratio"] = ((attempted - failed) / attempted, "ratio")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def layer_metrics(record) -> tuple[dict, list[tuple[str, float]]]:
    """Per-layer metrics per op from the spans, and self-time shares by function."""
    doc = json.loads((record["outdir"] / "spans.json").read_text())
    names, spans = doc["names"], doc["spans"]
    ops = record["ops"]
    n_ops = len(ops)
    busy = sum(op["latency"] for op in ops)

    covered = [0.0] * len(spans)
    for _name_id, start, end, parent, _op, _counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name_id, start, end, _parent, _op, _counts) in enumerate(spans):
        self_s[names[name_id]] += end - start - covered[i]
        calls[names[name_id]] += 1

    def counted(name: str) -> list[tuple[int, dict]]:
        return [(i, s[5]) for i, s in enumerate(spans) if names[s[0]] == name]

    def under(i: int, ancestor: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if names[spans[parent][0]] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    matrices = counted("discern.discernibility_matrix")
    absorbs = counted("discern.absorb")
    brute = counted("reducers.all_reducts_bruteforce")
    audits = counted("relations.audit_theorems")
    pairs = sum(c["pairs"] for _, c in matrices)
    masks = sum(c["masks"] for _, c in brute)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_op_self(*fns: str) -> float:
        return sum(self_s[f] for f in fns) / n_ops

    m = {
        "trace.ops_per_kref": (1000 * n_ops / sum(_in_refs(record)), "1/kref"),
        "discern.absorb.self_s": (per_op_self("discern.absorb"), "s/op"),
        "discern.absorb.calls": (calls["discern.absorb"] / n_ops, "count/op"),
        "discern.absorb_useful_ratio": (
            ratio(len({(spans[i][4], c["key"]) for i, c in absorbs}), len(absorbs)),
            "ratio",
        ),
        "characters.absorb_per_classify": (
            ratio(sum(under(i, "characters.classify_all") for i, _ in absorbs), calls["characters.classify_all"]),
            "count",
        ),
        "covering.minimal_description.self_s": (per_op_self("covering.minimal_description"), "s/op"),
        "covering.minimal_description.calls": (calls["covering.minimal_description"] / n_ops, "count/op"),
        "covering.other.self_s": (
            sum(v for k, v in self_s.items() if k.startswith("covering.") and k != "covering.minimal_description")
            / n_ops,
            "s/op",
        ),
        "discern.discernibility_matrix.self_s": (per_op_self("discern.discernibility_matrix"), "s/op"),
        "discern.discernibility_matrix.calls": (len(matrices) / n_ops, "count/op"),
        "discern.pairs_compared": (pairs / n_ops, "count/op"),
        "discern.distinct_pair_ratio": (ratio(sum(c["distinct_pairs"] for _, c in matrices), pairs), "ratio"),
        "discern.family_raw": (ratio(sum(c["family"] for _, c in matrices), len(matrices)), "count"),
        "discern.family_absorbed": (ratio(sum(c["absorbed"] for _, c in absorbs), len(absorbs)), "count"),
        "discern.reducts_by_expansion.self_s": (per_op_self("discern.reducts_by_expansion"), "s/op"),
        "reducers.all_reducts_bruteforce.self_s": (per_op_self("reducers.all_reducts_bruteforce"), "s/op"),
        "reducers.masks_scanned": (masks / n_ops, "count/op"),
        "reducers.reduct_hit_ratio": (ratio(sum(c["found"] for _, c in brute), masks), "ratio"),
        "reducers.ea_reduce.self_s": (per_op_self("reducers.ea_reduce"), "s/op"),
        "reducers.yao_row_wise.self_s": (per_op_self("reducers.yao_row_wise"), "s/op"),
        "reducers.verify_reduct.self_s": (per_op_self("reducers.verify_reduct"), "s/op"),
        "discern.substitute_sets.self_s": (per_op_self("discern.substitute_sets"), "s/op"),
        "discern.containing_sets.calls": (calls["discern.containing_sets"] / n_ops, "count/op"),
        "relations.audit_theorems.self_s": (per_op_self("relations.audit_theorems"), "s/op"),
        "relations.claim_instances": (sum(c["instances"] for _, c in audits) / n_ops, "count/op"),
        "relations.relation_report.self_s": (
            per_op_self("relations.relation_report_from_system", "relations.relation_report_from_family"),
            "s/op",
        ),
        "model.indiscernibility_partition.self_s": (per_op_self("model.indiscernibility_partition"), "s/op"),
        "model.indiscernibility_partition.calls": (calls["model.indiscernibility_partition"] / n_ops, "count/op"),
        "model.load_table.self_s": (per_op_self("model.load_table"), "s/op"),
        "discern.family_from_names.self_s": (per_op_self("discern.family_from_names"), "s/op"),
        "cli.output_bytes": (sum(op["bytes"] for op in ops) / n_ops, "B/op"),
    }
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (own / n_ops, "s/op")
        m[f"{layer}.self_share"] = (ratio(own, busy), "ratio")
    shares = sorted(((k, ratio(v, busy)) for k, v in self_s.items()), key=lambda kv: -kv[1])
    return m, shares


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        setup_s = _setup()
        record = _run_worker(workload, seed, base, seconds, trace)
        ops = _ops_run(workload, seed, record)
        reasons = _check_ops(ops, record)
        attempted = len(reasons)
        failures = [(n, r) for n, r in enumerate(reasons) if r is not None]
        for n, reason in failures[:5]:
            print(f"op {n} ({' '.join(record['ops'][n]['argv'])}) failed: {reason}", file=sys.stderr)
        if trace:
            metrics, shares = layer_metrics(record)
        else:
            metrics, shares = end_to_end_metrics(ops, record, setup_s, attempted, len(failures)), []
        seconds_by_kind = _kinds(ops, [op["latency"] for op in record["ops"]])
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "samples": {k: len(v) for k, v in seconds_by_kind.items()},
            "p50_seconds": {k: statistics.median(v) for k, v in seconds_by_kind.items()},
            "ref_ms": 1000 * statistics.median(op["ref"] for op in record["ops"]),
            "rounds": record["rounds_run"],
            "gen_s": record["gen_s"],
            "shares": shares,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def _print_report(workload: str, trace: bool, result: dict) -> None:
    print(f"# {workload} ({'traced' if trace else 'untraced'}): {result['attempted']} ops in "
          f"{result['rounds']} rounds, {result['failed']} failed; samples per command {result['samples']}")
    print(f"# inputs generated and written in {result['gen_s']:.3f} s, outside every timer")
    print(f"# reference work: median {result['ref_ms']:.3f} ms; wall-clock p50 per command: "
          + ", ".join(f"{k} {v:.4g} s" for k, v in result["p50_seconds"].items()))
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    if result["shares"]:
        print("# largest self-time shares:")
        for name, share in result["shares"][:8]:
            print(f"#   {name:42s} {share:6.1%}")


def _public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reducts" / "cli.py").is_file():
        print(f"run.py: no reducts package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_report(args.workload, bool(args.trace), result)
        print(json.dumps(_public(result)))
        return 0

    summary = {}
    for workload in gen.WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, False)
        traced = run_one(workload, args.seed, args.seconds, True)
        _print_report(workload, False, plain)
        _print_report(workload, True, traced)
        overhead = plain["metrics"]["ops_per_kref"]["value"] / traced["metrics"]["trace.ops_per_kref"]["value"]
        print(f"# {workload}: tracing overhead {overhead:.3f}x (untraced over traced ops_per_kref)")
        summary[workload] = {"untraced": _public(plain), "traced": _public(traced), "tracing_overhead": overhead}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
