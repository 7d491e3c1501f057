"""The workload process: one closed-loop client calling ``reducts.cli.main``.

Usage: worker.py WORKLOAD SEED OUTDIR SECONDS TRACE

Runs rounds of the workload's ops (gen.py) in order, each invocation only
after the previous one returned, starting new rounds until SECONDS of wall
time have passed.  Each round's input files are generated and written to
OUTDIR/inputs just before the round, outside every timer, and removed after
it.  Calls are in-process: a fresh interpreter plus ``import reducts.cli``
would cost more than most audit-batch ops.  Before each op, outside its
timer, the process times ``reference()``, a fixed piece of pure-Python
work; run.py expresses op latencies in units of it, which cancels the
host's own speed swings.  Each op's standard output is captured and written
to OUTDIR after its timer stops; run.py checks it against the oracle.  With
TRACE=1 every public layer function is wrapped by the span recorder and the
spans are written to OUTDIR/spans.json at the end.  The op records, the
time spent generating inputs and the process's peak RSS go to
OUTDIR/ops.json.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import gen


def reference() -> int:
    """Fixed work resembling the package's inner loops: small frozensets,
    hashing, subset tests.  About a millisecond on a 2.1 GHz core."""
    sets = [frozenset(j for j in range(10) if i >> j & 1) for i in range(1, 160)]
    index = {s: k for k, s in enumerate(sets)}
    hits = 0
    for a in sets[::3]:
        for b in sets:
            if a < b and index[b] > index[a]:
                hits += 1
    return hits


def peak_rss_kib() -> int:
    """Peak resident set size of this process's own address space, in KiB.

    ``ru_maxrss`` is no good here: on Linux a process started by
    fork-and-exec inherits the parent's high-water mark in it, so it would
    read the benchmark driver's memory whenever that is larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    seconds, trace = float(sys.argv[4]), sys.argv[5] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from reducts import cli

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    inputs = os.path.join(outdir, "inputs")
    ops: list[dict] = []
    gen_s = 0.0
    start = time.perf_counter()
    rnd = 0
    while time.perf_counter() - start < seconds:
        g0 = time.perf_counter()
        os.mkdir(inputs)
        argvs = gen.write_inputs(gen.round_ops(workload, seed, rnd), inputs)
        gen_s += time.perf_counter() - g0
        for op_index, argv in enumerate(argvs):
            n = len(ops)
            if recorder is not None:
                recorder.op = n
            out, err = io.StringIO(), io.StringIO()
            gc.collect()
            r0 = time.perf_counter()
            reference()
            ref = time.perf_counter() - r0
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # an op that raises is a failed op, not a failed run
                    code = None
                    error = traceback.format_exc()
                t1 = time.perf_counter()
            text = out.getvalue()
            with open(os.path.join(outdir, f"op{n}.out"), "w", encoding="utf-8") as fh:
                fh.write(text)
            ops.append(
                {
                    "round": rnd,
                    "index": op_index,
                    "argv": argv,
                    "latency": t1 - t0,
                    "ref": ref,
                    "code": code,
                    "stderr": error or err.getvalue(),
                    "bytes": len(text.encode("utf-8")),
                }
            )
        shutil.rmtree(inputs)
        rnd += 1
    peak_kib = peak_rss_kib()
    if recorder is not None:
        recorder.dump(os.path.join(outdir, "spans.json"))
    with open(os.path.join(outdir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "rounds_run": rnd, "gen_s": gen_s, "peak_rss_kib": peak_kib}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
