"""Outside-in span recorder for the ``reducts`` package.

``install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, op id) and,
for a few functions, work counts read off the arguments and the return
value.  A function is rebound under every name any ``reducts`` module
holds it by, because ``from .discern import absorb`` gives
``characters.absorb`` and ``relations.absorb`` bindings of their own that
patching ``discern.absorb`` alone would miss.  Nothing inside the package
changes.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("model", "discern", "characters", "reducers", "relations", "covering", "cli")

# canonical_key is a sort key called once per element compared; a span per
# call would cost more than the sort it measures.
_SKIP = {"discern.canonical_key"}


def _matrix_counts(args, result) -> dict:
    rows = args["system"].rows
    n, d = len(rows), len(set(rows))
    return {"pairs": n * (n - 1) // 2, "distinct_pairs": d * (d - 1) // 2,
            "family": len(result.family)}


def _absorb_counts(args, result) -> dict:
    return {"key": hash(frozenset(args["family"])), "absorbed": len(result.minimal)}


def _bruteforce_counts(args, result) -> dict:
    used: set = set()
    for member in args["family"]:
        used |= set(member)
    return {"masks": 1 << len(used & set(args["universe"])), "found": len(result)}


def _audit_counts(args, result) -> dict:
    return {"instances": len(result.instances)}


# Work counts taken at the call boundary, from arguments and return value.
_COUNTERS = {
    "discern.discernibility_matrix": _matrix_counts,
    "discern.absorb": _absorb_counts,
    "reducers.all_reducts_bruteforce": _bruteforce_counts,
    "relations.audit_theorems": _audit_counts,
}


class Recorder:
    """Spans of one process, one op at a time, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent, op, counts]
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(recorder: Recorder) -> None:
    """Rebind every public layer function, under every binding, to a wrapper."""
    wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = importlib.import_module(f"reducts.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name not in _SKIP:
                wrappers[id(fn)] = (fn, recorder.wrap(name, fn))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "reducts" and not mod_name.startswith("reducts."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
