#!/usr/bin/env python3
"""Measure audited-claim disagreement rates over random tables.

Also counts how often the substitute-family loop needs its final trim:
the raw loop output always hits the family, but whether it is already
minimal is a measured property, not an assumed one.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from reducts.discern import discernibility_matrix
from reducts.model import InformationSystem
from reducts.reducers import ReductStatus, SelectionPolicy, ea_reduce, verify_reduct
from reducts.relations import audit_theorems


def random_system(
    rng: random.Random,
    max_objects: int,
    max_attrs: int,
    pool: int | None = None,
    *,
    exact: bool = False,
    symbols: int = 3,
    apart: bool = False,
) -> InformationSystem:
    """A seeded table over ``symbols`` values (ternary by default) with up
    to the given numbers of objects and attributes, or exactly those with
    ``exact``.  With ``pool``, each row is drawn from ``pool`` random rows,
    so most rows repeat.  With ``apart``, a row is drawn again until it
    differs from every earlier row in two attributes or more."""
    n_attrs = max_attrs if exact else rng.randint(1, max_attrs)
    n_objects = max_objects if exact else rng.randint(1, max_objects)

    def row() -> tuple[int, ...]:
        return tuple(rng.randrange(symbols) for _ in range(n_attrs))

    if pool is not None:
        choices = [row() for _ in range(pool)]
        rows = tuple(rng.choice(choices) for _ in range(n_objects))
    elif not apart:
        rows = tuple(row() for _ in range(n_objects))
    else:
        # A row one attribute away from an earlier row leaves, with that
        # attribute deleted, the same rest as it.
        kept: list[tuple[int, ...]] = []
        near: set[tuple[int, tuple[int, ...]]] = set()
        while len(kept) < n_objects:
            drawn = row()
            rests = [(a, drawn[:a] + drawn[a + 1 :]) for a in range(n_attrs)]
            if near.isdisjoint(rests):
                near.update(rests)
                kept.append(drawn)
        rows = tuple(kept)
    return InformationSystem(
        tuple(f"a{i + 1}" for i in range(n_attrs)),
        rows,
        tuple(str(i + 1) for i in range(n_objects)),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--systems", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-objects", type=int, default=8)
    parser.add_argument("--max-attrs", type=int, default=6)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    instances: Counter[str] = Counter()
    disagreements: Counter[str] = Counter()
    raw_status: Counter[str] = Counter()
    sample: dict[str, str] = {}

    for _ in range(args.systems):
        system = random_system(rng, args.max_objects, args.max_attrs)
        report = audit_theorems(system)
        for row in report.instances:
            instances[row.claim] += 1
            if not row.agree:
                disagreements[row.claim] += 1
                sample.setdefault(row.claim, f"{row.subject}: {row.counterexample}")

        family = discernibility_matrix(system).family
        for policy in (SelectionPolicy.FIRST, SelectionPolicy.MAX_FREQUENCY):
            raw = ea_reduce(family, policy)[1].before_minimize
            raw_status[verify_reduct(family, raw).status.value] += 1

    print(f"{args.systems} random tables, seed {args.seed}, "
          f"|U| <= {args.max_objects}, |A| <= {args.max_attrs}")
    print()
    width = max(len(c) for c in instances)
    for claim in sorted(instances):
        bad = disagreements.get(claim, 0)
        rate = f"{bad}/{instances[claim]}"
        print(f"{claim:<{width}}  {rate:>12}  disagreements")
    print()
    if sample:
        print("first counterexample per disagreeing claim:")
        for claim in sorted(sample):
            print(f"  {claim} at {sample[claim]}")
        print()

    total = sum(raw_status.values())
    already = raw_status.get(ReductStatus.VALID.value, 0)
    print(f"untrimmed loop output: {already}/{total} runs already minimal")
    for status, count in sorted(raw_status.items()):
        print(f"  {status}: {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
