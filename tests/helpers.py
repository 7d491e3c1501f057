"""Test-only generators and independent partition-based reduct oracles."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

import reducts
from reducts.covering import CoveringSpace
from reducts.discern import SetFamily
from reducts.errors import InputError
from reducts.model import AttrSet, InformationSystem, indiscernibility_partition

# The seeded random table generator is the one ``measure_claims.py`` uses.
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
from measure_claims import random_system  # noqa: E402

# Audited claims whose two sides can be shown to coincide on every table;
# the audit must never find a disagreement for these.
PROVEN_CLAIMS = frozenset(
    {
        "substitute_transfer",
        "blocked_substitute",
        "minimal_escape",
        "finer_membership",
        "equal_neighborhoods",
        "finer_no_cohabitation",
    }
)

# The remaining claims hold on most tables but have known counterexamples;
# the audit measures them instead of assuming them.
MEASURED_CLAIMS = frozenset(
    {
        "avoiding_escape",
        "coupled_partition_transfer",
        "coupled_extension_transfer",
        "coupled_difference_transfer",
        "exclusion_extension",
    }
)

ALL_CLAIMS = PROVEN_CLAIMS | MEASURED_CLAIMS


@st.composite
def systems(draw, max_objects: int = 6, max_attrs: int = 5, max_symbols: int = 3):
    n_attrs = draw(st.integers(1, max_attrs))
    n_objects = draw(st.integers(1, max_objects))
    rows = tuple(
        tuple(draw(st.integers(0, max_symbols - 1)) for _ in range(n_attrs))
        for _ in range(n_objects)
    )
    return InformationSystem(
        tuple(f"a{i + 1}" for i in range(n_attrs)),
        rows,
        tuple(str(i + 1) for i in range(n_objects)),
    )


@st.composite
def families(draw, max_attrs: int = 5, max_members: int = 8):
    n_attrs = draw(st.integers(1, max_attrs))
    members = draw(
        st.lists(
            st.frozensets(st.integers(0, n_attrs - 1), min_size=1, max_size=n_attrs),
            max_size=max_members,
        )
    )
    return SetFamily(tuple(members))


# The directory that holds the imported package, so a child process runs the
# same code as the tests.
PACKAGE_ROOT = Path(reducts.__file__).resolve().parents[1]


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``argv`` with the imported package first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)


def padded_transfer_violation(
    n_attrs: int,
    premise: list[int],
    conclusion: list[int],
    premise_extra: int = 0,
    conclusion_extra: int = 0,
) -> tuple[int, int] | None:
    """The audit's transfer scan with its pads applied to C itself: the first
    C, in numeric order, such that C | ``premise_extra`` hits every
    ``premise`` mask while C | ``conclusion_extra`` misses a ``conclusion``
    mask, with the first mask it misses."""
    for c in range(1 << n_attrs):
        if all((c | premise_extra) & p for p in premise):
            padded = c | conclusion_extra
            missed = [q for q in conclusion if not padded & q]
            if missed:
                return c, missed[0]
    return None


def fam(*sets) -> SetFamily:
    return SetFamily(tuple(frozenset(s) for s in sets))


def is_refinement(finer: SetFamily, coarser: SetFamily) -> bool:
    """True when every member of ``coarser`` contains some member of ``finer``."""
    return all(any(m <= k for m in finer) for k in coarser)


def is_consistent(system: InformationSystem, attrs: AttrSet) -> bool:
    """True when ``attrs`` distinguishes exactly what the full attribute set does."""
    return indiscernibility_partition(system, attrs) == indiscernibility_partition(
        system, system.all_attrs()
    )


def neighborhood(space: CoveringSpace, x: int) -> AttrSet:
    """Intersection of every cover member containing ``x``, straight from the
    definition; the ``covering`` report meets only the minimal ones."""
    if x not in space.ground:
        raise InputError(f"element {x} is outside the ground set")
    return frozenset.intersection(*(k for k in space.cover if x in k))


def is_reduct(system: InformationSystem, attrs: AttrSet) -> bool:
    """A consistent attribute set no single removal leaves consistent.

    Consistency is monotone under adding attributes, so checking one-step
    removals settles minimality over all proper subsets.
    """
    if not is_consistent(system, attrs):
        return False
    return all(not is_consistent(system, attrs - {a}) for a in attrs)


def reducts_by_partitions(system: InformationSystem) -> set[AttrSet]:
    """Enumerate reducts straight from the definition, smallest first.

    Checks consistency of every attribute subset against the full-table
    partition and keeps the minimal consistent ones.  Exponential, fine for
    the small systems used in tests; shares no code with the matrix path.
    """
    universe = sorted(system.all_attrs())
    found: set[AttrSet] = set()
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            cand = frozenset(combo)
            if any(r <= cand for r in found):
                continue
            if is_consistent(system, cand):
                found.add(cand)
    return found
