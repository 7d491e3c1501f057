"""Reduct construction: an exhaustive oracle and two fast algorithms.

``all_reducts_bruteforce`` enumerates every minimal hitting set of a
family and anchors all testing.  ``yao_row_wise`` resolves one family
entry at a time into a singleton, absorbing and subtracting as it goes.
``ea_reduce`` works attribute by attribute, covering each attribute's
containing sets through a reduct of its substitute sets.  Both fast paths
emit a full trace of their intermediate states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection

from .discern import (
    SetFamily,
    canonical_key,
    containing_sets,
    hits_all,
    substitute_sets,
)
from .errors import InvariantViolation, ResourceLimitError
from .model import AttrSet

__all__ = [
    "SelectionPolicy",
    "ReductStatus",
    "ReductCheck",
    "RowwiseStep",
    "SubstituteStep",
    "ReductTrace",
    "verify_reduct",
    "all_reducts_bruteforce",
    "yao_row_wise",
    "ea_reduce",
]


class SelectionPolicy(Enum):
    """How an attribute is chosen from a candidate set.

    FIRST takes the lowest index.  MAX_FREQUENCY takes the attribute
    appearing in the most members of the surrounding context family,
    breaking ties by lowest index.
    """

    FIRST = "first"
    MAX_FREQUENCY = "freq"


def _select(policy: SelectionPolicy, candidates: AttrSet, context: Collection[AttrSet]) -> int:
    if not candidates:
        raise InvariantViolation("attribute selection from an empty candidate set")
    if policy is SelectionPolicy.FIRST:
        return min(candidates)
    return max(candidates, key=lambda a: (sum(1 for m in context if a in m), -a))


class ReductStatus(Enum):
    VALID = "valid"
    NOT_HITTING = "not_hitting"
    NOT_MINIMAL = "not_minimal"


@dataclass(frozen=True)
class ReductCheck:
    """Outcome of checking a candidate reduct against a family.

    ``witness`` is the first family member (canonical order) the candidate
    misses; ``removable`` is the highest-index attribute whose removal
    keeps the candidate hitting.
    """

    status: ReductStatus
    witness: AttrSet | None = None
    removable: int | None = None

    @property
    def is_valid(self) -> bool:
        return self.status is ReductStatus.VALID


def verify_reduct(family: SetFamily, candidate: AttrSet) -> ReductCheck:
    """Diagnose whether ``candidate`` is a minimal hitting set of ``family``."""
    missed = (member for member in family if not candidate & member)
    witness = min(missed, key=canonical_key, default=None)
    if witness is not None:
        return ReductCheck(ReductStatus.NOT_HITTING, witness=witness)
    for a in sorted(candidate, reverse=True):
        if hits_all(candidate - {a}, family):
            return ReductCheck(ReductStatus.NOT_MINIMAL, removable=a)
    return ReductCheck(ReductStatus.VALID)


def all_reducts_bruteforce(
    family: SetFamily, universe: AttrSet, cap: int = 20
) -> list[AttrSet]:
    """Every minimal hitting set of ``family`` drawn from ``universe``.

    Enumerates bit masks over the attributes of ``universe`` that actually
    occur in the family; no other attribute can appear in a minimal hitting
    set.  A member disjoint from ``universe`` is unhittable, giving an
    empty result.  The empty family yields the empty set alone.
    """
    if len(universe) > cap:
        raise ResourceLimitError(
            f"universe has {len(universe)} attributes, cap is {cap}"
        )
    support = sorted(universe & family.universe())
    position = {a: i for i, a in enumerate(support)}
    masks: list[int] = []
    for member in family:
        mask = 0
        for a in member:
            if a in position:
                mask |= 1 << position[a]
        if not mask:
            return []
        masks.append(mask)

    found: list[AttrSet] = []
    for h in range(1 << len(support)):
        if all(h & m for m in masks):
            bits = [i for i in range(len(support)) if h >> i & 1]
            if all(any((h ^ (1 << b)) & m == 0 for m in masks) for b in bits):
                found.append(frozenset(support[b] for b in bits))
    return sorted(found, key=canonical_key)


@dataclass(frozen=True)
class RowwiseStep:
    """One resolved entry: which one, what it absorbed to, what was chosen."""

    pivot: int
    absorbed: AttrSet
    chosen: int
    entries_after: tuple[AttrSet, ...]


@dataclass(frozen=True)
class SubstituteStep:
    """One attribute handled by substitute-family recursion."""

    chosen: int
    containing: SetFamily
    substitutes: SetFamily
    inner_reduct: AttrSet
    a_added: bool
    blocked: AttrSet | None
    family_after: SetFamily


@dataclass(frozen=True)
class ReductTrace:
    """Replayable record of a reduction run.

    ``before_minimize`` is the loop output before ``ea``'s final trim; it
    differs from ``result`` exactly when the trim dropped an attribute,
    and ``yao`` has no trim, so there the two are equal.
    """

    algorithm: str
    steps: tuple[RowwiseStep | SubstituteStep, ...]
    result: AttrSet
    before_minimize: AttrSet


def yao_row_wise(
    family: SetFamily, policy: SelectionPolicy
) -> tuple[AttrSet, ReductTrace]:
    """Resolve family entries to singletons one at a time, left to right.

    Each unresolved entry is first replaced by an inclusion-minimal current
    entry inside it, then an attribute is selected from it.  Every other
    entry containing that attribute collapses to the same singleton; the
    rest lose the remainder of the absorbed entry.  Minimality of the
    absorbed entry guarantees the subtraction never empties anything.
    The union of the chosen attributes is a minimal hitting set.
    """
    entries: list[AttrSet] = list(family)
    resolved = [False] * len(entries)
    chosen_attrs: set[int] = set()
    steps: list[RowwiseStep] = []

    for i in range(len(entries)):
        if resolved[i]:
            continue
        subsets = [e for e in entries if e <= entries[i]]
        absorbed = next(e for e in subsets if not any(o < e for o in subsets))
        entries[i] = absorbed
        context = [e for j, e in enumerate(entries) if not resolved[j]]
        a = _select(policy, absorbed, context)
        entries[i] = frozenset({a})
        resolved[i] = True
        chosen_attrs.add(a)
        remainder = absorbed - {a}
        for j, e in enumerate(entries):
            if j == i:
                continue
            if a in e:
                entries[j] = frozenset({a})
                resolved[j] = True
            else:
                entries[j] = e - remainder
                if not entries[j]:
                    raise InvariantViolation(
                        f"entry {j} emptied by subtracting {sorted(remainder)}"
                    )
        steps.append(RowwiseStep(i, absorbed, a, tuple(entries)))

    result = frozenset(chosen_attrs)
    return result, ReductTrace("yao", tuple(steps), result, result)


def ea_reduce(family: SetFamily, policy: SelectionPolicy) -> tuple[AttrSet, ReductTrace]:
    """Build a hitting set attribute by attribute via substitute families.

    Each round picks an attribute from the canonically first member of the
    current family, covers that attribute's containing sets with a reduct
    of its substitute sets (adding the attribute itself only when some
    containing set stays unhit), then discards everything the containing
    sets spanned.  The loop output hits the original family, and the trace
    keeps it as ``before_minimize``; a final pass drops its redundant
    attributes, highest index first, making the result a reduct.
    """
    result: set[int] = set()
    current = family
    steps: list[SubstituteStep] = []

    while len(current):
        first_member = min(current, key=canonical_key)
        a = _select(policy, first_member, current)
        containing = containing_sets(current, a)
        substitutes = substitute_sets(current, a)
        inner = yao_row_wise(substitutes, policy)[0]
        result |= inner
        blocked = next((k for k in containing if not inner & k), None)
        if blocked is not None:
            result.add(a)
        spanned = containing.universe()
        current = SetFamily(filter(None, (m - spanned for m in current)))
        steps.append(
            SubstituteStep(
                chosen=a,
                containing=containing,
                substitutes=substitutes,
                inner_reduct=inner,
                a_added=blocked is not None,
                blocked=blocked,
                family_after=current,
            )
        )

    raw = frozenset(result)
    for a in sorted(raw, reverse=True):
        if hits_all(frozenset(result - {a}), family):
            result.remove(a)
    final = frozenset(result)
    return final, ReductTrace("ea", tuple(steps), final, raw)
