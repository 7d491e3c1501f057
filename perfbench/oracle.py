"""Reference answers computed from the generated rows, sharing no code with
``reducts``.

Attribute sets are int bitmasks over the table's columns.  Everything here
is brute force over at most 2^11 masks, which is cheap at the benchmark's
sizes, and is written from the definitions: the discernibility family of
all object pairs (Skowron & Rauszer 1992), its inclusion-minimal members,
and its minimal transversals (the reducts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def pair_masks(rows: Sequence[Sequence[str]]) -> list[int]:
    """Discerning-attribute mask of every pair i < j, row-major, zeros kept."""
    return [
        sum(1 << a for a, (x, y) in enumerate(zip(r, s)) if x != y)
        for i, r in enumerate(rows)
        for s in rows[i + 1 :]
    ]


def union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def minimal(masks: list[int]) -> list[int]:
    """The inclusion-minimal members of distinct ``masks``, in their order."""
    # A member is minimal when no smaller minimal member lies inside it;
    # visiting by size means every possible subset was classified first.
    kept: list[int] = []
    for m in sorted(masks, key=lambda m: bin(m).count("1")):
        if not any(k & m == k for k in kept):
            kept.append(m)
    kept_set = set(kept)
    return [m for m in masks if m in kept_set]


def is_minimal_transversal(mask: int, members: list[int]) -> bool:
    """``mask`` meets every member, and no mask with one bit fewer does."""
    return _hits(mask, members) and all(not _hits(mask & ~(1 << b), members) for b in bits(mask))


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass
class Facts:
    """What every subcommand's output must agree with, for one input.

    ``names`` lists the attributes the command reports on: all columns for
    a CSV input, the names occurring in the family for a family input.
    """

    names: tuple[str, ...]
    family: list[int]  # distinct non-empty members
    minimal: list[int]  # inclusion-minimal members
    reducts: set[int]

    def mask_of(self, names) -> int:
        index = {n: i for i, n in enumerate(self.names)}
        return sum(1 << index[n] for n in names)

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.names[i] for i in bits(mask))

    @property
    def core(self) -> int:
        return sum(m for m in self.family if m & (m - 1) == 0)

    @property
    def relative(self) -> int:
        return union(self.minimal) & ~self.core

    def is_reduct(self, mask: int) -> bool:
        return is_minimal_transversal(mask, self.minimal)


def _hits(mask: int, members: list[int]) -> bool:
    return all(mask & m for m in members)


def _facts(names: tuple[str, ...], family: list[int]) -> Facts:
    members = minimal(family)
    reducts = {h for h in range(1 << len(names)) if is_minimal_transversal(h, members)}
    return Facts(names, family, members, reducts)


def first_seen(masks: list[int]) -> list[int]:
    seen: set[int] = set()
    out: list[int] = []
    for m in masks:
        if m and m not in seen:
            seen.add(m)
            out.append(m)
    return out


def distinct_family(rows) -> list[int]:
    """The table's family in no particular order, from distinct rows only."""
    return list(set(pair_masks(list(dict.fromkeys(map(tuple, rows))))) - {0})


def table_facts(attrs: tuple[str, ...], rows) -> Facts:
    return _facts(attrs, distinct_family(rows))


def family_facts(attrs: tuple[str, ...], rows) -> Facts:
    """Facts for the family file of a table: attributes renumbered to the
    names that occur in some member."""
    family = distinct_family(rows)
    keep = bits(union(family))
    names = tuple(attrs[i] for i in keep)
    remap = [sum(1 << k for k, i in enumerate(keep) if m >> i & 1) for m in family]
    return _facts(names, remap)


def refines(rows, a: int, b: int) -> bool:
    """Column ``a`` partitions the objects at least as finely as column ``b``."""
    seen: dict[str, str] = {}
    return all(seen.setdefault(r[a], r[b]) == r[b] for r in rows)


def relations(facts: Facts, rows) -> tuple[set, set, set]:
    """Finer (ordered), equivalent and coupled (unordered) name pairs."""
    n = len(facts.names)
    finer = {
        (facts.names[a], facts.names[b])
        for a in range(n)
        for b in range(n)
        if a != b and refines(rows, a, b)
    }
    equivalent = {
        frozenset((x, y)) for x, y in finer if (y, x) in finer
    }
    coupled = {
        frozenset((facts.names[a], facts.names[b]))
        for a in range(n)
        for b in range(a + 1, n)
        if all(bool(r >> a & 1) == bool(r >> b & 1) for r in facts.reducts)
    }
    return finer, equivalent, coupled
