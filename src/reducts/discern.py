"""Discernibility matrices and ordered families of attribute sets.

``discernibility_matrix`` finds, for every pair of objects, which
attributes tell them apart.  Its non-empty entries form a ``SetFamily``,
one dict filled in one pass, as is every family derived from one.  Hitting
sets of that family are exactly the consistent attribute sets, and its
minimal hitting sets are the reducts.  The family keeps first-seen member
order because the reduction algorithms walk it in that order, while
equality and hashing ignore order entirely.

Identical rows give identical entries, so the matrix is built by
comparing each pair of distinct rows once.  Those rows are taken in
first-seen order, so the members come out in the order a walk over every
object pair finds them.  The matrix keeps that one pass's entries, one per
pair of distinct rows, and reads every object pair's entry off them one
object row at a time, so nothing per object pair is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import ne
from typing import Iterable, Iterator, Sequence

from .errors import InputError, ResourceLimitError
from .model import AttrSet, InformationSystem, Value

__all__ = [
    "canonical_key",
    "SetFamily",
    "Absorption",
    "DiscernibilityMatrix",
    "discernibility_matrix",
    "containing_sets",
    "substitute_sets",
    "absorb",
    "hits_all",
    "reducts_by_expansion",
    "family_from_names",
]


def canonical_key(s: AttrSet) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering sets by size, then lexicographically by element."""
    return (len(s), tuple(sorted(s)))


class SetFamily:
    """A duplicate-free sequence of non-empty attribute sets, one dict's keys.

    Member order is first appearance and is preserved by every derived
    subfamily, since the row-wise reducer is sensitive to it.  Two families
    with the same members in any order compare equal and hash alike; use
    ``canonical`` when a display order independent of history is wanted.
    """

    def __init__(self, members: Iterable[Iterable[int]]) -> None:
        self._index = dict.fromkeys(map(frozenset, members))
        if frozenset() in self._index:
            raise InputError("empty member in set family")

    @property
    def members(self) -> tuple[AttrSet, ...]:
        return tuple(self._index)

    def __repr__(self) -> str:
        return f"SetFamily({self.members!r})"

    def __iter__(self) -> Iterator[AttrSet]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, s: Iterable[int]) -> bool:
        return frozenset(s) in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self._index.keys() == other._index.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self._index))

    @property
    def canonical(self) -> tuple[AttrSet, ...]:
        return tuple(sorted(self._index, key=canonical_key))

    def universe(self) -> AttrSet:
        return frozenset().union(*self._index)


@dataclass(frozen=True)
class Absorption:
    """Split of a family into its inclusion-minimal members and the rest.

    Every absorbed member is a strict superset of some minimal member, so
    dropping the absorbed part changes no hitting set.
    """

    minimal: SetFamily
    absorbed: tuple[AttrSet, ...]


@dataclass(frozen=True, eq=False)
class DiscernibilityMatrix:
    """A table, the family of attribute sets separating its object pairs,
    and the entries those sets were collected from.

    ``row_ids`` gives each object the index of its row among the distinct
    rows, numbered in first-seen order.  ``cells[p][q - p - 1]`` is the
    entry of distinct rows ``p < q``; equal entries are one shared object.
    """

    system: InformationSystem
    family: SetFamily
    row_ids: tuple[int, ...]
    cells: tuple[tuple[AttrSet, ...], ...]

    def entry_rows(self) -> Iterator[Iterator[AttrSet]]:
        """For each object ``i`` in order, the entries of the pairs
        ``(i, j)``, ``j > i``, in order of ``j``; the last object's is empty.

        Each object pair takes the stored entry of its two distinct rows;
        no rows are compared, and nothing per pair is kept.
        """
        ids, cells = self.row_ids, self.cells
        for i, p in enumerate(ids):
            # Row p's entry against every distinct row, indexed by row id.
            against = [cells[q][p - q - 1] for q in range(p)]
            against.append(frozenset())
            against += cells[p]
            yield map(against.__getitem__, ids[i + 1 :])

    def pairs(self) -> Iterator[tuple[int, int, AttrSet]]:
        """Upper-triangle entries ``(i, j, entry)`` in row-major order, empty
        ones included: ``entry_rows`` with each entry's object pair."""
        for i, row in enumerate(self.entry_rows()):
            yield from zip(repeat(i), count(i + 1), row)


def _compare_pairs(rows: Sequence[Sequence[Value]], attrs: range) -> Iterator[AttrSet]:
    """For each pair ``i < j`` of ``rows`` in row-major order, the
    attributes whose values differ between the two rows."""
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            yield frozenset(compress(attrs, map(ne, row, rows[j])))


def discernibility_matrix(system: InformationSystem) -> DiscernibilityMatrix:
    """Compare each pair of distinct rows once and collect the discerning sets.

    The family holds the non-empty entries in row-major pair order, first
    occurrence only.  A pair involving a repeated row repeats the entry of
    an earlier pair of first occurrences, so the distinct rows, taken in
    first-seen order, give the same members in the same order.  Rows are
    merged by equality, so a cell value must equal itself (a float NaN
    does not).
    """
    ids = {row: p for p, row in enumerate(dict.fromkeys(system.rows))}
    interned: dict[AttrSet, AttrSet] = {}
    entries = iter(
        [interned.setdefault(d, d) for d in _compare_pairs(tuple(ids), range(system.n_attributes))]
    )
    cells = tuple(tuple(islice(entries, len(ids) - p - 1)) for p in range(len(ids)))
    return DiscernibilityMatrix(
        system,
        SetFamily(d for d in interned if d),
        tuple(map(ids.__getitem__, system.rows)),
        cells,
    )


def containing_sets(family: SetFamily, a: int) -> SetFamily:
    """Subfamily of members that contain ``a``, in stored order."""
    return SetFamily(m for m in family if a in m)


def substitute_sets(family: SetFamily, a: int) -> SetFamily:
    """Members avoiding ``a`` that sit inside the union of those containing it.

    Hitting every such member forces a hit on every member containing ``a``
    once ``a`` itself is dropped, which is what makes ``a`` replaceable.
    """
    pool = frozenset().union(*(m for m in family if a in m))
    return SetFamily(m for m in family if a not in m and m <= pool)


def _minimal(sets: Iterable[AttrSet]) -> list[AttrSet]:
    """Inclusion-minimal sets among distinct ``sets``, smallest first.

    A set is kept when no kept set lies strictly inside it; anything that
    could lie inside it is smaller, so it has been seen already.
    """
    kept: list[AttrSet] = []
    for s in sorted(sets, key=len):
        if not any(k < s for k in kept):
            kept.append(s)
    return kept


def absorb(family: SetFamily) -> Absorption:
    """Partition members into inclusion-minimal ones and absorbed supersets.

    Both parts keep the family's member order.
    """
    keep = set(_minimal(family))
    return Absorption(
        SetFamily(m for m in family if m in keep),
        tuple(m for m in family if m not in keep),
    )


def hits_all(attrs: AttrSet, family: SetFamily) -> bool:
    """True when ``attrs`` intersects every member; vacuously true if empty."""
    return all(attrs & m for m in family)


def reducts_by_expansion(family: SetFamily, cap: int = 20) -> list[AttrSet]:
    """All minimal hitting sets, by distributing the family into a disjunction.

    Expands one member at a time and prunes non-minimal partial products
    after each step, so the working set stays an antichain.  Refuses
    families whose universe exceeds ``cap`` attributes.  The empty family
    is hit by the empty set.
    """
    support = family.universe()
    if len(support) > cap:
        raise ResourceLimitError(
            f"family spans {len(support)} attributes, cap is {cap}"
        )
    terms: list[AttrSet] = [frozenset()]
    for clause in absorb(family).minimal:
        terms = _minimal({t | {a} for t in terms for a in clause})
    return sorted(terms, key=canonical_key)


def family_from_names(
    rows: Iterable[Iterable[str]],
) -> tuple[SetFamily, tuple[str, ...]]:
    """Build a family from lists of attribute names.

    Attribute indices follow sorted name order, so the same family always
    gets the same numbering no matter how its members are listed.  Returns
    the family and the index-to-name table.
    """
    as_sets: list[frozenset[str]] = []
    for row in rows:
        row = tuple(row)
        if not all(isinstance(n, str) and n for n in row):
            raise InputError("family members must be non-empty strings")
        if not row:
            raise InputError("empty member in family input")
        as_sets.append(frozenset(row))
    ordered_names = tuple(sorted(frozenset().union(*as_sets))) if as_sets else ()
    index = {name: i for i, name in enumerate(ordered_names)}
    return SetFamily(frozenset(index[n] for n in s) for s in as_sets), ordered_names
