"""Categorical information systems and partition-based consistency tests.

An information system is a finite table: rows are objects, columns are
attributes, and cell values are opaque symbols compared only for equality.
Every other notion in this package (discernibility, reducts, attribute
characters) is derived from the indiscernibility partitions such a table
induces.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence, TypeAlias

from .errors import InputError

__all__ = [
    "Value",
    "AttrSet",
    "ObjSet",
    "InformationSystem",
    "Partition",
    "indiscernibility_partition",
    "refines",
    "load_table",
    "set_names",
]

Value: TypeAlias = Hashable
AttrSet: TypeAlias = frozenset[int]
ObjSet: TypeAlias = frozenset[int]


@dataclass(frozen=True)
class InformationSystem:
    """A finite table of objects by attributes.

    ``attributes`` are column names, ``rows`` hold one value tuple per
    object, and ``labels`` name the objects for reporting.  Attributes and
    objects are addressed by index internally; names appear only at the
    boundary.
    """

    attributes: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise InputError("an information system needs at least one attribute")
        if not self.rows:
            raise InputError("an information system needs at least one object")
        if "" in self.attributes:
            raise InputError("empty attribute name")
        if len(set(self.attributes)) != len(self.attributes):
            raise InputError("duplicate attribute names")
        if len(self.labels) != len(self.rows):
            raise InputError(
                f"{len(self.rows)} rows but {len(self.labels)} object labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate object labels")
        width = len(self.attributes)
        for label, row in zip(self.labels, self.rows):
            if len(row) != width:
                raise InputError(
                    f"object {label!r} has {len(row)} values, expected {width}"
                )

    @classmethod
    def from_columns(
        cls,
        attributes: Sequence[str],
        columns: Sequence[Sequence[Value]],
        labels: Sequence[str] | None = None,
    ) -> "InformationSystem":
        """Build a system column by column; handy for transcribing tables."""
        if len(columns) != len(attributes):
            raise InputError("one column per attribute required")
        n = len(columns[0]) if columns else 0
        if any(len(col) != n for col in columns):
            raise InputError("columns have unequal lengths")
        rows = tuple(tuple(col[i] for col in columns) for i in range(n))
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        return cls(tuple(attributes), rows, tuple(labels))

    @property
    def n_objects(self) -> int:
        return len(self.rows)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def all_attrs(self) -> AttrSet:
        return frozenset(range(len(self.attributes)))


@dataclass(frozen=True)
class Partition:
    """A partition of object indices, stored in a canonical block order.

    Blocks are sorted by their smallest member, so two partitions with the
    same blocks compare equal regardless of construction order.
    """

    blocks: tuple[ObjSet, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise InputError("empty block in partition")
            if seen & block:
                raise InputError("overlapping blocks in partition")
            seen |= block
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=min)))

    def __iter__(self) -> Iterator[ObjSet]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def indiscernibility_partition(system: InformationSystem, attrs: AttrSet) -> Partition:
    """Group objects that agree on every attribute in ``attrs``.

    The empty attribute set cannot tell any two objects apart, so it yields
    the single-block partition.
    """
    key_attrs = sorted(attrs)
    groups: dict[tuple[Value, ...], list[int]] = {}
    for i, row in enumerate(system.rows):
        groups.setdefault(tuple(row[a] for a in key_attrs), []).append(i)
    return Partition(tuple(frozenset(g) for g in groups.values()))


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every block of ``finer`` sits inside one block of ``coarser``."""
    owner: dict[int, int] = {}
    for idx, block in enumerate(coarser.blocks):
        for obj in block:
            owner[obj] = idx
    for block in finer.blocks:
        owners = {owner[obj] for obj in block}
        if len(owners) != 1:
            return False
    return True


def set_names(attrs: Iterable[int], names: Sequence[str]) -> list[str]:
    """Names of an attribute set in the order every report prints them."""
    return sorted(names[a] for a in attrs)


def load_table(text: str, *, id_col: bool = False) -> InformationSystem:
    """Parse a CSV table: header row of attribute names, one row per object.

    With ``id_col`` the first column holds object labels; otherwise objects
    are numbered from 1 in row order.  Cells are kept as strings, stripped
    of surrounding whitespace.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [[cell.strip() for cell in row] for row in reader if any(c.strip() for c in row)]
    if not rows:
        raise InputError("empty table")
    header, *body = rows
    if not body:
        raise InputError("table has a header but no object rows")
    if id_col:
        if len(header) < 2:
            raise InputError("id column requested but table has a single column")
        attributes = tuple(header[1:])
        labels = tuple(r[0] for r in body)
        data = tuple(tuple(r[1:]) for r in body)
    else:
        attributes = tuple(header)
        labels = tuple(str(i + 1) for i in range(len(body)))
        data = tuple(tuple(r) for r in body)
    return InformationSystem(attributes, data, labels)
