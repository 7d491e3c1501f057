"""Three-way attribute classification over a discernibility family.

Every attribute is core (in every reduct), relatively necessary (in some
but not all reducts), or unnecessary (in none).  Two rules decide this
without enumerating reducts: membership in the absorbed family's union,
and refinement of the containing sets by the substitute sets.  Both are
implemented; the batch classifier runs both and refuses to answer if they
ever disagree, because a disagreement means a bug, not a judgement call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .discern import SetFamily, absorb, containing_sets, substitute_sets
from .errors import InvariantViolation
from .model import AttrSet

__all__ = [
    "Character",
    "AttributeEvidence",
    "CharacterReport",
    "is_refinement",
    "classify",
    "classify_by_refinement",
    "classify_all",
]


class Character(Enum):
    CORE = "core"
    RELATIVE_NECESSARY = "relative_necessary"
    UNNECESSARY = "unnecessary"


@dataclass(frozen=True)
class AttributeEvidence:
    """Why one attribute got its character.

    Core carries its singleton family member.  Unnecessary carries one
    substitute member inside each containing member, as (container,
    substitute) pairs; those substitutes precisely refine the containing
    members, each lying inside one and each container holding one.
    Relatively necessary carries the first containing member no substitute
    fits into.
    """

    character: Character
    singleton: AttrSet | None = None
    refinements: tuple[tuple[AttrSet, AttrSet], ...] | None = None
    blocked_by: AttrSet | None = None


@dataclass(frozen=True, eq=False)
class CharacterReport:
    """Characters and evidence for a batch of attributes."""

    by_attr: dict[int, AttributeEvidence]

    def character(self, a: int) -> Character:
        return self.by_attr[a].character

    def with_character(self, c: Character) -> AttrSet:
        return frozenset(a for a, ev in self.by_attr.items() if ev.character is c)

    @property
    def core(self) -> AttrSet:
        return self.with_character(Character.CORE)

    @property
    def relative_necessary(self) -> AttrSet:
        return self.with_character(Character.RELATIVE_NECESSARY)

    @property
    def unnecessary(self) -> AttrSet:
        return self.with_character(Character.UNNECESSARY)


def is_refinement(finer: SetFamily, coarser: SetFamily) -> bool:
    """True when every member of ``coarser`` contains some member of ``finer``."""
    return all(any(m <= k for m in finer) for k in coarser)


def _witness_pairs(
    family: SetFamily, a: int
) -> tuple[tuple[tuple[AttrSet, AttrSet], ...], AttrSet | None]:
    """Per containing member, the first substitute inside it.

    Returns the collected (container, substitute) pairs and the first
    container with no substitute, if any.
    """
    substitutes = substitute_sets(family, a)
    pairs: list[tuple[AttrSet, AttrSet]] = []
    for k in containing_sets(family, a):
        m = next((m for m in substitutes if m <= k), None)
        if m is None:
            return tuple(pairs), k
        pairs.append((k, m))
    return tuple(pairs), None


def classify(family: SetFamily, a: int) -> Character:
    """Character of ``a`` from the absorbed family.

    Core when ``{a}`` is a member; relatively necessary when ``a`` appears
    in some inclusion-minimal member; unnecessary otherwise.
    """
    if frozenset({a}) in family:
        return Character.CORE
    if any(a in m for m in absorb(family).minimal):
        return Character.RELATIVE_NECESSARY
    return Character.UNNECESSARY


def classify_by_refinement(family: SetFamily, a: int) -> Character:
    """Character of ``a`` by whether its substitutes refine its containers."""
    if frozenset({a}) in family:
        return Character.CORE
    if is_refinement(substitute_sets(family, a), containing_sets(family, a)):
        return Character.UNNECESSARY
    return Character.RELATIVE_NECESSARY


def classify_all(family: SetFamily, attrs: AttrSet | None = None) -> CharacterReport:
    """Classify every attribute by both rules, with supporting evidence.

    ``attrs`` defaults to the family's universe; pass the full attribute
    set of a table so constant attributes (absent from the family) are
    reported too.  Both classification rules run on every attribute and
    must agree; a mismatch raises rather than picking a side.
    """
    if attrs is None:
        attrs = family.universe()
    report: dict[int, AttributeEvidence] = {}
    for a in sorted(attrs):
        first = classify(family, a)
        second = classify_by_refinement(family, a)
        if first is not second:
            raise InvariantViolation(
                f"classification rules disagree on attribute {a}: "
                f"{first.value} vs {second.value}"
            )
        pairs, blocked = _witness_pairs(family, a)
        if first is Character.CORE:
            ev = AttributeEvidence(first, singleton=frozenset({a}))
        elif first is Character.UNNECESSARY:
            ev = AttributeEvidence(first, refinements=pairs)
        else:
            if blocked is None:
                raise InvariantViolation(
                    f"attribute {a} is relatively necessary but every "
                    "containing member has a substitute"
                )
            ev = AttributeEvidence(first, blocked_by=blocked)
        report[a] = ev
    return CharacterReport(report)
