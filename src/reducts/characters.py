"""Three-way attribute classification over a discernibility family.

Every attribute is core (in every reduct), relatively necessary (in some
but not all reducts), or unnecessary (in none).  Core is a singleton
member.  Two rules decide the rest without enumerating reducts:
membership in the absorbed family's union, and refinement of the
containing sets N(a) by the substitute sets E(a).  Both run inside
``classify_all`` on one absorption of the family and one N(a) and E(a)
per attribute; it refuses to answer if they ever disagree, because a
disagreement means a bug, not a judgement call.
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
    "classify_all",
]


class Character(Enum):
    CORE = "core"
    RELATIVE_NECESSARY = "relative_necessary"
    UNNECESSARY = "unnecessary"


@dataclass(frozen=True)
class AttributeEvidence:
    """Why one attribute got its character.

    ``containing`` is N(a), the members holding the attribute, and
    ``substitutes`` is E(a), the members avoiding it inside the union of
    N(a); both keep the family's member order.  Core carries its singleton
    family member.  Unnecessary carries one substitute member inside each
    containing member, as (container, substitute) pairs; those substitutes
    precisely refine the containing members, each lying inside one and
    each container holding one.  Relatively necessary carries the first
    containing member no substitute fits into.
    """

    character: Character
    containing: SetFamily
    substitutes: SetFamily
    singleton: AttrSet | None = None
    refinements: tuple[tuple[AttrSet, AttrSet], ...] | None = None
    blocked_by: AttrSet | None = None


@dataclass(frozen=True, eq=False)
class CharacterReport:
    """Characters and evidence for a batch of attributes.

    ``minimal`` is the absorbed family, its inclusion-minimal members in
    member order, from the one absorption the classifier runs.
    """

    by_attr: dict[int, AttributeEvidence]
    minimal: SetFamily

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


def _witness_pairs(
    containing: SetFamily, substitutes: SetFamily
) -> tuple[tuple[tuple[AttrSet, AttrSet], ...], AttrSet | None]:
    """Per containing member, the first substitute inside it.

    Returns the collected (container, substitute) pairs and the first
    container with no substitute, if any.
    """
    pairs: list[tuple[AttrSet, AttrSet]] = []
    for k in containing:
        m = next((m for m in substitutes if m <= k), None)
        if m is None:
            return tuple(pairs), k
        pairs.append((k, m))
    return tuple(pairs), None


def classify_all(family: SetFamily, attrs: AttrSet | None = None) -> CharacterReport:
    """Classify every attribute by both rules, with supporting evidence.

    ``attrs`` defaults to the family's universe; pass the full attribute
    set of a table so constant attributes (absent from the family) are
    reported too.  An attribute is necessary by the absorbed-family rule
    when it lies in some inclusion-minimal member, and by the refinement
    rule when some containing member holds no substitute; a necessary
    attribute is core when it is a singleton member.  The two rules must
    agree on every attribute, core included; a mismatch raises rather
    than picking a side.
    """
    if attrs is None:
        attrs = family.universe()
    minimal = absorb(family).minimal
    relevant = minimal.universe()
    report: dict[int, AttributeEvidence] = {}
    for a in sorted(attrs):
        containing = containing_sets(family, a)
        substitutes = substitute_sets(family, a)
        pairs, blocked = _witness_pairs(containing, substitutes)
        singleton = frozenset({a})
        necessary = (
            Character.CORE if singleton in family else Character.RELATIVE_NECESSARY
        )
        by_absorption = necessary if a in relevant else Character.UNNECESSARY
        by_refinement = Character.UNNECESSARY if blocked is None else necessary
        if by_absorption is not by_refinement:
            raise InvariantViolation(
                f"classification rules disagree on attribute {a}: "
                f"{by_absorption.value} vs {by_refinement.value}"
            )
        character = by_absorption
        if character is Character.CORE:
            ev = AttributeEvidence(character, containing, substitutes, singleton=singleton)
        elif character is Character.UNNECESSARY:
            ev = AttributeEvidence(character, containing, substitutes, refinements=pairs)
        else:
            ev = AttributeEvidence(character, containing, substitutes, blocked_by=blocked)
        report[a] = ev
    return CharacterReport(report, minimal)
