"""Inter-attribute relations and an exhaustive audit of quantified claims.

Four relations are computed from their definitions: one attribute refining
another, two attributes inducing the same partition, two attributes being
coupled (every reduct takes both or neither), and an attribute set
excluding an attribute from any reduct extending it.  One survey reads
refinement and equivalence off N(a), the members holding each attribute,
built once per attribute; on a table the survey is cross-checked against
the single-attribute partitions, built once as well.  The audit then
measures, by brute quantifier enumeration on a concrete table, a catalog
of equivalence claims connecting these relations to the containing and
substitute families.  Audited claims are measured, never trusted: each
instance records both sides and, on mismatch, a concrete counterexample.
Every transfer claim is one scan for a C that hits a premise list of
members and misses one of a conclusion list.  A claim about C padded by a
fixed set passes, on the padded side, only the members the pad misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .characters import Character, classify_all
from .discern import SetFamily, canonical_key, containing_sets, discernibility_matrix
from .errors import InvariantViolation, ResourceLimitError
from .model import (
    AttrSet,
    InformationSystem,
    Partition,
    indiscernibility_partition,
    refines,
    set_names,
)
from .reducers import all_reducts_bruteforce

__all__ = [
    "RelationReport",
    "ClaimInstance",
    "AuditReport",
    "coupled",
    "excludes",
    "relation_report_from_system",
    "relation_report_from_family",
    "audit_theorems",
]


def _attr_partitions(system: InformationSystem) -> dict[int, Partition]:
    """The partition each attribute induces on its own."""
    return {
        a: indiscernibility_partition(system, frozenset({a}))
        for a in range(system.n_attributes)
    }


def coupled(reducts: list[AttrSet], a: int, b: int) -> bool:
    """Every reduct contains both attributes or neither."""
    return all((a in r) == (b in r) for r in reducts)


def excludes(reducts: list[AttrSet], c: AttrSet, a: int) -> bool:
    """No reduct extends ``c`` while also containing ``a``."""
    return not any(c <= r and a in r for r in reducts)


@dataclass(frozen=True)
class RelationReport:
    """Pairwise relation survey over one family's attributes.

    ``finer_pairs`` holds ordered distinct pairs (a, b) with a refining b;
    ``equivalent_pairs`` and ``coupled_pairs`` hold unordered distinct
    pairs as (low, high); ``exclusions`` holds each queried (c, a) with
    its verdict.
    """

    finer_pairs: tuple[tuple[int, int], ...]
    equivalent_pairs: tuple[tuple[int, int], ...]
    coupled_pairs: tuple[tuple[int, int], ...]
    exclusions: tuple[tuple[AttrSet, int, bool], ...]


def relation_report_from_family(
    family: SetFamily,
    attrs: AttrSet | None = None,
    queries: tuple[tuple[AttrSet, int], ...] = (),
) -> RelationReport:
    """Survey relations on a family through the members holding each attribute.

    N(a), the members containing ``a``, is built once per attribute: a
    refines b when every member of N(b) holds a, and a and b are
    equivalent when N(a) and N(b) are the same members.  An attribute in
    no member has an empty N(a), so every attribute refines it.
    """
    if attrs is None:
        attrs = family.universe()
    order = sorted(attrs)
    n = {a: containing_sets(family, a) for a in order}
    reducts = all_reducts_bruteforce(family, frozenset(attrs))
    finer_pairs = tuple(
        (a, b)
        for a in order
        for b in order
        if a != b and all(a in k for k in n[b])
    )
    pairs = list(combinations(order, 2))
    return RelationReport(
        finer_pairs,
        tuple((a, b) for a, b in pairs if n[a] == n[b]),
        tuple((a, b) for a, b in pairs if coupled(reducts, a, b)),
        tuple((c, a, excludes(reducts, c, a)) for c, a in queries),
    )


def relation_report_from_system(
    system: InformationSystem,
    queries: tuple[tuple[AttrSet, int], ...] = (),
) -> RelationReport:
    """Survey all relations on a table, cross-checked against partitions.

    The survey is the family survey over every attribute of the table.
    Each attribute's partition is built once, and every ordered pair's
    refinement and every unordered pair's equality of partitions must
    match the survey's membership verdicts; a split raises, because the
    two criteria read the same fact.
    """
    family = discernibility_matrix(system).family
    report = relation_report_from_family(family, system.all_attrs(), queries)
    parts = _attr_partitions(system)
    finer = set(report.finer_pairs)
    for a in parts:
        for b in parts:
            if a == b:
                continue
            by_partition = refines(parts[a], parts[b])
            by_membership = (a, b) in finer
            if by_partition != by_membership:
                raise InvariantViolation(
                    f"refinement criteria disagree on ({a}, {b}): "
                    f"partition {by_partition}, membership {by_membership}"
                )
    equivalent = set(report.equivalent_pairs)
    for a, b in combinations(parts, 2):
        by_partition = parts[a] == parts[b]
        by_membership = (a, b) in equivalent
        if by_partition != by_membership:
            raise InvariantViolation(
                f"equivalence criteria disagree on ({a}, {b}): "
                f"equal partitions {by_partition}, equal members {by_membership}"
            )
    return report


@dataclass(frozen=True)
class ClaimInstance:
    """One measured instance of a quantified claim.

    ``lhs`` is the relation or character the claim talks about; ``rhs`` is
    its proposed equivalent, evaluated by exhaustive enumeration.  When the
    two split, ``counterexample`` pins the concrete sets showing it.
    """

    claim: str
    subject: str
    lhs: bool
    rhs: bool
    counterexample: str | None = None

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True, eq=False)
class AuditReport:
    """All measured claim instances for one table."""

    attributes: tuple[str, ...]
    instances: tuple[ClaimInstance, ...]

    def disagreements(self) -> tuple[ClaimInstance, ...]:
        return tuple(i for i in self.instances if not i.agree)

    def by_claim(self) -> dict[str, tuple[ClaimInstance, ...]]:
        grouped: dict[str, list[ClaimInstance]] = {}
        for inst in self.instances:
            grouped.setdefault(inst.claim, []).append(inst)
        return {claim: tuple(rows) for claim, rows in grouped.items()}

    @property
    def all_agree(self) -> bool:
        return not self.disagreements()


class _Auditor:
    """Shared state for one audit run: masks, characters, oracle reducts."""

    def __init__(
        self, family: SetFamily, n_attrs: int, names: tuple[str, ...]
    ) -> None:
        self.family = family
        self.n = n_attrs
        self.names = names
        self.universe = frozenset(range(n_attrs))
        self.member_masks = [self._mask(m) for m in family]
        self.characters = classify_all(family, self.universe)
        evidence = self.characters.by_attr
        self.n_masks = {
            a: [self._mask(k) for k in ev.containing] for a, ev in evidence.items()
        }
        self.e_masks = {
            a: [self._mask(k) for k in ev.substitutes] for a, ev in evidence.items()
        }
        # The audit has checked the width against its own cap.
        self.reducts = all_reducts_bruteforce(family, self.universe, cap=self.n)
        self.instances: list[ClaimInstance] = []

    @staticmethod
    def _mask(s: AttrSet) -> int:
        return sum(1 << i for i in s)

    def _set_str(self, mask_or_set) -> str:
        """Names of an attribute set or bit mask, braced."""
        attrs = mask_or_set
        if isinstance(mask_or_set, int):
            attrs = [i for i in range(self.n) if mask_or_set >> i & 1]
        return "{" + ", ".join(set_names(attrs, self.names)) + "}"

    def record(
        self, claim: str, subject: str, lhs: bool, rhs: bool, detail: str | None
    ) -> None:
        self.instances.append(
            ClaimInstance(claim, subject, lhs, rhs, detail if lhs != rhs else None)
        )

    def _transfer_violation(
        self, premise: list[int], conclusion: list[int]
    ) -> tuple[int, int] | None:
        """First C, in numeric order, that hits every ``premise`` mask yet
        misses a ``conclusion`` mask, with the first mask it misses.

        A test about C padded by a fixed set C0 passes, for the padded side,
        only the members C0 does not hit: C ∪ C0 hits a list exactly when C
        hits those members, and the first member C ∪ C0 misses is the first
        of them that C misses.
        """
        for c in range(1 << self.n):
            if all(c & p for p in premise):
                missed = next((q for q in conclusion if not c & q), None)
                if missed is not None:
                    return c, missed
        return None

    def substitute_claims(self) -> None:
        """Two characters read off one transfer test per attribute.  An
        attribute is unnecessary iff hitting its substitute sets always
        carries over to hitting its containing sets; it is relatively
        necessary iff it is no singleton member and some C hits all its
        substitute sets while missing a containing set."""
        for a in range(self.n):
            violation = self._transfer_violation(self.e_masks[a], self.n_masks[a])
            name = self.names[a]
            character = self.characters.character(a)
            if violation is not None:
                c, missed = violation
                transfer_detail = (
                    f"C={self._set_str(c)} hits every substitute set of "
                    f"{name} but misses {self._set_str(missed)}"
                )
                blocked_detail = (
                    f"C={self._set_str(c)} hits the substitute sets of "
                    f"{name} and misses {self._set_str(missed)}, "
                    f"yet {name} is {character.value}"
                )
            else:
                transfer_detail = (
                    f"every C transfers, yet {name} is {character.value}"
                )
                blocked_detail = (
                    f"no C separates the families of {name}, yet it "
                    f"is {character.value}"
                )
            subject = f"a={name}"
            self.record(
                "substitute_transfer",
                subject,
                character is Character.UNNECESSARY,
                violation is None,
                transfer_detail,
            )
            self.record(
                "blocked_substitute",
                subject,
                character is Character.RELATIVE_NECESSARY,
                frozenset({a}) not in self.family and violation is not None,
                blocked_detail,
            )

    def avoiding_escape_claims(self) -> None:
        """An attribute is relatively necessary iff it is no singleton member
        and every family member avoiding it escapes some containing set."""
        for a in range(self.n):
            a_bit = 1 << a
            offender = None
            for d, d_mask in zip(self.family, self.member_masks):
                if d_mask & a_bit:
                    continue
                if not any(d_mask & ~k for k in self.n_masks[a]):
                    offender = d
                    break
            rhs = frozenset({a}) not in self.family and offender is None
            lhs = (
                self.characters.character(a) is Character.RELATIVE_NECESSARY
            )
            if offender is not None:
                detail = (
                    f"member {self._set_str(offender)} avoids {self.names[a]} "
                    f"but fits inside every containing set"
                )
            else:
                detail = (
                    f"condition and character split for {self.names[a]}: it is "
                    f"{self.characters.character(a).value}"
                )
            self.record(
                "avoiding_escape", f"a={self.names[a]}", lhs, rhs, detail
            )

    def minimal_escape_claims(self) -> None:
        """For every multi-attribute minimal member, dropping one attribute
        leaves a set some reduct avoids entirely."""
        for d in self.characters.minimal:
            if len(d) < 2:
                continue
            for a in sorted(d):
                rest = d - {a}
                rhs = any(not rest & b for b in self.reducts)
                detail = f"no reduct avoids {self._set_str(rest)}"
                subject = f"d={self._set_str(d)}, a={self.names[a]}"
                self.record("minimal_escape", subject, True, rhs, detail)

    def coupled_claims(self) -> None:
        """Coupling of two attributes equated with three transfer conditions:
        hitting one containing family forces the other, extension by one
        attribute forces the other, and the set-difference variant.  The
        last two are one test worded two ways, since C∪{x} hits N(y) exactly
        when C hits the members of N(y) lacking x, so one scan serves both."""
        for a, b in combinations(range(self.n), 2):
            lhs = coupled(self.reducts, a, b)
            subject = f"a={self.names[a]}, b={self.names[b]}"
            fallback = (
                f"transfers hold both ways, yet some reduct separates "
                f"{self.names[a]} from {self.names[b]}"
            )
            plain = self._coupling_violation(a, b, lacking=False)
            restricted = self._coupling_violation(a, b, lacking=True)
            for claim, violation, wording in (
                (
                    "coupled_partition_transfer",
                    plain,
                    "C={c}: C hits every containing set of {y}, "
                    "but C misses {missed} containing {x}",
                ),
                (
                    "coupled_extension_transfer",
                    restricted,
                    "C={c}: C∪{{{x}}} hits every containing set of {y}, "
                    "but C misses {missed} containing {x}",
                ),
                (
                    "coupled_difference_transfer",
                    restricted,
                    "C={c} hits every containing set of {y} lacking {x}, "
                    "but misses {missed}",
                ),
            ):
                detail = fallback
                if violation is not None:
                    x, y, c, missed = violation
                    detail = wording.format(
                        x=self.names[x],
                        y=self.names[y],
                        c=self._set_str(c),
                        missed=self._set_str(missed),
                    )
                self.record(claim, subject, lhs, violation is None, detail)

    def _coupling_violation(
        self, a: int, b: int, lacking: bool
    ) -> tuple[int, int, int, int] | None:
        """The first (x, y, C, missed), trying x = a before x = b, where C
        hits every member of N(y), or only those lacking x when ``lacking``,
        yet misses the member ``missed`` of N(x)."""
        for x, y in ((a, b), (b, a)):
            premise = self.n_masks[y]
            if lacking:
                premise = [m for m in premise if not m >> x & 1]
            hit = self._transfer_violation(premise, self.n_masks[x])
            if hit is not None:
                return x, y, *hit
        return None

    def exclusion_extension_claims(self) -> None:
        """Exclusion of an attribute by a reduct-extendable set equated with
        a transfer: any D hitting the attribute's substitute sets that the
        set does not already touch makes the union hit its containing sets."""
        c_domain = {
            frozenset(combo)
            for r in self.reducts
            for size in range(len(r) + 1)
            for combo in combinations(r, size)
        }
        for c in sorted(c_domain, key=canonical_key):
            c_mask = self._mask(c)
            for a in range(self.n):
                if a in c:
                    continue
                lhs = excludes(self.reducts, c, a)
                # C∪D hits a containing set C misses exactly when D does.
                violation = self._transfer_violation(
                    [k for k in self.e_masks[a] if not k & c_mask],
                    [k for k in self.n_masks[a] if not k & c_mask],
                )
                rhs = violation is None
                if violation is not None:
                    d, missed = violation
                    detail = (
                        f"D={self._set_str(d)} hits the untouched substitute "
                        f"sets of {self.names[a]}, but C∪D misses "
                        f"{self._set_str(missed)}"
                    )
                else:
                    detail = (
                        f"every D transfers, yet some reduct extends "
                        f"{self._set_str(c)} with {self.names[a]}"
                    )
                subject = f"C={self._set_str(c)}, a={self.names[a]}"
                self.record("exclusion_extension", subject, lhs, rhs, detail)


def _partition_claims(
    system: InformationSystem, auditor: _Auditor
) -> None:
    """Refinement and equivalence of partitions equated with the membership
    criteria, plus: a strictly finer attribute shares no reduct with the
    attribute it refines."""
    names = system.attributes
    n = system.n_attributes
    parts = _attr_partitions(system)
    evidence = auditor.characters.by_attr
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            lhs = refines(parts[a], parts[b])
            witness = next((k for k in evidence[b].containing if a not in k), None)
            rhs = witness is None
            detail = (
                f"member {auditor._set_str(witness)} holds {names[b]} without "
                f"{names[a]}"
                if witness is not None
                else f"every member holding {names[b]} holds {names[a]}, yet "
                f"the partitions disagree"
            )
            subject = f"a={names[a]}, b={names[b]}"
            auditor.record("finer_membership", subject, lhs, rhs, detail)
            if lhs:
                cohabit = next(
                    (r for r in auditor.reducts if a in r and b in r), None
                )
                auditor.record(
                    "finer_no_cohabitation",
                    subject,
                    True,
                    cohabit is None,
                    f"reduct {auditor._set_str(cohabit or frozenset())} "
                    f"contains both",
                )
    for a, b in combinations(range(n), 2):
        lhs = parts[a] == parts[b]
        rhs = evidence[a].containing == evidence[b].containing
        subject = f"a={names[a]}, b={names[b]}"
        auditor.record(
            "equal_neighborhoods",
            subject,
            lhs,
            rhs,
            "equal member lists with unequal partitions"
            if rhs and not lhs
            else "equal partitions with unequal member lists",
        )


def audit_theorems(system: InformationSystem, max_attrs: int = 10) -> AuditReport:
    """Measure every cataloged claim on one table, recording both sides.

    Quantifiers over attribute sets are evaluated by enumerating all
    subsets of the attribute universe, so tables wider than ``max_attrs``
    are refused.  Disagreements are findings, not errors: each carries a
    concrete counterexample and the report never raises because of one.
    """
    if system.n_attributes > max_attrs:
        raise ResourceLimitError(
            f"{system.n_attributes} attributes exceed the audit cap of {max_attrs}"
        )
    family = discernibility_matrix(system).family
    auditor = _Auditor(family, system.n_attributes, system.attributes)
    auditor.substitute_claims()
    auditor.avoiding_escape_claims()
    auditor.minimal_escape_claims()
    auditor.coupled_claims()
    auditor.exclusion_extension_claims()
    _partition_claims(system, auditor)
    return AuditReport(system.attributes, tuple(auditor.instances))
