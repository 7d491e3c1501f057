"""Inter-attribute relations and an audit of quantified claims.

Four relations are computed from their definitions: one attribute refining
another, two attributes inducing the same partition, two attributes being
coupled (every reduct takes both or neither), and an attribute set
excluding an attribute from any reduct extending it.  One survey reads
refinement and equivalence off N(a), the members holding each attribute,
built once per attribute; on a table the survey is cross-checked against
the single-attribute partitions, built once as well.  The audit then
measures, on a concrete table, a catalog of equivalence claims connecting
these relations to the containing and substitute families.  Audited
claims are measured, never trusted: each instance records both sides and,
on mismatch, a concrete counterexample.  Every transfer claim asks whether
some C hits every member of a premise list yet misses one of a conclusion
list.  That holds exactly when some conclusion member contains no premise
member, the refinement test E(a) against N(a) that the paper's characters
rest on, so the audit decides each claim by that test.  It scans all 2^m
sets C only to print the first such C, for a claim whose sides split.  A
claim about C padded by a fixed set passes, on the padded side, only the
members the pad misses.
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
    its proposed equivalent, decided on the table: a transfer by the
    refinement lemma, any other claim from its definition.  When the two
    split, ``counterexample`` pins the concrete sets showing it; for a
    transfer that fails, that is the first C of a scan over all 2^m sets.
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


def _covers(premise: list[int], q: int) -> bool:
    """Some ``premise`` mask lies inside the mask ``q``.

    Some C hits every premise mask yet misses q exactly when none does: the
    complement of q is then that C, and a premise mask inside q makes every
    C that hits it hit q as well.  So a transfer from a premise list to a
    conclusion list holds iff every conclusion mask is covered.
    """
    return any(not p & ~q for p in premise)


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
        # The members of N(a) holding no member of E(a): the transfer from
        # E(a) to N(a) fails iff there is one.  A pad C0 drops the members it
        # hits from both lists, and a member of N(a) that C0 misses keeps
        # every E(a) member inside it, since C0 misses those too.  So the
        # padded transfer fails iff C0 misses one of these members.
        self.uncovered = {
            a: [q for q in self.n_masks[a] if not _covers(self.e_masks[a], q)]
            for a in evidence
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

    def record(self, claim: str, subject: str, lhs: bool, rhs: bool, detail) -> None:
        """Store one instance.  ``detail`` takes no arguments and returns the
        counterexample text; it is called only when the two sides split."""
        self.instances.append(
            ClaimInstance(claim, subject, lhs, rhs, detail() if lhs != rhs else None)
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

    def _counterexample(
        self, premise: list[int], conclusion: list[int]
    ) -> tuple[str, str]:
        """The names of the first C the scan finds and of the member it
        misses, for a transfer the refinement lemma has found failing."""
        c, missed = self._transfer_violation(premise, conclusion)
        return self._set_str(c), self._set_str(missed)

    def substitute_claims(self) -> None:
        """Two characters read off one transfer test per attribute.  An
        attribute is unnecessary iff hitting its substitute sets always
        carries over to hitting its containing sets; it is relatively
        necessary iff it is no singleton member and some C hits all its
        substitute sets while missing a containing set."""
        for a in range(self.n):
            transfers = not self.uncovered[a]
            name = self.names[a]
            character = self.characters.character(a)

            def transfer_detail() -> str:
                if transfers:
                    return f"every C transfers, yet {name} is {character.value}"
                c, missed = self._counterexample(self.e_masks[a], self.n_masks[a])
                return f"C={c} hits every substitute set of {name} but misses {missed}"

            def blocked_detail() -> str:
                if transfers:
                    return (
                        f"no C separates the families of {name}, yet it "
                        f"is {character.value}"
                    )
                c, missed = self._counterexample(self.e_masks[a], self.n_masks[a])
                return (
                    f"C={c} hits the substitute sets of {name} and misses "
                    f"{missed}, yet {name} is {character.value}"
                )

            subject = f"a={name}"
            self.record(
                "substitute_transfer",
                subject,
                character is Character.UNNECESSARY,
                transfers,
                transfer_detail,
            )
            self.record(
                "blocked_substitute",
                subject,
                character is Character.RELATIVE_NECESSARY,
                frozenset({a}) not in self.family and not transfers,
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
            character = self.characters.character(a)

            def detail() -> str:
                if offender is not None:
                    return (
                        f"member {self._set_str(offender)} avoids {self.names[a]} "
                        f"but fits inside every containing set"
                    )
                return (
                    f"condition and character split for {self.names[a]}: it is "
                    f"{character.value}"
                )

            self.record(
                "avoiding_escape",
                f"a={self.names[a]}",
                character is Character.RELATIVE_NECESSARY,
                rhs,
                detail,
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
                subject = f"d={self._set_str(d)}, a={self.names[a]}"
                self.record(
                    "minimal_escape",
                    subject,
                    True,
                    rhs,
                    lambda: f"no reduct avoids {self._set_str(rest)}",
                )

    def coupled_claims(self) -> None:
        """Coupling of two attributes equated with three transfer conditions:
        hitting one containing family forces the other, extension by one
        attribute forces the other, and the set-difference variant.  The
        last two are one test worded two ways, since C∪{x} hits N(y) exactly
        when C hits the members of N(y) lacking x, so one test serves both."""
        for a, b in combinations(range(self.n), 2):
            lhs = coupled(self.reducts, a, b)
            subject = f"a={self.names[a]}, b={self.names[b]}"
            plain = self._coupling_split(a, b, lacking=False)
            restricted = self._coupling_split(a, b, lacking=True)
            for claim, split, wording in (
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

                def detail() -> str:
                    if split is None:
                        return (
                            f"transfers hold both ways, yet some reduct "
                            f"separates {self.names[a]} from {self.names[b]}"
                        )
                    x, y, premise = split
                    c, missed = self._counterexample(premise, self.n_masks[x])
                    return wording.format(
                        x=self.names[x], y=self.names[y], c=c, missed=missed
                    )

                self.record(claim, subject, lhs, split is None, detail)

    def _coupling_split(
        self, a: int, b: int, lacking: bool
    ) -> tuple[int, int, list[int]] | None:
        """The first (x, y, premise), trying x = a before x = b, where some C
        hits every member of ``premise`` yet misses a member of N(x); the
        premise is N(y), or only its members lacking x when ``lacking``."""
        for x, y in ((a, b), (b, a)):
            premise = self.n_masks[y]
            if lacking:
                premise = [m for m in premise if not m >> x & 1]
            if not all(_covers(premise, q) for q in self.n_masks[x]):
                return x, y, premise
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
                # C∪D hits a containing set C misses exactly when D does.
                rhs = all(q & c_mask for q in self.uncovered[a])

                def detail() -> str:
                    if rhs:
                        return (
                            f"every D transfers, yet some reduct extends "
                            f"{self._set_str(c)} with {self.names[a]}"
                        )
                    d, missed = self._counterexample(
                        [k for k in self.e_masks[a] if not k & c_mask],
                        [k for k in self.n_masks[a] if not k & c_mask],
                    )
                    return (
                        f"D={d} hits the untouched substitute sets of "
                        f"{self.names[a]}, but C∪D misses {missed}"
                    )

                subject = f"C={self._set_str(c)}, a={self.names[a]}"
                self.record(
                    "exclusion_extension",
                    subject,
                    excludes(self.reducts, c, a),
                    rhs,
                    detail,
                )


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

            def finer_detail() -> str:
                if witness is not None:
                    return (
                        f"member {auditor._set_str(witness)} holds {names[b]} "
                        f"without {names[a]}"
                    )
                return (
                    f"every member holding {names[b]} holds {names[a]}, yet "
                    f"the partitions disagree"
                )

            subject = f"a={names[a]}, b={names[b]}"
            auditor.record(
                "finer_membership", subject, lhs, witness is None, finer_detail
            )
            if lhs:
                cohabit = next(
                    (r for r in auditor.reducts if a in r and b in r), None
                )
                auditor.record(
                    "finer_no_cohabitation",
                    subject,
                    True,
                    cohabit is None,
                    lambda: f"reduct {auditor._set_str(cohabit)} contains both",
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
            lambda: "equal member lists with unequal partitions"
            if rhs
            else "equal partitions with unequal member lists",
        )


def audit_theorems(system: InformationSystem, max_attrs: int = 10) -> AuditReport:
    """Measure every cataloged claim on one table, recording both sides.

    Transfer claims are decided by the refinement lemma, with no
    enumeration of attribute sets.  Three parts still grow with 2^m: the
    scan for a failing transfer's printed counterexample, the brute-force
    reducts, and the exclusion domain of every subset of every reduct; so
    tables wider than ``max_attrs`` are refused.  Disagreements are
    findings, not errors: each carries a concrete counterexample and the
    report never raises because of one.
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
