import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    ALL_CLAIMS,
    PROVEN_CLAIMS,
    fam,
    families,
    padded_transfer_violation,
    random_system,
    systems,
)
from reducts.characters import Character, classify_all
from reducts.discern import discernibility_matrix, family_from_names
from reducts.errors import InvariantViolation, ResourceLimitError
from reducts.model import InformationSystem, Partition
from reducts.reducers import all_reducts_bruteforce
from reducts import relations
from reducts.relations import (
    _Auditor,
    audit_theorems,
    coupled,
    excludes,
    relation_report_from_family,
    relation_report_from_system,
)


def triple_reducts(triple_reduct):
    family = discernibility_matrix(triple_reduct).family
    return all_reducts_bruteforce(family, triple_reduct.all_attrs())


def finer(report, a, b):
    return (a, b) in report.finer_pairs


def equivalent(report, a, b):
    return (min(a, b), max(a, b)) in report.equivalent_pairs


class TestFiner:
    def test_finer_example(self, triple_reduct):
        report = relation_report_from_system(triple_reduct)
        assert finer(report, 0, 3) is True
        assert finer(report, 1, 3) is False
        assert finer(report, 3, 0) is False

    def test_membership_form_on_bare_family(self):
        report = relation_report_from_family(fam({0, 1}, {1}, {1, 2}))
        assert finer(report, 1, 0) is True
        assert finer(report, 0, 1) is False
        assert finer(report, 1, 2) is True

    @given(systems())
    def test_criteria_always_agree(self, system):
        # The table survey raises on any split between its partition and
        # membership criteria, so a clean survey is the assertion.
        relation_report_from_system(system)

    def test_refinement_split_raises(self, triple_reduct, monkeypatch):
        # A partition test that denies every refinement splits from the
        # membership survey on its first finer pair, (a1, a4).
        monkeypatch.setattr(relations, "refines", lambda finer, coarser: False)
        with pytest.raises(InvariantViolation) as err:
            relation_report_from_system(triple_reduct)
        assert str(err.value) == (
            "refinement criteria disagree on (0, 3): "
            "partition False, membership True"
        )


class TestEquivalent:
    def test_duplicate_column_is_equivalent(self):
        system = InformationSystem.from_columns(
            ["p", "q", "r"], [[0, 0, 1], [0, 1, 2], [5, 5, 7]]
        )
        report = relation_report_from_system(system)
        assert equivalent(report, 0, 2) is True
        assert equivalent(report, 0, 1) is False

    def test_no_equivalent_pair_in_example(self, triple_reduct):
        report = relation_report_from_system(triple_reduct)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert not equivalent(report, a, b)

    def test_membership_form_on_bare_family(self):
        report = relation_report_from_family(fam({0, 1, 2}, {0, 1}, {2}))
        assert equivalent(report, 0, 1) is True
        assert equivalent(report, 0, 2) is False

    @given(systems())
    def test_equivalence_matches_mutual_refinement(self, system):
        report = relation_report_from_system(system)
        assert all(a < b for a, b in report.equivalent_pairs)
        for a in range(system.n_attributes):
            for b in range(system.n_attributes):
                if a != b:
                    both = finer(report, a, b) and finer(report, b, a)
                    assert equivalent(report, a, b) == both

    def test_equivalence_split_raises(self, monkeypatch):
        # Partitions that keep every refinement but tell the duplicate
        # columns p and r apart split only the equivalence check.
        system = InformationSystem.from_columns(
            ["p", "q", "r"], [[0, 0, 1], [0, 1, 2], [5, 5, 7]]
        )
        built = relations._attr_partitions

        class Unequal(Partition):
            def __eq__(self, other):
                return False

        def r_split_from_p(system):
            parts = built(system)
            parts[2] = Unequal(parts[2].blocks)
            return parts

        monkeypatch.setattr(relations, "_attr_partitions", r_split_from_p)
        with pytest.raises(InvariantViolation) as err:
            relation_report_from_system(system)
        assert str(err.value) == (
            "equivalence criteria disagree on (0, 2): "
            "equal partitions False, equal members True"
        )


class TestCoupled:
    def test_not_coupled_in_example(self, triple_reduct):
        reducts = triple_reducts(triple_reduct)
        assert coupled(reducts, 0, 1) is False

    def test_two_singletons_are_coupled(self):
        reducts = all_reducts_bruteforce(fam({0}, {1}), frozenset({0, 1}))
        assert reducts == [frozenset({0, 1})]
        assert coupled(reducts, 0, 1) is True

    @given(families())
    def test_coupled_is_an_equivalence(self, family):
        attrs = sorted(family.universe())
        reducts = all_reducts_bruteforce(family, family.universe())
        for a in attrs:
            assert coupled(reducts, a, a)
            for b in attrs:
                assert coupled(reducts, a, b) == coupled(reducts, b, a)
                for c in attrs:
                    if coupled(reducts, a, b) and coupled(reducts, b, c):
                        assert coupled(reducts, a, c)


class TestExcludes:
    def test_exclusion_examples(self, triple_reduct, ladder_system):
        r51 = all_reducts_bruteforce(
            discernibility_matrix(ladder_system).family, ladder_system.all_attrs()
        )
        assert excludes(r51, frozenset({1}), 0) is True
        r41 = triple_reducts(triple_reduct)
        assert excludes(r41, frozenset({0, 1}), 2) is True
        assert excludes(r41, frozenset(), 3) is True
        assert excludes(r41, frozenset(), 0) is False

    @given(families(max_attrs=4))
    def test_excludes_is_monotone(self, family):
        universe = family.universe()
        reducts = all_reducts_bruteforce(family, universe)
        attrs = sorted(universe)
        subsets = [frozenset(s) for s in _powerset(attrs)]
        for c in subsets:
            for a in attrs:
                if not excludes(reducts, c, a):
                    continue
                for sup in subsets:
                    if c <= sup:
                        assert excludes(reducts, sup, a)

    @given(systems(max_objects=6, max_attrs=4))
    def test_characters_match_reduct_membership(self, system):
        family = discernibility_matrix(system).family
        reducts = all_reducts_bruteforce(family, system.all_attrs())
        report = classify_all(family, system.all_attrs())
        for a in range(system.n_attributes):
            count = sum(a in r for r in reducts)
            char = report.character(a)
            if char is Character.CORE:
                assert count == len(reducts)
                assert not excludes(reducts, frozenset(), a)
            elif char is Character.UNNECESSARY:
                assert count == 0
                assert excludes(reducts, frozenset(), a)
            else:
                assert 0 < count < len(reducts)


def _powerset(items):
    from itertools import chain, combinations

    return chain.from_iterable(
        combinations(items, n) for n in range(len(items) + 1)
    )


class TestRelationReport:
    def test_example_survey(self, triple_reduct):
        report = relation_report_from_system(
            triple_reduct, queries=((frozenset({0, 1}), 2), (frozenset(), 3))
        )
        assert report.finer_pairs == ((0, 3),)
        assert report.equivalent_pairs == ()
        assert report.coupled_pairs == ()
        assert report.exclusions == (
            (frozenset({0, 1}), 2, True),
            (frozenset(), 3, True),
        )

    def test_unique_reduct_couples_its_attributes(self, ladder_system):
        report = relation_report_from_system(ladder_system)
        assert report.coupled_pairs == ((1, 2),)
        assert report.finer_pairs == ()

    def test_family_survey(self, ladder_family_rows):
        family, names = family_from_names(ladder_family_rows)
        assert names == ("a1", "a2", "a3")
        report = relation_report_from_family(
            family, queries=((frozenset({1}), 0),)
        )
        assert report.exclusions == ((frozenset({1}), 0, True),)
        assert report.coupled_pairs == ()
        assert report.finer_pairs == ()


class TestAudit:
    def test_example_flags_only_the_escape_condition(self, triple_reduct):
        report = audit_theorems(triple_reduct)
        assert set(report.by_claim()) == ALL_CLAIMS
        flagged = [(d.claim, d.subject) for d in report.disagreements()]
        assert flagged == [("avoiding_escape", "a=a4")]
        row = report.disagreements()[0]
        assert row.lhs is False and row.rhs is True
        assert row.counterexample
        assert not report.all_agree

    def test_example_minimal_escape_rows(self, triple_reduct):
        rows = report_rows(audit_theorems(triple_reduct), "minimal_escape")
        assert len(rows) == 6
        assert all(r.agree for r in rows)

    def test_agreement_rows_carry_no_counterexample(self, triple_reduct):
        for row in audit_theorems(triple_reduct).instances:
            assert (row.counterexample is None) == row.agree

    def test_two_core_table_breaks_coupling_transfers(self, ladder_system):
        report = audit_theorems(ladder_system)
        flagged = {(d.claim, d.subject) for d in report.disagreements()}
        assert flagged == {
            ("avoiding_escape", "a=a1"),
            ("coupled_partition_transfer", "a=a2, b=a3"),
            ("coupled_extension_transfer", "a=a2, b=a3"),
            ("coupled_difference_transfer", "a=a2, b=a3"),
        }
        for d in report.disagreements():
            assert d.counterexample
            if d.claim.startswith("coupled"):
                assert d.lhs is True and d.rhs is False

    def test_exclusion_transfer_fails_on_known_table(self):
        # Four objects engineered so {c} shuts a out of every extending
        # reduct, while D={m} hits a's untouched substitute sets and
        # C∪D={c,m} still misses the member {a,k}.
        system = InformationSystem.from_columns(
            ["a", "c", "k", "m"],
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 2], [0, 0, 2, 1]],
        )
        family = discernibility_matrix(system).family
        reducts = all_reducts_bruteforce(family, system.all_attrs())
        assert reducts == [
            frozenset({0, 3}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ]
        report = audit_theorems(system)
        rows = report_rows(report, "exclusion_extension")
        broken = [r for r in rows if r.subject == "C={c}, a=a"]
        assert len(broken) == 1
        assert broken[0].lhs is True and broken[0].rhs is False
        assert "D=" in broken[0].counterexample

    def test_family_level_claims_all_agree(self, ladder_family_rows):
        # The printed five-member family (which no table realizes) keeps
        # every family-level claim intact, coupling transfers included.
        family, names = family_from_names(ladder_family_rows)
        auditor = _Auditor(family, len(names), names)
        auditor.substitute_claims()
        auditor.avoiding_escape_claims()
        auditor.minimal_escape_claims()
        auditor.coupled_claims()
        auditor.exclusion_extension_claims()
        assert auditor.instances
        assert all(inst.agree for inst in auditor.instances)

    def test_width_cap(self):
        system = InformationSystem.from_columns(
            [f"c{i}" for i in range(11)], [[0, 1]] * 11
        )
        with pytest.raises(ResourceLimitError):
            audit_theorems(system)
        assert audit_theorems(system, max_attrs=11) is not None

    def test_raised_cap_reaches_the_reduct_enumeration(self, monkeypatch):
        caps = []

        class Stop(Exception):
            pass

        def enumerate_reducts(family, universe, cap=20):
            caps.append(cap)
            raise Stop  # the 2^21 scan itself is not run

        monkeypatch.setattr(relations, "all_reducts_bruteforce", enumerate_reducts)
        system = InformationSystem.from_columns(
            [f"c{i}" for i in range(21)], [[0, 1]] * 21
        )
        with pytest.raises(Stop):
            audit_theorems(system, max_attrs=25)
        assert caps == [21]

    @given(systems(max_objects=6, max_attrs=4))
    def test_proven_claims_never_disagree(self, system):
        report = audit_theorems(system)
        for inst in report.instances:
            if inst.claim in PROVEN_CLAIMS:
                assert inst.agree, (inst.claim, inst.subject)
            if not inst.agree:
                assert inst.counterexample


# Claims whose right-hand side is a transfer: some C hits a premise list of
# members while missing one of a conclusion list.
TRANSFER_CLAIMS = frozenset(
    {
        "substitute_transfer",
        "blocked_substitute",
        "coupled_partition_transfer",
        "coupled_extension_transfer",
        "coupled_difference_transfer",
        "exclusion_extension",
    }
)


@st.composite
def padded_transfers(draw):
    """Mask lists over up to 6 attributes, with a pad for each side."""
    n = draw(st.integers(1, 6))
    masks = st.lists(st.integers(1, (1 << n) - 1), max_size=6)
    pads = st.integers(0, (1 << n) - 1)
    return n, draw(masks), draw(masks), draw(pads), draw(pads)


class TestTransferScan:
    @given(padded_transfers())
    def test_folded_pads_match_the_padded_scan(self, case):
        # A pad is folded in by passing only the members it does not hit.
        n, premise, conclusion, premise_extra, conclusion_extra = case
        folded = _Auditor._transfer_violation(
            SimpleNamespace(n=n),
            [p for p in premise if not p & premise_extra],
            [q for q in conclusion if not q & conclusion_extra],
        )
        assert folded == padded_transfer_violation(
            n, premise, conclusion, premise_extra, conclusion_extra
        )

    @given(padded_transfers())
    @example((3, [], [], 0, 0))
    @example((3, [], [5], 0, 0))
    @example((3, [6], [], 0, 0))
    def test_refinement_decides_the_padded_scan(self, case):
        # The audit decides each transfer by refinement and scans only to
        # print a counterexample, so the scan is the oracle for the decision.
        n, premise, conclusion, premise_extra, conclusion_extra = case
        folded = [p for p in premise if not p & premise_extra]
        holds = all(
            relations._covers(folded, q)
            for q in conclusion
            if not q & conclusion_extra
        )
        assert holds == (
            padded_transfer_violation(
                n, premise, conclusion, premise_extra, conclusion_extra
            )
            is None
        )
        # One pad C0 on both sides, as in an exclusion instance: the
        # transfer holds iff C0 hits every uncovered member, computed once
        # without the pad.
        uncovered = [q for q in conclusion if not relations._covers(premise, q)]
        assert all(q & premise_extra for q in uncovered) == (
            padded_transfer_violation(
                n, premise, conclusion, premise_extra, premise_extra
            )
            is None
        )

    def test_scan_runs_only_for_split_transfers(self, monkeypatch):
        scans = []
        scan = _Auditor._transfer_violation

        def counted(self, premise, conclusion):
            scans.append((premise, conclusion))
            return scan(self, premise, conclusion)

        monkeypatch.setattr(_Auditor, "_transfer_violation", counted)
        rng = random.Random(23)
        agreeing = scanned = 0
        for _ in range(40):
            scans.clear()
            report = audit_theorems(random_system(rng, 8, 6))
            split = sum(
                not i.agree for i in report.instances if i.claim in TRANSFER_CLAIMS
            )
            assert len(scans) <= split
            if report.all_agree:
                agreeing += 1
                assert not scans
            scanned += len(scans)
        assert agreeing and scanned

    def test_extension_and_difference_coupling_agree(self):
        # C∪{x} hits N(y) exactly when C hits the members of N(y) lacking x,
        # so the two claims are one test; seeded tables show it splitting
        # from coupling itself.
        rng = random.Random(17)
        split = 0
        for _ in range(60):
            report = audit_theorems(random_system(rng, 8, 6))
            extension = report_rows(report, "coupled_extension_transfer")
            difference = report_rows(report, "coupled_difference_transfer")
            assert [(i.subject, i.lhs, i.rhs) for i in extension] == [
                (i.subject, i.lhs, i.rhs) for i in difference
            ]
            split += sum(not i.agree for i in extension)
        assert split


def report_rows(report, claim):
    return report.by_claim().get(claim, ())
