import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fam, families, is_refinement
from reducts import characters
from reducts.characters import Character, classify_all
from reducts.discern import (
    Absorption,
    SetFamily,
    absorb,
    containing_sets,
    discernibility_matrix,
    family_from_names,
    reducts_by_expansion,
    substitute_sets,
)
from reducts.errors import InvariantViolation

CORE = Character.CORE
RN = Character.RELATIVE_NECESSARY
UN = Character.UNNECESSARY


@pytest.fixture
def triple_family(triple_reduct):
    return discernibility_matrix(triple_reduct).family


@pytest.fixture
def ladder_family(ladder_family_rows):
    return family_from_names(ladder_family_rows)[0]


class TestRefinementPredicates:
    def test_substitutes_refine_containers_for_a4(self, triple_family):
        e, n = substitute_sets(triple_family, 3), containing_sets(triple_family, 3)
        assert is_refinement(e, n)

    def test_substitutes_do_not_refine_containers_for_a1(self, triple_family):
        e, n = substitute_sets(triple_family, 0), containing_sets(triple_family, 0)
        assert not is_refinement(e, n)

    def test_vacuous_and_identity(self):
        assert is_refinement(fam(), fam())
        f = fam({0, 1}, {2})
        assert is_refinement(f, f)

    def test_one_sided_refinement(self):
        assert not is_refinement(fam({1, 2}), fam({0, 1}))
        assert is_refinement(fam({0}, {9}), fam({0, 1}))


def _evidence(family, a):
    return classify_all(family, family.universe() | {a}).by_attr[a]


def _character(family, a):
    return _evidence(family, a).character


class TestPreciseRefinementWitness:
    """An unnecessary attribute's ``refinements`` evidence: substitutes that
    precisely refine its containing members."""

    def test_present_for_a4(self, triple_family):
        pairs = _evidence(triple_family, 3).refinements
        assert fam(*(m for _, m in pairs)) == fam({0, 1}, {0, 2})

    def test_absent_for_a1(self, triple_family):
        ev = _evidence(triple_family, 0)
        assert ev.refinements is None
        assert ev.blocked_by in containing_sets(triple_family, 0)

    def test_vacuously_present_for_absent_attribute(self, triple_family):
        assert _evidence(triple_family, 9).refinements == ()

    @given(families(), st.integers(0, 4))
    def test_soundness(self, f, a):
        pairs = _evidence(f, a).refinements
        e, n = substitute_sets(f, a), containing_sets(f, a)
        assert (pairs is not None) == is_refinement(e, n)
        if pairs is not None:
            # One substitute per container, inside it: each witness member
            # fits inside a container and each container holds one.
            assert [k for k, _ in pairs] == list(n)
            assert all(m <= k and m in e for k, m in pairs)
            assert not {m for _, m in pairs} & set(n)


class TestClassify:
    """``classify_all`` runs both rules per attribute and raises if they
    split, so one character read back covers both."""

    def test_triple_both_rules(self, triple_family):
        assert _character(triple_family, 0) is RN
        assert _character(triple_family, 1) is RN
        assert _character(triple_family, 2) is RN
        assert _character(triple_family, 3) is UN

    def test_ladder_both_rules(self, ladder_family):
        assert _character(ladder_family, 0) is RN
        assert _character(ladder_family, 1) is RN
        assert _character(ladder_family, 2) is CORE

    def test_absent_attribute_is_unnecessary(self, triple_family):
        assert _character(triple_family, 9) is UN

    @given(families(), st.integers(0, 4))
    def test_rules_agree(self, f, a):
        # Each rule restated from its definition, apart from the classifier.
        by_absorption = a in absorb(f).minimal.universe()
        by_refinement = not is_refinement(
            substitute_sets(f, a), containing_sets(f, a)
        )
        assert by_absorption == by_refinement
        character = _character(f, a)
        assert (character is not UN) == by_absorption
        assert (character is CORE) == (frozenset({a}) in f)

    @given(families(max_attrs=4))
    def test_characters_match_reduct_membership(self, f):
        reducts = reducts_by_expansion(f)
        in_all = frozenset.intersection(*reducts)
        in_some = frozenset().union(*reducts)
        for a in range(5):
            want = CORE if a in in_all else RN if a in in_some else UN
            assert _character(f, a) is want, a

    @given(families(max_attrs=4))
    def test_reduct_union_and_intersection_match_family_views(self, f):
        reducts = reducts_by_expansion(f)
        assert frozenset().union(*reducts) == absorb(f).minimal.universe()
        assert frozenset.intersection(*reducts) == frozenset(
            next(iter(m)) for m in f if len(m) == 1
        )


class TestClassifyAll:
    def test_triple(self, triple_family):
        report = classify_all(triple_family)
        assert report.core == frozenset()
        assert report.relative_necessary == frozenset({0, 1, 2})
        assert report.unnecessary == frozenset({3})
        assert report.character(3) is UN

    def test_ladder(self, ladder_family):
        report = classify_all(ladder_family)
        assert report.core == frozenset({2})
        assert report.relative_necessary == frozenset({0, 1})
        assert report.unnecessary == frozenset()

    def test_empty_family_marks_everything_unnecessary(self):
        report = classify_all(fam(), attrs=frozenset({0, 1}))
        assert report.unnecessary == frozenset({0, 1})

    def test_extra_attributes_are_unnecessary(self, triple_family):
        report = classify_all(triple_family, attrs=frozenset(range(6)))
        assert report.unnecessary == frozenset({3, 4, 5})

    def test_evidence_recheck(self, triple_family, ladder_family):
        for f in (triple_family, ladder_family):
            report = classify_all(f)
            for a, ev in report.by_attr.items():
                n = containing_sets(f, a)
                e = substitute_sets(f, a)
                if ev.character is CORE:
                    assert ev.singleton == frozenset({a})
                    assert ev.singleton in f
                elif ev.character is UN:
                    assert ev.refinements is not None
                    assert [k for k, _ in ev.refinements] == list(n.members)
                    for k, m in ev.refinements:
                        assert m in e and m <= k
                else:
                    assert ev.blocked_by in n
                    assert not any(m <= ev.blocked_by for m in e)

    @given(families(max_attrs=4))
    def test_never_raises_on_real_families(self, f):
        report = classify_all(f, attrs=frozenset(range(5)))
        assert set(report.by_attr) == set(range(5))

    @given(families(), st.integers(0, 5))
    def test_evidence_carries_the_derived_families(self, f, a):
        ev = classify_all(f, f.universe() | {a}).by_attr[a]
        assert ev.containing.members == containing_sets(f, a).members
        assert ev.substitutes.members == substitute_sets(f, a).members


class TestRuleCrossCheck:
    """A fault in either rule's input surfaces as a disagreement."""

    def test_core_attributes_are_cross_checked(self, monkeypatch):
        # An absorption that loses singleton members: the absorbed-family
        # rule no longer sees the core attribute, the refinement rule does.
        def lossy(family):
            kept = absorb(family).minimal
            return Absorption(SetFamily(tuple(m for m in kept if len(m) > 1)), ())

        monkeypatch.setattr(characters, "absorb", lossy)
        with pytest.raises(
            InvariantViolation,
            match="classification rules disagree on attribute 0: unnecessary vs core",
        ):
            classify_all(fam({0}, {1, 2}))

    def test_non_core_attributes_are_cross_checked(self, monkeypatch, triple_family):
        # No substitutes: every containing member is blocked, so the
        # refinement rule calls the unnecessary a4 necessary.
        monkeypatch.setattr(characters, "substitute_sets", lambda f, a: fam())
        with pytest.raises(
            InvariantViolation,
            match="attribute 3: unnecessary vs relative_necessary",
        ):
            classify_all(triple_family)
