import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fam, families, is_reduct, reducts_by_partitions, systems
from reducts.discern import (
    absorb,
    discernibility_matrix,
    family_from_names,
    hits_all,
    reducts_by_expansion,
    substitute_sets,
)
from reducts.errors import ResourceLimitError
from reducts.model import InformationSystem
from reducts.reducers import (
    ReductStatus,
    SelectionPolicy,
    all_reducts_bruteforce,
    ea_reduce,
    verify_reduct,
    yao_row_wise,
)

POLICIES = (SelectionPolicy.FIRST, SelectionPolicy.MAX_FREQUENCY)


@pytest.fixture
def triple_family(triple_reduct):
    return discernibility_matrix(triple_reduct).family


@pytest.fixture
def walkthrough_family(walkthrough_rows):
    return family_from_names(walkthrough_rows)[0]


class TestVerifyReduct:
    def test_valid(self, walkthrough_family):
        check = verify_reduct(walkthrough_family, frozenset({0, 1, 2, 4}))
        assert check.status is ReductStatus.VALID
        assert check.is_valid

    def test_not_minimal_names_highest_removable(self, triple_family):
        check = verify_reduct(triple_family, frozenset({0, 1, 2}))
        assert check.status is ReductStatus.NOT_MINIMAL
        assert check.removable == 2

    def test_not_hitting_names_first_canonical_miss(self, triple_family):
        check = verify_reduct(triple_family, frozenset({3}))
        assert check.status is ReductStatus.NOT_HITTING
        assert check.witness == frozenset({0, 1})

    def test_empty_family(self):
        assert verify_reduct(fam(), frozenset()).is_valid
        check = verify_reduct(fam(), frozenset({0}))
        assert check.status is ReductStatus.NOT_MINIMAL


class TestBruteforceOracle:
    def test_triple(self, triple_family):
        assert all_reducts_bruteforce(triple_family, triple_family.universe()) == [
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]

    def test_ladder(self, ladder_family_rows):
        f, _ = family_from_names(ladder_family_rows)
        assert all_reducts_bruteforce(f, f.universe()) == [
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]

    def test_empty_family(self):
        assert all_reducts_bruteforce(fam(), frozenset()) == [frozenset()]
        assert all_reducts_bruteforce(fam(), frozenset({0, 1})) == [frozenset()]

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            all_reducts_bruteforce(fam({0}), frozenset(range(21)))

    def test_restricted_universe(self):
        f = fam({0, 1}, {1, 2})
        assert all_reducts_bruteforce(f, frozenset({1})) == [frozenset({1})]
        assert all_reducts_bruteforce(f, frozenset({0})) == []

    def test_unused_attributes_never_appear(self):
        f = fam({0, 1})
        results = all_reducts_bruteforce(f, frozenset({0, 1, 7, 8}))
        assert results == [frozenset({0}), frozenset({1})]

    @given(families(max_attrs=5))
    def test_agrees_with_expansion(self, f):
        assert all_reducts_bruteforce(f, f.universe()) == reducts_by_expansion(f)

    @given(systems())
    def test_agrees_with_partition_definition(self, s):
        f = discernibility_matrix(s).family
        assert set(all_reducts_bruteforce(f, s.all_attrs())) == reducts_by_partitions(
            s
        )


class TestYaoRowWise:
    def test_single_entry(self):
        result, trace = yao_row_wise(fam({0, 1}), SelectionPolicy.FIRST)
        assert result == frozenset({0})
        assert trace.steps[0].absorbed == frozenset({0, 1})
        assert trace.steps[0].entries_after == (frozenset({0}),)

    def test_triple_lands_on_an_oracle_reduct(self, triple_family):
        oracle = all_reducts_bruteforce(triple_family, triple_family.universe())
        for policy in POLICIES:
            result, _ = yao_row_wise(triple_family, policy)
            assert result in oracle

    def test_walkthrough_is_valid(self, walkthrough_family):
        for policy in POLICIES:
            result, _ = yao_row_wise(walkthrough_family, policy)
            assert verify_reduct(walkthrough_family, result).is_valid

    def test_absorption_uses_smallest_available_entry(self):
        f = fam({0, 1, 2}, {1, 2}, {2, 3})
        _, trace = yao_row_wise(f, SelectionPolicy.FIRST)
        assert trace.steps[0].absorbed == frozenset({1, 2})

    def test_empty_family(self):
        result, trace = yao_row_wise(fam(), SelectionPolicy.FIRST)
        assert result == frozenset()
        assert trace.steps == ()

    def test_trace_ends_fully_resolved(self, walkthrough_family):
        result, trace = yao_row_wise(walkthrough_family, SelectionPolicy.MAX_FREQUENCY)
        final = trace.steps[-1].entries_after
        assert all(len(e) == 1 for e in final)
        assert frozenset().union(*final) == result

    @given(families(), st.sampled_from(POLICIES))
    def test_always_a_valid_reduct(self, f, policy):
        result, trace = yao_row_wise(f, policy)
        assert verify_reduct(f, result).is_valid
        assert trace.result == trace.before_minimize == result

    @given(families(max_attrs=5), st.sampled_from(POLICIES))
    def test_oracle_membership(self, f, policy):
        result, _ = yao_row_wise(f, policy)
        assert result in all_reducts_bruteforce(f, f.universe())

    @given(families(), st.sampled_from(POLICIES))
    def test_deterministic(self, f, policy):
        assert yao_row_wise(f, policy) == yao_row_wise(f, policy)


class TestRedOfFamily:
    def test_walkthrough_substitutes_of_a(self, walkthrough_family):
        e = substitute_sets(walkthrough_family, 0)
        assert e.members == (
            frozenset({2, 3, 5}),
            frozenset({1, 3}),
            frozenset({1, 2}),
        )
        for policy in POLICIES:
            assert yao_row_wise(e, policy)[0] == frozenset({1, 2})

    def test_triple_substitutes_of_a1(self, triple_family):
        e = substitute_sets(triple_family, 0)
        assert yao_row_wise(e, SelectionPolicy.FIRST)[0] == frozenset({1})

    def test_empty(self):
        for policy in POLICIES:
            assert yao_row_wise(fam(), policy)[0] == frozenset()


class TestEaReduce:
    def test_walkthrough_trace(self, walkthrough_family):
        result, trace = ea_reduce(walkthrough_family, SelectionPolicy.FIRST)
        assert result == frozenset({0, 1, 2, 4})
        first = trace.steps[0]
        assert first.chosen == 0
        assert first.containing.members == (
            frozenset({0, 1, 5}),
            frozenset({0, 2}),
            frozenset({0, 3}),
        )
        assert first.substitutes.members == (
            frozenset({2, 3, 5}),
            frozenset({1, 3}),
            frozenset({1, 2}),
        )
        assert first.inner_reduct == frozenset({1, 2})
        assert first.a_added and first.blocked == frozenset({0, 3})
        assert first.family_after == fam({4})
        second = trace.steps[1]
        assert second.chosen == 4
        assert second.inner_reduct == frozenset()
        assert second.a_added and second.blocked == frozenset({4})
        assert len(second.family_after) == 0
        assert trace.before_minimize == frozenset({0, 1, 2, 4})

    def test_triple(self, triple_family):
        oracle = all_reducts_bruteforce(triple_family, triple_family.universe())
        for policy in POLICIES:
            result, _ = ea_reduce(triple_family, policy)
            assert result in oracle

    def test_single_singleton_member(self):
        for policy in POLICIES:
            result, trace = ea_reduce(fam({0}), policy)
            assert result == frozenset({0})
            assert trace.steps[0].a_added

    def test_empty_family(self):
        result, trace = ea_reduce(fam(), SelectionPolicy.FIRST)
        assert result == frozenset()
        assert trace.steps == ()

    @given(families(), st.sampled_from(POLICIES))
    def test_minimized_output_is_a_valid_reduct(self, f, policy):
        result, trace = ea_reduce(f, policy)
        assert verify_reduct(f, result).is_valid
        assert result <= trace.before_minimize

    @given(families(), st.sampled_from(POLICIES))
    def test_raw_output_hits_the_original_family(self, f, policy):
        _, trace = ea_reduce(f, policy)
        assert hits_all(trace.before_minimize, f)

    @given(families(max_attrs=5), st.sampled_from(POLICIES))
    def test_oracle_membership(self, f, policy):
        result, _ = ea_reduce(f, policy)
        assert result in all_reducts_bruteforce(f, f.universe())

    @given(families(), st.sampled_from(POLICIES))
    def test_absorption_invariance(self, f, policy):
        reduced, _ = ea_reduce(absorb(f).minimal, policy)
        assert verify_reduct(f, reduced).is_valid

    @given(families(), st.sampled_from(POLICIES))
    def test_deterministic(self, f, policy):
        assert ea_reduce(f, policy) == ea_reduce(f, policy)


class TestCrossAlgorithm:
    @given(systems(), st.sampled_from(POLICIES))
    def test_both_algorithms_emit_true_reducts_of_the_table(self, s, policy):
        f = discernibility_matrix(s).family
        for result in (yao_row_wise(f, policy)[0], ea_reduce(f, policy)[0]):
            assert is_reduct(s, result)
