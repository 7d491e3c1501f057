import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fam, families, reducts_by_partitions, systems
from reducts.discern import (
    SetFamily,
    absorb,
    canonical_key,
    containing_sets,
    discernibility_matrix,
    family_from_names,
    hits_all,
    reducts_by_expansion,
    substitute_sets,
)
from reducts.errors import InputError, ResourceLimitError
from reducts.model import InformationSystem


class TestSetFamily:
    def test_preserves_first_seen_order(self):
        f = fam({2, 0}, {1}, {0, 2}, {1}, {0})
        assert f.members == (frozenset({0, 2}), frozenset({1}), frozenset({0}))

    def test_rejects_empty_member(self):
        with pytest.raises(InputError):
            fam({0}, set())

    def test_equality_ignores_order(self):
        assert fam({0}, {1, 2}) == fam({1, 2}, {0})
        assert hash(fam({0}, {1, 2})) == hash(fam({2, 1}, {0}))
        assert fam({0}) != fam({1})

    def test_canonical_sorts_by_size_then_elements(self):
        f = fam({1, 2}, {3}, {0, 1}, {0})
        assert tuple(sorted(f, key=canonical_key)) == (
            frozenset({0}),
            frozenset({3}),
            frozenset({0, 1}),
            frozenset({1, 2}),
        )

    def test_membership_and_universe(self):
        f = fam({0, 2}, {1})
        assert {2, 0} in f
        assert {0} not in f
        assert f.universe() == frozenset({0, 1, 2})
        assert fam().universe() == frozenset()

    @given(
        st.lists(
            st.lists(st.integers(0, 4), max_size=4) | st.frozensets(st.integers(0, 4), max_size=4),
            max_size=10,
        ),
        st.booleans(),
    )
    def test_matches_a_first_seen_reference(self, raw, one_shot):
        first_seen: list[frozenset[int]] = []
        for member in raw:
            if frozenset(member) not in first_seen:
                first_seen.append(frozenset(member))
        source = iter(raw) if one_shot else raw
        if frozenset() in first_seen:
            with pytest.raises(InputError):
                SetFamily(source)
            return
        f = SetFamily(source)
        assert f.members == tuple(first_seen)
        assert list(f) == first_seen
        assert len(f) == len(first_seen)
        for size in range(6):
            for k in combinations(range(5), size):
                assert (k in f) == (frozenset(k) in first_seen)
        backwards = SetFamily(reversed(first_seen))
        assert f == backwards
        assert hash(f) == hash(backwards)
        if first_seen:
            assert f != SetFamily(first_seen[1:])

    def test_canonical_key(self):
        assert canonical_key(frozenset({2, 0})) == (2, (0, 2))
        assert sorted(
            [frozenset({1}), frozenset({0, 1}), frozenset({0})], key=canonical_key
        ) == [frozenset({0}), frozenset({1}), frozenset({0, 1})]


def _all_pairs(s):
    """Every object pair in row-major order with its discerning attributes."""
    n, attrs = s.n_objects, range(s.n_attributes)
    return [
        (i, j, frozenset(a for a in attrs if s.rows[i][a] != s.rows[j][a]))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def _first_seen_entries(pairs):
    first_seen = []
    for _, _, entry in pairs:
        if entry and entry not in first_seen:
            first_seen.append(entry)
    return tuple(first_seen)


class TestMatrix:
    def test_triple_entries(self, triple_reduct):
        m = discernibility_matrix(triple_reduct)
        want = {
            (0, 1): set(),
            (0, 2): {0, 2},
            (0, 3): {0, 1},
            (0, 4): {0, 1, 2, 3},
            (1, 2): {0, 2},
            (1, 3): {0, 1},
            (1, 4): {0, 1, 2, 3},
            (2, 3): {1, 2},
            (2, 4): {0, 1, 3},
            (3, 4): {0, 2, 3},
        }
        entries = {(i, j): entry for i, j, entry in m.pairs()}
        for (i, j), entry in want.items():
            assert entries[i, j] == frozenset(entry), (i, j)
        assert list(m.pairs())[0] == (0, 1, frozenset())

    def test_triple_family_order(self, triple_reduct):
        f = discernibility_matrix(triple_reduct).family
        assert f.members == (
            frozenset({0, 2}),
            frozenset({0, 1}),
            frozenset({0, 1, 2, 3}),
            frozenset({1, 2}),
            frozenset({0, 1, 3}),
            frozenset({0, 2, 3}),
        )

    def test_ladder_system_matrix(self, ladder_system):
        m = discernibility_matrix(ladder_system)
        entries = {(i, j): entry for i, j, entry in m.pairs()}
        assert entries[0, 1] == frozenset({2})
        assert entries[0, 2] == frozenset({1})
        assert entries[0, 4] == frozenset({0, 1, 2})
        assert entries[3, 4] == frozenset()
        assert m.family.members == (
            frozenset({2}),
            frozenset({1}),
            frozenset({0, 1, 2}),
            frozenset({1, 2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
        )

    def test_single_object_has_empty_family(self):
        s = InformationSystem(("a",), ((0,),), ("1",))
        m = discernibility_matrix(s)
        assert len(m.family) == 0
        assert list(m.pairs()) == []

    @given(systems())
    def test_pairs_and_family_match_the_definition(self, s):
        m = discernibility_matrix(s)
        want = _all_pairs(s)
        assert list(m.pairs()) == want
        assert m.family.members == _first_seen_entries(want)

    @given(systems(max_objects=24, max_attrs=3, max_symbols=2))
    def test_repeated_rows_keep_the_all_pairs_order(self, s):
        m = discernibility_matrix(s)
        assert list(m.pairs()) == _all_pairs(s)
        assert m.family.members == _first_seen_entries(_all_pairs(s))

    def test_identical_rows_have_empty_family(self):
        s = InformationSystem(("a", "b"), (("x", "y"),) * 5, tuple("12345"))
        m = discernibility_matrix(s)
        assert len(m.family) == 0
        assert list(m.pairs()) == [(i, j, frozenset()) for i, j, _ in _all_pairs(s)]

    @pytest.mark.parametrize(
        "order",
        [(0, 0, 0, 1, 2, 3), (0, 1, 0, 2, 1, 3, 2, 0), (3, 3, 1, 3, 0, 2, 1)],
        ids=["duplicates-first", "interleaved", "unsorted-first-seen"],
    )
    def test_repeated_rows_keep_member_order(self, order):
        base = ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (2, 1, 1, 1))
        s = InformationSystem(
            ("a1", "a2", "a3", "a4"),
            tuple(base[k] for k in order),
            tuple(str(i) for i in range(len(order))),
        )
        m = discernibility_matrix(s)
        assert list(m.pairs()) == _all_pairs(s)
        assert m.family.members == _first_seen_entries(_all_pairs(s))

    def test_cells_are_the_only_copy_of_the_entries(self):
        """The cells hold one reference per pair of distinct rows, filled
        as the rows are compared; the traced peak stays under two per
        pair, which a flat list of every entry beside the cells passes."""
        rng = random.Random(5)
        rows = tuple(tuple(rng.randrange(3) for _ in range(10)) for _ in range(600))
        s = InformationSystem(tuple(f"a{i}" for i in range(10)), rows, tuple(map(str, range(600))))
        tracemalloc.start()
        try:
            m = discernibility_matrix(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = len(set(rows))
        pairs = distinct * (distinct - 1) // 2
        assert sum(map(len, m.cells)) == pairs
        assert peak < 2 * 8 * pairs, (peak, pairs)

    def test_constant_attribute_never_appears(self):
        s = InformationSystem.from_columns(["a", "b"], [[0, 0, 0], [0, 1, 2]])
        f = discernibility_matrix(s).family
        assert all(0 not in member for member in f)


class TestContainingAndSubstitutes:
    def test_triple_a1(self, triple_reduct):
        f = discernibility_matrix(triple_reduct).family
        n = containing_sets(f, 0)
        assert len(n) == 5
        assert frozenset({1, 2}) not in n
        assert substitute_sets(f, 0).members == (frozenset({1, 2}),)

    def test_triple_a4(self, triple_reduct):
        f = discernibility_matrix(triple_reduct).family
        n = containing_sets(f, 3)
        assert n.members == (
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1, 3}),
            frozenset({0, 2, 3}),
        )
        e = substitute_sets(f, 3)
        assert tuple(sorted(e, key=canonical_key)) == (
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        )

    def test_ladder_family(self, ladder_family_rows):
        f, names = family_from_names(ladder_family_rows)
        assert names == ("a1", "a2", "a3")
        assert f.members == (
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
        )
        assert containing_sets(f, 0).members == (
            frozenset({0, 1, 2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
        )
        assert substitute_sets(f, 0).members == (frozenset({2}), frozenset({1, 2}))

    def test_substitutes_must_fit_inside_containing_union(self):
        f = fam({0, 1}, {2, 3}, {1, 3}, {3})
        assert substitute_sets(f, 0).members == ()
        assert substitute_sets(f, 2).members == (frozenset({3}),)
        assert substitute_sets(f, 1).members == (frozenset({3}),)

    @given(families(), st.integers(0, 4))
    def test_split_properties(self, f, a):
        n, e = containing_sets(f, a), substitute_sets(f, a)
        assert all(a in m for m in n)
        assert all(a not in m and m <= n.universe() for m in e)
        assert set(n.members) <= set(f.members)
        assert set(e.members) <= set(f.members)


class TestAbsorb:
    def test_triple(self, triple_reduct):
        f = discernibility_matrix(triple_reduct).family
        result = absorb(f)
        assert result.minimal.members == (
            frozenset({0, 2}),
            frozenset({0, 1}),
            frozenset({1, 2}),
        )
        assert result.absorbed == (
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1, 3}),
            frozenset({0, 2, 3}),
        )

    def test_ladder_family(self, ladder_family_rows):
        f, _ = family_from_names(ladder_family_rows)
        assert absorb(f).minimal == fam({2}, {0, 1})

    @given(families())
    def test_minimal_is_an_antichain_preserving_reducts(self, f):
        result = absorb(f)
        kept = result.minimal
        for m in kept:
            assert not any(other < m for other in kept if other != m)
        assert set(kept.members) | set(result.absorbed) == set(f.members)
        assert reducts_by_expansion(f) == reducts_by_expansion(kept)


    @given(families(max_attrs=6, max_members=12))
    def test_matches_the_pairwise_definition(self, f):
        # The definition: a member is absorbed when another member lies
        # strictly inside it.  Both parts keep the family's order.
        minimal, absorbed = [], []
        for m in f:
            if any(other < m for other in f if other is not m):
                absorbed.append(m)
            else:
                minimal.append(m)
        result = absorb(f)
        assert result.minimal.members == tuple(minimal)
        assert result.absorbed == tuple(absorbed)


class TestReductsByExpansion:
    def test_triple(self, triple_reduct):
        f = discernibility_matrix(triple_reduct).family
        assert reducts_by_expansion(f) == [
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]

    def test_ladder_variants(self, ladder_family_rows, ladder_system):
        f, _ = family_from_names(ladder_family_rows)
        assert reducts_by_expansion(f) == [frozenset({0, 2}), frozenset({1, 2})]
        g = discernibility_matrix(ladder_system).family
        assert reducts_by_expansion(g) == [frozenset({1, 2})]

    def test_walkthrough_family_contains_final_pick(self, walkthrough_rows):
        f, names = family_from_names(walkthrough_rows)
        assert names == ("a", "b", "c", "d", "e", "f")
        results = reducts_by_expansion(f)
        assert frozenset({0, 1, 2, 4}) in results
        for r in results:
            assert hits_all(r, f)
            for a in r:
                assert not hits_all(r - {a}, f)

    def test_empty_family(self):
        assert reducts_by_expansion(fam()) == [frozenset()]

    def test_cap(self):
        f = fam(set(range(10)), set(range(10, 21)))
        with pytest.raises(ResourceLimitError):
            reducts_by_expansion(f, cap=20)
        assert reducts_by_expansion(f, cap=21)

    @given(families(max_attrs=4, max_members=6), st.data())
    def test_results_are_exactly_the_minimal_hitting_sets(self, f, data):
        results = reducts_by_expansion(f)
        assert len(set(results)) == len(results)
        for r in results:
            assert hits_all(r, f)
            for a in r:
                assert not hits_all(r - {a}, f)
        probe = frozenset(data.draw(st.sets(st.integers(0, 4), max_size=5)))
        if hits_all(probe, f):
            assert any(r <= probe for r in results)

    @given(systems())
    def test_matches_partition_definition_of_reducts(self, s):
        f = discernibility_matrix(s).family
        assert set(reducts_by_expansion(f)) == reducts_by_partitions(s)

    @given(systems())
    def test_core_attributes_are_exactly_the_singletons(self, s):
        f = discernibility_matrix(s).family
        reducts = reducts_by_expansion(f)
        core = set.intersection(*(set(r) for r in reducts))
        singletons = {next(iter(m)) for m in f if len(m) == 1}
        assert core == singletons


class TestFamilyFromNames:
    def test_indices_follow_sorted_names(self):
        f, names = family_from_names([["z", "b"], ["m"]])
        assert names == ("b", "m", "z")
        assert f.members == (frozenset({0, 2}), frozenset({1}))

    def test_deduplicates(self):
        f, _ = family_from_names([["a"], ["b", "a"], ["a", "b"]])
        assert len(f) == 2

    def test_rejects_empty_member(self):
        with pytest.raises(InputError):
            family_from_names([["a"], []])

    def test_rejects_non_string_names(self):
        with pytest.raises(InputError):
            family_from_names([["a", 3]])

    def test_empty_input(self):
        f, names = family_from_names([])
        assert len(f) == 0 and names == ()


class TestHitsAll:
    def test_basics(self):
        f = fam({0, 1}, {2})
        assert hits_all(frozenset({0, 2}), f)
        assert not hits_all(frozenset({0}), f)
        assert hits_all(frozenset(), fam())

    @given(families(), st.frozensets(st.integers(0, 4), max_size=5))
    def test_monotone(self, f, b):
        if hits_all(b, f):
            assert hits_all(b | {0}, f)
