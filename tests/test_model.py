import pytest
from hypothesis import given

from helpers import is_consistent, is_reduct, systems
from reducts.errors import InputError
from reducts.model import (
    InformationSystem,
    Partition,
    indiscernibility_partition,
    load_table,
    refines,
)


def blocks(*groups):
    return Partition(tuple(frozenset(g) for g in groups))


def attrs(system, names):
    return frozenset(system.attributes.index(name) for name in names)


class TestConstruction:
    def test_from_columns_round_trip(self, triple_reduct):
        assert triple_reduct.attributes == ("a1", "a2", "a3", "a4")
        assert triple_reduct.labels == ("1", "2", "3", "4", "5")
        assert triple_reduct.rows[2] == (1, 0, 1, 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            InformationSystem((), ((),), ("1",))
        with pytest.raises(InputError):
            InformationSystem(("a",), (), ())
        with pytest.raises(InputError):
            InformationSystem(("a", "a"), ((0, 0),), ("1",))
        with pytest.raises(InputError):
            InformationSystem(("a", "b"), ((0,),), ("1",))
        with pytest.raises(InputError):
            InformationSystem(("a",), ((0,), (1,)), ("1", "1"))
        with pytest.raises(InputError):
            InformationSystem.from_columns(["a", "b"], [[0, 1]])
        with pytest.raises(InputError):
            InformationSystem.from_columns(["a", "b"], [[0, 1], [0]])

    @pytest.mark.parametrize("header", ["a,,c", "a, ,c", "a,b,"])
    def test_rejects_an_empty_attribute_name(self, header):
        with pytest.raises(InputError, match="empty attribute name"):
            load_table(f"{header}\n0,1,2\n")


class TestPartition:
    def test_blocks_are_canonicalized(self):
        p = blocks({4}, {2, 3}, {0, 1})
        assert p.blocks == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4}))
        assert p == blocks({0, 1}, {4}, {2, 3})

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(InputError):
            blocks({0, 1}, {1, 2})
        with pytest.raises(InputError):
            blocks({0}, set())

    def test_single_attribute_partitions(self, triple_reduct):
        expected = {
            "a1": blocks({0, 1}, {2, 3}, {4}),
            "a2": blocks({0, 1, 2}, {3, 4}),
            "a3": blocks({0, 1, 3}, {2, 4}),
            "a4": blocks({0, 1, 2, 3}, {4}),
        }
        for name, want in expected.items():
            got = indiscernibility_partition(triple_reduct, attrs(triple_reduct, [name]))
            assert got == want, name

    def test_full_and_empty_attribute_sets(self, triple_reduct):
        full = indiscernibility_partition(triple_reduct, triple_reduct.all_attrs())
        assert full == blocks({0, 1}, {2}, {3}, {4})
        trivial = indiscernibility_partition(triple_reduct, frozenset())
        assert trivial == blocks({0, 1, 2, 3, 4})

    def test_refines(self, triple_reduct):
        full = indiscernibility_partition(triple_reduct, triple_reduct.all_attrs())
        a2 = indiscernibility_partition(triple_reduct, attrs(triple_reduct, ["a2"]))
        assert refines(full, a2)
        assert not refines(a2, full)
        assert refines(a2, a2)


class TestConsistencyAndReducts:
    def test_consistent_subsets(self, triple_reduct):
        for names in (["a1", "a2"], ["a1", "a3"], ["a2", "a3"], ["a1", "a2", "a3"]):
            assert is_consistent(triple_reduct, attrs(triple_reduct, names)), names
        for names in (["a1"], ["a2"], ["a4"], ["a1", "a4"], ["a2", "a4"]):
            assert not is_consistent(triple_reduct, attrs(triple_reduct, names)), names

    def test_reducts(self, triple_reduct):
        for names in (["a1", "a2"], ["a1", "a3"], ["a2", "a3"]):
            assert is_reduct(triple_reduct, attrs(triple_reduct, names)), names
        assert not is_reduct(triple_reduct, attrs(triple_reduct, ["a1", "a2", "a3"]))
        assert not is_reduct(triple_reduct, attrs(triple_reduct, ["a1", "a4"]))
        assert not is_reduct(triple_reduct, triple_reduct.all_attrs())

    def test_unique_reduct_with_core(self, ladder_system):
        s = ladder_system
        assert is_reduct(s, attrs(s, ["a2", "a3"]))
        assert not is_consistent(s, attrs(s, ["a1", "a2"]))
        assert not is_consistent(s, attrs(s, ["a1", "a3"]))


class TestLoadTable:
    def test_plain(self):
        s = load_table("a,b\n0,1\n1,1\n")
        assert s.attributes == ("a", "b")
        assert s.labels == ("1", "2")
        assert s.rows == (("0", "1"), ("1", "1"))

    def test_id_column_and_whitespace(self):
        s = load_table("id, a ,b\n x1 ,0,1\nx2,1, 0\n", id_col=True)
        assert s.attributes == ("a", "b")
        assert s.labels == ("x1", "x2")
        assert s.rows == (("0", "1"), ("1", "0"))

    def test_blank_lines_skipped(self):
        s = load_table("a\n\n0\n\n1\n")
        assert s.n_objects == 2

    def test_errors(self):
        with pytest.raises(InputError):
            load_table("")
        with pytest.raises(InputError):
            load_table("a,b\n")
        with pytest.raises(InputError):
            load_table("a,b\n0\n")
        with pytest.raises(InputError):
            load_table("id\nx\n", id_col=True)
        with pytest.raises(InputError):
            load_table("a,a\n0,1\n")


class TestPartitionProperties:
    @given(systems())
    def test_more_attributes_refine(self, s):
        attrs = sorted(s.all_attrs())
        small = frozenset(attrs[: len(attrs) // 2])
        big = s.all_attrs()
        assert refines(
            indiscernibility_partition(s, big), indiscernibility_partition(s, small)
        )

    @given(systems())
    def test_full_set_is_consistent(self, s):
        assert is_consistent(s, s.all_attrs())

    @given(systems())
    def test_greedy_removal_reaches_a_reduct(self, s):
        attrs = set(s.all_attrs())
        for a in sorted(attrs, reverse=True):
            if is_consistent(s, frozenset(attrs - {a})):
                attrs.discard(a)
        assert is_reduct(s, frozenset(attrs))
