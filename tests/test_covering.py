import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fam, families, neighborhood
from reducts import cli
from reducts.covering import (
    CoveringSpace,
    cov_lower,
    covering_from_family,
    minimal_description,
    singleton_equivalences,
)
from reducts.discern import discernibility_matrix, family_from_names
from reducts.errors import InputError
from reducts.model import set_names


@pytest.fixture
def triple_space(triple_reduct):
    return covering_from_family(discernibility_matrix(triple_reduct).family)


@pytest.fixture
def ladder_space(ladder_family_rows):
    f, _ = family_from_names(ladder_family_rows)
    return covering_from_family(f)


class TestConstruction:
    def test_default_ground_is_the_universe(self):
        space = covering_from_family(fam({0, 1}, {2}))
        assert space.ground == frozenset({0, 1, 2})

    def test_members_outside_ground_rejected(self):
        with pytest.raises(InputError):
            CoveringSpace(frozenset({0}), fam({0, 1}))


class TestMinimalDescription:
    def test_core_attribute_has_its_singleton(self, ladder_space):
        assert minimal_description(ladder_space, 2) == fam({2})

    def test_triple_a4(self, triple_space):
        md = minimal_description(triple_space, 3)
        assert md.members == (frozenset({0, 1, 3}), frozenset({0, 2, 3}))

    def test_singleton_cover(self):
        space = covering_from_family(fam({0}, {1}))
        assert minimal_description(space, 1) == fam({1})

    def test_uncovered_element_errors(self, triple_space):
        with pytest.raises(InputError):
            minimal_description(triple_space, 9)


class TestNeighborhood:
    def test_ladder_core(self, ladder_space):
        assert neighborhood(ladder_space, 2) == frozenset({2})

    def test_triple_a4(self, triple_space):
        assert neighborhood(triple_space, 3) == frozenset({0, 3})

    def test_single_member_cover(self):
        space = covering_from_family(fam({0, 1, 2}))
        assert neighborhood(space, 1) == frozenset({0, 1, 2})

    def test_uncovered_element_errors(self, triple_space):
        with pytest.raises(InputError):
            neighborhood(triple_space, 7)

    @given(families(), st.data())
    def test_contained_in_every_containing_member(self, f, data):
        if not f.universe():
            return
        space = covering_from_family(f)
        x = data.draw(st.sampled_from(sorted(space.ground)))
        nb = neighborhood(space, x)
        assert x in nb
        for k in space.cover:
            if x in k:
                assert nb <= k

    @given(families())
    def test_covering_report_gives_the_neighborhood(self, f):
        """The ``covering`` report's neighborhood, the meet of the minimal
        description alone, is the meet of every member holding the element."""
        names = tuple(f"a{i}" for i in range(5))
        result, _ = cli._cmd_covering(cli._Loaded(names, _family=f), None)
        space = covering_from_family(f)
        assert sorted(result["elements"]) == set_names(space.ground, names)
        for x in space.ground:
            element = result["elements"][names[x]]
            assert element["neighborhood"] == set_names(neighborhood(space, x), names)


class TestApproximations:
    def test_triple_pair(self, triple_space):
        target = frozenset({0, 1})
        assert cov_lower(triple_space, target) == frozenset({0, 1})

    def test_extremes(self, triple_space):
        assert cov_lower(triple_space, frozenset()) == frozenset()
        assert cov_lower(triple_space, triple_space.ground) == triple_space.ground

    @given(families(), st.frozensets(st.integers(0, 4), max_size=5))
    def test_bounds(self, f, x):
        space = covering_from_family(f)
        assert cov_lower(space, x) <= x


class TestSingletonEquivalences:
    def test_ladder_core_all_true(self, ladder_space):
        checks = singleton_equivalences(ladder_space, 2)
        assert checks.all_true
        assert checks.as_tuple() == (True, True, True, True)

    def test_triple_a1_all_false(self, triple_space):
        checks = singleton_equivalences(triple_space, 0)
        assert checks.as_tuple() == (False, False, False, False)

    def test_singleton_cover_all_true(self):
        space = covering_from_family(fam({0}, {1}, {2}))
        assert all(singleton_equivalences(space, x).all_true for x in range(3))

    @given(families(), st.data())
    def test_four_conditions_always_agree(self, f, data):
        if not f.universe():
            return
        space = covering_from_family(f)
        x = data.draw(st.sampled_from(sorted(space.ground)))
        checks = singleton_equivalences(space, x)
        assert len(set(checks.as_tuple())) == 1
