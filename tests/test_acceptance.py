"""End-to-end acceptance checks for every advertised guarantee.

One test per numbered criterion; the per-test pytest verdict is the
pass/fail line for that criterion.  Expected values are pinned literals,
cross-checked where possible against oracles that share no code with the
implementation under test.
"""

from __future__ import annotations

import json
import random
import time

from helpers import PROVEN_CLAIMS, random_system, reducts_by_partitions
from reducts.characters import Character, classify_all
from reducts.cli import main as cli_main
from reducts.covering import covering_from_family, singleton_equivalences
from reducts.discern import (
    SetFamily,
    absorb,
    containing_sets,
    discernibility_matrix,
    family_from_names,
    reducts_by_expansion,
    substitute_sets,
)
from reducts.model import indiscernibility_partition
from reducts.reducers import (
    ReductStatus,
    SelectionPolicy,
    all_reducts_bruteforce,
    ea_reduce,
    verify_reduct,
    yao_row_wise,
)
from reducts.relations import (
    audit_theorems,
    excludes,
    relation_report_from_family,
    relation_report_from_system,
)

POLICIES = (SelectionPolicy.FIRST, SelectionPolicy.MAX_FREQUENCY)


def _by_name(system, subsets) -> set[frozenset[str]]:
    return {frozenset(system.attributes[a] for a in m) for m in subsets}


def _csv_of(system) -> str:
    lines = [",".join(system.attributes)]
    lines += [",".join(str(v) for v in row) for row in system.rows]
    return "\n".join(lines) + "\n"


def _fs(*names: str) -> frozenset[str]:
    return frozenset(names)


def test_criterion_1_worked_table_bundle(triple_reduct):
    """Matrix, N/E families, classification and reducts of the 5x4 table."""
    started = time.perf_counter()

    listed_partitions = {
        "a1": {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})},
        "a2": {frozenset({0, 1, 2}), frozenset({3, 4})},
        "a3": {frozenset({0, 1, 3}), frozenset({2, 4})},
        "a4": {frozenset({0, 1, 2, 3}), frozenset({4})},
    }
    for a, name in enumerate(triple_reduct.attributes):
        got = indiscernibility_partition(triple_reduct, frozenset({a}))
        assert set(got.blocks) == listed_partitions[name]

    matrix = discernibility_matrix(triple_reduct)
    expected_cells = {
        (0, 1): frozenset(),
        (0, 2): _fs("a1", "a3"),
        (0, 3): _fs("a1", "a2"),
        (0, 4): _fs("a1", "a2", "a3", "a4"),
        (1, 2): _fs("a1", "a3"),
        (1, 3): _fs("a1", "a2"),
        (1, 4): _fs("a1", "a2", "a3", "a4"),
        (2, 3): _fs("a2", "a3"),
        (2, 4): _fs("a1", "a2", "a4"),
        (3, 4): _fs("a1", "a3", "a4"),
    }
    got_cells = {
        (i, j): frozenset(triple_reduct.attributes[a] for a in entry)
        for i, j, entry in matrix.pairs()
    }
    assert got_cells == expected_cells

    family = matrix.family
    assert _by_name(triple_reduct, containing_sets(family, 0)) == {
        _fs("a1", "a2"),
        _fs("a1", "a3"),
        _fs("a1", "a2", "a4"),
        _fs("a1", "a3", "a4"),
        _fs("a1", "a2", "a3", "a4"),
    }
    assert _by_name(triple_reduct, substitute_sets(family, 0)) == {_fs("a2", "a3")}
    assert _by_name(triple_reduct, containing_sets(family, 3)) == {
        _fs("a1", "a2", "a4"),
        _fs("a1", "a3", "a4"),
        _fs("a1", "a2", "a3", "a4"),
    }
    assert _by_name(triple_reduct, substitute_sets(family, 3)) == {
        _fs("a1", "a2"),
        _fs("a1", "a3"),
        _fs("a2", "a3"),
    }

    report = classify_all(family, triple_reduct.all_attrs())
    assert report.core == frozenset()
    assert report.relative_necessary == frozenset({0, 1, 2})
    assert report.unnecessary == frozenset({3})

    reducts = all_reducts_bruteforce(family, triple_reduct.all_attrs())
    assert _by_name(triple_reduct, reducts) == {
        _fs("a1", "a2"),
        _fs("a1", "a3"),
        _fs("a2", "a3"),
    }

    assert time.perf_counter() - started < 1.0


def test_criterion_2_absorption_split(triple_reduct):
    """Absorption splits the 5x4 family into the three pairs and the rest."""
    family = discernibility_matrix(triple_reduct).family
    split = absorb(family)
    assert _by_name(triple_reduct, split.absorbed) == {
        _fs("a1", "a2", "a4"),
        _fs("a1", "a3", "a4"),
        _fs("a1", "a2", "a3", "a4"),
    }
    assert _by_name(triple_reduct, split.minimal) == {
        _fs("a1", "a2"),
        _fs("a1", "a3"),
        _fs("a2", "a3"),
    }
    union = frozenset().union(*split.minimal)
    assert union == frozenset({0, 1, 2})
    assert triple_reduct.all_attrs() - union == frozenset({3})


def test_criterion_3_exclusion_without_refinement(ladder_system, ladder_family_rows):
    """Exclusion holds on the ladder family while refinement does not."""
    family, names = family_from_names(ladder_family_rows)
    assert names == ("a1", "a2", "a3")
    listed = [
        _fs("a3"),
        _fs("a2", "a3"),
        _fs("a1", "a2", "a3"),
        _fs("a1", "a2"),
        _fs("a1", "a3"),
    ]
    assert [frozenset(names[a] for a in m) for m in family] == listed

    named = lambda subsets: {frozenset(names[a] for a in m) for m in subsets}
    assert named(containing_sets(family, 0)) == {
        _fs("a1", "a2"),
        _fs("a1", "a3"),
        _fs("a1", "a2", "a3"),
    }
    assert named(substitute_sets(family, 0)) == {_fs("a3"), _fs("a2", "a3")}

    reducts = all_reducts_bruteforce(family, family.universe())
    assert named(reducts) == {_fs("a1", "a3"), _fs("a2", "a3")}

    # {a2} shuts a1 out of every reduct, yet a2's partition does not refine
    # a1's: the exclusion relation is strictly weaker than refinement.
    assert excludes(reducts, frozenset({1}), 0) is True
    assert (1, 0) not in relation_report_from_family(family).finer_pairs

    # Partition twin: no table produces exactly the five listed entries, so
    # the refinement half is checked on a table realizing the generating
    # partitions, whose matrix carries {a2} as one extra entry.
    twin_partitions = {
        "a1": {frozenset({0, 1, 2}), frozenset({3, 4})},
        "a2": {frozenset({0, 1}), frozenset({2, 3, 4})},
        "a3": {frozenset({0, 2}), frozenset({1, 3, 4})},
    }
    for a, name in enumerate(ladder_system.attributes):
        got = indiscernibility_partition(ladder_system, frozenset({a}))
        assert set(got.blocks) == twin_partitions[name]
    twin_family = discernibility_matrix(ladder_system).family
    assert set(twin_family) == set(family) | {frozenset({1})}
    assert (1, 0) not in relation_report_from_system(ladder_system).finer_pairs


def test_criterion_4_substitute_walkthrough_trace(walkthrough_rows):
    """The substitute-family reducer replays the nine-member walkthrough."""
    family, names = family_from_names(walkthrough_rows)
    assert names == ("a", "b", "c", "d", "e", "f")

    result, trace = ea_reduce(family, SelectionPolicy.FIRST)
    assert len(trace.steps) == 2
    step = trace.steps[0]
    assert step.chosen == 0
    assert step.containing.members == (
        frozenset({0, 1, 5}),
        frozenset({0, 2}),
        frozenset({0, 3}),
    )
    assert step.substitutes.members == (
        frozenset({2, 3, 5}),
        frozenset({1, 3}),
        frozenset({1, 2}),
    )
    assert step.inner_reduct == frozenset({1, 2})
    assert step.a_added is True
    assert step.blocked == frozenset({0, 3})
    assert step.family_after.members == (frozenset({4}),)

    assert trace.steps[1].chosen == 4
    assert result == frozenset({0, 1, 2, 4})
    assert trace.before_minimize == result
    assert verify_reduct(family, result).status is ReductStatus.VALID


def test_criterion_5_oracle_equivalence_suite():
    """Three reduct enumerators, two classifiers and two constructors agree
    with a definition-level oracle on 500 random tables."""
    started = time.perf_counter()
    rng = random.Random(20260815)
    for _ in range(500):
        system = random_system(rng, max_objects=8, max_attrs=8)
        family = discernibility_matrix(system).family
        oracle = reducts_by_partitions(system)

        assert set(all_reducts_bruteforce(family, system.all_attrs())) == oracle
        assert set(reducts_by_expansion(family)) == oracle

        characters = classify_all(family, system.all_attrs())
        for a in sorted(system.all_attrs()):
            hits = sum(1 for r in oracle if a in r)
            if hits == len(oracle):
                expected = Character.CORE
            elif hits == 0:
                expected = Character.UNNECESSARY
            else:
                expected = Character.RELATIVE_NECESSARY
            assert characters.character(a) is expected

        for policy in POLICIES:
            assert yao_row_wise(family, policy)[0] in oracle
            assert ea_reduce(family, policy)[0] in oracle

        minimal = absorb(family).minimal
        assert frozenset().union(*oracle) == frozenset().union(*minimal, frozenset())
        singletons = frozenset(next(iter(m)) for m in family if len(m) == 1)
        assert frozenset.intersection(*oracle) == singletons

    assert time.perf_counter() - started < 60.0


def test_criterion_6_claim_audit(triple_reduct, ladder_system, tmp_path, capsys):
    """The audit confirms the provable claims everywhere, pins the known
    counterexamples on the two worked tables, and never fails the run."""
    flagged = audit_theorems(triple_reduct)
    assert {(row.claim, row.subject) for row in flagged.disagreements()} == {
        ("avoiding_escape", "a=a4"),
    }

    flagged = audit_theorems(ladder_system)
    assert {(row.claim, row.subject) for row in flagged.disagreements()} == {
        ("avoiding_escape", "a=a1"),
        ("coupled_partition_transfer", "a=a2, b=a3"),
        ("coupled_extension_transfer", "a=a2, b=a3"),
        ("coupled_difference_transfer", "a=a2, b=a3"),
    }

    rng = random.Random(1387)
    for _ in range(100):
        system = random_system(rng, max_objects=8, max_attrs=6)
        report = audit_theorems(system)
        for row in report.instances:
            assert (row.counterexample is not None) == (not row.agree)
            if row.claim in PROVEN_CLAIMS:
                assert row.agree, (row.claim, row.subject, system.rows)

    # A disagreement is a reported finding, not a failure.
    path = tmp_path / "worked.csv"
    path.write_text(_csv_of(triple_reduct))
    assert cli_main(["audit", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["all_agree"] is False
    rows = payload["result"]["claims"]["avoiding_escape"]
    assert [r["counterexample"] for r in rows if not r["agree"]] != [None]


def test_criterion_7_covering_bridge():
    """The four singleton conditions move together, and their all-true case
    lands exactly on the core attributes of a table's pair family."""
    rng = random.Random(90125)
    for _ in range(220):
        n_attrs = rng.randint(1, 6)
        members = tuple(
            frozenset(rng.sample(range(n_attrs), rng.randint(1, n_attrs)))
            for _ in range(rng.randint(1, 10))
        )
        space = covering_from_family(SetFamily(members))
        for x in sorted(space.ground):
            assert len(set(singleton_equivalences(space, x).as_tuple())) == 1

    for _ in range(120):
        system = random_system(rng, max_objects=8, max_attrs=6)
        family = discernibility_matrix(system).family
        report = classify_all(family, system.all_attrs())
        space = covering_from_family(family)
        for a in sorted(system.all_attrs()):
            if a in space.ground:
                checks = singleton_equivalences(space, a)
                assert checks.all_true == (report.character(a) is Character.CORE)
            else:
                assert report.character(a) is Character.UNNECESSARY


def test_criterion_8_degenerate_inputs(triple_reduct, tmp_path, capsys):
    """Constant columns, duplicate rows and one-object tables stay lawful."""
    from reducts.model import InformationSystem

    constant = InformationSystem.from_columns(["a1", "a2"], [[0, 1, 0], [7, 7, 7]])
    family = discernibility_matrix(constant).family
    report = classify_all(family, constant.all_attrs())
    assert report.character(1) is Character.UNNECESSARY

    # Indistinguishable objects are data, not an error.
    assert triple_reduct.rows[0] == triple_reduct.rows[1]
    assert triple_reduct.n_objects == 5
    assert next(discernibility_matrix(triple_reduct).pairs()) == (0, 1, frozenset())

    lonely = InformationSystem.from_columns(["a1", "a2"], [[0], [1]])
    matrix = discernibility_matrix(lonely)
    assert list(matrix.pairs()) == []
    assert matrix.family.members == ()
    report = classify_all(matrix.family, lonely.all_attrs())
    assert report.unnecessary == lonely.all_attrs()
    assert all_reducts_bruteforce(matrix.family, lonely.all_attrs()) == [frozenset()]

    path = tmp_path / "lonely.csv"
    path.write_text(_csv_of(lonely))
    assert cli_main(["all-reducts", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["reducts"] == [[]]
