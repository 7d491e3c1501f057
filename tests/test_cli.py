import contextlib
import csv
import importlib
import io
import json
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import run_child
from reducts import cli, discern, relations
from reducts.cli import RunConfig, main, run
from reducts.errors import InputError
from reducts.reducers import ReductStatus

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TRIPLE_CSV = "a1,a2,a3,a4\n0,0,0,0\n0,0,0,0\n1,0,1,0\n1,1,0,0\n2,1,1,1\n"


_MATRIX_NAMES = ("a1", "a2", "é", "жук", "名")
# load_table strips cells, so labels carry no outer whitespace.
_LABELS = st.text(
    st.sampled_from(["x", "7", "é", "日", '"', ",", "\\", "'"]), min_size=1, max_size=4
)


@st.composite
def _matrix_tables(draw):
    """Attribute names, rows and (for --id-col) labels of a small table:
    rows drawn from a pool of one to four, so single-object, all-identical
    and repeated rows in any order all come up."""
    m = draw(st.integers(1, 4))
    names = draw(st.permutations(_MATRIX_NAMES))[:m]
    row = st.lists(st.sampled_from("012"), min_size=m, max_size=m)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    n = len(rows)
    labels = draw(st.none() | st.lists(_LABELS, min_size=n, max_size=n, unique=True))
    return list(names), rows, labels


def _write_matrix_table(tmp_path_factory, table) -> Path:
    names, rows, labels = table
    path = tmp_path_factory.getbasetemp() / "matrix-table.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if labels is None:
            writer.writerows([names, *rows])
        else:
            writer.writerows([["id", *names], *([l, *r] for l, r in zip(labels, rows))])
    return path


@pytest.fixture
def triple_csv(tmp_path):
    path = tmp_path / "triple_reduct.csv"
    path.write_text(TRIPLE_CSV)
    return str(path)


@pytest.fixture
def walkthrough_json(tmp_path, walkthrough_rows):
    path = tmp_path / "walkthrough.json"
    path.write_text(json.dumps(walkthrough_rows))
    return str(path)


@pytest.fixture
def ladder_family_json(tmp_path, ladder_family_rows):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_family_rows))
    return str(path)


@pytest.fixture
def single_csv(tmp_path):
    path = tmp_path / "single.csv"
    path.write_text("a,b\n0,1\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    parsed = json.loads(out)
    # Canonical output: parsing and re-serializing reproduces the bytes.
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out
    return parsed


class _ByteCounter(io.TextIOBase):
    """A text stream that keeps nothing but the UTF-8 size of what it got."""

    size = 0

    def write(self, text):
        self.size += len(text.encode("utf-8"))


def _traced_peak(config: RunConfig, out) -> int:
    """The traced heap peak of ``run(config, out)``, which must succeed."""
    tracemalloc.start()
    try:
        assert run(config, out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestClassify:
    def test_example_characters(self, capsys, triple_csv):
        report = run_json(capsys, ["classify", "--format", "json", triple_csv])
        assert report["command"] == "classify"
        assert report["attributes"] == ["a1", "a2", "a3", "a4"]
        assert report["result"]["characters"] == {
            "a1": "relative_necessary",
            "a2": "relative_necessary",
            "a3": "relative_necessary",
            "a4": "unnecessary",
        }
        assert report["result"]["core"] == []
        assert report["result"]["families"]["a4"]["substitutes"] == [
            ["a1", "a3"],
            ["a1", "a2"],
            ["a2", "a3"],
        ]

    def test_text_output(self, capsys, triple_csv):
        code, out, _ = run_cli(capsys, ["classify", triple_csv])
        assert code == 0
        assert "core: (none)" in out
        assert "a4: unnecessary" in out

    def test_family_input(self, capsys, walkthrough_json):
        report = run_json(capsys, ["classify", "--format", "json", walkthrough_json])
        assert sorted(report["result"]["characters"]) == list("abcdef")

    def test_json_holds_one_member_at_a_time(self, tmp_path):
        """On 60 ternary objects and 16 attributes the document is about
        8 MB, each member written once per attribute whose families hold
        it; the traced heap peak stays under half of it (the whole
        document, or its pieces, would be larger than the text)."""
        rng = random.Random(1)
        path = tmp_path / "wide.csv"
        lines = [",".join(f"attribute_{k}" for k in range(16))]
        lines += [",".join(rng.choice("012") for _ in range(16)) for _ in range(60)]
        path.write_text("\n".join(lines) + "\n")
        sink = _ByteCounter()
        peak = _traced_peak(RunConfig(path=str(path), kind="table", command="classify", fmt="json"), sink)
        assert sink.size > 5_000_000
        assert peak < sink.size / 2, (peak, sink.size)


class TestMatrix:
    def test_example_matrix(self, capsys, triple_csv):
        report = run_json(capsys, ["matrix", "--format", "json", triple_csv])
        pairs = report["result"]["pairs"]
        assert len(pairs) == 10
        by_objects = {tuple(p["objects"]): p["attributes"] for p in pairs}
        assert by_objects[("1", "2")] == []
        assert by_objects[("1", "3")] == ["a1", "a3"]
        assert by_objects[("4", "5")] == ["a1", "a3", "a4"]
        assert report["result"]["family"] == [
            ["a1", "a3"],
            ["a1", "a2"],
            ["a1", "a2", "a3", "a4"],
            ["a2", "a3"],
            ["a1", "a2", "a4"],
            ["a1", "a3", "a4"],
        ]

    def test_id_col_labels(self, capsys, tmp_path):
        path = tmp_path / "tagged.csv"
        path.write_text("id,p,q\nx,0,0\ny,1,0\nz,0,1\n")
        report = run_json(
            capsys, ["matrix", "--format", "json", "--id-col", str(path)]
        )
        objects = [p["objects"] for p in report["result"]["pairs"]]
        assert objects == [["x", "y"], ["x", "z"], ["y", "z"]]

    def test_rejects_family_input(self, capsys, walkthrough_json):
        code, _, err = run_cli(capsys, ["matrix", walkthrough_json])
        assert code == 1
        assert "table" in err

    @given(table=_matrix_tables())
    @example(table=(["a1"], [["0"]], None))
    @example(table=(["a1", "é"], [["0", "1"]] * 3, ['"q', "a,b", "日"]))
    @example(table=(["жук", "a1"], [["0", "1"], ["1", "1"], ["0", "1"], ["1", "1"]], None))
    def test_streamed_json_matches_the_materialized_report(self, tmp_path_factory, table):
        """The pairs, written one record at a time, read as the stdlib prints
        the same report with every pair a dict, worked out here from the
        rows."""
        names, rows, labels = table
        path = _write_matrix_table(tmp_path_factory, table)
        shown = labels or [str(k + 1) for k in range(len(rows))]
        pairs, family = [], []
        for i, j in ((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))):
            entry = sorted(n for n, x, y in zip(names, rows[i], rows[j]) if x != y)
            pairs.append({"objects": [shown[i], shown[j]], "attributes": entry})
            if entry and entry not in family:
                family.append(entry)
        report = {
            "command": "matrix",
            "input": str(path),
            "attributes": names,
            "result": {"pairs": pairs, "family": family},
            "warnings": [],
        }
        out = io.StringIO()
        config = RunConfig(
            path=str(path), kind="table", command="matrix", fmt="json", id_col=labels is not None
        )
        assert run(config, out) == 0
        assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @given(table=_matrix_tables())
    @example(table=(["a1", "é"], [["0", "1"]] * 3, ['"q', "a,b", "日"]))
    @example(table=(["a1", "a2"], [["0", "1"], ["1", "0"], ["0", "0"]], ["long label", "x", "y"]))
    def test_streamed_text_matches_the_padded_grid(self, tmp_path_factory, table):
        """The text grid, written line by line with widths from a first pass,
        reads as the whole grid padded at once, worked out here from the
        rows."""
        names, rows, labels = table
        path = _write_matrix_table(tmp_path_factory, table)
        shown = labels or [str(k + 1) for k in range(len(rows))]
        grid = [["", *shown[1:]]]
        for i in range(len(rows) - 1):
            cells = [
                ", ".join(sorted(n for n, x, y in zip(names, rows[i], rows[j]) if x != y)) or "-"
                for j in range(i + 1, len(rows))
            ]
            grid.append([shown[i], *[""] * i, *cells])
        out = io.StringIO()
        config = RunConfig(path=str(path), kind="table", command="matrix", id_col=labels is not None)
        assert run(config, out) == 0
        lines = out.getvalue().splitlines()
        assert lines[0] == f"discernibility matrix: {len(rows)} objects, {len(names)} attributes"
        assert lines[1:-1] == (cli._pad(grid) if len(rows) > 1 else [])
        assert lines[-1].startswith("family: ")

    def test_text_holds_one_line_at_a_time(self, tmp_path):
        """On 1000 binary objects the text grid is about 30 MB; the traced
        heap peak stays under a twentieth of it (the padded grid, built
        whole, would be larger than the text)."""
        rng = random.Random(12)
        path = tmp_path / "tall.csv"
        lines = [",".join(f"a{k}" for k in range(8))]
        lines += [",".join(rng.choice("01") for _ in range(8)) for _ in range(1000)]
        path.write_text("\n".join(lines) + "\n")

        sink = _ByteCounter()
        peak = _traced_peak(RunConfig(path=str(path), kind="table", command="matrix"), sink)
        assert sink.size > 10_000_000
        assert peak < sink.size / 20, (peak, sink.size)

    def test_json_holds_one_record_at_a_time(self, tmp_path):
        """On 1000 binary objects the document is about 89 MB; the traced
        heap peak stays under a twentieth of it (the whole document, or
        every pair record, would be several times its size).  Each pair's
        record goes out in a write of its own, and no write is long."""
        rng = random.Random(12)
        path = tmp_path / "tall.csv"
        lines = [",".join(f"a{k}" for k in range(8))]
        lines += [",".join(rng.choice("01") for _ in range(8)) for _ in range(1000)]
        path.write_text("\n".join(lines) + "\n")

        class Sink(io.TextIOBase):
            size = records = longest = 0

            def write(self, text):
                self.records += '"objects"' in text
                self.longest = max(self.longest, len(text))
                self.size += len(text)

        sink = Sink()
        peak = _traced_peak(RunConfig(path=str(path), kind="table", command="matrix", fmt="json"), sink)
        assert sink.size > 80_000_000
        assert peak < sink.size / 20, (peak, sink.size)
        assert sink.records == 1000 * 999 // 2
        assert sink.longest < 256  # a record naming all 8 attributes


class TestObjectCap:
    def test_cap_exceeded(self, capsys, triple_csv):
        code, out, err = run_cli(capsys, ["classify", "--max-objects", "4", triple_csv])
        assert code == 3
        assert out == ""
        assert "5 objects, cap is 4" in err

    def test_default_cap(self, capsys, tmp_path):
        path = tmp_path / "tall.csv"
        path.write_text("a,b\n" + "0,1\n" * (cli.OBJECT_CAP + 1))
        code, _, err = run_cli(capsys, ["matrix", str(path)])
        assert code == 3
        assert f"cap is {cli.OBJECT_CAP}" in err
        raised = ["classify", "--max-objects", str(cli.OBJECT_CAP + 1), str(path)]
        assert run_cli(capsys, raised)[0] == 0

    def test_raised_cap_warns(self, capsys, triple_csv):
        raised = str(cli.OBJECT_CAP + 1)
        argv = ["matrix", "--max-objects", raised, "--format", "json", triple_csv]
        report = run_json(capsys, argv)
        assert report["warnings"] == [
            f"--max-objects {raised} is above the default {cli.OBJECT_CAP}; "
            "object pairs grow with the square of the object count"
        ]

    def test_family_input_has_no_objects_to_cap(self, capsys, walkthrough_json):
        argv = ["classify", "--max-objects", "1", "--format", "json", walkthrough_json]
        assert run_json(capsys, argv)["warnings"] == []

    def test_nonpositive_cap_is_an_input_error(self, capsys, triple_csv):
        code, _, err = run_cli(capsys, ["matrix", "--max-objects", "0", triple_csv])
        assert code == 1
        assert "--max-objects" in err


class TestReduct:
    def test_example_walkthrough(self, capsys, walkthrough_json):
        report = run_json(
            capsys,
            ["reduct", "--algo", "ea", "--select", "first", "--format", "json", walkthrough_json],
        )
        assert report["result"]["reduct"] == ["a", "b", "c", "e"]
        assert report["result"]["valid"] is True
        assert report["result"]["algorithm"] == "ea"
        assert report["result"]["policy"] == "first"

    def test_trace_records_the_first_step(self, capsys, walkthrough_json):
        report = run_json(
            capsys,
            ["reduct", "--algo", "ea", "--verbose", "--format", "json", walkthrough_json],
        )
        step = report["result"]["trace"][0]
        assert step["chosen"] == "a"
        assert step["inner_reduct"] == ["b", "c"]
        assert step["chosen_added"] is True
        assert step["blocked"] == ["a", "d"]
        assert step["substitutes"] == [["c", "d", "f"], ["b", "d"], ["b", "c"]]

    def test_row_wise_variant(self, capsys, walkthrough_json):
        report = run_json(
            capsys, ["reduct", "--algo", "yao", "--format", "json", walkthrough_json]
        )
        assert report["result"]["reduct"] == ["a", "c", "d", "e"]
        assert report["result"]["valid"] is True

    def test_no_minimize_is_a_usage_error(self, capsys, walkthrough_json):
        code, out, err = run_cli(capsys, ["reduct", "--no-minimize", walkthrough_json])
        assert code == 1
        assert out == ""
        assert err.startswith("usage: reducts ")
        assert err.endswith("error: unrecognized arguments: --no-minimize\n")

    def test_raw_keeps_the_attribute_the_trim_removes(self, capsys, tmp_path):
        rows = [
            ["a1", "a2", "a4"],
            ["a2", "a3", "a5"],
            ["a3", "a4", "a5", "a7"],
            ["a1", "a2", "a3"],
            ["a2", "a3", "a4", "a6"],
            ["a1", "a2", "a3", "a4", "a5"],
        ]
        path = tmp_path / "redundant.json"
        path.write_text(json.dumps(rows))
        result = run_json(capsys, ["reduct", "--format", "json", str(path)])["result"]
        raw, reduct = set(result["raw"]), set(result["reduct"])
        assert result["valid"] is True
        assert reduct < raw
        assert all(raw & set(member) for member in rows)

    @pytest.mark.parametrize(
        "candidate",
        [lambda family: family.universe(), lambda family: frozenset()],
        ids=["not-minimal", "not-hitting"],
    )
    def test_failed_verification_exits_2(self, capsys, monkeypatch, walkthrough_json, candidate):
        real = cli.ea_reduce

        def broken(family, policy):
            return candidate(family), real(family, policy)[1]

        monkeypatch.setattr(cli, "ea_reduce", broken)
        code, out, err = run_cli(capsys, ["reduct", walkthrough_json])
        assert code == 2
        assert out == ""
        assert "fails verification" in err

    def test_outputs_belong_to_the_oracle(self, capsys, triple_csv):
        oracle = run_json(capsys, ["all-reducts", "--format", "json", triple_csv])
        expected = {tuple(r) for r in oracle["result"]["reducts"]}
        for algo in ("ea", "yao"):
            for select in ("first", "freq"):
                report = run_json(
                    capsys,
                    ["reduct", "--algo", algo, "--select", select,
                     "--format", "json", triple_csv],
                )
                assert tuple(report["result"]["reduct"]) in expected


class TestAllReducts:
    def test_example_reducts(self, capsys, triple_csv):
        report = run_json(capsys, ["all-reducts", "--format", "json", triple_csv])
        assert report["result"]["reducts"] == [
            ["a1", "a2"],
            ["a1", "a3"],
            ["a2", "a3"],
        ]
        assert report["result"]["count"] == 3
        assert report["warnings"] == []

    def test_single_object_table(self, capsys, single_csv):
        report = run_json(capsys, ["all-reducts", "--format", "json", single_csv])
        assert report["result"]["reducts"] == [[]]
        assert report["result"]["count"] == 1

    def test_cap_exceeded(self, capsys, triple_csv):
        code, _, err = run_cli(capsys, ["all-reducts", "--max-attrs", "3", triple_csv])
        assert code == 3
        assert "refusing" in err

    def test_raised_cap_warns(self, capsys, triple_csv):
        report = run_json(
            capsys, ["all-reducts", "--max-attrs", "25", "--format", "json", triple_csv]
        )
        assert any("25" in w for w in report["warnings"])

    def test_nonpositive_cap_is_an_input_error(self, capsys, triple_csv):
        code, _, err = run_cli(capsys, ["all-reducts", "--max-attrs", "0", triple_csv])
        assert code == 1


class TestRelations:
    def test_example_survey(self, capsys, triple_csv):
        report = run_json(
            capsys,
            [
                "relations",
                "--excludes", "a1,a2->a3",
                "--excludes=->a4",
                "--format", "json",
                triple_csv,
            ],
        )
        assert report["result"]["finer"] == [["a1", "a4"]]
        assert report["result"]["equivalent"] == []
        assert report["result"]["coupled"] == []
        assert report["result"]["exclusions"] == [
            {"given": ["a1", "a2"], "attribute": "a3", "excluded": True},
            {"given": [], "attribute": "a4", "excluded": True},
        ]

    def test_family_exclusion_query(self, capsys, ladder_family_json):
        report = run_json(
            capsys,
            ["relations", "--excludes", "a2->a1", "--format", "json",
             ladder_family_json],
        )
        assert report["result"]["exclusions"] == [
            {"given": ["a2"], "attribute": "a1", "excluded": True}
        ]

    def test_unknown_attribute_in_query(self, capsys, triple_csv):
        code, _, err = run_cli(
            capsys, ["relations", "--excludes", "zz->a1", triple_csv]
        )
        assert code == 1
        assert "zz" in err

    def test_malformed_query(self, capsys, triple_csv):
        code, _, err = run_cli(capsys, ["relations", "--excludes", "a1", triple_csv])
        assert code == 1

    def test_criteria_split_exits_2(self, capsys, monkeypatch, triple_csv):
        monkeypatch.setattr(relations, "refines", lambda finer, coarser: False)
        code, out, err = run_cli(capsys, ["relations", triple_csv])
        assert code == 2
        assert out == ""
        assert "internal check failed: refinement criteria disagree" in err
        assert "Traceback" not in err


class TestAudit:
    def test_example_audit(self, capsys, triple_csv):
        report = run_json(capsys, ["audit", "--format", "json", triple_csv])
        result = report["result"]
        assert result["all_agree"] is False
        assert result["disagreements"] == 1
        rows = result["claims"]["avoiding_escape"]
        flagged = [r for r in rows if not r["agree"]]
        assert len(flagged) == 1
        assert flagged[0]["subject"] == "a=a4"
        assert flagged[0]["counterexample"]
        for claim, claim_rows in result["claims"].items():
            if claim != "avoiding_escape":
                assert all(r["agree"] for r in claim_rows), claim

    def test_disagreement_still_exits_zero(self, capsys, triple_csv):
        code, out, _ = run_cli(capsys, ["audit", triple_csv])
        assert code == 0
        assert "disagreement: avoiding_escape at a=a4" in out

    def test_rejects_family_input(self, capsys, walkthrough_json):
        code, _, err = run_cli(capsys, ["audit", walkthrough_json])
        assert code == 1

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        names = [f"c{i}" for i in range(11)]
        path.write_text(
            ",".join(names) + "\n" + ",".join("0" * 11) + "\n" + ",".join("1" * 11) + "\n"
        )
        code, _, err = run_cli(capsys, ["audit", str(path)])
        assert code == 3


class TestCovering:
    def test_example_space(self, capsys, triple_csv):
        report = run_json(capsys, ["covering", "--format", "json", triple_csv])
        a4 = report["result"]["elements"]["a4"]
        assert a4["minimal_description"] == [["a1", "a2", "a4"], ["a1", "a3", "a4"]]
        assert a4["neighborhood"] == ["a1", "a4"]
        assert a4["all_true"] is False
        assert report["result"]["ground"] == ["a1", "a2", "a3", "a4"]

    def test_uncovered_attributes_warn(self, capsys, single_csv):
        report = run_json(capsys, ["covering", "--format", "json", single_csv])
        assert report["result"]["elements"] == {}
        assert len(report["warnings"]) == 2


class TestInputHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["classify", "/nonexistent/input.csv"])
        assert code == 1
        assert "/nonexistent/input.csv" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[[not json")
        code, _, err = run_cli(capsys, ["classify", str(path)])
        assert code == 1
        assert "invalid JSON" in err

    def test_json_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text('{"a": 1}')
        code, _, err = run_cli(capsys, ["classify", str(path)])
        assert code == 1

    def test_ragged_csv(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n0\n1,2\n")
        code, _, err = run_cli(capsys, ["classify", str(path)])
        assert code == 1
        assert "ragged.csv" in err

    def test_empty_attribute_name(self, capsys, tmp_path):
        path = tmp_path / "unnamed.csv"
        path.write_text("a, ,c\n0,1,2\n1,0,2\n")
        code, out, err = run_cli(capsys, ["classify", str(path)])
        assert code == 1
        assert out == ""
        assert err == f"reducts: error: {path}: empty attribute name\n"

    def test_blank_family_name(self, capsys, tmp_path):
        # A JSON name of spaces is refused as a CSV header cell of spaces is.
        path = tmp_path / "blank.json"
        path.write_text('[[" ", "a"], ["a"]]')
        code, out, err = run_cli(capsys, ["classify", str(path)])
        assert code == 1
        assert out == ""
        assert err == f"reducts: error: {path}: blank attribute name in family input\n"

    def test_kind_override(self, capsys, tmp_path, walkthrough_rows):
        path = tmp_path / "family.txt"
        path.write_text(json.dumps(walkthrough_rows))
        report = run_json(
            capsys,
            ["classify", "--kind", "family", "--format", "json", str(path)],
        )
        assert sorted(report["result"]["characters"]) == list("abcdef")

    def test_malformed_corpus_never_exits_two(self, capsys, tmp_path):
        corpus = {
            "empty.csv": "",
            "header_only.csv": "a,b\n",
            "dup_names.csv": "a,a\n0,1\n",
            "ragged.csv": "a,b\n0,1\n2\n",
            "empty_member.json": "[[]]",
            "numbers.json": "[[1, 2]]",
            "scalar.json": "42",
            "truncated.json": "[[\"a\"",
        }
        for name, text in corpus.items():
            path = tmp_path / name
            path.write_text(text)
            for command in ("classify", "reduct", "all-reducts", "relations"):
                code, _, _ = run_cli(capsys, [command, str(path)])
                assert code == 1, (name, command)

    def test_non_string_family_member(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text('[["a", ["b"]]]')
        done = run_child([sys.executable, "-m", "reducts", "classify", str(path)])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "nested.json" in done.stderr

    def test_undecodable_csv(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n\xff,1\n0,1\n")
        done = run_child([sys.executable, "-m", "reducts", "classify", str(path)])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "latin1.csv" in done.stderr

    def test_byte_order_mark_is_not_a_name(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a1,a2\n0,1\n1,1\n".encode("utf-8-sig"))
        report = run_json(capsys, ["classify", "--format", "json", str(path)])
        assert report["attributes"] == ["a1", "a2"]

    def test_usage_errors_exit_one(self, capsys, triple_csv):
        assert main([]) == 1
        assert main(["reduct", "--algo", "nope", triple_csv]) == 1
        assert main(["nonsense", triple_csv]) == 1


@pytest.mark.parametrize(
    "command, passes",
    [
        ("classify", 1),
        ("reduct", 1),
        ("all-reducts", 1),
        ("covering", 1),
        ("relations", 1),
        ("audit", 1),
        ("matrix", 1),
    ],
)
def test_object_pairs_compared_once_per_pass(
    capsys, monkeypatch, triple_csv, command, passes
):
    """A table command, ``matrix`` included, walks the row pairs once."""
    started = []
    compare = discern._compare_pairs

    def counted(rows, attrs):
        started.append(rows)
        yield from compare(rows, attrs)

    monkeypatch.setattr(discern, "_compare_pairs", counted)
    run_json(capsys, [command, "--format", "json", triple_csv])
    assert len(started) == passes


def _watch(monkeypatch, *qualnames):
    """Rebind each ``module.function`` of the package, under every name any
    ``reducts`` module holds it by, to a wrapper logging each call as
    (qualname, qualnames of the watched calls enclosing it)."""
    log: list[tuple[str, tuple[str, ...]]] = []
    stack: list[str] = []
    for qualname in qualnames:
        module_name, _, attr = qualname.partition(".")
        fn = getattr(importlib.import_module(f"reducts.{module_name}"), attr)

        def wrapper(*args, _fn=fn, _name=qualname, **kwargs):
            log.append((_name, tuple(stack)))
            stack.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                stack.pop()

        for name, module in list(sys.modules.items()):
            if name == "reducts" or name.startswith("reducts."):
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, binding, wrapper)
    return log


def _calls(log, qualname, *, under=None):
    return [outer for name, outer in log if name == qualname and (under is None or under in outer)]


@pytest.fixture
def ten_attr_csv(tmp_path):
    rng = random.Random(8)
    rows = [[f"a{k}" for k in range(10)]]
    rows += [[str(rng.randrange(3)) for _ in range(10)] for _ in range(30)]
    path = tmp_path / "ten.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return str(path)


class TestOneProducer:
    """``classify_all`` absorbs the family once and derives each attribute's
    containing and substitute sets once; the commands read its evidence.
    ``relations`` derives each attribute's containing sets once, in its
    survey, and ``covering`` each attribute's minimal description once."""

    WATCHED = (
        "discern.absorb",
        "discern.containing_sets",
        "discern.substitute_sets",
        "characters.classify_all",
        "relations.relation_report_from_family",
        "covering.minimal_description",
    )

    def test_classify_derives_each_family_once(self, capsys, monkeypatch, ten_attr_csv):
        log = _watch(monkeypatch, *self.WATCHED)
        report = run_json(capsys, ["classify", "--format", "json", ten_attr_csv])
        assert len(report["attributes"]) == 10
        assert len(_calls(log, "discern.absorb")) == 1
        assert len(_calls(log, "discern.substitute_sets")) == 10
        containing = _calls(log, "discern.containing_sets")
        assert len(containing) == 10
        assert not _calls(log, "discern.containing_sets", under="discern.substitute_sets")
        assert all("characters.classify_all" in outer for outer in containing)

    def test_audit_reads_the_classifier_families(self, capsys, monkeypatch, ten_attr_csv):
        log = _watch(monkeypatch, *self.WATCHED)
        report = run_json(capsys, ["audit", "--format", "json", ten_attr_csv])
        assert len(report["attributes"]) == 10
        assert len(_calls(log, "discern.absorb")) == 1
        substitutes = _calls(log, "discern.substitute_sets")
        assert len(substitutes) == 10
        assert all("characters.classify_all" in outer for outer in substitutes)
        containing = _calls(log, "discern.containing_sets")
        assert len(containing) == 10
        assert not _calls(log, "discern.containing_sets", under="discern.substitute_sets")
        assert all("characters.classify_all" in outer for outer in containing)

    def test_covering_describes_each_attribute_once(self, capsys, monkeypatch, ten_attr_csv):
        log = _watch(monkeypatch, *self.WATCHED)
        report = run_json(capsys, ["covering", "--format", "json", ten_attr_csv])
        covered = len(report["result"]["elements"])
        assert covered > 0
        assert len(_calls(log, "covering.minimal_description")) == covered
        assert len(_calls(log, "discern.absorb")) == covered

    def test_covering_builds_each_containing_family_once(self, capsys, monkeypatch, ten_attr_csv):
        log = _watch(monkeypatch, *self.WATCHED)
        report = run_json(capsys, ["covering", "--format", "json", ten_attr_csv])
        covered = len(report["result"]["elements"])
        assert covered > 0
        containing = _calls(log, "discern.containing_sets")
        assert len(containing) == covered
        assert all("covering.minimal_description" in outer for outer in containing)

    def test_relations_builds_each_membership_family_once(
        self, capsys, monkeypatch, ten_attr_csv
    ):
        log = _watch(monkeypatch, *self.WATCHED)
        run_json(capsys, ["relations", "--format", "json", ten_attr_csv])
        containing = _calls(log, "discern.containing_sets")
        assert len(containing) == 10
        assert all(
            outer == ("relations.relation_report_from_family",) for outer in containing
        )

    def test_cli_binds_neither_family_function(self):
        assert not hasattr(cli, "containing_sets")
        assert not hasattr(cli, "substitute_sets")

    def test_relations_builds_each_partition_once(self, capsys, monkeypatch, ten_attr_csv):
        log = _watch(monkeypatch, "model.indiscernibility_partition")
        run_json(capsys, ["relations", "--format", "json", ten_attr_csv])
        assert len(_calls(log, "model.indiscernibility_partition")) == 10

    @pytest.mark.parametrize("command", ["classify", "covering", "matrix"])
    def test_each_attribute_set_is_named_once(self, capsys, monkeypatch, ten_attr_csv, command):
        named: list[frozenset[int]] = []

        def counting(attrs, names, _set_names=cli.set_names):
            named.append(frozenset(attrs))
            return _set_names(attrs, names)

        monkeypatch.setattr(cli, "set_names", counting)
        run_json(capsys, [command, "--format", "json", ten_attr_csv])
        assert named
        assert len(named) == len(set(named))


class TestRunApi:
    def test_run_writes_to_stream(self, triple_csv):
        out = io.StringIO()
        config = RunConfig(path=triple_csv, kind="table", command="classify", fmt="json")
        assert run(config, out) == 0
        assert json.loads(out.getvalue())["command"] == "classify"

    def test_config_validates_kind_and_cap(self, triple_csv):
        with pytest.raises(InputError):
            RunConfig(path=triple_csv, kind="stream", command="classify")
        with pytest.raises(InputError):
            RunConfig(
                path=triple_csv, kind="table", command="audit", max_attrs=0
            )
        with pytest.raises(InputError):
            RunConfig(path=triple_csv, kind="table", command="matrix", max_objects=0)


# Runs ``python -m reducts`` with fd 1 closed, opened on ``sys.argv[1]``, or
# on a pipe whose reader is gone; stdout is buffered, so a failed write
# leaves output behind for the interpreter's last flush.
_WITH_STDOUT = """
import os, sys
if sys.argv[1] == "closed":
    os.close(1)
else:
    if sys.argv[1] == "closed-pipe":
        reader, fd = os.pipe()
        os.close(reader)
    else:
        fd = os.open(sys.argv[1], os.O_WRONLY)
    os.dup2(fd, 1)
env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
os.execve(sys.executable, [sys.executable, "-m", "reducts", *sys.argv[2:]], env)
"""


class TestOutputErrors:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_pipe_exits_one(self, triple_csv, fmt):
        argv = ["classify", "--format", fmt, triple_csv]
        done = run_child([sys.executable, "-c", _WITH_STDOUT, "closed-pipe", *argv])
        assert done.returncode == 1
        assert done.stderr == "reducts: error: cannot write output: Broken pipe\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_full_device_exits_one(self, triple_csv, fmt):
        argv = ["classify", "--format", fmt, triple_csv]
        done = run_child([sys.executable, "-c", _WITH_STDOUT, "/dev/full", *argv])
        assert done.returncode == 1
        assert done.stderr == "reducts: error: cannot write output: No space left on device\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_one(self, triple_csv, fmt):
        argv = ["classify", "--format", fmt, triple_csv]
        done = run_child([sys.executable, "-c", _WITH_STDOUT, "closed", *argv])
        assert done.returncode == 1
        assert done.stderr == "reducts: error: cannot write output: standard output is closed\n"

    def test_memory_error_exits_three(self, capsys, monkeypatch, triple_csv):
        def exhausted(loaded, config):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "classify", (exhausted, cli._text_classify))
        code, out, err = run_cli(capsys, ["classify", triple_csv])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("reducts: out of memory")


def _stdlib_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _written(value) -> str:
    """What the CLI's JSON writer makes of ``value``."""
    out = io.StringIO()
    cli._dump(value, "\n", out)
    return out.getvalue()


_TRICKY_STRINGS = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n\t\r", " ", "\x7f", "é", "объект", "日本", "🙂", ""]
)
_STRINGS = st.text() | _TRICKY_STRINGS
# Lists of strings alone take the writer's one-join path, so they are leaves
# of their own.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | _STRINGS
    | st.lists(_STRINGS),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_STRINGS, inner),
    max_leaves=40,
)


class _Name(str):
    pass


class TestJsonWriter:
    @given(_JSON_VALUES)
    # A dict writes a list value of strings in place: a str subclass passes
    # the C encoder, and any other item sends the list back to the
    # recursive writer.
    @example({"k": ["a", 1]})
    @example({"k": ["y", _Name("x")]})
    @example({"k": [["a"]]})
    def test_matches_stdlib_indented_sorted(self, value):
        assert _written(value) == _stdlib_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            [1, 2.5],
            {"a": float("nan")},
            {1: "a"},
            {"a": 1, 2: "b"},
            {("a",): 1},
            {"a"},
            frozenset(),
            ReductStatus.VALID,
            type("Count", (int,), {})(3),
        ],
        ids=repr,
    )
    def test_unknown_values_raise(self, value):
        with pytest.raises(TypeError):
            _written(value)

    @pytest.mark.parametrize(
        "value",
        [_Name("x"), [_Name("x")], ["y", _Name("x")], {"k": _Name("x")}, {_Name("k"): 1}],
        ids=repr,
    )
    def test_str_subclass_raises_or_matches_stdlib(self, value):
        try:
            written = _written(value)
        except TypeError:
            return
        assert written == _stdlib_dumps(value)


def _seeded_table(seed: int, *, id_col: bool) -> str:
    """CSV text of a small seeded table drawn from a pool of few rows, so
    most rows repeat; with ``id_col``, labels and names are non-ASCII."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    pool = [[str(rng.randrange(3)) for _ in range(m)] for _ in range(rng.randint(2, 5))]
    rows = [rng.choice(pool) for _ in range(rng.randint(4, 10))]
    if not id_col:
        header = [f"a{k + 1}" for k in range(m)]
        return "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    header = ["id", *(f"ä{k}\\ß" for k in range(m))]
    labels = [f"obj-{k}-日本-é" for k in range(len(rows))]
    body = [[label, *r] for label, r in zip(labels, rows)]
    return "\n".join(",".join(r) for r in [header, *body]) + "\n"


_ROUND_TRIP_COMMANDS = [
    ["matrix"],
    ["classify"],
    ["reduct"],
    ["reduct", "--algo", "yao", "--select", "freq", "--verbose"],
    ["reduct", "--select", "freq", "--verbose"],
    ["all-reducts"],
    ["relations"],
    ["audit"],
    ["covering"],
]


@pytest.mark.parametrize("id_col", [False, True], ids=["plain", "id-col"])
@pytest.mark.parametrize("seed", range(4))
def test_json_report_reserializes_byte_identically(capsys, tmp_path, seed, id_col):
    """Every subcommand's JSON report is its own canonical serialization
    (``run_json`` re-serializes it with the stdlib and compares bytes)."""
    path = tmp_path / "table.csv"
    path.write_text(_seeded_table(seed, id_col=id_col), encoding="utf-8")
    extra = ["--id-col"] if id_col else []
    for command in _ROUND_TRIP_COMMANDS:
        run_json(capsys, [*command, "--format", "json", *extra, str(path)])


def _run_in_child(argv, triple_csv):
    return run_child([*argv, "classify", "--format", "json", triple_csv])


def _assert_classifies_triple(done):
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert json.loads(done.stdout)["result"]["characters"]["a4"] == "unnecessary"


def test_console_script_is_wired(triple_csv):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["reducts"]
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main
    _assert_classifies_triple(
        _run_in_child([sys.executable, "-m", "reducts"], triple_csv)
    )


@pytest.mark.skipif(shutil.which("reducts") is None, reason="reducts not installed")
def test_installed_console_script_runs(triple_csv):
    _assert_classifies_triple(_run_in_child([shutil.which("reducts")], triple_csv))


_CLEAN_CELLS = st.sampled_from(["0", "1", "2", "é"])
_DIRTY_CELLS = st.sampled_from(["0", "", " ", '"', "x,y", "\ufeff", "\x00"])
_FUZZ_NAMES = st.sampled_from(["a1", "a2", "a3", "ä", "", " "])


@st.composite
def _csv_text(draw):
    """Rectangular tables, some wider than the audit or enumeration caps,
    beside ragged, empty and header-only ones; joined by hand, so stray
    quotes and commas reach the parser."""
    width = draw(st.sampled_from([1, 2, 3, 4, 5, 12, 21]))
    header = [f"a{k + 1}" for k in range(width)]
    if draw(st.booleans()):
        rows = draw(
            st.lists(
                st.lists(_CLEAN_CELLS, min_size=width, max_size=width),
                min_size=1,
                max_size=8,
            )
        )
    else:
        header = draw(st.lists(_FUZZ_NAMES, max_size=width + 1))
        rows = draw(st.lists(st.lists(_DIRTY_CELLS, max_size=width + 1), max_size=8))
    lines = [header, *rows] if draw(st.booleans()) or rows else []
    return "\n".join(",".join(r) for r in lines) + draw(st.sampled_from(["", "\n"]))


_FUZZ_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _FUZZ_NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_FUZZ_NAMES, inner, max_size=2),
    max_leaves=12,
)
_FAMILIES = st.lists(
    st.lists(st.sampled_from(["a1", "a2", "a3", "a4", "ä"]), min_size=1, max_size=4),
    max_size=6,
)


@st.composite
def _fuzz_input(draw):
    """File bytes, a file suffix that matches them half the time, and
    whether the bytes are a well-formed table over the object cap; half the
    inputs start with a UTF-8 byte order mark."""
    shape = draw(st.sampled_from(["table", "family", "json", "bytes", "spliced", "over-cap"]))
    if shape == "over-cap":
        # A leading serial number keeps the labels distinct under --id-col.
        width = draw(st.integers(1, 3))
        row = st.lists(_CLEAN_CELLS, min_size=width, max_size=width)
        pool = draw(st.lists(row, min_size=1, max_size=3))
        n = cli.OBJECT_CAP + draw(st.integers(1, 3))
        lines = [[f"a{k}" for k in range(width + 1)]]
        lines += ([str(k), *pool[k % len(pool)]] for k in range(n))
        data, natural = "".join(",".join(r) + "\n" for r in lines).encode("utf-8"), ".csv"
    elif shape == "table":
        data, natural = draw(_csv_text()).encode("utf-8"), ".csv"
    elif shape == "bytes":
        data, natural = draw(st.binary(max_size=120)), ".csv"
    else:
        value = draw(_FAMILIES if shape == "family" else _FUZZ_JSON_VALUES)
        data, natural = json.dumps(value, ensure_ascii=False).encode("utf-8"), ".json"
        if shape == "spliced":
            data = data[: draw(st.integers(0, len(data)))] + draw(st.binary(max_size=20))
    suffix = draw(st.sampled_from([natural, ".csv", ".json", ".txt"]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data, suffix, shape == "over-cap"


_FUZZ_COMMANDS = [
    ["classify"],
    ["matrix"],
    ["reduct"],
    ["reduct", "--algo", "yao", "--select", "freq", "--verbose"],
    ["reduct", "--select", "freq"],
    ["all-reducts"],
    ["relations"],
    ["relations", "--excludes", "a1->a2"],
    ["audit"],
    ["covering"],
]


@given(
    case=_fuzz_input(),
    command=st.sampled_from(_FUZZ_COMMANDS),
    kind=st.sampled_from([[], [], ["--kind", "table"], ["--kind", "family"]]),
    id_col=st.sampled_from([[], ["--id-col"]]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_fuzzed_inputs_end_in_a_documented_exit_code(
    tmp_path_factory, case, command, kind, id_col, fmt
):
    """Whatever the file holds, every subcommand exits 0, 1 or 3 with no
    exception escaping ``main`` and no traceback on stderr; a table over the
    object cap, read as a table, exits 3."""
    data, suffix, over_cap = case
    path = tmp_path_factory.getbasetemp() / f"fuzzed-input{suffix}"
    path.write_bytes(data)
    argv = [*command, *kind, *id_col, "--format", fmt, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3), (argv, data, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if over_cap and (kind == ["--kind", "table"] or (not kind and suffix != ".json")):
        assert code == 3, (argv, err.getvalue())
    if code == 0 and fmt == "json":
        json.loads(out.getvalue())
