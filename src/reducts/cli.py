"""Command line front end for the reduction library.

Two input formats are understood: a CSV table whose header row names the
attributes (optionally with a leading object-label column via --id-col),
and a JSON file holding a raw set family as an array of arrays of
attribute names.  The kind is inferred from the file extension and can be
forced with --kind.  Each subcommand builds one result object: --format
json prints it as a canonical JSON document that re-serializes
byte-identically, and the plain-text report is rendered from that same
object, so the two formats cannot disagree.

The JSON document is written by this module's own writer, ``_dump``,
whose output is byte for byte that of ``json.dumps(report, indent=2,
sort_keys=True)``.  The stdlib drops to a pure-Python encoder whenever
``indent`` is set; the writer instead encodes every string, and joins
every list of strings, in C, and appends the pieces to one list that
``run`` joins once.  ``matrix`` and its n^2 object pairs are streamed:
the pairs stay a ``_PairRecords`` that reads each entry off the matrix's
stored cells, and the writer encodes each distinct entry and each label
once and sends each pair's record to the output as a string of its own.
No string of the whole ``matrix`` document, and no dict per pair, is
built.  A table over the object cap (``--max-objects``) is refused before
any of its rows is compared.

Exit codes: 0 success, 1 malformed input or usage, 2 internal invariant
violation, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from .characters import classify_all
from .covering import covering_from_family, singleton_equivalences
from .discern import SetFamily, discernibility_matrix, family_from_names, reducts_by_expansion
from .errors import InputError, InvariantViolation, ResourceLimitError
from .model import InformationSystem, load_table, set_names
from .reducers import (
    ReductStatus,
    ReductTrace,
    SelectionPolicy,
    all_reducts_bruteforce,
    ea_reduce,
    verify_reduct,
    yao_row_wise,
)
from .relations import audit_theorems, relation_report_from_family, relation_report_from_system

__all__ = ["RunConfig", "run", "main"]

ORACLE_CAP = 20
AUDIT_CAP = 10
OBJECT_CAP = 5000


@dataclass
class RunConfig:
    """Everything one invocation needs, already validated."""

    path: str
    kind: str
    command: str
    policy: SelectionPolicy = SelectionPolicy.FIRST
    algorithm: str = "ea"
    minimize: bool = True
    verbose: bool = False
    max_attrs: int | None = None
    max_objects: int | None = None
    fmt: str = "text"
    id_col: bool = False
    exclusion_queries: tuple[tuple[tuple[str, ...], str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("table", "family"):
            raise InputError(f"unknown input kind {self.kind!r}")
        if self.max_attrs is not None and self.max_attrs < 1:
            raise InputError("--max-attrs must be at least 1")
        if self.max_objects is not None and self.max_objects < 1:
            raise InputError("--max-objects must be at least 1")


@dataclass
class _Loaded:
    """Parsed input plus the name/index mappings every command needs.

    A table's family is built on first use: the commands that compare the
    object pairs themselves never read it, so they make the only pass.
    ``names_of`` holds the names of every attribute set named so far; a
    report shares each list wherever its set recurs, so none may be changed.
    """

    names: tuple[str, ...]
    system: InformationSystem | None = None
    labels: tuple[str, ...] = ()
    _family: SetFamily | None = None
    names_of: dict[frozenset[int], list[str]] = field(default_factory=dict)

    @property
    def family(self) -> SetFamily:
        if self._family is None:
            self._family = discernibility_matrix(self.system).family
        return self._family

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown attribute {name!r}") from None

    def set_names(self, attrs: frozenset[int]) -> list[str]:
        names = self.names_of.get(attrs)
        if names is None:
            names = self.names_of[attrs] = set_names(attrs, self.names)
        return names

    def family_names(self, fam) -> list[list[str]]:
        return [self.set_names(m) for m in fam]

    def require_system(self, command: str) -> InformationSystem:
        if self.system is None:
            raise InputError(f"the {command} command needs a CSV table input")
        return self.system


def _load(config: RunConfig) -> tuple[_Loaded, list[str]]:
    """The parsed input, and the warnings its caps raise.  A table over the
    object cap is refused before any pair of its rows is compared."""
    try:
        with open(config.path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read {config.path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{config.path}: not UTF-8 text") from None
    if config.kind == "table":
        try:
            system = load_table(text, id_col=config.id_col)
        except InputError as err:
            raise InputError(f"{config.path}: {err}") from None
        cap, warnings = _cap_warning(
            "--max-objects", config.max_objects, OBJECT_CAP,
            "object pairs grow with the square of the object count",
        )
        if len(system.rows) > cap:
            raise ResourceLimitError(
                f"{config.path}: table has {len(system.rows)} objects, cap is {cap}"
            )
        return _Loaded(system.attributes, system, system.labels), warnings
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(
            f"{config.path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}"
        ) from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(
            f"{config.path}: a family file must be an array of arrays of names"
        )
    try:
        family, names = family_from_names(rows)
    except InputError as err:
        raise InputError(f"{config.path}: {err}") from None
    return _Loaded(names, _family=family), []


def _universe(loaded: _Loaded) -> frozenset[int]:
    return frozenset(range(len(loaded.names)))


def _pad(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _braces(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _members(family: list[list[str]]) -> str:
    return ", ".join(_braces(m) for m in family) or "(empty)"


def _listing(names: list[str]) -> str:
    return ", ".join(names) or "(none)"


@dataclass(frozen=True)
class _PairRecords:
    """The ``matrix`` pairs, read once, in row-major order.

    They stand for the list of records ``{"attributes": names, "objects":
    [label_i, label_j]}``, one per object pair ``i < j``, which is how the
    JSON writer writes them.  ``rows`` yields, for each object in order, the
    entries of its pairs with every later object, read off the matrix's
    stored cells, and ``names`` maps each entry to its names; nothing per
    pair is built.
    """

    labels: tuple[str, ...]
    names: dict[frozenset[int], list[str]]
    rows: Iterator[Iterator[frozenset[int]]]


def _cmd_matrix(loaded: _Loaded, config: RunConfig):
    dm = discernibility_matrix(loaded.require_system("matrix"))
    family = loaded.family_names(dm.family)
    # The empty entry is that of two equal rows; every other is a member.
    names = {entry: loaded.set_names(entry) for entry in (frozenset(), *dm.family)}
    result = {
        "pairs": _PairRecords(loaded.labels, names, dm.entry_rows()),
        "family": family,
    }
    return result, []


def _text_matrix(loaded: _Loaded, result: dict) -> list[str]:
    labels = loaded.labels
    lines = [f"discernibility matrix: {len(labels)} objects, {len(loaded.names)} attributes"]
    if len(labels) > 1:
        records = result["pairs"]
        cell = {entry: ", ".join(names) or "-" for entry, names in records.names.items()}
        grid = [[""] + list(labels[1:])]
        for i, row in zip(range(len(labels) - 1), records.rows):
            grid.append([labels[i]] + [""] * i + list(map(cell.__getitem__, row)))
        lines += _pad(grid)
    lines.append(f"family: {_members(result['family'])}")
    return lines


def _cmd_classify(loaded: _Loaded, config: RunConfig):
    report = classify_all(loaded.family, _universe(loaded))
    characters = {
        loaded.names[a]: ev.character.value for a, ev in report.by_attr.items()
    }
    families = {
        loaded.names[a]: {
            "containing": loaded.family_names(ev.containing),
            "substitutes": loaded.family_names(ev.substitutes),
        }
        for a, ev in sorted(report.by_attr.items())
    }
    result = {
        "characters": characters,
        "core": loaded.set_names(report.core),
        "relative_necessary": loaded.set_names(report.relative_necessary),
        "unnecessary": loaded.set_names(report.unnecessary),
        "families": families,
    }
    return result, []


def _text_classify(loaded: _Loaded, result: dict) -> list[str]:
    lines = [
        f"core: {_listing(result['core'])}",
        f"relative necessary: {_listing(result['relative_necessary'])}",
        f"unnecessary: {_listing(result['unnecessary'])}",
        "",
    ]
    for name, families in result["families"].items():
        lines.append(f"{name}: {result['characters'][name]}")
        lines.append(f"  containing: {_members(families['containing'])}")
        lines.append(f"  substitutes: {_members(families['substitutes'])}")
    return lines


def _trace_json(loaded: _Loaded, trace: ReductTrace) -> list[dict]:
    steps = []
    for step in trace.steps:
        if trace.algorithm == "yao":
            steps.append(
                {
                    "pivot": step.pivot,
                    "absorbed": loaded.set_names(step.absorbed),
                    "chosen": loaded.names[step.chosen],
                    "entries_after": loaded.family_names(step.entries_after),
                }
            )
        else:
            steps.append(
                {
                    "chosen": loaded.names[step.chosen],
                    "containing": loaded.family_names(step.containing),
                    "substitutes": loaded.family_names(step.substitutes),
                    "inner_reduct": loaded.set_names(step.inner_reduct),
                    "chosen_added": step.a_added,
                    "blocked": loaded.set_names(step.blocked)
                    if step.blocked is not None
                    else None,
                    "family_after": loaded.family_names(step.family_after),
                }
            )
    return steps


def _trace_lines(algorithm: str, steps: list[dict]) -> list[str]:
    lines = []
    for k, step in enumerate(steps, start=1):
        if algorithm == "yao":
            lines.append(
                f"step {k}: entry {step['pivot']} absorbed to "
                f"{_braces(step['absorbed'])}, chose {step['chosen']}"
            )
            lines.append(f"  entries now: {_members(step['entries_after'])}")
            continue
        chosen = step["chosen"]
        lines.append(f"step {k}: examining {chosen}")
        lines.append(f"  containing: {_members(step['containing'])}")
        lines.append(f"  substitutes: {_members(step['substitutes'])}")
        lines.append(f"  inner reduct: {_braces(step['inner_reduct'])}")
        if not step["chosen_added"]:
            lines.append(f"  dropped {chosen}")
        elif step["blocked"] is None:
            lines.append(f"  kept {chosen}")
        else:
            lines.append(
                f"  kept {chosen} (no inner attribute hits {_braces(step['blocked'])})"
            )
        lines.append(f"  family now: {_members(step['family_after'])}")
    return lines


def _cmd_reduct(loaded: _Loaded, config: RunConfig):
    if config.algorithm == "yao":
        reduct, trace = yao_row_wise(loaded.family, config.policy)
    else:
        reduct, trace = ea_reduce(
            loaded.family, config.policy, minimize=config.minimize
        )
    check = verify_reduct(loaded.family, reduct)
    # Skipping ea's final trim may leave a redundant attribute, never a miss.
    trim_skipped = trace.algorithm == "ea" and not trace.minimized
    if not (check.is_valid or (trim_skipped and check.status is ReductStatus.NOT_MINIMAL)):
        raise InvariantViolation(
            f"{trace.algorithm} produced {_braces(loaded.set_names(reduct))}, "
            f"which fails verification: {check.status.value}"
        )
    result = {
        "algorithm": trace.algorithm,
        "policy": config.policy.value,
        "reduct": loaded.set_names(reduct),
        "valid": check.is_valid,
    }
    if trace.minimized and trace.before_minimize != reduct:
        result["raw"] = loaded.set_names(trace.before_minimize)
    if config.verbose:
        result["trace"] = _trace_json(loaded, trace)
    return result, []


def _text_reduct(loaded: _Loaded, result: dict) -> list[str]:
    lines = [
        f"algorithm: {result['algorithm']}  selection: {result['policy']}",
        f"reduct: {_braces(result['reduct'])}",
    ]
    if "raw" in result:
        lines.append(f"raw result before minimization: {_braces(result['raw'])}")
    lines.append(f"valid: {'yes' if result['valid'] else 'no'}")
    if "trace" in result:
        lines += [""] + _trace_lines(result["algorithm"], result["trace"])
    return lines


def _cap_warning(
    flag: str, value: int | None, default: int, growth: str
) -> tuple[int, list[str]]:
    """The cap ``flag`` sets (``default`` when unset), and the warning a
    cap raised above its default gets: ``growth`` says what grows with it."""
    cap = value if value is not None else default
    warnings = []
    if cap > default:
        warnings.append(f"{flag} {cap} is above the default {default}; {growth}")
    return cap, warnings


def _cmd_all_reducts(loaded: _Loaded, config: RunConfig):
    cap, warnings = _cap_warning(
        "--max-attrs", config.max_attrs, ORACLE_CAP, "both enumerations grow exponentially"
    )
    reducts = all_reducts_bruteforce(loaded.family, _universe(loaded), cap=cap)
    expanded = reducts_by_expansion(loaded.family, cap=cap)
    if set(reducts) != set(expanded):
        raise InvariantViolation(
            "brute-force enumeration and prime-implicant expansion disagree: "
            f"{[sorted(r) for r in reducts]} vs {[sorted(r) for r in expanded]}"
        )
    result = {
        "reducts": loaded.family_names(reducts),
        "count": len(reducts),
    }
    return result, warnings


def _text_all_reducts(loaded: _Loaded, result: dict) -> list[str]:
    return [f"{result['count']} reduct(s)"] + [_braces(r) for r in result["reducts"]]


def _cmd_relations(loaded: _Loaded, config: RunConfig):
    queries = tuple(
        (frozenset(loaded.index(n) for n in c_names), loaded.index(target))
        for c_names, target in config.exclusion_queries
    )
    if loaded.system is not None:
        report = relation_report_from_system(loaded.system, queries)
    else:
        report = relation_report_from_family(
            loaded.family, _universe(loaded), queries
        )
    result = {
        key: [[loaded.names[a], loaded.names[b]] for a, b in pairs]
        for key, pairs in (
            ("finer", report.finer_pairs),
            ("equivalent", report.equivalent_pairs),
            ("coupled", report.coupled_pairs),
        )
    }
    result["exclusions"] = [
        {
            "given": loaded.set_names(c),
            "attribute": loaded.names[a],
            "excluded": verdict,
        }
        for c, a, verdict in report.exclusions
    ]
    return result, []


def _text_relations(loaded: _Loaded, result: dict) -> list[str]:
    lines = [
        f"{key}: " + ("; ".join(f"{x} {verb} {y}" for x, y in result[key]) or "(none)")
        for key, verb in (("finer", "refines"), ("equivalent", "~"), ("coupled", "with"))
    ]
    for entry in result["exclusions"]:
        verdict = "yes" if entry["excluded"] else "no"
        lines.append(
            f"excludes {entry['attribute']} given {_braces(entry['given'])}: {verdict}"
        )
    return lines


def _cmd_audit(loaded: _Loaded, config: RunConfig):
    system = loaded.require_system("audit")
    cap, warnings = _cap_warning(
        "--max-attrs", config.max_attrs, AUDIT_CAP, "both enumerations grow exponentially"
    )
    report = audit_theorems(system, max_attrs=cap)
    claims = {
        claim: [
            {
                "subject": inst.subject,
                "lhs": inst.lhs,
                "rhs": inst.rhs,
                "agree": inst.agree,
                "counterexample": inst.counterexample,
            }
            for inst in rows
        ]
        for claim, rows in report.by_claim().items()
    }
    result = {
        "claims": claims,
        "all_agree": report.all_agree,
        "disagreements": len(report.disagreements()),
    }
    return result, warnings


def _text_audit(loaded: _Loaded, result: dict) -> list[str]:
    claims = sorted(result["claims"].items())
    lines = []
    for claim, rows in claims:
        bad = sum(1 for row in rows if not row["agree"])
        state = "all agree" if bad == 0 else f"{bad} disagreement(s)"
        lines.append(f"{claim}: {len(rows)} instance(s), {state}")
    lines.append("")
    if result["all_agree"]:
        lines.append("every audited claim agrees on this table")
    for claim, rows in claims:
        for row in rows:
            if not row["agree"]:
                lines.append(
                    f"disagreement: {claim} at {row['subject']} "
                    f"(lhs={row['lhs']}, rhs={row['rhs']})"
                )
                lines.append(f"  {row['counterexample']}")
    return lines


_SINGLETON_CHECKS = ("in_cover", "minimal_is_singleton", "lower_is_self", "minimal_is_lower")


def _cmd_covering(loaded: _Loaded, config: RunConfig):
    space = covering_from_family(loaded.family)
    uncovered = sorted(set(range(len(loaded.names))) - space.ground)
    warnings = [
        f"attribute {loaded.names[a]} appears in no family member and "
        f"is outside the covering space"
        for a in uncovered
    ]
    per_attr = {}
    for a in sorted(space.ground):
        checks = singleton_equivalences(space, a)
        # Every member containing a holds a minimal one, so the minimal
        # members meet in the neighborhood, the meet of all of them.
        nbhd = frozenset.intersection(*checks.minimal_description)
        per_attr[loaded.names[a]] = {
            "minimal_description": loaded.family_names(checks.minimal_description),
            "neighborhood": loaded.set_names(nbhd),
            **{check: getattr(checks, check) for check in _SINGLETON_CHECKS},
            "all_true": checks.all_true,
        }
    result = {
        "ground": loaded.set_names(space.ground),
        "cover": loaded.family_names(space.cover),
        "elements": per_attr,
    }
    return result, warnings


def _text_covering(loaded: _Loaded, result: dict) -> list[str]:
    grid = [["attribute", "minimal description", "neighborhood",
             "in cover", "single minimal", "lower is self", "minimal is lower"]]
    for name, element in result["elements"].items():
        grid.append(
            [
                name,
                _members(element["minimal_description"]),
                _braces(element["neighborhood"]),
            ]
            + ["yes" if element[check] else "no" for check in _SINGLETON_CHECKS]
        )
    return _pad(grid) if len(grid) > 1 else ["(empty covering space)"]


_encode_str = json.encoder.encode_basestring_ascii


def _dump(obj, nl: str, parts: list[str], out) -> None:
    """Append ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    prints it to ``parts``.

    ``nl`` is a newline followed by the indentation of ``obj``'s own line.
    Only the shapes the builders emit are known: dicts with str keys,
    lists and tuples, str, int, bool and None, each of exactly that type,
    and ``_PairRecords``.  Anything else raises TypeError, except that a
    str subclass inside a list or as a key passes the C encoder and comes
    out as the stdlib writes it.  A list of strings is written with one
    C-level join, and a dict's value that is a non-empty list of strings is
    written in place.  ``_PairRecords`` alone is streamed: ``parts`` so far
    goes to ``out`` as one string with the first pair's record, then every
    later record as a string of its own, and ``parts`` goes on from the
    list's close.
    """
    kind = type(obj)
    if kind is str:
        parts.append(_encode_str(obj))
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = nl + "  "
        try:
            parts.append("[" + inner + ("," + inner).join(map(_encode_str, obj)) + nl + "]")
        except TypeError:  # not all strings
            parts.append("[" + inner)
            for k, item in enumerate(obj):
                if k:
                    parts.append("," + inner)
                _dump(item, inner, parts, out)
            parts.append(nl + "]")
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        inner = nl + "  "
        item = inner + "  "
        sep = "," + item
        opener = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            head = opener + _encode_str(key) + ": "
            opener = "," + inner
            if type(value) is list and value:
                try:
                    parts.append(head + "[" + item + sep.join(map(_encode_str, value)) + inner + "]")
                    continue
                except TypeError:  # not all strings
                    pass
            parts.append(head)
            _dump(value, inner, parts, out)
        parts.append(nl + "}")
    elif obj is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif kind is _PairRecords:
        _dump_pairs(obj, nl, parts, out)
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def _dump_pairs(records: _PairRecords, nl: str, parts: list[str], out) -> None:
    """``_dump`` for the ``matrix`` pairs, one write per pair record.

    Each entry's attribute list and each label is encoded once, at its
    final indentation, so a record costs one join of three strings.  A
    record is a short string, so streaming makes no allocation that grows
    with the table.  (Batched by object row, tens of kB at a time, the
    pieces left holes of varying size in the C heap, and the peak memory
    of a process collecting many matrices in an ``io.StringIO`` varied
    from run to run by about one document.)
    """
    labels = [_encode_str(label) for label in records.labels]
    if len(labels) < 2:
        parts.append("[]")
        return
    record = nl + "  "  # each record's line
    key = record + "  "  # its keys
    item = key + "  "  # the items of its two lists
    head = {  # a record's text up to its first label
        entry: '"attributes": '
        + ("[" + item + ("," + item).join(map(_encode_str, names)) + key + "]" if names else "[]")
        + "," + key + '"objects": [' + item
        for entry, names in records.names.items()
    }
    # The list opens with the first pair's record; every later record
    # opens by closing the one before.
    reopen = key + "]" + record + "}," + record + "{" + key
    after = {entry: reopen + text for entry, text in head.items()}
    rows = zip(range(len(labels) - 1), records.rows)
    _, row = next(rows)
    first = labels[0] + "," + item
    parts.append("[" + record + "{" + key + head[next(row)] + first + labels[1])
    out.write("".join(parts))
    parts.clear()
    out.writelines(map("".join, zip(map(after.__getitem__, row), repeat(first), labels[2:])))
    for i, row in rows:
        first = labels[i] + "," + item
        texts = map("".join, zip(map(after.__getitem__, row), repeat(first), labels[i + 1 :]))
        out.writelines(texts)
    parts.append(key + "]" + record + "}" + nl + "]")


# Each subcommand: a builder returning (result, warnings) and a renderer
# that reads only that result (plus input labels) for the text report.
_COMMANDS = {
    "matrix": (_cmd_matrix, _text_matrix),
    "classify": (_cmd_classify, _text_classify),
    "reduct": (_cmd_reduct, _text_reduct),
    "all-reducts": (_cmd_all_reducts, _text_all_reducts),
    "relations": (_cmd_relations, _text_relations),
    "audit": (_cmd_audit, _text_audit),
    "covering": (_cmd_covering, _text_covering),
}


def run(config: RunConfig, out=None) -> int:
    """Execute one subcommand and write its report to the text stream
    ``out`` (its ``write`` and ``writelines``)."""
    out = out if out is not None else sys.stdout
    loaded, warnings = _load(config)
    build, render = _COMMANDS[config.command]
    result, command_warnings = build(loaded, config)
    warnings += command_warnings
    if config.fmt == "json":
        report = {
            "command": config.command,
            "input": config.path,
            "attributes": list(loaded.names),
            "result": result,
            "warnings": warnings,
        }
        parts: list[str] = []
        _dump(report, "\n", parts, out)
        parts.append("\n")
        out.write("".join(parts))
    else:
        for line in render(loaded, result):
            out.write(line + "\n")
        for warning in warnings:
            out.write(f"warning: {warning}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; here that code means an
    internal invariant failed, so usage errors leave with 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (default: text)",
    )
    common.add_argument(
        "--id-col",
        action="store_true",
        help="treat the first CSV column as object labels",
    )
    common.add_argument(
        "--max-objects",
        type=int,
        help=f"object cap for table input (default: {OBJECT_CAP})",
    )
    common.add_argument(
        "--kind",
        choices=("table", "family"),
        help="input kind; inferred from the extension when omitted "
        "(.json reads as a family, anything else as a table)",
    )
    common.add_argument("input", help="path to a CSV table or JSON family")

    parser = _Parser(
        prog="reducts",
        description="Attribute reduction over categorical tables and set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "matrix", parents=[common], help="print the discernibility matrix"
    )
    sub.add_parser(
        "classify",
        parents=[common],
        help="classify attributes as core, relatively necessary, or unnecessary",
    )
    reduct = sub.add_parser(
        "reduct", parents=[common], help="construct one reduct"
    )
    reduct.add_argument(
        "--algo", choices=("ea", "yao"), default="ea", help="construction algorithm"
    )
    reduct.add_argument(
        "--select",
        choices=("first", "freq"),
        default="first",
        help="attribute selection policy",
    )
    reduct.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip the final minimization pass (ea only)",
    )
    reduct.add_argument(
        "--verbose", action="store_true", help="include the step-by-step trace"
    )
    all_reducts = sub.add_parser(
        "all-reducts", parents=[common], help="enumerate every reduct"
    )
    all_reducts.add_argument(
        "--max-attrs",
        type=int,
        help=f"attribute cap for enumeration (default: {ORACLE_CAP})",
    )
    relations = sub.add_parser(
        "relations",
        parents=[common],
        help="survey refinement, equivalence, and coupling between attributes",
    )
    relations.add_argument(
        "--excludes",
        action="append",
        default=[],
        metavar="C->a",
        help='exclusion query such as "a1,a2->a3"; repeatable',
    )
    audit = sub.add_parser(
        "audit", parents=[common], help="measure the cataloged claims on a table"
    )
    audit.add_argument(
        "--max-attrs",
        type=int,
        help=f"attribute cap for the audit (default: {AUDIT_CAP})",
    )
    sub.add_parser(
        "covering",
        parents=[common],
        help="describe each attribute inside the covering space of the family",
    )
    return parser


def _parse_exclusion(query: str) -> tuple[tuple[str, ...], str]:
    left, sep, right = query.partition("->")
    target = right.strip()
    if not sep or not target:
        raise InputError(
            f'exclusion query {query!r} must look like "a1,a2->a3"'
        )
    given = tuple(p.strip() for p in left.split(",") if p.strip())
    return given, target


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kind = args.kind
    if kind is None:
        kind = "family" if args.input.lower().endswith(".json") else "table"
    policy = SelectionPolicy(getattr(args, "select", "first"))
    queries = tuple(
        _parse_exclusion(q) for q in getattr(args, "excludes", [])
    )
    return RunConfig(
        path=args.input,
        kind=kind,
        command=args.command,
        policy=policy,
        algorithm=getattr(args, "algo", "ea"),
        minimize=not getattr(args, "no_minimize", False),
        verbose=getattr(args, "verbose", False),
        max_attrs=getattr(args, "max_attrs", None),
        max_objects=args.max_objects,
        fmt=args.fmt,
        id_col=args.id_col,
        exclusion_queries=queries,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return run(_config_from_args(args))
    except SystemExit as exc:
        return int(exc.code or 0)
    except InputError as err:
        print(f"reducts: error: {err}", file=sys.stderr)
        return 1
    except InvariantViolation as err:
        print(f"reducts: internal check failed: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"reducts: refusing to run: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
