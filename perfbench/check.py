"""Check each op's output against the oracle.

``check`` returns None for a correct output and a one-line reason
otherwise.  JSON reports are checked field by field; text reports by their
headline lines.  Names are compared as sets, so the order the program
prints names in does not matter; member order is checked only where it is
specified, for the matrix family, which keeps first-seen order.
"""

from __future__ import annotations

import json
import re

import oracle

# Audited claims whose two sides coincide on every table, so the audit may
# never report a disagreement on them.
PROVEN_CLAIMS = {
    "substitute_transfer",
    "substitute_transfer_expanded",
    "blocked_substitute",
    "blocked_substitute_witness",
    "minimal_escape",
    "finer_membership",
    "equal_neighborhoods",
    "finer_no_cohabitation",
}

_SET = re.compile(r"\{([^}]*)\}")


def _sets(text: str) -> list[frozenset[str]]:
    return [frozenset(n for n in body.split(", ") if n) for body in _SET.findall(text)]


def _names(text: str) -> frozenset[str]:
    return frozenset() if text == "(none)" else frozenset(text.split(", "))


def _line(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix) :]
    raise ValueError(f"no line starting {prefix!r}")


class _Expect:
    """The oracle's answers for one input, as sets of attribute names."""

    def __init__(self, facts: oracle.Facts, rows) -> None:
        self.facts = facts
        self.rows = rows
        self.all_names = frozenset(facts.names)
        self.core = facts.names_of(facts.core)
        self.relative = facts.names_of(facts.relative)
        self.unnecessary = self.all_names - self.core - self.relative
        self.reducts = {facts.names_of(r) for r in facts.reducts}
        self.universe = facts.names_of(oracle.union(facts.family))

    def is_reduct(self, names) -> bool:
        return set(names) <= self.all_names and self.facts.is_reduct(self.facts.mask_of(names))

    def minimal_description(self, name: str) -> set[frozenset[str]]:
        bit = 1 << self.facts.names.index(name)
        return {self.facts.names_of(m) for m in oracle.minimal([k for k in self.facts.family if k & bit])}

    def matrix(self) -> tuple[list[int], list[int]]:
        masks = oracle.pair_masks(self.rows)
        return masks, oracle.first_seen(masks)

    def relations(self):
        return oracle.relations(self.facts, self.rows)


def _check_json(kind: str, report: dict, exp: _Expect) -> str | None:
    res = report["result"]
    if kind == "classify":
        got = (set(res["core"]), set(res["relative_necessary"]), set(res["unnecessary"]))
        if got != (exp.core, exp.relative, exp.unnecessary):
            return f"core/relative/unnecessary {got} != oracle"
        if set(res["characters"]) != exp.all_names:
            return "characters do not cover every attribute"
    elif kind in ("reduct_ea", "reduct_yao"):
        if res["valid"] is not True or not exp.is_reduct(res["reduct"]):
            return f"{res['reduct']} is not a minimal hitting set"
    elif kind == "all_reducts":
        got = {frozenset(r) for r in res["reducts"]}
        if got != exp.reducts or res["count"] != len(exp.reducts):
            return f"{len(got)} reducts, oracle has {len(exp.reducts)}"
    elif kind == "covering":
        if set(res["ground"]) != exp.universe:
            return "covering ground is not the family's universe"
        for name, el in res["elements"].items():
            flags = {el[k] for k in ("in_cover", "minimal_is_singleton", "lower_is_self", "minimal_is_lower")}
            if flags != {el["all_true"]} or el["all_true"] != (name in exp.core):
                return f"singleton checks of {name} disagree with core membership"
            if {frozenset(m) for m in el["minimal_description"]} != exp.minimal_description(name):
                return f"minimal description of {name} differs"
    elif kind == "matrix":
        masks, family = exp.matrix()
        pairs = res["pairs"]
        if len(pairs) != len(masks):
            return f"{len(pairs)} pairs, expected {len(masks)}"
        for pair, mask in zip(pairs, masks):
            if set(pair["attributes"]) != exp.facts.names_of(mask):
                return f"pair {pair['objects']} differs"
        if [frozenset(m) for m in res["family"]] != [exp.facts.names_of(m) for m in family]:
            return "matrix family is not in first-seen order"
    elif kind == "relations":
        finer, equivalent, coupled = exp.relations()
        if {tuple(p) for p in res["finer"]} != finer:
            return "finer pairs differ"
        if {frozenset(p) for p in res["equivalent"]} != equivalent:
            return "equivalent pairs differ"
        if {frozenset(p) for p in res["coupled"]} != coupled:
            return "coupled pairs differ"
    elif kind == "audit":
        claims = res["claims"]
        for claim in PROVEN_CLAIMS & set(claims):
            if not all(inst["agree"] for inst in claims[claim]):
                return f"disagreement on proven claim {claim}"
        transfer = claims.get("substitute_transfer", [])
        if len(transfer) != len(exp.all_names):
            return "substitute_transfer is not measured once per attribute"
        for inst in transfer:
            if inst["lhs"] != (inst["subject"][2:] in exp.unnecessary):
                return f"substitute_transfer lhs wrong at {inst['subject']}"
        if res["all_agree"] != (res["disagreements"] == 0):
            return "all_agree contradicts the disagreement count"
    return None


def _check_text(kind: str, lines: list[str], exp: _Expect) -> str | None:
    body = [line for line in lines if not line.startswith("warning: ")]
    if kind == "classify":
        got = (
            _names(_line(body, "core: ")),
            _names(_line(body, "relative necessary: ")),
            _names(_line(body, "unnecessary: ")),
        )
        if got != (exp.core, exp.relative, exp.unnecessary):
            return f"core/relative/unnecessary {got} != oracle"
    elif kind in ("reduct_ea", "reduct_yao"):
        reduct = _sets(_line(body, "reduct: "))[0]
        if _line(body, "valid: ") != "yes" or not exp.is_reduct(reduct):
            return f"{sorted(reduct)} is not a minimal hitting set"
    elif kind == "all_reducts":
        count = int(body[0].split()[0])
        got = {s for line in body[1:] for s in _sets(line)}
        if count != len(exp.reducts) or got != exp.reducts:
            return f"{count} reducts, oracle has {len(exp.reducts)}"
    elif kind == "covering":
        rows = body[1:]
        if {row.split()[0] for row in rows} != exp.universe:
            return "covering rows are not the family's universe"
        for row in rows:
            cells = row.split()
            flags = set(cells[-4:])
            if flags != {"yes" if cells[0] in exp.core else "no"}:
                return f"singleton checks of {cells[0]} disagree with core membership"
    elif kind == "matrix":
        n, m = re.match(r"discernibility matrix: (\d+) objects, (\d+) attributes", body[0]).groups()
        if (int(n), int(m)) != (len(exp.rows), len(exp.facts.names)):
            return "matrix headline has the wrong size"
        _, family = exp.matrix()
        if _sets(_line(body, "family: ")) != [exp.facts.names_of(f) for f in family]:
            return "matrix family is not in first-seen order"
    elif kind == "relations":
        finer, equivalent, coupled = exp.relations()

        def pairs(prefix: str, sep: str) -> list[tuple[str, str]]:
            text = _line(body, prefix)
            return [] if text == "(none)" else [tuple(p.split(sep)) for p in text.split("; ")]

        if set(pairs("finer: ", " refines ")) != finer:
            return "finer pairs differ"
        if {frozenset(p) for p in pairs("equivalent: ", " ~ ")} != equivalent:
            return "equivalent pairs differ"
        if {frozenset(p) for p in pairs("coupled: ", " with ")} != coupled:
            return "coupled pairs differ"
    elif kind == "audit":
        summary = {}
        for line in body:
            hit = re.match(r"(\w+): (\d+) instance\(s\), (.*)$", line)
            if hit:
                summary[hit.group(1)] = (int(hit.group(2)), hit.group(3))
        for claim in PROVEN_CLAIMS & set(summary):
            if summary[claim][1] != "all agree":
                return f"disagreement on proven claim {claim}"
        if summary.get("substitute_transfer", (0,))[0] != len(exp.all_names):
            return "substitute_transfer is not measured once per attribute"
    return None


def check(kind: str, fmt: str, output: str, facts: oracle.Facts, rows) -> str | None:
    """None when ``output`` of a ``kind`` op is right for this input, else why not."""
    exp = _Expect(facts, rows)
    try:
        if fmt == "json":
            return _check_json(kind, json.loads(output), exp)
        return _check_text(kind, output.splitlines(), exp)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
        return f"unreadable {kind} output: {type(err).__name__}: {err}"
