#!/usr/bin/env python3
"""Drive the CLI over the bundled worked tables and print everything.

Runs the console entry point on the worked inputs under ``tests/golden/``,
the same files the golden tests pin, so the output below is exactly what
a user would see.

    PYTHONPATH=src python3 scripts/reproduce_worked_examples.py
"""

from __future__ import annotations

from pathlib import Path

from reducts.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"


def banner(text: str) -> None:
    print()
    print(f"== {text}")
    print()


def run() -> int:
    table = str(GOLDEN / "five_by_four.csv")
    ladder = str(GOLDEN / "ladder.json")
    walkthrough = str(GOLDEN / "walkthrough.json")

    failures = 0
    banner("five-object table: discernibility matrix")
    failures += main(["matrix", table])
    banner("five-object table: attribute classification")
    failures += main(["classify", table])
    banner("five-object table: all reducts")
    failures += main(["all-reducts", table])
    banner("five-object table: audited claims")
    failures += main(["audit", table])
    banner("five-object table: covering view")
    failures += main(["covering", table])

    banner("ladder family: all reducts")
    failures += main(["all-reducts", ladder])
    banner("ladder family: does {a2} shut a1 out?")
    failures += main(["relations", ladder, "--excludes", "a2->a1"])

    banner("nine-member family: substitute-family reduction, traced")
    failures += main(["reduct", walkthrough, "--algo", "ea", "--verbose"])
    banner("nine-member family: row-wise reduction for comparison")
    failures += main(["reduct", walkthrough, "--algo", "yao", "--verbose"])

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
