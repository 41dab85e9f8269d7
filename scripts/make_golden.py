#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/, always from the
bundled fixtures: MONOCAT_FIXTURES is ignored.  One golden, FLIPPED_DUP,
pins a failing run (exit 1) on a fixture derived from a bundled one in a
temporary directory: graded-sign with ω(0,1,1) negated and module L
repeated as L2.  ``tests/test_cli.py`` reads CASES, FLIPPED_DUP and
``flipped_dup_fixture`` from here, so this file is the one manifest of
the goldens."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from monocat.cli import main

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "golden"
FIXTURES = ROOT / "src" / "monocat" / "fixtures"

CASES = {
    "validate-fibonacci.json":
        ["--format", "json", "validate", "fusion-fibonacci"],
    "embed-fib-tau.json":
        ["--format", "json", "embed", "fusion-fibonacci", "tau"],
    "embed-fib-tau.txt":
        ["embed", "fusion-fibonacci", "tau"],
    "bound-fib-tau.json":
        ["--format", "json", "bound", "fusion-fibonacci", "tau",
         "--n-max", "5"],
    "watts-dual-numbers.json":
        ["--format", "json", "watts", "dual-numbers-f2"],
    "watts-strict-axioms.json":
        ["--format", "json", "watts", "strict-f3-z2", "--checks", "axioms"],
    "report-seed7.json":
        ["--format", "json", "report", "--seed", "7"],
    "report-seed7.txt":
        ["report", "--seed", "7"],
}
FLIPPED_DUP = "watts-graded-flipped-dup.json"


def run(argv, expected=0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != expected:
        raise SystemExit(f"golden command {argv} exited {code}")
    return buf.getvalue()


def flipped_dup_fixture() -> dict:
    """graded-sign with ω(0,1,1) negated and L repeated as L2: a sample
    holding two modules of one content, and failing checks."""
    data = json.loads((FIXTURES / "graded-sign.json").read_text())
    for triple in data["tensor"]["cocycle"]:
        if triple[:3] == [0, 1, 1]:
            triple[3] = -triple[3]
    L = next(m for m in data["modules"] if m["name"] == "L")
    data["modules"].append(dict(L, name="L2"))
    return data


def flipped_dup() -> str:
    """``watts`` on ``flipped_dup_fixture()``, read by its relative path
    from a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "graded-flipped-dup.json").write_text(
            json.dumps(flipped_dup_fixture()), encoding="utf-8")
        os.chdir(tmp)
        try:
            return run(["--format", "json", "watts",
                        "graded-flipped-dup.json"], expected=1)
        finally:
            os.chdir(cwd)


def main_():
    os.environ.pop("MONOCAT_FIXTURES", None)
    OUT.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        path = OUT / name
        path.write_text(run(argv), encoding="utf-8")
        print(f"wrote {path}")
    path = OUT / FLIPPED_DUP
    path.write_text(flipped_dup(), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main_()
