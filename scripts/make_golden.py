#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/, always from the
bundled fixtures: MONOCAT_FIXTURES is ignored."""

import contextlib
import io
import os
from pathlib import Path

from monocat.cli import main

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden"

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
}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"golden command {argv} exited {code}")
    return buf.getvalue()


def main_():
    os.environ.pop("MONOCAT_FIXTURES", None)
    OUT.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        path = OUT / name
        path.write_text(run(argv), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main_()
