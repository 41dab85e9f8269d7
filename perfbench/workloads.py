"""The benchmark's workloads: set-up, one unit of work and its gate.

Every workload is a pair of functions.  ``setup(seed)`` builds or loads
the inputs the program needs and returns them with the records of its
seeded draws; ``work(inputs, seed)`` runs the program on them and
returns a ``Result``.  The worker process times the two phases
separately.  The program is reached only through
module attributes (``watts.check_monoidal_axioms``, ``cli.main``) so that
a tracer that patches those attributes sees every call.

Workloads:

``report``
    ``monocat --format json report --seed <seed>`` through ``cli.main``
    with stdout captured.  It covers all 13 bundled fixture files.
``axioms-wide``
    ``check_monoidal_axioms`` on the four watts fixtures, each sample
    widened by a seeded change of basis of the regular module.
``functor-wide``
    ``WattsContext``, ``check_T_coherence``, ``verify_monoidal_functor``
    and ``verify_embedding`` on ``strict-f3-z2`` and ``dual-numbers-f2``,
    widened the same way.
``axioms-flipped``
    Not benchmarked: the negative control of ``selftest.py``.  The
    ``axioms-wide`` work on ``graded-sign`` with its cocycle flipped into
    a non-cocycle, so the gate must report failed checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from monocat import cli, fixtures, watts
from monocat.algmod import Module
from monocat.linalg import LinearMap, NotInvertible, compose, solve_iso

AXIOMS_FIXTURES = ("strict-f3-z2", "dual-numbers-f2", "graded-trivial",
                   "graded-sign")
FUNCTOR_FIXTURES = ("strict-f3-z2", "dual-numbers-f2")
REPORT_FIXTURE_COUNT = 13
WIDE_MODULE = "Rb"


@dataclass
class Result:
    """What one unit of work produced, with its correctness verdict."""

    checks: int = 0           # checks attempted
    failed: int = 0           # failed checks and failed gates
    digest: str = ""          # sha256 of the program's output
    nbytes: int = 0           # size of that output
    stages: Dict[str, list] = field(default_factory=dict)  # [start, end]s
    per_fixture: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


# ---------------------------------------------------------------------------
# seeded widening of a watts fixture


def nnz_share(m: LinearMap) -> float:
    entries = [a for row in m.matrix for a in row]
    return sum(1 for a in entries if a.value) / max(len(entries), 1)


def random_basis(regular: Module, rng: random.Random):
    """An invertible matrix on the regular module's space, drawn entrywise
    until it is invertible; returns (P, P⁻¹, number of singular draws)."""
    space, field_ = regular.space, regular.field
    p = field_.char
    redraws = 0
    while True:
        rows = [[field_(rng.randrange(p)) for _ in range(space.dim)]
                for _ in range(space.dim)]
        P = LinearMap(space, space, tuple(tuple(r) for r in rows))
        try:
            return P, solve_iso(P), redraws
        except NotInvertible:
            redraws += 1


def widen(fx: fixtures.WattsFixture, seed: int):
    """The fixture with one more sample module: R under a seeded change of
    basis.  Returns (widened fixture, record of the draw)."""
    regular = next(m for m in fx.sample if m.name == "R")
    rng = random.Random(f"perfbench:{seed}:{fx.name}")
    P, P_inv, redraws = random_basis(regular, rng)
    action = tuple(compose(P_inv, compose(a, P)) for a in regular.action)
    extra = Module(WIDE_MODULE, regular.algebra, regular.space, "right",
                   action)
    extra.check()
    record = {"fixture": fx.name, "seed": seed, "dim": extra.dim,
              "redraws": redraws,
              "basis": [[a.serialize() for a in row] for row in P.matrix],
              "action_nnz_share": [round(nnz_share(a), 4) for a in action]}
    return dataclasses.replace(fx, sample=fx.sample + (extra,)), record


def wide_fixtures(names, seed: int):
    built = fixtures.bundled_watts_fixtures()
    pairs = [widen(built[name], seed) for name in names]
    return [fx for fx, _ in pairs], [rec for _, rec in pairs]


def flipped_fixtures(seed: int):
    """``graded-sign`` with its cocycle flipped at (0, 1, 1), widened."""
    good = fixtures.graded_sign()
    flipped = watts.flip_cocycle(watts.sign_cocycle(), (0, 1, 1))
    assert not watts.is_three_cocycle(flipped)
    ct = watts.GradedTensor(good.algebra, good.ct.unit, flipped,
                            name="graded-flipped")
    fx, record = widen(dataclasses.replace(good, ct=ct), seed)
    return [fx], [record]


# ---------------------------------------------------------------------------
# correctness gates shared by the watts workloads


def _set_output(result: Result, payload) -> None:
    raw = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode()
    result.digest = hashlib.sha256(raw).hexdigest()
    result.nbytes = len(raw)


def _count(report: watts.CoherenceReport, prefix: str) -> int:
    return sum(1 for r in report.results if r.name.startswith(prefix + "["))


def gate_reports(result: Result, fixture: str,
                 reports: List[watts.CoherenceReport],
                 expected: Dict[str, int]) -> None:
    """Every check passes and each check family has its expected size."""
    merged = watts.merge_reports(fixture, reports)
    result.checks += len(merged.results)
    result.per_fixture[fixture] = len(merged.results)
    for r in merged.failures:
        result.fail(f"{fixture}: check {r.name} failed")
    for prefix, want in expected.items():
        got = _count(merged, prefix)
        if got != want:
            result.fail(f"{fixture}: {got} {prefix} checks, expected {want}")


def _timed(result: Result, stage: str, fn: Callable):
    t0 = time.perf_counter()
    try:
        return fn()
    finally:
        result.stages.setdefault(stage, []).append(
            [t0, time.perf_counter()])


def run_axioms(fxs) -> Result:
    result = Result()
    outputs = {}
    for fx in fxs:
        n = len(fx.sample)
        try:
            rep = _timed(result, "axioms", lambda: watts.check_monoidal_axioms(
                fx.ct, fx.sample))
        except watts.WattsError as exc:
            result.checks += 1
            result.fail(f"{fx.name}: {type(exc).__name__}: {exc}")
            continue
        gate_reports(result, fx.name, [rep], {"pentagon": n ** 4,
                                              "triangle": n ** 2})
        outputs[fx.name] = rep.to_json()
    _set_output(result, outputs)
    return result


def run_functor(fxs) -> Result:
    result = Result()
    outputs = {}
    for fx in fxs:
        n = len(fx.sample)
        try:
            wc = _timed(result, "transport", lambda: watts.WattsContext(fx.ct))
            reps = [
                _timed(result, "transport",
                       lambda: watts.check_T_coherence(wc)),
                _timed(result, "functor",
                       lambda: watts.verify_monoidal_functor(wc, fx.sample)),
                _timed(result, "embedding",
                       lambda: watts.verify_embedding(wc, fx.sample,
                                                      fx.sequences)),
            ]
        except watts.WattsError as exc:
            result.checks += 1
            result.fail(f"{fx.name}: {type(exc).__name__}: {exc}")
            continue
        gate_reports(result, fx.name, reps, {"functor-pentagon": n ** 3,
                                             "xi-iso": n ** 2})
        outputs[fx.name] = [rep.to_json() for rep in reps]
    _set_output(result, outputs)
    return result


# ---------------------------------------------------------------------------
# report


def report_setup():
    """What ``cmd_report`` loads before its first check."""
    return {name: fixtures.load_fixture_file(path)
            for name, path in fixtures.bundled_fixture_files().items()}


def run_report(seed: int) -> Result:
    result = Result()
    out = io.StringIO()
    argv = ["--format", "json", "report", "--seed", str(seed)]
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    raw = out.getvalue().encode("utf-8")
    result.nbytes = len(raw)
    result.digest = hashlib.sha256(raw).hexdigest()
    if code != 0:
        result.fail(f"exit code {code}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        result.checks += 1
        result.fail(f"output is not JSON: {exc}")
        return result
    if payload.get("schema") != 1 or payload.get("seed") != seed:
        result.fail("schema or seed not echoed")
    sections = payload.get("fixtures", {})
    if len(sections) != REPORT_FIXTURE_COUNT:
        result.fail(f"{len(sections)} fixtures, "
                    f"expected {REPORT_FIXTURE_COUNT}")
    for name, sec in sorted(sections.items()):
        checks = sec.get("checks", [])
        result.checks += len(checks)
        result.per_fixture[name] = len(checks)
        for c in checks:
            if not c.get("ok"):
                result.fail(f"{name}: check {c.get('name')} failed")
    if not payload.get("ok"):
        result.fail("report says not ok")
    return result


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    setup: Callable   # seed -> (inputs, records of the seeded draws)
    work: Callable    # (inputs, seed) -> Result
    # seed -> None: what the program loads inside its own timed call
    # before its first check.  Only set-up processes run it, so that it
    # counts in ``setup_s`` while the work still starts cold.
    load: Optional[Callable] = None


WORKLOADS = {
    "report": Workload(lambda seed: (None, []),
                       lambda inputs, seed: run_report(seed),
                       lambda seed: report_setup()),
    "axioms-wide": Workload(lambda seed: wide_fixtures(AXIOMS_FIXTURES, seed),
                            lambda fxs, seed: run_axioms(fxs)),
    "functor-wide": Workload(
        lambda seed: wide_fixtures(FUNCTOR_FIXTURES, seed),
        lambda fxs, seed: run_functor(fxs)),
    "axioms-flipped": Workload(flipped_fixtures,
                               lambda fxs, seed: run_axioms(fxs)),
}
