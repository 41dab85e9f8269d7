"""Benchmark for monocat: fresh-process runs of one workload, with a gate.

    python3 perfbench/run.py --workload report|axioms-wide|functor-wide
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports monocat from ``./src``
and fails (exit 2, no result) when that is missing.  Every unit of work
runs in a fresh single-threaded ``worker.py`` process, because a CLI
user pays the cold cost on every call and a cache must show in
``setup_s``, ``wall_s`` and ``peak_rss_mb`` rather than stay warm.
Processes run in rounds of one per core (at most ``MAX_PARALLEL``),
each pinned to its own core.

Times are in reference seconds (``speed.py``): the machine is shared,
and each process measures how much outside load slowed its core while it
ran and takes that out.  The plain times are printed and recorded too.

``--trace 0`` first runs ``SETUP_ROUNDS`` rounds of processes that only
set up (interpreter, ``monocat`` import, fixture load or build) and
reports their median as ``setup_s``.  It then runs rounds of work
processes for ``--seconds`` (at least one round) and reports medians
over those processes:

* ``wall_s``: the work, set-up excluded;
* ``checks_per_s``: checks completed per second of that work;
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` runs the workload once untraced and once under
``tracer.Tracer``, side by side, and reports the per-layer metrics of
the traced run with ``trace.overhead_share`` (traced over untraced
``wall_s``, minus 1).

Each process gets its own ``PYTHONHASHSEED``.  The gate requires every
check to pass, each check family to have its expected size, and the
program's output to be identical across the processes of a run and
across runs of the same code with the same seed in one checkout (a
ledger under ``.perfbench_out/digests/``, keyed by workload, seed and a
hash of the files under ``src/monocat``).  Failed checks, failed
processes and differing outputs count as failures against the checks
attempted.

``--workload axioms-flipped`` is not a benchmark workload: it is the
negative control that ``selftest.py`` runs to show the gate can fail.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same metrics for reading, the stage times, the output size and digest,
the per-fixture check counts and the seeded draws.  The full record of
the run, and the spans of a traced run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("report", "axioms-wide", "functor-wide")
CONTROLS = ("axioms-flipped",)
MAX_PARALLEL = 2
SETUP_ROUNDS = 8
DEADLINE_S = 165.0      # a run must end within 180 s
OUT_DIR = ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"


def code_digest(root: Path) -> str:
    """sha256 of the program: the files under ``src/monocat``."""
    h = hashlib.sha256()
    base = root / "src" / "monocat"
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(base)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """The worker processes of one benchmark run and what they reported."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.notes = []
        # one process per core at a time, each pinned to its own core
        self.cpus = sorted(os.sched_getaffinity(0))[:MAX_PARALLEL]
        self.code = code_digest(root)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def fail(self, note: str, attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += 1
        self.notes.append(note)

    def _start(self, phase: str, cpu: int, trace_out):
        self.spawned += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = str((self.seed * 1000003 + self.spawned)
                                    % 4294967296)
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--phase", phase]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        return proc, t0

    def round(self, phase: str, trace_outs=None):
        """Run one worker per entry of ``trace_outs`` (default: one
        untraced worker per core), at most one per core at a time, and
        wait for all.  Returns [(record, parent clock at spawn)] of those
        that succeeded; failures are counted."""
        outs = list(trace_outs or [None] * len(self.cpus))
        done = []
        for i in range(0, len(outs), len(self.cpus)):
            done += self._batch(phase, outs[i:i + len(self.cpus)])
        return done

    def _batch(self, phase: str, outs):
        procs = [self._start(phase, cpu, out)
                 for cpu, out in zip(self.cpus, outs)]
        done = []
        for proc, t0 in procs:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                for other, _ in procs:
                    other.kill()
                    other.wait()
                self.fail(f"{phase} process timed out")
                continue
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                self.fail(f"{phase} process exited {proc.returncode}: "
                          f"{stderr.strip()[-400:]}")
                continue
            try:
                rec = json.loads(lines[-1])
            except json.JSONDecodeError:
                self.fail(f"{phase} process printed no record")
                continue
            if phase == "work":
                self.attempted += rec["checks"]
                self.failed += rec["failed"]
                self.notes += rec["notes"]
            done.append((rec, t0))
        return done

    def gate_outputs(self, recs) -> None:
        """Outputs agree across processes and with earlier runs of the same
        code and seed."""
        digests = [r["digest"] for r in recs]
        for d in digests[1:]:
            if d != digests[0]:
                self.fail("output differs between processes of one run", 0)
        if not digests:
            return
        ledger = self.root / OUT_DIR / "digests"
        ledger.mkdir(exist_ok=True)
        entry = ledger / f"{self.workload}-seed{self.seed}-{self.code[:16]}"
        tmp = ledger / f".{entry.name}.{os.getpid()}"
        tmp.write_text(digests[0])
        try:
            os.link(tmp, entry)     # atomic: the first run of a key wins
        except FileExistsError:
            pass
        finally:
            tmp.unlink()
        if entry.read_text() != digests[0]:
            self.fail("output differs from an earlier run of this code "
                      "with this seed", 0)


def _stage_lines(recs):
    """Median stage times; the stages a workload does not time untraced
    are visible only as ``watts.stage.*`` spans of its traced run."""
    for stage in ("axioms", "transport", "functor", "embedding"):
        vals = [r["stages"][stage] for r in recs if stage in r["stages"]]
        yield (f"  {stage}_s = {statistics.median(vals):.6g} s" if vals else
               f"  {stage}_s = n/a (see watts.stage.{stage}_s, --trace 1)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + CONTROLS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "monocat" / "__init__.py").is_file():
        print("error: no monocat sources under ./src; run from the root "
              "of a monocat checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    (root / OUT_DIR).mkdir(exist_ok=True)
    run = Run(root, args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # the first processes compile bytecode; users pay that once per install
    if not run.round("setup"):
        print(f"error: set-up failed: {run.notes[-1]}", file=sys.stderr)
        return 2

    values = {}
    samples = {}
    if args.trace == 0:
        setups = [(rec["setup_end"] - t0) * rec["setup_speed"]
                  for _ in range(SETUP_ROUNDS)
                  for rec, t0 in run.round("setup")]
        recs = []
        durations = []
        loop_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            recs += [rec for rec, _ in run.round("work")]
            durations.append(time.perf_counter() - t0)
            # start another round only if it should end within the run
            # time and well within the deadline
            if time.perf_counter() - loop_start + \
                    statistics.median(durations) > args.seconds \
                    or run.remaining() < 1.5 * max(durations):
                break
        samples = {"setup_s": setups,
                   "wall_s": [r["wall_s"] for r in recs],
                   "checks_per_s": [r["checks"] / r["wall_s"] for r in recs],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in recs]}
        if all(samples.values()):
            values = {name: statistics.median(vals)
                      for name, vals in samples.items()}
    else:
        plain, traced = [], []
        for rec, _ in run.round("work", [None, root / OUT_DIR /
                                         f"{args.workload}.spans"]):
            (traced if "per_layer" in rec else plain).append(rec)
        recs = plain + traced
        if plain and traced:
            values = dict(traced[0]["per_layer"])
            values["trace.overhead_share"] = \
                traced[0]["wall_s"] / plain[0]["wall_s"] - 1.0
    run.gate_outputs(recs)
    if not values:
        print(f"error: no measurement: {run.notes[-3:]}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "processes": run.spawned, "samples": samples,
              "metrics": metrics, "notes": run.notes,
              "outputs": [{"digest": r["digest"], "bytes": r["nbytes"],
                           "per_fixture": r["per_fixture"],
                           "stages": r["stages"], "wall_s": r["wall_s"],
                           "wall_raw_s": r["wall_raw_s"]}
                          for r in recs],
              "draws": recs[0]["draws"] if recs else []}
    (root / OUT_DIR / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    attempted = max(run.attempted, 1)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"work processes {len(recs)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if recs:
        raw = statistics.median(r["wall_raw_s"] for r in recs)
        print(f"  wall_raw_s = {raw:.6g} s (plain seconds, not corrected "
              f"for load)")
        for line in _stage_lines(recs):
            print(line)
        print(f"  output: {recs[0]['nbytes']} bytes, "
              f"sha256 {recs[0]['digest']}")
        print("  checks per fixture: " + json.dumps(recs[0]["per_fixture"],
                                                    sort_keys=True))
    for d in record["draws"]:
        print(f"  draw {d['fixture']} seed {d['seed']}: basis {d['basis']}, "
              f"action nnz share {d['action_nnz_share']}, "
              f"{d['redraws']} singular redraws")
    print(f"  check_fail_ratio = {run.failed / attempted:.6g} "
          f"({run.failed} of {attempted})")
    for note in run.notes[:20]:
        print(f"  FAIL {note}")
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
