"""Compare two monocat checkouts on the benchmark, in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 501-510
        --out BENCH_N.json

For each seed, and for each of the three benchmark workloads within it,
``perfbench/run.py --seconds 30 --trace 0`` runs once in each checkout:
the parent first on even pairs, the change first on odd ones.  Before
the first pair, every ``__pycache__`` under ``src/monocat`` and
``perfbench`` is deleted in both checkouts and both are byte-compiled
afresh with ``compileall``, so the two sides start from the same
bytecode state whatever ``PYTHONDONTWRITEBYTECODE`` says; the output
file records this under ``bytecode``.  It also records, per workload,
side and end-to-end metric, the median, the quartiles and every run's
value; per metric, the pairs the change won (ties count for neither);
per run whether the gate passed; and the host.  It is rewritten after
every pair, so an interrupted comparison keeps the pairs it finished.
Last, each side gets one ``--trace 1`` run of ``report`` on seed 7,
whose per-layer metrics are recorded as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from summarize import _spread  # noqa: E402

WORKLOADS = ("report", "axioms-wide", "functor-wide")
SECONDS = 30  # BENCHMARK.json run_seconds
TRACE_SEED = 7
LOWER_IS_BETTER = {"wall_s", "setup_s", "peak_rss_mb"}
SIDES = ("parent", "change")
PACKAGES = ("src/monocat", "perfbench")  # byte-compiled afresh per side


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One run.py invocation; its final JSON line, or a failed record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit": proc.returncode,
                "error": proc.stderr.strip()[-500:]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def fresh_bytecode(root: Path) -> dict:
    """Delete the packages' bytecode caches, then compile them anew."""
    removed = 0
    for package in PACKAGES:
        for cache in sorted((root / package).rglob("__pycache__")):
            shutil.rmtree(cache)
            removed += 1
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    *PACKAGES], cwd=root, check=True)
    return {"caches_removed": removed, "compiled": list(PACKAGES)}


def summarize(pairs) -> dict:
    ok = [p for p in pairs if all(p[s].get("metrics") for s in SIDES)]
    out = {"pairs": len(pairs), "pairs_measured": len(ok),
           "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "metrics": {}}
    if not ok:
        return out
    for name in ok[0]["parent"]["metrics"]:
        sign = -1 if name in LOWER_IS_BETTER else 1
        values = {s: [p[s]["metrics"][name] for p in ok] for s in SIDES}
        wins = sum(1 for a, b in zip(values["parent"], values["change"])
                   if sign * (b - a) > 0)
        out["metrics"][name] = {
            **{s: {**_spread(values[s]), "values": values[s]}
               for s in SIDES},
            "change_wins": wins,
            "change_over_parent": (statistics.median(values["change"])
                                   / statistics.median(values["parent"]))}
    return out


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", required=True,
                        help="e.g. 501-510 or 7,501-505")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
              "host": {"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": os.cpu_count()},
              "seeds": parse_seeds(args.seeds),
              "bytecode": {side: fresh_bytecode(roots[side])
                           for side in SIDES},
              "runs": {w: [] for w in WORKLOADS},
              "workloads": {}, "trace": {}}

    def save():
        record["workloads"] = {w: summarize(record["runs"][w])
                               for w in WORKLOADS}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n")

    for i, seed in enumerate(record["seeds"]):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in WORKLOADS:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(roots[side], w, seed, 0)
            record["runs"][w].append(pair)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{s} wall_s {pair[s].get('metrics', {}).get('wall_s')}"
                for s in SIDES), flush=True)
            save()
    for side in SIDES:
        record["trace"][side] = run_bench(roots[side], "report", TRACE_SEED,
                                          1)
    record["trace"]["seed"] = TRACE_SEED
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
