"""Summarize the run records that ``run.py`` leaves in ``.perfbench_out/``.

    python3 perfbench/summarize.py [--out FILE]

For each workload it gives, over the untraced runs found: the seeds, and
for each end-to-end metric the median, the quartiles and the quartile
spread as a share of the median (``statistics.quantiles(values, n=4)``);
the output size and sha256 per seed with the per-fixture check counts
and the seeded draws (basis, nonzero share of each action matrix);
and the per-layer metrics of each traced run by seed.  Prints the
summary as JSON, or writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

OUT_DIR = Path(".perfbench_out")


def _spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def summarize(records) -> dict:
    out = {}
    for wl in sorted({r["workload"] for r in records}):
        plain = sorted((r for r in records
                        if r["workload"] == wl and r["trace"] == 0),
                       key=lambda r: r["seed"])
        traced = [r for r in records if r["workload"] == wl and r["trace"]]
        entry = {"seeds": [r["seed"] for r in plain],
                 "correct": all(not r["notes"] for r in plain + traced)}
        names = plain[0]["metrics"] if plain else {}
        entry["end_to_end"] = {
            name: {"unit": plain[0]["metrics"][name]["unit"],
                   **_spread([r["metrics"][name]["value"] for r in plain])}
            for name in names}
        entry["outputs"] = {
            str(r["seed"]): {"bytes": r["outputs"][0]["bytes"],
                             "sha256": r["outputs"][0]["digest"],
                             "per_fixture": r["outputs"][0]["per_fixture"],
                             "draws": r["draws"]}
            for r in plain if r["outputs"]}
        entry["per_layer"] = {
            str(r["seed"]): {name: m["value"]
                             for name, m in r["metrics"].items()}
            for r in sorted(traced, key=lambda r: r["seed"])}
        out[wl] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text())
               for p in sorted(OUT_DIR.glob("*-trace[01].json"))]
    if not records:
        print(f"error: no run records under {OUT_DIR}/", file=sys.stderr)
        return 2
    summary = {"host": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "cpus": os.cpu_count()},
               "workloads": summarize(records)}
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
