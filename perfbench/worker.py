"""One fresh benchmark process: set up a workload and optionally run it once.

    python3 perfbench/worker.py --workload NAME --seed N --phase setup|work
                                [--trace-out FILE]

Run from the root of a checkout with ``PYTHONPATH=src``.  The last line
of stdout is one JSON object with:

* ``setup_end``: ``time.perf_counter()`` when set-up finished, on the
  same monotonic clock as the parent, and ``setup_speed``, the factor
  that turns the set-up time into reference seconds (``speed.py``).
  Set-up is the workload's ``setup`` and, with ``--phase setup`` only,
  its ``load``: what the program loads inside its own call, which a work
  process leaves to that call so that the call starts cold;
* with ``--phase work``: ``wall_s``, the work in reference seconds,
  ``wall_raw_s``, the same in plain seconds, ``stages`` in reference
  seconds, and the correctness fields of ``workloads.Result``;
* ``peak_rss_mb`` and, with ``--trace-out``, the per-layer metrics of
  ``tracer.Tracer`` in reference seconds (spans are written to that
  file).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_SPEED_SAMPLES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "work"), required=True)
    parser.add_argument("--trace-out", help="trace the work; spans go here")
    args = parser.parse_args(argv)

    import monocat
    src = (Path.cwd() / "src").resolve()
    if src not in Path(monocat.__file__).resolve().parents:
        print(f"monocat imported from {monocat.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import speed
    import workloads
    from tracer import Tracer
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    inputs, draws = wl.setup(args.seed)
    if args.phase == "setup" and wl.load is not None:
        wl.load(args.seed)
    setup_end = time.perf_counter()
    kernel_s = []
    for _ in range(SETUP_SPEED_SAMPLES):
        t0 = time.perf_counter()
        speed.kernel()
        kernel_s.append(time.perf_counter() - t0)
    record = {"setup_end": setup_end, "draws": draws,
              "setup_speed": speed.REFERENCE_S / statistics.median(kernel_s)}

    if args.phase == "work":
        tracer = Tracer().install() if args.trace_out else None
        sampler = speed.SpeedSampler()
        t0 = sampler.start()
        result = wl.work(inputs, args.seed)
        t1 = sampler.stop()
        clock = sampler.reference_clock()
        sampled = sum(e - s for s, e in sampler.ticks if t0 <= s < t1)
        record.update(dataclasses.asdict(result))
        record["wall_s"] = clock(t1) - clock(t0)
        record["wall_raw_s"] = t1 - t0 - sampled
        record["stages"] = {
            stage: sum(clock(b) - clock(a) for a, b in windows)
            for stage, windows in result.stages.items()}
        if tracer is not None:
            tracer.uninstall()
            record["per_layer"] = tracer.metrics(clock)
            tracer.write(args.trace_out)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
