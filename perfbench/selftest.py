"""Self-tests of the benchmark's tracer and correctness gate.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits 0 when every test passes.

* namespace patching: every ``compose`` call made inside
  ``verify_monoidal_functor`` (most go through ``watts``' own binding) is
  recorded under the functor stage span, as many as the interpreter's
  profiler counts;
* negative control: ``run.py`` on the ``axioms-flipped`` workload (the
  graded fixture with a cocycle flipped into a non-cocycle) prints a
  positive ``check_fail_ratio`` and a result that is not correct, so the
  gate can fail;
* counts repeat: on every benchmark workload, two traced worker
  processes with one seed, under different hash seeds, give identical
  call counts, ``compose`` madds and ``tensor`` output entries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from monocat import fixtures, linalg, watts  # noqa: E402

EXACT_SUFFIXES = (".calls", ".madds", ".out_entries")


def _compose_calls_profiled() -> int:
    """Calls of compose's code inside verify_monoidal_functor, counted by
    the interpreter's profiler with no tracer installed."""
    fx = fixtures.dual_numbers_f2()
    wc = watts.WattsContext(fx.ct)
    code, count = linalg.compose.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1
    sys.setprofile(profile)
    try:
        watts.verify_monoidal_functor(wc, fx.sample)
    finally:
        sys.setprofile(None)
    return count


def test_namespace_patching() -> None:
    expected = _compose_calls_profiled()
    fx = fixtures.dual_numbers_f2()
    original = linalg.compose
    tracer = Tracer().install()
    try:
        assert watts.compose is not original, "watts.compose not patched"
        wc = watts.WattsContext(fx.ct)
        watts.verify_monoidal_functor(wc, fx.sample)
    finally:
        tracer.uninstall()
    assert watts.compose is original, "watts.compose not restored"
    compose_id = tracer.labels.index("linalg.compose")
    recorded = sum(1 for i, name in enumerate(tracer.names)
                   if name == compose_id
                   and "watts.stage.functor" in tracer.ancestors(i))
    assert recorded == expected, \
        f"{recorded} of {expected} compose calls in the functor stage recorded"
    metrics = tracer.metrics()
    assert metrics["watts.xi.calls"] > 0
    assert metrics["algmod.descend.calls"] > 0
    print(f"ok  namespace patching: all {expected} compose calls made inside "
          f"verify_monoidal_functor were recorded")


def test_negative_control() -> None:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "run.py"),
         "--workload", "axioms-flipped", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-400:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    ratio = next(float(line.split()[2]) for line in lines
                 if line.strip().startswith("check_fail_ratio = "))
    assert ratio > 0 and result["failed"] > 0 and not result["correct"], \
        "the gate passed a non-cocycle"
    print(f"ok  negative control: check_fail_ratio {ratio:.4f} "
          f"({result['failed']} of {result['attempted']}), reported failed")


def _start_traced(workload: str, seed: int, hash_seed: int):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(hash_seed))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).parent / "worker.py"),
         "--workload", workload, "--seed", str(seed), "--phase", "work",
         "--trace-out",
         str(out_dir / f"selftest-{workload}-{hash_seed}.spans")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def _counts(proc) -> dict:
    stdout, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr[-400:]
    layer = json.loads(stdout.strip().splitlines()[-1])["per_layer"]
    return {k: v for k, v in layer.items() if k.endswith(EXACT_SUFFIXES)}


def test_counts_repeat(workload: str) -> None:
    # the two processes run side by side, one per core
    procs = [_start_traced(workload, seed=5, hash_seed=h) for h in (1, 2)]
    try:
        first, second = [_counts(p) for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert not diff, f"counts differ between traced runs: {diff}"
    print(f"ok  counts repeat on {workload}: {len(first)} counts identical "
          f"(compose calls {first['linalg.compose.calls']}, "
          f"madds {first['linalg.compose.madds']})")


def main() -> int:
    test_namespace_patching()
    test_negative_control()
    for workload in run.WORKLOADS:
        test_counts_repeat(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
