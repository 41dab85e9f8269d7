"""The benchmark's span tracer must resolve every layer it names."""

import sys
from pathlib import Path

import monocat.linalg as linalg
import monocat.watts as watts
from monocat.fixtures import bundled_watts_fixtures
from monocat.algmod import Module

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_tracer_installs_counts_and_uninstalls():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import LAYERS, Tracer, _resolve
    finally:
        sys.path.remove(PERFBENCH)
    fx = bundled_watts_fixtures()["dual-numbers-f2"]
    R = Module.regular(fx.algebra)
    tracer = Tracer().install()
    try:
        for items in LAYERS.values():
            for mod, qual in items:
                holder, attr = _resolve(mod, qual)
                assert attr in vars(holder), f"{mod}.{qual}"
        fx.ct.product(R, R)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["watts.product.calls"] == 1
    assert watts.compose is linalg.compose


def test_transported_cells_are_built_once():
    # D cells and α′ are cached by ``product`` and ``associator`` alone, so
    # the traced builders run exactly once per cache entry
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    fx = bundled_watts_fixtures()["dual-numbers-f2"]
    tracer = Tracer().install()
    try:
        wc = watts.WattsContext(fx.ct)
        assert watts.check_T_coherence(wc).ok
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["watts.dcell.calls"] == len(wc._products) > 0
    assert metrics["watts.alpha_prime.calls"] == len(wc._assocs) > 0
