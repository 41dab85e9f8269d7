"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion, including the runtime budgets where one is declared."""

import json
import random
import time

from monocat.cli import main as cli_main
from monocat.fixtures import (bundled_fixture_files, dual_numbers_f2,
                              graded_sign)
from monocat.fusion import (FusionData, ObjectExpr, check_theorem4,
                            dual_image, dual_object, embed_object, fuse,
                            tensor_images)
from monocat.algmod import Bimodule, Module, ModuleMap, hom_basis
from monocat.linalg import (Field, VectorSpace, identity,
                            linear_combination)
from monocat.algmod import Algebra
from monocat.watts import (WattsContext, GradedTensor, check_monoidal_axioms,
                           check_rigidity, check_T_coherence, flip_cocycle,
                           induce_natural_family, nat_to_bimodule_hom,
                           sign_cocycle, verify_embedding,
                           verify_monoidal_functor)

from helpers import (bundled, fusion_rings, group_algebra, sample_module,
                     truncated_polynomial)


def test_criterion_01_fusion_validation_and_mutations():
    t0 = time.perf_counter()
    rings = fusion_rings()
    assert set(rings) == {"trivial", "fibonacci", "ising", "rep_s3",
                          "z2", "z3", "z4", "z5", "z6"}
    for fd in rings.values():
        assert fd.validate().ok, fd.name
    # single-entry bumps that land on a different consistent based ring
    # cannot be rejected by any invariant checker
    consistent_mutants = {("fibonacci", ("tau", "tau", "tau")),
                          ("ising", ("sigma", "sigma", "sigma")),
                          ("rep_s3", ("V", "V", "V")),
                          ("Z/2", ("g1", "g1", "g1"))}
    for fd in rings.values():
        for i in fd.simples:
            for k in fd.simples:
                for j in fd.simples:
                    mult = dict(fd.mult)
                    mult[(i, k, j)] = mult.get((i, k, j), 0) + 1
                    mutant = FusionData(fd.simples, fd.unit, mult, fd.dual,
                                        fd.endo_dim)
                    expected = (fd.name, (i, k, j)) not in consistent_mutants
                    assert (not mutant.validate().ok) == expected, \
                        (fd.name, i, k, j)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_embedding_homomorphism_200_pairs():
    t0 = time.perf_counter()
    rng = random.Random(3701)
    rings = sorted(fusion_rings().items())
    done = 0
    while done < 200:
        _, fd = rings[done % len(rings)]
        X = ObjectExpr({s: rng.randint(0, 2) for s in fd.simples})
        Y = ObjectExpr({s: rng.randint(0, 2) for s in fd.simples})
        if sum(X.mult.values()) > 4 or sum(Y.mult.values()) > 4:
            continue
        VX, VY = embed_object(fd, X), embed_object(fd, Y)
        prod = tensor_images(fd, VX, VY)
        assert prod == embed_object(fd, fuse(fd, X, Y))
        # brute-force oracle, entry by entry
        for j in fd.simples:
            for n in fd.simples:
                oracle = sum(
                    X.m(p) * Y.m(q) * fd.c(p, q, i) * fd.c(i, n, j)
                    for p in fd.simples for q in fd.simples
                    for i in fd.simples) * fd.r(j)
                assert prod.entry(j, n) == oracle
        assert dual_image(fd, VX) == embed_object(fd, dual_object(fd, X))
        done += 1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_growth_bound_sequences():
    t0 = time.perf_counter()
    rings = fusion_rings()
    fib = check_theorem4(rings["fibonacci"], ObjectExpr.simple("tau"), 5)
    assert [r["dim_end"] for r in fib["rows"]] == [1, 2, 5, 13, 34]
    assert fib["ok"] and fib["d"] == 2
    assert all(r["bound"] == 4 ** r["n"] for r in fib["rows"])
    # oracle: iterate the fusion expansion and sum squared multiplicities
    power = ObjectExpr.simple("tau")
    for r in fib["rows"]:
        assert r["dim_end"] == sum(m * m for m in power.mult.values())
        power = fuse(rings["fibonacci"], power, ObjectExpr.simple("tau"))
    ising = check_theorem4(rings["ising"], ObjectExpr.simple("sigma"), 4)
    assert [r["dim_end"] for r in ising["rows"]] == [1, 2, 4, 8]
    z6 = check_theorem4(rings["z6"], ObjectExpr.simple("g1"), 6)
    assert [r["dim_end"] for r in z6["rows"]] == [1] * 6
    assert time.perf_counter() - t0 < 1.0


def _pipeline(fx):
    reports = [check_monoidal_axioms(fx.ct, fx.sample)]
    wc = WattsContext(fx.ct)
    reports += [check_T_coherence(wc),
                verify_monoidal_functor(wc, fx.sample),
                verify_embedding(wc, fx.sample, fx.sequences)]
    return wc, reports


def test_criterion_04_strict_fixture_full_pipeline():
    t0 = time.perf_counter()
    fx = bundled("strict-f3-z2")
    wc, reports = _pipeline(fx)
    # T collapses to the base ring and the two auxiliary left actions agree
    assert wc.T.space.dim == fx.algebra.dim
    assert [m.matrix for m in wc.T.left1] == [m.matrix for m in wc.T.left2]
    for rep in reports:
        assert rep.ok, rep.failures
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_twisted_graded_fixture():
    t0 = time.perf_counter()
    fx = graded_sign()
    wc, reports = _pipeline(fx)
    for rep in reports:
        assert rep.ok, rep.failures
    R = sample_module(fx, "R")
    a = wc.alpha_prime(R, R, R)
    assert a.lin.matrix != identity(a.source.space).matrix
    # every single-sign flip that breaks the coherence data must produce a
    # pentagon failure with a concrete witness; the indicator of (1,1,1)
    # is itself a cocycle, so that flip lands on the untwisted bundled
    # structure and stays coherent
    for triple in sorted(sign_cocycle()):
        bad = GradedTensor(fx.algebra, sample_module(fx, "I"),
                           flip_cocycle(sign_cocycle(), triple),
                           name=f"flip{triple}")
        rep = check_monoidal_axioms(bad, fx.sample)
        if triple == (1, 1, 1):
            assert rep.ok
            continue
        pent = [r for r in rep.failures if r.name.startswith("pentagon")]
        assert pent, triple
        assert pent[0].witness and "lhs" in pent[0].witness
    assert time.perf_counter() - t0 < 2.0


def test_criterion_06_natural_family_roundtrip_50_homs():
    t0 = time.perf_counter()
    rng = random.Random(615)
    algebras = [group_algebra(Field(2), 2),
                group_algebra(Field(3), 3),
                truncated_polynomial(Field(2)),
                Algebra("K×K", VectorSpace(Field(3), ("p0", "p1")),
                        (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1)),
                group_algebra(Field(2), 4)]
    done = 0
    while done < 50:
        A = algebras[done % len(algebras)]
        P = Bimodule.regular(A)
        lin = linear_combination(P.space, P.space, [
            (rng.randrange(A.field.char), b) for b in hom_basis(P, P, {})])
        f = ModuleMap(P, P, lin)
        fam = induce_natural_family(f, [Module.regular(A)])
        back = nat_to_bimodule_hom(P, P, fam)  # verifies reconstruction
        assert back.lin.matrix == f.lin.matrix
        done += 1
    assert time.perf_counter() - t0 < 1.0


def _flatness_summary(rep):
    return [r for r in rep.results if r.name == "flatness-summary"][0]


def test_criterion_07_flatness_failure_probe():
    fx = dual_numbers_f2()
    wc = WattsContext(fx.ct)
    rep = verify_embedding(wc, fx.sample, fx.sequences)
    exactness = [r for r in rep.results
                 if r.name.startswith("omega-right-exact")]
    assert exactness and all(r.ok for r in exactness)
    inexact = _flatness_summary(rep).witness["inexact"]
    short = {s.name for s in fx.sequences if s.kind == "short-exact"}
    assert any(name in short for name, _ in inexact)

    fxs = bundled("strict-f3-z2")
    wcs = WattsContext(fxs.ct)
    reps = verify_embedding(wcs, fxs.sample, fxs.sequences)
    assert _flatness_summary(reps).witness["inexact"] == []


def test_criterion_08_rigidity_snakes():
    fx = graded_sign()
    for r in fx.rigidity:  # unit line and odd line
        assert check_rigidity(fx.ct, r.obj, r.dual, r.ev, r.db).ok
    assert {r.obj.name for r in fx.rigidity} == {"I", "L"}
    odd = [r for r in fx.rigidity if r.obj.name == "L"][0]
    bad_db = ModuleMap(odd.db.source, odd.db.target,
                       linear_combination(odd.db.lin.source,
                                          odd.db.lin.target,
                                          [(-1, odd.db.lin)]))
    assert not check_rigidity(fx.ct, odd.obj, odd.dual, odd.ev, bad_db).ok


def test_criterion_09_cli_determinism_and_exit_codes(capsys, tmp_path):
    def run(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    # byte-identical JSON and exit 0 across every bundled fixture file
    for name in bundled_fixture_files():
        code1, out1 = run(["--format", "json", "--seed", "11",
                           "validate", name])
        code2, out2 = run(["--format", "json", "--seed", "11",
                           "validate", name])
        assert code1 == code2 == 0 and out1 == out2, name
        assert json.loads(out1)["schema"] == 1
    for name in ("strict-f3-z2", "dual-numbers-f2"):
        _, first = run(["--format", "json", "watts", name])
        _, second = run(["--format", "json", "watts", name])
        assert first == second
    for name in ("graded-trivial", "graded-sign"):
        code, _ = run(["--format", "json", "watts", name,
                       "--checks", "axioms,rigidity"])
        assert code == 0

    # exit 1: semantic failure with witness
    fib_path = bundled_fixture_files()["fusion-fibonacci"]
    broken = json.loads(fib_path.read_text(encoding="utf-8"))
    broken["fusion"].append(["1", "tau", "1", 1])
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps(broken), encoding="utf-8")
    code, out = run(["--format", "json", "validate", str(bad_path)])
    assert code == 1 and json.loads(out)["report"]["failures"]

    # exit 2: unreadable input
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{", encoding="utf-8")
    assert run(["validate", str(mangled)])[0] == 2
    assert run(["validate", "no-such-fixture"])[0] == 2
