import json
import random

import pytest

from monocat import fusion
from monocat.fusion import (BlockMatrix, DivisibilityError, ExprError,
                            FusionData, InternalMismatch, ObjectExpr,
                            UnknownSimple, ZeroObject, check_embedding_homomorphism,
                            check_theorem4, dual_image, dual_object,
                            embed_object, end_dimension, fuse, fuse_power,
                            parse_object, tensor_images)
from monocat.fixtures import BUNDLED

from helpers import bundled, fusion_rings


@pytest.fixture(scope="module")
def fib():
    return bundled("fusion-fibonacci")


class TestValidate:
    @pytest.mark.parametrize("name", sorted(fusion_rings()))
    def test_bundled_rings_valid(self, name):
        assert fusion_rings()[name].validate().ok

    def test_broken_reciprocity_detected(self, fib):
        mult = dict(fib.mult)
        mult[("tau", "tau", "1")] = 2
        broken = FusionData(fib.simples, fib.unit, mult, fib.dual,
                            fib.endo_dim)
        report = broken.validate()
        checks = {f["check"] for f in report.failures}
        assert "associativity" in checks or "frobenius-reciprocity" in checks

    def test_broken_unit_detected(self, fib):
        mult = dict(fib.mult)
        mult[("1", "tau", "1")] = 1
        report = FusionData(fib.simples, fib.unit, mult, fib.dual,
                            fib.endo_dim).validate()
        assert any(f["check"].endswith("unit-law") for f in report.failures)

    def test_every_single_entry_mutation_caught(self):
        # A handful of bumps land on a different but fully consistent based
        # ring (e.g. tau·tau = 1 + 2·tau); those are undetectable by any
        # invariant checker and are exempted explicitly.
        undetectable = {("fibonacci", ("tau", "tau", "tau")),
                        ("ising", ("sigma", "sigma", "sigma")),
                        ("rep_s3", ("V", "V", "V")),
                        ("Z/2", ("g1", "g1", "g1"))}
        for name, fd in fusion_rings().items():
            triples = [(i, k, j) for i in fd.simples for k in fd.simples
                       for j in fd.simples]
            for t in triples:
                mult = dict(fd.mult)
                mult[t] = mult.get(t, 0) + 1
                mutant = FusionData(fd.simples, fd.unit, mult, fd.dual,
                                    fd.endo_dim)
                if (fd.name, t) in undetectable:
                    assert mutant.validate().ok
                else:
                    assert not mutant.validate().ok, (name, t)


class TestEmbed:
    def test_unit_identity_pattern(self, fib):
        V = embed_object(fib, ObjectExpr.simple("1"))
        assert V.to_lists() == [[1, 0], [0, 1]]

    def test_pointed_transposition(self):
        z2 = bundled("fusion-z2")
        V = embed_object(z2, ObjectExpr.simple("g1"))
        assert V.to_lists() == [[0, 1], [1, 0]]

    def test_fibonacci_tau(self, fib):
        V = embed_object(fib, ObjectExpr.simple("tau"))
        assert V.to_lists() == [[0, 1], [1, 1]]

    def test_unknown_simple(self, fib):
        with pytest.raises(UnknownSimple):
            embed_object(fib, ObjectExpr.simple("nope"))


class TestTensorImages:
    def test_identity_neutral(self, fib):
        V = embed_object(fib, ObjectExpr.simple("tau"))
        I = embed_object(fib, ObjectExpr.simple("1"))
        assert tensor_images(fib, V, I) == V

    def test_fibonacci_square(self, fib):
        tau = ObjectExpr.simple("tau")
        V = embed_object(fib, tau)
        sq = tensor_images(fib, V, V)
        assert sq.to_lists() == [[1, 1], [1, 2]]
        assert sq == embed_object(fib, fuse(fib, tau, tau))

    def test_pointed_square_is_unit(self):
        z2 = bundled("fusion-z2")
        V = embed_object(z2, ObjectExpr.simple("g1"))
        assert tensor_images(z2, V, V) == embed_object(
            z2, ObjectExpr.simple("g0"))


class TestDual:
    @pytest.mark.parametrize("ring,label", [
        ("fibonacci", "1"), ("fibonacci", "tau"),
        ("z2", "g1"), ("ising", "sigma")])
    def test_self_dual_transpose(self, ring, label):
        fd = fusion_rings()[ring]
        V = embed_object(fd, ObjectExpr.simple(label))
        assert dual_image(fd, V) == embed_object(
            fd, dual_object(fd, ObjectExpr.simple(label)))

    def test_z3_nontrivial_dual(self):
        z3 = bundled("fusion-z3")
        X = ObjectExpr.simple("g1")
        assert dual_image(z3, embed_object(z3, X)) == embed_object(
            z3, dual_object(z3, X))


class TestEndDimension:
    def test_unit(self, fib):
        assert end_dimension(fib, ObjectExpr.simple("1")) == 1

    def test_simple_schur(self, fib):
        assert end_dimension(fib, ObjectExpr.simple("tau")) == 1

    def test_fibonacci_cube(self, fib):
        cube = fuse_power(fib, ObjectExpr.simple("tau"), 3)
        assert cube.mult == {"1": 1, "tau": 2}
        assert end_dimension(fib, cube) == 5

    def test_mismatch_detected(self, fib):
        mult = dict(fib.mult)
        mult[("tau", "tau", "1")] = 2  # breaks Σm² vs unit multiplicity
        broken = FusionData(fib.simples, fib.unit, mult, fib.dual,
                            fib.endo_dim)
        with pytest.raises(InternalMismatch):
            end_dimension(broken, ObjectExpr.simple("tau"))


def _growth_bound(fd, name):
    """The growth bound d that ``check_theorem4`` reports for a simple."""
    return check_theorem4(fd, ObjectExpr.simple(name), 1)["d"]


class TestGrowthBound:
    def test_unit_bound_one(self, fib):
        assert _growth_bound(fib, "1") == 1

    def test_tau_bound_two(self, fib):
        assert _growth_bound(fib, "tau") == 2

    def test_pointed_bound_one(self):
        assert _growth_bound(bundled("fusion-z2"), "g1") == 1

    def test_zero_object(self, fib):
        with pytest.raises(ZeroObject):
            check_theorem4(fib, ObjectExpr.zero(), 3)


def brute_force_end_dim(fd, X, n):
    """Oracle: iterate the fusion expansion and sum squared multiplicities."""
    power = X
    for _ in range(n - 1):
        power = fuse(fd, power, X)
    return sum(m * m * fd.r(i) for i, m in power.mult.items())


class TestTheorem4:
    def test_fibonacci_sequence(self, fib):
        report = check_theorem4(fib, ObjectExpr.simple("tau"), 5)
        assert [r["dim_end"] for r in report["rows"]] == [1, 2, 5, 13, 34]
        assert report["ok"] and report["d"] == 2
        for r in report["rows"]:
            assert r["bound"] == 4 ** r["n"]

    def test_ising_sequence(self):
        ising = bundled("fusion-ising")
        report = check_theorem4(ising, ObjectExpr.simple("sigma"), 4)
        assert [r["dim_end"] for r in report["rows"]] == [1, 2, 4, 8]
        assert report["ok"]

    def test_invertible_all_ones(self):
        z6 = bundled("fusion-z6")
        report = check_theorem4(z6, ObjectExpr.simple("g1"), 6)
        assert [r["dim_end"] for r in report["rows"]] == [1] * 6

    @pytest.mark.parametrize("n_max", [1, 3, 5])
    def test_embeds_x_once_and_each_power_once(self, fib, monkeypatch,
                                               n_max):
        # X for d and V1, then the powers X^2 … X^n_max: n_max + 1 in all
        embed, calls = fusion.embed_object, []

        def counted(fd, X):
            calls.append(X)
            return embed(fd, X)

        monkeypatch.setattr(fusion, "embed_object", counted)
        report = check_theorem4(fib, ObjectExpr.simple("tau"), n_max)
        assert report["d"] == 2 and len(report["rows"]) == n_max
        assert len(calls) == n_max + 1

    def test_matches_brute_force(self):
        for name in ("fibonacci", "ising", "rep_s3"):
            fd = fusion_rings()[name]
            for label in fd.simples:
                X = ObjectExpr.simple(label)
                report = check_theorem4(fd, X, 4)
                for r in report["rows"]:
                    assert r["dim_end"] == brute_force_end_dim(fd, X, r["n"])


class TestHomomorphism:
    def test_unit_pair(self, fib):
        I = ObjectExpr.simple("1")
        assert check_embedding_homomorphism(fib, I, I)["ok"]

    def test_zero_embeds_to_zero(self, fib):
        assert embed_object(fib, ObjectExpr.zero()).is_zero

    def test_random_pairs_against_oracle(self):
        rng = random.Random(20240817)
        rings = fusion_rings()
        for _ in range(100):
            fd = rings[rng.choice(sorted(rings))]
            X = ObjectExpr({l: rng.randint(0, 2) for l in fd.simples})
            Y = ObjectExpr({l: rng.randint(0, 2) for l in fd.simples})
            assert check_embedding_homomorphism(fd, X, Y)["ok"]
            # oracle recomputation of the product entry by entry
            VX, VY = embed_object(fd, X), embed_object(fd, Y)
            prod = tensor_images(fd, VX, VY)
            for j in fd.simples:
                for n in fd.simples:
                    oracle = sum(
                        X.m(p) * Y.m(q) * fd.c(p, q, i) * fd.c(i, n, j)
                        for p in fd.simples for q in fd.simples
                        for i in fd.simples) * fd.r(j)
                    assert prod.entry(j, n) == oracle


class TestEndoDims:
    """A ring with a non-trivial endomorphism field dimension."""

    @pytest.fixture
    def quaternionic(self):
        # real representations of Z/4: simples 1, s, V with End(V) a
        # degree-2 field; V⊙V = 2·1 + 2·s, multiplicities measured over
        # the target simple's endomorphism field
        labels = ("1", "s", "V")
        mult = {}
        for a in labels:
            mult[("1", a, a)] = 1
            mult[(a, "1", a)] = 1
        mult.update({("s", "s", "1"): 1, ("s", "V", "V"): 1,
                     ("V", "s", "V"): 1, ("V", "V", "1"): 2,
                     ("V", "V", "s"): 2})
        return FusionData(labels, "1", mult, {l: l for l in labels},
                          {"1": 1, "s": 1, "V": 2}, name="rep_r_z4")

    def test_valid(self, quaternionic):
        assert quaternionic.validate().ok

    def test_embedding_homomorphism_with_fields(self, quaternionic):
        H = ObjectExpr.simple("V")
        assert check_embedding_homomorphism(quaternionic, H, H)["ok"]
        assert end_dimension(quaternionic, H) == 2

    @pytest.mark.parametrize("rows, message", [
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         "block row V: 1 not divisible by r_j = 2"),
        (((1, 0, 1), (0, 1, 0), (0, 0, 2)),
         "middle block (1,V) = 1 not divisible by r_k = 2"),
    ])
    def test_indivisible_block_is_rejected(self, quaternionic, rows,
                                           message):
        V = BlockMatrix(quaternionic.simples, rows)
        with pytest.raises(DivisibilityError) as exc:
            tensor_images(quaternionic, V, V)
        assert str(exc.value) == message

    def test_theorem4_adjusts_base_for_endo_fields(self, quaternionic):
        report = check_theorem4(quaternionic, ObjectExpr.simple("V"), 3)
        assert report["c"] == 2 and report["base"] == report["d"] * 4
        assert report["ok"]


class TestParser:
    def test_simple_and_sum(self, fib):
        assert parse_object(fib, "tau+tau").mult == {"tau": 2}

    def test_product_and_power(self, fib):
        assert parse_object(fib, "tau*tau").mult == {"1": 1, "tau": 1}
        assert parse_object(fib, "tau^3").mult == {"1": 1, "tau": 2}
        assert parse_object(fib, "tau^0").mult == {"1": 1}

    def test_parentheses(self, fib):
        assert parse_object(fib, "(1+tau)*tau").mult == {"1": 1, "tau": 2}
        assert parse_object(fib, "( 1 + tau ) * tau").mult == \
            {"1": 1, "tau": 2}

    def test_errors(self, fib):
        with pytest.raises(UnknownSimple):
            parse_object(fib, "sigma")
        with pytest.raises(ExprError):
            parse_object(fib, "tau+")
        with pytest.raises(ExprError):
            parse_object(fib, "(tau")

    @pytest.mark.parametrize("text, message", [
        ("tau+", "'tau+': expected a simple object or '(' at position 4, "
                 "found end of input"),
        ("", "'': expected a simple object or '(' at position 0, "
             "found end of input"),
        ("tau*", "'tau*': expected a simple object or '(' at position 4, "
                 "found end of input"),
        ("tau tau", "'tau tau': expected '+', '*', '^' or end of input at "
                    "position 4, found 'tau'"),
        ("tau^x", "'tau^x': expected a non-negative integer exponent at "
                  "position 4, found 'x'"),
        ("tau^", "'tau^': expected a non-negative integer exponent at "
                 "position 4, found end of input"),
    ])
    def test_malformed_expression_names_position_and_expectation(
            self, fib, text, message):
        with pytest.raises(ExprError) as exc:
            parse_object(fib, text)
        assert str(exc.value) == message


class TestJson:
    @pytest.mark.parametrize("name", sorted(fusion_rings()))
    def test_loaded_values_are_the_file(self, name):
        data = json.loads((BUNDLED / f"fusion-{name}.json").read_text(
            encoding="utf-8"))
        fd = fusion_rings()[name]
        assert (fd.name, fd.simples, fd.unit) == \
            (data["name"], tuple(data["simples"]), data["unit"])
        assert fd.mult == {(i, k, j): c for i, k, j, c in data["fusion"]}
        assert fd.dual == data["dual"]
        assert fd.endo_dim == data["endo_dim"]
