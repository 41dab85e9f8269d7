import gc
import itertools
import json
import weakref
from collections import Counter
from dataclasses import fields, replace

import pytest

import monocat.algmod as algmod
import monocat.watts as watts
from monocat.algmod import (Algebra, Bimodule, Module, ModuleMap,
                            StructureError, TensorCell, balanced_tensor,
                            bimodule_tensor, descend, hom_basis,
                            matrix_to_json, module_identity,
                            module_tensor_commutative, tensor_maps,
                            tensor_over)
from monocat.cli import CHECK_GROUPS, _watts_reports
from monocat.fixtures import (BUNDLED, FixtureError, bundled_fixture_files,
                              bundled_watts_fixtures,
                              dual_numbers_f2, fixture_from_json,
                              graded_sign, load_fixture_file,
                              resolve_fixture,
                              watts_fixture_from_json)
from monocat.linalg import (Field, FieldScalar, LinearMap, VectorSpace,
                            compose, compose_all, identity,
                            linear_combination, rank,
                            serialize_raw, solve_iso, tensor, zero_map)
from monocat.watts import (BimoduleTensor, ExactSequence, GradedTensor,
                           MalformedTensor, NotBalanced, NotNatural,
                           OmegaFunctor, StrictTensor, WattsContext, _hom_samples,
                           check_monoidal_axioms, check_rigidity,
                           check_T_coherence, flip_cocycle,
                           induce_natural_family, is_three_cocycle,
                           merge_reports,
                           nat_to_bimodule_hom, sign_cocycle,
                           trivial_cocycle,
                           verify_embedding, verify_monoidal_functor)
from monocat.watts import ActionClash, TripleModule

from helpers import bundled, group_algebra, sample_module


@pytest.fixture(scope="module")
def fx_strict():
    return bundled("strict-f3-z2")


@pytest.fixture(scope="module")
def fx_sign():
    return graded_sign()


@pytest.fixture(scope="module")
def wc_strict(fx_strict):
    return WattsContext(fx_strict.ct)


@pytest.fixture(scope="module")
def wc_sign(fx_sign):
    return WattsContext(fx_sign.ct)


class TestCocycles:
    def test_bundled_are_cocycles(self):
        assert is_three_cocycle(trivial_cocycle())
        assert is_three_cocycle(sign_cocycle())

    def test_single_flip_breaks_condition(self):
        assert not is_three_cocycle(flip_cocycle(trivial_cocycle(), (0, 1, 0)))

    def test_top_flip_exchanges_the_two_cocycles(self):
        assert flip_cocycle(trivial_cocycle(), (1, 1, 1)) == sign_cocycle()


class TestGuards:
    def test_graded_rejects_char_two(self):
        A = group_algebra(Field(2), 2)
        with pytest.raises(MalformedTensor):
            GradedTensor(A, Module.regular(A), trivial_cocycle())

    def test_graded_rejects_wrong_dimension(self):
        A = group_algebra(Field(3), 3)
        with pytest.raises(MalformedTensor):
            GradedTensor(A, Module.regular(A), trivial_cocycle())

    def test_graded_rejects_an_algebra_other_than_the_group_algebra(self):
        # basis (1, e) with e·e = e: dimension 2 and characteristic 3, but
        # element 1 is no g with g² = 1
        F = Field(3)
        A = Algebra("idempotent", VectorSpace(F, ("1", "e")),
                    (((1, 0), (0, 1)), ((0, 1), (0, 1))), (1, 0))
        A.check()
        line = VectorSpace(F, ("i0",))
        I = Module("I", A, line, "right", (identity(line), identity(line)))
        I.check()
        with pytest.raises(MalformedTensor, match=r"K\[Z/2\]"):
            GradedTensor(A, I, trivial_cocycle())

    def test_strict_rejects_noncommutative(self):
        with pytest.raises(StructureError):
            StrictTensor(upper_triangular(Field(3)))

    def test_bad_sequence_rejected(self, fx_strict):
        R = sample_module(fx_strict, "R")
        Sp = sample_module(fx_strict, "Sp")
        Sm = sample_module(fx_strict, "Sm")
        f = ModuleMap(Sm, R, LinearMap(Sm.space, R.space, [[1], [-1]]))
        g = ModuleMap(R, Sp, LinearMap(R.space, Sp.space, [[1, 1]]))
        # claiming short-exactness of a complex whose f is zero must fail
        zf = ModuleMap(Sm, R, LinearMap(Sm.space, R.space, [[0], [0]]))
        with pytest.raises(StructureError):
            ExactSequence("bad", "short-exact", zf, g).check()
        ExactSequence("good", "short-exact", f, g).check()


class TestMonoidalAxioms:
    def test_strict_sample_passes(self, fx_strict):
        rep = check_monoidal_axioms(fx_strict.ct, fx_strict.sample)
        assert rep.ok and len(rep.results) > 300

    def test_graded_sign_passes(self, fx_sign):
        assert check_monoidal_axioms(fx_sign.ct, fx_sign.sample).ok

    def test_flipped_cocycle_fails_pentagon_with_witness(self, fx_sign):
        bad = GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"),
                           flip_cocycle(sign_cocycle(), (0, 1, 0)),
                           name="flipped")
        rep = check_monoidal_axioms(bad, fx_sign.sample)
        pent = [r for r in rep.failures if r.name.startswith("pentagon")]
        assert pent
        assert {"lhs", "rhs"} <= set(pent[0].witness)

    def test_pentagon_fails_exactly_off_the_cocycles(self, fx_sign):
        # all 2^8 sign functions ω on (Z/2)³, checked on the lines I and L
        # on one table: the pentagon holds exactly on the 8 cocycles
        # (EGNO ch. 2), and with the unitors fixed only the normalised
        # ones, trivial and sign, pass every axiom
        sample = [sample_module(fx_sign, "I"), sample_module(fx_sign, "L")]
        triples = sorted(sign_cocycle())
        cells = {}
        cocycles, passing = 0, []
        for signs in itertools.product((1, -1), repeat=len(triples)):
            omega = dict(zip(triples, signs))
            ct = GradedTensor(fx_sign.algebra, sample[0], omega, cells=cells)
            rep = check_monoidal_axioms(ct, sample)
            pent = [r for r in rep.results if r.name.startswith("pentagon[")]
            assert len(pent) == 16
            assert all(r.ok for r in pent) == is_three_cocycle(omega), omega
            cocycles += is_three_cocycle(omega)
            if rep.ok:
                passing.append(omega)
        assert cocycles == 8
        assert passing == [trivial_cocycle(), sign_cocycle()]

    def test_graded_alpha_skips_zero_terms(self, fx_sign):
        # α has the rows of Σ ω(a,b,c)·P_a⊗P_b⊗P_c written out over all
        # eight terms; at (I,L,L) every defect term of the sign cocycle
        # meets P₁ of the even line I, which is zero, so α is the flagged
        # identity inclusion, while at (L,L,L) the defect stays
        ct = fx_sign.ct
        for X, Y, Z in itertools.product(fx_sign.sample, repeat=3):
            assert ct.associator(X, Y, Z).lin.rows == \
                _dense_graded_alpha(ct, X, Y, Z).rows
        I, L = sample_module(fx_sign, "I"), sample_module(fx_sign, "L")
        a = ct.associator(I, L, L).lin
        assert a.cols is not None and a.rows == identity(a.source).rows
        a = ct.associator(L, L, L).lin
        assert a.cols is None and a.rows != identity(a.source).rows

    def test_trivial_cocycle_builds_no_projector(self, fx_sign):
        ct = GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"),
                          trivial_cocycle())
        assert check_monoidal_axioms(ct, fx_sign.sample).ok
        assert ct._parities == {}
        assert all(a.lin.cols is not None for a in ct._assocs.values())


def _dense_graded_alpha(ct, X, Y, Z):
    """Σ ω(a,b,c)·P_a⊗P_b⊗P_c over all eight triples, zero terms too."""
    half = ct.field._coerce("1/2")
    P = [[linear_combination(M.space, M.space, ((half, identity(M.space)),
                                                (sign * half, M.action[1])))
          for sign in (1, -1)] for M in (X, Y, Z)]
    lin = ct.associator(X, Y, Z).lin
    return linear_combination(lin.source, lin.target, [
        (w, tensor(tensor(P[0][a], P[1][b]), P[2][c]))
        for (a, b, c), w in ct.cocycle.items()])


class TestTransport:
    def test_T_has_three_commuting_actions(self, wc_strict, wc_sign):
        wc_strict.T.check()
        wc_sign.T.check()
        # R ⊗_R R collapses to R; the graded product of R with itself does not
        assert wc_strict.T.space.dim == 2
        assert wc_sign.T.space.dim == 4

    def test_T_coherence(self, wc_strict, wc_sign):
        assert check_T_coherence(wc_strict).ok
        assert check_T_coherence(wc_sign).ok

    def test_mu_nu_inverse_pair(self, wc_strict):
        for X in (wc_strict.R, ):
            nu = wc_strict.nu(X)
            mu = wc_strict.inverse(nu)
            assert (mu.source, mu.target) == (nu.target, nu.source)
            assert compose(nu.lin, mu.lin).matrix == \
                identity(nu.target.space).matrix

    def test_twisted_transported_associator_not_identity(self, wc_sign):
        R = wc_sign.R
        a = wc_sign.alpha_prime(R, R, R)
        assert a.lin.matrix != identity(a.source.space).matrix

    def test_c_is_iso(self, wc_strict, fx_strict):
        for X in fx_strict.sample:
            for Y in fx_strict.sample:
                c = wc_strict.c_iso(X, Y)
                assert rank(c.lin) == c.source.dim == c.target.dim

    def test_transported_structure_is_monoidal(self, wc_strict, fx_strict):
        sample = [sample_module(fx_strict, "R"), sample_module(fx_strict, "Sm")]
        assert check_monoidal_axioms(wc_strict, sample).ok

    def test_context_is_the_transported_tensor(self, wc_sign, fx_sign):
        # the product is D, the associator α′ and the unitors λ′, ρ′;
        # ``dcell`` and ``alpha_prime`` build what the caches hold
        ct, R, I = wc_sign.ct, wc_sign.R, wc_sign.unit
        assert wc_sign.name == f"transported[{ct.name}]"
        assert I == ct.unit
        for X in fx_sign.sample:
            assert wc_sign.product(X, R) == wc_sign.dcell(X, R)
            assert wc_sign.left_unit(X).lin.rows == compose(
                ct.left_unit(X).lin, wc_sign.c_iso(I, X).lin).rows
            assert wc_sign.right_unit(X).lin.rows == compose(
                ct.right_unit(X).lin, wc_sign.c_iso(X, I).lin).rows
        assert wc_sign.associator(R, R, R) == wc_sign.alpha_prime(R, R, R)

    @pytest.mark.parametrize("flip", [None, (0, 1, 1)])
    def test_transported_axioms_at_R(self, fx_sign, flip):
        # negative control: with ω(0,1,1) negated the transported pentagon
        # and the derived left unit diagram fail at R, with witnesses
        coc = sign_cocycle() if flip is None else \
            flip_cocycle(sign_cocycle(), flip)
        ct = GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"), coc)
        R = sample_module(fx_sign, "R")
        rep = check_monoidal_axioms(WattsContext(ct), [R])
        assert len(rep.results) == 27
        failed = sorted(r.name for r in rep.failures)
        assert failed == ([] if flip is None else
                          ["pentagon[R,R,R,R]", "unit-left-derived[R,R]"])
        for r in rep.failures:
            assert {"lhs", "rhs"} <= set(r.witness)
            assert r.witness["lhs"] != r.witness["rhs"]

    def test_context_freed_by_refcount(self, fx_strict, fx_sign):
        # a reference cycle through the context would keep it and all of
        # its caches alive until the cyclic collector runs
        gc.disable()
        try:
            for fx in (fx_strict, fx_sign):
                wc = WattsContext(fx.ct)
                assert check_T_coherence(wc).ok
                assert verify_monoidal_functor(wc, fx.sample).ok
                ref = weakref.ref(wc)
                del wc
                assert ref() is None, fx.name
        finally:
            gc.enable()


class TestSharedRegularModule:
    @pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
    def test_context_R_is_the_sample_R(self, name):
        for fx in (bundled_watts_fixtures()[name], resolve_fixture(name)):
            wc = WattsContext(fx.ct)
            R = sample_module(fx, "R")
            assert wc.R == R
            assert wc.omega(wc.R) is wc.omega(R)
            assert len(wc._omega) == 1

    @pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
    def test_loaded_R_is_the_regular_module(self, name):
        # one object: its space is the algebra's, and every sequence end
        # named R is it
        fx = resolve_fixture(name)
        R = sample_module(fx, "R")
        assert R == Module.regular(fx.algebra)
        assert R.space is fx.algebra.space
        ends = [M for s in fx.sequences
                for M in (s.f.source, s.f.target, s.g.target)]
        assert all(M is R for M in ends if M.name == "R")

    @pytest.mark.parametrize("name", ["strict-f3-z2", "dual-numbers-f2"])
    def test_strict_unit_is_the_sample_R(self, name):
        for fx in (bundled_watts_fixtures()[name], resolve_fixture(name)):
            assert fx.ct.unit is sample_module(fx, "R") is WattsContext(fx.ct).R

    def test_fixtures_on_one_table_share_their_objects(self):
        # on report's table, graded-trivial loads graded-sign's algebra,
        # R and sample modules, so their caches hit by pointer
        cells = {}
        fxs = {p.stem: load_fixture_file(p, cells)
               for p in sorted(BUNDLED.glob("*.json"))}
        sign, trivial = fxs["graded-sign"], fxs["graded-trivial"]
        assert trivial.algebra is sign.algebra
        assert [m.name for m in trivial.sample] == \
            [m.name for m in sign.sample]
        for m in trivial.sample:
            assert m is sample_module(sign, m.name)
        # strict-f3-z2 is over the same algebra: one R, also its unit
        strict = fxs["strict-f3-z2"]
        assert strict.algebra is sign.algebra
        assert strict.ct.unit is sample_module(strict, "R") is sample_module(sign, "R")
        assert WattsContext(trivial.ct).R is sample_module(sign, "R")
        assert sample_module(sign, "R").space is sign.algebra.space

    def test_equal_samples_keep_their_names(self):
        # graded-sign with L repeated as L2: L2 is equal to L but stays its
        # own object; every sampled map is interned, so the map drawn for
        # (L2, L2) is the one drawn for (L, L), and each carries the names
        # of the pair it was drawn for, which the recorder puts in ``pair``
        data = json.loads((BUNDLED / "graded-sign.json").read_text())
        L = next(m for m in data["modules"] if m["name"] == "L")
        data["modules"].append(dict(L, name="L2"))
        fx = watts_fixture_from_json(data)
        L, L2 = sample_module(fx, "L"), sample_module(fx, "L2")
        assert L2 == L and L2 is not L and L2.name == "L2"
        samples = _hom_samples(fx.sample, fx.ct.cells)
        pairs = [(X, Y) for X in fx.sample for Y in fx.sample
                 for _ in hom_basis(X, Y, {})]
        assert [(source, target) for _, source, target in samples] == \
            [(X.name, Y.name) for X, Y in pairs]
        assert all(f.source == X and f.target == Y
                   for (f, _, _), (X, Y) in zip(samples, pairs))
        drawn_for_L2 = [f for f, source, _ in samples if source == "L2"]
        assert drawn_for_L2 and all(f.source is L for f in drawn_for_L2)
        contexts = [ctx for _, _, ctx in watts._Recorder().maps("f", samples)]
        assert [ctx["pair"] for ctx in contexts] == \
            [[X.name, Y.name] for X, Y in pairs]
        assert ["L2", "L2"] in [ctx["pair"] for ctx in contexts]
        assert _hom_samples(fx.sample, fx.ct.cells)[0][0] is samples[0][0]

    def test_parity_projectors_built_once(self, fx_sign):
        for X in fx_sign.sample:
            first = fx_sign.ct._parity(X)
            assert fx_sign.ct._parity(X) is first


def _report_watts_fixtures_on_one_table() -> dict:
    """The cell table after every check group ran on each bundled watts
    fixture, all loaded on that one table as ``monocat report`` does."""
    cells = {}
    for name in ("dual-numbers-f2", "graded-sign", "graded-trivial",
                 "strict-f3-z2"):
        fx = load_fixture_file(BUNDLED / f"{name}.json", cells)
        assert all(rep.ok for rep in _watts_reports(fx, set(CHECK_GROUPS)))
    return cells


class TestSharedCells:
    """A module is its content: a renamed copy is equal, hashes alike and
    shares every cache entry, which keeps the first name seen, while the
    checks name the caller's modules."""

    def test_renamed_module_is_equal_and_hashes_alike(self, fx_strict):
        X = sample_module(fx_strict, "Sp")
        X2 = replace(X, name="X2")
        assert X2 == X and hash(X2) == hash(X)
        B = Bimodule.regular(fx_strict.algebra)
        B2 = replace(B, name="B2")
        assert B2 == B and hash(B2) == hash(B)
        assert replace(X, side="left") != X

    def test_renamed_module_shares_the_dcell(self, fx_strict):
        # the product cache keeps one cell per content; its module is the
        # table's one object of that content, here Sp itself, as D(Sp,R) = Sp
        wc = WattsContext(fx_strict.ct)
        X = sample_module(fx_strict, "Sp")
        X2 = replace(X, name="X2")
        first = wc.product(X, wc.R)
        assert wc.product(X2, wc.R) is first
        assert first.module is algmod.intern(wc.cells, first.module)
        assert first.module == X and first.module.name == "Sp"

    def test_renamed_module_shares_the_product(self):
        fx = bundled("strict-f3-z2")
        X, Y = sample_module(fx, "Sp"), sample_module(fx, "Sm")
        X2 = replace(X, name="X2")
        first = fx.ct.product(X, Y)
        assert fx.ct.product(X2, Y) is first
        assert first.module.name == "(Sp⊗Sm)"

    def test_cells_keep_the_algebra(self):
        fx = bundled("strict-f3-z2")
        X, Y = sample_module(fx, "Sp"), sample_module(fx, "Sm")
        fx.ct.product(X, Y)
        other = replace(Y, algebra=replace(Y.algebra, name="other"))
        with pytest.raises(StructureError, match="different algebras"):
            fx.ct.product(X, other)

    def test_each_context_starts_with_its_own_cells(self):
        # a context works on its tensor's table, so contexts over tensors
        # loaded apart share nothing
        fx = bundled("strict-f3-z2")
        first = WattsContext(fx.ct)
        first.product(sample_module(fx, "Sp"), first.R)
        assert first._products and first._ombar
        second = WattsContext(bundled("strict-f3-z2").ct)
        assert second._products == {} and second._ombar == {}

    def test_one_table_serves_both_graded_fixtures(self, monkeypatch):
        # graded-trivial and graded-sign are one category under two
        # cocycles: after graded-sign, graded-trivial builds no cokernel
        # and adds no product, ω, X⊗₂T, ν, c or inverse; only mor may
        # grow, as mor(α, id) keys on α
        builds = []
        build = algmod.quotient_by_raw_rows
        monkeypatch.setattr(algmod, "quotient_by_raw_rows",
                            lambda *args: builds.append(1) or build(*args))
        groups = set(CHECK_GROUPS)
        cells = {}
        sign = load_fixture_file(BUNDLED / "graded-sign.json", cells)
        trivial = load_fixture_file(BUNDLED / "graded-trivial.json", cells)
        first = _watts_reports(sign, groups)
        assert builds and all(rep.ok for rep in first)
        shared = ("_products", "_omega", "_ombar", "_nu", "_c", "_inv")
        sizes = {key: len(memo) for key, memo in cells.items()
                 if type(key[0]) is tuple and key[1] in shared}
        assert len(sizes) == 8  # ⊙, D and ⊗_R products, five of D's
        size = len(cells)
        builds.clear()
        second = _watts_reports(trivial, groups)
        assert builds == [] and len(cells) == size
        assert {key: len(cells[key]) for key in sizes} == sizes
        assert [rep.to_json() for rep in second] == \
            [rep.to_json() for rep in _watts_reports(bundled("graded-trivial"), groups)]

    def test_renamed_bimodule_shares_one_proj_and_one_module(self,
                                                             fx_strict):
        # the table keeps the balanced cell and the interned module, keyed
        # by content: a renamed bimodule shares both, and the module keeps
        # the first name
        cells = {}
        B = replace(Bimodule.regular(fx_strict.algebra), name="B")
        first = bimodule_tensor(B, B, cells=cells)
        second = bimodule_tensor(replace(B, name="B2"), B, cells=cells)
        assert second.proj is first.proj and second == first
        assert second.module is first.module
        assert first.module.name == "(B⊗B)"
        interned = cells.pop("interned")
        assert list(interned) == [first.module]
        assert [key[0] for key in cells] == ["balanced_tensor"]

    def test_every_cokernel_is_built_once_on_the_table(self, monkeypatch):
        # every product of the watts fixtures is a balancing cokernel
        # looked up in the one table, so each is built once and kept
        builds = []
        build = algmod.quotient_by_raw_rows
        monkeypatch.setattr(algmod, "quotient_by_raw_rows",
                            lambda *args: builds.append(1) or build(*args))
        cells = _report_watts_fixtures_on_one_table()
        entries = [key for key in cells if key[0] == "balanced_tensor"]
        assert builds and len(builds) == len(entries)

    def test_each_product_cell_has_one_store(self):
        # tensor_over builds and keeps nothing: after a report on one
        # table, each cell on it is held once, by the cache that asked
        # for it, and no cell carries a name of its own
        cells = _report_watts_fixtures_on_one_table()
        assert not any(key[0] == "tensor_over" for key in cells)
        held = Counter(id(cell) for key, entry in cells.items()
                       if key != "interned"
                       for cell in (entry.values() if type(entry) is dict
                                    else (entry,))
                       if type(cell) is TensorCell)
        assert held and set(held.values()) == {1}
        assert "name" not in {f.name for f in fields(TensorCell)}

    def test_checks_name_the_renamed_module(self):
        fx = bundled("strict-f3-z2")
        X2 = replace(sample_module(fx, "Sp"), name="X2")
        sample = list(fx.sample) + [X2]
        rep = check_monoidal_axioms(fx.ct, sample)
        assert rep.ok and "X2" in rep.sample
        names = [r.name for r in rep.results]
        n = len(sample)
        assert sum(x.startswith("pentagon[") for x in names) == n ** 4
        assert sum(x.startswith("triangle[") for x in names) == n ** 2
        assert "pentagon[X2,Sp,X2,R]" in names
        assert "triangle[Sp,X2]" in names


class TestFunctorKey:
    """Tensors that differ only in their associator share, through one
    table, every cache that depends on ⊙'s rule on objects and morphisms;
    α, α′ and ξ stay their own."""

    def test_a_flipped_cocycle_reads_no_alpha_of_another(self):
        # graded-sign's run fills the table; a graded tensor with the
        # cocycle flipped at (0,1,1) then reports on it exactly what it
        # reports on a table of its own, failures and witnesses included
        groups = set(CHECK_GROUPS)
        cells = {}
        sign = load_fixture_file(BUNDLED / "graded-sign.json", cells)
        assert all(rep.ok for rep in _watts_reports(sign, groups))
        flipped = flip_cocycle(sign_cocycle(), (0, 1, 1))

        def reports(table):
            ct = GradedTensor(sign.algebra, sample_module(sign, "I"), flipped,
                              name="graded-flipped", cells=table)
            reps = _watts_reports(replace(sign, ct=ct), groups)
            return ct, [rep.to_json() for rep in reps]

        shared, on_shared = reports(cells)
        own, on_own = reports(None)
        assert shared._products is sign.ct._products
        assert own._products is not sign.ct._products
        assert shared._assocs is not sign.ct._assocs
        assert on_shared == on_own
        # α fails the pentagon, α′ the T-pentagon and ξ the functor one
        failed = [c for rep in on_shared for c in rep["checks"]
                  if not c["ok"] and c["name"] != "cocycle-condition"]
        assert {c["name"].split("[")[0] for c in failed} == {
            "pentagon", "unit-left-derived", "T-pentagon",
            "functor-pentagon"}
        assert all({"lhs", "rhs"} <= set(c["witness"]) for c in failed)

    def test_one_algebra_under_two_rules_stays_apart(self, fx_strict,
                                                     fx_sign):
        # strict-f3-z2 and the graded fixtures share the algebra 𝔽₃[Z/2]:
        # the key names the rule, so R⊙R keeps each rule's dimension
        assert fx_strict.algebra == fx_sign.algebra
        R = Module.regular(fx_strict.algebra)

        def strict(cells):
            return StrictTensor(fx_strict.algebra, cells=cells)

        def graded(cells):
            return GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"),
                                trivial_cocycle(), cells=cells)

        alone = {build: build(None).product(R, R) for build in
                 (strict, graded)}
        assert alone[strict].space.dim == 2 and alone[graded].space.dim == 4
        for order in ((strict, graded), (graded, strict)):
            cells = {}
            for build in order:
                assert build(cells).product(R, R) == alone[build]

    def test_contexts_share_what_the_key_fixes(self):
        # ⊗_R's products and c_{X,Y}, which collapses D(X,Y) through ν,
        # are fixed by the functor key: graded-trivial's context reads the
        # ones graded-sign's run built and adds none, and keeps its own α′
        groups = set(CHECK_GROUPS)
        cells = {}
        sign = load_fixture_file(BUNDLED / "graded-sign.json", cells)
        trivial = load_fixture_file(BUNDLED / "graded-trivial.json", cells)
        assert all(rep.ok for rep in _watts_reports(sign, groups))
        first, second = WattsContext(sign.ct), WattsContext(trivial.ct)
        assert second.bimodules._products is first.bimodules._products
        assert second._c is first._c and second._inv is first._inv
        assert second._assocs is not first._assocs
        sizes = [len(memo) for memo in (first.bimodules._products, first._c,
                                        first._inv)]
        assert all(sizes)
        assert all(rep.ok for rep in _watts_reports(trivial, groups))
        assert [len(memo) for memo in (second.bimodules._products,
                                       second._c, second._inv)] == sizes

    def test_failing_functor_pentagons_share_the_bimodule_associator(self):
        # only a failing functor-pentagon instance builds ⊗_R's α, which
        # the functor key fixes too: a second tensor with the same flipped
        # cocycle on the table reads the α's the first one's run built
        text = (BUNDLED / "graded-sign.json").read_text()
        data = json.loads(text)
        data["tensor"]["cocycle"][3][3] *= -1
        cells = {}
        first = watts_fixture_from_json(data, cells)
        second = watts_fixture_from_json(json.loads(json.dumps(data)), cells)
        assert second.ct is not first.ct
        assocs = WattsContext(first.ct).bimodules._assocs
        assert not assocs
        assert not _watts_reports(first, {"functor"})[0].ok
        size = len(assocs)
        assert size and WattsContext(second.ct).bimodules._assocs is assocs
        assert not _watts_reports(second, {"functor"})[0].ok
        assert len(assocs) == size

    def test_strict_tensors_share_alpha(self, fx_strict):
        cells = {}
        first = StrictTensor(fx_strict.algebra, cells=cells)
        second = StrictTensor(fx_strict.algebra, cells=cells)
        R = first.unit
        assert second.associator(R, R, R) is first.associator(R, R, R)

    def test_a_context_works_on_its_tensors_table(self, fx_sign):
        # contexts over one tensor share its table and their functor
        # caches, and keep their own α′
        ct = GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"),
                          sign_cocycle())
        first, second = WattsContext(ct), WattsContext(ct)
        assert first.cells is ct.cells and first.bimodules.cells is ct.cells
        assert first.key == ("transported", (GradedTensor, fx_sign.algebra))
        R = first.R
        assert second.product(R, R) is first.product(R, R)
        assert second.omega(R) is first.omega(R)
        assert first.associator(R, R, R) is not None
        assert first._assocs and second._assocs == {}


class TestIdentityCache:
    """A tensor keeps one identity map per content of its argument, so
    every mor(f, id) key after the first is found by pointer."""

    def test_one_identity_per_module(self):
        fx = bundled("strict-f3-z2")
        ct, X = fx.ct, sample_module(fx, "Sp")
        assert ct.ident(X) is ct.ident(X)
        assert ct.ident(X) == module_identity(X)

    def test_renamed_module_shares_the_identity(self):
        fx = bundled("strict-f3-z2")
        ct, X, Y = fx.ct, sample_module(fx, "Sp"), sample_module(fx, "Sm")
        X2 = replace(X, name="X2")
        assert ct.ident(X2) is ct.ident(X)
        f = ModuleMap(Y, Y, hom_basis(Y, Y, {})[0])
        assert ct.mor(f, ct.ident(X2)) is ct.mor(f, ct.ident(X))

    def test_each_tensor_keeps_its_own_identities(self):
        # each tensor keeps its own dict of identities, and on one table
        # they hold one identity per content
        fx = bundled("strict-f3-z2")
        wc = WattsContext(fx.ct)
        X = sample_module(fx, "Sp")
        assert wc.ident(X) is fx.ct.ident(X)
        assert wc._ids is not fx.ct._ids

    def test_checked_tensors_freed_by_refcount(self, fx_sign):
        # the identities cached on a tensor refer to modules only, so a
        # checked tensor and its caches go when it is dropped; so do a
        # tensor and a context whose cell table outlives them, since the
        # table holds modules, maps, cells and dicts of them, never a
        # tensor
        fx = bundled("strict-f3-z2")
        cells = {}
        builds = (
            (lambda: StrictTensor(fx.algebra), fx.sample),
            (lambda: GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"),
                                  sign_cocycle()), fx_sign.sample),
            (lambda: GradedTensor(fx_sign.algebra, sample_module(fx_sign, "I"),
                                  sign_cocycle(), cells=cells),
             fx_sign.sample))
        gc.disable()
        try:
            for build, sample in builds:
                ct = build()
                assert check_monoidal_axioms(ct, sample).ok
                assert ct._ids
                ref = weakref.ref(ct)
                del ct
                assert ref() is None, sample
            wc = WattsContext(GradedTensor(
                fx_sign.algebra, sample_module(fx_sign, "I"), sign_cocycle(),
                cells=cells))
            assert check_T_coherence(wc).ok
            assert verify_monoidal_functor(wc, fx_sign.sample).ok
            assert wc.cells is cells and wc.bimodules.cells is cells
            ref = weakref.ref(wc)
            del wc
            assert ref() is None
        finally:
            gc.enable()
        # interned objects under one key, cells under (builder name,
        # arguments), caches under (functor key, attribute name)
        interned = cells.pop("interned")
        assert {type(obj) for obj in interned} == {Module, Bimodule,
                                                  ModuleMap}
        assert all(interned[obj] is obj for obj in interned)
        built = {key: cell for key, cell in cells.items()
                 if type(key[0]) is str}
        caches = {key: memo for key, memo in cells.items()
                  if type(key[0]) is not str}
        assert built and caches
        parts = {type(part) for key in built for part in key} | {
            type(x) for key in built for part in key
            if type(part) is tuple for x in part}
        assert parts <= {str, int, tuple, VectorSpace, LinearMap, Module,
                         Bimodule, TripleModule}
        assert all(type(cell) is TensorCell for cell in built.values())
        graded = (GradedTensor, fx_sign.algebra)
        assert {key for key, _ in caches} == {
            graded, ("transported", graded),
            (BimoduleTensor, fx_sign.algebra)}
        assert all(type(memo) is dict for memo in caches.values())
        assert {type(out) for memo in caches.values()
                for out in memo.values()} <= {
            TensorCell, ModuleMap, Bimodule, LinearMap, tuple}


class TestFunctor:
    def test_strict_functor_coherence(self, wc_strict, fx_strict):
        rep = verify_monoidal_functor(wc_strict, fx_strict.sample)
        assert rep.ok
        names = {r.name.split("[")[0] for r in rep.results}
        assert {"xi-iso", "functor-pentagon", "functor-unit-left",
                "functor-unit-right"} <= names

    def test_omega_lands_in_bimodules(self, wc_strict, fx_strict):
        for X in fx_strict.sample:
            om = wc_strict.omega(X)
            assert isinstance(om, Bimodule)
            om.check()


class TestEmbedding:
    def test_strict_embedding_faithful_and_exact(self, wc_strict, fx_strict):
        rep = verify_embedding(wc_strict, fx_strict.sample,
                               fx_strict.sequences)
        assert rep.ok
        summary = [r for r in rep.results if r.name == "flatness-summary"]
        assert summary and summary[0].witness == {"inexact": []}

    def test_dual_numbers_flatness_failure(self):
        fx = dual_numbers_f2()
        wc = WattsContext(fx.ct)
        rep = verify_embedding(wc, fx.sample, fx.sequences)
        assert rep.ok  # flatness entries are informational
        summary = [r for r in rep.results if r.name == "flatness-summary"][0]
        assert ["C-R-C", "C"] in summary.witness["inexact"]


class TestRigidity:
    @pytest.mark.parametrize("stem", ["graded-trivial", "graded-sign"],
                             ids=["graded_trivial", "graded_sign"])
    def test_bundled_duality_data_passes(self, stem):
        fx = bundled(stem)
        assert fx.rigidity
        for r in fx.rigidity:
            assert check_rigidity(fx.ct, r.obj, r.dual, r.ev, r.db).ok

    def test_wrong_sign_db_fails_snake(self, fx_sign):
        r = [d for d in fx_sign.rigidity if d.obj.name == "L"][0]
        bad_db = ModuleMap(r.db.source, r.db.target,
                           LinearMap(r.db.lin.source, r.db.lin.target, [[1]]))
        rep = check_rigidity(fx_sign.ct, r.obj, r.dual, r.ev, bad_db)
        assert not rep.ok
        assert {f.name for f in rep.failures} & {"snake-X", "snake-Xdual"}


def upper_triangular(field):
    """Upper-triangular 2x2 matrices: the smallest noncommutative algebra."""
    sp = VectorSpace(field, ("e11", "e12", "e22"))
    e11, e12, e22, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    mult = ((e11, e12, z),
            (z, z, e12),
            (z, z, e22))
    alg = Algebra("UT2", sp, mult, (1, 0, 1))
    alg.check()
    return alg


class TestNaturalFamilies:
    def test_induce_then_extract_roundtrip(self, fx_strict):
        A = fx_strict.algebra
        P = Bimodule.regular(A)
        Q = Bimodule.regular(A)
        modules = [Module.regular(A), sample_module(fx_strict, "Sm")]
        for lin in hom_basis(P, Q, {}):
            f = ModuleMap(P, Q, lin)
            fam = induce_natural_family(f, modules)
            back = nat_to_bimodule_hom(P, Q, fam)
            assert back.lin.matrix == f.lin.matrix

    @pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
    def test_bundled_sample_roundtrip(self, name):
        # the sample's "R" is the regular module nat_to_bimodule_hom needs
        fx = bundled_watts_fixtures()[name]
        P = Bimodule.regular(fx.algebra)
        for lin in hom_basis(P, P, {}):
            f = ModuleMap(P, P, lin)
            back = nat_to_bimodule_hom(
                P, P, induce_natural_family(f, fx.sample))
            assert back.lin.rows == f.lin.rows

    def test_regular_module_found_under_any_name(self, tmp_path):
        # a sample may name its regular module otherwise: built in code
        # or loaded from a file whose regular module is "Reg"
        path = bundled_fixture_files()["strict-f3-z2"]
        data = json.loads(path.read_text().replace('"R"', '"Reg"'))
        fx = watts_fixture_from_json(data)
        Reg = sample_module(fx, "Reg")
        A = fx.algebra
        assert Reg == replace(Module.regular(A), name="Reg")
        P = Bimodule.regular(A)
        for modules in ([Reg], fx.sample):
            for lin in hom_basis(P, P, {}):
                f = ModuleMap(P, P, lin)
                back = nat_to_bimodule_hom(
                    P, P, induce_natural_family(f, modules))
                assert back.lin.rows == f.lin.rows

    def test_extraction_builds_each_cell_once(self, fx_strict, monkeypatch):
        # the component cells, the hom bases and λ_P share one table, so
        # the cell R⊗P of the component at R is the one λ_P collapses
        A = fx_strict.algebra
        P, R = Bimodule.regular(A), Module.regular(A)
        f = ModuleMap(P, P, hom_basis(P, P, {})[0])
        fam = induce_natural_family(f, [R, sample_module(fx_strict, "Sm")])
        build, built = algmod.balanced_tensor, []

        def counted(*args):
            built.append(args)
            return build(*args)

        for module in (algmod, watts):  # wherever a caller may bind it
            monkeypatch.setattr(module, "balanced_tensor", counted,
                                raising=False)
        nat_to_bimodule_hom(P, P, fam)
        assert len(built) == len(set(built))
        assert (R.space, R.action, P.space, P.left) in built

    def test_corrupted_component_not_natural(self, fx_strict):
        A = fx_strict.algebra
        P = Bimodule.regular(A)
        f = ModuleMap(P, P, hom_basis(P, P, {})[0])
        modules = [Module.regular(A), sample_module(fx_strict, "Sm")]
        fam = induce_natural_family(f, modules)
        M = modules[1]
        fam[M] = LinearMap(fam[M].source, fam[M].target,
                          [[v.value + 1 for v in row]
                           for row in fam[M].matrix])
        with pytest.raises(NotNatural):
            nat_to_bimodule_hom(P, P, fam)

    def test_missing_regular_module_rejected(self, fx_strict):
        A = fx_strict.algebra
        P = Bimodule.regular(A)
        f = ModuleMap(P, P, hom_basis(P, P, {})[0])
        fam = induce_natural_family(f, [sample_module(fx_strict, "Sm")])
        with pytest.raises(NotNatural):
            nat_to_bimodule_hom(P, P, fam)

    def test_one_sided_family_not_balanced(self):
        # over a noncommutative algebra, a family built from a map that is
        # left- but not right-linear passes every naturality square on the
        # single-module sample yet must be rejected at extraction
        A = upper_triangular(Field(3))
        P = Bimodule.regular(A)
        R = Module.regular(A)
        phi = A.right_mult_matrix(1)  # ·e12: left-linear, not right-linear
        uP = BimoduleTensor(A).left_unit(P).lin
        comp = compose_all(uP, phi, solve_iso(uP))
        with pytest.raises(NotBalanced):
            nat_to_bimodule_hom(P, P, {R: comp})


def _read(name):
    return json.loads((BUNDLED / f"{name}.json").read_text(encoding="utf-8"))


class TestFixtureSerialization:
    @pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
    def test_loaded_values_are_the_files(self, name):
        # no fixture value is rounded, zeroed or reordered on loading
        data = _read(name)
        fx = watts_fixture_from_json(data)
        A = fx.algebra
        assert [[[serialize_raw(c) for c in v] for v in row]
                for row in A.mult] == data["algebra"]["mult"]
        assert [serialize_raw(c) for c in A.unit] == data["algebra"]["unit"]
        assert [(X.name, X.side, [matrix_to_json(a) for a in X.action])
                for X in fx.sample] == \
            [(m["name"], m["side"], m["action"]) for m in data["modules"]]
        assert [(matrix_to_json(s.f.lin), matrix_to_json(s.g.lin))
                for s in fx.sequences] == \
            [(s["f"], s["g"]) for s in data["sequences"]]
        assert [(matrix_to_json(r.ev.lin), matrix_to_json(r.db.lin))
                for r in fx.rigidity] == \
            [(r["ev"], r["db"]) for r in data["rigidity"]]

    def test_loading_builds_no_field_scalar(self, monkeypatch):
        monkeypatch.delenv("MONOCAT_FIXTURES", raising=False)
        files = [json.loads(path.read_text(encoding="utf-8"))
                 for path in bundled_fixture_files().values()]
        files = [data for data in files if data["kind"] == "watts"]
        assert len(files) == len(bundled_watts_fixtures())
        for data in files:
            Field(data["algebra"]["char"])  # F_p boxes its table once

        def boxed(*args, **kwargs):
            raise AssertionError("loading built a FieldScalar")

        monkeypatch.setattr(Field, "box", boxed)
        monkeypatch.setattr(Field, "__call__", boxed)
        monkeypatch.setattr(FieldScalar, "__init__", boxed)
        loaded = [fixture_from_json(data) for data in files]
        dims = {(fx.name, X.name, Y.name): len(hom_basis(X, Y, {}))
                for fx in loaded for X in fx.sample for Y in fx.sample}
        monkeypatch.undo()
        # the identity lies in every End(X)
        assert all(dims[fx.name, X.name, X.name] >= 1
                   for fx in loaded for X in fx.sample)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FixtureError):
            fixture_from_json({"kind": "mystery"})

    def test_unknown_name_rejected(self):
        with pytest.raises(FixtureError):
            resolve_fixture("no-such-fixture")

    def test_bad_cocycle_loads_but_fails_checks(self):
        j = _read("graded-sign")
        for row in j["tensor"]["cocycle"]:
            if row[:3] == [0, 1, 0]:
                row[3] = -row[3]
        fx = watts_fixture_from_json(j)  # must not raise
        assert not is_three_cocycle(fx.ct.cocycle)
        assert not check_monoidal_axioms(fx.ct, fx.sample).ok


def test_clashing_triple_module_raises_action_clash():
    A = group_algebra(Field(3), 2)
    space = VectorSpace(Field(3), ("a", "b"))
    one = identity(space)
    swap = LinearMap(space, space, [[0, 1], [1, 0]])
    sign = LinearMap(space, space, [[1, 0], [0, -1]])
    # three K[Z/2]-actions; the two left ones do not commute
    T = TripleModule(A, space, (one, swap), (one, sign), (one, one))
    with pytest.raises(ActionClash, match=r"do not commute at \(1,1\)"):
        T.check()


# ---------------------------------------------------------------------------
# Every balanced tensor against a cokernel built cell by cell

def descend_action(cell, ambient_action):
    """The residual action of a materialized Kronecker ambient action."""
    return descend(cell, compose(cell.proj, ambient_action))


def _reference_ombar(wc, X):
    cell = balanced_tensor(X.space, X.action, wc.T.space, wc.T.left2)
    idX = identity(X.space)
    left = tuple(descend_action(cell, tensor(idX, a)) for a in wc.T.left1)
    right = tuple(descend_action(cell, tensor(idX, a)) for a in wc.T.right)
    return replace(cell, module=Bimodule(f"({X.name}⊗₂T)", wc.algebra,
                                         cell.space, left, right))


def _reference_dcell(wc, X, Y):
    inner = _reference_ombar(wc, Y)
    obY = inner.module
    outer = balanced_tensor(X.space, X.action, inner.space, obY.left)
    idX = identity(X.space)
    right = tuple(descend_action(outer, tensor(idX, a)) for a in obY.right)
    mod = Module(f"D({X.name},{Y.name})", wc.algebra, outer.space, "right",
                 right)
    return replace(outer, module=mod)


def _reference_bimodule_tensor(M, N):
    cell = balanced_tensor(M.space, M.right, N.space, N.left)
    left = tuple(descend_action(cell, tensor(a, identity(N.space)))
                 for a in M.left)
    right = tuple(descend_action(cell, tensor(identity(M.space), b))
                  for b in N.right)
    return replace(cell, module=Bimodule(f"({M.name}⊗{N.name})", M.algebra,
                                         cell.space, left, right))


def _reference_module_tensor(X, Y):
    cell = balanced_tensor(X.space, X.action, Y.space, Y.action)
    action = tuple(descend_action(cell, tensor(identity(X.space), b))
                   for b in Y.action)
    return replace(cell, module=Module(f"({X.name}⊗{Y.name})", X.algebra,
                                       cell.space, "right", action))


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_tensor_over_matches_reference_cokernels(name):
    fx = bundled_watts_fixtures()[name]
    wc = WattsContext(fx.ct)
    for X in fx.sample:
        assert wc.ombar(X) == _reference_ombar(wc, X)
        for Y in fx.sample:
            assert wc.product(X, Y) == _reference_dcell(wc, X, Y)
            oX, oY = wc.omega(X), wc.omega(Y)
            expected = _reference_bimodule_tensor(oX, oY)
            assert bimodule_tensor(oX, oY, {}) == expected
            assert wc.bimodules.product(oX, oY) == expected
            assert module_tensor_commutative(X, Y, {}) == \
                _reference_module_tensor(X, Y)


def _reference_c(wc, X, Y):
    """c_{X,Y} by the θ route: θ_Y(X): X⊗_R ω(Y) -> X⊙Y, x⊗t ↦
    (x̂ ⊙ id_Y)(t), descended through its own cell, after id_X ⊗ ν_Y."""
    ct = wc.ct
    cell = tensor_over(X, 0, wc.omega(Y), 0, "X⊗ω(Y)", {})
    target = ct.product(X, Y).module.space
    blocks = [ct.mor(wc._xhat(X, b), ct.ident(Y)).lin for b in range(X.dim)]
    ambient = LinearMap.from_rows(cell.proj.source, target, tuple(
        tuple(itertools.chain.from_iterable(blk.rows[r] for blk in blocks))
        for r in range(target.dim)))
    theta = descend(cell, ambient)
    step = tensor_maps(wc.product(X, Y), cell, identity(X.space),
                       wc.nu(Y).lin)
    return compose(theta, step)


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_c_matches_the_theta_route(name):
    # a map induced on a quotient is unique: collapsing D(X,Y) directly
    # gives the map θ_Y(X) ∘ (id_X ⊗ ν_Y) gave
    fx = bundled_watts_fixtures()[name]
    wc = WattsContext(fx.ct)
    for X in fx.sample:
        for Y in fx.sample:
            assert wc.c_iso(X, Y).lin.rows == _reference_c(wc, X, Y).rows


def _reference_u(wc, X):
    """u_X: D(R,X) -> X⊗₂T, collapsing the free regular factor by the
    first left action of X⊗₂T."""
    obX = wc.ombar(X).module
    return watts._collapse(wc.product(wc.R, X), obX.left, obX.space)


def _reference_xi(wc, X, Y):
    """ξ_{X,Y} by the five-map route: μ_X⊗μ_Y into ω̄(X)⊗_R ω̄(Y), then
    u_X⁻¹⊗id into D(D(R,X),Y), α′_{R,X,Y}, u_D and ν_D, D = D(X,Y)."""
    bim = wc.bimodules
    obX, obY = wc.ombar(X).module, wc.ombar(Y).module
    cell_bar = bim.product(obX, obY)
    m1 = tensor_maps(bim.product(wc.omega(X), wc.omega(Y)), cell_bar,
                     wc.inverse(wc.nu(X)).lin, wc.inverse(wc.nu(Y)).lin)
    ddc = wc.product(wc.product(wc.R, X).module, Y)
    m2 = tensor_maps(cell_bar, ddc, solve_iso(_reference_u(wc, X)),
                     identity(obY.space))
    D = wc.product(X, Y).module
    return compose_all(m1, m2, wc.associator(wc.R, X, Y).lin,
                       _reference_u(wc, D), wc.nu(D).lin)


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_xi_matches_the_five_map_route(name):
    # c_{R,X} = ν_X ∘ u_X, so u_X⁻¹∘μ_X = c_{R,X}⁻¹ and ν_D∘u_D = c_{R,D}:
    # ξ from c and μ alone has the rows of the route through X⊗₂T
    fx = bundled_watts_fixtures()[name]
    wc = WattsContext(fx.ct)
    om = OmegaFunctor(wc)
    for X in fx.sample:
        assert wc.c_iso(wc.R, X).lin.rows == \
            compose(wc.nu(X).lin, _reference_u(wc, X)).rows
        for Y in fx.sample:
            D = wc.product(X, Y).module
            assert wc.c_iso(wc.R, D).lin.rows == \
                compose(wc.nu(D).lin, _reference_u(wc, D)).rows
            assert om.xi(X, Y).rows == _reference_xi(wc, X, Y).rows


def _reference_alpha_prime(wc, X, Y, Z):
    """α′ by the transport through D(X⊙Y,Z) and D(X,Y⊙Z): c_{X,Y} ⊙′ id_Z,
    c_{X⊙Y,Z}, α_{X,Y,Z}, c_{X,Y⊙Z}⁻¹ and id_X ⊙′ c_{Y,Z}⁻¹, in diagram
    order, each ⊙′ through the context's own ``mor``."""
    c_xy, c_yz = wc.c_iso(X, Y), wc.c_iso(Y, Z)
    c_yz_inv = ModuleMap(c_yz.target, c_yz.source, solve_iso(c_yz.lin))
    return compose_all(wc.mor(c_xy, wc.ident(Z)).lin,
                       wc.c_iso(c_xy.target, Z).lin,
                       wc.ct.associator(X, Y, Z).lin,
                       solve_iso(wc.c_iso(X, c_yz.target).lin),
                       wc.mor(wc.ident(X), c_yz_inv).lin)


def _reference_xi_through_dd(wc, X, Y):
    """ξ_{X,Y} = c_{R,D(X,Y)} ∘ α′_{R,X,Y} ∘ (c_{R,X}⁻¹ ⊗ μ_Y), through
    D(D(R,X),Y), with α′ by ``_reference_alpha_prime``."""
    R = wc.R
    m = tensor_maps(wc.bimodules.product(wc.omega(X), wc.omega(Y)),
                    wc.product(wc.product(R, X).module, Y),
                    solve_iso(wc.c_iso(R, X).lin), solve_iso(wc.nu(Y).lin))
    return compose_all(m, _reference_alpha_prime(wc, R, X, Y),
                       wc.c_iso(R, wc.product(X, Y).module).lin)


@pytest.mark.parametrize(
    "name, flip",
    [(name, None) for name in sorted(bundled_watts_fixtures())]
    + [("graded-sign", t) for t in sorted(trivial_cocycle())],
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else None)
def test_endpoint_routes_match_the_routes_through_d(name, flip):
    # c is natural, so moving it to the endpoints of α′ and ξ keeps their
    # rows: the new routes equal the old ones, which build D(X⊙Y,Z),
    # D(X,Y⊙Z) and D(D(R,X),Y), on every sample triple and pair, and on
    # every single flip of the sign cocycle, where α is no cocycle
    fx = bundled_watts_fixtures()[name]
    ct = fx.ct if flip is None else GradedTensor(
        fx.algebra, sample_module(fx, "I"), flip_cocycle(fx.ct.cocycle, flip))
    wc = WattsContext(ct)
    om = OmegaFunctor(wc)
    for X, Y in itertools.product(fx.sample, repeat=2):
        assert om.xi(X, Y).rows == _reference_xi_through_dd(wc, X, Y).rows
        for Z in fx.sample:
            assert wc.alpha_prime(X, Y, Z).lin.rows == \
                _reference_alpha_prime(wc, X, Y, Z).rows


def _reference_functor_pentagon(wc, om, X, Y, Z):
    """The functor pentagon's full sides out of (ωX⊗ωY)⊗ωZ, the route
    every instance took before the sides were compared where they meet:
    ω(α′) ∘ ξ_{D(X,Y),Z} ∘ m1 and ξ_{X,D(Y,Z)} ∘ m2 ∘ a, with the cells on
    three factors, m1 = ξ_{X,Y} ⊗ id, m2 = id ⊗ ξ_{Y,Z} and a the bimodule
    associator."""
    bim = wc.bimodules
    oX, oY, oZ = wc.omega(X), wc.omega(Y), wc.omega(Z)
    DXY = wc.product(X, Y).module
    DYZ = wc.product(Y, Z).module
    m1 = tensor_maps(bim.product(bim.product(oX, oY).module, oZ),
                     bim.product(wc.omega(DXY), oZ), om.xi(X, Y),
                     identity(oZ.space))
    lhs = compose_all(m1, om.xi(DXY, Z),
                      wc.omega_map(wc.alpha_prime(X, Y, Z)))
    m2 = tensor_maps(bim.product(oX, bim.product(oY, oZ).module),
                     bim.product(oX, wc.omega(DYZ)),
                     identity(oX.space), om.xi(Y, Z))
    rhs = compose_all(bim.associator(oX, oY, oZ).lin, m2, om.xi(X, DYZ))
    return lhs, rhs


def _watts_fixture_and_flips():
    """(stem, k) for the 4 watts fixtures as they are (k = -1) and for
    each single cocycle flip k of the graded ones."""
    cases = []
    for stem in ("dual-numbers-f2", "graded-sign", "graded-trivial",
                 "strict-f3-z2"):
        data = json.loads((BUNDLED / f"{stem}.json").read_text())
        cases += [(stem, k) for k in
                  range(-1, len(data["tensor"].get("cocycle", ())))]
    return cases


@pytest.mark.parametrize("stem, k", _watts_fixture_and_flips())
def test_functor_pentagon_decides_as_its_full_sides(stem, k):
    # each instance compares its sides where they meet, after
    # ωX⊗_K ωY⊗_K ωZ -> (ωX⊗ωY)⊗ωZ and before ω(c⁻¹_{X,D(Y,Z)}); the full
    # sides decide alike on every sample triple, and a failing instance's
    # witness is the full sides
    data = json.loads((BUNDLED / f"{stem}.json").read_text())
    if k >= 0:
        data["tensor"]["cocycle"][k][3] *= -1
    fx = watts_fixture_from_json(data, {})
    rep = verify_monoidal_functor(WattsContext(fx.ct), fx.sample)
    results = {r.name: r for r in rep.results
               if r.name.startswith("functor-pentagon[")}
    assert len(results) == len(fx.sample) ** 3
    wc = WattsContext(fx.ct)
    om = OmegaFunctor(wc)
    for X, Y, Z in itertools.product(fx.sample, repeat=3):
        got = results[f"functor-pentagon[{X.name},{Y.name},{Z.name}]"]
        lhs, rhs = _reference_functor_pentagon(wc, om, X, Y, Z)
        assert got.ok == (lhs.rows == rhs.rows)
        if not got.ok:
            assert got.witness == {"objects": [X.name, Y.name, Z.name],
                                   "lhs": matrix_to_json(lhs),
                                   "rhs": matrix_to_json(rhs)}


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_a_passing_functor_pentagon_builds_no_full_side(name, monkeypatch):
    # where every instance passes, the functor checks build no α′, no
    # bimodule associator, and no c on a D argument: c_{D(X,Y),Z} and
    # c_{X,D(Y,Z)} cancel before they are built
    fx = bundled_watts_fixtures()[name]
    wc = WattsContext(fx.ct)

    def refused(*args):
        raise AssertionError("built on a passing run")

    asked = []
    c_iso = WattsContext.c_iso
    monkeypatch.setattr(WattsContext, "alpha_prime", refused)
    monkeypatch.setattr(BimoduleTensor, "_associator", refused)
    monkeypatch.setattr(WattsContext, "c_iso", lambda self, X, Y:
                        asked.append((X, Y)) or c_iso(self, X, Y))
    rep = verify_monoidal_functor(wc, fx.sample)
    assert rep.ok
    atoms = set(fx.sample) | {fx.ct.unit}
    assert asked and all(X in atoms and Y in atoms for X, Y in asked)


def test_functor_pentagon_flips_fail_with_witnesses():
    # the differential test above has failing instances to compare: 264
    # over the 16 flips, none on the single flip that keeps α a cocycle
    failing = 0
    for stem, k in _watts_fixture_and_flips():
        if k < 0:
            continue
        data = json.loads((BUNDLED / f"{stem}.json").read_text())
        data["tensor"]["cocycle"][k][3] *= -1
        fx = watts_fixture_from_json(data, {})
        rep = verify_monoidal_functor(WattsContext(fx.ct), fx.sample)
        failing += sum(r.name.startswith("functor-pentagon[")
                       for r in rep.failures)
    assert failing == 264


def _reference_hat_collapse(wc, cell, X, Y, inner=None):
    """x⊗w ↦ (x̂ ⊙ id_Y)(inner(w)) by the per-basis route κ and c took
    before they descended one ambient map: one ⊙ of maps x̂_a ⊙ id_Y
    through ``ct.mor`` per basis vector x_a of X, each composed with
    inner, and the blocks collapsed through ``cell``."""
    ct = wc.ct
    blocks = [ct.mor(wc._xhat(X, a), ct.ident(Y)).lin for a in range(X.dim)]
    if inner is not None:
        blocks = [compose(blk, inner) for blk in blocks]
    return watts._collapse(cell, blocks, ct.product(X, Y).module.space)


def _skewed_regular(fx) -> Module:
    """R in the basis (r₀ + r₁, r₁): a module whose action matrices are
    not all symmetric on every watts fixture, so a route that reads an
    action transposed gives other rows on it."""
    R = sample_module(fx, "R")
    P = LinearMap(R.space, R.space, ((1, 0), (1, 1)))
    P_inv = LinearMap(R.space, R.space, ((1, 0), (-1, 1)))
    skewed = Module("Rt", R.algebra, R.space, "right",
                    tuple(compose(P_inv, compose(a, P)) for a in R.action))
    skewed.check()
    assert any(a.rows != tuple(zip(*a.rows)) for a in skewed.action)
    return skewed


@pytest.mark.parametrize("stem, k", _watts_fixture_and_flips())
def test_kappa_and_c_match_the_per_basis_collapse(stem, k):
    # κ and c descend one ambient map, act_X ⊗ id_Y after the section of
    # R⊙Y, where they took one x̂_a ⊙ id_Y per basis vector of X: ξ°, κ
    # and c have the per-basis route's rows on every pair of the sample
    # widened by a module with a non-symmetric action, and on every pair
    # with a D argument the functor pentagon reads, (D(X,Y), Z) and
    # (X, D(Y,Z)); ξ° and ξ after their cell's projection too
    data = json.loads((BUNDLED / f"{stem}.json").read_text())
    if k >= 0:
        data["tensor"]["cocycle"][k][3] *= -1
    fx = watts_fixture_from_json(data, {})
    wc = WattsContext(fx.ct)
    om = OmegaFunctor(wc)
    ct, R = wc.ct, wc.R

    def D(X, Y):
        return wc.product(X, Y).module

    sample = list(fx.sample) + [_skewed_regular(fx)]
    triples = list(itertools.product(sample, repeat=3))
    pairs = dict.fromkeys(
        list(itertools.product(sample, repeat=2))
        + [(D(X, Y), Z) for X, Y, Z in triples]
        + [(X, D(Y, Z)) for X, Y, Z in triples])
    for X, Y in pairs:
        cell = wc.bimodules.product(wc.omega(X), wc.omega(Y))
        RX = ct.product(R, X).module
        kappa = _reference_hat_collapse(wc, cell, RX, Y)
        assert wc._hat_collapse(cell, RX, Y).rows == kappa.rows
        xi_open = compose(ct.associator(R, X, Y).lin, kappa)
        assert om.xi_open(X, Y).rows == xi_open.rows
        assert om.xi_open_ambient(X, Y).rows == \
            compose(xi_open, cell.proj).rows
        c = _reference_hat_collapse(wc, wc.product(X, Y), X, Y,
                                    wc.nu(Y).lin)
        assert wc.c_iso(X, Y).lin.rows == c.rows
        c_inv = ModuleMap(ct.product(X, Y).module, D(X, Y), solve_iso(c))
        xi = compose(wc.omega_map(c_inv), xi_open)
        assert om.xi_ambient(X, Y).rows == compose(xi, cell.proj).rows


def test_xi_is_built_once_per_pair(monkeypatch):
    # the functor pentagon reads ξ after its cell's projection at X,Y and
    # Y,Z, and ξ° after its cell's projection at D(X,Y),Z and X,D(Y,Z),
    # on each of the n³ triples; each is built once per pair, kept on the
    # functor, and ξ once per sample pair beside them
    fx = graded_sign()
    sample, n = fx.sample, len(fx.sample)
    functors, reads = [], Counter()
    init = OmegaFunctor.__init__
    monkeypatch.setattr(OmegaFunctor, "__init__", lambda self, wc: (
        functors.append(self), init(self, wc))[-1])
    for name in ("xi", "xi_ambient", "xi_open_ambient"):
        read = getattr(OmegaFunctor, name)
        monkeypatch.setattr(OmegaFunctor, name,
                            lambda self, *XY, name=name, read=read: (
                                reads.update([name]), read(self, *XY))[-1])
    wc = WattsContext(fx.ct)
    assert verify_monoidal_functor(wc, sample).ok
    (om,) = functors
    pairs = set(itertools.product(sample, repeat=2))
    assert reads["xi_ambient"] == reads["xi_open_ambient"] == 2 * n ** 3
    assert set(om._xi_ambient) == set(om._xi) == pairs
    D = {XY: wc.product(*XY).module for XY in pairs}
    assert set(om._xi_open_ambient) == \
        {(D[X, Y], Z) for X, Y, Z in itertools.product(sample, repeat=3)} \
        | {(X, D[Y, Z]) for X, Y, Z in itertools.product(sample, repeat=3)}
    assert len(om._xi_open_ambient) < 2 * n ** 3
    for X, Y in pairs:
        assert om.xi_ambient(X, Y) is om._xi_ambient[X, Y]


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_structure_maps_carry_the_cached_modules(name):
    # ν, c, c⁻¹ and α′ are equivariant maps of the modules the context
    # caches, the very objects, so no caller looks them up to wrap them
    fx = bundled_watts_fixtures()[name]
    wc = WattsContext(fx.ct)

    def D(X, Y):
        return wc.product(X, Y).module

    maps = []
    for X in fx.sample:
        nu = wc.nu(X)
        assert nu.source is wc.ombar(X).module and nu.target is wc.omega(X)
        maps.append(nu)
        for Y in fx.sample:
            c = wc.c_iso(X, Y)
            c_inv = wc.inverse(c)
            assert c.source is D(X, Y)
            assert c.target is wc.ct.product(X, Y).module
            assert c_inv.source is c.target and c_inv.target is c.source
            maps += [c, c_inv]
            for Z in fx.sample:
                a = wc.alpha_prime(X, Y, Z)
                assert a.source is D(D(X, Y), Z)
                assert a.target is D(X, D(Y, Z))
                maps.append(a)
    assert all(isinstance(m, ModuleMap) and m.is_equivariant()
               for m in maps)


def test_every_cached_map_and_module_holds_its_laws():
    # ``mor`` does not check that f⊙g is equivariant, nor ``tensor_over``
    # the action laws of the module it builds: both hold by construction.
    # Here the dropped checks run on everything that every check group
    # builds on the 4 watts fixtures and the 16 single cocycle flips of
    # the graded ones, all on one table: every ⊙ of maps, transported
    # ones included, and every interned module and bimodule
    cells, stems = {}, ("dual-numbers-f2", "graded-sign", "graded-trivial",
                        "strict-f3-z2")
    for stem in stems:
        text = (BUNDLED / f"{stem}.json").read_text()
        cocycle = json.loads(text)["tensor"].get("cocycle", ())
        for k in range(-1, len(cocycle)):  # -1: the fixture as it is
            data = json.loads(text)
            if k >= 0:
                data["tensor"]["cocycle"][k][3] *= -1
            _watts_reports(watts_fixture_from_json(data, cells),
                           set(CHECK_GROUPS))
    mors = {key[0]: list(cache.values()) for key, cache in cells.items()
            if key[-1] == "_mors"}
    assert all(m.is_equivariant() for ms in mors.values() for m in ms)
    modules = [obj for obj in cells["interned"]
               if type(obj) in (Module, Bimodule)]
    for M in modules:
        M.check()
    assert {key[0] for key, ms in mors.items() if ms} == {
        StrictTensor, GradedTensor, "transported"}
    assert sum(map(len, mors.values())) > 1000 and len(modules) > 100


def _swap_nu(monkeypatch):
    """Patch ν to swap its first two source coordinates."""
    nu = WattsContext.nu

    def swapped(self, X):
        m = nu(self, X)
        rows = tuple((row[1], row[0]) + row[2:] for row in m.lin.rows)
        return ModuleMap(m.source, m.target, LinearMap.from_rows(
            m.lin.source, m.lin.target, rows))

    monkeypatch.setattr(WattsContext, "nu", swapped)


def test_an_unbalanced_nu_fails_c_and_the_pipeline(monkeypatch):
    # negative control: ν with its first two source coordinates swapped
    # no longer balances c on graded-sign, and the pipeline reports that
    # as a failed construction, not a bare LinAlgError
    _swap_nu(monkeypatch)
    fx = graded_sign()
    R = sample_module(fx, "R")
    with pytest.raises(MalformedTensor, match=r"c\[R,R\] is not balanced"):
        WattsContext(fx.ct).c_iso(R, R)
    for groups in ({"T"}, set(CHECK_GROUPS)):
        last = _watts_reports(graded_sign(), groups)[-1].results[-1]
        assert last.name == "pipeline-construction" and not last.ok
        assert last.witness == {"error": "MalformedTensor",
                                "detail": "c[R,R] is not balanced"}


def test_an_unbalanced_nu_fails_xi_under_the_functor_group(monkeypatch):
    # with the functor group alone, ξ[I,R] meets the swapped ν in the
    # c_{I,R} it builds on, and the pipeline reports a failed construction
    # naming c, not a bare LinAlgError
    _swap_nu(monkeypatch)
    reports = _watts_reports(graded_sign(), {"functor"})
    [last] = [r for rep in reports for r in rep.results]
    assert last.name == "pipeline-construction" and not last.ok
    assert last.witness == {"error": "MalformedTensor",
                            "detail": "c[I,R] is not balanced"}


@pytest.mark.parametrize("groups, first", [
    ({"T"}, "R,R"), ({"functor"}, "I,I"), (set(CHECK_GROUPS), "R,R")])
def test_a_singular_nu_fails_c_under_each_group(monkeypatch, groups, first):
    # negative control: a ν that balances but is the zero map gives a c
    # that descends and is singular; each group reports the first such c
    # as a failed construction, not a bare NotInvertible
    monkeypatch.setattr(WattsContext, "nu", lambda self, X: ModuleMap(
        self.ombar(X).module, self.omega(X),
        zero_map(self.ombar(X).space, self.omega(X).space)))
    last = _watts_reports(graded_sign(), groups)[-1].results[-1]
    assert last.name == "pipeline-construction" and not last.ok
    assert last.witness == {"error": "MalformedTensor",
                            "detail": f"c[{first}] is not invertible"}


def test_a_non_functorial_tensor_reaching_omega_fails_the_pipeline(
        monkeypatch):
    # negative control: ℓ_g ⊙ id_Sp made zero is still equivariant, so
    # ``mor`` takes it, but then g acts on ω(Sp) as zero while g·g = 1, and
    # the pipeline reports an ActionClash, not a bare StructureError
    fx = bundled("strict-f3-z2")
    R, Sp = sample_module(fx, "R"), sample_module(fx, "Sp")
    l_g = fx.algebra.left_mult_matrix(1)
    mor = StrictTensor.mor

    def zero_on_sp(self, f, g):
        out = mor(self, f, g)
        if f.source == R and f.lin.rows == l_g.rows and g == self.ident(Sp):
            return ModuleMap(out.source, out.target, zero_map(
                out.source.space, out.target.space))
        return out

    monkeypatch.setattr(StrictTensor, "mor", zero_on_sp)
    [last] = [r for rep in _watts_reports(fx, {"functor"})
              for r in rep.results]
    assert last.name == "pipeline-construction" and not last.ok
    assert last.witness == {
        "error": "ActionClash",
        "detail": "ω(Sp): action incompatible with product at (1,1)"}


@pytest.mark.parametrize("stem", ["strict-f3-z2", "dual-numbers-f2"],
                         ids=["strict_f3_z2", "dual_numbers_f2"])
def test_transported_mor_rejects_a_map_that_is_not_equivariant(stem):
    # g⊗₂id_T descends through Y⊗₂T only for a map g of right modules
    wc = WattsContext(bundled(stem).ct)
    R, n = wc.R, wc.R.dim
    units = (ModuleMap(R, R, LinearMap(R.space, R.space, [
        [int((r, c) == (i, j)) for c in range(n)] for r in range(n)]))
        for i in range(n) for j in range(n))
    g = next(u for u in units if not u.is_equivariant())
    with pytest.raises(MalformedTensor, match="does not descend"):
        wc.mor(module_identity(R), g)


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_bimodule_tensor_is_monoidal(name):
    # the target of ω: ⊗_R with its rebracketing α and collapsing λ, ρ
    # passes every axiom on the images ω(X) of the sample
    fx = bundled_watts_fixtures()[name]
    wc = WattsContext(fx.ct)
    sample = [wc.omega(X) for X in fx.sample]
    rep = check_monoidal_axioms(wc.bimodules, sample)
    assert rep.ok, rep.failures
    names = [r.name for r in rep.results]
    assert sum(x.startswith("pentagon[") for x in names) == len(sample) ** 4
    assert wc.bimodules.unit == Bimodule.regular(fx.algebra)


def graded_flipped():
    """graded-sign with ω(0,1,1) flipped: not a cocycle."""
    fx = graded_sign()
    return replace(fx, ct=GradedTensor(
        fx.algebra, fx.ct.unit, flip_cocycle(sign_cocycle(), (0, 1, 1)),
        name="graded-flipped"))


def _widened(fx):
    """The sample plus R in the basis (1, 1 + g), which is not
    homogeneous."""
    R = sample_module(fx, "R")
    P = LinearMap(R.space, R.space, [[1, 1], [0, 1]])
    action = tuple(compose(solve_iso(P), compose(a, P)) for a in R.action)
    Rb = Module("Rb", R.algebra, R.space, "right", action)
    assert Rb.action != R.action
    return replace(fx, sample=fx.sample + (Rb,))


def graded_trivial():
    return bundled("graded-trivial")


def graded_trivial_widened():
    return _widened(graded_trivial())


def graded_sign_widened():
    return _widened(graded_sign())


@pytest.mark.parametrize("build", [graded_trivial, graded_sign,
                                   graded_flipped, graded_trivial_widened,
                                   graded_sign_widened])
def test_graded_associator_matches_eight_term_sum(build):
    fx = build()
    ct, field = fx.ct, fx.ct.field
    half = field("1/2").value

    def combination(terms):
        """Σ c·f over (raw c, map f) pairs, entry by entry."""
        f = terms[0][1]
        return LinearMap(f.source, f.target, [
            [sum(c * g.rows[r][k] for c, g in terms)
             for k in range(f.source.dim)] for r in range(f.target.dim)])

    def parity(X):
        one, g = identity(X.space), X.action[1]
        return (combination([(half, one), (half, g)]),
                combination([(half, one), (-half, g)]))

    for X in fx.sample:
        for Y in fx.sample:
            for Z in fx.sample:
                pX, pY, pZ = parity(X), parity(Y), parity(Z)
                want = combination([
                    (w, tensor(tensor(pX[a], pY[b]), pZ[c]))
                    for (a, b, c), w in ct.cocycle.items()])
                got = ct.associator(X, Y, Z)
                assert got.lin.rows == want.rows
                assert ct.associator(X, Y, Z) is got
                if ct.cocycle == trivial_cocycle():
                    # the identity inclusion keeps the compose fast paths
                    assert got.lin.cols is not None


def _linear_combination_graded_alpha(ct, X, Y, Z):
    """The graded α by the route it took before it was written in one
    pass: each defect S_c⊗P_c a dense ``tensor``, summed with the identity
    by one full-size ``linear_combination``, which keeps the identity
    inclusion where no term is left."""
    XY = ct.product(X, Y).module
    pL = ct.product(XY, Z)
    pR = ct.product(X, ct.product(Y, Z).module)
    terms = [(1, identity(pL.module.space))]
    for c in (0, 1):
        odd = [(a, b) for a in (0, 1) for b in (0, 1)
               if ct.cocycle[(a, b, c)] == -1]
        if not odd:
            continue
        pX, pY, pZ = ct._parity(X), ct._parity(Y), ct._parity(Z)
        nonzero = [(1, tensor(pX[a], pY[b])) for a, b in odd
                   if pX[a] is not None and pY[b] is not None]
        if nonzero and pZ[c] is not None:
            inner = linear_combination(XY.space, XY.space, nonzero)
            terms.append((-2, tensor(inner, pZ[c])))
    return linear_combination(pL.module.space, pR.module.space, terms)


def test_graded_alpha_matches_its_references_on_every_table():
    # α written in one pass from the nonzeros of each S_c⊗P_c has the rows
    # of Σ ω(a,b,c)·P_a⊗P_b⊗P_c and of the dense route on every sample
    # triple of graded-sign under all 2^8 ±1 tables, and is the flagged
    # identity inclusion where the dense route was
    fx = graded_sign()
    half = fx.ct.field._coerce("1/2")
    parity = {M: [linear_combination(M.space, M.space, (
        (half, identity(M.space)), (sign * half, M.action[1])))
        for sign in (1, -1)] for M in fx.sample}
    # the eight P_a⊗P_b⊗P_c of each sample triple, which no table changes
    eight = {objs: {abc: tensor(tensor(parity[objs[0]][abc[0]],
                                       parity[objs[1]][abc[1]]),
                                parity[objs[2]][abc[2]])
                    for abc in trivial_cocycle()}
             for objs in itertools.product(fx.sample, repeat=3)}
    triples = sorted(sign_cocycle())
    cells = {}
    for signs in itertools.product((1, -1), repeat=len(triples)):
        ct = GradedTensor(fx.algebra, fx.ct.unit, dict(zip(triples, signs)),
                          cells=cells)
        for objs, terms in eight.items():
            got = ct.associator(*objs).lin
            ref = _linear_combination_graded_alpha(ct, *objs)
            assert got.rows == ref.rows and got.cols == ref.cols
            assert got.rows == linear_combination(
                got.source, got.target,
                [(ct.cocycle[abc], t) for abc, t in terms.items()]).rows


class _PairKeyedGradedTensor(GradedTensor):
    """The graded tensor with its products keyed by the pair (X, Y)."""

    def _product_key(self, X, Y):
        return X, Y


def test_graded_products_are_built_once_per_factor_sequence(monkeypatch):
    # (X⊙Y)⊙Z and X⊙(Y⊙Z) have one content, as the Kronecker product is
    # associative and spaces compare by shape, so the graded tensor builds
    # each product once per sequence of sample factors: on graded-sign's
    # widened sample, each sequence a pair-keyed tensor builds is built
    # once, and the reports are equal
    fx = graded_sign_widened()
    built = []
    build = GradedTensor._product

    def recorded(self, X, Y):
        built.append((type(self), f"{X.name}⊙{Y.name}".replace(
            "(", "").replace(")", "")))
        return build(self, X, Y)

    monkeypatch.setattr(GradedTensor, "_product", recorded)
    reports = [check_monoidal_axioms(kind(fx.algebra, fx.ct.unit,
                                          sign_cocycle()), fx.sample)
               for kind in (GradedTensor, _PairKeyedGradedTensor)]
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].ok and reports[0].domains == reports[1].domains
    by_sequence = [seq for kind, seq in built if kind is GradedTensor]
    by_pair = [seq for kind, seq in built if kind is not GradedTensor]
    assert len(by_sequence) == len(set(by_sequence))
    assert set(by_sequence) == set(by_pair)
    assert len(by_pair) > len(by_sequence)


@pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
def test_each_family_checks_its_domain(name):
    # every family of the axioms and the functor with more than one
    # instance records its domain, and checks all of it but α-naturality,
    # which checks the first six maps times the pairs of the first two
    # modules out of every map times every pair
    fx = load_fixture_file(BUNDLED / f"{name}.json")
    reports = _watts_reports(fx, set(CHECK_GROUPS))
    rep = merge_reports(name, reports)
    checked = Counter(r.name.split("[")[0] for r in rep.results)
    for part in reports:
        if part.title.startswith(("monoidal axioms", "monoidal functor")):
            counts = Counter(r.name.split("[")[0] for r in part.results)
            assert {f for f, c in counts.items() if c > 1} <= set(part.domains)
    n, maps = len(fx.sample), len(_hom_samples(fx.sample, fx.ct.cells))
    assert rep.domains.pop("alpha-natural") == maps * n ** 2
    assert checked["alpha-natural"] == min(6, maps) * min(2, n) ** 2
    assert rep.domains == {f: checked[f] for f in rep.domains}
