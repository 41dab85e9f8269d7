import gc
import itertools
import json
import weakref
from dataclasses import replace

import pytest

from monocat.algmod import (Algebra, Bimodule, Module, ModuleMap,
                            StructureError, balanced_tensor, bimodule_tensor,
                            descend, hom_basis, matrix_to_json,
                            module_identity, module_tensor_commutative)
from monocat.fixtures import (BUNDLED, FixtureError, bundled_fixture_files,
                              bundled_watts_fixtures,
                              dual_numbers_f2, fixture_from_json,
                              graded_sign, graded_trivial, resolve_fixture,
                              strict_f3_z2, watts_fixture_from_json)
from monocat.linalg import (Field, FieldScalar, VectorSpace, compose,
                            compose_all, identity, make_map, rank,
                            serialize_raw, solve_iso, tensor)
from monocat.watts import (BimoduleTensor, ExactSequence, GradedTensor,
                           MalformedTensor, NotBalanced, NotNatural,
                           StrictTensor, WattsContext,
                           check_monoidal_axioms, check_rigidity,
                           check_T_coherence, flip_cocycle,
                           induce_natural_family, is_three_cocycle,
                           nat_to_bimodule_hom, sign_cocycle,
                           tensor_with_bimodule, trivial_cocycle,
                           verify_embedding, verify_monoidal_functor)
from monocat.watts import ActionClash, TripleModule

from helpers import group_algebra


@pytest.fixture(scope="module")
def fx_strict():
    return strict_f3_z2()


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
        R = fx_strict.module("R")
        Sp = fx_strict.module("Sp")
        Sm = fx_strict.module("Sm")
        f = ModuleMap(Sm, R, make_map(Sm.space, R.space, [[1], [-1]]))
        g = ModuleMap(R, Sp, make_map(R.space, Sp.space, [[1, 1]]))
        # claiming short-exactness of a complex whose f is zero must fail
        zf = ModuleMap(Sm, R, make_map(Sm.space, R.space, [[0], [0]]))
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
        bad = GradedTensor(fx_sign.algebra, fx_sign.module("I"),
                           flip_cocycle(sign_cocycle(), (0, 1, 0)),
                           name="flipped")
        rep = check_monoidal_axioms(bad, fx_sign.sample)
        pent = [r for r in rep.failures if r.name.startswith("pentagon")]
        assert pent
        assert {"lhs", "rhs"} <= set(pent[0].witness)

    def test_pentagon_fails_exactly_off_the_cocycles(self, fx_sign):
        # all 2^8 sign functions ω on (Z/2)³, checked on the lines I and L
        sample = [fx_sign.module("I"), fx_sign.module("L")]
        triples = sorted(sign_cocycle())
        cocycles = 0
        for signs in itertools.product((1, -1), repeat=len(triples)):
            omega = dict(zip(triples, signs))
            ct = GradedTensor(fx_sign.algebra, sample[0], omega)
            pent = [r for r in check_monoidal_axioms(ct, sample).results
                    if r.name.startswith("pentagon[")]
            assert len(pent) == 16
            assert all(r.ok for r in pent) == is_three_cocycle(omega), omega
            cocycles += is_three_cocycle(omega)
        assert cocycles == 8


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
            nu, mu = wc_strict.nu(X), wc_strict.mu(X)
            assert compose(nu, mu).matrix == identity(nu.target).matrix

    def test_twisted_transported_associator_not_identity(self, wc_sign):
        R = wc_sign.R
        a = wc_sign.alpha_prime(R, R, R)
        assert a.matrix != identity(a.source).matrix

    def test_c_is_iso(self, wc_strict, fx_strict):
        for X in fx_strict.sample:
            for Y in fx_strict.sample:
                c = wc_strict.c_iso(X, Y)
                assert rank(c) == c.source.dim == c.target.dim

    def test_transported_structure_is_monoidal(self, wc_strict, fx_strict):
        sample = [fx_strict.module("R"), fx_strict.module("Sm")]
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
                ct.left_unit(X).lin, wc_sign.c_iso(I, X)).rows
            assert wc_sign.right_unit(X).lin.rows == compose(
                ct.right_unit(X).lin, wc_sign.c_iso(X, I)).rows
        assert wc_sign.associator(R, R, R).lin == \
            wc_sign.alpha_prime(R, R, R)

    @pytest.mark.parametrize("flip", [None, (0, 1, 1)])
    def test_transported_axioms_at_R(self, fx_sign, flip):
        # negative control: with ω(0,1,1) negated the transported pentagon
        # and the derived left unit diagram fail at R, with witnesses
        coc = sign_cocycle() if flip is None else \
            flip_cocycle(sign_cocycle(), flip)
        ct = GradedTensor(fx_sign.algebra, fx_sign.module("I"), coc)
        R = fx_sign.module("R")
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
            R = fx.module("R")
            assert wc.R == R
            assert wc.omega(wc.R) is wc.omega(R)
            assert len(wc._omega) == 1

    @pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
    def test_loaded_R_is_the_regular_module(self, name):
        # one object: its space is the algebra's, and every sequence end
        # named R is it
        fx = resolve_fixture(name)
        R = fx.module("R")
        assert R == Module.regular(fx.algebra)
        assert R.space is fx.algebra.space
        ends = [M for s in fx.sequences
                for M in (s.f.source, s.f.target, s.g.target)]
        assert all(M is R for M in ends if M.name == "R")

    @pytest.mark.parametrize("name", ["strict-f3-z2", "dual-numbers-f2"])
    def test_strict_unit_is_the_sample_R(self, name):
        for fx in (bundled_watts_fixtures()[name], resolve_fixture(name)):
            assert fx.ct.unit == fx.module("R")

    def test_parity_projectors_built_once(self, fx_sign):
        for X in fx_sign.sample:
            first = fx_sign.ct._parity(X)
            assert fx_sign.ct._parity(X) is first


class TestSharedCells:
    """A module is its content: a renamed copy is equal, hashes alike and
    shares every cache entry, which keeps the first name seen, while the
    checks name the caller's modules."""

    def test_renamed_module_is_equal_and_hashes_alike(self, fx_strict):
        X = fx_strict.module("Sp")
        X2 = replace(X, name="X2")
        assert X2 == X and hash(X2) == hash(X)
        B = Bimodule.regular(fx_strict.algebra)
        B2 = replace(B, name="B2")
        assert B2 == B and hash(B2) == hash(B)
        assert replace(X, side="left") != X

    def test_renamed_module_shares_the_dcell(self, fx_strict):
        wc = WattsContext(fx_strict.ct)
        X = fx_strict.module("Sp")
        X2 = replace(X, name="X2")
        first = wc.product(X, wc.R)
        assert wc.product(X2, wc.R) is first
        assert first.module.name == "D(Sp,R)"

    def test_renamed_module_shares_the_product(self):
        fx = strict_f3_z2()
        X, Y = fx.module("Sp"), fx.module("Sm")
        X2 = replace(X, name="X2")
        first = fx.ct.product(X, Y)
        assert fx.ct.product(X2, Y) is first
        assert first.module.name == "(Sp⊗Sm)"

    def test_cells_keep_the_algebra(self):
        fx = strict_f3_z2()
        X, Y = fx.module("Sp"), fx.module("Sm")
        fx.ct.product(X, Y)
        other = replace(Y, algebra=replace(Y.algebra, name="other"))
        with pytest.raises(StructureError, match="different algebras"):
            fx.ct.product(X, other)

    def test_each_context_starts_with_its_own_cells(self, fx_strict):
        first = WattsContext(fx_strict.ct)
        first.product(fx_strict.module("Sp"), first.R)
        assert first._products and first._ombar
        second = WattsContext(fx_strict.ct)
        assert second._products == {} and second._ombar == {}

    def test_checks_name_the_renamed_module(self):
        fx = strict_f3_z2()
        X2 = replace(fx.module("Sp"), name="X2")
        sample = list(fx.sample) + [X2]
        rep = check_monoidal_axioms(fx.ct, sample)
        assert rep.ok and "X2" in rep.sample
        names = [r.name for r in rep.results]
        n = len(sample)
        assert sum(x.startswith("pentagon[") for x in names) == n ** 4
        assert sum(x.startswith("triangle[") for x in names) == n ** 2
        assert "pentagon[X2,Sp,X2,R]" in names
        assert "triangle[Sp,X2]" in names


class TestIdentityCache:
    """A tensor keeps one identity map per content of its argument, so
    every mor(f, id) key after the first is found by pointer."""

    def test_one_identity_per_module(self):
        fx = strict_f3_z2()
        ct, X = fx.ct, fx.module("Sp")
        assert ct.ident(X) is ct.ident(X)
        assert ct.ident(X) == module_identity(X)

    def test_renamed_module_shares_the_identity(self):
        fx = strict_f3_z2()
        ct, X, Y = fx.ct, fx.module("Sp"), fx.module("Sm")
        X2 = replace(X, name="X2")
        assert ct.ident(X2) is ct.ident(X)
        f = ModuleMap(Y, Y, hom_basis(Y, Y)[0])
        assert ct.mor(f, ct.ident(X2)) is ct.mor(f, ct.ident(X))

    def test_each_tensor_keeps_its_own_identities(self):
        fx = strict_f3_z2()
        wc = WattsContext(fx.ct)
        X = fx.module("Sp")
        assert wc.ident(X) is not fx.ct.ident(X)
        assert wc.ident(X) == fx.ct.ident(X)

    def test_checked_tensors_freed_by_refcount(self, fx_sign):
        # the identities cached on a tensor refer to modules only, so a
        # checked tensor and its caches go when it is dropped
        fx = strict_f3_z2()
        builds = (
            (lambda: StrictTensor(fx.algebra), fx.sample),
            (lambda: GradedTensor(fx_sign.algebra, fx_sign.module("I"),
                                  sign_cocycle()), fx_sign.sample))
        gc.disable()
        try:
            for build, sample in builds:
                ct = build()
                assert check_monoidal_axioms(ct, sample).ok
                assert ct._ids
                ref = weakref.ref(ct)
                del ct
                assert ref() is None, sample
        finally:
            gc.enable()


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
    @pytest.mark.parametrize("build", [graded_trivial, graded_sign])
    def test_bundled_duality_data_passes(self, build):
        fx = build()
        assert fx.rigidity
        for r in fx.rigidity:
            assert check_rigidity(fx.ct, r.obj, r.dual, r.ev, r.db).ok

    def test_wrong_sign_db_fails_snake(self, fx_sign):
        r = [d for d in fx_sign.rigidity if d.obj.name == "L"][0]
        bad_db = ModuleMap(r.db.source, r.db.target,
                           make_map(r.db.lin.source, r.db.lin.target, [[1]]))
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
        modules = [Module.regular(A), fx_strict.module("Sm")]
        for lin in hom_basis(P, Q):
            f = ModuleMap(P, Q, lin)
            fam = induce_natural_family(f, modules)
            back = nat_to_bimodule_hom(P, Q, fam)
            assert back.lin.matrix == f.lin.matrix

    @pytest.mark.parametrize("name", sorted(bundled_watts_fixtures()))
    def test_bundled_sample_roundtrip(self, name):
        # the sample's "R" is the regular module nat_to_bimodule_hom needs
        fx = bundled_watts_fixtures()[name]
        P = Bimodule.regular(fx.algebra)
        for lin in hom_basis(P, P):
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
        Reg = fx.module("Reg")
        A = fx.algebra
        assert Reg == replace(Module.regular(A), name="Reg")
        P = Bimodule.regular(A)
        for modules in ([Reg], fx.sample):
            for lin in hom_basis(P, P):
                f = ModuleMap(P, P, lin)
                back = nat_to_bimodule_hom(
                    P, P, induce_natural_family(f, modules))
                assert back.lin.rows == f.lin.rows

    def test_corrupted_component_not_natural(self, fx_strict):
        A = fx_strict.algebra
        P = Bimodule.regular(A)
        f = ModuleMap(P, P, hom_basis(P, P)[0])
        modules = [Module.regular(A), fx_strict.module("Sm")]
        fam = induce_natural_family(f, modules)
        M = modules[1]
        fam[M] = make_map(fam[M].source, fam[M].target,
                          [[v.value + 1 for v in row]
                           for row in fam[M].matrix])
        with pytest.raises(NotNatural):
            nat_to_bimodule_hom(P, P, fam)

    def test_missing_regular_module_rejected(self, fx_strict):
        A = fx_strict.algebra
        P = Bimodule.regular(A)
        f = ModuleMap(P, P, hom_basis(P, P)[0])
        fam = induce_natural_family(f, [fx_strict.module("Sm")])
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
        dims = {(fx.name, X.name, Y.name): len(hom_basis(X, Y))
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
    swap = make_map(space, space, [[0, 1], [1, 0]])
    sign = make_map(space, space, [[1, 0], [0, -1]])
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
            assert bimodule_tensor(oX, oY) == expected
            assert wc.bimodules.product(oX, oY) == expected
            assert module_tensor_commutative(X, Y) == \
                _reference_module_tensor(X, Y)


@pytest.mark.parametrize("build", [strict_f3_z2, dual_numbers_f2])
def test_transported_mor_rejects_a_map_that_is_not_equivariant(build):
    # g⊗₂id_T descends through Y⊗₂T only for a map g of right modules
    wc = WattsContext(build().ct)
    R, n = wc.R, wc.R.dim
    units = (ModuleMap(R, R, make_map(R.space, R.space, [
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
    R = fx.module("R")
    P = make_map(R.space, R.space, [[1, 1], [0, 1]])
    action = tuple(compose(solve_iso(P), compose(a, P)) for a in R.action)
    Rb = Module("Rb", R.algebra, R.space, "right", action)
    assert Rb.action != R.action
    return replace(fx, sample=fx.sample + (Rb,))


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
        return make_map(f.source, f.target, [
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
