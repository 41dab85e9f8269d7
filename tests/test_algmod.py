import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import monocat.algmod as algmod
from monocat.algmod import (Algebra, Bimodule, Module, ModuleMap,
                            StructureError, algebra_from_json,
                            balanced_tensor, bimodule_tensor, hom_basis,
                            module_identity, module_tensor_commutative,
                            tensor_maps)
from monocat.algmod import descend
from monocat.linalg import (Field, QQ, VectorSpace, compose, identity,
                            is_identity, linear_combination, rank,
                            serialize_raw, solve_iso, tensor, tensor_space,
                            zero_map)
from monocat.linalg import LinAlgError, LinearMap, kernel
from monocat.watts import StrictTensor

from helpers import group_algebra, labelled_space, truncated_polynomial

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


@pytest.fixture
def dual_numbers():
    return truncated_polynomial(F2)


@pytest.fixture
def z2_group_algebra():
    return group_algebra(F3, 2)


def left_regular(algebra):
    """The algebra acting on itself by left multiplication."""
    return Module("R", algebra, algebra.space, "left", tuple(
        algebra.left_mult_matrix(i) for i in range(algebra.dim)))


@pytest.fixture
def split_pair():
    """F3 × F3 with the idempotent basis."""
    return Algebra("K×K", VectorSpace(F3, ("p0", "p1")),
                   (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1))


def quotient_by_x(alg):
    """R/(x) for R = K[x]/(x^2): one-dimensional, x acts as zero."""
    space = VectorSpace(alg.field, ("c",))
    action = (identity(space), zero_map(space, space))
    return Module("R/x", alg, space, "right", action)


class TestAlgebra:
    def test_group_algebra_axioms(self, z2_group_algebra):
        z2_group_algebra.check()
        assert z2_group_algebra.is_commutative()

    def test_truncated_poly_axioms(self, dual_numbers):
        dual_numbers.check()

    def test_broken_unit_detected(self):
        space = VectorSpace(QQ, ("a",))
        bad = Algebra("bad", space, (((0,),),), (1,))
        with pytest.raises(StructureError):
            bad.check()


class TestModules:
    def test_regular_module(self, dual_numbers):
        Module.regular(dual_numbers).check()
        left_regular(dual_numbers).check()

    def test_regular_bimodule(self, z2_group_algebra):
        Bimodule.regular(z2_group_algebra).check()

    def test_module_map_equivariance(self, dual_numbers):
        R = Module.regular(dual_numbers)
        C = quotient_by_x(dual_numbers)
        # projection R -> R/x, 1 ↦ c, x ↦ 0
        proj = ModuleMap(R, C, LinearMap(R.space, C.space, [[1, 0]]))
        assert proj.is_equivariant()
        bad = ModuleMap(R, C, LinearMap(R.space, C.space, [[0, 1]]))
        assert not bad.is_equivariant()


class TestTensorOverR:
    def test_unit_law(self, z2_group_algebra):
        R = Module.regular(z2_group_algebra)
        cell = module_tensor_commutative(R, R, {})
        assert cell.module.dim == R.dim
        # canonical map r⊗s ↦ rs is the descended multiplication; projection
        # composed with section is the identity, so the cell is a retract.
        assert compose(cell.proj, cell.section).matrix == identity(cell.space).matrix

    def test_dual_numbers_quotient_square(self, dual_numbers):
        C = quotient_by_x(dual_numbers)
        assert module_tensor_commutative(C, C, {}).module.dim == 1

    def test_orthogonal_idempotents_kill(self, split_pair):
        alg = split_pair
        space0 = VectorSpace(F3, ("u",))
        left_col = Module("col0", alg, space0, "right",
                          (identity(space0), zero_map(space0, space0)))
        space1 = VectorSpace(F3, ("v",))
        right_row = Module("row1", alg, space1, "right",
                           (zero_map(space1, space1), identity(space1)))
        cell = module_tensor_commutative(left_col, right_row, {})
        assert cell.module.dim == 0

    def test_left_module_over_commutative_algebra(self, dual_numbers):
        # over a commutative R a left action is a right one: a left-sided
        # X gives the same tensor as its right-sided twin
        R, C = Module.regular(dual_numbers), quotient_by_x(dual_numbers)
        R_left = Module(R.name, R.algebra, R.space, "left", R.action)
        assert module_tensor_commutative(R_left, C, {}) == \
            module_tensor_commutative(R, C, {})

    def test_tensor_over_different_algebras(self, z2_group_algebra,
                                            dual_numbers):
        with pytest.raises(StructureError, match="different algebras"):
            bimodule_tensor(Bimodule.regular(z2_group_algebra),
                            Bimodule.regular(dual_numbers), {})

    def test_builds_every_call_and_checks_never(self, dual_numbers,
                                                monkeypatch):
        # tensor_over keeps no cell and checks no module: every call builds
        # its actions, whose laws its inputs' checked actions guarantee,
        # and products of one content share one module; the product cache
        # is the one store, so there a content-equal call builds nothing
        built, checked = [], []
        build, check = algmod.tensor_maps, algmod.check_actions
        monkeypatch.setattr(algmod, "tensor_maps",
                            lambda *a: built.append(1) or build(*a))
        monkeypatch.setattr(algmod, "check_actions",
                            lambda *a: checked.append(a[0]) or check(*a))
        cells = {}
        R, C = Module.regular(dual_numbers), quotient_by_x(dual_numbers)
        first = module_tensor_commutative(R, C, cells)
        assert built and checked == []
        n = len(built)
        again = module_tensor_commutative(replace(R, name="R2"), C, cells)
        assert len(built) == 2 * n and checked == []
        assert again.module is first.module and again == first
        R_left = Module("Rl", dual_numbers, R.space, "left", R.action)
        other = module_tensor_commutative(R_left, C, cells)
        assert len(built) == 3 * n and checked == []
        assert other.module is first.module
        assert first.module.name == "(R⊗R/x)"
        assert [key[0] for key in cells if key != "interned"] == [
            "balanced_tensor"]
        first.module.check()
        assert checked == ["(R⊗R/x)"]

        ct = StrictTensor(dual_numbers)
        product = ct.product(ct.unit, C)
        n = len(built)
        assert ct.product(replace(ct.unit, name="R2"), C) is product
        assert len(built) == n

    def test_group_algebra_regular_square(self, z2_group_algebra):
        R = Bimodule.regular(z2_group_algebra)
        result = bimodule_tensor(R, R, {}).module
        assert result.dim == 2
        result.check()


class TestHom:
    def test_hom_from_regular(self, dual_numbers):
        R = Module.regular(dual_numbers)
        for Y in (R, quotient_by_x(dual_numbers)):
            assert len(hom_basis(R, Y, {})) == Y.dim

    def test_schur_orthogonality(self, split_pair):
        alg = split_pair
        s0 = VectorSpace(F3, ("u",))
        s1 = VectorSpace(F3, ("v",))
        m0 = Module("S0", alg, s0, "right", (identity(s0), zero_map(s0, s0)))
        m1 = Module("S1", alg, s1, "right", (zero_map(s1, s1), identity(s1)))
        assert hom_basis(m0, m1, {}) == []

    def test_dual_numbers_socle(self, dual_numbers):
        C = quotient_by_x(dual_numbers)
        R = Module.regular(dual_numbers)
        assert len(hom_basis(C, R, {})) == 1


class TestRightExactness:
    def test_tensor_right_exact(self, dual_numbers):
        # surjection R ↠ R/x stays surjective after C ⊗_R −
        R = Module.regular(dual_numbers)
        C = quotient_by_x(dual_numbers)
        surj = LinearMap(R.space, C.space, [[1, 0]])
        from monocat.linalg import tensor as ktensor
        from monocat.algmod import descend
        src_cell = module_tensor_commutative(C, R, {})
        tgt_cell = module_tensor_commutative(C, C, {})
        induced = descend(src_cell, compose(
            tgt_cell.proj, ktensor(identity(C.space), surj)))
        assert rank(induced) == tgt_cell.module.dim
        assert tensor_maps(src_cell, tgt_cell, identity(C.space),
                           surj) == induced

    def test_descend_of_the_projection_is_the_identity(self,
                                                      z2_group_algebra):
        R = Module.regular(z2_group_algebra)
        cell = module_tensor_commutative(R, R, {})
        assert cell.section.cols is not None
        induced = descend(cell, cell.proj)
        assert is_identity(induced) and induced.source is cell.space
        # an equal projection that is another object takes the multiplying
        # path and gets the same answer
        copy = LinearMap(cell.proj.source, cell.space, cell.proj.matrix)
        assert copy is not cell.proj and descend(cell, copy) == induced
        # the ambient identity does not factor through the quotient
        with pytest.raises(LinAlgError):
            descend(cell, identity(cell.proj.source))


class TestSerialization:
    def test_rational_scalars_roundtrip(self):
        # a·a = (1/2)·a with unit 2·a over Q
        data = {"name": "Q", "char": 0, "dim": 1, "basis": ["a"],
                "mult": [[["1/2"]]], "unit": [2]}
        alg = algebra_from_json(json.loads(json.dumps(data)))
        assert alg.field == QQ
        assert alg.mult == (((Fraction(1, 2),),),) and alg.unit == (2,)
        assert [[[serialize_raw(c) for c in v] for v in row]
                for row in alg.mult] == data["mult"]


# ---------------------------------------------------------------------------
# One action-law checker, one intertwiner list

def reference_hom_basis(X, Y):
    """The entry-by-entry construction of the Hom system, kept as a
    reference for the balancing quotient in ``hom_basis``."""
    m, n = Y.dim, X.dim
    field = X.field
    rows = []
    for A, B in zip(X.action, Y.action):
        # F·A − B·F = 0, entry (r, c)
        for r in range(m):
            for c in range(n):
                coeff = [0] * (m * n)
                for k in range(n):
                    coeff[r * n + k] += A.matrix[k][c].value
                for k in range(m):
                    coeff[k * n + c] -= B.matrix[r][k].value
                rows.append(field.box(coeff))
    unknowns = labelled_space(field, m * n, "f")
    if not rows:
        rows = [field.box([0] * (m * n))]
    sys_map = LinearMap(unknowns, labelled_space(field, len(rows), "r"),
                        tuple(rows))
    ker, incl = kernel(sys_map)
    basis = []
    for b in range(ker.dim):
        flat = [incl.matrix[i][b] for i in range(m * n)]
        mat = tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(m))
        basis.append(LinearMap(X.space, Y.space, mat))
    return basis


def _block_diagonal(blocks):
    dim = sum(len(b) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        for row in b:
            rows.append([0] * offset + list(row)
                        + [0] * (dim - offset - len(row)))
        offset += len(b)
    return rows


def _conjugated_sum(alg, summands, seed):
    """A seeded conjugate of a direct sum of R and the sign line S."""
    field, n = alg.field, alg.dim
    R = Module.regular(alg)
    blocks_per_g = []
    for g in range(n):
        blocks = []
        for s in summands:
            if s == "R":
                blocks.append([[x.value for x in row]
                               for row in R.action[g].matrix])
            else:
                blocks.append([[(-1) ** g]])
        blocks_per_g.append(_block_diagonal(blocks))
    dim = len(blocks_per_g[0])
    space = labelled_space(field, dim, "v")
    rng = random.Random(seed)
    while True:
        P = LinearMap(space, space, [[rng.randrange(field.char)
                                     for _ in range(dim)]
                                    for _ in range(dim)])
        if rank(P) == dim:
            break
    P_inv = solve_iso(P)
    action = tuple(compose(P_inv, compose(LinearMap(space, space, b), P))
                   for b in blocks_per_g)
    mod = Module("+".join(summands), alg, space, "right", action)
    mod.check()
    return mod


@st.composite
def _module_pairs(draw):
    field = draw(st.sampled_from([F3, F5]))
    n = draw(st.sampled_from([2, 4]))
    alg = group_algebra(field, n)

    def summands():
        out = draw(st.lists(st.sampled_from(["R", "S"]), min_size=1,
                            max_size=4))
        while sum(n if s == "R" else 1 for s in out) > 4:
            out.pop()
        return out or ["S"]

    X = _conjugated_sum(alg, summands(), draw(st.integers(0, 10**6)))
    Y = _conjugated_sum(alg, summands(), draw(st.integers(0, 10**6)))
    return X, Y


@settings(max_examples=60, deadline=None)
@given(_module_pairs())
def test_hom_basis_matches_reference_and_is_equivariant(pair):
    X, Y = pair
    basis = hom_basis(X, Y, {})
    assert [f.matrix for f in basis] == [
        f.matrix for f in reference_hom_basis(X, Y)]
    assert all(ModuleMap(X, Y, f).is_equivariant() for f in basis)


class TestActionLaws:
    def test_noncommuting_bimodule_rejected(self, z2_group_algebra):
        space = VectorSpace(F3, ("a", "b"))
        swap = LinearMap(space, space, [[0, 1], [1, 0]])
        sign = LinearMap(space, space, [[1, 0], [0, -1]])
        # each family alone is a K[Z/2]-action; they do not commute
        B = Bimodule("B", z2_group_algebra, space,
                     (identity(space), swap), (identity(space), sign))
        with pytest.raises(StructureError, match="do not commute at"):
            B.check()

    def test_nonassociative_algebra_rejected(self):
        space = VectorSpace(F3, ("1", "x", "y"))
        e0, e1, e2, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
        # (x·x)·x = y·x = 0 but x·(x·x) = x·y = x; 1 is a two-sided unit
        mult = ((e0, e1, e2),
                (e1, e2, e1),
                (e2, z, z))
        bad = Algebra("nonassoc", space, mult, e0)
        with pytest.raises(StructureError):
            bad.check()

    def test_side_and_count_checked(self, z2_group_algebra):
        R = Module.regular(z2_group_algebra)
        with pytest.raises(StructureError, match="unknown side"):
            Module("up", z2_group_algebra, R.space, "up", R.action).check()
        with pytest.raises(StructureError, match="1 action matrices"):
            Module("short", z2_group_algebra, R.space, "right",
                   R.action[:1]).check()

    def test_different_sides_not_equivariant(self, z2_group_algebra):
        R = Module.regular(z2_group_algebra)
        L = left_regular(z2_group_algebra)
        assert not ModuleMap(R, L, identity(R.space)).is_equivariant()
        with pytest.raises(StructureError):
            hom_basis(R, L, {})

    def test_maps_across_algebras_not_equivariant(self):
        space = VectorSpace(F3, ("u",))

        def trivial_line(n):
            alg = group_algebra(F3, n)
            return Module("1", alg, space, "right",
                          (identity(space),) * n)

        X, Y = trivial_line(2), trivial_line(3)
        assert not ModuleMap(X, Y, identity(space)).is_equivariant()
        with pytest.raises(StructureError, match="different algebras"):
            hom_basis(X, Y, {})


# ---------------------------------------------------------------------------
# The universal property of the balanced tensor

def _balancing_relations(X, Y):
    """(x·r)⊗y − x⊗(r·y) as ambient maps, one per algebra basis element;
    Y's right action is a left one, as the algebra is commutative."""
    idX, idY = identity(X.space), identity(Y.space)
    ambient = tensor_space(X.space, Y.space)
    return [linear_combination(ambient, ambient,
                               ((1, tensor(A, idY)), (-1, tensor(idX, L))))
            for A, L in zip(X.action, Y.action)]


@settings(max_examples=40, deadline=None)
@given(_module_pairs(), st.integers(1, 3), st.integers(0, 10**6))
def test_balanced_tensor_universal_property(pair, k, seed):
    X, Y = pair
    field, rng = X.field, random.Random(seed)
    cell = balanced_tensor(X.space, X.action, Y.space, Y.action)
    ambient = cell.proj.source
    V = labelled_space(field, k, "v")
    rels = _balancing_relations(X, Y)
    # β is balanced iff β ∘ rel = 0, i.e. each row of β is in the kernel
    # of the stacked transposed relations
    stacked = LinearMap(
        ambient, labelled_space(field, len(rels) * ambient.dim, "r"),
        tuple(row for rel in rels for row in zip(*rel.matrix)))
    ker, incl = kernel(stacked)
    rows = []
    for _ in range(k):
        row = [0] * ambient.dim
        for b in range(ker.dim):
            c = rng.randrange(field.char)
            row = [a + c * r[b] for a, r in zip(row, incl.rows)]
        rows.append(field.box(row))
    balanced = LinearMap(ambient, V, tuple(rows))
    induced = descend(cell, balanced)
    assert compose(induced, cell.proj).matrix == balanced.matrix

    other = LinearMap(ambient, V, [[rng.randrange(field.char)
                                   for _ in range(ambient.dim)]
                                  for _ in range(k)])
    if all(compose(other, rel).is_zero() for rel in rels):
        induced = descend(cell, other)
        assert compose(induced, cell.proj).matrix == other.matrix
    else:
        with pytest.raises(LinAlgError):
            descend(cell, other)
