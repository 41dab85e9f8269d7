"""Custom monoidal structures on Mod_R and their bimodule realization.

A CustomTensor packages a tensor product ⊙ on right R-modules: product
cells (quotients of the scalar Kronecker product), morphism tensoring,
and the associator/unit components.  From such a structure we build the
triple-action bimodule T = R⊙R, the natural isomorphisms θ, μ, c, the
transported structure (D, α′, λ′, ρ′), itself a CustomTensor (a
``WattsContext``) whose product D(X,Y) = X⊗_R(Y⊗₂T) is one balanced
tensor cell like every other, and the embedding functor ω into
R-R-bimodules with its monoidal structure ξ.  The target of ω is a
CustomTensor too: ``BimoduleTensor``, ⊗_R on bimodules, which shares its
associator and unitors with the strict tensor.  Every claimed identity is
checked by exact matrix equality and reported with witnesses.

All verification is performed on a declared finite sample of modules,
with morphisms drawn from hom bases between sample members (every basis
map of every pair, see ``_hom_samples``).  The regular module R, also
the unit of the strict tensor, is ``Module.regular(algebra)``, named ``R``
as in every bundled sample.  A module is its content (``algmod``), so
every cache, keyed by modules, builds each product, cell and map once per
content, and a hit returns the object built under the first name seen:
``product(X2, R).module.name`` reads ``D(X,R)`` on a WattsContext when
X2 is X renamed and D(X,R) was built first.  Check names and witnesses
are formed from the sample and the loop variables, never from cached
objects, so reports name the caller's modules; an exception raised
inside a cached construction can still carry the first name.  Almost
every check whiskers a map with an identity, f⊙id_Z, so each tensor keeps
one identity map per content (``CustomTensor.ident``): the ``mor`` key is
then found by pointer and hashed once, where a fresh identity would be
hashed over its whole table and compared by content on every hit.  The
work of a run follows the content of its sample: two modules of one
content cost one, so the benchmark's seeded widening of R moves the work
with the seed (README, Library layout).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Sequence

from .algmod import (Algebra, Bimodule, Module, ModuleMap, StructureError,
                     TensorCell, balanced_tensor, bimodule_tensor,
                     check_actions, descend, hom_basis, matrix_to_json,
                     module_identity, module_tensor_commutative, tensor_maps,
                     tensor_over)
from .linalg import (Field, LinAlgError, LinearMap, NotInvertible, VectorSpace,
                     compose, compose_all, compose_tensor, identity,
                     linear_combination, rank, solve_iso, tensor,
                     tensor_space)


class WattsError(Exception):
    pass


class MalformedTensor(WattsError):
    """A structure map of ⊙ is not well defined, not invertible, or not
    equivariant."""


class ActionClash(WattsError):
    """The actions on T fail to commute: ⊙ is not bifunctorial."""


class NotNatural(WattsError):
    """A family of maps fails a naturality square."""


class NotBalanced(WattsError):
    """An extracted map fails left or right linearity."""


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class CoherenceReport:
    title: str
    sample: tuple
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "sample": list(self.sample),
            "ok": self.ok,
            "checks": [r.to_json() for r in
                       sorted(self.results, key=lambda r: r.name)],
        }

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for r in sorted(self.results, key=lambda r: r.name):
            mark = "ok  " if r.ok else "FAIL"
            lines.append(f"  {mark} {r.name}")
            if not r.ok and r.witness:
                lines.append(f"       witness: {r.witness}")
        lines.append(f"  {'all passed' if self.ok else 'FAILURES PRESENT'}"
                     f" ({len(self.results)} checks)")
        return "\n".join(lines)


def merge_reports(title: str, reports: Sequence[CoherenceReport]) -> CoherenceReport:
    results = tuple(r for rep in reports for r in rep.results)
    sample = tuple(sorted({n for rep in reports for n in rep.sample}))
    return CoherenceReport(title, sample, results)


class _Recorder:
    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, witness: Optional[dict] = None):
        self.results.append(CheckResult(name, ok, None if ok else witness))

    def equal(self, name: str, lhs: LinearMap, rhs: LinearMap, context: dict):
        ok = lhs.rows == rhs.rows
        witness = None
        if not ok:
            witness = dict(context)
            witness["lhs"] = matrix_to_json(lhs)
            witness["rhs"] = matrix_to_json(rhs)
        self.add(name, ok, witness)


# ---------------------------------------------------------------------------
# Custom tensor structures

def _memo(attr: str):
    """Cache a method's results, never None, in the per-instance dict
    ``self.<attr>`` keyed by its positional arguments; the cache lives and
    dies with the instance."""
    def decorate(method):
        @functools.wraps(method)
        def cached(self, *args):
            memo = getattr(self, attr)
            out = memo.get(args)
            if out is None:
                out = memo[args] = method(self, *args)
            return out
        return cached
    return decorate


class CustomTensor:
    """Base interface for a monoidal structure ⊙ on Mod_R, or on R-R
    bimodules.

    Subclasses provide product cells: X⊙Y as a quotient of the scalar
    tensor product X⊗_K Y, with its ``module``, its structure surjection
    ``proj`` and a ``section`` of it.  Morphism tensoring pushes f⊗g
    through the target cell's projection, descends it through the source
    cell and is verified well defined and equivariant on every call.
    ``ident(X)`` is the one identity of X's content for this tensor, the
    identity every f⊙id and id⊙f is formed with, so that its ``mor`` key
    hits by pointer.  Every cache is a dict on the instance and refers to
    modules only, so a tensor is freed by refcount with all of them;
    an identity kept on its module would be a reference cycle instead.
    """

    def __init__(self, algebra: Algebra, unit: Module, name: str):
        self.algebra = algebra
        self.unit = unit
        self.name = name
        self._products: Dict[tuple, TensorCell] = {}
        self._mors: Dict[tuple, ModuleMap] = {}
        self._assocs: Dict[tuple, ModuleMap] = {}
        self._ids: Dict[tuple, ModuleMap] = {}

    @property
    def field(self) -> Field:
        return self.algebra.field

    @_memo("_products")
    def product(self, X: Module, Y: Module) -> TensorCell:
        return self._product(X, Y)

    def _product(self, X: Module, Y: Module) -> TensorCell:
        raise NotImplementedError

    @_memo("_ids")
    def ident(self, X: Module) -> ModuleMap:
        """id_X, one object per content of X, as a key of ``mor``."""
        return module_identity(X)

    def _push(self, proj: LinearMap, f: ModuleMap,
              g: ModuleMap) -> LinearMap:
        """proj ∘ (f⊗g) on the ambient spaces."""
        return compose_tensor(proj, f.lin, g.lin)

    @_memo("_mors")
    def mor(self, f: ModuleMap, g: ModuleMap) -> ModuleMap:
        src = self.product(f.source, g.source)
        tgt = self.product(f.target, g.target)
        try:
            induced = descend(src, self._push(tgt.proj, f, g))
        except LinAlgError as exc:
            raise MalformedTensor(
                f"{self.name}: ⊙ of maps does not descend for "
                f"({f.source.name} -> {f.target.name}, "
                f"{g.source.name} -> {g.target.name})") from exc
        out = ModuleMap(src.module, tgt.module, induced)
        if not out.is_equivariant():
            raise MalformedTensor(
                f"{self.name}: ⊙ of maps is not equivariant")
        return out

    @_memo("_assocs")
    def associator(self, X: Module, Y: Module, Z: Module) -> ModuleMap:
        return self._associator(X, Y, Z)

    def _associator(self, X: Module, Y: Module, Z: Module) -> ModuleMap:
        raise NotImplementedError

    def left_unit(self, X: Module) -> ModuleMap:
        raise NotImplementedError

    def right_unit(self, X: Module) -> ModuleMap:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _rebracket(self, X: Module, Y: Module, Z: Module) -> ModuleMap:
        """Canonical (X⊙Y)⊙Z -> X⊙(Y⊙Z) through the total projections
        from X⊗Y⊗Z."""
        pXY, pYZ = self.product(X, Y), self.product(Y, Z)
        pL = self.product(pXY.module, Z)
        pR = self.product(X, pYZ.module)
        qL = compose_tensor(pL.proj, pXY.proj, identity(Z.space))
        qR = compose_tensor(pR.proj, identity(X.space), pYZ.proj)
        sec = compose(tensor(pXY.section, identity(Z.space)), pL.section)
        a = compose(qR, sec)
        if compose(a, qL).rows != qR.rows:
            raise MalformedTensor(
                f"{self.name}: rebracketing is not well defined on "
                f"({X.name},{Y.name},{Z.name})")
        return ModuleMap(pL.module, pR.module, a)


def _orbit(actions: Sequence[LinearMap], b: int,
           space: VectorSpace) -> LinearMap:
    """The column map space -> X, r ↦ x_b·r, where actions[i] is the
    action of the i-th algebra basis element on X."""
    return LinearMap.from_rows(space, actions[0].target, tuple(
        tuple([a.rows[r][b] for a in actions])
        for r in range(actions[0].target.dim)))


def _collapse(cell, blocks: Sequence[LinearMap],
              space: VectorSpace) -> LinearMap:
    """Descend through `cell` the ambient map into `space` whose k-th
    block of columns is blocks[k]; raises LinAlgError when it is not
    well defined."""
    rows = tuple(tuple(chain.from_iterable(blk.rows[r] for blk in blocks))
                 for r in range(space.dim))
    amb = LinearMap.from_rows(cell.proj.source, space, rows)
    return descend(cell, amb)


def _collapse_left(ct: CustomTensor, X) -> ModuleMap:
    """λ_X: R⊗_R X -> X, r⊗x ↦ r·x, by the first action family of X."""
    cell = ct.product(ct.unit, X)
    return ModuleMap(cell.module, X,
                     _collapse(cell, X.families[0][1], X.space))


def _collapse_right(ct: CustomTensor, X) -> ModuleMap:
    """ρ_X: X⊗_R R -> X, x⊗r ↦ x·r, by the last action family of X."""
    cell = ct.product(X, ct.unit)
    orbits = [_orbit(X.families[-1][1], b, ct.algebra.space)
              for b in range(X.dim)]
    return ModuleMap(cell.module, X, _collapse(cell, orbits, X.space))


class StrictTensor(CustomTensor):
    """⊙ = ⊗_R over a commutative algebra; the unit object is R itself,
    the regular module named ``R``.  Products are keyed by content: a hit
    returns the product named after the first pair seen."""

    def __init__(self, algebra: Algebra, name: Optional[str] = None):
        if not algebra.is_commutative():
            raise StructureError("strict tensor needs a commutative algebra")
        unit = Module.regular(algebra)
        super().__init__(algebra, unit, name or f"strict[{algebra.name}]")

    def _product(self, X: Module, Y: Module) -> TensorCell:
        return module_tensor_commutative(X, Y)

    _associator = CustomTensor._rebracket
    left_unit = _collapse_left
    right_unit = _collapse_right


class BimoduleTensor(CustomTensor):
    """⊗_R on R-R-bimodules over any algebra, the target of ω: the unit is
    the regular bimodule, the associator the canonical rebracketing, and
    λ and ρ collapse R as the strict tensor's do."""

    def __init__(self, algebra: Algebra):
        super().__init__(algebra, Bimodule.regular(algebra),
                         f"bimodules[{algebra.name}]")

    def _product(self, M: Bimodule, N: Bimodule) -> TensorCell:
        return bimodule_tensor(M, N)

    _associator = CustomTensor._rebracket
    left_unit = _collapse_left
    right_unit = _collapse_right


def trivial_cocycle() -> dict:
    return {(a, b, c): 1 for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def sign_cocycle() -> dict:
    coc = trivial_cocycle()
    coc[(1, 1, 1)] = -1
    return coc


def flip_cocycle(coc: dict, triple: tuple) -> dict:
    out = dict(coc)
    out[triple] = -out[triple]
    return out


def is_three_cocycle(coc: dict) -> bool:
    """dω = 1 for ω: (Z/2)³ -> {±1}, i.e. the 16 coboundary equations."""
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    lhs = (coc[(b, c, d)] * coc[(a, (b + c) % 2, d)]
                           * coc[(a, b, c)])
                    rhs = coc[((a + b) % 2, c, d)] * coc[(a, b, (c + d) % 2)]
                    if lhs != rhs:
                        return False
    return True


class GradedTensor(CustomTensor):
    """Z/2-graded vector spaces as K[Z/2]-modules, diagonal tensor.

    The product of modules is the scalar tensor product with the group
    element acting diagonally; the associator is twisted by a 3-cocycle
    ω: (Z/2)³ -> {±1}, given on all eight triples, acting through the
    parity projectors, so modules need not be presented in a homogeneous
    basis.  Since P₀ + P₁ = id on every factor, the associator is the
    identity plus the defect of ω: for the trivial cocycle it is the
    identity inclusion itself.
    """

    def __init__(self, algebra: Algebra, unit: Module, cocycle: dict,
                 name: Optional[str] = None):
        if algebra.field.char == 2:
            raise MalformedTensor("graded tensor needs characteristic ≠ 2")
        # basis (1, g) with g² = 1: element 0 is the unit, element 1 is g
        if algebra.dim != 2 or algebra.unit != (1, 0) \
                or algebra.mult[1][1] != (1, 0):
            raise MalformedTensor(
                "graded tensor expects K[Z/2] on the basis (1, g), g² = 1")
        if unit.dim != 1 or unit.action[1].rows != identity(unit.space).rows:
            raise MalformedTensor("unit must be the trivial line")
        triples = set(trivial_cocycle())
        outside = sorted(set(cocycle) - triples, key=repr)
        if outside:
            raise MalformedTensor(
                f"cocycle triples outside {{0,1}}³: {outside}")
        missing = sorted(triples - set(cocycle))
        if missing:
            raise MalformedTensor(f"cocycle misses the triples {missing}")
        for triple, value in cocycle.items():
            if isinstance(value, bool) or value not in (1, -1):
                raise MalformedTensor(
                    f"cocycle value at {triple} must be 1 or -1, "
                    f"got {value!r}")
        super().__init__(algebra, unit, name or "graded[Z/2]")
        self.cocycle = dict(cocycle)
        self._parities: Dict[tuple, tuple] = {}

    def _product(self, X: Module, Y: Module) -> TensorCell:
        space = tensor_space(X.space, Y.space)
        action = (identity(space), tensor(X.action[1], Y.action[1]))
        mod = Module(f"({X.name}⊙{Y.name})", self.algebra, space, "right",
                     action)
        return TensorCell(space, identity(space), identity(space), mod)

    @_memo("_parities")
    def _parity(self, X: Module) -> tuple:
        """The parity projectors (P₀, P₁) = ((1 + g)/2, (1 − g)/2)."""
        half = self.field._coerce("1/2")
        one, g = identity(X.space), X.action[1]
        return tuple(linear_combination(X.space, X.space,
                                        ((half, one), (sign * half, g)))
                     for sign in (1, -1))

    def _associator(self, X, Y, Z):
        """Σ ω(a,b,c)·P_a⊗P_b⊗P_c over the parity projectors.  The eight
        P_a⊗P_b⊗P_c sum to id, so this is id − 2·Σ_c S_c⊗P_c with S_c the
        sum of the P_a⊗P_b where ω(a,b,c) = −1: the identity inclusion
        for the trivial cocycle, one full-size Kronecker product for the
        sign cocycle."""
        XY = self.product(X, Y).module
        pL = self.product(XY, Z)
        pR = self.product(X, self.product(Y, Z).module)
        terms = [(1, identity(pL.module.space))]
        for c in (0, 1):
            odd = [(a, b) for a in (0, 1) for b in (0, 1)
                   if self.cocycle[(a, b, c)] == -1]
            if odd:
                pX, pY = self._parity(X), self._parity(Y)
                inner = linear_combination(XY.space, XY.space, [
                    (1, tensor(pX[a], pY[b])) for a, b in odd])
                terms.append((-2, tensor(inner, self._parity(Z)[c])))
        lin = linear_combination(pL.module.space, pR.module.space, terms)
        return ModuleMap(pL.module, pR.module, lin)

    def _unitor(self, cell, X):
        same = identity(X.space)
        lin = LinearMap.from_rows(cell.module.space, X.space, same.rows,
                                  same.cols)
        return ModuleMap(cell.module, X, lin)

    def left_unit(self, X):
        return self._unitor(self.product(self.unit, X), X)

    def right_unit(self, X):
        return self._unitor(self.product(X, self.unit), X)


# ---------------------------------------------------------------------------
# Monoidal axiom checking

def _iso_inverse(m: LinearMap, what: str) -> LinearMap:
    try:
        return solve_iso(m)
    except NotInvertible as exc:
        raise MalformedTensor(f"{what} is not invertible") from exc


def _hom_samples(sample: Sequence[Module]):
    """Morphism sample: every hom-basis map between sample modules."""
    return [ModuleMap(X, Y, lin) for X in sample for Y in sample
            for lin in hom_basis(X, Y)]


def _pentagon(ct: CustomTensor, W: Module, X: Module, Y: Module,
              Z: Module) -> tuple:
    """The two paths ((W⊙X)⊙Y)⊙Z -> W⊙(X⊙(Y⊙Z)) of the pentagon: through
    three associators, and through two."""
    WX = ct.product(W, X).module
    XY = ct.product(X, Y).module
    YZ = ct.product(Y, Z).module
    path_a = compose_all(
        ct.mor(ct.associator(W, X, Y), ct.ident(Z)).lin,
        ct.associator(W, XY, Z).lin,
        ct.mor(ct.ident(W), ct.associator(X, Y, Z)).lin)
    path_b = compose_all(ct.associator(WX, Y, Z).lin,
                         ct.associator(W, X, YZ).lin)
    return path_a, path_b


def _triangle(ct: CustomTensor, X: Module, Y: Module, rho_x: ModuleMap,
              lam_y: ModuleMap) -> tuple:
    """The two sides (X⊙I)⊙Y -> X⊙Y of the triangle, (id ⊙ λ_Y) ∘ α and
    ρ_X ⊙ id, for the unit components ``rho_x`` and ``lam_y``."""
    lhs = compose(ct.mor(ct.ident(X), lam_y).lin,
                  ct.associator(X, ct.unit, Y).lin)
    return lhs, ct.mor(rho_x, ct.ident(Y)).lin


def check_monoidal_axioms(ct: CustomTensor,
                          sample: Sequence[Module]) -> CoherenceReport:
    """Pentagon, triangle, derived unit diagrams, End(I) structure.

    Every equation is an exact matrix identity on the given sample; a
    zero-failure report certifies all listed instances.
    """
    if not sample:
        raise ValueError("sample must be non-empty")
    I = ct.unit
    rec = _Recorder()
    names = tuple(m.name for m in sample)

    # component sanity: isomorphisms and equivariance
    lams, rhos = {}, {}  # X -> (component, the inverse of its matrix)
    for X in sample:
        lam, rho = ct.left_unit(X), ct.right_unit(X)
        lams[X] = lam, _iso_inverse(lam.lin, f"λ[{X.name}]")
        rhos[X] = rho, _iso_inverse(rho.lin, f"ρ[{X.name}]")
        rec.add(f"unit-components-equivariant[{X.name}]",
                lam.is_equivariant() and rho.is_equivariant(),
                {"object": X.name})
    for X in sample:
        for Y in sample:
            for Z in sample:
                a = ct.associator(X, Y, Z)
                _iso_inverse(a.lin, f"α[{X.name},{Y.name},{Z.name}]")
                rec.add(f"associator-equivariant[{X.name},{Y.name},{Z.name}]",
                        a.is_equivariant(),
                        {"objects": [X.name, Y.name, Z.name]})

    # pentagon on all quadruples
    for W in sample:
        for X in sample:
            for Y in sample:
                for Z in sample:
                    rec.equal(
                        f"pentagon[{W.name},{X.name},{Y.name},{Z.name}]",
                        *_pentagon(ct, W, X, Y, Z),
                        {"objects": [W.name, X.name, Y.name, Z.name]})

    # triangle and the derived unit diagrams on all pairs
    for X in sample:
        for Y in sample:
            ctx = {"objects": [X.name, Y.name]}
            rec.equal(f"triangle[{X.name},{Y.name}]",
                      *_triangle(ct, X, Y, rhos[X][0], lams[Y][0]), ctx)

            XY = ct.product(X, Y).module
            lhs = compose(ct.left_unit(XY).lin, ct.associator(I, X, Y).lin)
            rhs = ct.mor(lams[X][0], ct.ident(Y)).lin
            rec.equal(f"unit-left-derived[{X.name},{Y.name}]", lhs, rhs, ctx)

            lhs = compose(ct.mor(ct.ident(X), rhos[Y][0]).lin,
                          ct.associator(X, Y, I).lin)
            rhs = ct.right_unit(XY).lin
            rec.equal(f"unit-right-derived[{X.name},{Y.name}]", lhs, rhs, ctx)

    rec.equal("lambda_I-equals-rho_I", ct.left_unit(I).lin,
              ct.right_unit(I).lin, {"object": I.name})

    # End(I) is commutative under composition
    endI = [ModuleMap(I, I, lin) for lin in hom_basis(I, I)]
    for i, r in enumerate(endI):
        for j, s in enumerate(endI):
            if j <= i:
                continue
            rec.equal(f"endI-commutes[{i},{j}]",
                      compose(r.lin, s.lin), compose(s.lin, r.lin),
                      {"basis": [i, j]})

    # End(I) actions on Hom(X,Y): unit acts trivially, actions associate
    def via_lam(f: ModuleMap, g: LinearMap) -> LinearMap:
        """λ_t ∘ g ∘ λ_s⁻¹ for f: s -> t."""
        return compose_all(lams[f.source][1], g, lams[f.target][0].lin)

    def via_rho(f: ModuleMap, g: LinearMap) -> LinearMap:
        """ρ_t ∘ g ∘ ρ_s⁻¹ for f: s -> t."""
        return compose_all(rhos[f.source][1], g, rhos[f.target][0].lin)

    morphisms = _hom_samples(sample)
    one = ct.ident(I)
    for k, f in enumerate(morphisms):
        ctx = {"morphism": k,
               "pair": [f.source.name, f.target.name]}
        rec.equal(f"endI-unit-acts-trivially-left[{k}]",
                  via_lam(f, ct.mor(one, f).lin), f.lin, ctx)
        rec.equal(f"endI-unit-acts-trivially-right[{k}]",
                  via_rho(f, ct.mor(f, one).lin), f.lin, ctx)
        for i, r in enumerate(endI):
            for j, s in enumerate(endI):
                rf = ModuleMap(f.source, f.target,
                               via_lam(f, ct.mor(r, f).lin))
                fs = ModuleMap(f.source, f.target,
                               via_rho(f, ct.mor(f, s).lin))
                rec.equal(f"endI-actions-associate[{k},{i},{j}]",
                          via_rho(f, ct.mor(rf, s).lin),
                          via_lam(f, ct.mor(r, fs).lin), ctx)

    # bifunctor interchange on sampled morphism pairs
    for k, f in enumerate(morphisms):
        for l, g in enumerate(morphisms):
            fg = ct.mor(f, g).lin
            a = compose(ct.mor(ct.ident(f.target), g).lin,
                        ct.mor(f, ct.ident(g.source)).lin)
            b = compose(ct.mor(f, ct.ident(g.target)).lin,
                        ct.mor(ct.ident(f.source), g).lin)
            ctx = {"morphisms": [k, l]}
            rec.equal(f"interchange-a[{k},{l}]", fg, a, ctx)
            rec.equal(f"interchange-b[{k},{l}]", fg, b, ctx)

    # naturality of λ, ρ on all sampled morphisms, α on a reduced set
    for k, f in enumerate(morphisms):
        ctx = {"morphism": k, "pair": [f.source.name, f.target.name]}
        rec.equal(f"lambda-natural[{k}]",
                  compose(lams[f.target][0].lin,
                          ct.mor(one, f).lin),
                  compose(f.lin, lams[f.source][0].lin), ctx)
        rec.equal(f"rho-natural[{k}]",
                  compose(rhos[f.target][0].lin,
                          ct.mor(f, one).lin),
                  compose(f.lin, rhos[f.source][0].lin), ctx)
    for k, f in enumerate(morphisms[:6]):
        for Y in sample[:2]:
            for Z in sample[:2]:
                YZ = ct.product(Y, Z).module
                lhs = compose(
                    ct.associator(f.target, Y, Z).lin,
                    ct.mor(ct.mor(f, ct.ident(Y)), ct.ident(Z)).lin)
                rhs = compose(ct.mor(f, ct.ident(YZ)).lin,
                              ct.associator(f.source, Y, Z).lin)
                rec.equal(f"alpha-natural[{k},{Y.name},{Z.name}]", lhs, rhs,
                          {"morphism": k, "objects": [Y.name, Z.name]})

    return CoherenceReport(f"monoidal axioms: {ct.name}", names,
                           tuple(rec.results))


# ---------------------------------------------------------------------------
# The bimodule T = R⊙R with three actions

@dataclass(frozen=True)
class TripleModule:
    """R⊙R with its two left actions and its right module structure."""

    algebra: Algebra
    space: VectorSpace
    left1: tuple
    left2: tuple
    right: tuple

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def families(self) -> tuple:
        return (("left", self.left1), ("left", self.left2),
                ("right", self.right))

    def check(self):
        try:
            check_actions("T", self.algebra, self.space, self.families)
        except StructureError as exc:
            raise ActionClash(str(exc)) from exc


def build_T(ct: CustomTensor, R: Module,
            lmult: Sequence[ModuleMap]) -> TripleModule:
    """T = R⊙R; left1 from −⊙R on the left multiplications ``lmult`` of
    R, left2 from R⊙−."""
    cell = ct.product(R, R)
    idR = ct.ident(R)
    left1 = tuple(ct.mor(lm, idR).lin for lm in lmult)
    left2 = tuple(ct.mor(idR, lm).lin for lm in lmult)
    T = TripleModule(ct.algebra, cell.module.space, left1, left2,
                     tuple(cell.module.action))
    T.check()
    return T


# ---------------------------------------------------------------------------
# The Watts construction

class WattsContext(CustomTensor):
    """The monoidal structure (D, α′, λ′, ρ′) that T transports ⊙ to on
    Mod_R: a CustomTensor whose product X⊙′Y is the ``tensor_over`` cell
    D(X,Y) = X⊗_R(Y⊗₂T) and whose f⊙′g is f⊗(g⊗₂id_T) descended, with T
    and every construction derived from the source tensor ``ct``, each
    built once per context; the caches are freed with the context.  D(X,Y)
    is cached by ``product`` and α′ by ``associator`` alone: ``dcell`` and
    ``alpha_prime`` build, every other caller reads the cache.  ``R`` is
    the regular module, named ``R``, ``lmult[i]`` the left multiplication
    by e_i on it, a map of right modules, and ``bimodules`` the target
    tensor ⊗_R of ω.  Every cache is keyed by content, so a hit returns
    the object named after the first modules seen; no cache is shared
    with another context."""

    def __init__(self, ct: CustomTensor):
        super().__init__(ct.algebra, ct.unit, f"transported[{ct.name}]")
        self.ct = ct
        self.bimodules = BimoduleTensor(ct.algebra)
        R = self.R = Module.regular(ct.algebra)
        self.lmult = tuple(ModuleMap(R, R, self.algebra.left_mult_matrix(i))
                           for i in range(self.algebra.dim))
        self.T = build_T(ct, R, self.lmult)
        self._omega: Dict[tuple, Bimodule] = {}
        self._ombar: Dict[tuple, TensorCell] = {}
        self._nu: Dict[tuple, LinearMap] = {}
        self._mu: Dict[tuple, LinearMap] = {}
        self._c: Dict[tuple, LinearMap] = {}
        self._c_inv: Dict[tuple, LinearMap] = {}

    # -- ω(X) as the bimodule R⊙X ------------------------------------------

    @_memo("_omega")
    def omega(self, X: Module) -> Bimodule:
        """R⊙X; r acts on the left through ℓ_r ⊙ id_X."""
        cell = self.ct.product(self.R, X)
        idX = self.ct.ident(X)
        left = tuple(self.ct.mor(lm, idX).lin for lm in self.lmult)
        bim = Bimodule(f"ω({X.name})", self.algebra, cell.module.space,
                       left, tuple(cell.module.action))
        bim.check()
        return bim

    def omega_map(self, f: ModuleMap) -> LinearMap:
        """ω(f) = id_R ⊙ f on the underlying spaces."""
        return self.ct.mor(self.ct.ident(self.R), f).lin

    # -- μ and ν -----------------------------------------------------------

    @_memo("_ombar")
    def ombar(self, X: Module) -> TensorCell:
        """X⊗₂T, X balanced against the second left action, with the
        residual first-left and right actions as its bimodule."""
        return tensor_over(X, 0, self.T, 1, f"({X.name}⊗₂T)")

    def _xhat(self, X: Module, a: int) -> ModuleMap:
        """The right-module map R -> X, r ↦ x_a · r."""
        return ModuleMap(self.R, X, _orbit(X.action, a, self.R.space))

    @_memo("_nu")
    def nu(self, X: Module) -> LinearMap:
        """X⊗₂T -> R⊙X, x⊗t ↦ (id_R ⊙ x̂)(t)."""
        cell = self.ombar(X)
        idR = self.ct.ident(self.R)
        blocks = [self.ct.mor(idR, self._xhat(X, a)).lin
                  for a in range(X.dim)]
        try:
            return _collapse(cell, blocks, self.omega(X).space)
        except LinAlgError as exc:
            raise MalformedTensor(f"ν[{X.name}] is not balanced") from exc

    @_memo("_mu")
    def mu(self, X: Module) -> LinearMap:
        """R⊙X -> X⊗₂T, the Watts equivalence for R⊙−."""
        return solve_iso(self.nu(X))

    # -- θ ------------------------------------------------------------------

    def theta(self, X: Module, Y: Module) -> tuple:
        """θ_X(Y): Y⊗_R ω(X) -> Y⊙X, y⊗t ↦ (ŷ ⊙ id_X)(t), with the cell
        of Y⊗_R ω(X) it is defined on."""
        cell = tensor_with_bimodule(Y, self.omega(X))
        target = self.ct.product(Y, X).module
        idX = self.ct.ident(X)
        blocks = [self.ct.mor(self._xhat(Y, b), idX).lin
                  for b in range(Y.dim)]
        try:
            th = _collapse(cell, blocks, target.space)
        except LinAlgError as exc:
            raise MalformedTensor(
                f"θ[{X.name}]({Y.name}) is not balanced") from exc
        solve_iso(th)  # NotInvertible signals a colimit failure
        return th, cell

    # -- the transported product D(X,Y) = X⊗₁(Y⊗₂T) -------------------------

    def dcell(self, X: Module, Y: Module) -> TensorCell:
        """Build D(X,Y) = X⊗_R(Y⊗₂T), X balanced against the first left
        action of the bimodule Y⊗₂T; ``product`` caches it."""
        return tensor_over(X, 0, self.ombar(Y).module, 0,
                           f"D({X.name},{Y.name})")

    def _product(self, X, Y):
        return self.dcell(X, Y)

    def _push(self, proj, f, g):
        """proj ∘ (f⊗(g⊗₂id_T)), g tensored through Y⊗₂T first; raises
        LinAlgError when g⊗₂id_T does not descend."""
        gT = tensor_maps(self.ombar(g.source), self.ombar(g.target), g.lin,
                         identity(self.T.space))
        return compose_tensor(proj, f.lin, gT)

    # -- c, α′, λ′, ρ′ -------------------------------------------------------

    @_memo("_c")
    def c_iso(self, X: Module, Y: Module) -> LinearMap:
        """c_{X,Y} = θ_Y(X) ∘ (id_X ⊗ ν_Y): D(X,Y) -> X⊙Y."""
        theta, cell = self.theta(Y, X)
        step = tensor_maps(self.product(X, Y), cell, identity(X.space),
                           self.nu(Y))
        return compose(theta, step)

    @_memo("_c_inv")
    def c_inv(self, X: Module, Y: Module) -> LinearMap:
        """c_{X,Y}⁻¹: X⊙Y -> D(X,Y)."""
        return solve_iso(self.c_iso(X, Y))

    def alpha_prime(self, X: Module, Y: Module, Z: Module) -> LinearMap:
        """Build D(D(X,Y),Z) -> D(X,D(Y,Z)) transported through c and α;
        ``associator`` caches it."""
        ct = self.ct
        XY = ct.product(X, Y).module
        YZ = ct.product(Y, Z).module
        c_xy = ModuleMap(self.product(X, Y).module, XY, self.c_iso(X, Y))
        c_yz_inv = ModuleMap(YZ, self.product(Y, Z).module, self.c_inv(Y, Z))
        return compose_all(
            self.mor(c_xy, self.ident(Z)).lin,
            self.c_iso(XY, Z),
            ct.associator(X, Y, Z).lin,
            self.c_inv(X, YZ),
            self.mor(self.ident(X), c_yz_inv).lin)

    def _associator(self, X, Y, Z):
        D = self.product
        return ModuleMap(D(D(X, Y).module, Z).module,
                         D(X, D(Y, Z).module).module,
                         self.alpha_prime(X, Y, Z))

    def left_unit(self, X):
        """λ′_X = λ_X ∘ c_{I,X}: D(I,X) -> X."""
        return ModuleMap(self.product(self.unit, X).module, X, compose(
            self.ct.left_unit(X).lin, self.c_iso(self.unit, X)))

    def right_unit(self, X):
        """ρ′_X = ρ_X ∘ c_{X,I}: D(X,I) -> X."""
        return ModuleMap(self.product(X, self.unit).module, X, compose(
            self.ct.right_unit(X).lin, self.c_iso(X, self.unit)))


def check_T_coherence(wc: WattsContext) -> CoherenceReport:
    """T-level pentagon and unit triangle, and slot equivariance of α′.

    The printed unit condition for the transported structure is
    dimensionally inconsistent; we check the standard unit-coherence
    triangle transported through c instead, and label it accordingly.
    """
    R, I = wc.R, wc.unit
    rec = _Recorder()

    rec.equal("T-pentagon[R,R,R,R]", *_pentagon(wc, R, R, R, R),
              {"objects": ["R"] * 4})
    # the transported unit triangle at (R,R), the interpreted unit condition
    rec.equal("T-triangle[R,R] (interpreted)",
              *_triangle(wc, R, R, wc.right_unit(R), wc.left_unit(R)),
              {"objects": [R.name, R.name]})

    # α′_{R,R,R} is equivariant for the three slot actions and the right one
    alpha = wc.associator(R, R, R).lin
    RR = wc.product(R, R).module
    idR = wc.ident(R)
    idRR = wc.ident(RR)
    for i, lm in enumerate(wc.lmult):
        src_slots = (wc.mor(wc.mor(lm, idR), idR).lin,
                     wc.mor(wc.mor(idR, lm), idR).lin,
                     wc.mor(idRR, lm).lin)
        tgt_slots = (wc.mor(lm, idRR).lin,
                     wc.mor(idR, wc.mor(lm, idR)).lin,
                     wc.mor(idR, wc.mor(idR, lm)).lin)
        for s, (a_src, a_tgt) in enumerate(zip(src_slots, tgt_slots), 1):
            rec.equal(f"T-alpha-slot-equivariant[slot{s},e{i}]",
                      compose(alpha, a_src), compose(a_tgt, alpha),
                      {"slot": s, "basis": i})
        a_src = wc.product(RR, R).module.action[i]
        a_tgt = wc.product(R, RR).module.action[i]
        rec.equal(f"T-alpha-right-equivariant[e{i}]",
                  compose(alpha, a_src), compose(a_tgt, alpha), {"basis": i})

    return CoherenceReport(f"T coherence: {wc.ct.name}", (R.name, I.name),
                           tuple(rec.results))


# ---------------------------------------------------------------------------
# Natural transformations of −⊗P functors and their generating homs

def tensor_with_bimodule(M: Module, P: Bimodule) -> TensorCell:
    """M ⊗_R P balancing the right action of M against the left of P."""
    return balanced_tensor(M.space, M.action, P.space, P.left)


def induce_natural_family(f: ModuleMap, modules: Sequence[Module]) -> dict:
    """The family M ↦ id_M ⊗ f induced by a bimodule homomorphism."""
    P, Q = f.source, f.target
    out = {}
    for M in modules:
        out[M] = tensor_maps(tensor_with_bimodule(M, P),
                             tensor_with_bimodule(M, Q), identity(M.space),
                             f.lin)
    return out


def nat_to_bimodule_hom(P: Bimodule, Q: Bimodule,
                        components: dict) -> ModuleMap:
    """Extract the bimodule homomorphism P -> Q behind a natural family.

    `components` maps sample modules M to maps M⊗P -> M⊗Q on the
    canonical cokernel bases; the sample must contain the regular module,
    under any name.
    Naturality is verified on full hom bases between sample members, the
    extracted map is verified two-sided linear, and every component is
    reproduced from the extraction.
    """
    modules = list(components)
    R = Module.regular(P.algebra)   # equal to the sample's, whatever its name
    if R not in components:
        raise NotNatural("the sample must contain the regular module")
    cells_p = {M: tensor_with_bimodule(M, P) for M in modules}
    cells_q = {M: tensor_with_bimodule(M, Q) for M in modules}
    for M in modules:
        for N in modules:
            for lin in hom_basis(M, N):
                fP = tensor_maps(cells_p[M], cells_p[N], lin,
                                 identity(P.space))
                fQ = tensor_maps(cells_q[M], cells_q[N], lin,
                                 identity(Q.space))
                if compose(components[N], fP).rows != \
                        compose(fQ, components[M]).rows:
                    raise NotNatural(
                        f"square fails for a map {M.name} -> {N.name}")
    bim = BimoduleTensor(P.algebra)
    uP, uQ = bim.left_unit(P).lin, bim.left_unit(Q).lin
    phi = compose_all(solve_iso(uP), components[R], uQ)
    for i in range(P.algebra.dim):
        if compose(phi, P.left[i]).rows != compose(Q.left[i], phi).rows:
            raise NotBalanced("extracted map is not left linear")
        if compose(phi, P.right[i]).rows != compose(Q.right[i], phi).rows:
            raise NotBalanced("extracted map is not right linear")
    for M in modules:
        rebuilt = tensor_maps(cells_p[M], cells_q[M], identity(M.space), phi)
        if rebuilt.rows != components[M].rows:
            raise NotNatural(f"component at {M.name} is not reproduced")
    return ModuleMap(P, Q, phi)


# ---------------------------------------------------------------------------
# The monoidal embedding ω with structure ξ

class OmegaFunctor:
    """ω together with ξ and η over a WattsContext; ξ, the collapses u_X
    and their inverses are built once per functor and freed with it."""

    def __init__(self, wc: WattsContext):
        self.wc = wc
        self._xi: Dict[tuple, LinearMap] = {}
        self._u: Dict[tuple, LinearMap] = {}
        self._u_inv: Dict[tuple, LinearMap] = {}

    @_memo("_u")
    def _collapse(self, X: Module) -> LinearMap:
        """u_X: D(R,X) -> X⊗₂T, collapsing the free regular factor."""
        obX = self.wc.ombar(X).module
        return _collapse(self.wc.product(self.wc.R, X), obX.left,
                         obX.space)

    @_memo("_u_inv")
    def _collapse_inv(self, X: Module) -> LinearMap:
        """u_X⁻¹: X⊗₂T -> D(R,X)."""
        return solve_iso(self._collapse(X))

    def eta(self) -> LinearMap:
        """η: R -> ω(I), the inverse of the right unit at R."""
        return solve_iso(self.wc.ct.right_unit(self.wc.R).lin)

    @_memo("_xi")
    def xi(self, X: Module, Y: Module) -> LinearMap:
        """ξ_{X,Y}: ω(X)⊗_R ω(Y) -> ω(D(X,Y)) built from α′_{R,X,Y}."""
        wc, bim = self.wc, self.wc.bimodules
        cell = bim.product(wc.omega(X), wc.omega(Y))
        # pass to the X⊗₂T model of ω on both factors
        obX, obY = wc.ombar(X).module, wc.ombar(Y).module
        cell_bar = bim.product(obX, obY)
        m1 = tensor_maps(cell, cell_bar, wc.mu(X), wc.mu(Y))
        # identify with D(D(R,X),Y) through the collapse in the first slot
        ddc = wc.product(wc.product(wc.R, X).module, Y)
        m2 = tensor_maps(cell_bar, ddc, self._collapse_inv(X),
                         identity(obY.space))
        # transport and collapse on the other side
        alpha = wc.associator(wc.R, X, Y).lin
        DXY = wc.product(X, Y).module
        u_d = self._collapse(DXY)
        return compose_all(m1, m2, alpha, u_d, wc.nu(DXY))


def verify_monoidal_functor(wc: WattsContext,
                            sample: Sequence[Module]) -> CoherenceReport:
    """Monoidal-functor coherence checks for (ω, ξ, η) from (Mod_R, ⊙)
    to the bimodule tensor ``wc.bimodules``.

    The target hexagon degenerates to a pentagon because the bimodule
    tensor is associated canonically through total projections.
    """
    ct, bim = wc.ct, wc.bimodules
    om = OmegaFunctor(wc)
    rec = _Recorder()
    I = ct.unit
    eta = om.eta()

    for X in sample:
        for Y in sample:
            xi = om.xi(X, Y)
            ctx = {"objects": [X.name, Y.name]}
            try:
                solve_iso(xi)
                iso_ok = True
            except NotInvertible:
                iso_ok = False
            rec.add(f"xi-iso[{X.name},{Y.name}]", iso_ok, ctx)
            mm = ModuleMap(bim.product(wc.omega(X), wc.omega(Y)).module,
                           wc.omega(wc.product(X, Y).module), xi)
            rec.add(f"xi-equivariant[{X.name},{Y.name}]", mm.is_equivariant(),
                    ctx)

    for X in sample:
        for Y in sample:
            for Z in sample:
                ctx = {"objects": [X.name, Y.name, Z.name]}
                oX, oY, oZ = wc.omega(X), wc.omega(Y), wc.omega(Z)
                DXY = wc.product(X, Y).module
                DYZ = wc.product(Y, Z).module
                m1 = tensor_maps(bim.product(bim.product(oX, oY).module, oZ),
                                 bim.product(wc.omega(DXY), oZ), om.xi(X, Y),
                                 identity(oZ.space))
                lhs = compose_all(m1, om.xi(DXY, Z),
                                  wc.omega_map(wc.associator(X, Y, Z)))
                m2 = tensor_maps(bim.product(oX, bim.product(oY, oZ).module),
                                 bim.product(oX, wc.omega(DYZ)),
                                 identity(oX.space), om.xi(Y, Z))
                rhs = compose_all(bim.associator(oX, oY, oZ).lin, m2,
                                  om.xi(X, DYZ))
                rec.equal(f"functor-pentagon[{X.name},{Y.name},{Z.name}]",
                          lhs, rhs, ctx)

    oI = wc.omega(I)
    for X in sample:
        ctx = {"object": X.name}
        oX = wc.omega(X)
        # left unit square
        m = tensor_maps(bim.product(bim.unit, oX), bim.product(oI, oX), eta,
                        identity(oX.space))
        lhs = compose_all(m, om.xi(I, X), wc.omega_map(wc.left_unit(X)))
        rec.equal(f"functor-unit-left[{X.name}]", lhs,
                  bim.left_unit(oX).lin, ctx)
        # right unit square
        m = tensor_maps(bim.product(oX, bim.unit), bim.product(oX, oI),
                        identity(oX.space), eta)
        lhs = compose_all(m, om.xi(X, I), wc.omega_map(wc.right_unit(X)))
        rec.equal(f"functor-unit-right[{X.name}]", lhs,
                  bim.right_unit(oX).lin, ctx)

    return CoherenceReport(f"monoidal functor: {ct.name}",
                           tuple(m.name for m in sample), tuple(rec.results))


# ---------------------------------------------------------------------------
# Exact sequences and the embedding checks

@dataclass(frozen=True)
class ExactSequence:
    """A two-step complex A -f-> B -g-> C with declared exactness kind."""

    name: str
    kind: str  # "right-exact" (A -> B -> C -> 0) or "short-exact"
    f: ModuleMap
    g: ModuleMap

    def check(self):
        if self.kind not in ("right-exact", "short-exact"):
            raise StructureError(f"unknown sequence kind {self.kind}")
        self.f.check()
        self.g.check()
        if not compose(self.g.lin, self.f.lin).is_zero():
            raise StructureError(f"{self.name}: g∘f ≠ 0")
        rank_g = rank(self.g.lin)
        if rank_g != self.g.target.dim:
            raise StructureError(f"{self.name}: g is not surjective")
        rank_f = rank(self.f.lin)
        if rank_f != self.g.source.dim - rank_g:
            raise StructureError(f"{self.name}: im f ≠ ker g")
        if self.kind == "short-exact" and rank_f != self.f.source.dim:
            raise StructureError(f"{self.name}: f is not injective")


def verify_embedding(wc: WattsContext, sample: Sequence[Module],
                     sequences: Sequence[ExactSequence] = ()) -> CoherenceReport:
    """Embedding checks for ω (faithfulness, exactness), plus the
    flatness probe.

    The flatness entries are informational: their `ok` flag only records
    that the probe ran, while the witness carries `exact: true/false` for
    each (sequence, probe object) pair.  Tensoring a short exact sequence
    with a non-flat probe object is expected to lose injectivity on some
    fixtures; that observation is data, not a defect of ω.
    """
    ct = wc.ct
    rec = _Recorder()

    for X in sample:
        oX = wc.omega(X)
        rec.add(f"omega-nonzero[{X.name}]",
                (X.dim == 0) == (oX.dim == 0),
                {"object": X.name, "dim": X.dim, "omega_dim": oX.dim})

    for M in sample:
        for N in sample:
            basis = hom_basis(M, N)
            if not basis:
                rec.add(f"hom-injective[{M.name},{N.name}]", True, None)
                continue
            # one flattened image per row: the rank of the image family
            rows = []
            for lin in basis:
                img = wc.omega_map(ModuleMap(M, N, lin))
                rows.append(tuple(chain.from_iterable(img.rows)))
            flat_space = VectorSpace(wc.algebra.field, shape=(len(rows[0]),))
            dom = VectorSpace(wc.algebra.field, shape=(len(rows),))
            stacked = LinearMap.from_rows(flat_space, dom, tuple(rows))
            image_rank = rank(stacked)
            rec.add(f"hom-injective[{M.name},{N.name}]",
                    image_rank == len(basis),
                    {"pair": [M.name, N.name], "hom_dim": len(basis),
                     "image_rank": image_rank})

    for seq in sequences:
        wf = wc.omega_map(seq.f)
        wg = wc.omega_map(seq.g)
        rank_f, rank_g = rank(wf), rank(wg)
        ok = (compose(wg, wf).is_zero()
              and rank_g == wc.omega(seq.g.target).dim
              and rank_f == wc.omega(seq.g.source).dim - rank_g)
        rec.add(f"omega-right-exact[{seq.name}]", ok,
                {"sequence": seq.name, "rank_f": rank_f, "rank_g": rank_g})

    inexact = []
    for seq in sequences:
        if seq.kind != "short-exact":
            continue
        for W in sample:
            if W.dim == 0:
                continue
            probe = ct.mor(seq.f, ct.ident(W)).lin
            exact = rank(probe) == probe.source.dim
            if not exact:
                inexact.append([seq.name, W.name])
            rec.add(f"flatness[{seq.name};{W.name}]", True,
                    {"sequence": seq.name, "probe": W.name, "exact": exact})
    rec.results.append(CheckResult(
        "flatness-summary", True, {"inexact": sorted(inexact)}))

    return CoherenceReport(f"embedding: {ct.name}",
                           tuple(m.name for m in sample), tuple(rec.results))


# ---------------------------------------------------------------------------
# Rigidity

def check_rigidity(ct: CustomTensor, X: Module, Xdual: Module,
                   ev: ModuleMap, db: ModuleMap) -> CoherenceReport:
    """Snake identities for (X, X*, ev, db), plus nondegeneracy probes."""
    rec = _Recorder()
    I = ct.unit
    rec.add("ev-equivariant", ev.is_equivariant(), {"object": X.name})
    rec.add("db-equivariant", db.is_equivariant(), {"object": X.name})

    lam_x = ct.left_unit(X)
    rho_x = ct.right_unit(X)
    snake1 = compose_all(
        solve_iso(lam_x.lin),
        ct.mor(db, ct.ident(X)).lin,
        ct.associator(X, Xdual, X).lin,
        ct.mor(ct.ident(X), ev).lin,
        rho_x.lin)
    rec.equal("snake-X", snake1, identity(X.space), {"object": X.name})

    lam_d = ct.left_unit(Xdual)
    rho_d = ct.right_unit(Xdual)
    snake2 = compose_all(
        solve_iso(rho_d.lin),
        ct.mor(ct.ident(Xdual), db).lin,
        solve_iso(ct.associator(Xdual, X, Xdual).lin),
        ct.mor(ev, ct.ident(Xdual)).lin,
        lam_d.lin)
    rec.equal("snake-Xdual", snake2, identity(Xdual.space),
              {"object": Xdual.name})

    if I.dim == 1:
        cell = ct.product(Xdual, X)
        pairing = compose(ev.lin, cell.proj)
        mat = tuple(
            tuple(pairing.rows[0][a * X.dim + b] for b in range(X.dim))
            for a in range(Xdual.dim))
        form = LinearMap.from_rows(X.space, Xdual.space, mat) \
            if Xdual.dim == X.dim else None
        ok = form is not None and rank(form) == X.dim
        rec.add("ev-nondegenerate", ok, {"object": X.name})
        coform = compose(ct.product(X, Xdual).section, db.lin)
        rec.add("db-nonzero", not coform.is_zero(), {"object": X.name})
    return CoherenceReport(f"rigidity: {ct.name} at {X.name}",
                           (X.name, Xdual.name), tuple(rec.results))
