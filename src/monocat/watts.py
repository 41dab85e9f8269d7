"""Custom monoidal structures on Mod_R and their bimodule realization.

A CustomTensor packages a tensor product ⊙ on right R-modules: product
cells (quotients of the scalar Kronecker product), morphism tensoring,
and the associator/unit components.  From such a structure we build the
embedding functor ω = R⊙(−) into R-R-bimodules, written on maps in one
place (``WattsContext.omega_map``); the triple-action bimodule T = ω(R)
with its second left action ω(ℓ_r) (by Watts (1960) a right-exact
functor is −⊗_R its value at R); the natural isomorphisms ν and c
(collapsed out of D(X,Y) through ν); the transported structure
(D, α′, λ′, ρ′), itself a CustomTensor (a ``WattsContext``) whose product
D(X,Y) = X⊗_R(Y⊗₂T) is one balanced tensor cell like every other; and
ω's monoidal structure ξ.  The target of ω is a CustomTensor too:
``BimoduleTensor``, ⊗_R on bimodules, which shares its associator and
unitors with the strict tensor.  Every claimed identity is checked by
exact matrix equality and reported with witnesses.

All verification is performed on a declared finite sample of modules,
with morphisms drawn from hom bases between sample members (every basis
map of every pair, see ``_hom_samples``, which carries each map with the
names of the pair it was drawn for).  The regular module R, also
the unit of the strict tensor, is ``Module.regular(algebra)``, named ``R``
as in every bundled sample, and one object on a table: the loader, the
strict tensor and a context intern it (``algmod.intern``).  A module is
its content (``algmod``), so every cache, keyed by modules, builds each
product, cell and map once per content, and a hit returns the object
built under the first name seen: on a WattsContext, ``product(X2, R)``
with X2 X renamed is the D(X,R) cell built first, and a product module,
interned, is the first module of its content on the table.  Each product
cell has one store, its tensor's ``product`` cache (``_ombar`` for
X⊗₂T): ``algmod.tensor_over`` builds it and keeps nothing.  Check names
and witnesses are formed from the sample and the loop variables, never
from cached objects, so reports name the caller's modules: an interned
hom-sample map may run between modules of other names, and its witness
``pair`` is the pair of the sample loop.  An exception raised inside a
cached construction can still carry the first name.
Almost every check whiskers a map with an identity, f⊙id_Z, so a table
keeps one identity map per content (``CustomTensor.ident``), and interns
the other objects that key the caches: the ``mor`` key is then found by
pointer and hashed once, where a fresh equal object would be hashed
over its whole table and compared by content on every hit.  The
work of a run follows the content of its sample: two modules of one
content cost one, so the benchmark's seeded widening of R moves the work
with the seed (README, Library layout).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Dict, Optional, Sequence

from .algmod import (Algebra, Bimodule, Module, ModuleMap, StructureError,
                     TensorCell, balanced_cell, bimodule_tensor,
                     check_actions, descend, hom_basis, intern,
                     matrix_to_json, module_identity,
                     module_tensor_commutative, tensor_maps, tensor_over)
from .linalg import (Field, LinAlgError, LinearMap, NotInvertible, VectorSpace,
                     _kron_nz, compose, compose_all, compose_tensor,
                     identity, linear_combination, rank, solve_iso, tensor,
                     tensor_space)


class WattsError(Exception):
    pass


class MalformedTensor(WattsError):
    """A structure map of ⊙ is not well defined or not invertible."""


class ActionClash(WattsError):
    """The actions ⊙ builds on T or on ω(X) fail the action laws or fail
    to commute: ⊙ is not bifunctorial."""


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
    """The results of one report.  ``domains``, which is not printed,
    gives the number of instances each check family ranges over;
    ``alpha-natural`` checks a sample of its own."""

    title: str
    sample: tuple
    results: tuple
    domains: dict = field(default_factory=dict, compare=False)

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
    domains = {k: v for rep in reports for k, v in rep.domains.items()}
    return CoherenceReport(title, sample, results, domains)


class _Recorder:
    """The results of a report, and the domain of each check family that
    runs through a scope (``objects``, ``maps``) or is set by hand."""

    def __init__(self):
        self.results = []
        self.domains: Dict[str, int] = {}

    def objects(self, family: str, sample: Sequence[Module], n: int):
        """Each n-tuple of sample modules, in nested-loop order, with its
        check name family[A,B,…] and its context; the domain is |sample|ⁿ."""
        self.domains[family] = len(sample) ** n
        for objs in product(sample, repeat=n):
            names = [X.name for X in objs]
            yield (objs, f"{family}[{','.join(names)}]",
                   {"object": names[0]} if n == 1 else {"objects": names})

    def maps(self, family: str, morphisms: Sequence[tuple], per: int = 1):
        """Each (k, f) of the morphism sample, its (f, source name, target
        name) triples (``_hom_samples``), with its check name family[k]
        and its context, whose ``pair`` is the triple's names; the domain
        is ``per`` instances a map."""
        self.domains[family] = len(morphisms) * per
        for k, (f, *pair) in enumerate(morphisms):
            yield (k, f), f"{family}[{k}]", {"morphism": k, "pair": pair}

    def report(self, title: str, names: Sequence[str]) -> CoherenceReport:
        return CoherenceReport(title, tuple(names), tuple(self.results),
                               self.domains)

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
    """Cache a method's results, never None, in the dict ``self.<attr>``
    keyed by its positional arguments: the instance's own, or the one it
    shares through its table (``CustomTensor``)."""
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
    ``proj`` and a ``section`` of it.  f⊙g is ``tensor_maps`` of f and
    the right-hand factor of g (``_right_factor``) between the two
    cells, verified well defined on every call and equivariant by
    construction (``mor``).
    ``ident(X)`` is the one identity of X's content on the table, interned
    there (``algmod.intern``), so a tensor and its context share it; it is
    the identity every f⊙id and id⊙f is formed with, so that its ``mor``
    key hits by pointer.  ``product`` keeps each cell in ``_products``
    under ``_product_key``: the pair, or a graded tensor's sequence of
    factors.

    Each cache is a dict bound to its attribute.  Those in ``_shared``
    depend only on ⊙'s rule on objects and morphisms, named by the
    ``functor_key``, and are fetched from the cell table ``cells`` under
    (that key, the attribute name), so tensors that differ only in their
    associator build each product, map and identity once; ``_assocs``
    (α) stays on the instance unless the class lists it there too.  The
    key names the class, so a subclass never reads its parent's entries.
    ``cells`` is the caller's table, or a fresh one that goes with the
    tensor.
    Every cache, and the interned store, refers to modules and maps only,
    never to a tensor, so a tensor is freed by refcount while its table
    lives on; an identity kept on its module would be a reference cycle
    instead.  An α that depends on the instance is never interned.
    """

    _shared = ("_products", "_mors", "_ids")

    def __init__(self, algebra: Algebra, unit: Module, name: str,
                 cells: Optional[dict] = None):
        self.algebra = algebra
        self.unit = unit
        self.name = name
        self.cells = {} if cells is None else cells
        self.key = self.functor_key()
        self._assocs: Dict[tuple, ModuleMap] = {}
        for attr in self._shared:
            setattr(self, attr, self.cells.setdefault((self.key, attr), {}))

    def functor_key(self) -> tuple:
        """The key of ⊙'s rule on objects and morphisms: (the class, the
        algebra)."""
        return (type(self), self.algebra)

    @property
    def field(self) -> Field:
        return self.algebra.field

    def product(self, X: Module, Y: Module) -> TensorCell:
        """The cell X⊙Y, built once per ``_product_key(X, Y)`` and kept
        under it in ``_products``, its one store."""
        key = self._product_key(X, Y)
        cell = self._products.get(key)
        if cell is None:
            cell = self._products[key] = self._product(X, Y)
        return cell

    def _product_key(self, X: Module, Y: Module) -> tuple:
        """The key of X⊙Y in ``_products``: the pair (X, Y)."""
        return X, Y

    def _product(self, X: Module, Y: Module) -> TensorCell:
        raise NotImplementedError

    @_memo("_ids")
    def ident(self, X: Module) -> ModuleMap:
        """id_X, one object per content of X on the table, as a key of
        ``mor``."""
        return intern(self.cells, module_identity(X))

    def _right_factor(self, g: ModuleMap) -> LinearMap:
        """The map that g contributes on the right of the ambient f⊗g."""
        return g.lin

    @_memo("_mors")
    def mor(self, f: ModuleMap, g: ModuleMap) -> ModuleMap:
        """f⊙g between the product cells, for equivariant f and g;
        MalformedTensor when f⊗g does not descend.

        f⊙g is equivariant by construction, so it is not checked.  It is
        the descent of f⊗g through cells whose actions descend from the
        factors' actions, which f⊗g intertwines: for the ``tensor_over``
        cells (the strict ⊗_R, the bimodule tensor, X⊗₂T and D(X,Y)) the
        residual actions a⊗id and id⊗b, and for the graded product the
        diagonal g⊗g.  On a ``WattsContext`` the right factor g⊗₂id_T is
        equivariant too, since D's action is T's right action and
        f⊗(g⊗₂id_T) never touches it.  Every map the checks hand in is
        equivariant: hom-basis maps, identities, structure maps, ℓ_r and
        x̂ (maps of right modules, as R is associative), and the sequence
        and rigidity maps the loader checks."""
        src = self.product(f.source, g.source)
        tgt = self.product(f.target, g.target)
        try:
            induced = tensor_maps(src, tgt, f.lin, self._right_factor(g))
        except LinAlgError as exc:
            raise MalformedTensor(
                f"{self.name}: ⊙ of maps does not descend for "
                f"({f.source.name} -> {f.target.name}, "
                f"{g.source.name} -> {g.target.name})") from exc
        return ModuleMap(src.module, tgt.module, induced)

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
        """Canonical (X⊙Y)⊙Z -> X⊙(Y⊙Z): the total projection qR from
        X⊗Y⊗Z onto X⊙(Y⊙Z) descended through the one qL onto (X⊙Y)⊙Z."""
        pXY, pYZ = self.product(X, Y), self.product(Y, Z)
        pL = self.product(pXY.module, Z)
        pR = self.product(X, pYZ.module)
        qL = compose_tensor(pL.proj, pXY.proj, identity(Z.space))
        qR = compose_tensor(pR.proj, identity(X.space), pYZ.proj)
        sec = compose(tensor(pXY.section, identity(Z.space)), pL.section)
        try:
            a = descend(TensorCell(pL.space, qL, sec), qR)
        except LinAlgError as exc:
            raise MalformedTensor(
                f"{self.name}: rebracketing is not well defined on "
                f"({X.name},{Y.name},{Z.name})") from exc
        return intern(self.cells, ModuleMap(pL.module, pR.module, a))


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
    returns the product named after the first pair seen.  α, like ⊙,
    is fixed by the functor key, so it is shared."""

    _shared = CustomTensor._shared + ("_assocs",)

    def __init__(self, algebra: Algebra, cells: Optional[dict] = None):
        if not algebra.is_commutative():
            raise StructureError("strict tensor needs a commutative algebra")
        cells = {} if cells is None else cells
        unit = intern(cells, Module.regular(algebra))
        super().__init__(algebra, unit, f"strict[{algebra.name}]", cells)

    def _product(self, X: Module, Y: Module) -> TensorCell:
        return module_tensor_commutative(X, Y, self.cells)

    _associator = CustomTensor._rebracket
    left_unit = _collapse_left
    right_unit = _collapse_right


class BimoduleTensor(CustomTensor):
    """⊗_R on R-R-bimodules over any algebra, the target of ω: the unit is
    the regular bimodule, the associator the canonical rebracketing, and
    λ and ρ collapse R as the strict tensor's do.  α is shared, as the
    strict tensor's is."""

    _shared = CustomTensor._shared + ("_assocs",)

    def __init__(self, algebra: Algebra, cells: Optional[dict] = None):
        super().__init__(algebra, Bimodule.regular(algebra),
                         f"bimodules[{algebra.name}]", cells)

    def _product(self, M: Bimodule, N: Bimodule) -> TensorCell:
        return bimodule_tensor(M, N, self.cells)

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
    identity plus the defect of ω, whose terms with a zero projector are
    skipped: for the trivial cocycle, and wherever every defect term
    meets a zero projector, it is the identity inclusion itself.  The
    cocycle is no part of the functor key: graded tensors over one
    algebra share their products, maps and parity projectors through a
    common table, and only α is their own.

    (X⊙Y)⊙Z and X⊙(Y⊙Z) have one content, since the Kronecker product is
    associative and spaces compare by shape, so a product is keyed by
    its sequence of sample factors (``_product_key``), which ``_factors``
    keeps for each product module on the table: each product is built
    once per sequence.
    """

    _shared = CustomTensor._shared + ("_parities", "_factors")

    def __init__(self, algebra: Algebra, unit: Module, cocycle: dict,
                 name: Optional[str] = None, cells: Optional[dict] = None):
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
        super().__init__(algebra, unit, name or "graded[Z/2]", cells)
        self.cocycle = dict(cocycle)

    def _product_key(self, X: Module, Y: Module) -> tuple:
        """The sequence of sample factors of X⊙Y: X's and then Y's, as
        ``_factors`` keeps them for each product module, (M,) for any
        other module M."""
        return self._factors.get(X, (X,)) + self._factors.get(Y, (Y,))

    def _product(self, X: Module, Y: Module) -> TensorCell:
        space = tensor_space(X.space, Y.space)
        action = (identity(space), tensor(X.action[1], Y.action[1]))
        mod = intern(self.cells, Module(f"({X.name}⊙{Y.name})",
                                        self.algebra, space, "right", action))
        self._factors.setdefault(mod, self._product_key(X, Y))
        one = identity(mod.space)
        return TensorCell(mod.space, one, one, mod)

    @_memo("_parities")
    def _parity(self, X: Module) -> tuple:
        """The parity projectors (P₀, P₁) = ((1 + g)/2, (1 − g)/2), None
        in place of one that is zero."""
        half = self.field._coerce("1/2")
        one, g = identity(X.space), X.action[1]
        projectors = (linear_combination(X.space, X.space,
                                         ((half, one), (sign * half, g)))
                      for sign in (1, -1))
        return tuple(None if P.is_zero() else P for P in projectors)

    def _associator(self, X, Y, Z):
        """Σ ω(a,b,c)·P_a⊗P_b⊗P_c over the parity projectors.  The eight
        P_a⊗P_b⊗P_c sum to id, so this is id − 2·Σ_c S_c⊗P_c with S_c the
        sum of the P_a⊗P_b where ω(a,b,c) = −1.  A term with a zero
        projector is zero and is skipped, so α is the identity inclusion
        where no term is left: for the trivial cocycle, which builds no
        projector, and for the sign cocycle wherever a factor has no odd
        part.  Else the nonzeros of each S_c⊗P_c (``_kron_nz``) are
        subtracted twice from the identity's rows in one pass, each entry
        reduced once, with no full-size Kronecker product formed."""
        XY = self.product(X, Y).module
        pL = self.product(XY, Z)
        target = self.product(X, self.product(Y, Z).module).module
        one = identity(pL.module.space)
        rows, cols = one.rows, one.cols
        defects = []
        for c in (0, 1):
            odd = [(a, b) for a in (0, 1) for b in (0, 1)
                   if self.cocycle[(a, b, c)] == -1]
            if not odd:
                continue
            pX, pY, pZ = self._parity(X), self._parity(Y), self._parity(Z)
            nonzero = [(1, tensor(pX[a], pY[b])) for a, b in odd
                       if pX[a] is not None and pY[b] is not None]
            if nonzero and pZ[c] is not None:
                inner = linear_combination(XY.space, XY.space, nonzero)
                defects.append(_kron_nz(inner, pZ[c]))
        if defects:
            out = [list(row) for row in rows]
            for defect in defects:
                for row, nz in zip(out, defect):
                    for col, v in nz:
                        row[col] -= 2 * v
            p = self.field.char
            rows = tuple([tuple([v % p for v in row]) if p else tuple(row)
                          for row in out])
            cols = None
        return ModuleMap(pL.module, target, LinearMap.from_rows(
            one.source, target.space, rows, cols))

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


def _hom_maps(X: Module, Y: Module, cells: dict) -> list:
    """Every hom-basis map X -> Y as a ModuleMap interned in the cell table
    ``cells``, where the basis's quotient is looked up too.  An interned
    map may run between modules of other names: its caller names it from
    its own loop."""
    return [intern(cells, ModuleMap(X, Y, lin))
            for lin in hom_basis(X, Y, cells)]


def _hom_samples(sample: Sequence[Module], cells: dict) -> list:
    """Morphism sample: every hom-basis map f between sample modules, as
    (f, X.name, Y.name) for the pair (X, Y) it was drawn for."""
    return [(f, X.name, Y.name) for X in sample for Y in sample
            for f in _hom_maps(X, Y, cells)]


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

    # component sanity: isomorphisms and equivariance
    lams, rhos = {}, {}  # X -> (component, the inverse of its matrix)
    for (X,), name, ctx in rec.objects("unit-components-equivariant",
                                       sample, 1):
        lam, rho = ct.left_unit(X), ct.right_unit(X)
        lams[X] = lam, _iso_inverse(lam.lin, f"λ[{X.name}]")
        rhos[X] = rho, _iso_inverse(rho.lin, f"ρ[{X.name}]")
        rec.add(name, lam.is_equivariant() and rho.is_equivariant(), ctx)
    for (X, Y, Z), name, ctx in rec.objects("associator-equivariant",
                                            sample, 3):
        a = ct.associator(X, Y, Z)
        _iso_inverse(a.lin, f"α[{X.name},{Y.name},{Z.name}]")
        rec.add(name, a.is_equivariant(), ctx)

    # pentagon on all quadruples
    for objs, name, ctx in rec.objects("pentagon", sample, 4):
        rec.equal(name, *_pentagon(ct, *objs), ctx)

    # triangle and the derived unit diagrams on all pairs
    for (X, Y), name, ctx in rec.objects("triangle", sample, 2):
        rec.equal(name, *_triangle(ct, X, Y, rhos[X][0], lams[Y][0]), ctx)
    for (X, Y), name, ctx in rec.objects("unit-left-derived", sample, 2):
        lhs = compose(ct.left_unit(ct.product(X, Y).module).lin,
                      ct.associator(I, X, Y).lin)
        rec.equal(name, lhs, ct.mor(lams[X][0], ct.ident(Y)).lin, ctx)
    for (X, Y), name, ctx in rec.objects("unit-right-derived", sample, 2):
        lhs = compose(ct.mor(ct.ident(X), rhos[Y][0]).lin,
                      ct.associator(X, Y, I).lin)
        rec.equal(name, lhs, ct.right_unit(ct.product(X, Y).module).lin, ctx)

    rec.equal("lambda_I-equals-rho_I", ct.left_unit(I).lin,
              ct.right_unit(I).lin, {"object": I.name})

    # End(I) is commutative under composition
    endI = _hom_maps(I, I, ct.cells)
    rec.domains["endI-commutes"] = len(endI) * (len(endI) - 1) // 2
    for (i, r), (j, s) in combinations(enumerate(endI), 2):
        rec.equal(f"endI-commutes[{i},{j}]", compose(r.lin, s.lin),
                  compose(s.lin, r.lin), {"basis": [i, j]})

    # End(I) actions on Hom(X,Y): unit acts trivially, actions associate
    def via_lam(f: ModuleMap, g: LinearMap) -> LinearMap:
        """λ_t ∘ g ∘ λ_s⁻¹ for f: s -> t."""
        return compose_all(lams[f.source][1], g, lams[f.target][0].lin)

    def via_rho(f: ModuleMap, g: LinearMap) -> LinearMap:
        """ρ_t ∘ g ∘ ρ_s⁻¹ for f: s -> t."""
        return compose_all(rhos[f.source][1], g, rhos[f.target][0].lin)

    morphisms = _hom_samples(sample, ct.cells)
    one = ct.ident(I)
    for (_, f), name, ctx in rec.maps("endI-unit-acts-trivially-left",
                                      morphisms):
        rec.equal(name, via_lam(f, ct.mor(one, f).lin), f.lin, ctx)
    for (_, f), name, ctx in rec.maps("endI-unit-acts-trivially-right",
                                      morphisms):
        rec.equal(name, via_rho(f, ct.mor(f, one).lin), f.lin, ctx)
    for (k, f), _, ctx in rec.maps("endI-actions-associate", morphisms,
                                   len(endI) ** 2):
        for (i, r), (j, s) in product(enumerate(endI), repeat=2):
            rf = ModuleMap(f.source, f.target, via_lam(f, ct.mor(r, f).lin))
            fs = ModuleMap(f.source, f.target, via_rho(f, ct.mor(f, s).lin))
            rec.equal(f"endI-actions-associate[{k},{i},{j}]",
                      via_rho(f, ct.mor(rf, s).lin),
                      via_lam(f, ct.mor(r, fs).lin), ctx)

    # bifunctor interchange on sampled morphism pairs
    rec.domains["interchange-a"] = rec.domains["interchange-b"] = \
        len(morphisms) ** 2
    for (k, (f, *_)), (l, (g, *_)) in product(enumerate(morphisms), repeat=2):
        fg = ct.mor(f, g).lin
        a = compose(ct.mor(ct.ident(f.target), g).lin,
                    ct.mor(f, ct.ident(g.source)).lin)
        b = compose(ct.mor(f, ct.ident(g.target)).lin,
                    ct.mor(ct.ident(f.source), g).lin)
        rec.equal(f"interchange-a[{k},{l}]", fg, a, {"morphisms": [k, l]})
        rec.equal(f"interchange-b[{k},{l}]", fg, b, {"morphisms": [k, l]})

    # naturality of λ, ρ on all sampled morphisms, α on a reduced set of
    # its domain, the maps times the pairs of sample modules
    for (_, f), name, ctx in rec.maps("lambda-natural", morphisms):
        rec.equal(name, compose(lams[f.target][0].lin, ct.mor(one, f).lin),
                  compose(f.lin, lams[f.source][0].lin), ctx)
    for (_, f), name, ctx in rec.maps("rho-natural", morphisms):
        rec.equal(name, compose(rhos[f.target][0].lin, ct.mor(f, one).lin),
                  compose(f.lin, rhos[f.source][0].lin), ctx)
    rec.domains["alpha-natural"] = len(morphisms) * len(sample) ** 2
    for (k, (f, *_)), Y, Z in product(enumerate(morphisms[:6]), sample[:2],
                                      sample[:2]):
        YZ = ct.product(Y, Z).module
        lhs = compose(ct.associator(f.target, Y, Z).lin,
                      ct.mor(ct.mor(f, ct.ident(Y)), ct.ident(Z)).lin)
        rhs = compose(ct.mor(f, ct.ident(YZ)).lin,
                      ct.associator(f.source, Y, Z).lin)
        rec.equal(f"alpha-natural[{k},{Y.name},{Z.name}]", lhs, rhs,
                  {"morphism": k, "objects": [Y.name, Z.name]})

    return rec.report(f"monoidal axioms: {ct.name}",
                      [m.name for m in sample])


# ---------------------------------------------------------------------------
# The bimodule T = ω(R) with three actions

@dataclass(frozen=True)
class TripleModule:
    """T = R⊙R with its two left actions and its right module structure:
    ω(R)'s left and right actions, and ω(ℓ_r) (``WattsContext``).  ``omega``
    checked ω(R)'s two, so ``check`` verifies only the second left
    action's laws and its commutation with the other two."""

    algebra: Algebra
    space: VectorSpace
    left1: tuple
    left2: tuple
    right: tuple

    @property
    def families(self) -> tuple:
        return (("left", self.left1), ("left", self.left2),
                ("right", self.right))

    def check(self):
        _bifunctorial(check_actions, "T", self.algebra, self.space,
                      self.families, (0, 2))


def _bifunctorial(check, *args) -> None:
    """``check(*args)``, the check of actions built from ⊙: its failure is
    an ActionClash, since ⊙ is then not bifunctorial."""
    try:
        check(*args)
    except StructureError as exc:
        raise ActionClash(str(exc)) from exc


# ---------------------------------------------------------------------------
# The Watts construction

class WattsContext(CustomTensor):
    """The monoidal structure (D, α′, λ′, ρ′) that T transports ⊙ to on
    Mod_R: a CustomTensor whose product X⊙′Y is the ``tensor_over`` cell
    D(X,Y) = X⊗_R(Y⊗₂T) and whose f⊙′g is ``tensor_maps`` of f and
    g⊗₂id_T (``_right_factor``), with T and every construction derived
    from the source tensor ``ct``, each built once per table and functor
    key.  T is built from ω: its first left and its right actions are
    ω(R)'s, its second left action is ω(ℓ_r) for each ``lmult``, and ν's
    blocks ω(x̂) and ξ's last factor ω(c⁻¹) are ``omega_map`` too, so ⊙
    with R on the left is applied to maps only in ``omega_map`` and ω's
    left action (ℓ_r⊙id_X).  The actions of ω(X) and T are checked where
    they are built, and a failure is an ActionClash.  D(X,Y) is cached
    by ``product`` and α′ by ``associator`` alone: ``dcell`` and
    ``alpha_prime`` build, every other caller reads the cache, but for
    the functor pentagon, which reads α′'s core (``alpha_core``) and
    builds α′ only for a failing instance.  ``R`` is
    the regular module, named ``R``, ``lmult[i]`` the left multiplication
    by e_i on it, a map of right modules, and ``bimodules`` the target
    tensor ⊗_R of ω.  Every cache is keyed by content, so a hit returns
    the object named after the first modules seen; D(X,Y) and X⊗₂T are
    ``tensor_over`` cells, whose modules are interned on the table, and
    ``product`` and ``ombar`` are their one stores.  T, D, ω, ν, c, the
    transported ``mor`` and c⁻¹, kept in the cache of ``inverse`` keyed
    by the map, are fixed by ⊙ on objects and morphisms (Watts 1960), so
    their caches are shared through the source tensor's table
    ``ct.cells`` under the functor key ("transported", the source
    tensor's key): the contexts of one graded tensor under two cocycles
    build them once.  Only α′ (``_assocs``) and ξ (``OmegaFunctor``),
    built from α with c at their endpoints, depend on α and stay on the
    instance.  Every cokernel, the hom bases the checks read included, is
    kept in the same table (``algmod``), so the axioms of ``ct`` and the
    embedding of its context build each once.

    ν, c, c⁻¹ and α′ are ModuleMaps between the modules the context
    caches: ν_X: X⊗₂T -> ω(X) from the ``ombar`` module, c_{X,Y}: D(X,Y)
    -> X⊙Y between the ``product`` modules, ``inverse(m)``: m.target ->
    m.source, and α′ from its first c's source to its last c⁻¹'s target.
    So ``associator`` caches α′ as built, ⊙'s ``mor`` takes c and c⁻¹ as
    they are, and λ′, ρ′ read D(I,X), D(X,I) off c; no caller looks a
    module up to wrap one of them."""

    _shared = CustomTensor._shared + ("_omega", "_ombar", "_nu", "_c",
                                      "_inv")

    def __init__(self, ct: CustomTensor):
        self.ct = ct
        super().__init__(ct.algebra, ct.unit, f"transported[{ct.name}]",
                         ct.cells)
        self.bimodules = BimoduleTensor(ct.algebra, self.cells)
        R = self.R = intern(self.cells, Module.regular(ct.algebra))
        self.lmult = tuple(ModuleMap(R, R, self.algebra.left_mult_matrix(i))
                           for i in range(self.algebra.dim))
        oR = self.omega(R)
        left2 = tuple(self.omega_map(lm) for lm in self.lmult)
        self.T = TripleModule(self.algebra, oR.space, oR.left, left2, oR.right)
        self.T.check()

    def functor_key(self) -> tuple:
        return ("transported", self.ct.key)

    # -- ω(X) as the bimodule R⊙X ------------------------------------------

    @_memo("_omega")
    def omega(self, X: Module) -> Bimodule:
        """R⊙X; r acts on the left through ℓ_r ⊙ id_X.  Its actions are
        checked: ActionClash when they fail."""
        cell = self.ct.product(self.R, X)
        idX = self.ct.ident(X)
        left = tuple(self.ct.mor(lm, idX).lin for lm in self.lmult)
        bim = Bimodule(f"ω({X.name})", self.algebra, cell.module.space,
                       left, tuple(cell.module.action))
        _bifunctorial(bim.check, (1,))
        return bim

    def omega_map(self, f: ModuleMap) -> LinearMap:
        """ω(f) = id_R ⊙ f on the underlying spaces."""
        return self.ct.mor(self.ct.ident(self.R), f).lin

    # -- ν -----------------------------------------------------------------

    @_memo("_ombar")
    def ombar(self, X: Module) -> TensorCell:
        """X⊗₂T, X balanced against the second left action, with the
        residual first-left and right actions as its bimodule."""
        return tensor_over(X, 0, self.T, 1, f"({X.name}⊗₂T)", self.cells)

    def _xhat(self, X: Module, a: int) -> ModuleMap:
        """The right-module map R -> X, r ↦ x_a · r."""
        return ModuleMap(self.R, X, _orbit(X.action, a, self.R.space))

    @_memo("_nu")
    def nu(self, X: Module) -> ModuleMap:
        """ν_X: X⊗₂T -> ω(X), x⊗t ↦ ω(x̂)(t), a map of bimodules."""
        cell, omega = self.ombar(X), self.omega(X)
        blocks = [self.omega_map(self._xhat(X, a)) for a in range(X.dim)]
        try:
            return ModuleMap(cell.module, omega,
                             _collapse(cell, blocks, omega.space))
        except LinAlgError as exc:
            raise MalformedTensor(f"ν[{X.name}] is not balanced") from exc

    @_memo("_inv")
    def inverse(self, m: ModuleMap) -> ModuleMap:
        """m⁻¹: m.target -> m.source, the cache of c⁻¹: m is a map the
        context caches, so its key is found by pointer."""
        return ModuleMap(m.target, m.source, solve_iso(m.lin))

    # -- the transported product D(X,Y) = X⊗₁(Y⊗₂T) -------------------------

    def dcell(self, X: Module, Y: Module) -> TensorCell:
        """Build D(X,Y) = X⊗_R(Y⊗₂T), X balanced against the first left
        action of the bimodule Y⊗₂T; ``product`` caches it."""
        return tensor_over(X, 0, self.ombar(Y).module, 0,
                           f"D({X.name},{Y.name})", self.cells)

    def _product(self, X, Y):
        return self.dcell(X, Y)

    def _right_factor(self, g):
        """g⊗₂id_T, g tensored through Y⊗₂T; raises LinAlgError when it
        does not descend."""
        return tensor_maps(self.ombar(g.source), self.ombar(g.target), g.lin,
                           identity(self.T.space))

    # -- c, α′, λ′, ρ′ -------------------------------------------------------

    def _hat_collapse(self, cell: TensorCell, X: Module, Y: Module,
                      inner: Optional[LinearMap] = None) -> LinearMap:
        """x⊗w ↦ (x̂ ⊙ id_Y)(inner(w)) into X⊙Y, descended through
        ``cell``, a quotient of X⊗W, with inner: W -> R⊙Y (the identity
        when None); raises LinAlgError when it is not well defined.

        One ambient map is descended: proj_{X⊙Y} ∘ (act_X ⊗ id_Y) ∘
        (id_X ⊗ sec_{R⊙Y}) ∘ (id_X ⊗ inner), with act_X: X⊗R -> X, x⊗r ↦
        x·r, X's right action, and the section a gather of columns.  Its
        block at x_a is x̂_a ⊙ id_Y = proj ∘ (x̂_a ⊗ id_Y) ∘ sec, since
        x̂_a(r) = x_a·r, so no ⊙ of maps is formed.  Those blocks need no
        descent check of their own: x̂_a is a map of right modules (R is
        associative and X's action is checked), so x̂_a ⊗ id_Y descends
        through every cell ⊙ builds (``mor``).  The collapse through
        ``cell`` is still verified, by ``descend``."""
        ct, R = self.ct, self.R
        n = R.dim
        act = LinearMap.from_rows(
            tensor_space(X.space, R.space), X.space,
            tuple(tuple(X.action[r].rows[i][a] for a in range(X.dim)
                        for r in range(n)) for i in range(X.dim)))
        idX = identity(X.space)
        amb = compose_tensor(compose_tensor(ct.product(X, Y).proj, act,
                                           identity(Y.space)),
                             idX, ct.product(R, Y).section)
        if inner is not None:
            amb = compose_tensor(amb, idX, inner)
        return descend(cell, amb)

    @_memo("_c")
    def c_iso(self, X: Module, Y: Module) -> ModuleMap:
        """c_{X,Y}: D(X,Y) -> X⊙Y, x⊗w ↦ (x̂ ⊙ id_Y)(ν_Y(w)), natural in X
        and Y (Watts 1960), and its inverse, whose failure is a colimit
        failure: MalformedTensor for a ν that does not balance or is
        singular."""
        cell = self.product(X, Y)
        try:
            c = ModuleMap(cell.module, self.ct.product(X, Y).module,
                          self._hat_collapse(cell, X, Y, self.nu(Y).lin))
            self.inverse(c)
        except NotInvertible as exc:
            raise MalformedTensor(
                f"c[{X.name},{Y.name}] is not invertible") from exc
        except LinAlgError as exc:
            raise MalformedTensor(
                f"c[{X.name},{Y.name}] is not balanced") from exc
        return c

    def alpha_core(self, X: Module, Y: Module, Z: Module) -> ModuleMap:
        """α′ without its outer c's: c_{X,Y} ⊙ id_Z, α, id_X ⊙ c_{Y,Z}⁻¹
        (diagram order), D(X,Y)⊙Z -> X⊙D(Y,Z).  Not cached: ``alpha_prime``
        and the functor pentagon each build it once per triple."""
        ct = self.ct
        c_xy, c_yz_inv = self.c_iso(X, Y), self.inverse(self.c_iso(Y, Z))
        first = ct.mor(c_xy, ct.ident(Z))
        last = ct.mor(ct.ident(X), c_yz_inv)
        return ModuleMap(first.source, last.target, compose_all(
            first.lin, ct.associator(X, Y, Z).lin, last.lin))

    def alpha_prime(self, X: Module, Y: Module, Z: Module) -> ModuleMap:
        """Build α′: D(D(X,Y),Z) -> D(X,D(Y,Z)) as c_{D(X,Y),Z}, the core
        (``alpha_core``) and c_{X,D(Y,Z)}⁻¹ (diagram order): by naturality
        of c, α transported through D(X⊙Y,Z) and D(X,Y⊙Z) without building
        them; ``associator`` caches it.  A passing functor pentagon reads
        the core alone, so only the T checks and a failing instance build
        α′."""
        first = self.c_iso(self.c_iso(X, Y).source, Z)
        last = self.inverse(self.c_iso(X, self.c_iso(Y, Z).source))
        return ModuleMap(first.source, last.target, compose_all(
            first.lin, self.alpha_core(X, Y, Z).lin, last.lin))

    def _associator(self, X, Y, Z):
        return self.alpha_prime(X, Y, Z)

    def left_unit(self, X):
        """λ′_X = λ_X ∘ c_{I,X}: D(I,X) -> X."""
        c = self.c_iso(self.unit, X)
        return ModuleMap(c.source, X,
                         compose(self.ct.left_unit(X).lin, c.lin))

    def right_unit(self, X):
        """ρ′_X = ρ_X ∘ c_{X,I}: D(X,I) -> X."""
        c = self.c_iso(X, self.unit)
        return ModuleMap(c.source, X,
                         compose(self.ct.right_unit(X).lin, c.lin))


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
    alpha = wc.associator(R, R, R)
    idR = wc.ident(R)
    idRR = wc.ident(wc.product(R, R).module)
    for i, lm in enumerate(wc.lmult):
        src_slots = (wc.mor(wc.mor(lm, idR), idR).lin,
                     wc.mor(wc.mor(idR, lm), idR).lin,
                     wc.mor(idRR, lm).lin)
        tgt_slots = (wc.mor(lm, idRR).lin,
                     wc.mor(idR, wc.mor(lm, idR)).lin,
                     wc.mor(idR, wc.mor(idR, lm)).lin)
        for s, (a_src, a_tgt) in enumerate(zip(src_slots, tgt_slots), 1):
            rec.equal(f"T-alpha-slot-equivariant[slot{s},e{i}]",
                      compose(alpha.lin, a_src), compose(a_tgt, alpha.lin),
                      {"slot": s, "basis": i})
        rec.equal(f"T-alpha-right-equivariant[e{i}]",
                  compose(alpha.lin, alpha.source.action[i]),
                  compose(alpha.target.action[i], alpha.lin), {"basis": i})

    return rec.report(f"T coherence: {wc.ct.name}", (R.name, I.name))


# ---------------------------------------------------------------------------
# Natural transformations of −⊗P functors and their generating homs

def induce_natural_family(f: ModuleMap, modules: Sequence[Module]) -> dict:
    """The family M ↦ id_M ⊗ f induced by a bimodule homomorphism, its
    cells M⊗_R P and M⊗_R Q bare ``balanced_cell``s on one table of its
    own: only their quotients are read."""
    P, Q, cells = f.source, f.target, {}
    cells_p, cells_q = ({M: balanced_cell(M, 0, B, 0, cells) for M in modules}
                        for B in (P, Q))
    return {M: tensor_maps(cells_p[M], cells_q[M], identity(M.space), f.lin)
            for M in modules}


def nat_to_bimodule_hom(P: Bimodule, Q: Bimodule,
                        components: dict) -> ModuleMap:
    """Extract the bimodule homomorphism P -> Q behind a natural family.

    `components` maps sample modules M to maps M⊗P -> M⊗Q on the
    canonical cokernel bases; the sample must contain the regular module,
    under any name.
    Naturality is verified on full hom bases between sample members, the
    extracted map is verified two-sided linear, and every component is
    reproduced from the extraction.  The component cells, bare
    ``balanced_cell``s whose residual actions nothing reads, the hom
    bases and λ_P, λ_Q are built on the table of one ``BimoduleTensor``,
    so the cell R⊗P of the component at R is the one λ_P collapses.
    """
    modules = list(components)
    R = Module.regular(P.algebra)   # equal to the sample's, whatever its name
    if R not in components:
        raise NotNatural("the sample must contain the regular module")
    bim = BimoduleTensor(P.algebra)
    cells_p, cells_q = (
        {M: balanced_cell(M, 0, B, 0, bim.cells) for M in modules}
        for B in (P, Q))
    for M in modules:
        for N in modules:
            for lin in hom_basis(M, N, bim.cells):
                fP = tensor_maps(cells_p[M], cells_p[N], lin,
                                 identity(P.space))
                fQ = tensor_maps(cells_q[M], cells_q[N], lin,
                                 identity(Q.space))
                if compose(components[N], fP).rows != \
                        compose(fQ, components[M]).rows:
                    raise NotNatural(
                        f"square fails for a map {M.name} -> {N.name}")
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
    """ω together with ξ and η over a WattsContext.  ξ°, ξ without its
    last factor ω(c⁻¹), ξ, and the ambient maps each of them descends
    are built from α, so each is cached once per functor and pair
    (``_xi_open``, ``_xi``, ``_xi_open_ambient``, ``_xi_ambient``) and
    freed with it, never shared: the functor pentagon reads ξ at X,Y and
    Y,Z and ξ° at D(X,Y),Z and X,D(Y,Z) on each of its n³ triples, where
    there are only n² pairs (ξ°: strict-f3-z2 widened reads 144, of 24
    contents), and ξ° at a sample pair is ξ's too.
    ξ, η and ω(f) (``WattsContext.omega_map``) are LinearMaps, not
    ModuleMaps: their modules would include bimodules ω(D(D(X,Y),Z))
    that no check builds, and the checks compose them as matrices."""

    def __init__(self, wc: WattsContext):
        self.wc = wc
        self._xi_open: Dict[tuple, LinearMap] = {}
        self._xi: Dict[tuple, LinearMap] = {}
        self._xi_ambient: Dict[tuple, LinearMap] = {}
        self._xi_open_ambient: Dict[tuple, LinearMap] = {}

    def _cell(self, X: Module, Y: Module) -> TensorCell:
        """The bare cell of ω(X)⊗_R ω(Y): ξ is read through its quotient
        alone, never through its actions."""
        wc = self.wc
        return balanced_cell(wc.omega(X), 1, wc.omega(Y), 0, wc.cells)

    def eta(self) -> LinearMap:
        """η: R -> ω(I), the inverse of the right unit at R."""
        return solve_iso(self.wc.ct.right_unit(self.wc.R).lin)

    @_memo("_xi_open")
    def xi_open(self, X: Module, Y: Module) -> LinearMap:
        """ξ°_{X,Y} = α_{R,X,Y} ∘ κ: ω(X)⊗_R ω(Y) -> ω(X⊙Y), ξ without its
        last factor ω(c_{X,Y}⁻¹), with κ: m⊗z ↦ (m̂ ⊙ id_Y)(z) into
        (R⊙X)⊙Y collapsed through the bare cell of ω(X)⊗_R ω(Y);
        MalformedTensor when κ does not descend."""
        wc, ct, R = self.wc, self.wc.ct, self.wc.R
        try:
            kappa = wc._hat_collapse(self._cell(X, Y),
                                     ct.product(R, X).module, Y)
        except LinAlgError as exc:
            raise MalformedTensor(
                f"ξ[{X.name},{Y.name}] is not well defined") from exc
        return compose(ct.associator(R, X, Y).lin, kappa)

    @_memo("_xi")
    def xi(self, X: Module, Y: Module) -> LinearMap:
        """ξ_{X,Y} = ω(c_{X,Y}⁻¹) ∘ ξ°_{X,Y}: ω(X)⊗_R ω(Y) -> ω(D(X,Y)),
        with ξ° = α_{R,X,Y} ∘ κ (``xi_open``).  This is c_{R,D(X,Y)} ∘
        α′_{R,X,Y} ∘ (c_{R,X}⁻¹ ⊗ ν_Y⁻¹) with α′ unfolded and c moved by
        naturality, c_{R⊙X,Y} ∘ (id ⊗ ν_Y ν_Y⁻¹) = κ, so no D(D(R,X),Y) is
        built."""
        wc = self.wc
        return compose(wc.omega_map(wc.inverse(wc.c_iso(X, Y))),
                       self.xi_open(X, Y))

    @_memo("_xi_ambient")
    def xi_ambient(self, X: Module, Y: Module) -> LinearMap:
        """ξ_{X,Y} ∘ proj: ω(X)⊗_K ω(Y) -> ω(D(X,Y)), the ambient map ξ
        descends, which the functor pentagon tensors with an identity."""
        return compose(self.xi(X, Y), self._cell(X, Y).proj)

    @_memo("_xi_open_ambient")
    def xi_open_ambient(self, X: Module, Y: Module) -> LinearMap:
        """ξ°_{X,Y} ∘ proj: ω(X)⊗_K ω(Y) -> ω(X⊙Y), the ambient map ξ°
        descends, which the functor pentagon composes after a tensor of
        maps into ω(X)⊗_K ω(Y)."""
        return compose(self.xi_open(X, Y), self._cell(X, Y).proj)


def _functor_pentagon(wc: WattsContext, om: OmegaFunctor, X: Module,
                      Y: Module, Z: Module) -> tuple:
    """The two sides (ωX⊗ωY)⊗ωZ -> ω(D(X,D(Y,Z))) of the functor
    pentagon, ω(α′) ∘ ξ_{D(X,Y),Z} ∘ (ξ_{X,Y} ⊗ id) and ξ_{X,D(Y,Z)} ∘
    (id ⊗ ξ_{Y,Z}) ∘ a, with a the bimodule associator: a failing
    instance's witness."""
    bim = wc.bimodules
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
    rhs = compose_all(bim.associator(oX, oY, oZ).lin, m2, om.xi(X, DYZ))
    return lhs, rhs


def _functor_pentagon_met(wc: WattsContext, om: OmegaFunctor, X: Module,
                          Y: Module, Z: Module) -> tuple:
    """The two sides of the functor pentagon where they meet: after the
    surjection q: ωX⊗_K ωY⊗_K ωZ -> (ωX⊗ωY)⊗ωZ and before their common
    last factor, the isomorphism ω(c_{X,D(Y,Z)}⁻¹).  Equal exactly when
    the full sides (``_functor_pentagon``) are: a∘q is the projection
    onto ωX⊗(ωY⊗ωZ), so a drops out; (ξ⊗id)∘q and (id⊗ξ)∘q are the
    ambient maps they descend; ω(α′) ∘ ξ_{D(X,Y),Z} is ω(c_{X,D(Y,Z)}⁻¹)
    ∘ ω(core) ∘ ξ°_{D(X,Y),Z}, as ω is a functor and c ∘ c⁻¹ = id.  So
    neither side builds α′, c_{D(X,Y),Z}, c_{X,D(Y,Z)}, a cell on three
    factors or the bimodule associator.  ξ° after the projection onto
    its bare cell is kept per pair (``xi_open_ambient``), so each side
    is one ``compose_tensor`` of maps kept per pair, and the left one
    ω(core) after it."""
    DXY = wc.product(X, Y).module
    DYZ = wc.product(Y, Z).module
    lhs = compose_tensor(
        compose(wc.omega_map(wc.alpha_core(X, Y, Z)),
                om.xi_open_ambient(DXY, Z)),
        om.xi_ambient(X, Y), identity(wc.omega(Z).space))
    rhs = compose_tensor(om.xi_open_ambient(X, DYZ),
                         identity(wc.omega(X).space), om.xi_ambient(Y, Z))
    return lhs, rhs


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

    for (X, Y), name, ctx in rec.objects("xi-iso", sample, 2):
        xi = om.xi(X, Y)
        try:
            solve_iso(xi)
            iso_ok = True
        except NotInvertible:
            iso_ok = False
        rec.add(name, iso_ok, ctx)
    for (X, Y), name, ctx in rec.objects("xi-equivariant", sample, 2):
        mm = ModuleMap(bim.product(wc.omega(X), wc.omega(Y)).module,
                       wc.omega(wc.product(X, Y).module), om.xi(X, Y))
        rec.add(name, mm.is_equivariant(), ctx)

    for (X, Y, Z), name, ctx in rec.objects("functor-pentagon", sample, 3):
        lhs, rhs = _functor_pentagon_met(wc, om, X, Y, Z)
        if lhs.rows == rhs.rows:
            rec.add(name, True)
        else:
            rec.equal(name, *_functor_pentagon(wc, om, X, Y, Z), ctx)

    oI = wc.omega(I)
    for (X,), name, ctx in rec.objects("functor-unit-left", sample, 1):
        oX = wc.omega(X)
        m = tensor_maps(bim.product(bim.unit, oX), bim.product(oI, oX), eta,
                        identity(oX.space))
        lhs = compose_all(m, om.xi(I, X), wc.omega_map(wc.left_unit(X)))
        rec.equal(name, lhs, bim.left_unit(oX).lin, ctx)
    for (X,), name, ctx in rec.objects("functor-unit-right", sample, 1):
        oX = wc.omega(X)
        m = tensor_maps(bim.product(oX, bim.unit), bim.product(oX, oI),
                        identity(oX.space), eta)
        lhs = compose_all(m, om.xi(X, I), wc.omega_map(wc.right_unit(X)))
        rec.equal(name, lhs, bim.right_unit(oX).lin, ctx)

    return rec.report(f"monoidal functor: {ct.name}",
                      [m.name for m in sample])


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

    The flatness entries are informational: each `flatness[…]` check
    passes once its probe ran, and `flatness-summary` lists the
    (sequence, probe object) pairs that are not exact.  Tensoring a short
    exact sequence with a non-flat probe object is expected to lose
    injectivity on some fixtures; that observation is data, not a defect
    of ω.
    """
    ct = wc.ct
    rec = _Recorder()

    for (X,), name, ctx in rec.objects("omega-nonzero", sample, 1):
        oX = wc.omega(X)
        rec.add(name, (X.dim == 0) == (oX.dim == 0),
                dict(ctx, dim=X.dim, omega_dim=oX.dim))

    for (M, N), name, _ in rec.objects("hom-injective", sample, 2):
        basis = _hom_maps(M, N, wc.cells)
        if not basis:
            rec.add(name, True)
            continue
        # one flattened image per row: the rank of the image family
        rows = [tuple(chain.from_iterable(wc.omega_map(f).rows))
                for f in basis]
        flat_space = VectorSpace(wc.algebra.field, shape=(len(rows[0]),))
        dom = VectorSpace(wc.algebra.field, shape=(len(rows),))
        image_rank = rank(LinearMap.from_rows(flat_space, dom, tuple(rows)))
        rec.add(name, image_rank == len(basis),
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
            if rank(probe) != probe.source.dim:
                inexact.append([seq.name, W.name])
            rec.add(f"flatness[{seq.name};{W.name}]", True)
    rec.results.append(CheckResult(
        "flatness-summary", True, {"inexact": sorted(inexact)}))

    return rec.report(f"embedding: {ct.name}", [m.name for m in sample])


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
    return rec.report(f"rigidity: {ct.name} at {X.name}", (X.name, Xdual.name))
