"""Finite-dimensional algebras, their modules and bimodules.

An Algebra is given by raw structure constants over the base field, as a
LinearMap's ``rows`` are; modules and bimodules carry explicit action
matrices per algebra basis element.  Tensor products over the algebra are
computed as explicit cokernels of the balancing relations, so every quotient
is one ``TensorCell``: a canonical basis, a projection from the ambient
Kronecker product, a section, and the module or bimodule the quotient
carries.  Every f⊗g between two cells is ``tensor_maps``, the one path that
descends an ambient map through a cokernel.  The same relations give the
equivariant maps: Hom(X, Y) is a balancing quotient (``hom_basis``).

A module or bimodule is its content: equality and hash read the algebra,
the space and the actions, never the name, which is only a label for
reports and messages.  Every cache keyed by modules therefore builds a
product, cell or map once per content, and a hit returns the object
built under the first name seen.  ``Module.regular`` names the regular
module ``R``, the name every bundled sample gives it.

Every product here is a balancing cokernel, so the one cache is a table
of them: ``cokernel``, the one caller of ``balanced_tensor``, keeps each
cell in the dict ``cells`` its caller owns, keyed by its arguments, so
by content; with ``intern`` (below) it is the only code that touches a
table.  Its two readers are ``hom_basis`` and ``balanced_cell``, the
bare cell of a balanced product, which ``tensor_over``, the one builder
of a balanced product with the module it carries (X⊗_R Y of bimodules
or over a commutative R, and in ``watts`` X⊗₂T and D(X,Y)), builds on.
A caller that reads only the quotient takes the bare cell: in ``watts``
the M⊗_R P of a natural family, and the bimodule cells ξ° and the
functor pentagon descend through, whose residual actions nothing reads.
All three take that table as a required argument and memoize nothing:
``tensor_over`` builds a cell with the module it carries and keeps
nothing under its own arguments, so each product has one store, the
product cache of the tensor that asks for it.  Every tensor of
``watts`` has a table, the caller's, its own or, for a transported
tensor, its source tensor's, and keeps in it too, under its functor
key, the caches that depend only on its rule on objects and
morphisms, while those that depend on the associator stay on the
tensor.  The table holds modules, spaces, maps,
cells and dicts of them, never a tensor or a context; ``monocat
report`` keeps one for all its fixtures.  The one process-wide store is
``linalg``'s: each F_p's p boxed scalars, kept for the life of the
process.

A cache keyed by content still compares a key it did not store by
content, entry by entry; ``intern`` makes equal content one object per
table, so the key is found by pointer.  Interned are the loaded algebra,
its regular module R and sample modules (a sample module keeps its own
object when the table's has another name), the unit R of the strict
tensor and of a Watts context, the identities ``ct.ident``, the shared
α of the strict and bimodule tensors, the product modules of the graded
tensor and of ``tensor_over``, and the hom-sample maps the checks read.
A product module is not checked: its actions descend from actions
checked where they were loaded or built (``tensor_over``).  An interned
product module, or map, keeps the names it was first built under.  An α
that depends on the instance (a graded tensor's, a context's α′) is not
interned, and goes with its tensor by refcount.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .linalg import (Field, LinearMap, VectorSpace, _string, cached_hash,
                     compose, compose_tensor, identity, LinAlgError,
                     linear_combination, quotient_by_raw_rows,
                     serialize_raw, tensor_space, transpose)


class StructureError(Exception):
    """An algebra/module datum violates its defining axioms."""


@dataclass(frozen=True)
class Algebra:
    """Associative unital algebra via structure constants.

    mult[i][j] is the coordinate vector of e_i * e_j and unit that of 1,
    both tuples of raw entries.
    """

    name: str
    space: VectorSpace
    mult: tuple
    unit: tuple

    __hash__ = cached_hash

    @property
    def field(self) -> Field:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def left_mult_matrix(self, i: int) -> LinearMap:
        """x ↦ e_i · x on the algebra itself."""
        cols = [self.mult[i][j] for j in range(self.dim)]
        return LinearMap(self.space, self.space, tuple(zip(*cols)))

    def right_mult_matrix(self, j: int) -> LinearMap:
        """x ↦ x · e_j on the algebra itself."""
        cols = [self.mult[i][j] for i in range(self.dim)]
        return LinearMap(self.space, self.space, tuple(zip(*cols)))

    def is_commutative(self) -> bool:
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def check(self):
        """Associativity and both unit laws: R is an R-R-bimodule."""
        d = self.dim
        if len(self.unit) != d or len(self.mult) != d or any(
                len(row) != d or any(len(v) != d for v in row)
                for row in self.mult):
            raise StructureError(
                f"{self.name}: unit and structure constants must have "
                f"length {d}")
        Bimodule.regular(self).check()


@dataclass(frozen=True)
class Module:
    """One-sided module with explicit action matrices.

    action[i] is the matrix of x ↦ x·e_i (right) or x ↦ e_i·x (left).
    The name takes no part in equality.
    """

    name: str = dataclasses.field(compare=False)
    algebra: Algebra
    space: VectorSpace
    side: str  # "left" | "right"
    action: tuple  # tuple[LinearMap, ...]

    __hash__ = cached_hash

    @property
    def field(self) -> Field:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def families(self) -> tuple:
        return ((self.side, self.action),)

    def check(self):
        check_actions(self.name, self.algebra, self.space, self.families)

    @staticmethod
    def regular(algebra: Algebra) -> "Module":
        """The algebra acting on itself by right multiplication, named
        ``R``."""
        action = tuple(algebra.right_mult_matrix(j) for j in range(algebra.dim))
        return Module("R", algebra, algebra.space, "right", action)


def _action_of(space: VectorSpace, mats: Sequence[LinearMap],
               r: Sequence) -> LinearMap:
    """The action of the algebra element with raw coordinates r."""
    return linear_combination(space, space, zip(r, mats))


def check_actions(name: str, algebra: Algebra, space: VectorSpace,
                  families, checked=()) -> None:
    """Each (side, matrices) family is an action of the algebra on space,
    and every two families commute; StructureError names the first failure.
    The families at the indices ``checked`` are known to be commuting
    actions, so only the others' laws and their commutation with every
    family are checked.
    """
    d = algebra.dim
    for k, (side, mats) in enumerate(families):
        if k in checked:
            continue
        if side not in ("left", "right"):
            raise StructureError(f"{name}: unknown side {side!r}")
        if len(mats) != d:
            raise StructureError(
                f"{name}: {len(mats)} action matrices for an algebra of "
                f"dimension {d}")
        if _action_of(space, mats, algebra.unit).rows != \
                identity(space).rows:
            raise StructureError(f"{name}: unit does not act as identity")
        for i in range(d):
            for j in range(d):
                prod = _action_of(space, mats, algebra.mult[i][j])
                if side == "right":
                    seq = compose(mats[j], mats[i])
                else:
                    seq = compose(mats[i], mats[j])
                if prod.rows != seq.rows:
                    raise StructureError(
                        f"{name}: action incompatible with product at ({i},{j})")
    for a, (side_a, first) in enumerate(families):
        for b, (side_b, second) in enumerate(families[a + 1:], a + 1):
            if a in checked and b in checked:
                continue
            for i, L in enumerate(first):
                for j, R in enumerate(second):
                    if compose(L, R).rows != compose(R, L).rows:
                        raise StructureError(
                            f"{name}: {side_a}/{side_b} actions do not "
                            f"commute at ({i},{j})")


@dataclass(frozen=True)
class Bimodule:
    """Two-sided module: commuting left and right actions of one algebra.
    The name takes no part in equality."""

    name: str = dataclasses.field(compare=False)
    algebra: Algebra
    space: VectorSpace
    left: tuple   # tuple[LinearMap, ...]
    right: tuple  # tuple[LinearMap, ...]

    __hash__ = cached_hash

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def families(self) -> tuple:
        return (("left", self.left), ("right", self.right))

    def check(self, checked=()):
        """``check_actions`` on both families, skipping the laws of those
        at the indices ``checked``."""
        check_actions(self.name, self.algebra, self.space, self.families,
                      checked)

    @staticmethod
    def regular(algebra: Algebra) -> "Bimodule":
        """The algebra acting on itself on both sides, named after it."""
        left = tuple(algebra.left_mult_matrix(i) for i in range(algebra.dim))
        right = tuple(algebra.right_mult_matrix(j) for j in range(algebra.dim))
        return Bimodule(algebra.name, algebra, algebra.space, left, right)


def _intertwined(X, Y):
    """The (action on X, action on Y) pairs a map X -> Y must intertwine;
    StructureError when X and Y are over different algebras or carry
    actions on different sides."""
    if X.algebra != Y.algebra:
        raise StructureError("hom between modules over different algebras")
    if [side for side, _ in X.families] != [side for side, _ in Y.families]:
        raise StructureError("hom between modules of different sides")
    return [pair for (_, xs), (_, ys) in zip(X.families, Y.families)
            for pair in zip(xs, ys)]


@dataclass(frozen=True)
class ModuleMap:
    """A linear map together with the module structures it must respect."""

    source: object  # Module | Bimodule
    target: object
    lin: LinearMap

    __hash__ = cached_hash

    def is_equivariant(self) -> bool:
        try:
            pairs = _intertwined(self.source, self.target)
        except StructureError:
            return False
        return all(compose(self.lin, a).rows == compose(b, self.lin).rows
                   for a, b in pairs)

    def check(self):
        if not self.is_equivariant():
            raise StructureError("module map is not equivariant")


def module_identity(M) -> ModuleMap:
    return ModuleMap(M, M, identity(M.space))


# ---------------------------------------------------------------------------
# Hom computation

def hom_basis(X, Y, cells: dict):
    """Basis of equivariant linear maps X -> Y as a list of LinearMaps.

    Works for one-sided modules with matching side and for bimodules.  The
    unknowns F[r][c] are the coordinates of Y ⊗ X, and F·A = B·F over each
    intertwined pair (A, B) is the balancing of Y, acted on by Bᵀ, against
    X, acted on by A.  The rows of that quotient's projection are the RREF
    null basis of the relations, one map each; ``cokernel`` finds the
    quotient in the cell table ``cells``.
    """
    if type(X) is not type(Y):
        raise StructureError("hom between different kinds of modules")
    pairs = _intertwined(X, Y)
    m, n = Y.dim, X.dim
    cell = cokernel(cells, Y.space, tuple(transpose(B) for _, B in pairs),
                    X.space, tuple(A for A, _ in pairs))
    return [LinearMap.from_rows(X.space, Y.space, tuple(
        [flat[r * n:(r + 1) * n] for r in range(m)]))
        for flat in cell.proj.rows]


# ---------------------------------------------------------------------------
# Tensor over the algebra

@dataclass(frozen=True)
class TensorCell:
    """A balanced tensor product presented as an explicit quotient, with
    the module or bimodule it carries (None for a bare ``balanced_tensor``)."""

    space: VectorSpace
    proj: LinearMap     # ambient X ⊗_K Y -> space
    section: LinearMap  # space -> ambient, proj ∘ section = id
    module: object = None  # Module | Bimodule | None


def balanced_tensor(Xspace: VectorSpace, right_mats: Sequence[LinearMap],
                    Yspace: VectorSpace, left_mats: Sequence[LinearMap]
                    ) -> TensorCell:
    """Quotient of X ⊗_K Y by (x·r)⊗y − x⊗(r·y) over algebra basis r."""
    p = Xspace.field.char
    ambient = tensor_space(Xspace, Yspace)
    n = Yspace.dim
    rows = []
    for A, L in zip(right_mats, left_mats):
        y_cols = [[(j, row[b]) for j, row in enumerate(L.rows) if row[b]]
                  for b in range(n)]
        for a in range(Xspace.dim):
            xa = [(i, row[a]) for i, row in enumerate(A.rows) if row[a]]
            for b in range(n):
                row = [0] * ambient.dim
                for i, x in xa:
                    row[i * n + b] += x
                for j, y in y_cols[b]:
                    row[a * n + j] -= y
                if p:
                    row = [v % p for v in row]
                if any(row):
                    rows.append(row)
    return TensorCell(*quotient_by_raw_rows(ambient, rows))


def cokernel(cells: dict, Xspace: VectorSpace, right_mats: tuple,
             Yspace: VectorSpace, left_mats: tuple) -> TensorCell:
    """``balanced_tensor`` of the arguments, kept in the cell table
    ``cells`` under ("balanced_tensor", the arguments): the one caller of
    ``balanced_tensor``."""
    key = ("balanced_tensor", Xspace, right_mats, Yspace, left_mats)
    cell = cells.get(key)
    if cell is None:
        cell = cells[key] = balanced_tensor(*key[1:])
    return cell


def intern(cells: dict, obj):
    """The first object of ``obj``'s content kept in the cell table
    ``cells``, under the one key "interned"; ``obj`` itself, now kept, on
    a miss.  Equal objects passed through one table are one object, so a
    cache keyed by them finds its key by pointer."""
    return cells.setdefault("interned", {}).setdefault(obj, obj)


def descend(cell_src: TensorCell, pushed: LinearMap) -> LinearMap:
    """The map on the quotient ``cell_src.space`` induced by ``pushed``, an
    ambient map already pushed to its target; verifies it is well defined:
    induced ∘ proj = pushed.  For ``pushed`` the cell's own projection
    it is the identity, as proj ∘ section = id by construction."""
    if pushed is cell_src.proj:
        induced = identity(pushed.target)
    else:
        induced = compose(pushed, cell_src.section)
    if compose(induced, cell_src.proj).rows != pushed.rows:
        raise LinAlgError("ambient map does not descend to the quotient")
    return induced


def tensor_maps(src, tgt, f: LinearMap, g: LinearMap) -> LinearMap:
    """f⊗g from the quotient ``src`` to the quotient ``tgt``: the ambient
    f⊗g pushed through ``tgt.proj`` and descended through ``src``."""
    return descend(src, compose_tensor(tgt.proj, f, g))


def balanced_cell(X, i: int, Y, j: int, cells: dict) -> TensorCell:
    """The bare cell of X ⊗_R Y balancing X.families[i], read as a right
    action, against Y.families[j], read as a left one: the quotient, its
    projection and its section, with no module, as ``cokernel`` keeps it
    on the table ``cells``; StructureError when X and Y are over
    different algebras.  For a caller that reads only the quotient (a
    source or target cell of ``tensor_maps``), and the cell
    ``tensor_over`` builds its module on."""
    if X.algebra != Y.algebra:
        raise StructureError(
            f"({X.name}⊗{Y.name}): tensor over different algebras")
    return cokernel(cells, X.space, X.families[i][1], Y.space,
                    Y.families[j][1])


def tensor_over(X, i: int, Y, j: int, name: str, cells: dict) -> TensorCell:
    """X ⊗_R Y balancing X.families[i], read as a right action, against
    Y.families[j], read as a left one, with every other family of X (as
    a ⊗ id_Y) and of Y (as id_X ⊗ b) descended to the quotient.  One
    residual family gives a Module, a left and a right one (in that order)
    a Bimodule, named ``name`` and interned on the table ``cells``, where
    ``balanced_cell`` finds the balanced cell.  The cell is built, not
    kept: its caller's product cache is its one store.

    The module is not checked: X's and Y's families are actions that
    commute (checked where they were loaded or built, or themselves such
    products), the residual ones commute with the balanced pair, so they
    descend to the cokernel, and descent keeps the action laws and the
    commutation."""
    cell = balanced_cell(X, i, Y, j, cells)
    idX, idY = identity(X.space), identity(Y.space)
    families = [
        (side, tuple(tensor_maps(cell, cell, a, idY) for a in mats))
        for k, (side, mats) in enumerate(X.families) if k != i] + [
        (side, tuple(tensor_maps(cell, cell, idX, b) for b in mats))
        for k, (side, mats) in enumerate(Y.families) if k != j]
    if len(families) == 1:
        (side, action), = families
        result = Module(name, X.algebra, cell.space, side, action)
    else:
        (_, left), (_, right) = families
        result = Bimodule(name, X.algebra, cell.space, left, right)
    return TensorCell(cell.space, cell.proj, cell.section,
                      intern(cells, result))


def bimodule_tensor(M: Bimodule, N: Bimodule, cells: dict) -> TensorCell:
    """M ⊗_R N with the outer actions, on the cell table ``cells``."""
    return tensor_over(M, 1, N, 0, f"({M.name}⊗{N.name})", cells)


def module_tensor_commutative(X: Module, Y: Module,
                              cells: dict) -> TensorCell:
    """X ⊗_R Y of right modules over a commutative algebra, as a right
    module: Y is the symmetric bimodule it is over a commutative R."""
    if not X.algebra.is_commutative():
        raise StructureError("module tensor requires a commutative algebra")
    Ysym = Bimodule(Y.name, Y.algebra, Y.space, Y.action, Y.action)
    return tensor_over(X, 0, Ysym, 0, f"({X.name}⊗{Y.name})", cells)


# ---------------------------------------------------------------------------
# JSON: matrices out, for witnesses; fixture data in, exactly as written

def matrix_to_json(m: LinearMap) -> list:
    return [[serialize_raw(a) for a in row] for row in m.rows]


def _basis_space(field: Field, data: dict) -> VectorSpace:
    """The space on the ``basis`` labels; StructureError when ``basis`` is
    not a list or the declared ``dim`` is not an int equal to the number
    of labels."""
    basis = data["basis"]
    if not isinstance(basis, list):
        raise StructureError(
            f"{data.get('name')}: basis: expected a list, got {basis!r}")
    space = VectorSpace(field, tuple(basis))
    dim = data["dim"]
    if type(dim) is not int or dim != space.dim:
        raise StructureError(
            f"{data.get('name')}: dim {dim!r} but {space.dim} basis labels")
    return space


def algebra_from_json(data: dict) -> Algebra:
    field = Field(data["char"])
    space = _basis_space(field, data)
    coerce = field._coerce
    mult = tuple(tuple(tuple(coerce(c) for c in v) for v in row)
                 for row in data["mult"])
    unit = tuple(coerce(c) for c in data["unit"])
    alg = Algebra(data["name"], space, mult, unit)
    alg.check()
    return alg


def module_from_json(algebra: Algebra, data: dict) -> Module:
    name = _string(data["name"], "module name")
    space = _basis_space(algebra.field, data)
    action = tuple(LinearMap(space, space, rows) for rows in data["action"])
    mod = Module(name, algebra, space, data["side"], action)
    mod.check()
    return mod
