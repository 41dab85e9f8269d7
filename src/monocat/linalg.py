"""Exact linear algebra over Q and small prime fields.

Scalars are arbitrary-precision rationals (characteristic 0) or canonical
residues (characteristic p, p prime, p <= 97).  All arithmetic is exact;
"the diagram commutes" always means entrywise equality of matrices, never
closeness up to a tolerance.  Inexact input (a float) is rejected, and so
is a fraction whose denominator is not invertible in the field.

Scalars of F_p are interned: the field builds its p canonical
``FieldScalar``s once, and every scalar this module returns in
characteristic p is one of them.  Equal matrices over F_p hold the same
objects, so comparing them stops at the identity test of each entry.
Rationals are boxed fresh.

The exact kernel (``compose``, ``tensor``, ``LinearMap.__call__``, map
addition, ``scale`` and ``_rref``) computes on the raw ``.value``s, skips
zero operand entries, reduces once per output entry and boxes the result
through the field.

Matrix convention: a LinearMap f has ``matrix[r][c]`` = coefficient of the
r-th target basis vector in the image of the c-th source basis vector, so
``compose(f, g)`` multiplies ``f.matrix @ g.matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

_SMALL_PRIMES = frozenset(
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
     53, 59, 61, 67, 71, 73, 79, 83, 89, 97])

_INTERNED: dict = {}  # p -> the p scalars of F_p, indexed by residue


class LinAlgError(Exception):
    pass


class NotInvertible(LinAlgError):
    """Raised by solve_iso when no two-sided inverse exists."""


def cached_hash(self) -> int:
    """Hash of a frozen dataclass's fields, computed once per instance.

    Assigned as ``__hash__`` in the class body; equality stays the
    dataclass's structural ``__eq__``.
    """
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class Field:
    """Base field: Q (char 0) or F_p for a prime p <= 97.

    ``zero`` and ``one`` are the field's scalars 0 and 1.
    """

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and self.char not in _SMALL_PRIMES:
            raise ValueError(f"unsupported characteristic {self.char}")
        table = None
        if self.char:
            table = _INTERNED.get(self.char)
            if table is None:
                table = tuple(FieldScalar(self, v) for v in range(self.char))
                _INTERNED[self.char] = table
            zero, one = table[0], table[1]
        else:
            zero = FieldScalar(self, Fraction(0))
            one = FieldScalar(self, Fraction(1))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __call__(self, value) -> "FieldScalar":
        return self.scalar(self._coerce(value))

    def scalar(self, v) -> "FieldScalar":
        """The scalar of a raw value (an int, or over Q a Fraction)."""
        if self.char:
            return self._table[v % self.char]
        return FieldScalar(self, Fraction(v))

    def box(self, values) -> tuple:
        """Scalars of raw values, each reduced once."""
        if self.char:
            p, table = self.char, self._table
            return tuple([table[v % p] for v in values])
        return tuple([FieldScalar(self, Fraction(v)) for v in values])

    def _coerce(self, value):
        if isinstance(value, FieldScalar):
            if value.field != self:
                raise ValueError("scalar from a different field")
            return value.value
        if isinstance(value, str):
            if "/" in value:
                num, den = (int(s) for s in value.split("/"))
                if den == 0:
                    raise ValueError(f"zero denominator in {value!r}")
                value = Fraction(num, den)
            else:
                value = int(value)
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"inexact or unsupported scalar {value!r}: "
                             "give an integer or a fraction 'a/b'")
        if self.char == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise ValueError(
                    f"{value} is not defined in characteristic {self.char}")
            den = pow(value.denominator, -1, self.char)
            return (value.numerator * den) % self.char
        return value % self.char


@dataclass(frozen=True)
class FieldScalar:
    """An exact field element; arithmetic never leaves the field."""

    field: Field
    value: Union[Fraction, int]

    def _check(self, other: "FieldScalar"):
        if not isinstance(other, FieldScalar) or other.field != self.field:
            raise ValueError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return self.field.scalar(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self.field.scalar(self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return self.field.scalar(self.value * other.value)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __neg__(self):
        return self.field.scalar(-self.value)

    def inverse(self) -> "FieldScalar":
        if not self:
            raise ZeroDivisionError("division by zero in exact field")
        if self.field.char == 0:
            return self.field.scalar(1 / self.value)
        return self.field.scalar(pow(self.value, -1, self.field.char))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)

    def serialize(self):
        if isinstance(self.value, Fraction):
            if self.value.denominator == 1:
                return int(self.value)
            return f"{self.value.numerator}/{self.value.denominator}"
        return int(self.value)


QQ = Field(0)


@dataclass(frozen=True)
class VectorSpace:
    """Finite-dimensional space with a fixed ordered basis of opaque labels."""

    field: Field
    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")

    __hash__ = cached_hash

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def make(field: Field, dim: int, prefix: str = "e") -> "VectorSpace":
        return VectorSpace(field, tuple(f"{prefix}{i}" for i in range(dim)))

    def zero_vector(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_vector(self, i: int) -> tuple:
        zeros = self.zero_vector()
        return zeros[:i] + (self.field.one,) + zeros[i + 1:]


Matrix = tuple  # tuple of tuples of FieldScalar


def _check_same_field(a: Field, b: Field):
    if a is not b and a != b:
        raise ValueError("mixed-field arithmetic")


@dataclass(frozen=True)
class LinearMap:
    source: VectorSpace
    target: VectorSpace
    matrix: Matrix

    def __post_init__(self):
        if len(self.matrix) != self.target.dim:
            raise ValueError("matrix row count != target dimension")
        n = self.source.dim
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("matrix column count != source dimension")

    __hash__ = cached_hash

    @property
    def field(self) -> Field:
        return self.source.field

    def __call__(self, vec: Sequence[FieldScalar]) -> tuple:
        if len(vec) != self.source.dim:
            raise ValueError("vector length mismatch")
        field = self.field
        for v in vec:
            if not isinstance(v, FieldScalar):
                raise ValueError("mixed-field arithmetic")
            _check_same_field(v.field, field)
        nz = [(j, v.value) for j, v in enumerate(vec) if v.value]
        return field.box(sum(row[j].value * v for j, v in nz)
                         for row in self.matrix)

    def column(self, c: int) -> tuple:
        """Image of the c-th source basis vector."""
        return tuple([row[c] for row in self.matrix])

    def is_zero(self) -> bool:
        return all(not a for row in self.matrix for a in row)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if other.source != self.source or other.target != self.target:
            raise ValueError("shape mismatch in map addition")
        box = self.field.box
        rows = tuple(box([a.value + b.value for a, b in zip(r1, r2)])
                     for r1, r2 in zip(self.matrix, other.matrix))
        return LinearMap(self.source, self.target, rows)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + scale(self.field(-1), other)


def matrix_from_rows(field: Field, rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(field(x) for x in row) for row in rows)


def make_map(source: VectorSpace, target: VectorSpace, rows) -> LinearMap:
    return LinearMap(source, target, matrix_from_rows(source.field, rows))


def map_from_columns(source: VectorSpace, target: VectorSpace,
                     columns: Sequence[Sequence[FieldScalar]]) -> LinearMap:
    rows = tuple(tuple(columns[c][r] for c in range(source.dim))
                 for r in range(target.dim))
    return LinearMap(source, target, rows)


def identity(space: VectorSpace) -> LinearMap:
    rows = tuple(space.basis_vector(i) for i in range(space.dim))
    return LinearMap(space, space, rows)


def zero_map(source: VectorSpace, target: VectorSpace) -> LinearMap:
    row = (source.field.zero,) * source.dim
    return LinearMap(source, target, (row,) * target.dim)


def scale(a: FieldScalar, f: LinearMap) -> LinearMap:
    _check_same_field(a.field, f.field)
    av = a.value
    if not av:
        return zero_map(f.source, f.target)
    if av == 1:
        return f
    box = f.field.box
    rows = tuple(box([av * x.value for x in row]) for row in f.matrix)
    return LinearMap(f.source, f.target, rows)


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("compose: inner dimensions do not match")
    scalar = f.field.scalar
    zero_row = (f.field.zero,) * g.source.dim
    g_rows = [[(c, b.value) for c, b in enumerate(row) if b.value]
              for row in g.matrix]
    rows = []
    for frow in f.matrix:
        acc = {}  # column -> unreduced sum of products
        for j, a in enumerate(frow):
            a = a.value
            if a:
                for c, b in g_rows[j]:
                    acc[c] = acc.get(c, 0) + a * b
        if acc:
            row = list(zero_row)
            for c, v in acc.items():
                row[c] = scalar(v)
            rows.append(tuple(row))
        else:
            rows.append(zero_row)
    return LinearMap(g.source, f.target, tuple(rows))


def compose_all(*maps: LinearMap) -> LinearMap:
    """Compose left to right in diagram order: compose_all(f, g) = g∘f."""
    out = maps[0]
    for m in maps[1:]:
        out = compose(m, out)
    return out


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product on the chosen bases, row-major pair ordering."""
    field = f.field
    _check_same_field(g.field, field)
    src = tensor_space(f.source, g.source)
    tgt = tensor_space(f.target, g.target)
    if not f.matrix or not g.matrix:
        return zero_map(src, tgt)
    zero_block = (field.zero,) * g.source.dim
    # per row of g, a -> a·row, built once per distinct entry a of f
    g_blocks = [{0: zero_block, 1: grow} for grow in g.matrix]
    rows = []
    for frow in f.matrix:
        f_values = [a.value for a in frow]
        distinct = set(f_values)
        for grow, blocks in zip(g.matrix, g_blocks):
            for a in distinct:
                if a not in blocks:
                    blocks[a] = field.box([a * b.value for b in grow])
            rows.append(tuple(chain.from_iterable(
                map(blocks.__getitem__, f_values))))
    return LinearMap(src, tgt, tuple(rows))


def tensor_space(V: VectorSpace, W: VectorSpace) -> VectorSpace:
    labels = tuple(f"{a}⊗{b}" for a in V.labels for b in W.labels)
    return VectorSpace(V.field, labels)


# ---------------------------------------------------------------------------
# Gaussian elimination core

def _rref(field: Field, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    ch = field.char
    rows = [[x.value for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        prow = rows[piv]
        rows[piv] = rows[r]
        v = prow[c]
        if v != 1:
            if ch:
                inv = pow(v, -1, ch)
                prow = [inv * x % ch for x in prow]
            else:
                inv = 1 / Fraction(v)
                prow = [inv * x for x in prow]
        rows[r] = prow
        # entries left of c vanish on every row from r down
        nz = [(c2, prow[c2]) for c2 in range(c, ncols) if prow[c2]]
        for i, row in enumerate(rows):
            factor = row[c]
            if i == r or not factor:
                continue
            if ch:
                for c2, x in nz:
                    row[c2] = (row[c2] - factor * x) % ch
            else:
                for c2, x in nz:
                    row[c2] = row[c2] - factor * x
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [field.box(row) for row in rows[:r]], pivots


def rank(f: LinearMap) -> int:
    _, pivots = _rref(f.field, f.matrix)
    return len(pivots)


def kernel(f: LinearMap):
    """Kernel with its inclusion map; inclusion columns form a kernel basis."""
    field = f.field
    rows, pivots = _rref(field, f.matrix)
    free = [c for c in range(f.source.dim) if c not in pivots]
    ker = VectorSpace(field, tuple(f"k{i}" for i in range(len(free))))
    columns = []
    for fc in free:
        col = [field.zero] * f.source.dim
        col[fc] = field.one
        for prow, pc in zip(rows, pivots):
            col[pc] = -prow[fc]
        columns.append(tuple(col))
    return ker, map_from_columns(ker, f.source, columns)


def solve_iso(f: LinearMap) -> LinearMap:
    """Two-sided inverse of f, or NotInvertible."""
    if f.source.dim != f.target.dim:
        raise NotInvertible("source and target dimensions differ")
    field = f.field
    n = f.source.dim
    ident = identity(f.target).matrix
    aug = [list(f.matrix[i]) + list(ident[i]) for i in range(n)]
    rows, pivots = _rref(field, aug) if n else ([], [])
    if len(pivots) != n or pivots != list(range(n)):
        raise NotInvertible("rank deficient")
    inv = tuple(tuple(rows[i][n:]) for i in range(n))
    return LinearMap(f.target, f.source, inv)


def quotient_by_rows(space: VectorSpace, rows, prefix: str = "q"):
    """Quotient of `space` by the row span; returns (Q, projection, section).

    The section embeds Q back along the non-pivot coordinates, so
    projection ∘ section = id.
    """
    field = space.field
    rref_rows, pivots = (_rref(field, rows) if rows else ([], []))
    free = [c for c in range(space.dim) if c not in pivots]
    quot = VectorSpace(field, tuple(f"{prefix}{i}" for i in range(len(free))))
    proj_rows = []
    for fc in free:
        row = [field.zero] * space.dim
        row[fc] = field.one
        for prow, pc in zip(rref_rows, pivots):
            row[pc] = -prow[fc]
        proj_rows.append(tuple(row))
    proj = LinearMap(space, quot, tuple(proj_rows))
    sec_cols = [space.basis_vector(fc) for fc in free]
    section = map_from_columns(quot, space, sec_cols)
    return quot, proj, section


def cokernel(f: LinearMap):
    """Cokernel target/im(f) with the projection map."""
    columns = list(zip(*f.matrix)) if f.target.dim and f.source.dim else []
    return quotient_by_rows(f.target, [tuple(c) for c in columns])[:2]
