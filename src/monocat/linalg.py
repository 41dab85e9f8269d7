"""Exact linear algebra over Q and small prime fields.

Scalars are arbitrary-precision rationals (characteristic 0) or canonical
residues (characteristic p, p prime, p <= 97).  All arithmetic is exact;
"the diagram commutes" always means entrywise equality of matrices, never
closeness up to a tolerance.  Inexact input (a float) is rejected, and so
is a fraction whose denominator is not invertible in the field.

A LinearMap stores its entries raw, in ``rows``: canonical residues (ints
in [0, p)) over F_p, ints or Fractions over Q (an int and the equal
Fraction compare and hash alike).  The field is held once, on the map's
spaces, as FLINT's ``nmod_mat`` holds its modulus once per matrix.  The
public constructor ``LinearMap(source, target, matrix)`` coerces every
entry once through the field, so a scalar of another field, a float or a
wrong shape is rejected there.

Raw entries are the only scalars the library computes with.  The exact
kernel (``compose``, ``compose_tensor``, ``tensor``,
``linear_combination``, ``_rref``, ``kernel``,
``solve_iso`` and ``quotient_by_raw_rows``) computes on raw rows, skips
zero operand entries, reduces each output entry once and builds its result
with ``LinearMap.from_rows``, which checks nothing.  It never builds a
``FieldScalar``.  ``compose_tensor(P, f, g)`` is P∘(f⊗g) without the
Kronecker product f⊗g: the nonzeros of each row of f⊗g come straight from
those of f and g (Van Loan, *The ubiquitous Kronecker product*, 2000).
One helper, ``_kron_nz``, lists them; ``tensor`` writes the same list out
densely.

A space is its shape: two VectorSpaces are equal, and hash alike, when
their field and ``shape`` are, the flat tuple of factor dimensions of a
tensor space and (dim,) of any other.  So (V⊗W)⊗Z equals V⊗(W⊗Z), and
V₃⊗V₂ is neither V₂⊗V₃ nor a plain 6-dimensional space.  Basis labels
are kept only where they are given, and are never compared;
``tensor_space``, ``kernel`` and ``quotient_by_raw_rows`` build spaces
without them.  ``tensor_space(V, W)`` is built once per shape of W and
kept on V.

A coordinate inclusion sends source basis vector c to target basis vector
``cols[c]`` with coefficient 1, the ``cols`` all distinct.  A LinearMap
known to be one keeps that tuple in its ``cols`` slot; any other map
keeps None.  The flag is sound, not complete.  It is set by

- ``identity(V)``, whose rows and cols are built once and kept on V,
  like ``tensor_space``;
- the public constructor, when the coerced table is injective 0/1
  column-monomial (so a given action e0 = id is flagged);
- ``quotient_by_raw_rows`` on its section, and on its projection when
  there are no relations;
- ``compose``, ``tensor`` and ``solve_iso`` of inclusions, and
  ``linear_combination`` of one coefficient-1 term;
- the gather of columns that ``compose`` and ``compose_tensor`` make for
  an inclusion on the right, when the gathered columns are an inclusion,
  whether or not the map they come from is one (a descended map that
  only moves coordinates).

It is read, never multiplied: ``compose`` with an identity returns the
other operand, with an inclusion on the right gathers columns and with
one on the left scatters rows; ``compose_tensor`` of two inclusions
gathers columns of P, and is P for id⊗id; ``tensor`` of two inclusions
is index arithmetic; ``solve_iso`` of one is the inverse permutation.
A map is an identity only when its source is its target and ``cols`` is
0…n−1: a permutation of V is an inclusion, not the identity.  Sparse
codes apply a permutation as an index vector in the same way (Davis,
*Direct Methods for Sparse Linear Systems*, 2006).  ``cols`` is not part
of equality or hash.

``FieldScalar`` is the boxed view of one entry, with no arithmetic of
its own: ``LinearMap.matrix`` boxes the rows on first read and keeps the
result, and calling a field coerces one value and boxes it.  Scalars of
F_p are interned: the field builds its p canonical ``FieldScalar``s once,
and every boxed scalar in characteristic p is one of them.  Rationals are
boxed fresh.

Matrix convention: a LinearMap f has ``rows[r][c]`` = coefficient of the
r-th target basis vector in the image of the c-th source basis vector, so
``compose(f, g)`` multiplies ``f.rows @ g.rows``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence, Union

_SMALL_PRIMES = frozenset(
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
     53, 59, 61, 67, 71, 73, 79, 83, 89, 97])

_INTERNED: dict = {}  # p -> the p scalars of F_p, indexed by residue


class LinAlgError(Exception):
    pass


class NotInvertible(LinAlgError):
    """Raised by solve_iso when no two-sided inverse exists."""


_set = object.__setattr__


def cached_hash(self) -> int:
    """Hash of a frozen dataclass's compared fields, computed once per
    instance.

    Assigned as ``__hash__`` in the class body; equality stays the
    dataclass's structural ``__eq__``, which skips the same fields.  The
    names of those fields are read once per class and kept on it.
    """
    try:
        return self._hash
    except AttributeError:
        cls = type(self)
        names = cls.__dict__.get("_hashed_fields")
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(cls)
                          if f.compare)
            cls._hashed_fields = names
        h = hash(tuple([getattr(self, n) for n in names]))
        _set(self, "_hash", h)
        return h


@dataclass(frozen=True)
class Field:
    """Base field: Q (char 0) or F_p for a prime p <= 97.

    Calling the field coerces a value (see ``_coerce``) and boxes it.
    """

    char: int = 0

    def __post_init__(self):
        if isinstance(self.char, bool) or not isinstance(self.char, int):
            raise ValueError(f"char: expected an integer, got {self.char!r}")
        if self.char != 0 and self.char not in _SMALL_PRIMES:
            raise ValueError(f"unsupported characteristic {self.char}")
        table = None
        if self.char:
            table = _INTERNED.get(self.char)
            if table is None:
                table = tuple(FieldScalar(self, v) for v in range(self.char))
                _INTERNED[self.char] = table
        object.__setattr__(self, "_table", table)

    def __call__(self, value) -> "FieldScalar":
        return self.box((self._coerce(value),))[0]

    def box(self, values) -> tuple:
        """Scalars of raw values, each reduced once."""
        if self.char:
            p, table = self.char, self._table
            return tuple([table[v % p] for v in values])
        return tuple([FieldScalar(self, Fraction(v)) for v in values])

    def _coerce(self, value):
        """The raw entry of ``value``: an int, a Fraction, a string "a"
        or "a/b", or a FieldScalar of this field."""
        if isinstance(value, FieldScalar):
            if value.field is not self and value.field != self:
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
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
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
    """One entry boxed with its field: the view ``LinearMap.matrix`` gives.
    It carries no arithmetic; the kernel computes on raw entries."""

    field: Field
    value: Union[Fraction, int]

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)

    def serialize(self):
        return serialize_raw(self.value)


QQ = Field(0)


def _string(value, what: str) -> str:
    """``value`` when it is a string, else ValueError naming ``what``: the
    names and labels a fixture gives are strings."""
    if not isinstance(value, str):
        raise ValueError(f"{what}: expected a string, got {value!r}")
    return value


@dataclass(frozen=True)
class VectorSpace:
    """Finite-dimensional space with a fixed ordered basis.

    Equal to another, and hashed alike, when field and ``shape`` are: the
    flat tuple of factor dimensions of a ``tensor_space`` (which is keyed
    by shape), (dim,) of any other space.  ``labels``, the distinct basis
    names (strings) of a space given by them, are never compared; a space
    built from its shape alone has None.
    """

    field: Field
    labels: Optional[tuple] = dataclasses.field(default=None, compare=False)
    shape: tuple = None

    def __post_init__(self):
        if self.shape is None:
            for label in self.labels:
                _string(label, "basis label")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("basis labels must be distinct")
            _set(self, "shape", (len(self.labels),))
        _set(self, "dim", prod(self.shape))

    __hash__ = cached_hash


Matrix = tuple  # tuple of row tuples


def serialize_raw(v):
    """A raw scalar as JSON: an int, or "a/b" for a non-integral rational."""
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return int(v)


def _check_same_field(a: Field, b: Field):
    if a is not b and a != b:
        raise ValueError("mixed-field arithmetic")


class LinearMap:
    """A linear map between spaces with chosen bases, immutable.

    ``rows`` holds the raw entries; ``matrix`` is the same table boxed as
    ``FieldScalar``s, built on first read.  ``cols`` is the coordinate
    inclusion the rows are, when known, else None.
    """

    __slots__ = ("source", "target", "rows", "cols", "_matrix", "_hash")

    def __init__(self, source: VectorSpace, target: VectorSpace, matrix):
        coerce = source.field._coerce
        rows = tuple([tuple([coerce(a) for a in row]) for row in matrix])
        if len(rows) != target.dim:
            raise ValueError("matrix row count != target dimension")
        n = source.dim
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix column count != source dimension")
        _set_source(self, source)
        _set_target(self, target)
        _set_rows(self, rows)
        _set_cols(self, _inclusion_cols(rows, n))

    @classmethod
    def from_rows(cls, source: VectorSpace, target: VectorSpace,
                  rows: tuple, cols=None) -> "LinearMap":
        """The map whose raw entries are ``rows``, a tuple of row tuples,
        taken as given: canonical entries, the right shape and, when
        ``cols`` is given, that the rows are that inclusion are the
        caller's guarantee."""
        self = object.__new__(cls)
        _set_source(self, source)
        _set_target(self, target)
        _set_rows(self, rows)
        _set_cols(self, cols)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LinearMap is immutable")

    @property
    def matrix(self) -> Matrix:
        """The entries as FieldScalars, boxed on first read and kept."""
        try:
            return self._matrix
        except AttributeError:
            box = self.source.field.box
            matrix = tuple([box(row) for row in self.rows])
            _set(self, "_matrix", matrix)
            return matrix

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.rows == other.rows and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.source, self.target, self.rows))
            _set(self, "_hash", h)
            return h

    def __repr__(self):
        return f"LinearMap({self.source!r}, {self.target!r}, {self.rows!r})"

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
        return field.box(sum(row[j] * v for j, v in nz) for row in self.rows)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)


# the slots' own setters: the fastest way past the immutable __setattr__
_set_source = LinearMap.source.__set__
_set_target = LinearMap.target.__set__
_set_rows = LinearMap.rows.__set__
_set_cols = LinearMap.cols.__set__


def _inclusion_cols(rows, n: int):
    """The cols of raw ``rows`` with n columns when they are an injective
    0/1 column-monomial table, else None."""
    cols = [None] * n
    for r, row in enumerate(rows):
        nz = [c for c, a in enumerate(row) if a]
        if nz:
            c = nz[0]
            if len(nz) > 1 or row[c] != 1 or cols[c] is not None:
                return None
            cols[c] = r
    if None in cols:
        return None
    return tuple(cols)


def _inclusion_rows(cols, nrows: int) -> tuple:
    """The raw rows of the inclusion ``cols`` into nrows coordinates."""
    zero = (0,) * len(cols)
    rows = [zero] * nrows
    for c, r in enumerate(cols):
        rows[r] = zero[:c] + (1,) + zero[c + 1:]
    return tuple(rows)


def _gathered(source: VectorSpace, f: LinearMap, idx) -> LinearMap:
    """f after the inclusion ``idx`` of ``source``: the columns idx of f,
    in that order; an inclusion when f is one, or when those columns are
    one."""
    if f.cols is None:
        rows = tuple([tuple([row[c] for c in idx]) for row in f.rows])
        return LinearMap.from_rows(source, f.target, rows,
                                   _inclusion_cols(rows, len(idx)))
    cols = tuple([f.cols[c] for c in idx])
    return LinearMap.from_rows(source, f.target,
                               _inclusion_rows(cols, f.target.dim), cols)


def make_map(source: VectorSpace, target: VectorSpace, rows) -> LinearMap:
    return LinearMap(source, target, rows)


def _identity_table(space: VectorSpace) -> tuple:
    """(rows, cols) of the identity of ``space``, built once and kept on
    it; neither refers back to the space."""
    try:
        return space._identity
    except AttributeError:
        cols = tuple(range(space.dim))
        table = (_inclusion_rows(cols, space.dim), cols)
        _set(space, "_identity", table)
        return table


def identity(space: VectorSpace) -> LinearMap:
    return LinearMap.from_rows(space, space, *_identity_table(space))


def is_identity(f: LinearMap) -> bool:
    """True when f is known to be an identity: its source is its target
    and it is the inclusion 0…n−1 (a permutation is not)."""
    cols = f.cols
    if cols is None or f.source is not f.target:
        return False
    ident = _identity_table(f.source)[1]
    return cols is ident or cols == ident


def zero_map(source: VectorSpace, target: VectorSpace) -> LinearMap:
    return LinearMap.from_rows(source, target,
                               ((0,) * source.dim,) * target.dim)


def _columns_to_rows(columns, nrows: int) -> tuple:
    return tuple(zip(*columns)) if columns else ((),) * nrows


def transpose(f: LinearMap) -> LinearMap:
    """The transposed table, as a map f.target -> f.source."""
    return LinearMap.from_rows(f.target, f.source,
                               _columns_to_rows(f.rows, f.source.dim))


def linear_combination(source: VectorSpace, target: VectorSpace,
                       terms) -> LinearMap:
    """Σ c·f over the pairs (c, f) of ``terms``, c a raw scalar and f a map
    source -> target, in one pass that reduces each entry once; a lone
    term with coefficient 1 is f itself when source and target are f's
    own, else f's rows and cols as they are."""
    terms = [(c, f) for c, f in terms if c]
    if len(terms) == 1 and terms[0][0] == 1:
        f = terms[0][1]
        if f.source is source and f.target is target:
            return f
        return LinearMap.from_rows(source, target, f.rows, f.cols)
    if not terms:
        return zero_map(source, target)
    rows = [(0,) * source.dim] * target.dim
    for c, f in terms:
        rows = [[x + c * a for x, a in zip(row, frow)]
                for row, frow in zip(rows, f.rows)]
    p = source.field.char
    if p:
        rows = [[x % p for x in row] for row in rows]
    return LinearMap.from_rows(source, target,
                               tuple([tuple(row) for row in rows]))


def _mul_rows(rows, right_nz, k: int, p: int) -> tuple:
    """Raw rows of A·B, where A has the raw ``rows`` and the k-column
    matrix B is given by the nonzeros (c, b) of each of its rows; each
    output entry is summed unreduced and reduced once."""
    zero_row = (0,) * k
    out = []
    for arow in rows:
        row = None  # unreduced sums of products, once one is nonzero
        for j, a in enumerate(arow):
            if a and right_nz[j]:
                if row is None:
                    row = [0] * k
                for c, b in right_nz[j]:
                    row[c] += a * b
        if row is None:
            out.append(zero_row)
        elif p:
            out.append(tuple([v % p for v in row]))
        else:
            out.append(tuple(row))
    return tuple(out)


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g.  An identity operand gives the other one back; an
    inclusion g gathers columns of f, an inclusion f scatters rows of g."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("compose: inner dimensions do not match")
    if is_identity(g):
        return f
    if is_identity(f):
        return g
    if g.cols is not None:
        return _gathered(g.source, f, g.cols)
    if f.cols is not None:
        zero = (0,) * g.source.dim
        rows = [zero] * f.target.dim
        for j, r in enumerate(f.cols):
            rows[r] = g.rows[j]
        return LinearMap.from_rows(g.source, f.target, tuple(rows))
    g_nz = [[(c, b) for c, b in enumerate(row) if b] for row in g.rows]
    return LinearMap.from_rows(g.source, f.target, _mul_rows(
        f.rows, g_nz, g.source.dim, f.field.char))


def _kron_nz(f: LinearMap, g: LinearMap) -> list:
    """The nonzeros (c, v) of each row of f⊗g, row-major, v unreduced:
    those of row (b, d) are the products of the nonzeros of row b of f
    and row d of g (Van Loan 2000), so no two share a column."""
    k = g.source.dim
    f_nz = [[(a * k, x) for a, x in enumerate(row) if x] for row in f.rows]
    g_nz = [[(c, y) for c, y in enumerate(row) if y] for row in g.rows]
    return [[(a + c, x * y) for a, x in frow for c, y in grow]
            for frow in f_nz for grow in g_nz]


def compose_tensor(P: LinearMap, f: LinearMap, g: LinearMap) -> LinearMap:
    """P∘(f⊗g), never forming f⊗g: ``_mul_rows`` reads the nonzeros of
    f⊗g from ``_kron_nz``.  For two inclusions it gathers columns of P,
    and for id⊗id it is P."""
    _check_same_field(g.field, f.field)
    inner = tensor_space(f.target, g.target)
    if P.source is not inner and P.source != inner:
        raise ValueError("compose_tensor: P.source is not f.target ⊗ "
                         "g.target")
    if f.cols is not None and g.cols is not None:
        if is_identity(f) and is_identity(g):
            return P
        n = g.target.dim
        return _gathered(tensor_space(f.source, g.source), P,
                         [a * n + b for a in f.cols for b in g.cols])
    return LinearMap.from_rows(tensor_space(f.source, g.source), P.target,
                               _mul_rows(P.rows, _kron_nz(f, g),
                                         f.source.dim * g.source.dim,
                                         P.field.char))


def compose_all(*maps: LinearMap) -> LinearMap:
    """Compose left to right in diagram order: compose_all(f, g) = g∘f."""
    out = maps[0]
    for m in maps[1:]:
        out = compose(m, out)
    return out


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product on the chosen bases, row-major pair ordering:
    the nonzeros ``_kron_nz`` lists, written out densely; for two
    inclusions, index arithmetic."""
    field = f.field
    _check_same_field(g.field, field)
    source = tensor_space(f.source, g.source)
    target = tensor_space(f.target, g.target)
    if f.cols is not None and g.cols is not None:
        n = g.target.dim
        cols = tuple([a * n + b for a in f.cols for b in g.cols])
        return LinearMap.from_rows(source, target,
                                   _inclusion_rows(cols, target.dim), cols)
    p = field.char
    rows = []
    for nz in _kron_nz(f, g):
        row = [0] * source.dim
        for c, v in nz:
            row[c] = v % p if p else v
        rows.append(tuple(row))
    return LinearMap.from_rows(source, target, tuple(rows))


def tensor_space(V: VectorSpace, W: VectorSpace) -> VectorSpace:
    """V ⊗ W, row-major, of shape V.shape + W.shape.  Built once per shape
    of W and kept in a dict on V, so it is freed with V, and V with any W
    of one shape gives the same object."""
    try:
        cache = V._tensors
    except AttributeError:
        cache = {}
        _set(V, "_tensors", cache)
    out = cache.get(W.shape)
    if out is None:
        out = cache[W.shape] = VectorSpace(V.field, shape=V.shape + W.shape)
    return out


# ---------------------------------------------------------------------------
# Gaussian elimination core

def _rref(field: Field, rows):
    """Reduced row echelon form of raw rows; returns (rows, pivot column
    list), the rows raw tuples."""
    ch = field.char
    rows = [list(r) for r in rows]
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
    return [tuple(row) for row in rows[:r]], pivots


def _null_basis(field: Field, rref_rows, pivots, free) -> list:
    """Per free column c of an RREF, the null vector with 1 at c and
    −row[c] at each pivot column."""
    p = field.char
    n = len(pivots) + len(free)
    out = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for prow, pc in zip(rref_rows, pivots):
            v[pc] = -prow[fc] % p if p else -prow[fc]
        out.append(tuple(v))
    return out


def rank(f: LinearMap) -> int:
    _, pivots = _rref(f.field, f.rows)
    return len(pivots)


def kernel(f: LinearMap):
    """Kernel with its inclusion map; inclusion columns form a kernel basis."""
    field = f.field
    rows, pivots = _rref(field, f.rows)
    free = [c for c in range(f.source.dim) if c not in pivots]
    ker = VectorSpace(field, shape=(len(free),))
    columns = _null_basis(field, rows, pivots, free)
    return ker, LinearMap.from_rows(ker, f.source,
                                    _columns_to_rows(columns, f.source.dim))


def solve_iso(f: LinearMap) -> LinearMap:
    """Two-sided inverse of f, or NotInvertible; a square inclusion's is
    the inverse permutation."""
    if f.source.dim != f.target.dim:
        raise NotInvertible("source and target dimensions differ")
    n = f.source.dim
    if f.cols is not None:
        inverse = [0] * n
        for c, r in enumerate(f.cols):
            inverse[r] = c
        inverse = tuple(inverse)
        return LinearMap.from_rows(f.target, f.source,
                                   _inclusion_rows(inverse, n), inverse)
    unit = (0,) * n
    aug = [row + unit[:i] + (1,) + unit[i + 1:]
           for i, row in enumerate(f.rows)]
    rows, pivots = _rref(f.field, aug) if n else ([], [])
    if pivots != list(range(n)):
        raise NotInvertible("rank deficient")
    return LinearMap.from_rows(f.target, f.source,
                               tuple([row[n:] for row in rows]))


def quotient_by_raw_rows(space: VectorSpace, rows):
    """Quotient of `space` by the span of raw rows; returns (Q, projection,
    section).

    The section embeds Q back along the non-pivot coordinates, so
    projection ∘ section = id.
    """
    field = space.field
    rref_rows, pivots = _rref(field, rows) if rows else ([], [])
    free = [c for c in range(space.dim) if c not in pivots]
    quot = VectorSpace(field, shape=(len(free),))
    cols = tuple(free)
    proj = LinearMap.from_rows(
        space, quot, tuple(_null_basis(field, rref_rows, pivots, free)),
        None if pivots else cols)
    return quot, proj, LinearMap.from_rows(
        quot, space, _inclusion_rows(cols, space.dim), cols)
