"""Fusion data and its block-matrix embedding.

A fusion datum records simple labels, non-negative structure constants
c[i,k->j], a duality involution, and the K-dimension r_i of each simple's
endomorphism skew-field.  Objects embed as integer matrices of block
dimensions; the tensor product of images is matrix multiplication (with an
r_k contraction when endomorphism fields are larger than K) and duals are
transposes.
"""

from __future__ import annotations

from operator import mul
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple


class FusionError(Exception):
    pass


class UnknownSimple(FusionError):
    pass


class DivisibilityError(FusionError):
    pass


class InternalMismatch(FusionError):
    """The two End-dimension computations disagree (broken reciprocity)."""


class ZeroObject(FusionError):
    pass


@dataclass(frozen=True)
class FusionData:
    """Based ring data of a semisimple monoidal category with simple unit."""

    simples: tuple            # ordered labels
    unit: str
    mult: Mapping[Tuple[str, str, str], int]  # (i, k, j) -> c_{ik}^j
    dual: Mapping[str, str]
    endo_dim: Mapping[str, int]
    name: str = "fusion"

    def c(self, i: str, k: str, j: str) -> int:
        return self.mult.get((i, k, j), 0)

    def r(self, i: str) -> int:
        return self.endo_dim.get(i, 1)

    def index(self, label: str) -> int:
        try:
            return self.simples.index(label)
        except ValueError:
            raise UnknownSimple(
                f"unknown simple object {label!r}; simples are "
                f"{', '.join(self.simples)}") from None

    # ------------------------------------------------------------------

    def validate(self) -> "ValidationReport":
        """Exhaustively check unit laws, associativity, reciprocity,
        unit simplicity, and row/column finiteness."""
        failures: List[dict] = []
        labels = self.simples
        if self.unit not in labels:
            failures.append({"check": "unit-membership", "witness": self.unit})
            return ValidationReport(self.name, tuple(failures))
        for lab, dl in self.dual.items():
            if lab not in labels or dl not in labels:
                failures.append({"check": "dual-membership", "witness": lab})
        for lab in labels:
            if self.dual.get(self.dual.get(lab, lab), None) != lab:
                failures.append({"check": "dual-involution", "witness": lab})
        for (i, k, j), c in self.mult.items():
            if c < 0 or i not in labels or k not in labels or j not in labels:
                failures.append({"check": "multiplicity-domain",
                                 "witness": [i, k, j, c]})
        if self.r(self.unit) != 1:
            failures.append({"check": "unit-simplicity",
                             "witness": self.r(self.unit)})
        for lab in labels:
            if self.r(lab) < 1:
                failures.append({"check": "endo-dim-positive", "witness": lab})
        e = self.unit
        for k in labels:
            for j in labels:
                want = 1 if j == k else 0
                if self.c(e, k, j) != want:
                    failures.append({"check": "left-unit-law",
                                     "witness": [e, k, j, self.c(e, k, j)]})
                if self.c(k, e, j) != want:
                    failures.append({"check": "right-unit-law",
                                     "witness": [k, e, j, self.c(k, e, j)]})
        # dense integer table for the O(n^5) loops
        n = len(labels)
        rng = range(n)
        idx = {lab: t for t, lab in enumerate(labels)}
        C = [[[0] * n for _ in rng] for _ in rng]
        for (i, k, j), c in self.mult.items():
            if i in idx and k in idx and j in idx and c:
                C[idx[i]][idx[k]][idx[j]] = c
        # columns over the summation index m: C[m][d][j] and C[a][m][j]
        outer = [[[C[m][d][j] for m in rng] for j in rng] for d in rng]
        inner = [[[C[a][m][j] for m in rng] for j in rng] for a in rng]
        for a in rng:
            Ca_j = inner[a]
            for b in rng:
                Cab = C[a][b]
                for d in rng:
                    Cbd, Cd_j = C[b][d], outer[d]
                    for j in rng:
                        lhs = sum(map(mul, Cab, Cd_j[j]))
                        rhs = sum(map(mul, Cbd, Ca_j[j]))
                        if lhs != rhs:
                            failures.append({
                                "check": "associativity",
                                "witness": [labels[a], labels[b], labels[d],
                                            labels[j], lhs, rhs]})
        rvec = [self.r(lab) for lab in labels]
        # a dual pointing outside the label set was already reported above
        dvec = [idx.get(self.dual.get(lab, lab), -1) for lab in labels]
        for a in rng:
            if dvec[a] < 0:
                continue
            for b in rng:
                for j in rng:
                    lhs = C[a][b][j] * rvec[j]
                    rhs = C[dvec[a]][j][b] * rvec[b]
                    if lhs != rhs:
                        failures.append({
                            "check": "frobenius-reciprocity",
                            "witness": [labels[a], labels[b], labels[j],
                                        lhs, rhs]})
        # finiteness is automatic on a finite index set; still record support
        return ValidationReport(self.name, tuple(failures))


@dataclass(frozen=True)
class ValidationReport:
    name: str
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"fusion": self.name, "ok": self.ok,
                "failures": [dict(f) for f in self.failures]}


# ---------------------------------------------------------------------------
# Objects: non-negative multiplicity vectors over the simples

@dataclass(frozen=True)
class ObjectExpr:
    """Direct sum of simples with non-negative multiplicities."""

    mult: Mapping[str, int]

    def m(self, label: str) -> int:
        return self.mult.get(label, 0)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.mult.values())

    def __add__(self, other: "ObjectExpr") -> "ObjectExpr":
        keys = set(self.mult) | set(other.mult)
        return ObjectExpr({k: self.m(k) + other.m(k) for k in keys})

    @staticmethod
    def simple(label: str) -> "ObjectExpr":
        return ObjectExpr({label: 1})

    @staticmethod
    def zero() -> "ObjectExpr":
        return ObjectExpr({})


def fuse(fd: FusionData, X: ObjectExpr, Y: ObjectExpr) -> ObjectExpr:
    """Expand X ⊙ Y through the fusion coefficients."""
    out: Dict[str, int] = {}
    for i, mi in X.mult.items():
        if mi == 0:
            continue
        fd.index(i)
        for k, mk in Y.mult.items():
            if mk == 0:
                continue
            for j in fd.simples:
                c = fd.c(i, k, j)
                if c:
                    out[j] = out.get(j, 0) + mi * mk * c
    return ObjectExpr(out)


def fuse_power(fd: FusionData, X: ObjectExpr, n: int) -> ObjectExpr:
    """Left-nested n-th tensor power; n >= 1."""
    if n < 1:
        raise ValueError("power must be >= 1")
    acc = X
    for _ in range(n - 1):
        acc = fuse(fd, acc, X)
    return acc


def dual_object(fd: FusionData, X: ObjectExpr) -> ObjectExpr:
    return ObjectExpr({fd.dual[i]: m for i, m in X.mult.items() if m})


# ---------------------------------------------------------------------------
# Block matrices

@dataclass(frozen=True)
class BlockMatrix:
    """Matrix of K-dimensions of Hom blocks, with endo-field annotations."""

    simples: tuple
    entries: Mapping[Tuple[str, str], int]   # (j, k) -> dim over K
    row_fields: Mapping[str, int]            # j -> r_j
    col_fields: Mapping[str, int]            # k -> r_k

    def entry(self, j: str, k: str) -> int:
        return self.entries.get((j, k), 0)

    def check_divisibility(self):
        for (j, _), d in self.entries.items():
            if d % self.row_fields[j] != 0:
                raise DivisibilityError(f"block row {j}: {d} not divisible "
                                        f"by r_j = {self.row_fields[j]}")

    def to_lists(self) -> list:
        return [[self.entry(j, k) for k in self.simples] for j in self.simples]

    def __eq__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (self.simples == other.simples
                and self.to_lists() == other.to_lists()
                and dict(self.row_fields) == dict(other.row_fields)
                and dict(self.col_fields) == dict(other.col_fields))

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        entries = {}
        for j in self.simples:
            for k in self.simples:
                v = self.entry(j, k) + other.entry(j, k)
                if v:
                    entries[(j, k)] = v
        return BlockMatrix(self.simples, entries, self.row_fields,
                           self.col_fields)

    def row_sums(self):
        return {j: sum(self.entry(j, k) for k in self.simples)
                for j in self.simples}

    def col_sums(self):
        return {k: sum(self.entry(j, k) for j in self.simples)
                for k in self.simples}

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries.values())


def embed_object(fd: FusionData, X: ObjectExpr) -> BlockMatrix:
    """Block dimensions of the image of X: entry (j,k) = Σ_i m_i c_{ik}^j r_j."""
    entries: Dict[Tuple[str, str], int] = {}
    for i, mi in X.mult.items():
        if mi == 0:
            continue
        fd.index(i)
        if mi < 0:
            raise FusionError("negative multiplicity")
        for j in fd.simples:
            for k in fd.simples:
                c = fd.c(i, k, j)
                if c:
                    key = (j, k)
                    entries[key] = entries.get(key, 0) + mi * c * fd.r(j)
    fields = {lab: fd.r(lab) for lab in fd.simples}
    return BlockMatrix(fd.simples, entries, fields, fields)


def tensor_images(fd: FusionData, V: BlockMatrix, W: BlockMatrix) -> BlockMatrix:
    """Matrix product with the r_k contraction over the middle index."""
    V.check_divisibility()
    entries: Dict[Tuple[str, str], int] = {}
    for j in fd.simples:
        for n in fd.simples:
            acc = 0
            for k in fd.simples:
                v = V.entry(j, k)
                if v % fd.r(k) != 0:
                    raise DivisibilityError(
                        f"middle block ({j},{k}) = {v} not divisible by "
                        f"r_k = {fd.r(k)}")
                acc += (v // fd.r(k)) * W.entry(k, n)
            if acc:
                entries[(j, n)] = acc
    return BlockMatrix(fd.simples, entries, V.row_fields, W.col_fields)


def dual_image(fd: FusionData, V: BlockMatrix) -> BlockMatrix:
    """Transpose with row/column field annotations swapped."""
    entries = {(k, j): d for (j, k), d in V.entries.items() if d}
    return BlockMatrix(fd.simples, entries, V.col_fields, V.row_fields)


def end_dimension(fd: FusionData, X: ObjectExpr) -> int:
    """dim_K End(X) = Σ m_i² r_i, cross-checked against the unit multiplicity
    of X ⊙ X*."""
    direct = sum(m * m * fd.r(i) for i, m in X.mult.items())
    via_unit = fuse(fd, X, dual_object(fd, X)).m(fd.unit) * fd.r(fd.unit)
    if direct != via_unit:
        raise InternalMismatch(
            f"End-dimension mismatch: Σ m_i² r_i = {direct}, unit "
            f"multiplicity of X⊙X* = {via_unit}")
    return direct


def growth_bound(fd: FusionData, X: ObjectExpr) -> int:
    """Max row/column K-dimension sum of the embedding matrix of X."""
    V = embed_object(fd, X)
    if V.is_zero:
        raise ZeroObject("growth bound of the zero object")
    return max(list(V.row_sums().values()) + list(V.col_sums().values()))


def check_theorem4(fd: FusionData, X: ObjectExpr, n_max: int) -> dict:
    """Exact dim End(X^⊙n) for n = 1..n_max against the d^{2n} bound.

    With varying endomorphism dimensions the bound becomes (d·c²)^{2n}
    where c is the global bound on r_i.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = growth_bound(fd, X)
    c = max(fd.r(i) for i in fd.simples)
    base = d if c == 1 else d * c * c
    rows = []
    ok = True
    power = X
    Vn = embed_object(fd, X)
    V1 = embed_object(fd, X)
    for n in range(1, n_max + 1):
        dim_end = end_dimension(fd, power)
        # independent bookkeeping: the embedding matrix of the power is the
        # matrix power of the embedding (homomorphism property)
        if Vn != embed_object(fd, power):
            raise InternalMismatch(f"embedding of power {n} disagrees")
        bound = base ** (2 * n)
        within = dim_end <= bound
        ok = ok and within
        rows.append({"n": n, "dim_end": dim_end, "bound": bound,
                     "ok": within})
        power = fuse(fd, power, X)
        Vn = tensor_images(fd, Vn, V1)
    return {"fusion": fd.name, "d": d, "c": c, "base": base,
            "rows": rows, "ok": ok}


def check_embedding_homomorphism(fd: FusionData, X: ObjectExpr,
                                 Y: ObjectExpr) -> dict:
    """embed(X⊙Y) = embed(X)·embed(Y), additivity, and faithfulness probe."""
    VX, VY = embed_object(fd, X), embed_object(fd, Y)
    product_ok = embed_object(fd, fuse(fd, X, Y)) == tensor_images(fd, VX, VY)
    sum_ok = embed_object(fd, X + Y) == VX + VY
    dual_ok = (embed_object(fd, dual_object(fd, X)) == dual_image(fd, VX))
    faithful_ok = (VX.is_zero == X.is_zero) and (VY.is_zero == Y.is_zero)
    return {"product": product_ok, "sum": sum_ok, "dual": dual_ok,
            "faithful": faithful_ok,
            "ok": product_ok and sum_ok and dual_ok and faithful_ok}


# ---------------------------------------------------------------------------
# Object-expression grammar: labels, +, *, ^n, parentheses (left-nested)

class ExprError(FusionError):
    pass


class _Parser:
    def __init__(self, fd: FusionData, text: str):
        self.fd = fd
        self.tokens = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+*^()":
                tokens.append(ch)
                i += 1
            elif ch.isalnum() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise ExprError(f"unexpected character {ch!r}")
        return tokens

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> ObjectExpr:
        expr = self.sum_expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input at {self.peek()!r}")
        return expr

    def sum_expr(self) -> ObjectExpr:
        acc = self.product_expr()
        while self.peek() == "+":
            self.take()
            acc = acc + self.product_expr()
        return acc

    def product_expr(self) -> ObjectExpr:
        acc = self.power_expr()
        while self.peek() == "*":
            self.take()
            acc = fuse(self.fd, acc, self.power_expr())
        return acc

    def power_expr(self) -> ObjectExpr:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ExprError("exponent must be a non-negative integer")
            n = int(tok)
            if n == 0:
                base = ObjectExpr.simple(self.fd.unit)
            else:
                base = fuse_power(self.fd, base, n)
        return base

    def atom(self) -> ObjectExpr:
        tok = self.take()
        if tok == "(":
            inner = self.sum_expr()
            if self.take() != ")":
                raise ExprError("unbalanced parenthesis")
            return inner
        if tok is None or tok in "+*^)":
            raise ExprError(f"unexpected token {tok!r}")
        self.fd.index(tok)
        return ObjectExpr.simple(tok)


def parse_object(fd: FusionData, text: str) -> ObjectExpr:
    return _Parser(fd, text).parse()


# ---------------------------------------------------------------------------
# JSON interface

def _count(value) -> int:
    """An int as given; a float or a bool is malformed, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def fusion_from_json(data: dict) -> FusionData:
    simples = tuple(data["simples"])
    mult = {}
    for i, k, j, c in data.get("fusion", []):
        mult[(i, k, j)] = _count(c)
    dual = dict(data.get("dual") or {s: s for s in simples})
    for s in simples:
        dual.setdefault(s, s)
    endo = {s: _count(v) for s, v in (data.get("endo_dim") or {}).items()}
    for s in simples:
        endo.setdefault(s, 1)
    return FusionData(simples, data["unit"], mult, dual, endo,
                      name=data.get("name", "fusion"))
