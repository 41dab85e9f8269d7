import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monocat.algmod import Module, ModuleMap
from monocat.linalg import (Field, FieldScalar, LinearMap, QQ, VectorSpace,
                            _rref, compose, compose_tensor, identity,
                            is_identity, kernel, linear_combination, make_map,
                            NotInvertible, quotient_by_raw_rows, rank,
                            solve_iso, tensor, tensor_space, zero_map)

from helpers import group_algebra, labelled_space

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)
F97 = Field(97)


def _space(field, n):
    return labelled_space(field, n)


class TestCompose:
    def test_identity_neutral(self):
        V = _space(QQ, 3)
        f = make_map(V, V, [[1, 2, 0], [0, 1, 5], [7, 0, 1]])
        assert compose(identity(V), f).matrix == f.matrix
        assert compose(f, identity(V)).matrix == f.matrix

    def test_zero_annihilates(self):
        V = _space(QQ, 2)
        f = make_map(V, V, [[1, 2], [3, 4]])
        assert compose(f, zero_map(V, V)).is_zero()

    def test_mod3_product(self):
        # [[1,2],[0,1]]·[[1,0],[1,1]] = [[0,2],[1,1]] over F_3
        V = _space(F3, 2)
        f = make_map(V, V, [[1, 2], [0, 1]])
        g = make_map(V, V, [[1, 0], [1, 1]])
        expected = make_map(V, V, [[0, 2], [1, 1]])
        assert compose(f, g).matrix == expected.matrix

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(make_map(_space(QQ, 2), _space(QQ, 2), [[1, 0], [0, 1]]),
                    make_map(_space(QQ, 3), _space(QQ, 3),
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestKernel:
    def test_zero_map_full_kernel(self):
        V = _space(QQ, 3)
        ker, incl = kernel(zero_map(V, V))
        assert ker.dim == 3
        assert compose(zero_map(V, V), incl).is_zero()

    def test_identity_trivial_kernel(self):
        V = _space(QQ, 2)
        ker, _ = kernel(identity(V))
        assert ker.dim == 0

    def test_rank_one(self):
        V = _space(QQ, 2)
        f = make_map(V, V, [[1, 2], [2, 4]])
        ker, incl = kernel(f)
        assert ker.dim == 1
        assert compose(f, incl).is_zero()
        assert rank(incl) == 1


class TestSolveIso:
    def test_identity(self):
        V = _space(QQ, 3)
        assert solve_iso(identity(V)).matrix == identity(V).matrix

    def test_involution(self):
        V = _space(QQ, 2)
        swap = make_map(V, V, [[0, 1], [1, 0]])
        assert solve_iso(swap).matrix == swap.matrix

    def test_non_square(self):
        with pytest.raises(NotInvertible):
            solve_iso(make_map(_space(QQ, 3), _space(QQ, 2),
                               [[1, 0, 0], [0, 1, 0]]))

    def test_singular(self):
        V = _space(F3, 2)
        with pytest.raises(NotInvertible):
            solve_iso(make_map(V, V, [[1, 2], [2, 1]]))


class TestTensor:
    def test_identity_tensor(self):
        V, W = _space(QQ, 2), _space(QQ, 3)
        t = tensor(identity(V), identity(W))
        assert t.matrix == identity(t.source).matrix
        assert t.source.dim == 6

    def test_zero_tensor(self):
        V = _space(QQ, 2)
        f = make_map(V, V, [[1, 2], [3, 4]])
        assert tensor(f, zero_map(V, V)).is_zero()


def _random_map_strategy(field, n):
    entry = st.integers(min_value=0, max_value=(field.char or 7) - 1)
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(_random_map_strategy(F5, 2), _random_map_strategy(F5, 2),
       _random_map_strategy(F5, 2), _random_map_strategy(F5, 2))
def test_tensor_interchange(a, b, c, d):
    V = _space(F5, 2)
    f, fp = make_map(V, V, a), make_map(V, V, b)
    g, gp = make_map(V, V, c), make_map(V, V, d)
    lhs = compose(tensor(f, g), tensor(fp, gp))
    rhs = tensor(compose(f, fp), compose(g, gp))
    assert lhs.matrix == rhs.matrix


@settings(max_examples=40, deadline=None)
@given(_random_map_strategy(F3, 3), _random_map_strategy(F3, 3),
       _random_map_strategy(F3, 3))
def test_compose_associative(a, b, c):
    V = _space(F3, 3)
    f, g, h = (make_map(V, V, m) for m in (a, b, c))
    assert compose(compose(f, g), h).matrix == compose(f, compose(g, h)).matrix


@settings(max_examples=40, deadline=None)
@given(_random_map_strategy(F5, 3))
def test_rank_nullity(a):
    V = _space(F5, 3)
    f = make_map(V, V, a)
    ker, _ = kernel(f)
    assert rank(f) + ker.dim == V.dim


def test_quotient_projection_section():
    V = _space(QQ, 4)
    rows = [(1, 1, 0, 0), (0, 0, 1, -1)]
    quot, proj, section = quotient_by_raw_rows(V, rows)
    assert quot.dim == 2
    assert compose(proj, section).matrix == identity(quot).matrix
    for row in rows:
        assert all(not x for x in proj(QQ.box(row)))


# ---------------------------------------------------------------------------
# The kernel against plain dense formulas


def ref_compose(f, g):
    field, ch = f.field, f.field.char
    fraw = [[a.value for a in row] for row in f.matrix]
    graw_t = list(zip(*[[b.value for b in row] for row in g.matrix])) \
        if g.matrix else []
    rows = []
    for frow in fraw:
        row = []
        for c in range(g.source.dim):
            col = graw_t[c] if graw_t else ()
            s = sum(a * b for a, b in zip(frow, col))
            row.append(FieldScalar(field, s % ch if ch else s))
        rows.append(tuple(row))
    return LinearMap(g.source, f.target, tuple(rows))


def ref_tensor(f, g):
    src = tensor_space(f.source, g.source)
    tgt = tensor_space(f.target, g.target)
    field, ch = f.field, f.field.char
    rows = []
    for fr in f.matrix:
        for gr in g.matrix:
            rows.append(tuple(
                FieldScalar(field, (a.value * b.value) % ch if ch
                            else a.value * b.value)
                for a in fr for b in gr))
    if not rows:
        return zero_map(src, tgt)
    return LinearMap(src, tgt, tuple(rows))


def ref_apply(f, vec):
    return f.field.box([sum(a.value * v.value for a, v in zip(row, vec))
                        for row in f.matrix])


def ref_rref(field, rows):
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
        rows[r], rows[piv] = rows[piv], rows[r]
        v = rows[r][c]
        inv = pow(v, ch - 2, ch) if ch else 1 / Fraction(v)
        if ch:
            rows[r] = [(inv * x) % ch for x in rows[r]]
        else:
            rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                if ch:
                    rows[i] = [(x - factor * y) % ch
                               for x, y in zip(rows[i], rows[r])]
                else:
                    rows[i] = [x - factor * y
                               for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(FieldScalar(field, x) for x in row)
            for row in rows[:r]], pivots


KERNEL_FIELDS = (QQ, F2, F3, F97)


def _entry(field):
    if field.char:
        nonzero = st.integers(min_value=1, max_value=field.char - 1)
    else:
        nonzero = st.fractions(min_value=-3, max_value=3,
                               max_denominator=4)
    # mostly zeros, so that zero rows and columns are common
    return st.one_of(st.just(0), st.just(0), nonzero)


@st.composite
def _maps(draw, shapes):
    """A field and matrices of the given shapes (letters name dimensions,
    each 0..4; e.g. ("mn", "nk") draws two composable maps)."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    dims = {}
    for letter in "".join(shapes):
        if letter not in dims:
            dims[letter] = draw(st.integers(min_value=0, max_value=4))
    spaces = {letter: labelled_space(field, d, letter)
              for letter, d in dims.items()}
    maps = []
    for rows_letter, cols_letter in shapes:
        entries = draw(st.lists(
            st.lists(_entry(field), min_size=dims[cols_letter],
                     max_size=dims[cols_letter]),
            min_size=dims[rows_letter], max_size=dims[rows_letter]))
        maps.append(make_map(spaces[cols_letter], spaces[rows_letter],
                             entries))
    return field, maps


def _same(field, got, want):
    """Entry for entry equal; over F_p every entry is the interned one."""
    assert got == want
    for a in got:
        assert a.field == field
        if field.char:
            assert a is field(a.value)


@settings(max_examples=150, deadline=None)
@given(_maps(("mn", "nk")))
def test_compose_matches_dense(drawn):
    field, (f, g) = drawn
    got, want = compose(f, g), ref_compose(f, g)
    assert (got.source, got.target) == (want.source, want.target)
    for got_row, want_row in zip(got.matrix, want.matrix):
        _same(field, got_row, want_row)


@settings(max_examples=150, deadline=None)
@given(_maps(("mn", "kl")))
def test_tensor_matches_dense(drawn):
    field, (f, g) = drawn
    got, want = tensor(f, g), ref_tensor(f, g)
    assert (got.source, got.target) == (want.source, want.target)
    assert len(got.matrix) == len(want.matrix)
    for got_row, want_row in zip(got.matrix, want.matrix):
        _same(field, got_row, want_row)


@settings(max_examples=150, deadline=None)
@given(_maps(("mn",)), st.data())
def test_apply_matches_dense(drawn, data):
    field, (f,) = drawn
    vec = tuple(field(data.draw(_entry(field))) for _ in range(f.source.dim))
    _same(field, f(vec), ref_apply(f, vec))


@settings(max_examples=150, deadline=None)
@given(_maps(("mn",)))
def test_rref_matches_dense(drawn):
    field, (f,) = drawn
    got_rows, got_pivots = _rref(field, f.rows)
    want_rows, want_pivots = ref_rref(field, f.matrix)
    assert got_pivots == want_pivots
    assert len(got_rows) == len(want_rows)
    for got_row, want_row in zip(got_rows, want_rows):
        _same(field, field.box(got_row), want_row)


@settings(max_examples=100, deadline=None)
@given(_maps(("mn", "mn")), st.data())
def test_add_and_scale_match_dense(drawn, data):
    field, (f, g) = drawn
    a = field._coerce(data.draw(_entry(field)))
    total = linear_combination(f.source, f.target, [(1, f), (1, g)])
    for got_row, r1, r2 in zip(total.matrix, f.matrix, g.matrix):
        _same(field, got_row,
              field.box([x.value + y.value for x, y in zip(r1, r2)]))
    scaled = linear_combination(f.source, f.target, [(a, f)])
    for got_row, row in zip(scaled.matrix, f.matrix):
        _same(field, got_row, field.box([a * x.value for x in row]))


def test_zero_dimensional_spaces():
    for field in KERNEL_FIELDS:
        V0, V2 = labelled_space(field, 0), labelled_space(field, 2)
        into, out_of = zero_map(V0, V2), zero_map(V2, V0)
        assert compose(into, out_of).matrix == zero_map(V2, V2).matrix
        assert compose(out_of, into).matrix == ()
        assert tensor(into, identity(V2)).matrix == \
            ref_tensor(into, identity(V2)).matrix
        assert tensor(out_of, identity(V2)).matrix == ()
        assert into(()) == field.box((0, 0))
        assert _rref(field, into.matrix) == ([], [])


# ---------------------------------------------------------------------------
# Exactness at the input boundary


class TestCoercion:
    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            F3(0.5)
        with pytest.raises(ValueError):
            F3(2.7)
        with pytest.raises(ValueError):
            QQ(0.5)

    def test_fraction_with_vanishing_denominator_rejected(self):
        with pytest.raises(ValueError):
            F3("1/3")
        with pytest.raises(ValueError):
            F3(Fraction(2, 3))
        with pytest.raises(ValueError):
            QQ("1/0")

    def test_invertible_denominator(self):
        assert F5("1/3") == F5(2)
        assert F5("1/3") is F5(2)
        assert QQ("1/3").value == Fraction(1, 3)


# ---------------------------------------------------------------------------
# Cached hashes and field checks


def test_separately_built_modules_equal_and_hash_equal():
    def build():
        return Module.regular(group_algebra(Field(3), 2))

    M, N = build(), build()
    assert M is not N and M.action[1] is not N.action[1]
    h = hash(M)  # M caches its hash, N has not computed one yet
    assert M == N and hash(N) == h
    assert {M: "cached"}[N] == "cached"
    assert hash(M) == h
    f = ModuleMap(M, M, identity(M.space))
    g = ModuleMap(N, N, identity(N.space))
    assert hash(f) == hash(g) and f == g
    other = Module(M.name, M.algebra, M.space, "left", M.action)
    assert other != M


def test_mixed_fields_raise():
    V3, V5 = labelled_space(F3, 2), labelled_space(F5, 2)
    f3, f5 = identity(V3), identity(V5)
    with pytest.raises(ValueError):
        compose(f3, f5)
    with pytest.raises(ValueError):
        tensor(f3, f5)
    with pytest.raises(ValueError):
        f3((F5(1), F5(0)))


def test_entries_of_another_field_rejected():
    V3, V5 = labelled_space(F3, 2), labelled_space(F5, 2)
    with pytest.raises(ValueError):
        LinearMap(V3, V3, identity(V5).matrix)


# ---------------------------------------------------------------------------
# Raw rows and the boxed view


def test_kernel_builds_no_field_scalar(monkeypatch):
    cases = []
    for field in KERNEL_FIELDS:
        V = labelled_space(field, 3)
        f = make_map(V, V, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # det 1
        g = make_map(V, V, [[0, 1, 0], [1, 0, 0], [1, 1, 0]])  # rank 2
        cases.append((field, f, g, 2))

    def boxed(*args, **kwargs):
        raise AssertionError("the exact kernel built a FieldScalar")

    # a 3-cycle and an inclusion of a plane: the inclusion paths
    perms = [make_map(f.source, f.source, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
             for _, f, _, _ in cases]
    incls = [make_map(labelled_space(field, 2, "w"), f.source,
                      [[0, 0], [0, 1], [1, 0]])
             for field, f, _, _ in cases]

    monkeypatch.setattr(Field, "box", boxed)
    monkeypatch.setattr(FieldScalar, "__init__", boxed)
    results = [(compose(f, solve_iso(f)), tensor(f, g),
                linear_combination(f.source, f.target, [(1, f), (1, g)]),
                linear_combination(g.source, g.target, [(a, g)]),
                _rref(field, g.rows), kernel(g),
                quotient_by_raw_rows(f.source, [[1, 1, 0]]),
                compose_tensor(tensor(g, f), f, g))
               for field, f, g, a in cases]
    inclusion_results = [
        (compose(f, perm), compose(perm, g), compose(perm, incl),
         compose(identity(f.source), f), solve_iso(perm), tensor(perm, incl),
         compose_tensor(tensor(g, f), perm, incl),
         linear_combination(f.source, f.source, [(1, perm)]))
        for (_, f, g, _), perm, incl in zip(cases, perms, incls)]
    monkeypatch.undo()

    for (_, f, g, _), perm, incl, got in zip(cases, perms, incls,
                                             inclusion_results):
        assert got[5].cols is not None
        assert got == (ref_compose(f, perm), ref_compose(perm, g),
                       ref_compose(perm, incl), f, ref_compose(perm, perm),
                       ref_tensor(perm, incl),
                       ref_compose(tensor(g, f), ref_tensor(perm, incl)),
                       perm)

    for (field, f, g, a), (one, fg, s, ag, (rows, pivots), (ker, incl),
                           (quot, proj, section), pfg) in zip(cases, results):
        assert one == identity(f.source)
        assert fg.matrix == ref_tensor(f, g).matrix
        assert pfg.matrix == ref_compose(ref_tensor(g, f),
                                         ref_tensor(f, g)).matrix
        assert s.matrix == tuple(
            field.box([x.value + y.value for x, y in zip(r1, r2)])
            for r1, r2 in zip(f.matrix, g.matrix))
        assert ag.matrix == tuple(field.box([a * x.value for x in row])
                                  for row in g.matrix)
        assert pivots == [0, 1] and ker.dim == 1
        assert compose(g, incl).is_zero()
        assert quot.dim == 2
        assert compose(proj, section) == identity(quot)


@settings(max_examples=100, deadline=None)
@given(_maps(("mn", "nk")))
def test_boxed_view_round_trips(drawn):
    field, (f, g) = drawn
    for m in (f, compose(f, g)):
        again = LinearMap(m.source, m.target, m.matrix)
        assert again == m and hash(again) == hash(m)
        assert m.matrix is m.matrix
        for boxed_row, raw_row in zip(m.matrix, m.rows):
            assert tuple(a.value for a in boxed_row) == raw_row
            for a in boxed_row:
                assert a.field == field
                if field.char:
                    assert a is field(a.value)
        if not field.char:
            # the integral entries as ints, not Fractions
            ints = tuple(tuple(int(a) if a.denominator == 1 else a
                               for a in row) for row in m.rows)
            as_ints = LinearMap.from_rows(m.source, m.target, ints)
            assert as_ints == m and hash(as_ints) == hash(m)


# ---------------------------------------------------------------------------
# P∘(f⊗g) without the Kronecker product, and the tensor-space cache


@st.composite
def _compose_tensor_cases(draw):
    """A field, f and g (each random, an identity or a zero map, 0..4 on
    either side) and a random P out of f.target ⊗ g.target."""
    field, (f, g) = draw(_maps(("mn", "kl")))
    f, g = [draw(st.sampled_from((
        m, identity(m.source), zero_map(m.source, m.target)))) for m in (f, g)]
    inner = tensor_space(f.target, g.target)
    out = labelled_space(field, draw(st.integers(0, 4)), "p")
    P = make_map(inner, out, draw(st.lists(
        st.lists(_entry(field), min_size=inner.dim, max_size=inner.dim),
        min_size=out.dim, max_size=out.dim)))
    return field, P, f, g


@settings(max_examples=200, deadline=None)
@given(_compose_tensor_cases())
def test_compose_tensor_matches_compose_of_tensor(drawn):
    field, P, f, g = drawn
    got, want = compose_tensor(P, f, g), compose(P, tensor(f, g))
    assert got == want
    assert got.source is tensor_space(f.source, g.source)
    for got_row, want_row in zip(got.matrix, ref_compose(
            P, ref_tensor(f, g)).matrix):
        _same(field, got_row, want_row)


def test_compose_tensor_checks_the_inner_space():
    V2, V3 = labelled_space(F3, 2), labelled_space(F3, 3)
    f, g = identity(V2), identity(V3)
    with pytest.raises(ValueError, match="compose_tensor"):
        compose_tensor(identity(tensor_space(V3, V2)), f, g)
    with pytest.raises(ValueError, match="compose_tensor"):
        compose_tensor(identity(labelled_space(F3, 6)), f, g)
    with pytest.raises(ValueError, match="mixed-field"):
        compose_tensor(identity(tensor_space(V2, V3)), f,
                       identity(labelled_space(F2, 3)))


def test_tensor_space_built_once_and_freed_with_its_left_factor():
    V = VectorSpace(F3, ("a", "b"))
    W = VectorSpace(F3, ("x", "y", "z"))
    VW = tensor_space(V, W)
    assert VW.shape == (2, 3) and VW.dim == 6 and VW.labels is None
    # a space is its shape: other labels give an equal W and the same V⊗W
    W2 = VectorSpace(F3, ("p", "q", "r"))
    assert W2 == W and hash(W2) == hash(W)
    assert tensor_space(V, W2) is VW
    assert tensor_space(W, V) != VW and labelled_space(F3, 6) != VW
    assert tensor_space(V, V) is not VW
    ref = weakref.ref(V)
    gc.disable()
    try:
        del V
        assert ref() is None
    finally:
        gc.enable()


def test_linear_combination_lone_and_empty_terms():
    V, W = labelled_space(F5, 2), labelled_space(F5, 3)
    f = make_map(V, W, [[1, 2], [0, 3], [4, 0]])
    assert linear_combination(V, W, [(1, f)]).rows is f.rows
    assert linear_combination(V, W, [(0, f), (1, f), (0, f)]).rows is f.rows
    assert linear_combination(V, W, [(0, f)]) == zero_map(V, W)
    assert linear_combination(V, W, []) == zero_map(V, W)
    assert linear_combination(V, W, [(2, f)]) == \
        make_map(V, W, [[2, 4], [0, 6], [8, 0]])


# ---------------------------------------------------------------------------
# Coordinate inclusions: identities, permutations and sections


def _assert_cols_agree(m):
    """Where ``cols`` is set, column c of the rows is the unit vector at
    cols[c] and the cols are distinct."""
    if m.cols is None:
        return
    assert len(m.cols) == m.source.dim == len(set(m.cols))
    for c, r in enumerate(m.cols):
        assert [row[c] for row in m.rows] == \
            [int(i == r) for i in range(m.target.dim)]


@st.composite
def _flagged_map(draw, field, source, target):
    """An identity (when source is target), a random inclusion (a
    permutation when the dimensions agree) or a dense random map."""
    kinds = ["dense"]
    if source is target:
        kinds.append("identity")
    if source.dim <= target.dim:
        kinds.append("inclusion")
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return identity(source)
    if kind == "inclusion":
        cols = draw(st.permutations(range(target.dim)))[:source.dim]
        m = make_map(source, target, [[int(cols[c] == r)
                                       for c in range(source.dim)]
                                      for r in range(target.dim)])
        assert m.cols == tuple(cols)
        return m
    return make_map(source, target, draw(st.lists(
        st.lists(_entry(field), min_size=source.dim, max_size=source.dim),
        min_size=target.dim, max_size=target.dim)))


@st.composite
def _mixed_maps(draw, patterns):
    """A field and maps of one of the shape patterns (letters name spaces,
    the same letter the same space object, each 0..4), each drawn by
    ``_flagged_map``."""
    shapes = draw(st.sampled_from(patterns))
    field = draw(st.sampled_from(KERNEL_FIELDS))
    spaces = {}
    for letter in "".join(shapes):
        if letter not in spaces:
            spaces[letter] = labelled_space(
                field, draw(st.integers(min_value=0, max_value=4)), letter)
    return field, [draw(_flagged_map(field, spaces[c], spaces[r]))
                   for r, c in shapes]


@settings(max_examples=150, deadline=None)
@given(_mixed_maps([("mn", "nk"), ("nn", "nn"), ("nn", "nk"),
                    ("mn", "nn"), ("mn", "nm")]))
def test_inclusions_compose_like_dense_maps(drawn):
    field, (f, g) = drawn
    got = compose(f, g)
    assert got == ref_compose(f, g)
    _assert_cols_agree(got)
    for got_row, want_row in zip(got.matrix, ref_compose(f, g).matrix):
        _same(field, got_row, want_row)


@settings(max_examples=150, deadline=None)
@given(_mixed_maps([("mn", "kl"), ("nn", "kk"), ("nn", "kl"), ("mn", "nn")]),
       st.data())
def test_inclusions_tensor_like_dense_maps(drawn, data):
    field, (f, g) = drawn
    got = tensor(f, g)
    assert got == ref_tensor(f, g)
    _assert_cols_agree(got)
    inner = tensor_space(f.target, g.target)
    out = data.draw(st.sampled_from(
        (inner, labelled_space(field, data.draw(st.integers(0, 4)), "p"))))
    P = data.draw(_flagged_map(field, inner, out))
    got = compose_tensor(P, f, g)
    assert got == ref_compose(P, ref_tensor(f, g))
    _assert_cols_agree(got)


@settings(max_examples=150, deadline=None)
@given(_mixed_maps([("nn",), ("mn",)]))
def test_inclusions_invert_like_dense_maps(drawn):
    field, (f,) = drawn
    dense = LinearMap.from_rows(f.source, f.target, f.rows)
    try:
        want = solve_iso(dense)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            solve_iso(f)
        return
    got = solve_iso(f)
    assert got == want
    assert ref_compose(f, got) == identity(f.target)
    assert ref_compose(got, f) == identity(f.source)
    _assert_cols_agree(got)
    if f.cols is not None:
        assert got.cols is not None


def _ref_inclusion_cols(rows, n):
    """The cols of an injective 0/1 column-monomial table, else None."""
    cols = []
    for c in range(n):
        nonzeros = [(r, row[c]) for r, row in enumerate(rows) if row[c]]
        if len(nonzeros) != 1 or nonzeros[0][1] != 1:
            return None
        cols.append(nonzeros[0][0])
    return tuple(cols) if len(set(cols)) == n else None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4),
       st.data())
def test_constructor_flags_exactly_the_inclusions(field, m, n, data):
    entry = st.sampled_from([0, 0, 1, 1, "2", "1/1", field(1)])
    table = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=m, max_size=m))
    f = make_map(labelled_space(field, n), labelled_space(field, m),
                 table)
    assert f.cols == _ref_inclusion_cols(f.rows, n)
    _assert_cols_agree(f)


def test_permutation_is_not_the_identity():
    for field in KERNEL_FIELDS:
        V = labelled_space(field, 3)
        swap = make_map(V, V, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        f = make_map(V, V, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
        assert swap.cols == (1, 0, 2) and not is_identity(swap)
        assert compose(f, swap) == ref_compose(f, swap) != f
        assert compose(swap, f) == ref_compose(swap, f) != f
        P = make_map(tensor_space(V, V), V,
                     [[(r + c) % 2 for c in range(9)] for r in range(3)])
        idV = identity(V)
        assert compose_tensor(P, swap, idV) == \
            ref_compose(P, ref_tensor(swap, idV)) != P
        assert compose_tensor(P, idV, idV) is P
        # the identity table between two distinct, equal spaces is an
        # inclusion, not an identity
        W = labelled_space(field, 3)
        relabel = LinearMap.from_rows(V, W, idV.rows, idV.cols)
        assert W == V and not is_identity(relabel)
        assert compose(relabel, f) == LinearMap.from_rows(V, W, f.rows)
        # the public constructor flags a given identity table, as e0 = id
        given = make_map(V, V, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert is_identity(given)
        assert compose(f, given) is f and compose(given, f) is f


def test_a_gather_that_is_an_inclusion_is_flagged():
    # f is no inclusion, but its columns 1, 0 are one: gathered at them,
    # as ``descend`` gathers a map that only moves coordinates, it comes
    # back flagged; gathered at columns that are none, it does not
    for field in KERNEL_FIELDS:
        V, W = labelled_space(field, 3), labelled_space(field, 2)
        f = make_map(V, W, [[0, 1, 1], [1, 0, 1]])
        first = make_map(W, V, [[1, 0], [0, 1], [0, 0]])
        last = make_map(W, V, [[0, 0], [1, 0], [0, 1]])
        assert f.cols is None and first.cols == (0, 1)
        got = compose(f, first)
        assert got.cols == (1, 0) and got == ref_compose(f, first)
        got = compose(f, last)
        assert got.cols is None and got == ref_compose(f, last)
        P = make_map(tensor_space(W, W), W, [[1, 0, 0, 1], [0, 1, 0, 1]])
        L = labelled_space(field, 1)
        for c, cols in ((0, (0, 1)), (1, None)):
            a = make_map(L, W, [[int(r == c)] for r in range(2)])
            got = compose_tensor(P, a, identity(W))
            assert got.cols == cols
            assert got == ref_compose(P, ref_tensor(a, identity(W)))
            _assert_cols_agree(got)


def test_identity_keeps_no_reference_to_its_space():
    V = VectorSpace(F3, ("a", "b"))
    ref = weakref.ref(V)
    gc.disable()
    try:
        assert identity(V).cols == (0, 1)
        assert compose(identity(V), identity(V)) == identity(V)
        del V
        assert ref() is None
    finally:
        gc.enable()
