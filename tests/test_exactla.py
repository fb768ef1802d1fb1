import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicx
from multicx import exactla
from multicx.derham import FormAlgebra, PolyVector, jacobi_multicomplex
from multicx.errors import NotContained, NotWellDefined, ShapeMismatch
from multicx.exactla import (
    Matrix,
    Subspace,
    _rref,
    accumulate,
    complement,
    induced_subquotient_map,
    kernel_image,
    rank,
    rat,
    solve,
)
from multicx.formats import parse_multicomplex, print_multicomplex
from multicx.generators import generate
from multicx.graded import GradedMap, GradedVectorSpace, lincomb
from multicx.spectral import total_complex
from oracles import column, from_rows, full_space, scanning_rref

# property tests stay deterministic: the same examples on every run
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
POOL = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def rand_matrix(rng, rows, cols, density=0.5):
    ent = []
    pool = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                ent.append((r, c, rng.choice(pool)))
    return Matrix(rows, cols, ent)


def test_matrix_basics():
    m = from_rows([[1, 2], [3, 4]])
    assert m.get(1, 0) == 3
    assert m.mul(Matrix.identity(2)) == m
    assert m.add(m.neg()).is_zero()
    assert m.scale(Fraction(1, 2)).get(0, 1) == 1


def test_matrix_entry_merging_drops_zeros():
    m = Matrix(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, Fraction(1, 3))])
    assert (0, 0) not in m.entries
    assert m.get(1, 1) == Fraction(1, 3)


def test_kernel_image_empty_matrix():
    ker, img = kernel_image(Matrix(0, 0))
    assert ker.dim == 0 and img.dim == 0


def test_kernel_image_identity():
    ker, img = kernel_image(Matrix.identity(3))
    assert ker.dim == 0 and img.dim == 3


def test_kernel_image_rank_one():
    # hand row reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]]; kernel line (2,-1)
    m = from_rows([[1, 2], [2, 4]])
    ker, img = kernel_image(m)
    assert ker.dim == 1 and img.dim == 1
    assert solve(ker.basis, column([2, -1])) is not None
    assert m.mul(ker.basis).is_zero()


def test_kernel_image_dims_and_exactness_random():
    rng = Random(7)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        ker, img = kernel_image(m)
        assert ker.dim + img.dim == m.cols
        assert m.mul(ker.basis).is_zero()
        # every image basis column is solvable as m @ x
        assert solve(m, img.basis) is not None


def test_solve_exact_and_unsolvable():
    a = from_rows([[1, 0], [0, 0]])
    assert solve(a, column([0, 1])) is None
    x = solve(a, column([Fraction(5, 3), 0]))
    assert a.mul(x) == column([Fraction(5, 3), 0])


def test_complement_coordinate_cases():
    e1 = Subspace(2, column([1, 0]))
    full = full_space(2)
    c = complement(e1, full)
    assert c.dim == 1 and solve(c.basis, column([0, 1])) is not None
    assert complement(full, full).dim == 0


def test_complement_greedy_pivot():
    # first standard vector not inside span{(1,1)} is e1
    diag = Subspace(2, column([1, 1]))
    c = complement(diag, full_space(2))
    assert c.basis == column([1, 0])


def test_complement_requires_containment():
    sub = Subspace(2, column([1, 0]))
    other = Subspace(2, column([0, 1]))
    with pytest.raises(NotContained):
        complement(sub, other)


def test_complement_rank_property_random():
    rng = Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        vecs = rand_matrix(rng, n, rng.randint(0, n))
        sub = Subspace.spanned_by(n, vecs)
        c = complement(sub, full_space(n))
        assert rank(sub.basis.hstack(c.basis)) == n
        assert sub.dim + c.dim == n


def test_induced_map_zero_map():
    m = Matrix(2, 2)
    src = (full_space(2), Subspace(2, column([1, 0])))
    dst = (full_space(2), Subspace(2, column([0, 1])))
    out = induced_subquotient_map(m, src, dst)
    assert out.rows == 1 and out.cols == 1 and out.is_zero()


def test_induced_map_zero_denominators_is_restriction():
    m = from_rows([[2, 0], [0, 3]])
    sub = Subspace(2, column([1, 0]))
    out = induced_subquotient_map(m, (sub, Subspace.zero(2)), (sub, Subspace.zero(2)))
    assert out == from_rows([[2]])


def test_induced_map_coset_oracle():
    # m = [[0,1],[0,0]] sends e2 to e1.  Against dst denominator span{e1} the
    # class of e1 dies, so the induced map is zero; against span{e2} the class
    # of e1 is the quotient basis vector and the induced map is [1].  Both
    # expected values computed by solving the coset linear system by hand.
    m = from_rows([[0, 1], [0, 0]])
    src = (full_space(2), Subspace(2, column([1, 0])))
    dst_e1 = (full_space(2), Subspace(2, column([1, 0])))
    dst_e2 = (full_space(2), Subspace(2, column([0, 1])))
    assert induced_subquotient_map(m, src, dst_e1).is_zero()
    assert induced_subquotient_map(m, src, dst_e2) == from_rows([[1]])


def test_induced_map_detects_disrespected_quotient():
    m = from_rows([[0, 0], [1, 0]])  # e1 -> e2
    src = (full_space(2), Subspace(2, column([1, 0])))
    dst = (full_space(2), Subspace(2, column([1, 0])))
    with pytest.raises(NotWellDefined):
        induced_subquotient_map(m, src, dst)


def test_induced_map_commutes_with_projection_random():
    # pick random m and a stable flag pair; compare coordinates of m @ v with
    # the induced matrix applied to the coordinates of v
    rng = Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        num = full_space(n)
        den__vecs = m.mul(rand_matrix(rng, n, rng.randint(0, n)))
        # use an m-stable denominator: span of m-images intersected trivially;
        # simplest stable choice is the zero denominator
        den = Subspace.zero(n)
        out = induced_subquotient_map(m, (num, den), (num, den))
        rep = complement(den, num)
        for j in range(rep.dim):
            v = rep.basis.select_columns([j])
            lhs = m.mul(v)
            coords = solve(den.basis.hstack(rep.basis), lhs)
            got = coords.select_rows(range(den.dim, den.dim + rep.dim))
            assert got == out.select_columns([j])
        assert den__vecs.rows == n  # silence unused warning path


def test_induced_map_with_stable_denominator_commutes():
    # D = im(m^2) is m-stable, so the induced map on full/D is defined; its
    # action must match m followed by reduction to coset coordinates
    rng = Random(29)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = rand_matrix(rng, n, n, density=0.5)
        _, den = kernel_image(m.mul(m))
        num = full_space(n)
        out = induced_subquotient_map(m, (num, den), (num, den))
        rep = complement(den, num)
        frame = den.basis.hstack(rep.basis)
        for j in range(rep.dim):
            coords = solve(frame, m.mul(rep.basis.select_columns([j])))
            reduced = coords.select_rows(range(den.dim, den.dim + rep.dim))
            assert reduced == out.select_columns([j])


def test_subspace_equality():
    a = Subspace(3, column([1, 0, 0]))
    b = Subspace(3, column([2, 0, 0]))
    assert a == b


# ---- property tests against dense and greedy references ----

def dense(m):
    return [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]


def from_dense(rows, cols):
    return Matrix(len(rows), cols, [(r, c, v) for r, row in enumerate(rows)
                                    for c, v in enumerate(row)])


def dense_rows(rows, cols):
    return st.lists(st.lists(st.sampled_from(POOL).map(Fraction), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return from_dense(draw(dense_rows(rows, cols)), cols)


def no_stored_zero(m):
    return all(v != 0 for v in m.entries.values())


def greedy_complement(sub, ambient):
    """The per-column greedy scan complement() used to run: keep each ambient
    basis column that raises the rank of what is kept so far."""
    if not ambient.contains(sub):
        raise NotContained("subspace not inside the ambient subspace")
    current = sub.basis
    r = current.cols
    chosen = []
    for j in range(ambient.basis.cols):
        if r == ambient.dim:
            break
        cand = current.hstack(ambient.basis.select_columns([j]))
        if rank(cand) > r:
            current = cand
            r += 1
            chosen.append(j)
    return Subspace(ambient.ambient_dim, ambient.basis.select_columns(chosen))


@PROPERTY
@given(st.data())
def test_complement_matches_greedy_scan(data):
    n = data.draw(st.integers(1, 5))
    ambient = Subspace.spanned_by(n, data.draw(matrices(rows=n)))
    if data.draw(st.booleans()):
        # a subspace of ambient: images of ambient's basis
        vecs = ambient.basis.mul(data.draw(matrices(rows=ambient.dim)))
    else:
        vecs = data.draw(matrices(rows=n))
    sub = Subspace.spanned_by(n, vecs)
    if ambient.contains(sub):
        got = complement(sub, ambient)
        assert got.basis == greedy_complement(sub, ambient).basis
        assert got.dim + sub.dim == ambient.dim
    else:
        with pytest.raises(NotContained):
            complement(sub, ambient)
        with pytest.raises(NotContained):
            greedy_complement(sub, ambient)


@PROPERTY
@given(st.data())
def test_matrix_arithmetic_matches_dense(data):
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(dense_rows(rows, inner)), data.draw(dense_rows(rows, inner))
    c = data.draw(dense_rows(inner, cols))
    ma, mb, mc = from_dense(a, inner), from_dense(b, inner), from_dense(c, cols)
    assert dense(ma) == a and no_stored_zero(ma)
    total = ma.add(mb)
    assert dense(total) == [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]
    diff = ma.sub(mb)
    assert dense(diff) == [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
    prod = ma.mul(mc)
    assert dense(prod) == [[sum((a[i][j] * c[j][k] for j in range(inner)), Fraction(0))
                            for k in range(cols)] for i in range(rows)]
    assert all(no_stored_zero(m) for m in (total, diff, prod))


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(POOL)),
                max_size=12))
def test_matrix_merges_repeated_entries(triples):
    want = [[Fraction(0)] * 3 for _ in range(3)]
    for r, c, v in triples:
        want[r][c] += v
    m = Matrix(3, 3, triples)
    assert dense(m) == want and no_stored_zero(m)


@PROPERTY
@given(st.dictionaries(st.integers(0, 5), st.sampled_from(POOL[2:]).map(Fraction)),
       st.lists(st.tuples(st.integers(0, 5), st.sampled_from(POOL).map(Fraction)),
                max_size=10),
       st.sampled_from(POOL).map(Fraction))
def test_accumulate_matches_dense(acc, items, a):
    want = [acc.get(k, Fraction(0)) for k in range(6)]
    for k, v in items:
        want[k] += a * v
    out = accumulate(dict(acc), items, a)
    assert [out.get(k, Fraction(0)) for k in range(6)] == want
    assert all(v != 0 for v in out.values())


@PROPERTY
@given(st.data())
def test_lincomb_matches_dense(data):
    dims = {0: data.draw(st.integers(1, 3)), 1: data.draw(st.integers(1, 3))}
    space = GradedVectorSpace(dims)
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        blocks = {k: data.draw(matrices(rows=d, cols=d)) for k, d in dims.items()}
        terms.append((data.draw(st.sampled_from(POOL)), GradedMap(space, space, 0, blocks)))
    out = lincomb(terms)
    for k, d in dims.items():
        want = [[sum((Fraction(a) * f.block(k).get(r, c) for a, f in terms), Fraction(0))
                 for c in range(d)] for r in range(d)]
        assert dense(out.block(k)) == want
        assert no_stored_zero(out.block(k))
    assert all(not m.is_zero() for m in out.blocks.values())


@PROPERTY
@given(st.data())
def test_kernel_image_and_solve_invariants(data):
    m = data.draw(matrices())
    ker, img = kernel_image(m)
    assert m.mul(ker.basis).is_zero()
    assert ker.dim + img.dim == m.cols
    assert img.dim == rank(m)
    x = data.draw(matrices(rows=m.cols, cols=data.draw(st.integers(0, 3))))
    b = m.mul(x)
    y = solve(m, b)
    assert y is not None and m.mul(y) == b


# ---- the indexed elimination kernel against the scanning one it replaced ----

def sparse(draw, rows, cols, density):
    """rows x cols with each entry nonzero with probability about `density`."""
    ent = []
    for r in range(rows):
        for c in range(cols):
            if draw(st.integers(0, 99)) < density:
                ent.append((r, c, draw(st.sampled_from(POOL[2:]))))
    return Matrix(rows, cols, ent)


@st.composite
def elimination_inputs(draw):
    """Empty, all-zero, wide, tall, duplicate-row and fill-in-heavy matrices."""
    kind = draw(st.sampled_from(["empty", "zero", "wide", "tall", "duplicate", "arrow"]))
    if kind == "empty":
        return Matrix(*draw(st.sampled_from([(0, 0), (0, 5), (5, 0)])))
    if kind == "zero":
        return Matrix(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    if kind == "wide":
        return sparse(draw, draw(st.integers(1, 3)), draw(st.integers(5, 12)), 40)
    if kind == "tall":
        return sparse(draw, draw(st.integers(5, 12)), draw(st.integers(1, 3)), 40)
    if kind == "duplicate":
        # rows repeated and rescaled, so whole rows cancel during elimination
        base = sparse(draw, draw(st.integers(1, 4)), draw(st.integers(1, 6)), 50)
        picks = draw(st.lists(st.tuples(st.integers(0, base.rows - 1),
                                        st.sampled_from(POOL[2:])), min_size=1, max_size=8))
        ent = [(k, c, a * v) for k, (r, a) in enumerate(picks)
               for (r2, c), v in base.entries.items() if r2 == r]
        return Matrix(len(picks), base.cols, ent)
    # arrowhead: a dense first row and column on a diagonal; every pivot on
    # the first column fills the other rows in
    n = draw(st.integers(2, 8))
    ent = [(0, c, draw(st.sampled_from(POOL[2:]))) for c in range(n)]
    ent += [(r, 0, draw(st.sampled_from(POOL[2:]))) for r in range(1, n)]
    ent += [(r, r, draw(st.sampled_from(POOL[2:]))) for r in range(1, n)]
    return Matrix(n, n, ent)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(elimination_inputs())
def test_indexed_rref_matches_scanning_rref(m):
    pivots, rows = _rref(m)
    want_pivots, want_rows = scanning_rref(m)
    assert pivots == want_pivots
    # the same entries in the same insertion order, so every matrix built
    # from the rows is byte-identical too
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in want_rows]



# ---- integral entries are ints, and every result is the all-Fraction one ----

def test_rat_keeps_integral_values_as_ints():
    for x, want in [(3, 3), (True, 1), (False, 0), (Fraction(6, 3), 2), ("-6/3", -2),
                    ("4", 4), (Fraction(1, 2), Fraction(1, 2)), ("3/6", Fraction(1, 2))]:
        got = rat(x)
        assert got == want and type(got) is type(want), x
    for bad in (0.5, 2.0, None, [1]):
        with pytest.raises(TypeError):
            rat(bad)
    m = Matrix(2, 2, [(0, 0, Fraction(4, 2)), (1, 1, True)])
    assert [type(v) for v in m.entries.values()] == [int, int]
    assert m.get(0, 1) == 0 and type(m.get(0, 1)) is int


def test_no_true_division_in_the_package():
    # an int / int is a float; a quotient is made as a Fraction instead
    found = []
    for path in sorted(Path(multicx.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found


HALVES = [-2, -1, 1, 2, Fraction(6, 2), Fraction(1, 2), Fraction(-3, 2)]


def sparse_halves(draw, rows, cols):
    """rows x cols, sparse, with integer and half-integer entries."""
    ent = [(r, c, draw(st.sampled_from(HALVES))) for r in range(rows) for c in range(cols)
           if draw(st.integers(0, 99)) < 45]
    return Matrix(rows, cols, ent)


def as_fractions(m):
    """m with every entry held as a Fraction; the constructor would normalise
    the integral ones back to ints, so the entries are set directly."""
    out = Matrix(m.rows, m.cols)
    out.entries.update((k, Fraction(v)) for k, v in m.entries.items())
    return out


def exact_entries(values):
    return all(type(v) in (int, Fraction) for v in values)


@PROPERTY
@given(st.data())
def test_int_entries_give_the_all_fraction_results(data):
    rows, inner, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = sparse_halves(data.draw, rows, inner), sparse_halves(data.draw, rows, inner)
    c = sparse_halves(data.draw, inner, cols)
    # the constructor keeps a Fraction only for the half-integers
    assert all(type(v) is int or v.denominator == 2
               for m in (a, b, c) for v in m.entries.values())
    fa, fb, fc = as_fractions(a), as_fractions(b), as_fractions(c)
    scalar = data.draw(st.sampled_from(HALVES + [0, Fraction(4, 2)]))
    pairs = [(a.mul(c), fa.mul(fc)), (a.add(b), fa.add(fb)),
             (a.scale(scalar), fa.scale(scalar))]
    ker, img = kernel_image(a)
    fker, fimg = kernel_image(fa)
    pairs += [(ker.basis, fker.basis), (img.basis, fimg.basis)]
    rhs = a.mul(c).hstack(b.select_columns([0]))
    x = solve(a, rhs)
    fx = solve(fa, as_fractions(rhs))
    assert (x is None) == (fx is None)
    if x is not None:
        pairs.append((x, fx))
    # a complement of the image of a inside the span of [a | b]
    ambient = Subspace.spanned_by(rows, a.hstack(b))
    fambient = Subspace.spanned_by(rows, fa.hstack(fb))
    pairs.append((complement(img, ambient).basis, complement(fimg, fambient).basis))
    for got, want in pairs:
        assert got == want
        assert exact_entries(got.entries.values())
    assert rank(a) == rank(fa) == img.dim
    pivots, echelon = _rref(a)
    want_pivots, want_rows = scanning_rref(fa)
    assert pivots == want_pivots
    assert [list(r.items()) for r in echelon] == [list(r.items()) for r in want_rows]
    assert all(exact_entries(r.values()) for r in echelon)


# ---- fraction-free elimination: integer rows, one division per pivot row ----

def held_as_is(rows, cols, entries):
    """A rows x cols matrix holding the entries as given: the constructor
    would turn an integral Fraction into an int."""
    m = Matrix(rows, cols)
    m.entries.update(((r, c), v) for r, c, v in entries if v)
    return m


@st.composite
def wide_rationals(draw):
    """Small or up to 2^80 in size; an int, an integral Fraction, or a
    Fraction with a denominator up to 10^6."""
    bound = draw(st.sampled_from([3, 2 ** 80]))
    num = draw(st.integers(-bound, bound).filter(bool))
    kind = draw(st.sampled_from(["int", "integral", "fraction"]))
    if kind == "int":
        return num
    return Fraction(num, 1 if kind == "integral" else draw(st.integers(1, 10 ** 6)))


@st.composite
def fraction_free_inputs(draw):
    """Sparse matrices of wide rationals, with some rows rational
    combinations of earlier ones, so that rows cancel and ranks drop."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    base = [{c: draw(wide_rationals()) for c in range(cols) if draw(st.integers(0, 99)) < 40}
            for _ in range(rows)]
    for k in range(1, rows):
        if draw(st.integers(0, 99)) < 30:
            row = accumulate({}, base[draw(st.integers(0, k - 1))].items(), draw(wide_rationals()))
            base[k] = accumulate(row, base[k].items()) if draw(st.booleans()) else row
    return held_as_is(rows, cols, [(r, c, v) for r, row in enumerate(base)
                                   for c, v in row.items()])


def ints_exactly_when_integral(values):
    return all(type(v) is int if v.denominator == 1 else type(v) is Fraction for v in values)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fraction_free_inputs())
def test_fraction_free_rref_matches_the_fraction_elimination(m):
    pivots, rows = _rref(m)
    rows = list(rows)
    want_pivots, want_rows = scanning_rref(m)
    assert pivots == want_pivots
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in want_rows]
    assert all(ints_exactly_when_integral(r.values()) for r in rows)
    assert all(r[p] == 1 for p, r in zip(pivots, rows))


SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1, ((1, 0, 0), (1, 2)): 1, ((0, 1, 0), (0, 2)): -1})


def count_fractions(monkeypatch):
    """Count the Fractions exactla builds; the stand-in still answers
    isinstance checks as Fraction does, which `rat` makes."""
    built = []

    class Instances(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

    class Counted(metaclass=Instances):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)
    monkeypatch.setattr(exactla, "Fraction", Counted)
    return built


def test_integer_elimination_builds_a_fraction_only_per_proper_entry(monkeypatch):
    # the so3 Poisson total boundaries at trunc 4 and random integer
    # matrices: no Fraction is built but the output's non-integral entries
    a = FormAlgebra(3, 4, weight=True)
    t = total_complex(jacobi_multicomplex(SO3, PolyVector.zero(3), a).multicomplex)
    rng = Random(61)
    cases = [t.boundary(0), t.boundary(1)]
    cases += [Matrix(n, k, [(r, c, rng.randint(-9, 9)) for r in range(n) for c in range(k)
                            if rng.random() < 0.4])
              for n, k in [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)]]
    built = count_fractions(monkeypatch)
    proper_total = 0
    for m in cases:
        assert all(type(v) is int for v in m.entries.values())
        del built[:]
        pivots, rows = _rref(m)
        proper = sum(type(v) is not int for r in rows for v in r.values())
        assert len(built) <= proper
        proper_total += proper
    assert proper_total, "no case has a non-integral RREF entry"


# ---- the trusted constructor: independence by construction ----

def test_caller_supplied_dependent_basis_is_rejected():
    with pytest.raises(ShapeMismatch):
        Subspace(2, from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ShapeMismatch):
        Subspace(3, from_rows([[1, 0], [0, 1]]))


@PROPERTY
@given(st.data())
def test_constructed_bases_are_independent(data):
    m = data.draw(matrices())
    n = m.rows
    ker, img = kernel_image(m)
    vecs = data.draw(matrices(rows=n))
    span = Subspace.spanned_by(n, vecs)
    ambient = Subspace.spanned_by(n, span.basis.hstack(data.draw(matrices(rows=n))))
    # d applied to a complement of its kernel, the image basis of a retract
    preimage = complement(ker, full_space(m.cols))
    subspaces = [ker, img, span, ambient, complement(span, ambient),
                 complement(img, full_space(n)), Subspace.zero(n), full_space(n),
                 Subspace._independent(n, m.mul(preimage.basis))]
    for sub in subspaces:
        assert rank(sub.basis) == sub.basis.cols


# ---- the in-place kernels: product, elimination and constructor ----

MIXED = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]


def mixed_sparse(draw, rows, cols):
    """rows x cols with int and Fraction entries; with values this small,
    many sums in a product cancel."""
    ent = [(r, c, draw(st.sampled_from(MIXED))) for r in range(rows) for c in range(cols)
           if draw(st.integers(0, 99)) < 50]
    return Matrix(rows, cols, ent)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_mul_matches_the_dense_product(data):
    rows, inner, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = mixed_sparse(data.draw, rows, inner), mixed_sparse(data.draw, inner, cols)
    if data.draw(st.booleans()) and a.rows:
        # rows of a that cancel against each other in a @ b
        r = data.draw(st.integers(0, a.rows - 1))
        a = a.add(Matrix(rows, inner, [((r + 1) % rows, c, -v) for (r2, c), v
                                       in a.entries.items() if r2 == r]))
    got = a.mul(b)
    da, db = dense(a), dense(b)
    assert (got.rows, got.cols) == (rows, cols)
    assert dense(got) == [[sum((da[i][j] * db[j][k] for j in range(inner)), 0)
                           for k in range(cols)] for i in range(rows)]
    assert no_stored_zero(got)


def test_mul_of_an_empty_operand_is_the_zero_product():
    full = Matrix(2, 2, [(0, 0, 1), (1, 1, Fraction(1, 2))])
    for left, right in [(Matrix(3, 2), full), (full, Matrix(2, 4)), (Matrix(0, 2), full),
                        (full, Matrix(2, 0)), (Matrix(3, 0), Matrix(0, 4))]:
        got = left.mul(right)
        assert (got.rows, got.cols, got.entries) == (left.rows, right.cols, {})
    with pytest.raises(ShapeMismatch, match="mul 2x2 by 3x1"):
        full.mul(Matrix(3, 1))
    # a product whose every sum cancels stores nothing
    assert from_rows([[1, 1]]).mul(from_rows([[1], [-1]])).entries == {}


@st.composite
def tied_inputs(draw):
    """Integer matrices whose rows often have the same number of entries, so
    the pivot rule's tie-break on the row id decides."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    width = draw(st.integers(1, cols))
    ent = []
    for r in range(rows):
        picked = draw(st.permutations(range(cols)))[:width]
        ent += [(r, c, draw(st.sampled_from([-3, -1, 1, 2, 4]))) for c in picked]
    return Matrix(rows, cols, ent)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tied_inputs())
def test_rref_of_tied_rows_matches_the_scanning_rref(m):
    pivots, rows = _rref(m)
    rows = list(rows)
    want_pivots, want_rows = scanning_rref(m)
    assert pivots == want_pivots
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in want_rows]
    assert all(ints_exactly_when_integral(r.values()) for r in rows)


def test_rref_tie_break_takes_the_lowest_row_id():
    # both rows hold two entries and column 0: row 0 is the first pivot row,
    # and the key order of each output row records which row it came from
    m = Matrix(2, 3, [(0, 1, 1), (0, 0, 1), (1, 0, 1), (1, 2, 1)])
    pivots, rows = _rref(m)
    assert pivots == [0, 1]
    assert [list(r.items()) for r in rows] == [[(0, 1), (2, 1)], [(2, -1), (1, 1)]]


def summed(rows, cols, triples):
    """The {(row, col): value} a list of triples sums to, by a dense table."""
    table = [[0] * cols for _ in range(rows)]
    for r, c, v in triples:
        table[r][c] += v
    return {(r, c): v for r in range(rows) for c in range(cols) if (v := table[r][c])}


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                          st.sampled_from([1, -1, 2, True, False, Fraction(4, 2),
                                           Fraction(1, 2), Fraction(-1, 2), 0])),
                max_size=14))
def test_constructor_matches_a_summing_oracle(triples):
    m = Matrix(3, 4, triples)
    assert m.entries == summed(3, 4, triples)
    assert no_stored_zero(m)
    assert all(type(v) in (int, Fraction) for v in m.entries.values())
    assert Matrix(3, 4, dict(((r, c), v) for r, c, v in triples)).entries == \
        summed(3, 4, list({(r, c): (r, c, v) for r, c, v in triples}.values()))


def test_constructor_normalises_sums_and_refuses_bad_entries():
    m = Matrix(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, True), (0, 1, Fraction(4, 2)),
                      (1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2))])
    assert m.entries == {(1, 1): 1, (0, 1): 2, (1, 0): 1}
    assert type(m.entries[(1, 1)]) is int and type(m.entries[(0, 1)]) is int
    for r, c in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ShapeMismatch) as info:
            Matrix(2, 2, [(0, 0, 1), (r, c, 1)])
        assert str(info.value) == "entry (%d,%d) outside 2x2" % (r, c)
    with pytest.raises(ShapeMismatch, match="entry \\(0,3\\) outside 1x3"):
        Matrix(1, 3, {(0, 3): 1})
    with pytest.raises(TypeError):
        Matrix(2, 2, [(0, 0, 0.5)])
    with pytest.raises(ShapeMismatch, match="negative matrix shape 1x-1"):
        Matrix(1, -1)


def test_products_and_eliminations_call_no_accumulate(monkeypatch):
    calls = []

    def counted(acc, items, a=1):
        calls.append(a)
        return accumulate(acc, items, a)
    monkeypatch.setattr(exactla, "accumulate", counted)
    rng = Random(5)
    for _ in range(20):
        a, b = rand_matrix(rng, 5, 4), rand_matrix(rng, 4, 6)
        assert a.mul(b).entries
        pivots, rows = _rref(a.hstack(a.scale(2)))
        assert len(list(rows)) == len(pivots) > 0
    assert calls == []


def test_integer_tokens_parse_with_no_fraction(monkeypatch):
    # a profile-a document: one Fraction per p/q token, none for an integer
    docs = [print_multicomplex(generate("a", seed)) for seed in range(6)]
    tokens = [line.split()[3] for text in docs for line in text.splitlines()
              if len(line.split()) == 4]
    assert any("/" not in t for t in tokens) and any("/" in t for t in tokens)
    built = count_fractions(monkeypatch)
    parsed = [parse_multicomplex(text)[0] for text in docs]
    assert len(built) == sum("/" in t for t in tokens)
    for m, text in zip(parsed, docs):
        assert print_multicomplex(m) == text
    for token in ["3", "-12", "+7", "0"]:
        del built[:]
        got = rat(token)
        assert type(got) is int and got == int(token) and built == []
    with pytest.raises(ZeroDivisionError):
        rat("1/0")
    for bad in ["٣", "1.5", "1e3", " 3", "1_0", "9" * 5000]:
        with pytest.raises(ValueError):
            rat(bad)
