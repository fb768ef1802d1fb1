from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    solve,
)
from multicx.graded import GradedMap, GradedVectorSpace, lincomb
from oracles import from_rows

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
    assert m.transpose().transpose() == m
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
    assert solve(ker.basis, Matrix.column([2, -1])) is not None
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
    assert solve(a, Matrix.column([0, 1])) is None
    x = solve(a, Matrix.column([Fraction(5, 3), 0]))
    assert a.mul(x) == Matrix.column([Fraction(5, 3), 0])


def test_complement_coordinate_cases():
    e1 = Subspace(2, Matrix.column([1, 0]))
    full = Subspace.full(2)
    c = complement(e1, full)
    assert c.dim == 1 and solve(c.basis, Matrix.column([0, 1])) is not None
    assert complement(full, full).dim == 0


def test_complement_greedy_pivot():
    # first standard vector not inside span{(1,1)} is e1
    diag = Subspace(2, Matrix.column([1, 1]))
    c = complement(diag, Subspace.full(2))
    assert c.basis == Matrix.column([1, 0])


def test_complement_requires_containment():
    sub = Subspace(2, Matrix.column([1, 0]))
    other = Subspace(2, Matrix.column([0, 1]))
    with pytest.raises(NotContained):
        complement(sub, other)


def test_complement_rank_property_random():
    rng = Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        vecs = rand_matrix(rng, n, rng.randint(0, n))
        sub = Subspace.spanned_by(n, vecs)
        c = complement(sub, Subspace.full(n))
        assert rank(sub.basis.hstack(c.basis)) == n
        assert sub.dim + c.dim == n


def test_induced_map_zero_map():
    m = Matrix(2, 2)
    src = (Subspace.full(2), Subspace(2, Matrix.column([1, 0])))
    dst = (Subspace.full(2), Subspace(2, Matrix.column([0, 1])))
    out = induced_subquotient_map(m, src, dst)
    assert out.rows == 1 and out.cols == 1 and out.is_zero()


def test_induced_map_zero_denominators_is_restriction():
    m = from_rows([[2, 0], [0, 3]])
    sub = Subspace(2, Matrix.column([1, 0]))
    out = induced_subquotient_map(m, (sub, Subspace.zero(2)), (sub, Subspace.zero(2)))
    assert out == from_rows([[2]])


def test_induced_map_coset_oracle():
    # m = [[0,1],[0,0]] sends e2 to e1.  Against dst denominator span{e1} the
    # class of e1 dies, so the induced map is zero; against span{e2} the class
    # of e1 is the quotient basis vector and the induced map is [1].  Both
    # expected values computed by solving the coset linear system by hand.
    m = from_rows([[0, 1], [0, 0]])
    src = (Subspace.full(2), Subspace(2, Matrix.column([1, 0])))
    dst_e1 = (Subspace.full(2), Subspace(2, Matrix.column([1, 0])))
    dst_e2 = (Subspace.full(2), Subspace(2, Matrix.column([0, 1])))
    assert induced_subquotient_map(m, src, dst_e1).is_zero()
    assert induced_subquotient_map(m, src, dst_e2) == from_rows([[1]])


def test_induced_map_detects_disrespected_quotient():
    m = from_rows([[0, 0], [1, 0]])  # e1 -> e2
    src = (Subspace.full(2), Subspace(2, Matrix.column([1, 0])))
    dst = (Subspace.full(2), Subspace(2, Matrix.column([1, 0])))
    with pytest.raises(NotWellDefined):
        induced_subquotient_map(m, src, dst)


def test_induced_map_commutes_with_projection_random():
    # pick random m and a stable flag pair; compare coordinates of m @ v with
    # the induced matrix applied to the coordinates of v
    rng = Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        num = Subspace.full(n)
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
        num = Subspace.full(n)
        out = induced_subquotient_map(m, (num, den), (num, den))
        rep = complement(den, num)
        frame = den.basis.hstack(rep.basis)
        for j in range(rep.dim):
            coords = solve(frame, m.mul(rep.basis.select_columns([j])))
            reduced = coords.select_rows(range(den.dim, den.dim + rep.dim))
            assert reduced == out.select_columns([j])


def test_subspace_equality():
    a = Subspace(3, Matrix.column([1, 0, 0]))
    b = Subspace(3, Matrix.column([2, 0, 0]))
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

def scanning_rref(m):
    """The row-scanning `_rref` the column index replaced: for each column it
    scans every remaining row for pivot candidates and every row for the
    entries to clear."""
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    rows = [r for r in rows if r]
    done = []
    pivots = []
    for col in range(m.cols):
        cand = [i for i, r in enumerate(rows) if col in r]
        if not cand:
            continue
        cand.sort(key=lambda i: (len(rows[i]), i))
        i = cand[0]
        piv = rows.pop(i)
        inv = Fraction(1) / piv[col]
        piv = {c: v * inv for c, v in piv.items()}
        for other_set in (rows, done):
            for k, r in enumerate(other_set):
                f = r.get(col)
                if f is None:
                    continue
                other_set[k] = accumulate(dict(r), piv.items(), -f)
        rows = [r for r in rows if r]
        done.append(piv)
        pivots.append(col)
    return pivots, done


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
    subspaces = [ker, img, span, ambient, complement(span, ambient),
                 complement(img, Subspace.full(n)), Subspace.zero(n), Subspace.full(n)]
    for sub in subspaces:
        assert rank(sub.basis) == sub.basis.cols
