"""Reference constructions that several test files compare the package with.

None of these is on a path the CLI runs.  Each is either an independent
second construction of something the package computes (the inclusion's
infinity-extension, the minimal model's isomorphism through the direct sum
with the acyclic complement, the paper's explicit gauge for mixed
complexes, the leading-slot identification of a page with homology, the
row-scanning Fraction elimination), a generator of test instances, a check
that only tests make (the defects of the retract identities, the first
nonzero differential of a built page), or a small constructor that only tests need (matrices from rows or a
column, Q^n on its standard basis, the transpose, coordinate fields, form
vectors, direct sums, the contraction symbol with its factors in reversed
order).  The de Rham operators are assembled a second way, one monomial at
a time through a flat entry list, and the basic complex a second way, by
solving for each restricted operator on the ambient forms.  The
convolutions of operator families are looped a second way, one power at a
time over explicit index ranges, with the inverse of an infinity-morphism
by its recursion; the Schouten bracket is summed a second way, one
homogeneous part at a time.  A `.mcx` document is parsed a second way,
by a line cursor with one scan per section and a flat entry list that
`GradedMap.from_entries` regroups into blocks.
"""

from fractions import Fraction
from random import Random

from multicx import derham, transfer
from multicx.complexes import (
    InfinityMorphism,
    Multicomplex,
    OperatorSeries,
    ValidationReport,
    Violation,
    power_cap,
    series_lincomb,
)
from multicx.derham import PolyVector
from multicx.exactla import (
    Matrix,
    Subspace,
    accumulate,
    induced_subquotient_map,
    kernel_image,
    rat,
    solve,
)
from multicx.gauge import check_gauge_hodge, gauge_construct, series_log
from multicx.errors import NotInvertible, ParseError
from multicx.formats import MULTICOMPLEX_HEADER, _parse_int, _parse_rational
from multicx.generators import rand_entry, rand_graded_map, rand_space, rand_square_zero
from multicx.graded import GradedMap, GradedVectorSpace, compose, lincomb, max_component_index


def from_rows(data) -> Matrix:
    """The matrix with the given rows of rationals."""
    cols = len(data[0]) if data else 0
    assert all(len(row) == cols for row in data), "ragged rows"
    return Matrix(len(data), cols,
                  [(i, j, rat(v)) for i, row in enumerate(data) for j, v in enumerate(row)])


def column(values) -> Matrix:
    """The column vector of the given rationals."""
    return Matrix(len(values), 1, [(i, 0, rat(v)) for i, v in enumerate(values)])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def full_space(n: int) -> Subspace:
    """Q^n on its standard basis."""
    return Subspace(n, Matrix.identity(n))


def scanning_rref(m):
    """The row-scanning, all-Fraction elimination that `_rref`'s column
    index and integer rows replaced: for each column it scans every
    remaining row for pivot candidates and every row for the entries to
    clear, and it scales each pivot row by the pivot's inverse."""
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


def coordinate_field(dim: int, j: int) -> PolyVector:
    """The constant vector field d/dx_j."""
    return PolyVector(dim, {((0,) * dim, (j,)): 1})


def coefficient_degree(v: PolyVector) -> int:
    """The largest total degree of a coefficient of v, 0 for v = 0."""
    return max((sum(a) for (a, _) in v.terms), default=0)


def direct_sum(m1: Multicomplex, m2: Multicomplex) -> Multicomplex:
    """Degreewise direct sum with blockwise-diagonal operators, m1 first."""
    space = GradedVectorSpace({k: m1.space.dim(k) + m2.space.dim(k)
                               for k in set(m1.space.dims) | set(m2.space.dims)})
    deltas = []
    for n in range(max(m1.order, m2.order) + 1):
        deg = 2 * n - 1
        entries = list(m1.delta(n).entries())
        entries += [(k, m1.space.dim(k + deg) + r, m1.space.dim(k) + c, v)
                    for k, r, c, v in m2.delta(n).entries()]
        deltas.append(GradedMap.from_entries(space, space, deg, entries))
    return Multicomplex(space, deltas)


def form_vector(a, terms, k: int) -> Matrix:
    """The column vector, in the basis of the form algebra a, of a form of
    pure degree k given as {(alpha, I): coefficient}."""
    col = Matrix(len(a.basis[k]), 1)
    for (alpha, I), c in terms.items():
        col.entries[(a.position[k][(alpha, I)], 0)] = rat(c)
    return col


# ---- convolutions of operator families, looped one power at a time ----

def _looped_violation(report, n, defect):
    if not defect.is_zero:
        k, r, c, v = next(defect.entries())
        report.violations.append(Violation(n, k, r, c, v))


def looped_validate_multicomplex(m: Multicomplex) -> ValidationReport:
    """sum_{i+j=n} delta_i delta_j = 0, one n at a time up to twice the order."""
    report = ValidationReport()
    top = m.order
    for n in range(2 * top + 1):
        terms = [(1, compose(m.delta(i), m.delta(n - i)))
                 for i in range(n + 1) if i <= top and n - i <= top]
        _looped_violation(report, n, lincomb(terms, degree=2 * n - 2,
                                             source=m.space, target=m.space))
    return report


def looped_validate_infinity_morphism(f: InfinityMorphism) -> ValidationReport:
    """sum f_k delta^src_l = sum delta^tgt_k f_l, one n at a time."""
    report = ValidationReport()
    top = f.order + max(f.source.order, f.target.order)
    for n in range(top + 1):
        terms = [(1, compose(f.comp(k), f.source.delta(n - k))) for k in range(n + 1)]
        terms += [(-1, compose(f.target.delta(k), f.comp(n - k))) for k in range(n + 1)]
        _looped_violation(report, n, lincomb(terms, degree=2 * n - 1,
                                             source=f.source.space, target=f.target.space))
    return report


def looped_compose_infinity(g: InfinityMorphism, f: InfinityMorphism) -> InfinityMorphism:
    """(g f)_n = sum_{k+l=n} g_k f_l up to the grading bound."""
    bound = max_component_index(f.source.space, g.target.space, 2, 0)
    comps = []
    for n in range(max(bound, 0) + 1):
        terms = [(1, compose(g.comp(k), f.comp(n - k))) for k in range(n + 1)]
        comps.append(lincomb(terms, degree=2 * n, source=f.source.space, target=g.target.space))
    return InfinityMorphism(f.source, g.target, comps)


def recursive_invert_infinity(f: InfinityMorphism) -> InfinityMorphism:
    """g_0 = f_0^{-1} and g_n = -g_0 sum_{k>=1} f_k g_{n-k}."""
    src, tgt = f.source.space, f.target.space
    if src != tgt:
        raise NotInvertible("dimensions differ")
    inv_blocks = {}
    for k in src.degrees:
        x = solve(f.comp(0).block(k), Matrix.identity(tgt.dim(k)))
        if x is None:
            raise NotInvertible("degree-0 component singular at degree %d" % k)
        inv_blocks[k] = x
    g0 = GradedMap(tgt, src, 0, inv_blocks)
    comps = [g0]
    for n in range(1, max(max_component_index(tgt, src, 2, 0), 0) + 1):
        terms = [(-1, compose(f.comp(k), comps[n - k])) for k in range(1, n + 1)]
        comps.append(compose(g0, lincomb(terms, degree=2 * n, source=tgt, target=tgt)))
    return InfinityMorphism(f.target, f.source, comps)


# ---- homotopy transfer ----

def identity_defects(r):
    """Exact defects of every identity of the deformation retract r; all
    zero iff r is valid."""
    ip = compose(r.incl, r.proj)
    dh = compose(r.d_big, r.homotopy)
    hd = compose(r.homotopy, r.d_big)
    return {
        "proj_chain": lincomb([(1, compose(r.d_small, r.proj)), (-1, compose(r.proj, r.d_big))]),
        "incl_chain": lincomb([(1, compose(r.d_big, r.incl)), (-1, compose(r.incl, r.d_small))]),
        "retract_identity": lincomb([(1, ip), (-1, GradedMap.identity(r.big)), (-1, dh),
                                     (-1, hd)]),
        "projection": lincomb([(1, compose(r.proj, r.incl)), (-1, GradedMap.identity(r.small))]),
        "side_h_incl": compose(r.homotopy, r.incl),
        "side_proj_h": compose(r.proj, r.homotopy),
        "side_h_h": compose(r.homotopy, r.homotopy),
    }


def inclusion_extension(r, m: Multicomplex, transferred: Multicomplex) -> InfinityMorphism:
    """The infinity-morphism from the transferred structure to m extending
    incl: i_n = h S_n, S_n the chain sums over incl (sum over compositions
    of n of delta_{i_1} h ... h delta_{i_k} incl)."""
    n_i = max(max_component_index(r.small, r.big, 2, 0), 0)
    s_chain = transfer._chain_sums(m, r.homotopy, r.incl, n_i)
    comps = [r.incl] + [compose(r.homotopy, s_chain[n]) for n in range(1, n_i + 1)]
    return InfinityMorphism(transferred, m, comps)


def complement_maps(r):
    """The inclusion [B | C] of the acyclic complement K = B (+) C of the
    homology representatives, and its coordinates q_0 = [b; c], read off
    the splitting of the retract r."""
    space = r.big
    kspace = GradedVectorSpace({k: b.cols + c.cols for k, (_, b, c) in r.bases.items()})
    return (GradedMap(kspace, space, 0, {k: b.hstack(c) for k, (_, b, c) in r.bases.items()}),
            GradedMap(space, kspace, 0, {k: b.vstack(c) for k, (_, b, c) in r.coords.items()}))


def frame_isomorphism(model) -> InfinityMorphism:
    """The minimal model's isomorphism built through the direct sum with K:
    components [p_n; q_n] into H (+) K, with q_0 = [b; c] and
    q_n = -s sum_{k<n} q_k delta_{n-k} for the contraction s = q_0 h [B | C]
    of K, read back onto A through the frame [H | B | C] as
    i p_n + [B | C] q_n."""
    m, r = model.source, model.retract
    big = m.space
    i_k, q0 = complement_maps(r)
    s_k = compose(q0, compose(r.homotopy, i_k))
    p_comps = transfer._p_components(r, m)
    top = max(max_component_index(big, big, 2, 0), 0)
    q_comps = [q0]
    for n in range(1, top + 1):
        terms = [(1, compose(q_comps[k], m.delta(n - k))) for k in range(n)]
        q_comps.append(compose(s_k, lincomb(terms, degree=2 * n - 1, source=big,
                                            target=q0.target)).neg())
    comps = []
    for n in range(top + 1):
        terms = [(1, compose(i_k, q_comps[n]))]
        if n < len(p_comps):
            terms.append((1, compose(r.incl, p_comps[n])))
        comps.append(lincomb(terms))
    return InfinityMorphism(m, model.iso.target, comps)


# ---- the explicit gauge of a mixed complex ----

class HodgeDataFails(Exception):
    """The retract does not witness vanishing transferred operators."""


def mixed_complex_gauge(retract, delta: GradedMap) -> OperatorSeries:
    """Gauge series for a mixed complex carried by a deformation retract.

    Built from -log(1 - h delta z + sum_n incl proj (delta h)^n z^n); the
    retract must witness the vanishing of the transferred operators, and the
    output is asserted to conjugate d onto d + delta z.
    """
    space = retract.big
    assert delta.degree == 1 and delta.source == space
    m = Multicomplex(space, [retract.d_big, delta])
    hodge = transfer.check_hodge_data(retract, m)
    if not hodge.ok:
        raise HodgeDataFails("transferred operator %d is nonzero" % hodge.witness)
    h_delta = compose(retract.homotopy, delta)
    delta_h = compose(delta, retract.homotopy)
    ip = compose(retract.incl, retract.proj)
    inner = [(1, OperatorSeries.unit(space)), (-1, OperatorSeries.single(1, h_delta))]
    power = GradedMap.identity(space)
    for n in range(1, power_cap(space) + 1):
        power = compose(power, delta_h)
        if power.is_zero:
            break
        inner.append((1, OperatorSeries.single(n, compose(ip, power))))
    series = series_lincomb(space, [(-1, series_log(series_lincomb(space, inner)))])
    check = check_gauge_hodge(series, m)
    if not check.ok:
        raise HodgeDataFails("mixed gauge fails at power %r" % (check.witness,))
    return series


def mixed_gauge_coefficient(retract, delta: GradedMap, n: int) -> GradedMap:
    """Closed form for the weight-n coefficient of the mixed gauge series:
    (h delta)^n / n - sum_{l=1}^{n} (h delta)^{l-1} incl proj (delta h)^{n-l+1} / l."""
    space = retract.big
    h_delta = compose(retract.homotopy, delta)
    delta_h = compose(delta, retract.homotopy)
    ip = compose(retract.incl, retract.proj)

    def pow_map(f, k):
        out = GradedMap.identity(space)
        for _ in range(k):
            out = compose(out, f)
        return out

    terms = [(Fraction(1, n), pow_map(h_delta, n))]
    for l in range(1, n + 1):
        piece = compose(pow_map(h_delta, l - 1), compose(ip, pow_map(delta_h, n - l + 1)))
        terms.append((Fraction(-1, l), piece))
    return lincomb(terms, degree=2 * n, source=space, target=space)


# ---- de Rham operators and basic forms, assembled the direct way ----

def monomial_operator(a, form_shift: int, action) -> GradedMap:
    """`FormAlgebra.operator` term by term: a term is dropped when its
    polynomial degree passes the window's cutoff in its form degree
    (|alpha| <= D, or |alpha| <= D - k on the weight window), and the flat
    entry list goes through `GradedMap.from_entries`."""
    entries = []
    for k in range(a.dim + 1):
        k_out = k + form_shift
        if not 0 <= k_out <= a.dim:
            continue
        cutoff = a.truncation - k_out if a.weight else a.truncation
        for col, (alpha, I) in enumerate(a.basis[k]):
            for (beta, J), coeff in action(k, alpha, I):
                if sum(beta) <= cutoff:
                    entries.append((-k, a.position[k_out][(beta, J)], col, coeff))
    return GradedMap.from_entries(a.space, a.space, -form_shift, entries)


def monomial_d(a) -> GradedMap:
    """d(x^alpha dx_I) = sum_i alpha_i x^(alpha - e_i) dx_i ^ dx_I, each sign
    merged afresh."""
    def action(k, alpha, I):
        for i in range(a.dim):
            if alpha[i]:
                sign, J = derham._merge_sign((i,), I)
                if sign:
                    yield (derham._bumped(alpha, i, -1), J), sign * alpha[i]
    return monomial_operator(a, 1, action)


def monomial_contraction(a, p: PolyVector) -> GradedMap:
    """i(p) for a homogeneous p, each term's contraction chained afresh."""
    degs = p.vector_degrees()
    def action(k, alpha, I):
        for (beta, J), c in p.terms.items():
            sign, rest = derham._iota_chain(I, J)
            if sign:
                yield (tuple(x + y for x, y in zip(alpha, beta)), rest), sign * c
    return monomial_operator(a, -(degs[0] if degs else 0), action)


def solved_basic_subcomplex(w: PolyVector, e: PolyVector, a) -> derham.BasicComplex:
    """The basic forms, the kernel of i(e) and i(e) d, with delta = [i(w), d]
    built on the ambient forms, and each of d, delta and i(w) restricted by
    one `solve` per degree."""
    d = monomial_d(a)
    iw = monomial_contraction(a, w) if not w.is_zero else GradedMap.zero(a.space, a.space, 2)
    ie = monomial_contraction(a, e)
    ie_d = compose(ie, d)
    bases = {}
    for k in a.space.degrees:
        ker, _ = kernel_image(ie.block(k).vstack(ie_d.block(k)))
        if ker.dim:
            bases[k] = ker.basis
    sub = GradedVectorSpace({k: b.cols for k, b in bases.items()})

    def restrict(f):
        blocks = {}
        for k, b in bases.items():
            img = f.block(k).mul(b)
            if not img.is_zero():
                coords = solve(bases[k + f.degree], img) if k + f.degree in bases else None
                assert coords is not None, "an operator leaves the basic forms"
                blocks[k] = coords
        return GradedMap(sub, sub, f.degree, blocks)
    delta = lincomb([(1, compose(iw, d)), (-1, compose(d, iw))])
    return derham.BasicComplex(multicomplex=Multicomplex(sub, [restrict(d), restrict(delta)]),
                               inclusions=bases, gauge=OperatorSeries(sub, {1: restrict(iw)}))


def homogeneous_schouten(p: PolyVector, q: PolyVector) -> PolyVector:
    """The Schouten bracket summed over pairs of homogeneous parts (|p|, |q|),
    each a sum over directions of wedge products of separately built
    derivatives, with the sign (-1)^((|p| - 1)(|q| - 1)) of its pair."""
    def part(v, k):
        return PolyVector(v.dim, {key: c for key, c in v.terms.items() if len(key[1]) == k})
    acc = PolyVector.zero(p.dim)
    for pdeg in p.vector_degrees():
        for qdeg in q.vector_degrees():
            pp, qq = part(p, pdeg), part(q, qdeg)
            sign = (-1) ** ((pdeg - 1) * (qdeg - 1) % 2)
            for i in range(p.dim):
                left = PolyVector(p.dim, derham._right_theta_derivative(pp.terms, i))
                right = PolyVector(p.dim, derham._x_derivative(qq.terms, i))
                left2 = PolyVector(p.dim, derham._right_theta_derivative(qq.terms, i))
                right2 = PolyVector(p.dim, derham._x_derivative(pp.terms, i))
                acc = acc.add(left.wedge(right)).sub(left2.wedge(right2).scale(sign))
    return acc


# ---- sign conventions of the contraction ----

def reversed_contraction_symbol(p: PolyVector) -> dict:
    """The symbol of i(p) with the factors of each term applied in reversed
    order, the convention that the contraction identity rejects."""
    out = {}
    for (beta, J), c in p.terms.items():
        gens = [("dtheta", j) for j in reversed(J)] + derham._powers("x", beta)
        accumulate(out, derham._word(derham._unit(p.dim), gens).items(), c)
    return out


# ---- spectral sequence ----

def first_nonzero_differential(pg):
    """Least (s, n) whose differential d^r on the page pg is nonzero, or None."""
    for key in sorted(pg.differentials):
        if not pg.differentials[key].is_zero():
            return key
    return None


def identify_with_homology(t, pg, s: int, n: int) -> Matrix:
    """Matrix of the leading-slot identification E^r_s(n) -> H(A, d) in
    degree n + 2s.

    Projecting a class onto its slot of level s lands in cycles and kills
    the denominator, so the induced map on subquotients (ker d, im d) is
    well-defined; on page one it is the canonical isomorphism.
    """
    entry = pg.entries[(s, n)]
    space = t.source.space
    deg = n + 2 * s
    off = t.offset(n, -s)
    proj = Matrix(space.dim(deg), t.total_dim(n),
                  [(i, off + i, 1) for i in range(space.dim(deg))])
    d = t.source.delta(0)
    ker, _ = kernel_image(d.block(deg))
    _, img = kernel_image(d.block(deg + 1))
    return induced_subquotient_map(proj, (entry.numerator, entry.denominator), (ker, img))


# ---- mixed complexes with vanishing transferred operators ----

def mixed_commutator_instance(rng: Random, max_width=6, max_dim=3, trials=400):
    """A mixed complex with vanishing transferred operators whose second
    operator is a commutator [s, d]; rejection-sampled so that the square of
    the commutator vanishes.  Richer than the single-degree gauge orbit: the
    homotopy words (delta h)^n survive to higher weights."""
    for _ in range(trials):
        space = rand_space(rng, max_width, max_dim)
        d = rand_square_zero(rng, space, -1)
        s = rand_graded_map(rng, space, space, 2, density=0.5)
        delta = lincomb([(1, compose(s, d)), (-1, compose(d, s))])
        if delta.is_zero or not compose(delta, delta).is_zero:
            continue
        m = Multicomplex(space, [d, delta])
        retract = transfer.build_retract(space, d)
        if transfer.check_hodge_data(retract, m).ok:
            return m
    raise RuntimeError("no commutator-type mixed complex found in %d trials" % trials)


def mixed_gauge_instance(rng: Random, max_width=5, max_dim=3):
    """A mixed complex satisfying the gauge condition by construction: the
    gauge has a single weight-1 coefficient supported at one source degree,
    so the conjugation series stops at weight 1."""
    space = rand_space(rng, max_width, max_dim)
    d = rand_square_zero(rng, space, -1)
    ks = [k for k in space.degrees if space.dim(k + 2)]
    if not ks:
        return Multicomplex.trivial(space, d), OperatorSeries(space)
    k = rng.choice(ks)
    ent = [(k, r, c, rand_entry(rng))
           for r in range(space.dim(k + 2)) for c in range(space.dim(k))
           if rng.random() < 0.6]
    series = OperatorSeries.single(1, GradedMap.from_entries(space, space, 2, ent))
    m = gauge_construct(d, series)
    assert m.order <= 1, "single-degree gauge produced higher operators"
    return m, series


# ---- the .mcx format, parsed by a line cursor ----

class _Lines:
    """Cursor over meaningful lines, tracking numbers for error messages."""

    def __init__(self, text):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                self.items.append((no, line))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        no, line = self.peek()
        if line is None:
            raise ParseError("unexpected end of document")
        self.pos += 1
        return no, line

    def expect(self, want):
        no, line = self.next()
        if line != want:
            raise ParseError("expected %r, found %r" % (want, line), no)


def _cursor_degrees(lines, terminators):
    dims = {}
    while True:
        no, line = lines.peek()
        if line is None or line in terminators or line.split()[0] in terminators:
            break
        no, line = lines.next()
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("degree lines need two fields", no)
        deg = _parse_int(parts[0], no, "degree")
        dim = _parse_int(parts[1], no, "dimension")
        if deg in dims:
            raise ParseError("degree %d repeated" % deg, no)
        if dim <= 0:
            raise ParseError("dimension must be positive", no)
        dims[deg] = dim
    return dims


def _cursor_entries(lines, terminators):
    entries = []
    while True:
        no, line = lines.peek()
        if line is None:
            break
        head = line.split()[0]
        if line in terminators or head in terminators:
            break
        no, line = lines.next()
        parts = line.split()
        if len(parts) != 4:
            raise ParseError("entry lines need four fields", no)
        k = _parse_int(parts[0], no, "source degree")
        r = _parse_int(parts[1], no, "row")
        c = _parse_int(parts[2], no, "column")
        v = _parse_rational(parts[3], no)
        entries.append((k, r, c, v))
    return entries


def cursor_parse_multicomplex(text: str):
    """(multicomplex, meta) of a `.mcx` document, or the same ParseError as
    `formats.parse_multicomplex`: each section is scanned by its own loop,
    and each operator's entries are collected in one flat list and grouped
    into blocks by `GradedMap.from_entries` when its section ends."""
    lines = _Lines(text)
    no, header = lines.next()
    if header != MULTICOMPLEX_HEADER:
        raise ParseError("not a multicomplex document (header %r)" % header, no)
    meta = {}
    while True:
        no, line = lines.peek()
        if line is None or not line.startswith("meta "):
            break
        lines.next()
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ParseError("meta lines need a key and a value", no)
        meta[parts[1]] = parts[2]
    lines.expect("degrees")
    space = GradedVectorSpace(_cursor_degrees(lines, {"operator", "end"}))
    ops = {}
    last = -1
    while True:
        no, line = lines.peek()
        if line == "end":
            lines.next()
            break
        if line is None:
            raise ParseError("missing end marker")
        no, line = lines.next()
        parts = line.split()
        if parts[0] != "operator" or len(parts) != 2:
            raise ParseError("expected an operator section, found %r" % line, no)
        n = _parse_int(parts[1], no, "operator index")
        if n <= last:
            raise ParseError("operator indices must increase", no)
        last = n
        entries = _cursor_entries(lines, {"operator", "end"})
        if not entries:
            continue
        try:
            ops[n] = GradedMap.from_entries(space, space, 2 * n - 1, entries)
        except Exception as exc:
            raise ParseError("operator %d: %s" % (n, exc), no)
    if lines.peek()[1] is not None:
        raise ParseError("trailing content after end", lines.peek()[0])
    return Multicomplex(space, OperatorSeries(space, ops)), meta
