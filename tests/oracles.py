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
order).
"""

from fractions import Fraction
from random import Random

from multicx import derham, transfer
from multicx.complexes import InfinityMorphism, Multicomplex
from multicx.derham import PolyVector
from multicx.exactla import (
    Matrix,
    Subspace,
    accumulate,
    induced_subquotient_map,
    kernel_image,
    rat,
)
from multicx.gauge import (
    OperatorSeries,
    check_gauge_hodge,
    gauge_construct,
    power_cap,
    series_lincomb,
    series_log,
)
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


# ---- homotopy transfer ----

def identity_defects(r):
    """Exact defects of every identity of the deformation retract r; all
    zero iff r is valid."""
    ip = compose(r.incl, r.proj)
    dh = compose(r.d_big, r.homotopy)
    hd = compose(r.homotopy, r.d_big)
    return {
        "proj_chain": compose(r.d_small, r.proj).sub(compose(r.proj, r.d_big)),
        "incl_chain": compose(r.d_big, r.incl).sub(compose(r.incl, r.d_small)),
        "retract_identity": ip.sub(GradedMap.identity(r.big)).sub(dh).sub(hd),
        "projection": compose(r.proj, r.incl).sub(GradedMap.identity(r.small)),
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


def complement_maps(split):
    """The inclusion [B | C] of the acyclic complement K = B (+) C of the
    homology representatives, and its coordinates q_0 = [b; c]."""
    space = split.d.source
    kspace = GradedVectorSpace({k: b.cols + c.cols for k, (_, b, c) in split.bases.items()})
    return (GradedMap(kspace, space, 0, {k: b.hstack(c) for k, (_, b, c) in split.bases.items()}),
            GradedMap(space, kspace, 0, {k: b.vstack(c) for k, (_, b, c) in split.coords.items()}))


def frame_isomorphism(model) -> InfinityMorphism:
    """The minimal model's isomorphism built through the direct sum with K:
    components [p_n; q_n] into H (+) K, with q_0 = [b; c] and
    q_n = -s sum_{k<n} q_k delta_{n-k} for the contraction s = q_0 h [B | C]
    of K, read back onto A through the frame [H | B | C] as
    i p_n + [B | C] q_n."""
    m, r = model.source, model.retract
    big = m.space
    i_k, q0 = complement_maps(model.splitting)
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
        delta = compose(s, d).sub(compose(d, s))
        if delta.is_zero or not compose(delta, delta).is_zero:
            continue
        m = Multicomplex(space, [d, delta])
        retract, _ = transfer.build_retract(space, d)
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
