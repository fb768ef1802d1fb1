"""Reference constructions that several test files compare the package with.

None of these is on a path the CLI runs.  Each is either an independent
second construction of something the package computes (the inclusion's
infinity-extension, the paper's explicit gauge for mixed complexes, the
leading-slot identification of a page with homology) or a generator of
test instances.
"""

from fractions import Fraction
from random import Random

from multicx import transfer
from multicx.complexes import InfinityMorphism, Multicomplex
from multicx.exactla import Matrix, induced_subquotient_map, kernel_image, rat
from multicx.gauge import (
    OperatorSeries,
    check_gauge_hodge,
    gauge_construct,
    power_cap,
    series_log,
)
from multicx.generators import rand_entry, rand_graded_map, rand_space, rand_square_zero
from multicx.graded import GradedMap, compose, lincomb, max_component_index


def from_rows(data) -> Matrix:
    """The matrix with the given rows of rationals."""
    cols = len(data[0]) if data else 0
    assert all(len(row) == cols for row in data), "ragged rows"
    return Matrix(len(data), cols,
                  [(i, j, rat(v)) for i, row in enumerate(data) for j, v in enumerate(row)])


# ---- homotopy transfer ----

def inclusion_extension(r, m: Multicomplex, transferred: Multicomplex) -> InfinityMorphism:
    """The infinity-morphism from the transferred structure to m extending
    incl: i_n = h S_n, S_n the chain sums over incl (sum over compositions
    of n of delta_{i_1} h ... h delta_{i_k} incl)."""
    n_i = max(max_component_index(r.small, r.big, 2, 0), 0)
    s_chain = transfer._chain_sums(m, r.homotopy, r.incl, n_i)
    comps = [r.incl] + [compose(r.homotopy, s_chain[n]) for n in range(1, n_i + 1)]
    return InfinityMorphism(transferred, m, comps)


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
    inner = OperatorSeries.unit(space).sub(OperatorSeries.single(1, h_delta))
    power = GradedMap.identity(space)
    for n in range(1, power_cap(space) + 1):
        power = compose(power, delta_h)
        if power.is_zero:
            break
        inner = inner.add(OperatorSeries.single(n, compose(ip, power)))
    series = series_log(inner).neg()
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


# ---- spectral sequence ----

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
        return Multicomplex.trivial(space, d), OperatorSeries.zero(space)
    k = rng.choice(ks)
    ent = [(k, r, c, rand_entry(rng))
           for r in range(space.dim(k + 2)) for c in range(space.dim(k))
           if rng.random() < 0.6]
    series = OperatorSeries.single(1, GradedMap.from_entries(space, space, 2, ent))
    m = gauge_construct(d, series)
    assert m.is_mixed, "single-degree gauge produced higher operators"
    return m, series
