from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicx.complexes import (
    Multicomplex,
    OperatorSeries,
    compose_infinity,
    invert_infinity,
    series_lincomb,
    validate_infinity_morphism,
    validate_multicomplex,
)
from multicx.derham import FormAlgebra, basic_subcomplex, jacobi_multicomplex
from multicx.errors import DegreeMismatch, NotInvertible, SpaceMismatch
from multicx.exactla import Matrix
from multicx.gauge import check_gauge_hodge, series_mul
from multicx.generators import (
    corpus,
    hand_library,
    rand_automorphism,
    rand_graded_map,
    rand_space,
)
from multicx.graded import GradedMap, GradedVectorSpace, compose, lincomb
from multicx.transfer import minimal_model
from oracles import (
    CONTACT_E,
    CONTACT_W,
    carried_model,
    comp,
    comps,
    direct_sum,
    geometry_outputs,
    looped_compose_infinity,
    looped_validate_infinity_morphism,
    looped_validate_multicomplex,
    recursive_invert_infinity,
    transpose,
)


V = GradedVectorSpace({0: 2, 1: 2, 2: 2, 3: 2})


def gmap(space, degree, entries):
    return GradedMap.from_entries(space, space, degree, entries)


def single_block_isotopy(m, k, entries):
    """Isotopy with one nontrivial component f1 supported at source degree k."""
    f1 = gmap(m.space, 2, [(k, r, c, v) for r, c, v in entries])
    return OperatorSeries(m.space, {0: GradedMap.identity(m.space), 1: f1})


def staircase4():
    """Mixed complex on four lines whose transferred structure has a nonzero
    second operator; used across the suite as a degeneration counterexample."""
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1, 3: 1})
    d = gmap(space, -1, [(2, 0, 0, 1)])
    delta = gmap(space, 1, [(0, 0, 0, 1), (2, 0, 0, 1)])
    return Multicomplex(space, [d, delta])


def test_zero_multicomplex_valid():
    m = Multicomplex.zero(V)
    assert validate_multicomplex(m).ok
    assert m.order == 0 and m.delta(0).is_zero


def test_validate_catches_bad_differential():
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    d = gmap(space, -1, [(1, 0, 0, 1), (2, 0, 0, 1)])
    rep = validate_multicomplex(Multicomplex(space, [d]))
    assert not rep.ok
    assert rep.indices() == [0]


def test_validate_catches_broken_anticommute():
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    d = gmap(space, -1, [(1, 0, 0, 1)])
    delta = gmap(space, 1, [(1, 0, 0, 1)])
    # direct block multiplication oracle: (d delta + delta d) at degree 1 is
    # d(delta e) + delta(d e) = 0 + delta(e0); pick delta with block at 0 too
    delta = gmap(space, 1, [(1, 0, 0, 1), (0, 0, 0, 1)])
    rep = validate_multicomplex(Multicomplex(space, [d, delta]))
    assert not rep.ok and 1 in rep.indices()


def test_staircase_is_valid_mixed():
    m = staircase4()
    assert m.order <= 1
    assert validate_multicomplex(m).ok


def test_truncation_soundness_zero_padding():
    m = staircase4()
    padded = Multicomplex(m.space, list(m.deltas) + [
        GradedMap.zero(m.space, m.space, 3),
        GradedMap.zero(m.space, m.space, 5),
    ])
    assert padded == m
    assert validate_multicomplex(padded).ok


def test_identity_morphism_valid():
    m = staircase4()
    ident = OperatorSeries.unit(m.space)
    assert validate_infinity_morphism(ident, m, m).ok
    assert comps(ident) == [GradedMap.identity(m.space)]


def test_non_chain_map_flagged_at_zero():
    m = Multicomplex.zero(V)
    target = Multicomplex(V, [gmap(V, -1, [(1, 0, 0, 1)])])
    f = OperatorSeries.unit(V)
    rep = validate_infinity_morphism(f, m, target)
    assert not rep.ok and rep.indices() == [0]


def test_validate_morphism_refuses_a_component_of_the_wrong_degree():
    # f_0 of degree 2 and f_1 of degree 4: the series itself is consistent
    # (both coefficients have degree - 2n = 2), so only the morphism check
    # sees it, and it names the power
    even = GradedVectorSpace({0: 1, 2: 1, 4: 1, 6: 1})
    m = Multicomplex.zero(even)
    f = OperatorSeries(even, {0: gmap(even, 2, [(0, 0, 0, 1)]), 1: gmap(even, 4, [(0, 0, 0, 1)])})
    with pytest.raises(DegreeMismatch, match="component 0 must have degree 0"):
        validate_infinity_morphism(f, m, m)
    f = OperatorSeries.single(2, gmap(even, 2, [(0, 0, 0, 1)]))
    with pytest.raises(DegreeMismatch, match="component 2 must have degree 4"):
        validate_infinity_morphism(f, m, m)


def test_validate_morphism_refuses_series_off_its_endpoints():
    small, other = GradedVectorSpace({0: 1, 1: 1}), GradedVectorSpace({0: 2})
    m, n = Multicomplex.zero(small), Multicomplex.zero(other)
    for f, source, target in [(OperatorSeries.unit(small), m, n),
                              (OperatorSeries.unit(small), n, n),
                              (OperatorSeries(small, {}, other), m, m),
                              (OperatorSeries(small, {}, other), n, m)]:
        with pytest.raises(SpaceMismatch):
            validate_infinity_morphism(f, source, target)
    # the same series is a morphism between endpoints on its own spaces
    assert validate_infinity_morphism(OperatorSeries(small, {}, other), m, n).ok


def test_compose_with_identity():
    m = staircase4()
    f = single_block_isotopy(m, 0, [(0, 0, 3)])
    ident = OperatorSeries.unit(m.space)
    assert compose_infinity(ident, f) == f
    assert compose_infinity(f, ident) == f


def test_compose_strict_morphisms():
    a = gmap(V, 0, [(k, r, r, 2) for k in V.degrees for r in range(2)])
    b = gmap(V, 0, [(k, r, r, 3) for k in V.degrees for r in range(2)])
    gf = compose_infinity(OperatorSeries.single(0, a), OperatorSeries.single(0, b))
    assert gf.max_power == 0
    assert comp(gf, 0) == compose(a, b)


def test_compose_convolution_by_hand():
    # (gf)_2 = g0 f2 + g1 f1 + g2 f0 expanded literally
    rng = Random(2)
    m = Multicomplex.zero(GradedVectorSpace({0: 2, 2: 2, 4: 2}))
    def rnd(deg):
        ent = [(0, r, c, rng.randint(-2, 2)) for r in range(2) for c in range(2)]
        return GradedMap.from_entries(m.space, m.space, deg, ent)
    ident = GradedMap.identity(m.space)
    f = OperatorSeries(m.space, {0: ident, 1: rnd(2), 2: rnd(4)})
    g = OperatorSeries(m.space, {0: ident, 1: rnd(2), 2: rnd(4)})
    gf = compose_infinity(g, f)
    expected = [
        (1, compose(comp(g, 0), comp(f, 2))),
        (1, compose(comp(g, 1), comp(f, 1))),
        (1, compose(comp(g, 2), comp(f, 0))),
    ]
    assert comp(gf, 2) == lincomb(expected)


def test_compose_endpoint_mismatch():
    b = GradedVectorSpace({0: 1})
    f = OperatorSeries.unit(V)
    g = OperatorSeries.unit(b)
    with pytest.raises(SpaceMismatch):
        compose_infinity(g, f)


def test_invert_identity_and_scalar():
    ident = OperatorSeries.unit(V)
    assert invert_infinity(ident) == ident
    two = series_lincomb(V, [(2, ident)])
    half = invert_infinity(two)
    assert comps(half) == [lincomb([("1/2", GradedMap.identity(V))])]


def test_invert_singular_raises():
    f0 = gmap(V, 0, [(0, 0, 0, 1)])  # rank 1 in a 2-dim degree
    with pytest.raises(NotInvertible):
        invert_infinity(OperatorSeries.single(0, f0))


def test_invert_isotopy_round_trip_random():
    rng = Random(17)
    m = staircase4()
    for _ in range(25):
        k = rng.choice([0, 1])
        f = single_block_isotopy(m, k, [(0, 0, rng.randint(-2, 2))])
        g = invert_infinity(f)
        assert comp(g, 0) == GradedMap.identity(m.space)
        assert compose_infinity(g, f) == OperatorSeries.unit(m.space)
        assert compose_infinity(f, g) == OperatorSeries.unit(m.space)
        assert invert_infinity(g) == f


def test_compose_associative_random():
    rng = Random(19)
    space = GradedVectorSpace({0: 2, 2: 2, 4: 1})
    def iso():
        out = {0: GradedMap.identity(space)}
        for n in (1, 2):
            ent = []
            for k in space.degrees:
                rows, cols = space.dim(k + 2 * n), space.dim(k)
                ent += [(k, r, c, rng.randint(-1, 1))
                        for r in range(rows) for c in range(cols)]
            out[n] = GradedMap.from_entries(space, space, 2 * n, ent)
        return OperatorSeries(space, out)
    for _ in range(15):
        f, g, h = iso(), iso(), iso()
        assert compose_infinity(compose_infinity(h, g), f) == \
            compose_infinity(h, compose_infinity(g, f))


def summand_maps(space, total, offset):
    """The inclusion of a summand into a direct sum and the projection back,
    the summand's coordinates sitting `offset(k)` rows down in degree k."""
    incl = GradedMap.from_entries(space, total, 0, [(k, offset(k) + r, r, 1)
                                                    for k in space.degrees
                                                    for r in range(space.dim(k))])
    proj = GradedMap(total, space, 0, {k: transpose(incl.block(k)) for k in space.degrees})
    return incl, proj


def test_product_dims_and_validity():
    m1 = staircase4()
    m2 = Multicomplex.zero(GradedVectorSpace({0: 1, 1: 2}))
    total = direct_sum(m1, m2)
    for k in total.space.degrees:
        assert total.space.dim(k) == m1.space.dim(k) + m2.space.dim(k)
    assert validate_multicomplex(total).ok
    # the operators are blockwise diagonal: each summand's inclusion and
    # projection are strict morphisms, and projection after inclusion is
    # the identity on the summand
    for m, offset in ((m1, lambda k: 0), (m2, m1.space.dim)):
        incl, proj = summand_maps(m.space, total.space, offset)
        inj, back = OperatorSeries.single(0, incl), OperatorSeries.single(0, proj)
        assert validate_infinity_morphism(inj, m, total).ok
        assert validate_infinity_morphism(back, total, m).ok
        assert compose_infinity(back, inj) == OperatorSeries.unit(m.space)


def test_product_with_zero_complex():
    m = staircase4()
    z = Multicomplex.zero(GradedVectorSpace({}))
    assert direct_sum(m, z) == m


# ---- the one Cauchy product against the parent's per-power loops ----

def rand_family(rng, space, top=2, density=0.3):
    """delta_0, ..., delta_top drawn at random, so the relations mostly fail."""
    return Multicomplex(space, [rand_graded_map(rng, space, space, 2 * n - 1, density)
                                for n in range(top + 1)])


def rand_morphism(rng, source, target, top=2, density=0.3, head=None):
    out = {0: head or rand_graded_map(rng, source.space, target.space, 0, density)}
    out.update((n, rand_graded_map(rng, source.space, target.space, 2 * n, density))
               for n in range(1, top + 1))
    return OperatorSeries(source.space, out, target.space)


def test_validation_matches_the_looped_oracle():
    rng = Random(101)
    families = [m for _, _, m in corpus(60)] + hand_library() + geometry_outputs()
    families += [rand_family(rng, rand_space(rng)) for _ in range(40)]
    failing = 0
    for m in families:
        report = validate_multicomplex(m)
        assert report == looped_validate_multicomplex(m)
        failing += not report.ok
    # the random families exercise the violations, in order
    assert failing >= 30


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_morphism_convolutions_match_the_looped_oracle(seed):
    rng = Random(seed)
    a, b, c = (rand_family(rng, rand_space(rng, max_width=5, max_dim=3)) for _ in range(3))
    f, g = rand_morphism(rng, a, b), rand_morphism(rng, b, c)
    assert validate_infinity_morphism(f, a, b) == looped_validate_infinity_morphism(f, a, b)
    # equal series: every component equal, exactly
    assert compose_infinity(g, f) == looped_compose_infinity(g, f)
    # an isomorphism on one space: invertible head, random tail
    iso = rand_morphism(rng, a, a, head=rand_automorphism(rng, a.space))
    inverse = invert_infinity(iso)
    assert inverse == recursive_invert_infinity(iso)
    assert validate_infinity_morphism(inverse, a, a) == \
        looped_validate_infinity_morphism(inverse, a, a)


def test_model_isomorphisms_match_the_looped_oracle():
    for _, _, m in corpus(60)[:20]:
        model = minimal_model(m)
        iso, target = model.iso, carried_model(model)
        assert validate_infinity_morphism(iso, m, target) == \
            looped_validate_infinity_morphism(iso, m, target)
        assert validate_infinity_morphism(iso, m, target).ok
        assert invert_infinity(iso) == recursive_invert_infinity(iso)


def test_mismatched_series_spaces_raise():
    small, other = GradedVectorSpace({0: 1, 1: 1}), GradedVectorSpace({0: 2})
    on_other = OperatorSeries(other, {0: GradedMap.zero(other, other, -1)})
    d = GradedMap.from_entries(other, other, -1, [])
    with pytest.raises(SpaceMismatch):
        Multicomplex(small, OperatorSeries(other, {0: GradedMap.identity(other)}))
    with pytest.raises(SpaceMismatch):
        Multicomplex(small, [d])
    m, n = Multicomplex.zero(small), Multicomplex.zero(other)
    into_other = OperatorSeries(small, {}, other)
    with pytest.raises(SpaceMismatch):
        validate_infinity_morphism(into_other, m, m)
    with pytest.raises(SpaceMismatch):
        validate_infinity_morphism(on_other, n, m)
    with pytest.raises(SpaceMismatch):
        series_mul(OperatorSeries.unit(small), OperatorSeries.unit(other))
    with pytest.raises(SpaceMismatch):
        OperatorSeries(small, {0: GradedMap.identity(other)})
    with pytest.raises(SpaceMismatch):
        check_gauge_hodge(OperatorSeries(other), m)
    # a series of the right spaces but the wrong degrees
    with pytest.raises(DegreeMismatch):
        Multicomplex(small, OperatorSeries.unit(small))


def test_series_views_are_the_family():
    m = staircase4()
    assert m.series.coeffs == {n: m.delta(n) for n in range(m.order + 1) if not m.delta(n).is_zero}
    assert Multicomplex(m.space, m.series) == m
    f = single_block_isotopy(m, 0, [(0, 0, 3)])
    assert OperatorSeries(m.space, dict(enumerate(comps(f)))) == f
    assert comps(f) == [comp(f, 0), comp(f, 1)]
    assert OperatorSeries(m.space).is_zero


def test_products_on_the_contact_pair_keep_their_matrix_products(monkeypatch):
    # pinned to the per-power loops' counts: validating the multicomplex at
    # trunc 4 makes 12 block products (6 on the basic forms) and checking
    # its gauge 6 (2); a pair of powers past the grading width has no pair
    # of matching blocks, so the product needs no power cap to skip it
    calls = []
    real = Matrix.mul

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    a = FormAlgebra(3, 4, weight=True)
    for build, want in ((jacobi_multicomplex, (12, 6)), (basic_subcomplex, (6, 2))):
        geo = build(CONTACT_W, CONTACT_E, a)
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "mul", counted)
            assert validate_multicomplex(geo.multicomplex).ok
            validated = len(calls)
            assert check_gauge_hodge(geo.gauge, geo.multicomplex).ok
        assert (validated, len(calls) - validated) == want
        calls.clear()
