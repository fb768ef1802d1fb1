from random import Random

import pytest

from multicx.complexes import (
    InfinityMorphism,
    Multicomplex,
    compose_infinity,
    invert_infinity,
    validate_infinity_morphism,
    validate_multicomplex,
)
from multicx.errors import NotInvertible, SourceTargetMismatch
from multicx.graded import GradedMap, GradedVectorSpace, compose
from oracles import direct_sum, transpose


V = GradedVectorSpace({0: 2, 1: 2, 2: 2, 3: 2})


def gmap(space, degree, entries):
    return GradedMap.from_entries(space, space, degree, entries)


def single_block_isotopy(m, k, entries):
    """Isotopy with one nontrivial component f1 supported at source degree k."""
    f1 = gmap(m.space, 2, [(k, r, c, v) for r, c, v in entries])
    return InfinityMorphism(m, m, [GradedMap.identity(m.space), f1])


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
    ident = InfinityMorphism.identity(staircase4())
    assert validate_infinity_morphism(ident).ok
    assert ident.comps == [GradedMap.identity(ident.source.space)]


def test_non_chain_map_flagged_at_zero():
    m = Multicomplex.zero(V)
    target = Multicomplex(V, [gmap(V, -1, [(1, 0, 0, 1)])])
    f = InfinityMorphism(m, target, [GradedMap.identity(V)])
    rep = validate_infinity_morphism(f)
    assert not rep.ok and rep.indices() == [0]


def test_compose_with_identity():
    m = staircase4()
    f = single_block_isotopy(m, 0, [(0, 0, 3)])
    ident = InfinityMorphism.identity(m)
    assert compose_infinity(ident, f) == f
    assert compose_infinity(f, ident) == f


def test_compose_strict_morphisms():
    m = Multicomplex.zero(V)
    a = gmap(V, 0, [(k, r, r, 2) for k in V.degrees for r in range(2)])
    b = gmap(V, 0, [(k, r, r, 3) for k in V.degrees for r in range(2)])
    gf = compose_infinity(InfinityMorphism(m, m, [a]), InfinityMorphism(m, m, [b]))
    assert gf.order == 0
    assert gf.comps[0] == compose(a, b)


def test_compose_convolution_by_hand():
    # (gf)_2 = g0 f2 + g1 f1 + g2 f0 expanded literally
    rng = Random(2)
    m = Multicomplex.zero(GradedVectorSpace({0: 2, 2: 2, 4: 2}))
    def rnd(deg):
        ent = [(0, r, c, rng.randint(-2, 2)) for r in range(2) for c in range(2)]
        return GradedMap.from_entries(m.space, m.space, deg, ent)
    ident = GradedMap.identity(m.space)
    f = InfinityMorphism(m, m, [ident, rnd(2), rnd(4)])
    g = InfinityMorphism(m, m, [ident, rnd(2), rnd(4)])
    gf = compose_infinity(g, f)
    expected = [
        (1, compose(g.comp(0), f.comp(2))),
        (1, compose(g.comp(1), f.comp(1))),
        (1, compose(g.comp(2), f.comp(0))),
    ]
    from multicx.graded import lincomb
    assert gf.comp(2) == lincomb(expected)


def test_compose_endpoint_mismatch():
    a = Multicomplex.zero(V)
    b = Multicomplex.zero(GradedVectorSpace({0: 1}))
    f = InfinityMorphism(a, a, [GradedMap.identity(V)])
    g = InfinityMorphism(b, b, [GradedMap.identity(b.space)])
    with pytest.raises(SourceTargetMismatch):
        compose_infinity(g, f)


def test_invert_identity_and_scalar():
    m = Multicomplex.zero(V)
    ident = InfinityMorphism.identity(m)
    assert invert_infinity(ident) == ident
    two = InfinityMorphism(m, m, [GradedMap.identity(V).scale(2)])
    half = invert_infinity(two)
    assert half.comps[0] == GradedMap.identity(V).scale("1/2")


def test_invert_singular_raises():
    m = Multicomplex.zero(V)
    f0 = gmap(V, 0, [(0, 0, 0, 1)])  # rank 1 in a 2-dim degree
    with pytest.raises(NotInvertible):
        invert_infinity(InfinityMorphism(m, m, [f0]))


def test_invert_isotopy_round_trip_random():
    rng = Random(17)
    m = staircase4()
    for _ in range(25):
        k = rng.choice([0, 1])
        f = single_block_isotopy(m, k, [(0, 0, rng.randint(-2, 2))])
        g = invert_infinity(f)
        assert g.comp(0) == GradedMap.identity(m.space)
        assert compose_infinity(g, f) == InfinityMorphism.identity(m)
        assert compose_infinity(f, g) == InfinityMorphism.identity(m)
        assert invert_infinity(g) == f


def test_compose_associative_random():
    rng = Random(19)
    m = Multicomplex.zero(GradedVectorSpace({0: 2, 2: 2, 4: 1}))
    def iso():
        comps = [GradedMap.identity(m.space)]
        for n in (1, 2):
            ent = []
            for k in m.space.degrees:
                rows, cols = m.space.dim(k + 2 * n), m.space.dim(k)
                ent += [(k, r, c, rng.randint(-1, 1))
                        for r in range(rows) for c in range(cols)]
            comps.append(GradedMap.from_entries(m.space, m.space, 2 * n, ent))
        return InfinityMorphism(m, m, comps)
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
        inj = InfinityMorphism(m, total, [incl])
        back = InfinityMorphism(total, m, [proj])
        assert validate_infinity_morphism(inj).ok
        assert validate_infinity_morphism(back).ok
        assert compose_infinity(back, inj) == InfinityMorphism.identity(m)


def test_product_with_zero_complex():
    m = staircase4()
    z = Multicomplex.zero(GradedVectorSpace({}))
    assert direct_sum(m, z) == m
