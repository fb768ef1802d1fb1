from functools import reduce
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
from multicx import transfer
from multicx.errors import NotSquareZero, SpaceMismatch
from multicx.exactla import Subspace, kernel_image
from multicx.generators import (
    corpus,
    generate,
    hand_library,
    rand_space,
    rand_square_zero,
    staircase4,
)
from multicx.graded import GradedMap, GradedVectorSpace, compose, homology, lincomb
from multicx.transfer import (
    DeformationRetract,
    alternative_retract,
    build_retract,
    check_hodge_data,
    minimal_model,
    transfer_structure,
)
from oracles import from_rows, inclusion_extension, mixed_gauge_instance


def compositions(n):
    """All tuples of positive integers summing to n, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def oracle_transferred(r, m, n):
    """Literal enumeration of p delta_{i_1} h ... h delta_{i_k} i."""
    terms = []
    for comp in compositions(n):
        maps = [r.proj]
        for pos, idx in enumerate(comp):
            if pos:
                maps.append(r.homotopy)
            maps.append(m.delta(idx))
        maps.append(r.incl)
        terms.append((1, reduce(compose, maps)))
    return lincomb(terms, degree=2 * n - 1, source=r.small, target=r.small)


def identity_retract(m):
    ident = GradedMap.identity(m.space)
    return DeformationRetract(
        big=m.space, small=m.space, proj=ident, incl=ident,
        homotopy=GradedMap.zero(m.space, m.space, 1),
        d_big=m.delta(0), d_small=m.delta(0))


def test_build_retract_zero_differential():
    space = GradedVectorSpace({0: 2, 1: 1})
    r, (kbasis, kcoords) = build_retract(space, GradedMap.zero(space, space, -1))
    assert r.small == space
    assert r.proj == GradedMap.identity(space)
    assert r.incl == GradedMap.identity(space)
    assert r.homotopy.is_zero
    assert all(b.cols == 0 for b in kbasis.values())
    assert all(q.rows == 0 for q in kcoords.values())
    assert r.is_valid()


def test_build_retract_acyclic_two_term():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r, _ = build_retract(space, d)
    assert r.small.is_zero
    # the retract identity ip - id = dh + hd forces h = -(d|_C)^{-1}
    assert r.homotopy.block(0) == from_rows([[-1]])
    assert r.is_valid()


def test_build_retract_mixed_ranks():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r, _ = build_retract(space, d)
    assert r.small == GradedVectorSpace({0: 1, 1: 1})
    defects = r.identity_defects()
    assert all(v.is_zero for v in defects.values()), \
        {k: v.is_zero for k, v in defects.items()}


def test_build_retract_requires_square_zero():
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1), (2, 0, 0, 1)])
    with pytest.raises(NotSquareZero):
        build_retract(space, d)


def test_build_retract_valid_on_random_instances():
    rng = Random(31)
    for _ in range(30):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        r, (kbasis, _) = build_retract(space, d)
        assert r.is_valid()
        assert r.small == homology(d)
        for k in space.degrees:
            assert r.small.dim(k) + kbasis[k].cols == space.dim(k)


def test_alternative_retracts_valid():
    rng = Random(37)
    for _ in range(15):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        r = alternative_retract(space, d, rng)
        assert r.is_valid()
        assert r.small == homology(d)


def test_transfer_trivial_higher_structure():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r, _ = build_retract(space, d)
    m = Multicomplex.trivial(space, d)
    out = transfer_structure(r, m)
    assert out.transferred.is_trivial
    assert inclusion_extension(r, m, out.transferred).comps == [r.incl]
    assert out.p_inf.comps == [r.proj]


def test_transfer_identity_retract_returns_input():
    m = staircase4()
    r = identity_retract(m)
    out = transfer_structure(r, m)
    assert out.transferred == m
    assert validate_infinity_morphism(inclusion_extension(r, m, out.transferred)).ok
    assert validate_infinity_morphism(out.p_inf).ok


def test_transfer_space_mismatch():
    m = staircase4()
    other = GradedVectorSpace({0: 1})
    r, _ = build_retract(other, GradedMap.zero(other, other, -1))
    with pytest.raises(SpaceMismatch):
        transfer_structure(r, m)


def test_transfer_against_composition_enumeration_oracle():
    rng = Random(41)
    checked = 0
    for s in range(40):
        m = generate("a", 200 + s)
        r, _ = build_retract(m.space, m.delta(0))
        out = transfer_structure(r, m)
        for n in range(1, out.transferred.order + 2):
            assert out.transferred.delta(n) == oracle_transferred(r, m, n)
            checked += 1
    assert checked >= 40


def test_transfer_mixed_second_operator_is_single_word():
    # for a mixed complex the only weight-2 composition with delta_2 = 0 is
    # (1, 1), i.e. p delta h delta i
    rng = Random(43)
    for _ in range(10):
        m, _ = mixed_gauge_instance(rng)
        r = alternative_retract(m.space, m.delta(0), rng)
        out = transfer_structure(r, m)
        word = reduce(compose, [r.proj, m.delta(1), r.homotopy, m.delta(1), r.incl])
        assert out.transferred.delta(2) == word


def test_transfer_output_validates():
    for prof, seed in [("a", 7), ("a", 8), ("b", 7), ("c", 3), ("c", 9)]:
        m = generate(prof, seed)
        r, _ = build_retract(m.space, m.delta(0))
        out = transfer_structure(r, m)
        i_inf = inclusion_extension(r, m, out.transferred)
        assert validate_multicomplex(out.transferred).ok
        assert validate_infinity_morphism(i_inf).ok
        assert validate_infinity_morphism(out.p_inf).ok
        assert i_inf.comp(0) == r.incl
        assert out.p_inf.comp(0) == r.proj


def test_projection_retracts_inclusion_on_transferred():
    # with the side conditions the transferred quasi-isomorphisms compose to
    # the identity of the transferred complex
    for seed in range(12):
        m = generate("a", 900 + seed)
        r, _ = build_retract(m.space, m.delta(0))
        out = transfer_structure(r, m)
        i_inf = inclusion_extension(r, m, out.transferred)
        assert compose_infinity(out.p_inf, i_inf) == \
            InfinityMorphism.identity(out.transferred)


def test_hodge_data_trivial_and_obstructed():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r, _ = build_retract(space, d)
    assert check_hodge_data(r, Multicomplex.trivial(space, d)).ok

    zero_d = GradedMap.zero(space, space, -1)
    delta = GradedMap.from_entries(space, space, 1, [(0, 0, 0, 1)])
    m = Multicomplex(space, [zero_d, delta])
    r0, _ = build_retract(space, zero_d)
    res = check_hodge_data(r0, m)
    assert not res.ok and res.witness == 1
    # with d = 0 the homology is the space itself and the transferred
    # operator is delta itself
    assert transfer_structure(r0, m).transferred.delta(1) == delta


def test_hodge_data_builds_no_morphism_components(monkeypatch):
    # the verdict reads only the transferred operators, so no chain sum ends
    # in the homotopy (those feed only the projection's components)
    rightmost = []

    def recorded(m, h, right, nmax, _fn=transfer._chain_sums):
        rightmost.append(right)
        return _fn(m, h, right, nmax)
    monkeypatch.setattr(transfer, "_chain_sums", recorded)
    for seed in range(3):
        m = generate("a", 50 + seed)
        r, _ = build_retract(m.space, m.delta(0))
        check_hodge_data(r, m)
        assert rightmost and not any(right is r.homotopy for right in rightmost)
        rightmost.clear()
        transfer_structure(r, m)
        assert sum(right is r.homotopy for right in rightmost) == 1
        rightmost.clear()


def test_hodge_data_matches_transferred_vanishing():
    for seed in range(6):
        m = generate("a", 50 + seed)
        r, _ = build_retract(m.space, m.delta(0))
        res = check_hodge_data(r, m)
        out = transfer_structure(r, m)
        vanishes = all(out.transferred.delta(n).is_zero
                       for n in range(1, out.transferred.order + 1))
        assert res.ok == vanishes


def test_hodge_data_gauge_orbit_any_retract():
    # uniform vanishing: on gauge-orbit instances every deformation retract
    # is degeneration data, not just the canonical one
    rng = Random(47)
    for seed in range(5):
        m = generate("a", 300 + seed)
        canonical, _ = build_retract(m.space, m.delta(0))
        assert check_hodge_data(canonical, m).ok
        for _ in range(20):
            r = alternative_retract(m.space, m.delta(0), rng)
            assert check_hodge_data(r, m).ok


def test_staircase_transfer():
    m = staircase4()
    r, _ = build_retract(m.space, m.delta(0))
    out = transfer_structure(r, m)
    assert out.transferred.delta(1).is_zero
    assert not out.transferred.delta(2).is_zero
    res = check_hodge_data(r, m)
    assert not res.ok and res.witness == 2


def test_minimal_model_on_minimal_input():
    space = GradedVectorSpace({0: 1, 2: 1})
    delta = GradedMap.from_entries(space, space, 1, [])
    m = Multicomplex(space, [GradedMap.zero(space, space, -1)])
    model = minimal_model(m)
    assert model.minimal == m
    assert model.trivial.space.is_zero
    assert model.iso.comp(0) == GradedMap.identity(space)


def test_minimal_model_on_acyclic_input():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    m = Multicomplex.trivial(space, d)
    model = minimal_model(m)
    assert model.minimal.space.is_zero
    assert model.trivial.space == space
    assert homology(model.trivial.delta(0)).is_zero


def test_minimal_model_random_instances():
    for prof, seed in [("a", 11), ("a", 12), ("b", 11), ("c", 4), ("c", 1)]:
        m = generate(prof, seed)
        model = minimal_model(m)
        assert model.minimal.space == homology(m.delta(0))
        assert homology(model.trivial.delta(0)).is_zero
        assert validate_infinity_morphism(model.iso).ok
        iso_inv = invert_infinity(model.iso)
        assert validate_infinity_morphism(iso_inv).ok
        assert compose_infinity(iso_inv, model.iso) == InfinityMorphism.identity(m)
        assert compose_infinity(model.iso, iso_inv) == \
            InfinityMorphism.identity(model.iso.target)
        # the kept frame is the degree-0 part of the inverse
        assert iso_inv.comp(0) == model.frame


def complement_data(m):
    """The retract with K, q_0, iota_K, d_K and s built by products alone."""
    r, (kbasis, kcoords) = build_retract(m.space, m.delta(0))
    kspace = GradedVectorSpace({k: b.cols for k, b in kbasis.items()})
    q0 = GradedMap(m.space, kspace, 0, kcoords)
    i_k = GradedMap(kspace, m.space, 0, kbasis)
    d_k = reduce(compose, [q0, m.delta(0), i_k])
    s = reduce(compose, [q0, r.homotopy, i_k])
    return r, kspace, q0, i_k, d_k, s


def test_complement_from_the_splitting_contracts():
    instances = [m for _, _, m in corpus(60)] + hand_library()
    for m in instances:
        r, kspace, q0, i_k, d_k, s = complement_data(m)
        ident = GradedMap.identity(kspace)
        assert compose(q0, i_k) == ident
        assert compose(q0, r.incl).is_zero
        # d and h keep K, so the products are the restrictions themselves
        assert compose(m.delta(0), i_k) == compose(i_k, d_k)
        assert compose(r.homotopy, i_k) == compose(i_k, s)
        assert lincomb([(1, compose(d_k, s)), (1, compose(s, d_k))]) == ident.neg()
        for k in m.space.degrees:
            ker, _ = kernel_image(r.proj.block(k))
            assert Subspace(m.space.dim(k), i_k.block(k)) == ker
        assert minimal_model(m).trivial.delta(0) == d_k


def count_in_transfer(monkeypatch, name):
    calls = []
    real = getattr(transfer, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(transfer, name, counted)
    return calls


def test_minimal_model_eliminates_only_for_the_splitting(monkeypatch):
    kernels = count_in_transfer(monkeypatch, "kernel_image")
    solves = count_in_transfer(monkeypatch, "solve")
    for m in [generate("a", 5), generate("b", 5), staircase4()]:
        r, _ = build_retract(m.space, m.delta(0))
        assert len(kernels) == len(m.space.degrees)
        retract_solves = len(solves)
        del kernels[:], solves[:]
        minimal_model(m)
        assert len(kernels) == len(m.space.degrees)
        assert len(solves) == retract_solves
        del kernels[:], solves[:]
        check_hodge_data(r, m)
        assert not kernels and not solves
