from functools import reduce
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicx.complexes import (
    InfinityMorphism,
    Multicomplex,
    compose_infinity,
    invert_infinity,
    validate_infinity_morphism,
    validate_multicomplex,
)
from multicx import transfer
from multicx.derham import FormAlgebra, PolyVector, jacobi_multicomplex
from multicx.errors import NotSquareZero, SpaceMismatch
from multicx.exactla import Matrix, Subspace, complement, kernel_image
from multicx.generators import (
    corpus,
    generate,
    hand_library,
    rand_series,
    rand_space,
    rand_square_zero,
    staircase4,
)
from multicx.gauge import gauge_construct
from multicx.graded import GradedMap, GradedVectorSpace, compose, homology, lincomb
from multicx.transfer import (
    alternative_retract,
    build_retract,
    check_hodge_data,
    minimal_model,
    transfer_structure,
)
from oracles import (
    complement_maps,
    frame_isomorphism,
    from_rows,
    full_space,
    identity_defects,
    inclusion_extension,
    mixed_gauge_instance,
)


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
    """The identity retract of m onto itself, which no splitting gives:
    only the seven attributes that the transfer reads."""
    ident = GradedMap.identity(m.space)
    return SimpleNamespace(
        big=m.space, small=m.space, proj=ident, incl=ident,
        homotopy=GradedMap.zero(m.space, m.space, 1),
        d_big=m.delta(0), d_small=m.delta(0))


def defects_vanish(r):
    return all(v.is_zero for v in identity_defects(r).values())


def test_build_retract_zero_differential():
    space = GradedVectorSpace({0: 2, 1: 1})
    r = build_retract(space, GradedMap.zero(space, space, -1))
    assert r.small == space
    assert r.proj == GradedMap.identity(space)
    assert r.incl == GradedMap.identity(space)
    assert r.homotopy.is_zero
    assert {k: (h.cols, b.cols, c.cols) for k, (h, b, c) in r.bases.items()} == \
        {0: (2, 0, 0), 1: (1, 0, 0)}
    assert defects_vanish(r)


def test_build_retract_acyclic_two_term():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r = build_retract(space, d)
    assert r.small.is_zero
    # the retract identity ip - id = dh + hd forces h = -(d|_C)^{-1}
    assert r.homotopy.block(0) == from_rows([[-1]])
    assert defects_vanish(r)


def test_build_retract_mixed_ranks():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r = build_retract(space, d)
    assert r.small == GradedVectorSpace({0: 1, 1: 1})
    defects = identity_defects(r)
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
        r = build_retract(space, d)
        assert defects_vanish(r)
        assert r.small == homology(d)
        for k, (_, b, c) in r.bases.items():
            assert r.small.dim(k) + b.cols + c.cols == space.dim(k)


def test_alternative_retracts_valid():
    rng = Random(37)
    for _ in range(15):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        r = alternative_retract(build_retract(space, d), rng)
        assert defects_vanish(r)
        assert r.small == homology(d)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 10 ** 9))
def test_splitting_and_its_twists(seed):
    rng = Random(seed)
    space = rand_space(rng)
    d = rand_square_zero(rng, space, -1, force_nonzero=rng.random() < 0.5)
    canonical = build_retract(space, d)
    r = alternative_retract(canonical, rng)
    for s in (canonical, r):
        for k, (h, b, c) in s.bases.items():
            # F F^{-1} = id, and d C_{k+1} = B_k: the invariant that makes
            # the homotopy a product
            assert h.hstack(b).hstack(c).mul(reduce(Matrix.vstack, s.coords[k])) == \
                Matrix.identity(space.dim(k))
            c_above = s.bases[k + 1][2] if k + 1 in s.bases else Matrix(0, 0)
            assert d.block(k + 1).mul(c_above) == b
    assert defects_vanish(r)
    assert r.small == homology(d)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from("ab"), st.integers(0, 10 ** 4), st.integers(0, 10 ** 9))
def test_twisted_retracts_give_the_canonical_verdict(profile, gseed, seed):
    m = generate(profile, gseed)
    canonical = build_retract(m.space, m.delta(0))
    twisted = alternative_retract(canonical, Random(seed))
    assert check_hodge_data(twisted, m) == check_hodge_data(canonical, m)


def test_transfer_trivial_higher_structure():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r = build_retract(space, d)
    m = Multicomplex.trivial(space, d)
    out = transfer_structure(r, m)
    assert out.transferred.order == 0
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
    r = build_retract(other, GradedMap.zero(other, other, -1))
    with pytest.raises(SpaceMismatch):
        transfer_structure(r, m)


def test_transfer_against_composition_enumeration_oracle():
    rng = Random(41)
    checked = 0
    for s in range(40):
        m = generate("a", 200 + s)
        r = build_retract(m.space, m.delta(0))
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
        r = alternative_retract(build_retract(m.space, m.delta(0)), rng)
        out = transfer_structure(r, m)
        word = reduce(compose, [r.proj, m.delta(1), r.homotopy, m.delta(1), r.incl])
        assert out.transferred.delta(2) == word


def test_transfer_output_validates():
    for prof, seed in [("a", 7), ("a", 8), ("b", 7), ("c", 3), ("c", 9)]:
        m = generate(prof, seed)
        r = build_retract(m.space, m.delta(0))
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
        r = build_retract(m.space, m.delta(0))
        out = transfer_structure(r, m)
        i_inf = inclusion_extension(r, m, out.transferred)
        assert compose_infinity(out.p_inf, i_inf) == \
            InfinityMorphism.identity(out.transferred)


def test_hodge_data_trivial_and_obstructed():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    r = build_retract(space, d)
    assert check_hodge_data(r, Multicomplex.trivial(space, d)).ok

    zero_d = GradedMap.zero(space, space, -1)
    delta = GradedMap.from_entries(space, space, 1, [(0, 0, 0, 1)])
    m = Multicomplex(space, [zero_d, delta])
    r0 = build_retract(space, zero_d)
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
        r = build_retract(m.space, m.delta(0))
        check_hodge_data(r, m)
        assert rightmost and not any(right is r.homotopy for right in rightmost)
        rightmost.clear()
        transfer_structure(r, m)
        assert sum(right is r.homotopy for right in rightmost) == 1
        rightmost.clear()


def test_hodge_data_matches_transferred_vanishing():
    for seed in range(6):
        m = generate("a", 50 + seed)
        r = build_retract(m.space, m.delta(0))
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
        canonical = build_retract(m.space, m.delta(0))
        assert check_hodge_data(canonical, m).ok
        for _ in range(20):
            r = alternative_retract(canonical, rng)
            assert check_hodge_data(r, m).ok


def test_staircase_transfer():
    m = staircase4()
    r = build_retract(m.space, m.delta(0))
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
    # the retract is the identity, so the carried model is m itself
    assert model.iso == InfinityMorphism.identity(m)


def test_minimal_model_on_acyclic_input():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    m = Multicomplex.trivial(space, d)
    model = minimal_model(m)
    assert model.minimal.space.is_zero
    # all of A is the acyclic complement, and no higher operator moves it
    assert model.iso == InfinityMorphism.identity(m)


def test_minimal_model_random_instances():
    for prof, seed in [("a", 11), ("a", 12), ("b", 11), ("b", 12), ("c", 4), ("c", 1)]:
        m = generate(prof, seed)
        model = minimal_model(m)
        r = model.retract
        assert model.minimal.space == homology(m.delta(0))
        # the target is the minimal model carried onto A by the retract
        carried = [m.delta(0)] + [reduce(compose, [r.incl, model.minimal.delta(n), r.proj])
                                  for n in range(1, model.minimal.order + 1)]
        assert model.iso.target == Multicomplex(m.space, carried)
        assert validate_multicomplex(model.iso.target).ok
        assert validate_infinity_morphism(model.iso).ok
        iso_inv = invert_infinity(model.iso)
        assert validate_infinity_morphism(iso_inv).ok
        assert compose_infinity(iso_inv, model.iso) == InfinityMorphism.identity(m)
        assert compose_infinity(model.iso, iso_inv) == \
            InfinityMorphism.identity(model.iso.target)
        assert iso_inv.comp(0) == model.iso.comp(0) == GradedMap.identity(m.space)


def iso_instances():
    return [m for _, _, m in corpus(60)] + hand_library()


def test_isomorphism_matches_the_direct_sum_construction():
    # psi_n = i p_n - h sum_{k<n} psi_k delta_{n-k} against i p_n + [B | C] q_n,
    # the isomorphism onto minimal (+) K read back through the frame
    for m in iso_instances():
        model = minimal_model(m)
        assert model.iso == frame_isomorphism(model)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_isomorphism_matches_the_direct_sum_construction_on_orbits(seed):
    rng = Random(seed)
    space = rand_space(rng)
    d = rand_square_zero(rng, space, -1)
    model = minimal_model(gauge_construct(d, rand_series(rng, space)))
    assert model.iso == frame_isomorphism(model)
    assert validate_infinity_morphism(model.iso).ok


def test_isomorphism_composes_no_later_component(monkeypatch):
    # psi_n = i p_n - h delta_n: h i = 0 and h h = 0 give h psi_k = 0 for
    # k >= 1, so the perturbation recursion keeps only its k = 0 term and
    # no component past psi_0 is ever composed again
    lefts = []
    real = transfer.compose

    def recorded(g, f):
        lefts.append(g)
        return real(g, f)
    monkeypatch.setattr(transfer, "compose", recorded)
    orbits = [m for profile, _, m in corpus(60) if profile == "a"]
    longest = 0
    for m in orbits:
        del lefts[:]
        comps = minimal_model(m).iso.comps
        longest = max(longest, len(comps))
        assert not any(g is psi for g in lefts for psi in comps[1:])
    assert longest > 2


SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1,
                     ((1, 0, 0), (1, 2)): 1,
                     ((0, 1, 0), (0, 2)): -1})


def nonzeros(f):
    return sum(len(block.entries) for block in f.blocks.values())


def test_twisted_homotopy_stays_sparse():
    # so3 as the Jacobi pair (w, 0) at trunc 6: the sparse twist keeps each
    # randomized homotopy within 10x the canonical one's nonzeros, where a
    # dense draw of phi, psi_H and psi_B fills it in about 150x
    a = FormAlgebra(3, 6, weight=True)
    m = jacobi_multicomplex(SO3, PolyVector.zero(3), a).multicomplex
    canonical = build_retract(m.space, m.delta(0))
    rng = Random(1)
    for _ in range(2):
        twisted = alternative_retract(canonical, rng)
        assert defects_vanish(twisted)
        assert nonzeros(twisted.homotopy) <= 10 * nonzeros(canonical.homotopy)


def test_isomorphism_checks_the_homotopy_identity():
    # a doubled homotopy still satisfies h i = 0 and p h = 0, but no longer
    # contracts the complement of the homology representatives
    for m in [generate("a", 3), staircase4()]:
        model = minimal_model(m)
        r = model.retract
        assert not r.homotopy.is_zero
        r.homotopy = r.homotopy.scale(2)
        with pytest.raises(NotSquareZero):
            model.iso


def complement_data(m):
    """The retract with K, q_0, iota_K, d_K and s built by products alone."""
    r = build_retract(m.space, m.delta(0))
    i_k, q0 = complement_maps(r)
    kspace = i_k.source
    d_k = reduce(compose, [q0, m.delta(0), i_k])
    s = reduce(compose, [q0, r.homotopy, i_k])
    return r, kspace, q0, i_k, d_k, s


def test_complement_from_the_splitting_contracts():
    for m in iso_instances():
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
        # the identity that folds the recursion on K into the homotopy term
        # of the isomorphism on A
        assert compose(i_k, q0) == lincomb([(1, GradedMap.identity(m.space)),
                                            (-1, compose(r.incl, r.proj))])


def count_in_transfer(monkeypatch, name):
    calls = []
    real = getattr(transfer, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(transfer, name, counted)
    return calls


def test_minimal_model_eliminates_only_for_the_splitting(monkeypatch):
    # per degree one kernel, one complement (H of B in ker d; C is read off
    # the kernel's pivots) and the frame inverse; the model, the verdict and
    # every twisted retract eliminate nothing more
    kernels = count_in_transfer(monkeypatch, "_kernel")
    complements = count_in_transfer(monkeypatch, "complement")
    solves = count_in_transfer(monkeypatch, "solve")
    rng = Random(53)
    for m in [generate("a", 5), generate("b", 5), staircase4()]:
        degrees = len(m.space.degrees)
        r = build_retract(m.space, m.delta(0))
        assert (len(kernels), len(complements), len(solves)) == (degrees, degrees, degrees)
        del kernels[:], complements[:], solves[:]
        minimal_model(m)
        assert (len(kernels), len(complements), len(solves)) == (degrees, degrees, degrees)
        del kernels[:], complements[:], solves[:]
        check_hodge_data(r, m)
        for _ in range(3):
            alt = alternative_retract(r, rng)
            check_hodge_data(alt, m)
        assert not kernels and not complements and not solves


def test_complement_of_the_kernel_is_the_greedy_one():
    # C_k, the unit vectors at d_k's pivot columns, is the complement that
    # scanning the standard basis of Q^n and keeping each vector that
    # enlarges ker d_k + span(kept) picks
    for m in iso_instances():
        r = build_retract(m.space, m.delta(0))
        for k, n in m.space.dims.items():
            ker, _ = kernel_image(m.delta(0).block(k))
            assert r.bases[k][2] == complement(ker, full_space(n)).basis, k
