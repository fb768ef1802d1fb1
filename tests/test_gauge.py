from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicx.complexes import (
    InfinityMorphism,
    Multicomplex,
    compose_infinity,
    invert_infinity,
    validate_multicomplex,
)
from multicx.errors import BadConstantTerm, SpaceMismatch
from multicx.gauge import (
    NoGauge,
    OperatorSeries,
    check_gauge_hodge,
    conjugate_differential,
    conjugate_series,
    find_gauge,
    gauge_construct,
    power_cap,
    series_exp,
    series_log,
    series_mul,
)
from multicx.generators import (
    generate,
    rand_graded_map,
    rand_series,
    rand_space,
    rand_square_zero,
    staircase4,
)
from multicx.graded import GradedMap, GradedVectorSpace, compose, lincomb
from multicx.transfer import build_retract, minimal_model, nonzero_weights
from oracles import (
    HodgeDataFails,
    mixed_commutator_instance,
    mixed_complex_gauge,
    mixed_gauge_coefficient,
    mixed_gauge_instance,
)


WIDE = GradedVectorSpace({0: 2, 2: 2, 4: 2, 6: 2})


def rand_isotopy_series(rng, space):
    coeffs = {0: GradedMap.identity(space)}
    for n in (1, 2):
        f = rand_graded_map(rng, space, space, 2 * n, 0.5)
        if not f.is_zero:
            coeffs[n] = f
    return OperatorSeries(space, coeffs)


def test_unit_is_neutral():
    rng = Random(3)
    a = rand_isotopy_series(rng, WIDE)
    unit = OperatorSeries.unit(WIDE)
    assert series_mul(a, unit) == a
    assert series_mul(unit, a) == a


def test_telescoping_product():
    n_map = GradedMap.from_entries(WIDE, WIDE, 2,
                                   [(0, r, c, r + c + 1) for r in range(2) for c in range(2)])
    plus = OperatorSeries(WIDE, {0: GradedMap.identity(WIDE), 1: n_map})
    minus = OperatorSeries(WIDE, {0: GradedMap.identity(WIDE), 1: n_map.neg()})
    prod = series_mul(plus, minus)
    expected = OperatorSeries(WIDE, {
        0: GradedMap.identity(WIDE),
        2: compose(n_map, n_map).neg(),
    })
    assert prod == expected


def test_series_mul_convolution_oracle():
    rng = Random(5)
    for _ in range(25):
        space = rand_space(rng)
        a = rand_isotopy_series(rng, space)
        b = rand_isotopy_series(rng, space)
        prod = series_mul(a, b)
        for n in range(power_cap(space) + 1):
            conv = lincomb(
                [(1, compose(a.coefficient(k, 2 * k), b.coefficient(n - k, 2 * (n - k))))
                 for k in range(n + 1)],
                degree=2 * n, source=space, target=space)
            assert prod.coefficient(n, 2 * n) == conv


def test_series_mul_associative():
    rng = Random(7)
    for _ in range(15):
        space = rand_space(rng)
        a, b, c = (rand_isotopy_series(rng, space) for _ in range(3))
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_exp_of_zero_and_degree_truncation():
    assert series_exp(OperatorSeries.zero(WIDE)) == OperatorSeries.unit(WIDE)
    narrow = GradedVectorSpace({0: 2, 2: 2})
    r1 = GradedMap.from_entries(narrow, narrow, 2, [(0, 0, 0, 5), (0, 1, 1, 2)])
    e = series_exp(OperatorSeries.single(1, r1))
    # width 2 < 4 kills r1 squared, so exp stops after the linear term
    assert e == OperatorSeries(narrow, {0: GradedMap.identity(narrow), 1: r1})


def test_exp_requires_zero_constant_term():
    with pytest.raises(BadConstantTerm):
        series_exp(OperatorSeries.unit(WIDE))
    with pytest.raises(BadConstantTerm):
        series_log(OperatorSeries.zero(WIDE))


def test_log_exp_round_trip_random():
    rng = Random(11)
    for _ in range(100):
        space = rand_space(rng)
        r = rand_series(rng, space)
        assert series_log(series_exp(r)) == r


def test_exp_inverse():
    rng = Random(13)
    for _ in range(20):
        space = rand_space(rng)
        a = rand_series(rng, space)
        prod = series_mul(series_exp(a), series_exp(a.neg()))
        assert prod == OperatorSeries.unit(space)


def test_conjugate_differential_zero_and_central():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    conj = conjugate_differential(OperatorSeries.zero(space), d)
    assert conj == OperatorSeries.from_constant(d)
    # a coefficient commuting with d leaves the differential alone
    central = GradedMap.zero(space, space, 2)
    conj = conjugate_differential(OperatorSeries.single(1, central), d)
    assert conj == OperatorSeries.from_constant(d)


def test_conjugate_differential_first_order():
    rng = Random(17)
    for _ in range(20):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        r1 = rand_graded_map(rng, space, space, 2, 0.5)
        conj = conjugate_differential(OperatorSeries.single(1, r1), d)
        bracket = compose(r1, d).sub(compose(d, r1))
        assert conj.coefficient(1, 1) == bracket


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_conjugate_series_matches_triple_product(seed):
    # the ad-exponential against the literal exp(r) D exp(-r) on random
    # nilpotent series r and random operator families D
    rng = Random(seed)
    space = rand_space(rng)
    r = rand_series(rng, space)
    d_series = rand_series(rng, space, orders=(0, 1, 2))
    direct = series_mul(series_exp(r), series_mul(d_series, series_exp(r.neg())))
    assert conjugate_series(r, d_series) == direct


def test_check_gauge_trivial_and_impossible():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.zero(space, space, -1)
    m = Multicomplex.trivial(space, d)
    assert check_gauge_hodge(OperatorSeries.zero(space), m).ok
    delta = GradedMap.from_entries(space, space, 1, [(0, 0, 0, 1)])
    obstructed = Multicomplex(space, [d, delta])
    rng = Random(19)
    for _ in range(10):
        r = rand_series(rng, space)
        res = check_gauge_hodge(r, obstructed)
        assert not res.ok and res.witness == 1


def test_gauge_construct_zero_series_and_zero_differential():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    assert gauge_construct(d, OperatorSeries.zero(space)) == Multicomplex.trivial(space, d)
    rng = Random(23)
    zero_d = GradedMap.zero(space, space, -1)
    for _ in range(10):
        m = gauge_construct(zero_d, rand_series(rng, space))
        assert m.is_trivial and m.delta(0).is_zero


def test_gauge_construct_always_validates():
    rng = Random(29)
    for _ in range(60):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        m = gauge_construct(d, rand_series(rng, space))
        assert validate_multicomplex(m).ok
        res = check_gauge_hodge(rand_series(rng, space), m)
        assert res.ok or res.witness is not None


def test_gauge_construct_satisfies_its_own_gauge():
    rng = Random(31)
    for _ in range(30):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        series = rand_series(rng, space)
        m = gauge_construct(d, series)
        assert check_gauge_hodge(series, m).ok


def test_find_gauge_trivial_and_obstructed():
    space = GradedVectorSpace({0: 1, 1: 1})
    m = Multicomplex.zero(space)
    out = find_gauge(minimal_model(m))
    assert isinstance(out, OperatorSeries) and out.is_zero
    delta = GradedMap.from_entries(space, space, 1, [(0, 0, 0, 1)])
    obstructed = Multicomplex(space, [GradedMap.zero(space, space, -1), delta])
    out = find_gauge(minimal_model(obstructed))
    assert isinstance(out, NoGauge) and out.witness == 1
    assert not out


def test_find_gauge_round_trip_on_gauge_orbits():
    for seed in range(15):
        m = generate("a", 500 + seed)
        out = find_gauge(minimal_model(m))
        assert isinstance(out, OperatorSeries)
        assert check_gauge_hodge(out, m).ok


def inverse_isomorphism_gauge(model):
    """The gauge read off the inverse isomorphism: log of iso^{-1} composed
    with the strict splitting map iso_0 out of (A, d)."""
    weights = nonzero_weights(model.minimal)
    if weights:
        return NoGauge(witness=weights[0])
    m = model.iso.source
    bare = Multicomplex.trivial(m.space, m.delta(0))
    strict = InfinityMorphism(bare, model.iso.target, [model.iso.comp(0)])
    psi = compose_infinity(invert_infinity(model.iso), strict)
    return series_log(OperatorSeries(m.space, {n: psi.comp(n) for n in range(psi.order + 1)}))


def test_find_gauge_matches_the_inverse_isomorphism_on_the_corpus(acceptance_corpus):
    for _, _, m in acceptance_corpus:
        model = minimal_model(m)
        assert find_gauge(model) == inverse_isomorphism_gauge(model)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_find_gauge_matches_the_inverse_isomorphism_on_orbits(seed):
    # -log(frame o iso) against log(iso^{-1} o iso_0) on random gauge orbits
    rng = Random(seed)
    space = rand_space(rng)
    d = rand_square_zero(rng, space, -1)
    model = minimal_model(gauge_construct(d, rand_series(rng, space)))
    found = find_gauge(model)
    assert isinstance(found, OperatorSeries)
    assert found == inverse_isomorphism_gauge(model)


def test_find_gauge_staircase_witness():
    out = find_gauge(minimal_model(staircase4()))
    assert isinstance(out, NoGauge) and out.witness == 2


def test_gauge_exponential_is_an_isotopy_from_bare_complex():
    # conjugating by exp(R) intertwines d with the full operator family, so
    # exp(R) viewed as a morphism family from (A, d) to m must validate
    from multicx.complexes import Multicomplex, validate_infinity_morphism
    for seed in range(10):
        m = generate("a", 800 + seed)
        series = find_gauge(minimal_model(m))
        assert isinstance(series, OperatorSeries)
        bare = Multicomplex.trivial(m.space, m.delta(0))
        u = series_exp(series)
        iso = InfinityMorphism(bare, m, [u.coefficient(n, 2 * n)
                                         for n in range(u.max_power + 1)])
        assert iso.is_isotopy
        assert validate_infinity_morphism(iso).ok


def test_mixed_gauge_zero_second_operator():
    space = GradedVectorSpace({0: 2, 1: 2})
    d = rand_square_zero(Random(41), space, -1)
    r, _ = build_retract(space, d)
    series = mixed_complex_gauge(r, GradedMap.zero(space, space, 1))
    assert series.is_zero


def test_mixed_gauge_weight_one_coefficient():
    # r_1 = h delta - incl proj delta h
    rng = Random(43)
    for _ in range(15):
        m, _ = mixed_gauge_instance(rng)
        if m.order < 1:
            continue
        r, _ = build_retract(m.space, m.delta(0))
        delta = m.delta(1)
        series = mixed_complex_gauge(r, delta)
        expected = compose(r.homotopy, delta).sub(
            compose(compose(r.incl, r.proj), compose(delta, r.homotopy)))
        assert series.coefficient(1, 2) == expected
        assert mixed_gauge_coefficient(r, delta, 1) == expected


def test_mixed_gauge_matches_closed_form_and_conjugates():
    rng = Random(47)
    for _ in range(6):
        m = mixed_commutator_instance(rng)
        r, _ = build_retract(m.space, m.delta(0))
        series = mixed_complex_gauge(r, m.delta(1))
        assert check_gauge_hodge(series, m).ok
        for n in range(1, power_cap(m.space) + 1):
            assert series.coefficient(n, 2 * n) == mixed_gauge_coefficient(r, m.delta(1), n)


def test_mixed_gauge_rejects_obstructed():
    m = staircase4()
    r, _ = build_retract(m.space, m.delta(0))
    with pytest.raises(HodgeDataFails):
        mixed_complex_gauge(r, m.delta(1))


def test_space_mismatch_guard():
    a = OperatorSeries.zero(WIDE)
    b = OperatorSeries.zero(GradedVectorSpace({0: 1}))
    with pytest.raises(SpaceMismatch):
        series_mul(a, b)
