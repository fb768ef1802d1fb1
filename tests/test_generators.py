from random import Random

from multicx.complexes import validate_multicomplex
from multicx.gauge import NoGauge, find_gauge
from multicx.generators import (
    corpus,
    generate,
    hand_library,
    rand_automorphism,
    rand_space,
    rand_square_zero,
    invert_degree_zero,
)
from multicx.graded import GradedMap, compose
from multicx.transfer import minimal_model
from oracles import mixed_commutator_instance, mixed_gauge_instance


def test_rand_square_zero_really_squares_to_zero():
    rng = Random(2)
    for _ in range(40):
        space = rand_space(rng)
        for degree in (-1, 1):
            d = rand_square_zero(rng, space, degree)
            assert compose(d, d).is_zero


def test_rand_automorphism_invertible():
    rng = Random(3)
    for _ in range(10):
        space = rand_space(rng)
        g = rand_automorphism(rng, space)
        gi = invert_degree_zero(g)
        assert compose(g, gi) == GradedMap.identity(space)


def test_every_profile_validates():
    for seed in range(25):
        for profile in "abc":
            assert validate_multicomplex(generate(profile, seed)).ok


def test_profiles_realize_both_gauge_verdicts():
    for seed in range(8):
        assert not isinstance(find_gauge(minimal_model(generate("a", seed))), NoGauge)
        assert isinstance(find_gauge(minimal_model(generate("b", seed))), NoGauge)


def test_hand_library_members_validate():
    lib = hand_library()
    assert len(lib) >= 5
    for m in lib:
        assert validate_multicomplex(m).ok


def test_corpus_is_deterministic_and_mixed():
    c1 = corpus(12)
    c2 = corpus(12)
    assert [(p, s) for p, s, _ in c1] == [(p, s) for p, s, _ in c2]
    assert all(a == b for (_, _, a), (_, _, b) in zip(c1, c2))
    profiles = {p for p, _, _ in c1}
    assert profiles == {"a", "b", "c"}


def test_mixed_generators_produce_mixed_instances():
    rng = Random(9)
    for _ in range(10):
        m, series = mixed_gauge_instance(rng)
        assert m.is_mixed
        assert validate_multicomplex(m).ok
    m = mixed_commutator_instance(Random(11))
    assert m.is_mixed
    assert validate_multicomplex(m).ok
