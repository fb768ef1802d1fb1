from random import Random

import pytest

from multicx.errors import DegreeMismatch, NotSquareZero, ShapeMismatch
from multicx.exactla import Matrix
from multicx.graded import (
    GradedMap,
    GradedVectorSpace,
    compose,
    homology,
    lincomb,
    max_component_index,
)
from oracles import from_rows


def rand_map(rng, src, tgt, degree, density=0.6):
    ent = []
    for k in src.degrees:
        rows, cols = tgt.dim(k + degree), src.dim(k)
        for r in range(rows):
            for c in range(cols):
                if rng.random() < density:
                    ent.append((k, r, c, rng.randint(-2, 2)))
    return GradedMap.from_entries(src, tgt, degree, ent)


def rand_space(rng, width=4, maxdim=3):
    lo = rng.randint(-2, 1)
    dims = {}
    for k in range(lo, lo + rng.randint(1, width)):
        if rng.random() < 0.8:
            dims[k] = rng.randint(1, maxdim)
    return GradedVectorSpace(dims)


def test_space_basics():
    v = GradedVectorSpace({0: 2, 3: 1})
    assert v.dim(0) == 2 and v.dim(1) == 0
    assert v.width == 3
    assert GradedVectorSpace({1: 0}).is_zero


def test_map_shape_validation():
    v = GradedVectorSpace({0: 2, 1: 1})
    with pytest.raises(Exception):
        GradedMap(v, v, -1, {1: Matrix.identity(1)})  # wants 2x1
    f = GradedMap(v, v, -1, {1: Matrix(2, 1, [(0, 0, 1)])})
    assert f.block(1).rows == 2
    assert f.block(0).is_zero()  # implicit zero block of shape 0x2


def test_compose_identity_and_zero():
    v = GradedVectorSpace({0: 2, 1: 2})
    f = rand_map(Random(1), v, v, -1)
    ident = GradedMap.identity(v)
    assert compose(ident, f) == f
    assert compose(f, ident) == f
    z = GradedMap.zero(v, v, 1)
    assert compose(f, z).is_zero


def test_compose_degree_and_block_product():
    v = GradedVectorSpace({0: 2, 1: 2})
    down = GradedMap(v, v, -1, {1: from_rows([[1, 2], [0, 1]])})
    up = GradedMap(v, v, 1, {0: from_rows([[0, 1], [1, 0]])})
    both = compose(down, up)
    assert both.degree == 0
    assert both.block(0) == from_rows([[1, 2], [0, 1]]).mul(
        from_rows([[0, 1], [1, 0]]))


def test_compose_space_mismatch():
    a = GradedVectorSpace({0: 1})
    b = GradedVectorSpace({0: 2})
    f = GradedMap.zero(a, a, 0)
    g = GradedMap.zero(b, b, 0)
    with pytest.raises(ShapeMismatch):
        compose(g, f)


def test_lincomb_cancellation_and_empty():
    v = GradedVectorSpace({0: 1, 1: 1})
    f = rand_map(Random(3), v, v, -1)
    assert lincomb([(1, f), (-1, f)]).is_zero
    z = lincomb([], degree=5, source=v, target=v)
    assert z.is_zero and z.degree == 5
    with pytest.raises(DegreeMismatch):
        lincomb([])


def test_lincomb_scalar_arithmetic():
    v = GradedVectorSpace({0: 1, 1: 1})
    f = GradedMap(v, v, -1, {1: from_rows([[5]])})
    g = GradedMap(v, v, -1, {1: from_rows([[7]])})
    out = lincomb([(2, f), (3, g)])
    assert out.block(1) == from_rows([[31]])


def test_lincomb_distributes_over_compose():
    rng = Random(5)
    v = GradedVectorSpace({0: 2, 1: 2, 2: 2})
    for _ in range(20):
        f = rand_map(rng, v, v, -1)
        g = rand_map(rng, v, v, -1)
        h = rand_map(rng, v, v, 1)
        lhs = compose(lincomb([(2, f), (-3, g)]), h)
        rhs = lincomb([(2, compose(f, h)), (-3, compose(g, h))])
        assert lhs == rhs


def test_compose_associative_random():
    rng = Random(9)
    for _ in range(20):
        v = rand_space(rng)
        f = rand_map(rng, v, v, -1)
        g = rand_map(rng, v, v, 1)
        h = rand_map(rng, v, v, -1)
        assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_homology_zero_differential():
    v = GradedVectorSpace({0: 2, 1: 1})
    assert homology(GradedMap.zero(v, v, -1)) == v


def test_homology_acyclic_two_term():
    v = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap(v, v, -1, {1: from_rows([[1]])})
    assert homology(d).is_zero


def test_homology_mixed_ranks():
    # kernel/image oracle: d1 = [[1,0],[0,0]] has rank 1, so one class
    # survives in each degree
    v = GradedVectorSpace({0: 2, 1: 2})
    d = GradedMap(v, v, -1, {1: from_rows([[1, 0], [0, 0]])})
    assert homology(d) == GradedVectorSpace({0: 1, 1: 1})


def test_homology_requires_square_zero():
    v = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    d = GradedMap(v, v, -1, {1: from_rows([[1]]), 2: from_rows([[1]])})
    with pytest.raises(NotSquareZero):
        homology(d)


def euler_characteristic(v):
    return sum((-1) ** (k % 2) * d for k, d in v.dims.items())


def test_homology_euler_characteristic_random():
    rng = Random(13)
    for _ in range(25):
        v = rand_space(rng)
        if v.is_zero:
            continue
        # build a valid differential by zeroing out a random candidate's
        # square via the canonical pairing trick: here brute-force retry
        for _ in range(50):
            d = rand_map(rng, v, v, -1, density=0.3)
            from multicx.graded import compose as comp
            if comp(d, d).is_zero:
                break
        else:
            continue
        h = homology(d)
        assert euler_characteristic(v) == euler_characteristic(h)


def test_max_component_index():
    v = GradedVectorSpace({0: 1, 5: 1})
    assert max_component_index(v, v, 2, -1) == 3  # degree 2n-1 <= 5
    assert max_component_index(v, v, 2, 0) == 2   # degree 2n <= 5
    z = GradedVectorSpace({})
    assert max_component_index(z, v, 2, 0) == -1
