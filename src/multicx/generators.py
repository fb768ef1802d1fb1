"""Seeded random instances for tests, acceptance runs, and the CLI.

Three generator profiles:

  a. gauge orbit: a random square-zero differential conjugated by a random
     gauge series; the transferred structure always vanishes.
  b. obstructed: a minimal piece with a nonzero square-zero weight-1 operator,
     summed with an acyclic trivial piece and gauge-conjugated; the
     transferred structure never vanishes.
  c. a small hand library of mixed complexes covering the edge cases.

Random square-zero differentials are built in canonical form (basis vectors
paired across adjacent degrees) and conjugated by random unit-triangular
automorphisms, which keeps every entry a small rational.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .complexes import Multicomplex
from .exactla import Matrix, solve
from .gauge import OperatorSeries, conjugate_multicomplex, gauge_construct
from .graded import GradedMap, GradedVectorSpace, compose

ENTRY_POOL = [-2, -1, -1, 1, 1, 2, Fraction(1, 2), Fraction(-1, 2)]


def rand_entry(rng: Random):
    return rng.choice(ENTRY_POOL)


def rand_space(rng: Random, max_width=6, max_dim=4, lo_range=(-3, 0)) -> GradedVectorSpace:
    lo = rng.randint(*lo_range)
    width = rng.randint(1, max_width)
    dims = {}
    for k in range(lo, lo + width + 1):
        if rng.random() < 0.85:
            dims[k] = rng.randint(1, max_dim)
    if not dims:
        dims[lo] = 1
    return GradedVectorSpace(dims)


def rand_graded_map(rng: Random, src, tgt, degree, density=0.4) -> GradedMap:
    ent = []
    for k in src.degrees:
        rows, cols = tgt.dim(k + degree), src.dim(k)
        for r in range(rows):
            for c in range(cols):
                if rng.random() < density:
                    ent.append((k, r, c, rand_entry(rng)))
    return GradedMap.from_entries(src, tgt, degree, ent)


def rand_invertible(rng: Random, n: int) -> Matrix:
    """Product of a few small elementary operations; determinant +-1, so the
    inverse also has small entries."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        elem = Matrix.identity(n)
        elem.entries[(i, j)] = Fraction(rng.choice([-2, -1, 1, 2]))
        m = elem.mul(m)
    return m


def rand_automorphism(rng: Random, space: GradedVectorSpace) -> GradedMap:
    return GradedMap(space, space, 0,
                     {k: rand_invertible(rng, d) for k, d in space.dims.items()})


def invert_degree_zero(g: GradedMap) -> GradedMap:
    blocks = {}
    for k in g.source.degrees:
        blocks[k] = solve(g.block(k), Matrix.identity(g.source.dim(k)))
    return GradedMap(g.source, g.source, 0, blocks)


def rand_square_zero(rng: Random, space: GradedVectorSpace, degree: int,
                     conjugate=True, force_nonzero=False) -> GradedMap:
    """Random square-zero degree +-1 map: canonical pairing plus conjugation.

    A basis vector consumed as a source is never reused as a target, which
    forces the square to vanish; conjugation by a random automorphism hides
    the canonical form.
    """
    used_as_target = {k: 0 for k in space.dims}
    used_as_source = {k: 0 for k in space.dims}
    ent = []
    for k in space.degrees:
        tgt = k + degree
        if space.dim(tgt) == 0:
            continue
        avail_src = space.dim(k) - used_as_source.get(k, 0) - used_as_target.get(k, 0)
        avail_tgt = space.dim(tgt) - used_as_target.get(tgt, 0) - used_as_source.get(tgt, 0)
        cap = min(avail_src, avail_tgt)
        if cap <= 0:
            continue
        r = rng.randint(0, cap)
        if force_nonzero and not r and cap:
            r = 1
        for t in range(r):
            # sources come off the tail, targets fill the head; the avail
            # bounds above keep the two ranges disjoint
            src_index = space.dim(k) - 1 - used_as_source[k]
            tgt_index = used_as_target[tgt]
            ent.append((k, tgt_index, src_index, 1))
            used_as_source[k] += 1
            used_as_target[tgt] += 1
    d0 = GradedMap.from_entries(space, space, degree, ent)
    if not conjugate:
        return d0
    g = rand_automorphism(rng, space)
    return compose(compose(invert_degree_zero(g), d0), g)


def rand_series(rng: Random, space, orders=(1, 2), density=0.35) -> OperatorSeries:
    coeffs = {}
    for n in orders:
        f = rand_graded_map(rng, space, space, 2 * n, density)
        if not f.is_zero:
            coeffs[n] = f
    return OperatorSeries(space, coeffs)


def profile_a(rng: Random, max_width=6, max_dim=4):
    """Gauge orbit of a random (d, R); always satisfies the gauge condition."""
    space = rand_space(rng, max_width, max_dim)
    d = rand_square_zero(rng, space, -1)
    series = rand_series(rng, space)
    return gauge_construct(d, series), series


def profile_b(rng: Random, max_width=5, max_dim=2):
    """Minimal piece with nonzero weight-1 operator plus acyclic trivial
    piece, gauge-conjugated; the spectral sequence never degenerates."""
    for _ in range(64):
        h_space = rand_space(rng, max_width, max_dim, lo_range=(-2, 0))
        mu = rand_square_zero(rng, h_space, 1, conjugate=True, force_nonzero=True)
        if not mu.is_zero:
            break
    else:
        raise RuntimeError("could not draw a nonzero square-zero weight-1 operator")
    dims = dict(h_space.dims)
    pair_deg = rng.choice(h_space.degrees)
    pairs = rng.randint(1, 2)
    dims[pair_deg] = dims.get(pair_deg, 0) + pairs
    dims[pair_deg - 1] = dims.get(pair_deg - 1, 0) + pairs
    space = GradedVectorSpace(dims)
    off_src = h_space.dim(pair_deg)
    off_tgt = h_space.dim(pair_deg - 1)
    d_ent = [(pair_deg, off_tgt + t, off_src + t, 1) for t in range(pairs)]
    d = GradedMap.from_entries(space, space, -1, d_ent)
    mu_ent = [(k, r, c, v) for k, r, c, v in mu.entries()]
    mu_big = GradedMap.from_entries(space, space, 1, mu_ent)
    base = Multicomplex(space, [d, mu_big])
    series = rand_series(rng, space, orders=(1,), density=0.25)
    return conjugate_multicomplex(series, base)


def staircase4() -> Multicomplex:
    """Mixed complex on four lines: the weight-1 transferred operator
    vanishes but the weight-2 one does not, so the spectral sequence has its
    first nonzero differential on page 2."""
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1, 3: 1})
    d = GradedMap.from_entries(space, space, -1, [(2, 0, 0, 1)])
    delta = GradedMap.from_entries(space, space, 1, [(0, 0, 0, 1), (2, 0, 0, 1)])
    return Multicomplex(space, [d, delta])


def hand_library():
    """Small fixed mixed complexes covering the interesting corners."""
    point = Multicomplex.zero(GradedVectorSpace({0: 1}))
    two = GradedVectorSpace({0: 1, 1: 1})
    acyclic = Multicomplex.trivial(
        two, GradedMap.from_entries(two, two, -1, [(1, 0, 0, 1)]))
    obstructed = Multicomplex(two, [
        GradedMap.zero(two, two, -1),
        GradedMap.from_entries(two, two, 1, [(0, 0, 0, 1)]),
    ])
    wide = GradedVectorSpace({0: 1, 1: 2, 2: 1})
    all_homology = Multicomplex.zero(wide)
    mixed_space = GradedVectorSpace({0: 2, 1: 2, 2: 1})
    d = GradedMap.from_entries(mixed_space, mixed_space, -1, [(1, 0, 0, 1)])
    gauged = gauge_construct(d, OperatorSeries.single(
        1, GradedMap.from_entries(mixed_space, mixed_space, 2, [(0, 0, 1, 1)])))
    return [point, acyclic, obstructed, staircase4(), all_homology, gauged]


def profile_c(rng: Random) -> Multicomplex:
    lib = hand_library()
    return lib[rng.randrange(len(lib))]


def generate(profile: str, seed: int) -> Multicomplex:
    rng = Random(seed)
    if profile == "a":
        return profile_a(rng)[0]
    if profile == "b":
        return profile_b(rng)
    if profile == "c":
        return profile_c(rng)
    raise ValueError("unknown profile %r" % profile)


PROFILE_CYCLE = "abcaab"


def corpus(count: int, base_seed=0):
    """Deterministic corpus cycling the three profiles, weighted toward the
    gauge-orbit one."""
    out = []
    for s in range(count):
        profile = PROFILE_CYCLE[s % len(PROFILE_CYCLE)]
        out.append((profile, base_seed + s, generate(profile, base_seed + s)))
    return out

