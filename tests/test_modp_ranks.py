"""Ranks over Q against an independent elimination over F_p.

Every verdict rests on ranks from one fraction-free kernel, `exactla._rref`.
Here each rank the pipeline reads (the blocks of d, and through them the
homology, both boundaries of the total complex and the corner ranks
rho_n(s, t)) is recomputed by `oracles.rank_mod_p`, which shares no code
with it, at two fixed primes.
Over F_p a rank can only drop: a rank mod p above the rank over Q is a
defect, and a rank below it at both primes is a defect or an unlucky prime.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from multicx.exactla import Matrix, rank
from multicx.generators import corpus, generate, hand_library
from multicx.graded import GradedVectorSpace, homology
from multicx.spectral import total_complex
from oracles import PRIMES, geometry_outputs, rank_mod_p


def check_rank(m: Matrix, over_q: int, what: str) -> int:
    """over_q, a rank the package read, against m's ranks mod p; returns it."""
    for p in PRIMES:
        mod_p = rank_mod_p(m, p)
        assert mod_p <= over_q, ("%s: rank %d mod %d is above the rank %d over Q: a defect"
                                 % (what, mod_p, p, over_q))
        if mod_p == over_q:
            return over_q
    raise AssertionError("%s: rank %d over Q is above its rank at both primes: a defect "
                         "or an unlucky prime" % (what, over_q))


def check_ranks(m) -> int:
    """Every rank of d's blocks, the homology they give, and the ranks of
    both boundaries and of every corner block of the total complex of m;
    returns how many ranks were nonzero."""
    d = m.delta(0)
    ranks = {k: check_rank(d.block(k), rank(d.block(k)), "d at degree %d" % k)
             for k in m.space.degrees}
    assert homology(d) == GradedVectorSpace({k: n - ranks[k] - ranks.get(k + 1, 0)
                                             for k, n in m.space.dims.items()})
    nonzero = sum(map(bool, ranks.values()))
    t = total_complex(m)
    for n in (0, 1):
        b = t.boundary(n)
        nonzero += bool(check_rank(b, t.boundary_rank(n), "boundary(%d)" % n))
        below = t.levels(n - 1)
        below = below + [below[-1] + 1 if below else 0]
        for s in t.levels(n):
            columns = b.select_columns(t.filtration_indices(n, s))
            for u in below:
                corner = columns.select_rows(range(t._filtration_start(n - 1, u)))
                nonzero += bool(check_rank(corner, t.corner_rank(n, s, u),
                                           "rho_%d(%d, %d)" % (n, s, u)))
    return nonzero


def test_ranks_match_mod_p_on_the_corpus_library_and_geometry():
    instances = [m for _, _, m in corpus(60)] + hand_library() + geometry_outputs()
    assert sum(check_ranks(m) for m in instances) > 300


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from("abc"), st.integers(0, 10 ** 6))
def test_ranks_match_mod_p_on_generated_instances(profile, seed):
    check_ranks(generate(profile, seed))


@st.composite
def rational_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                      st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]))
    return Matrix(rows, cols, draw(st.lists(entry, max_size=rows * cols)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rational_matrices())
def test_ranks_match_mod_p_on_rational_matrices(m):
    # over Q, m m^T has the rank of m, and its columns are dependent
    # whenever m has more rows than its rank
    check_rank(m, rank(m), "matrix")
    square = m.mul(Matrix(m.cols, m.rows, [(c, r, v) for r, row in m.data.items()
                                           for c, v in row.items()]))
    assert check_rank(square, rank(square), "m m^T") == rank(m)
