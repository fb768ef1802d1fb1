from fractions import Fraction
from itertools import combinations, product as iproduct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicx.complexes import Multicomplex, OperatorSeries, validate_multicomplex
from multicx.errors import NotJacobi, ShapeMismatch
from multicx.derham import (
    FormAlgebra,
    OrderLadder,
    PolyVector,
    basic_subcomplex,
    contraction,
    d_de_rham,
    graded_commutator,
    jacobi_defects,
    jacobi_multicomplex,
    schouten,
    structure_order_ladder,
)
from multicx import derham, exactla
from multicx.derham import (
    _contraction_symbol,
    _d_symbol,
    _merge_sign,
    _order,
    _symbol_compose,
    _unit,
    _word,
)
from multicx.exactla import accumulate
from multicx.gauge import check_gauge_hodge
from multicx.graded import GradedMap, compose, lincomb
from oracles import (
    check_contraction_identity,
    coefficient_degree,
    coordinate_field,
    form_vector,
    homogeneous_schouten,
    monomial_contraction,
    monomial_d,
    polyvector_add,
    polyvector_sub,
    polyvector_wedge,
    reversed_contraction_symbol,
    solved_basic_subcomplex,
)


SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1,
                     ((1, 0, 0), (1, 2)): 1,
                     ((0, 1, 0), (0, 2)): -1})
CONTACT_W = PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
CONTACT_E = PolyVector(3, {((0, 0, 0), (2,)): -1})


def test_integer_structures_give_int_operators():
    # d, [i(w), d], i(e) i(w) and the gauge i(w) of an integer structure have
    # integer coefficients, and each is held as an int, not as a Fraction
    a = FormAlgebra(3, 4, weight=True)
    for w, e in [(SO3, PolyVector.zero(3)), (CONTACT_W, CONTACT_E)]:
        geo = jacobi_multicomplex(w, e, a)
        m = geo.multicomplex
        maps = [m.delta(n) for n in range(m.order + 1)] + [geo.gauge.coefficient(1, 2)]
        values = [v for f in maps for *_, v in f.entries()]
        assert values and all(type(v) is int for v in values)


def rand_polyvector(rng, dim, k, cdeg=1, density=0.4):
    terms = {}
    for J in combinations(range(dim), k):
        for alpha in iproduct(range(cdeg + 1), repeat=dim):
            if sum(alpha) <= cdeg and rng.random() < density:
                terms[(alpha, J)] = rng.randint(-2, 2)
    return PolyVector(dim, terms)


def wedge_multiplication(a, beta, J):
    """Left wedge multiplication by x^beta dx_J on the quotient."""
    beta, J = tuple(beta), tuple(J)

    def action(k, alpha, I):
        sign, merged = _merge_sign(J, I)
        if sign:
            yield (tuple(x + y for x, y in zip(beta, alpha)), merged), sign
    return a.operator(len(J), action)


def unit_form(a, alpha, I):
    return form_vector(a, {(tuple(alpha), tuple(I)): 1}, len(I))


def test_export_dimension_counting():
    for m, D in [(2, 2), (3, 2), (3, 3)]:
        a = FormAlgebra(m, D)
        n_alpha = len(a.monomials)
        from math import comb
        for k in range(m + 1):
            assert a.space.dim(-k) == comb(m, k) * n_alpha


def test_d_on_constants_and_monomials():
    a = FormAlgebra(2, 2)
    d = d_de_rham(a)
    assert d.block(0).mul(unit_form(a, (0, 0), ())).is_zero()
    out = d.block(-1).mul(unit_form(a, (1, 0), (1,)))  # d(x0 dx1) = dx0 ^ dx1
    assert out == unit_form(a, (0, 0), (0, 1))


def test_d_squared_zero_exhaustive():
    a = FormAlgebra(3, 3)
    d = d_de_rham(a)
    assert compose(d, d).is_zero


def test_wedge_graded_commutative_and_associative():
    # a form acts on the algebra by left wedge multiplication, and p ^ q is
    # that action applied to q
    rng = Random(3)
    a = FormAlgebra(3, 3)

    def rand_form(k):
        return {key: rng.choice([-2, -1, 1, 2]) for key in a.basis[k] if rng.random() < 0.2}

    def mult(p, k):
        return lincomb([(c, wedge_multiplication(a, alpha, I)) for (alpha, I), c in p.items()],
                       degree=-k, source=a.space, target=a.space)

    def wedge(p, kp, q, kq):
        vec = mult(p, kp).block(-kq).mul(form_vector(a, q, kq))
        return {a.basis[kp + kq][i]: c for (i, _), c in vec.entries.items()}

    for kp, kq in [(1, 1), (1, 2), (2, 1), (0, 2)]:
        p, q = rand_form(kp), rand_form(kq)
        sign = (-1) ** (kp * kq % 2)
        assert wedge(p, kp, q, kq) == {key: sign * c for key, c in wedge(q, kq, p, kp).items()}
        swapped = compose(mult(q, kq), mult(p, kp))
        assert compose(mult(p, kp), mult(q, kq)) == lincomb([(sign, swapped)])
    for _ in range(5):
        p, q = rand_form(1), rand_form(1)
        # (p ^ q) ^ x = p ^ (q ^ x) for every form x
        assert mult(wedge(p, 1, q, 1), 2) == compose(mult(p, 1), mult(q, 1))


def test_contraction_basic_values():
    a = FormAlgebra(3, 1)
    v0 = coordinate_field(3, 0)
    iv = contraction(a, v0)
    assert iv.block(-1).mul(unit_form(a, (0, 0, 0), (0,))) == unit_form(a, (0, 0, 0), ())
    w = PolyVector(3, {((0, 0, 0), (0, 1)): 1})
    iw = contraction(a, w)
    # degree reasons: a bivector kills one-forms
    assert iw.block(-1).is_zero()
    # frozen convention: i(d0 ^ d1)(dx0 ^ dx1) = +1
    out = iw.block(-2).mul(unit_form(a, (0, 0, 0), (0, 1)))
    assert out == unit_form(a, (0, 0, 0), ())


def test_contraction_is_odd_derivation_for_vector_fields():
    a = FormAlgebra(2, 2)
    v = coordinate_field(2, 1)
    iv = contraction(a, v)
    # [i(v), L_w] = L_{i(v) w} as graded commutator, for monomial forms w
    cases = [((1, 0), (0,)), ((0, 0), (1,)), ((0, 1), (0, 1))]
    for beta, J in cases:
        lw = wedge_multiplication(a, beta, J)
        bracket = graded_commutator(iv, lw)
        # contract dx_J by v = d1 by hand
        if 1 in J:
            pos = J.index(1)
            sign = (-1) ** pos
            rest = tuple(j for j in J if j != 1)
            assert bracket == lincomb([(sign, wedge_multiplication(a, beta, rest))])
        else:
            assert bracket.is_zero


def test_schouten_constant_and_lie_bracket():
    d0 = coordinate_field(3, 0)
    d1 = coordinate_field(3, 1)
    assert schouten(d0, d1).is_zero
    x0d1 = PolyVector(3, {((1, 0, 0), (1,)): 1})
    assert schouten(d0, x0d1) == d1


def test_schouten_so3_squares_to_zero():
    assert schouten(SO3, SO3).is_zero


def test_schouten_graded_antisymmetry_and_jacobi():
    rng = Random(11)
    for _ in range(15):
        pd, qd, rd = rng.choice([(1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 1)])
        p = rand_polyvector(rng, 3, pd)
        q = rand_polyvector(rng, 3, qd)
        r = rand_polyvector(rng, 3, rd)
        sign = (-1) ** ((pd - 1) * (qd - 1) % 2)
        assert schouten(p, q) == schouten(q, p).scale(-sign)
        # graded Jacobi identity
        s1 = schouten(p, schouten(q, r))
        s2 = schouten(schouten(p, q), r)
        s3 = schouten(q, schouten(p, r)).scale((-1) ** ((pd - 1) * (qd - 1) % 2))
        assert s1 == polyvector_add(s2, s3)


@st.composite
def mixed_polyvectors(draw, dim):
    """Sums of monomials of any vector degree, with int or Fraction coefficients."""
    monomial = st.tuples(st.tuples(*[st.integers(0, 2)] * dim),
                         st.sets(st.integers(0, dim - 1)).map(lambda s: tuple(sorted(s))))
    coefficient = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)])
    return PolyVector(dim, draw(st.lists(st.tuples(monomial, coefficient), max_size=5)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(mixed_polyvectors(dim),
                                                        mixed_polyvectors(dim))))
def test_schouten_matches_the_homogeneous_sum(pair):
    # one sum over monomial pairs against the sum over homogeneous parts:
    # the same terms, in the same key order, integral values held as ints
    p, q = pair
    got, want = schouten(p, q), homogeneous_schouten(p, q)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    first, second = jacobi_defects(p, q)
    assert first == polyvector_sub(homogeneous_schouten(p, p), polyvector_wedge(q, p).scale(2))
    assert second == homogeneous_schouten(q, p)


def test_structure_equations_build_two_polyvectors(monkeypatch):
    # each defect is summed once: no intermediate bracket, wedge or
    # homogeneous part is built (the per-part sum built 74 on this pair)
    built = []
    real = PolyVector.__init__

    def counted(self, *args):
        built.append(1)
        real(self, *args)
    monkeypatch.setattr(PolyVector, "__init__", counted)
    first, second = jacobi_defects(CONTACT_W, CONTACT_E)
    assert first.is_zero and second.is_zero
    assert len(built) == 2


def test_contraction_identity_trivial_and_random():
    c0 = coordinate_field(2, 0)
    c1 = coordinate_field(2, 1)
    assert check_contraction_identity(c0, c1)
    rng = Random(13)
    for dim in (2, 3):
        for _ in range(8):
            p = rand_polyvector(rng, dim, min(2, dim))
            q = rand_polyvector(rng, dim, rng.choice([1, 2]))
            assert check_contraction_identity(p, q)


def test_contraction_identity_negative_control(monkeypatch):
    # the reversed composite order flips signs on even factors and fails
    p = PolyVector(3, {((1, 0, 0), (0, 1)): 1})
    q = PolyVector(3, {((0, 1, 0), (1, 2)): 1})
    assert check_contraction_identity(p, q)
    monkeypatch.setattr(derham, "_contraction_symbol", reversed_contraction_symbol)
    assert not check_contraction_identity(p, q)


def test_koszul_delta_zero_and_symplectic_sign():
    a = FormAlgebra(2, 2)
    d = d_de_rham(a)
    assert graded_commutator(contraction(a, PolyVector.zero(2)), d).is_zero
    w = PolyVector(2, {((0, 0), (0, 1)): 1})
    delta = graded_commutator(contraction(a, w), d)
    # frozen convention: Delta(x0 dx0 ^ dx1) = -dx0
    out = delta.block(-2).mul(unit_form(a, (1, 0), (0, 1)))
    assert out == unit_form(a, (0, 0), (0,)).neg()


def test_anticommute_holds_for_any_bivector():
    rng = Random(17)
    a = FormAlgebra(3, 2)
    d = d_de_rham(a)
    for _ in range(6):
        w = rand_polyvector(rng, 3, 2, cdeg=1)
        delta = graded_commutator(contraction(a, w), d)
        assert lincomb([(1, compose(d, delta)), (1, compose(delta, d))]).is_zero


def test_verify_jacobi_cases():
    z = PolyVector.zero(3)
    for w, e in [(z, z), (SO3, z), (CONTACT_W, CONTACT_E)]:  # Poisson is Jacobi with E = 0
        assert all(defect.is_zero for defect in jacobi_defects(w, e))
    first, second = jacobi_defects(CONTACT_W, PolyVector.zero(3))
    assert not first.is_zero  # the contact bivector alone is not Poisson


def test_poisson_pipeline_symplectic_plane():
    w = PolyVector(2, {((0, 0), (0, 1)): 1})
    a = FormAlgebra(2, 2)
    geo = jacobi_multicomplex(w, PolyVector.zero(2), a)
    assert geo.multicomplex.order <= 1
    assert validate_multicomplex(geo.multicomplex).ok
    assert check_gauge_hodge(geo.gauge, geo.multicomplex).ok


def test_poisson_pipeline_rejects_non_poisson():
    # [bad, bad] = -2 x1 d0^d1^d2, by the biderivation expansion
    bad = PolyVector(3, {((0, 1, 0), (1, 2)): 1, ((0, 0, 1), (0, 2)): 1})
    bracket = schouten(bad, bad)
    assert bracket == PolyVector(3, {((0, 1, 0), (0, 1, 2)): -2})
    with pytest.raises(NotJacobi):
        jacobi_multicomplex(bad, PolyVector.zero(3), FormAlgebra(3, 2))


def test_poisson_pipeline_zero_bivector():
    a = FormAlgebra(2, 1)
    geo = jacobi_multicomplex(PolyVector.zero(2), PolyVector.zero(2), a)
    assert geo.multicomplex.order == 0


def test_jacobi_pipeline_contact_pair():
    a = FormAlgebra(3, 4, weight=True)
    geo = jacobi_multicomplex(CONTACT_W, CONTACT_E, a)
    assert geo.multicomplex.order == 2
    assert not geo.multicomplex.delta(2).is_zero
    assert validate_multicomplex(geo.multicomplex).ok
    assert check_gauge_hodge(geo.gauge, geo.multicomplex).ok


def test_jacobi_pipeline_poisson_reduction():
    # E = 0 reduces the builder to the mixed complex of a Poisson bivector
    a = FormAlgebra(3, 2)
    geo = jacobi_multicomplex(SO3, PolyVector.zero(3), a)
    assert geo.multicomplex.order <= 1
    assert geo.multicomplex == Multicomplex(
        a.space, [d_de_rham(a), graded_commutator(contraction(a, SO3), d_de_rham(a))])
    assert geo.gauge == OperatorSeries(a.space, {1: contraction(a, SO3)})


def test_jacobi_pipeline_rejects_non_jacobi():
    with pytest.raises(NotJacobi):
        jacobi_multicomplex(CONTACT_W, PolyVector.zero(3), FormAlgebra(3, 3, weight=True))


def test_basic_subcomplex_e_zero_recovers_everything():
    a = FormAlgebra(3, 2)
    basic = basic_subcomplex(SO3, PolyVector.zero(3), a)
    assert basic.multicomplex.space == a.space
    ref = jacobi_multicomplex(SO3, PolyVector.zero(3), a)
    # same dims and a valid mixed structure; bases may be permuted
    assert validate_multicomplex(basic.multicomplex).ok
    assert basic.multicomplex.space == ref.multicomplex.space


def test_basic_subcomplex_contact_pair():
    a = FormAlgebra(3, 4, weight=True)
    basic = basic_subcomplex(CONTACT_W, CONTACT_E, a)
    assert not basic.multicomplex.space.is_zero
    assert validate_multicomplex(basic.multicomplex).ok
    assert check_gauge_hodge(basic.gauge, basic.multicomplex).ok
    # every basic basis form stays basic under the square-lowering operator:
    # guaranteed by the builder's containment checks on d and i(w); check
    # the inclusion intertwines the operators exactly
    ie = contraction(a, CONTACT_E)
    delta = graded_commutator(contraction(a, CONTACT_W), d_de_rham(a))
    for k in basic.multicomplex.space.degrees:
        cols = basic.inclusions[k]
        assert ie.block(k).mul(cols).is_zero()
        img = delta.block(k).mul(cols)
        back = basic.inclusions.get(k + 1)
        if img.is_zero():
            continue
        from multicx.exactla import solve
        assert back is not None and solve(back, img) is not None


def test_poisson_contraction_commutes_with_induced_operator():
    # [i(w), delta] = i([w, w]) = 0 for a Poisson bivector
    a = FormAlgebra(3, 2)
    iw = contraction(a, SO3)
    delta = graded_commutator(iw, d_de_rham(a))
    assert graded_commutator(iw, delta).is_zero


def test_jacobi_bracket_identities_on_weight_model():
    a = FormAlgebra(3, 4, weight=True)
    iw = contraction(a, CONTACT_W)
    ie = contraction(a, CONTACT_E)
    d = d_de_rham(a)
    delta = graded_commutator(iw, d)
    delta2 = compose(ie, iw)
    # [i(w), delta] = 2 i(e) i(w) and [i(w), i(e) i(w)] = 0
    assert graded_commutator(iw, delta) == lincomb([(2, delta2)])
    assert graded_commutator(iw, delta2).is_zero
    # 2 i(w) d i(w) = i(w)^2 d + d i(w)^2 - 2 i(e) i(w)
    iw2 = compose(iw, iw)
    lhs = lincomb([(2, compose(iw, compose(d, iw)))])
    rhs = lincomb([(1, compose(iw2, d)), (1, compose(d, iw2)), (-2, delta2)])
    assert lhs == rhs


def multiplication_generators(a):
    """Left multiplications by the algebra generators x_i and dx_i."""
    zero = (0,) * a.dim
    gens = []
    for i in range(a.dim):
        e_i = tuple(int(t == i) for t in range(a.dim))
        gens += [wedge_multiplication(a, e_i, ()), wedge_multiplication(a, zero, (i,))]
    return gens


def ordered_operator_order(a, p, bound, probe_degree=None):
    """The order recursion over every ordered sequence of generators."""
    gens = multiplication_generators(a)

    def zero_enough(q):
        if q.is_zero:
            return True
        if probe_degree is None:
            return False
        return all(sum(a.basis[-k][c][0]) > probe_degree
                   for k, block in q.blocks.items() for (_, c) in block.entries)

    def rec(q, k):
        if q.is_zero:
            return True
        if k < 0:
            return zero_enough(q)
        return all(rec(graded_commutator(q, g), k - 1) for g in gens)

    return rec(p, bound)


def generator_symbol(dim, kind, i):
    return _word(_unit(dim), [(kind, i)])


def delta_symbol(w):
    iw, d = _contraction_symbol(w), _d_symbol(w.dim)
    return accumulate(_symbol_compose(iw, d), _symbol_compose(d, iw).items(), -1)


def apply_symbol(sym, alpha, I):
    """S(f) for the form monomial f = x^alpha dx_I: the derivative-free part
    of S o L_f, as {(beta, J): c}."""
    zero = (0,) * len(alpha)
    out = _symbol_compose(sym, {(tuple(alpha), tuple(I), zero, ()): 1})
    return {(beta, J): c for (beta, J, a, b), c in out.items() if not any(a) and not b}


def column(a, op, k, col):
    """Column col of op on form degree k, as {(beta, J): c}."""
    out_basis = a.basis.get(k - op.degree, [])
    return {out_basis[r]: v for (r, c), v in op.block(-k).entries.items() if c == col}


def assert_symbols_match_matrices(a, pairs):
    """Each (symbol, matrix, margin) agrees on every column whose image and
    intermediate factors the window does not cut: margin bounds the
    polynomial degree any factor adds."""
    checked = 0
    for sym, op, margin in pairs:
        for k in range(a.dim + 1):
            for col, (alpha, I) in enumerate(a.basis[k]):
                if sum(alpha) + margin <= a.truncation:
                    assert apply_symbol(sym, alpha, I) == column(a, op, k, col), (alpha, I)
                    checked += 1
    assert checked


def structure_pairs(a, w, e):
    """(symbol, matrix, margin) for d, i(w), delta and, given e, i(e) i(w)."""
    c_w = coefficient_degree(w)
    pairs = [(_d_symbol(a.dim), d_de_rham(a), 0),
             (_contraction_symbol(w), contraction(a, w), c_w),
             (delta_symbol(w), graded_commutator(contraction(a, w), d_de_rham(a)), c_w)]
    if e is not None:
        pairs.append((_symbol_compose(_contraction_symbol(e), _contraction_symbol(w)),
                      compose(contraction(a, e), contraction(a, w)),
                      c_w + coefficient_degree(e)))
    return pairs


PLANE_MONOMIALS = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
PLANE_COEFFICIENTS = st.sampled_from([0, 0, 1, -1, 2, -3])


@st.composite
def plane_structures(draw):
    """A bivector with coefficients of degree <= 2 on the plane, and either
    None or a vector field with coefficients of degree <= 1."""
    w = PolyVector(2, {(alpha, (0, 1)): draw(PLANE_COEFFICIENTS)
                       for alpha in PLANE_MONOMIALS})
    e = None
    if draw(st.booleans()):
        e = PolyVector(2, {(alpha, (j,)): draw(PLANE_COEFFICIENTS)
                           for alpha in PLANE_MONOMIALS if sum(alpha) <= 1 for j in (0, 1)})
    return w, e


def test_generator_symbols_match_multiplications_and_have_order_zero():
    a = FormAlgebra(2, 2)
    gens = multiplication_generators(a)
    pairs = []
    for i in range(2):
        pairs += [(generator_symbol(2, "x", i), gens[2 * i], 1),
                  (generator_symbol(2, "theta", i), gens[2 * i + 1], 0)]
    assert_symbols_match_matrices(a, pairs)
    for sym, op, _ in pairs:
        assert _order(sym) == 0
        assert ordered_operator_order(a, op, 0)
    lad = structure_order_ladder(PolyVector(2, {((0, 0), (0, 1)): 1}))
    assert lad.d == 1
    assert lad.delta1 == 2


@pytest.mark.parametrize("w, e", [(SO3, None), (CONTACT_W, CONTACT_E)])
def test_symbols_match_matrix_builders(w, e):
    a = FormAlgebra(3, 3)
    assert_symbols_match_matrices(a, structure_pairs(a, w, e))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(plane_structures())
def test_symbols_match_matrix_builders_on_the_plane(structure):
    a = FormAlgebra(2, 4)
    assert_symbols_match_matrices(a, structure_pairs(a, *structure))


def matrix_ladder(w, e=None):
    """The verdicts d <= 0, d <= 1, delta1 <= 1, delta1 <= 2 and delta2 <= 3
    (None without e) by the ordered commutator walk, on the windows the
    matrix ladder used: probe + bound + 1 + coefficient degree, with the zero
    test read on the columns of polynomial degree <= probe."""
    def walk(build, probe, bound, margin, bounds):
        a = FormAlgebra(w.dim, probe + bound + 1 + margin)
        op = build(a)
        return [ordered_operator_order(a, op, b, probe) for b in bounds]

    c_w = coefficient_degree(w)
    d0, d1 = walk(d_de_rham, 1, 1, 0, (0, 1))
    l1, l2 = walk(lambda a: graded_commutator(contraction(a, w), d_de_rham(a)), 1, 2, c_w, (1, 2))
    l3 = None
    if e is not None:
        l3, = walk(lambda a: compose(contraction(a, e), contraction(a, w)),
                   0, 3, c_w + coefficient_degree(e), (3,))
    return d0, d1, l1, l2, l3


def ladder_bounds(ladder):
    """The verdicts `matrix_ladder` decides, read off the orders."""
    return (ladder.d <= 0, ladder.d <= 1, ladder.delta1 <= 1, ladder.delta1 <= 2,
            None if ladder.delta2 is None else ladder.delta2 <= 3)


@pytest.mark.parametrize("w, e", [(SO3, None), (CONTACT_W, CONTACT_E)])
def test_order_ladder_matches_matrix_walk(w, e):
    assert ladder_bounds(structure_order_ladder(w, e)) == matrix_ladder(w, e)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(plane_structures())
def test_order_ladder_matches_matrix_walk_on_the_plane(structure):
    assert ladder_bounds(structure_order_ladder(*structure)) == matrix_ladder(*structure)


# (symbol, matrix builder, exported degree, polynomial degree it can add):
# the generators (order 0), d (order 1), and contractions by a rotation
# field and by a bivector; words in them have orders up to the word length
ROTATION = PolyVector(2, {((0, 1), (0,)): 1, ((1, 0), (1,)): -1})
PLANE_BIVECTOR = PolyVector(2, {((1, 0), (0, 1)): 1})
WORD_ATOMS = [atom for i in range(2) for atom in (
    (generator_symbol(2, "x", i),
     lambda a, i=i: wedge_multiplication(a, tuple(int(t == i) for t in range(2)), ()), 0, 1),
    (generator_symbol(2, "theta", i), lambda a, i=i: wedge_multiplication(a, (0, 0), (i,)), -1, 0))]
WORD_ATOMS += [(_d_symbol(2), d_de_rham, -1, 0),
               (_contraction_symbol(ROTATION), lambda a: contraction(a, ROTATION), 1, 1),
               (_contraction_symbol(PLANE_BIVECTOR),
                lambda a: contraction(a, PLANE_BIVECTOR), 2, 1)]


@st.composite
def word_operators(draw):
    """A combination of words in WORD_ATOMS of one degree, as
    [(coefficient, word)], the first atom of a word innermost."""
    words = draw(st.lists(st.lists(st.sampled_from(WORD_ATOMS), max_size=3),
                          min_size=1, max_size=3))
    degree = sum(atom[2] for atom in words[0])
    return [(draw(st.sampled_from([1, -1, 2, -2])), word) for word in words
            if sum(atom[2] for atom in word) == degree]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(word_operators(), st.integers(0, 2))
def test_symbol_order_matches_ordered_walk(terms, bound):
    # the zero test on columns of degree <= probe, the symbol's x-derivative
    # order, decides the order of the untruncated operator once the window
    # covers probe + bound + 1 + the polynomial degree the words add
    sym = {}
    for c, word in terms:
        word_sym = _unit(2)
        for atom in word:
            word_sym = _symbol_compose(atom[0], word_sym)
        accumulate(sym, word_sym.items(), c)
    probe = max((sum(a) for (_, _, a, _) in sym), default=0)
    margin = max(sum(atom[3] for atom in word) for _, word in terms)
    a = FormAlgebra(2, probe + bound + 1 + margin)
    ops = []
    for c, word in terms:
        op = GradedMap.identity(a.space)
        for atom in word:
            op = compose(atom[1](a), op)
        ops.append((c, op))
    assert (_order(sym) <= bound) == ordered_operator_order(a, lincomb(ops), bound, probe)


def test_ladder_builds_no_window_and_composes_no_matrix(monkeypatch):
    counts = {"FormAlgebra": 0, "compose": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(derham, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(derham, name, counted)
    structure_order_ladder(SO3)
    structure_order_ladder(CONTACT_W, CONTACT_E)
    assert counts == {"FormAlgebra": 0, "compose": 0}


def test_order_ladder_beyond_the_matrix_walk():
    # x1 d1^d2 + x3 d3^d4 in dimension 4 and the Lie-Poisson bivector of
    # so3 (+) so3 in dimension 6, where the matrix walk was out of reach
    dim4 = PolyVector(4, {((1, 0, 0, 0), (0, 1)): 1, ((0, 0, 1, 0), (2, 3)): 1})
    so3_sum = PolyVector(6, [(((alpha + (0,) * 3), J), c) for (alpha, J), c in SO3.terms.items()]
                         + [((((0,) * 3 + alpha), tuple(j + 3 for j in J)), c)
                            for (alpha, J), c in SO3.terms.items()])
    for w in (dim4, so3_sum):
        assert schouten(w, w).is_zero
        assert structure_order_ladder(w) == OrderLadder(d=1, delta1=2, delta2=None)


def test_order_ladder_jacobi():
    lad = structure_order_ladder(CONTACT_W, CONTACT_E)
    assert lad.d == 1
    assert lad.delta1 <= 2
    assert lad.delta2 <= 3


def test_contraction_requires_homogeneous():
    mixed = PolyVector(2, {((0, 0), (0,)): 1, ((0, 0), (0, 1)): 1})
    with pytest.raises(ShapeMismatch):
        contraction(FormAlgebra(2, 1), mixed)


# ---- assembly against the monomial oracle ----

@st.composite
def homogeneous_polyvectors(draw, dim):
    """A random polyvector of one vector degree, with coefficients of
    polynomial degree at most 2 that are ints or Fractions."""
    k = draw(st.integers(0, dim))
    keys = [(alpha, J) for J in combinations(range(dim), k)
            for alpha in iproduct(range(3), repeat=dim) if sum(alpha) <= 2]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6))
    coefficient = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    return PolyVector(dim, [(key, draw(coefficient)) for key in chosen])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_assembly_matches_the_monomial_oracle(data):
    # d and i(p) assembled straight into their blocks, with the window read
    # off `position`, equal the term-by-term assembly with the cutoff rule;
    # an integral entry is held as an int
    dim = data.draw(st.integers(1, 4))
    a = FormAlgebra(dim, data.draw(st.integers(0, 5)), weight=data.draw(st.booleans()))
    p = data.draw(homogeneous_polyvectors(dim))
    for built, expected in [(d_de_rham(a), monomial_d(a)),
                            (contraction(a, p), monomial_contraction(a, p))]:
        assert built == expected
        assert all(type(v) is int for *_, v in built.entries()
                   if Fraction(v).denominator == 1)


def test_signs_are_read_once_per_form_index(monkeypatch):
    # d merges dx_i into each form index I once, and i(p) chains each term
    # through each I once, however many monomials share I
    calls = {"_merge_sign": 0, "_iota_chain": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(derham, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(derham, name, counted)
    for dim in range(1, 5):
        for weight in (False, True):
            a = FormAlgebra(dim, 4, weight=weight)
            calls.update(_merge_sign=0, _iota_chain=0)
            d_de_rham(a)
            contraction(a, SO3 if dim == 3 else coordinate_field(dim, 0))
            assert calls["_merge_sign"] <= dim * 2 ** dim
            assert calls["_iota_chain"] <= 3 * 2 ** dim


# ---- the basic complex against the solved restriction ----

def test_basic_subcomplex_matches_the_solved_restriction():
    # coordinates read off the kernel bases' free rows, with delta the
    # commutator on the basic forms, equal [i(w), d] built on all forms and
    # restricted by solving
    pairs = [(CONTACT_W, CONTACT_E, trunc) for trunc in range(3, 9)] + [(SO3, PolyVector.zero(3), 3)]
    for w, e, trunc in pairs:
        a = FormAlgebra(3, trunc, weight=True)
        assert basic_subcomplex(w, e, a) == solved_basic_subcomplex(w, e, a)


def test_basic_build_eliminates_once_per_degree(monkeypatch):
    # one kernel per degree; the restrictions read coordinates off the
    # kernel bases and solve nothing
    counts = {"_rref": 0, "solve": 0}
    for name in counts:
        real = getattr(exactla, name)

        def counted(*args, _name=name, _fn=real):
            counts[_name] += 1
            return _fn(*args)
        for mod in (exactla, derham):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    a = FormAlgebra(3, 6, weight=True)
    basic_subcomplex(CONTACT_W, CONTACT_E, a)
    assert counts == {"_rref": 4, "solve": 0} and len(a.space.degrees) == 4
