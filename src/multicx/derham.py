"""Polynomial differential forms and polyvector fields on R^m, truncated by
polynomial degree, and the operators that make the de Rham complex of a
Poisson or Jacobi structure a mixed complex or multicomplex.

Coordinates are 0-based internally.  A form monomial is (alpha, I): exponent
tuple and strictly increasing index tuple for x^alpha dx_I; a polyvector
monomial is (alpha, J) for x^alpha in the exterior algebra of coordinate
vector fields.  Form degree k is exported at homological degree -k, so the
de Rham differential has degree -1 and contraction by a bivector degree +2.

Truncation compresses everything onto the span of the basis monomials: a
monomial is in the window exactly when it has a row in `position`.  See
FormAlgebra for the two windows and when operator identities survive the
compression exactly.  The order ladder needs no window: it reads each
operator's order off its normal-ordered symbol, a polynomial differential
operator on the untruncated algebra Q[x, dx].

Sign conventions are pinned by the contraction/bracket compatibility check
`check_contraction_identity` rather than trusted: with the frozen choices
(the factors of i(v_1 ^ ... ^ v_k) applied to the form in listed order, and
the odd-bracket convention below) the identity
i([P, Q]) = -[[i(Q), d], i(P)] holds as an identity of symbols on every
tested pair, while composing the factors the other way round breaks it.
Under the frozen choice i(v_0 ^ v_1)(dx_0 ^ dx_1) = +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from operator import add

from .complexes import Multicomplex, OperatorSeries
from .errors import NotContained, NotJacobi, ShapeMismatch
from .exactla import Matrix, _kernel, accumulate, rat
from .graded import GradedMap, GradedVectorSpace, compose, lincomb


def _merge_sign(left, right):
    """Sign of sorting the concatenation left + right, or 0 on overlap."""
    if set(left) & set(right):
        return 0, ()
    inversions = sum(1 for j in left for i in right if j > i)
    merged = tuple(sorted(left + right))
    return (-1) ** (inversions % 2), merged


def _bumped(t, i, step):
    """The tuple t with step added to entry i."""
    return t[:i] + (t[i] + step,) + t[i + 1:]


def _iota_chain(indices, application_order):
    """Contract dx_I by the given coordinate directions, in the given order."""
    sign = 1
    cur = list(indices)
    for j in application_order:
        if j not in cur:
            return 0, ()
        pos = cur.index(j)
        sign *= (-1) ** pos
        cur.pop(pos)
    return sign, tuple(cur)


class PolyVector:
    """Polynomial-coefficient polyvector field, sparse on (alpha, J)."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        items = terms.items() if isinstance(terms, dict) else (terms or [])
        self.terms = {key: rat(c) for key, c in sorted(accumulate({}, self._checked(items)).items())}

    def _checked(self, items):
        """The ((alpha, J), Fraction) items, each checked to be a monomial."""
        for (alpha, J), c in items:
            alpha, J = tuple(alpha), tuple(J)
            if len(alpha) != self.dim or any(e < 0 for e in alpha):
                raise ShapeMismatch("bad exponent vector %r" % (alpha,))
            if list(J) != sorted(set(J)) or any(not 0 <= j < self.dim for j in J):
                raise ShapeMismatch("indices must be strictly increasing in range")
            yield (alpha, J), rat(c)

    @staticmethod
    def zero(dim: int) -> "PolyVector":
        return PolyVector(dim)

    def __eq__(self, other):
        return (isinstance(other, PolyVector) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        return "PolyVector(dim %d, %d terms)" % (self.dim, len(self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def vector_degrees(self):
        return sorted({len(J) for (_, J) in self.terms})

    def is_homogeneous(self, k: int) -> bool:
        return all(len(J) == k for (_, J) in self.terms)

    def add(self, other: "PolyVector") -> "PolyVector":
        return PolyVector(self.dim, chain(self.terms.items(), other.terms.items()))

    def scale(self, a) -> "PolyVector":
        a = rat(a)
        return PolyVector(self.dim, {k: a * c for k, c in self.terms.items()})

    def neg(self) -> "PolyVector":
        return self.scale(-1)

    def sub(self, other: "PolyVector") -> "PolyVector":
        return self.add(other.neg())

    def wedge(self, other: "PolyVector") -> "PolyVector":
        return PolyVector(self.dim, _wedge_terms(self.terms.items(), other.terms.items(),
                                                 lambda J1, J2: 1))


def _wedge_terms(left, right, factor):
    """The terms of left ^ right for two iterables of terms, the product of
    x^a1 d_J1 and x^a2 d_J2 taken factor(J1, J2) times."""
    right = list(right)
    for (a1, J1), c1 in left:
        for (a2, J2), c2 in right:
            sign, J = _merge_sign(J1, J2)
            if sign:
                yield (tuple(map(add, a1, a2)), J), sign * factor(J1, J2) * c1 * c2


def _x_derivative(terms, i):
    """Terms of the derivative in x_i, as (key, value) pairs."""
    for (alpha, J), c in terms.items():
        if alpha[i]:
            yield (_bumped(alpha, i, -1), J), c * alpha[i]


def _right_theta_derivative(terms, i):
    """Terms of the right derivative in the odd variable of direction i."""
    for (alpha, J), c in terms.items():
        if i in J:
            sign = (-1) ** (len(J) - 1 - J.index(i))
            yield (alpha, tuple(j for j in J if j != i)), sign * c


def _schouten_terms(p: PolyVector, q: PolyVector):
    """The terms of [p, q]: over each direction i,
    (d^R p / d theta_i) ^ (d q / d x_i)
    - (-1)^((|p| - 1)(|q| - 1)) (d^R q / d theta_i) ^ (d p / d x_i).
    Each monomial pair reads its sign off its own index lengths, so p and q
    need not be homogeneous and no homogeneous part is split off."""
    for i in range(p.dim):
        yield from _wedge_terms(_right_theta_derivative(p.terms, i),
                                _x_derivative(q.terms, i), lambda J1, J2: 1)
        yield from _wedge_terms(_right_theta_derivative(q.terms, i), _x_derivative(p.terms, i),
                                lambda J1, J2: -(-1) ** (len(J1) * (len(J2) - 1) % 2))


def schouten(p: PolyVector, q: PolyVector) -> PolyVector:
    """Schouten-Nijenhuis bracket, the odd bracket extending the Lie bracket
    of vector fields; bidegree |p| + |q| - 1 on homogeneous inputs."""
    if p.dim != q.dim:
        raise ShapeMismatch("polyvectors on different spaces")
    return PolyVector(p.dim, _schouten_terms(p, q))


def jacobi_defects(w: PolyVector, e: PolyVector):
    """The two structure equations of a Jacobi pair, as exact defects, each
    summed once: [w, w] - 2 e ^ w and [e, w]."""
    first = chain(_schouten_terms(w, w),
                  _wedge_terms(e.terms.items(), w.terms.items(), lambda J1, J2: -2))
    return PolyVector(w.dim, first), schouten(e, w)


def _check_structure(w: PolyVector, e: PolyVector):
    """Raise NotJacobi, carrying the defects, unless the structure equations hold."""
    first, second = jacobi_defects(w, e)
    if not (first.is_zero and second.is_zero):
        raise NotJacobi("the pair fails the structure equations", (first, second))


class FormAlgebra:
    """Monomial basis of the truncated form algebra and operator builders.

    Two truncation semantics share one class.  The default keeps monomials
    with polynomial degree |alpha| <= truncation; compressing operators onto
    it is exact for the differential and for wedge but can lose
    raise-then-lower composites at the top degree.  With weight=True the
    window reads |alpha| + |I| <= truncation, the degree of x^alpha dx_I
    under rescaling of the coordinates.  That ideal is stable under wedge,
    the differential, and contraction by fields of coefficient degree at
    most 2 (resp. 1 for vector fields), so on the weight quotient every
    operator identity holds verbatim; the Jacobi builders rely on this.
    Either way `position[k]` holds exactly the monomials of form degree k in
    the window, so membership in it is the truncation test.
    """

    def __init__(self, dim: int, truncation: int, weight: bool = False):
        if dim < 0 or truncation < 0:
            raise ShapeMismatch("dimension and truncation must be nonnegative")
        self.dim = dim
        self.truncation = truncation
        self.weight = weight
        self.monomials = sorted(self._exponents(), key=lambda a: (sum(a), a))
        self.basis = {k: [(alpha, I) for alpha in self.monomials
                          if not (weight and sum(alpha) + k > truncation)
                          for I in combinations(range(dim), k)] for k in range(dim + 1)}
        self.position = {k: {key: pos for pos, key in enumerate(items)}
                         for k, items in self.basis.items()}
        self.space = GradedVectorSpace({-k: len(self.basis[k]) for k in range(dim + 1)})

    def _exponents(self):
        def rec(prefix, remaining, slots):
            if slots == 0:
                yield tuple(prefix)
                return
            for e in range(remaining + 1):
                yield from rec(prefix + [e], remaining - e, slots - 1)
        yield from rec([], self.truncation, self.dim)

    def operator(self, form_shift: int, action) -> GradedMap:
        """Assemble the graded map of an operator given termwise on basis
        monomials; action(k, alpha, I) yields ((beta, J), coeff) terms of
        form degree k + form_shift, J increasing, each coeff already an
        exact rational as `rat` gives it, which is summed in as it is.  A
        term whose key has no row in `position` lies beyond the truncation
        and is dropped (the quotient ideal absorbs it)."""
        blocks = {}
        for k, basis in self.basis.items():
            pos = self.position.get(k + form_shift)
            if pos is not None:
                blocks[-k] = Matrix(len(pos), len(basis),
                                    [(row, col, c) for col, (alpha, I) in enumerate(basis)
                                     for key, c in action(k, alpha, I)
                                     if (row := pos.get(key)) is not None])
        return GradedMap(self.space, self.space, -form_shift, blocks)


def d_de_rham(a: FormAlgebra) -> GradedMap:
    """Exterior differential: d(x^alpha dx_I) = sum_i alpha_i x^(alpha - e_i)
    dx_i ^ dx_I; lowers polynomial degree, so it is exact on the quotient.
    The signs of dx_i ^ dx_I are read once per form index I."""
    @cache
    def moves(I):
        return [(i, sign, J) for i in range(a.dim) for sign, J in [_merge_sign((i,), I)] if sign]

    def action(k, alpha, I):
        for i, sign, J in moves(I):
            e = alpha[i]
            if e:
                yield (alpha[:i] + (e - 1,) + alpha[i + 1:], J), sign * e
    return a.operator(1, action)


def contraction(a: FormAlgebra, p: PolyVector) -> GradedMap:
    """Contraction by a homogeneous polyvector, extended linearly over the
    polynomial coefficients.  Each term's contraction of dx_I is read once
    per form index I."""
    if p.dim != a.dim:
        raise ShapeMismatch("polyvector dimension differs from the algebra")
    degs = p.vector_degrees()
    if len(degs) > 1:
        raise ShapeMismatch("contraction needs a homogeneous polyvector")
    j = degs[0] if degs else 0

    @cache
    def chains(I):
        return [(beta, rest, sign * c) for (beta, J), c in p.terms.items()
                for sign, rest in [_iota_chain(I, J)] if sign]

    def action(k, alpha, I):
        for beta, rest, c in chains(I):
            yield (tuple(map(add, alpha, beta)), rest), c
    return a.operator(-j, action)


def graded_commutator(f: GradedMap, g: GradedMap) -> GradedMap:
    """Commutator with Koszul sign read from the map degrees."""
    sign = -1 if f.degree % 2 and g.degree % 2 else 1
    return lincomb([(1, compose(f, g)), (-sign, compose(g, f))])


def _bivector_contraction(a: FormAlgebra, w: PolyVector) -> GradedMap:
    """i(w) for a bivector w; the zero map of degree 2 when w = 0."""
    if not w.is_zero and not w.is_homogeneous(2):
        raise ShapeMismatch("the structure field must be a bivector")
    if w.is_zero:
        return GradedMap.zero(a.space, a.space, 2)
    return contraction(a, w)


# Normal-ordered symbols.  A polynomial differential operator on Q[x, theta],
# theta_i = dx_i, is the sparse dict {(alpha, I, a, b): c} of the operator
# sum c x^alpha theta_I dx^a dtheta_b: alpha and a are exponent tuples, I and b
# increasing index tuples, and dtheta_b applies its last factor first.
# Generators are (kind, i) with kind "x", "theta", "dx" or "dtheta".

def _left_multiply(sym: dict, gen) -> dict:
    """Normal-ordered symbol of g o sym for the generator g = (kind, i)."""
    kind, i = gen

    def terms():
        for (alpha, I, a, b), c in sym.items():
            if kind == "x":
                yield (_bumped(alpha, i, 1), I, a, b), c
            elif kind == "theta":
                sign, J = _merge_sign((i,), I)
                if sign:
                    yield (alpha, J, a, b), sign * c
            elif kind == "dx":
                # Leibniz: dx_i hits the coefficient or joins the derivatives
                if alpha[i]:
                    yield (_bumped(alpha, i, -1), I, a, b), alpha[i] * c
                yield (alpha, I, _bumped(a, i, 1), b), c
            else:
                # the odd derivation dtheta_i passes theta_I with sign (-1)^|I|
                sign, J = _iota_chain(I, (i,))
                if sign:
                    yield (alpha, J, a, b), sign * c
                sign, B = _merge_sign((i,), b)
                if sign:
                    yield (alpha, I, a, B), (-1) ** len(I) * sign * c
    return accumulate({}, terms())


def _word(sym: dict, gens) -> dict:
    """Left-multiply sym by each generator in turn, the first innermost."""
    for gen in gens:
        sym = _left_multiply(sym, gen)
    return sym


def _powers(kind, exponents):
    return [(kind, i) for i, e in enumerate(exponents) for _ in range(e)]


def _unit(dim: int) -> dict:
    zero = (0,) * dim
    return {(zero, (), zero, ()): rat(1)}


def _symbol_compose(s: dict, t: dict) -> dict:
    """Normal-ordered symbol of s o t."""
    out = {}
    for (alpha, I, a, b), c in s.items():
        gens = ([("dtheta", j) for j in reversed(b)] + _powers("dx", a)
                + [("theta", j) for j in reversed(I)] + _powers("x", alpha))
        accumulate(out, _word(t, gens).items(), c)
    return out


def _d_symbol(dim: int) -> dict:
    """d = sum_i theta_i dx_i."""
    return accumulate({}, chain.from_iterable(
        _word(_unit(dim), [("dx", i), ("theta", i)]).items() for i in range(dim)))


def _contraction_symbol(p: PolyVector) -> dict:
    """i(p), the factors of each term applied in listed order as in `_iota_chain`."""
    out = {}
    for (beta, J), c in p.terms.items():
        gens = [("dtheta", j) for j in J] + _powers("x", beta)
        accumulate(out, _word(_unit(p.dim), gens).items(), c)
    return out


def _symbol_commutator(s: dict, t: dict) -> dict:
    """Graded commutator s t - (-1)^{|s||t|} t s of homogeneous symbols; the
    parity of a term is the number of its odd factors theta and dtheta."""
    def parity(sym):
        return next(((len(I) + len(b)) % 2 for (_, I, _, b) in sym), 0)
    sign = -1 if parity(s) and parity(t) else 1
    return accumulate(_symbol_compose(s, t), _symbol_compose(t, s).items(), -sign)


def check_contraction_identity(p: PolyVector, q: PolyVector) -> bool:
    """Compatibility of contraction, bracket, and differential:
    i([p, q]) = -[[i(q), d], i(p)], compared as normal-ordered symbols.
    Symbols are unique, so the verdict holds on the whole polynomial
    algebra, with no truncation.  This single identity pins every sign
    convention here."""
    if p.dim != q.dim:
        raise ShapeMismatch("polyvectors on different spaces")
    if len(p.vector_degrees()) > 1 or len(q.vector_degrees()) > 1:
        raise ShapeMismatch("contraction needs a homogeneous polyvector")
    inner = _symbol_commutator(_contraction_symbol(q), _d_symbol(p.dim))
    outer = _symbol_commutator(inner, _contraction_symbol(p))
    return not accumulate(outer, _contraction_symbol(schouten(p, q)).items())


def _order(sym: dict) -> int:
    """Grothendieck order: the highest total derivative order, -1 for zero.
    A graded commutator with x_i or theta_i acts on the symbol as the formal
    derivative in the dx_i or dtheta_i slot, which cancels no term."""
    return max((sum(a) + len(b) for (_, _, a, b) in sym), default=-1)


@dataclass
class OrderLadder:
    """Orders as `_order` gives them, -1 for the zero operator."""
    d: int
    delta1: int
    delta2: int | None


def structure_order_ladder(w: PolyVector, e: PolyVector | None = None) -> OrderLadder:
    """Differential-operator orders of the structure operators on the full
    polynomial algebra, read off their normal-ordered symbols: the exterior
    differential, the bivector's square-lowering operator, and (for a Jacobi
    pair) the weight-two contraction composite."""
    if not w.is_homogeneous(2) or (e is not None and (
            e.dim != w.dim or len(e.vector_degrees()) > 1)):
        raise ShapeMismatch("the ladder needs a bivector and a homogeneous field")
    d = _d_symbol(w.dim)
    iw = _contraction_symbol(w)
    delta2 = None if e is None else _order(_symbol_compose(_contraction_symbol(e), iw))
    return OrderLadder(d=_order(d), delta1=_order(_symbol_commutator(iw, d)), delta2=delta2)


@dataclass
class GeometricComplex:
    multicomplex: Multicomplex
    gauge: OperatorSeries


def jacobi_multicomplex(w: PolyVector, e: PolyVector, a: FormAlgebra) -> GeometricComplex:
    """Multicomplex (forms, d, [i(w), d], i(e) i(w)) of a Jacobi pair, with
    the weight-one gauge series i(w) z.  A Poisson bivector is the pair with
    e = 0, and then this is its mixed complex (forms, d, [i(w), d]).

    Only the structure equations are checked here, and a failure raises
    NotJacobi carrying both defects.  d and i(w) are built once each.  The
    multicomplex relations, the bracket identity
    [i(w), [i(w), d]] = 2 i(e) i(w) and the gauge identity are left to the
    caller (`validate_multicomplex`, `check_gauge_hodge`).  They hold
    exactly on the weight window; the polynomial window loses
    raise-then-lower composites at its top degree, where the relations of
    weight two can fail.
    """
    _check_structure(w, e)
    d = d_de_rham(a)
    iw = _bivector_contraction(a, w)
    if e.is_zero or w.is_zero:
        delta2 = GradedMap.zero(a.space, a.space, 3)
    else:
        delta2 = compose(contraction(a, e), iw)
    m = Multicomplex(a.space, [d, graded_commutator(iw, d), delta2])
    return GeometricComplex(multicomplex=m, gauge=OperatorSeries(a.space, {1: iw}))


def poisson_mixed_complex(w: PolyVector, a: FormAlgebra) -> GeometricComplex:
    """The Jacobi builder on the pair (w, 0).  Nothing in the package calls
    it; it goes with its entry in the layer trace of `perfbench/spans.py`."""
    return jacobi_multicomplex(w, PolyVector.zero(w.dim), a)


@dataclass
class BasicComplex:
    multicomplex: Multicomplex
    inclusions: dict          # exported degree -> column basis in the ambient
    gauge: OperatorSeries


def _restrict(f: GradedMap, inclusions: dict, free: dict, sub: GradedVectorSpace) -> GradedMap:
    """f on the subcomplex, in its basis.  Each B_k is a kernel basis from
    `_kernel`, the identity on its free rows free[k], so the coordinates of
    f B_k are its free rows X, and f preserves the subcomplex exactly when
    B X == f B_k: one product, no elimination."""
    blocks = {}
    for k in sub.degrees:
        img = f.block(k).mul(inclusions[k])
        if img.is_zero():
            continue
        target = k + f.degree
        coords = img.select_rows(free.get(target, []))
        if target not in inclusions or inclusions[target].mul(coords) != img:
            raise NotContained("an operator does not preserve the basic subcomplex")
        blocks[k] = coords
    return GradedMap(sub, sub, f.degree, blocks)


def basic_subcomplex(w: PolyVector, e: PolyVector, a: FormAlgebra) -> BasicComplex:
    """Mixed complex of basic forms: the kernel of i(e) and of i(e) d, with
    the restricted differential, square-lowering operator and gauge series.

    Only the structure equations are checked here, as in
    `jacobi_multicomplex`, and d and i(w) are built once each; a restriction
    that leaves the subcomplex raises NotContained.  Once d and i(w) both
    preserve the basic forms B, so does [i(w), d], and its restriction is
    the commutator of theirs, computed on B with no further check.  The
    relations and the gauge identity are left to the caller.
    """
    _check_structure(w, e)
    d = d_de_rham(a)
    iw = _bivector_contraction(a, w)
    ie = contraction(a, e)
    ie_d = compose(ie, d)
    inclusions, free = {}, {}
    for k in a.space.degrees:
        ker, pivots = _kernel(ie.block(k).vstack(ie_d.block(k)))
        if ker.dim:
            inclusions[k] = ker.basis
            free[k] = sorted(set(range(ker.ambient_dim)).difference(pivots))
    sub = GradedVectorSpace({k: b.cols for k, b in inclusions.items()})
    d_sub, iw_sub = (_restrict(f, inclusions, free, sub) for f in (d, iw))
    m = Multicomplex(sub, [d_sub, graded_commutator(iw_sub, d_sub)])
    return BasicComplex(multicomplex=m, inclusions=inclusions,
                        gauge=OperatorSeries(sub, {1: iw_sub}))
