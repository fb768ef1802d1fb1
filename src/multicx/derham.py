"""Polynomial differential forms and polyvector fields on R^m, truncated by
polynomial degree, and the operators that make the de Rham complex of a
Poisson or Jacobi structure a mixed complex or multicomplex.

Coordinates are 0-based internally.  A form monomial is (alpha, I): exponent
tuple and strictly increasing index tuple for x^alpha dx_I; a polyvector
monomial is (alpha, J) for x^alpha in the exterior algebra of coordinate
vector fields.  Form degree k is exported at homological degree -k, so the
de Rham differential has degree -1 and contraction by a bivector degree +2.

Truncation compresses everything onto the span of the monomials below a
cutoff; see FormAlgebra for the two cutoff semantics and when operator
identities survive the compression exactly.  The order ladder needs no
cutoff: it reads each operator's order off its normal-ordered symbol, a
polynomial differential operator on the untruncated algebra Q[x, dx].

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
from itertools import chain, combinations

from .complexes import Multicomplex
from .errors import NotContained, NotJacobi, ShapeMismatch
from .exactla import accumulate, kernel_image, rat, solve
from .gauge import OperatorSeries
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
        self.terms = dict(sorted(accumulate({}, self._checked(items)).items()))

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

    def component(self, k: int) -> "PolyVector":
        return PolyVector(self.dim, {key: c for key, c in self.terms.items()
                                     if len(key[1]) == k})

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
        def products():
            for (a1, J1), c1 in self.terms.items():
                for (a2, J2), c2 in other.terms.items():
                    sign, J = _merge_sign(J1, J2)
                    if sign:
                        yield (tuple(x + y for x, y in zip(a1, a2)), J), sign * c1 * c2
        return PolyVector(self.dim, products())


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


def _schouten_homogeneous(p: PolyVector, q: PolyVector, pdeg, qdeg) -> PolyVector:
    dim = p.dim
    acc = PolyVector.zero(dim)
    for i in range(dim):
        left = PolyVector(dim, _right_theta_derivative(p.terms, i))
        right = PolyVector(dim, _x_derivative(q.terms, i))
        acc = acc.add(left.wedge(right))
        left2 = PolyVector(dim, _right_theta_derivative(q.terms, i))
        right2 = PolyVector(dim, _x_derivative(p.terms, i))
        sign = (-1) ** ((pdeg - 1) * (qdeg - 1) % 2)
        acc = acc.sub(left2.wedge(right2).scale(sign))
    return acc


def schouten(p: PolyVector, q: PolyVector) -> PolyVector:
    """Schouten-Nijenhuis bracket, the odd bracket extending the Lie bracket
    of vector fields; bidegree |p| + |q| - 1 on homogeneous inputs."""
    if p.dim != q.dim:
        raise ShapeMismatch("polyvectors on different spaces")
    acc = PolyVector.zero(p.dim)
    for pdeg in p.vector_degrees():
        for qdeg in q.vector_degrees():
            acc = acc.add(_schouten_homogeneous(
                p.component(pdeg), q.component(qdeg), pdeg, qdeg))
    return acc


def jacobi_defects(w: PolyVector, e: PolyVector):
    """The two structure equations of a Jacobi pair, as exact defects."""
    first = schouten(w, w).sub(e.wedge(w).scale(2))
    second = schouten(e, w)
    return first, second


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
    cutoff reads |alpha| + |I| <= truncation, the degree of x^alpha dx_I
    under rescaling of the coordinates.  That ideal is stable under wedge,
    the differential, and contraction by fields of coefficient degree at
    most 2 (resp. 1 for vector fields), so on the weight quotient every
    operator identity holds verbatim; the Jacobi builders rely on this.
    """

    def __init__(self, dim: int, truncation: int, weight: bool = False):
        if dim < 0 or truncation < 0:
            raise ShapeMismatch("dimension and truncation must be nonnegative")
        self.dim = dim
        self.truncation = truncation
        self.weight = weight
        self.monomials = sorted(self._exponents(), key=lambda a: (sum(a), a))
        self.basis = {}
        self.position = {}
        for k in range(dim + 1):
            items = []
            for alpha in self.monomials:
                if weight and sum(alpha) + k > truncation:
                    continue
                for I in combinations(range(dim), k):
                    items.append((alpha, I))
            self.basis[k] = items
            self.position[k] = {key: pos for pos, key in enumerate(items)}
        self._space = GradedVectorSpace({-k: len(self.basis[k])
                                         for k in range(dim + 1)})

    def cutoff(self, form_degree: int) -> int:
        """Largest stored polynomial degree in the given form degree."""
        return self.truncation - form_degree if self.weight else self.truncation

    def _exponents(self):
        def rec(prefix, remaining, slots):
            if slots == 0:
                yield tuple(prefix)
                return
            for e in range(remaining + 1):
                yield from rec(prefix + [e], remaining - e, slots - 1)
        yield from rec([], self.truncation, self.dim)

    @property
    def space(self) -> GradedVectorSpace:
        return self._space

    def operator(self, form_shift: int, action) -> GradedMap:
        """Assemble the graded map of an operator given termwise on basis
        monomials; action(k, alpha, I) yields ((beta, J), coeff) terms of
        form degree k + form_shift.  Terms beyond the truncation are dropped
        (the quotient ideal absorbs them)."""
        entries = []
        for k in range(self.dim + 1):
            k_out = k + form_shift
            if not 0 <= k_out <= self.dim:
                continue
            pos_out = self.position[k_out]
            for col, (alpha, I) in enumerate(self.basis[k]):
                for (beta, J), coeff in action(k, alpha, I):
                    if sum(beta) > self.cutoff(k_out):
                        continue
                    entries.append((-k, pos_out[(beta, J)], col, coeff))
        return GradedMap.from_entries(self._space, self._space,
                                      -form_shift, entries)


def d_de_rham(a: FormAlgebra) -> GradedMap:
    """Exterior differential: d(x^alpha dx_I) = sum_i alpha_i x^(alpha - e_i)
    dx_i ^ dx_I; lowers polynomial degree, so it is exact on the quotient."""
    def action(k, alpha, I):
        for i in range(a.dim):
            if not alpha[i]:
                continue
            sign, J = _merge_sign((i,), I)
            if sign:
                yield (_bumped(alpha, i, -1), J), sign * alpha[i]
    return a.operator(1, action)


def contraction(a: FormAlgebra, p: PolyVector) -> GradedMap:
    """Contraction by a homogeneous polyvector, extended linearly over the
    polynomial coefficients."""
    if p.dim != a.dim:
        raise ShapeMismatch("polyvector dimension differs from the algebra")
    degs = p.vector_degrees()
    if len(degs) > 1:
        raise ShapeMismatch("contraction needs a homogeneous polyvector")
    j = degs[0] if degs else 0
    def action(k, alpha, I):
        for (beta, J), c in p.terms.items():
            sign, rest = _iota_chain(I, J)
            if not sign:
                continue
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            yield (gamma, rest), sign * c
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
    caller (`validate_multicomplex`, `check_gauge_hodge`); `TotalComplex`
    refuses a family that fails the relations.  They hold exactly on a
    weight-truncated algebra.  The plain polynomial cutoff loses
    raise-then-lower composites at its top degree, and the relations of
    weight two can then fail there.
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
    it; the layer trace of `perfbench/spans.py` wraps this name, and it goes
    with that entry (ROADMAP item 7)."""
    return jacobi_multicomplex(w, PolyVector.zero(w.dim), a)


@dataclass
class BasicComplex:
    multicomplex: Multicomplex
    inclusions: dict          # exported degree -> column basis in the ambient
    gauge: OperatorSeries


def _restrict(f: GradedMap, subspace_basis: dict, sub: GradedVectorSpace) -> GradedMap:
    blocks = {}
    for k in sub.degrees:
        img = f.block(k).mul(subspace_basis[k])
        if img.is_zero():
            continue
        coords = None
        if sub.dim(k + f.degree):
            coords = solve(subspace_basis[k + f.degree], img)
        if coords is None:
            raise NotContained("an operator does not preserve the basic subcomplex")
        blocks[k] = coords
    return GradedMap(sub, sub, f.degree, blocks)


def basic_subcomplex(w: PolyVector, e: PolyVector, a: FormAlgebra) -> BasicComplex:
    """Mixed complex of basic forms: the kernel of i(e) and of i(e) d, with
    the restricted differential, square-lowering operator and gauge series.

    Only the structure equations are checked here, as in
    `jacobi_multicomplex`, and d and i(w) are built once each; a restriction
    that leaves the subcomplex raises NotContained.  The relations and the
    gauge identity are left to the caller.
    """
    _check_structure(w, e)
    d = d_de_rham(a)
    iw = _bivector_contraction(a, w)
    ie = contraction(a, e)
    ie_d = compose(ie, d)
    bases, dims = {}, {}
    for k in a.space.degrees:
        ker, _ = kernel_image(ie.block(k).vstack(ie_d.block(k)))
        bases[k] = ker.basis
        dims[k] = ker.dim
    sub = GradedVectorSpace(dims)
    basis = {k: bases[k] for k in sub.degrees}
    m = Multicomplex(sub, [_restrict(d, basis, sub),
                           _restrict(graded_commutator(iw, d), basis, sub)])
    series = OperatorSeries(sub, {1: _restrict(iw, basis, sub)})
    return BasicComplex(multicomplex=m, inclusions=basis, gauge=series)
