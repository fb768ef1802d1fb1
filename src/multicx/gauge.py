"""Truncated operator power series and the gauge condition.

Series live in End(A)[[z]] with graded-map coefficients.  On a space of
finite grading width every coefficient degree grows linearly with the power,
so all series here are exactly truncated: beyond the cap every coefficient is
degree-forced to zero, and exp/log are finite sums, not approximations.

The gauge condition for a multicomplex (A, d, delta_1, delta_2, ...) asks for
a series R(z) with zero constant term conjugating d onto the full family:
exp(R) d exp(-R) = d + delta_1 z + delta_2 z^2 + ...  Existence is detected
constructively through the minimal model: when every transferred operator
vanishes, R is -log of the model's isomorphism on A, whose degree-0 part is
the identity.  The witness of failure is the least weight whose transferred
operator refuses to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .complexes import HodgeData, Multicomplex, validate_multicomplex
from .errors import BadConstantTerm, NotSquareZero, SpaceMismatch
from .graded import GradedMap, GradedVectorSpace, compose, lincomb
from .transfer import MinimalModel, nonzero_weights


def power_cap(space: GradedVectorSpace) -> int:
    """Every coefficient of power n > cap is zero for both parity families
    (degree 2n and degree 2n - 1 maps die once they overshoot the width)."""
    if space.is_zero:
        return 0
    return space.width // 2 + 1


class OperatorSeries:
    """Finitely many graded-map coefficients indexed by the power of z."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: GradedVectorSpace, coeffs=None):
        self.space = space
        clean = {}
        for n, f in (coeffs or {}).items():
            if f.source != space or f.target != space:
                raise SpaceMismatch("coefficient %d is not an endomorphism of the space" % n)
            if n < 0:
                raise BadConstantTerm("negative power %d" % n)
            if not f.is_zero and n <= power_cap(space):
                clean[int(n)] = f
        self.coeffs = dict(sorted(clean.items()))

    @staticmethod
    def unit(space) -> "OperatorSeries":
        return OperatorSeries(space, {0: GradedMap.identity(space)})

    @staticmethod
    def single(power: int, f: GradedMap) -> "OperatorSeries":
        return OperatorSeries(f.source, {power: f})

    @staticmethod
    def from_constant(f: GradedMap) -> "OperatorSeries":
        return OperatorSeries(f.source, {0: f})

    def coefficient(self, n: int, degree=None) -> GradedMap:
        f = self.coeffs.get(n)
        if f is not None:
            return f
        return GradedMap.zero(self.space, self.space, 0 if degree is None else degree)

    @property
    def max_power(self) -> int:
        return max(self.coeffs, default=-1)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, OperatorSeries) and self.space == other.space
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "OperatorSeries(powers %r)" % (list(self.coeffs),)


def _product_sum(space: GradedVectorSpace, products) -> OperatorSeries:
    """The sum of c * (x y) over the (c, x, y) terms, x y the Cauchy product.
    Each power's compositions are collected as (coefficient, map) terms and
    summed by one `lincomb`, so no partial sum or scaled copy is built."""
    cap = power_cap(space)
    per = {}
    for c, x, y in products:
        if x.space != space or y.space != space:
            raise SpaceMismatch("series on different spaces")
        for n, f in x.coeffs.items():
            for m, g in y.coeffs.items():
                if n + m > cap:
                    continue
                term = compose(f, g)
                if not term.is_zero:
                    per.setdefault(n + m, []).append((c, term))
    return OperatorSeries(space, {n: lincomb(terms) for n, terms in per.items()})


def series_mul(a: OperatorSeries, b: OperatorSeries) -> OperatorSeries:
    """Cauchy product; coefficients compose as operators (a after b), and
    each power is one `lincomb` of its compositions."""
    return _product_sum(a.space, [(1, a, b)])


def commutator_series(a: OperatorSeries, b: OperatorSeries) -> OperatorSeries:
    return _product_sum(a.space, [(1, a, b), (-1, b, a)])


def series_lincomb(space: GradedVectorSpace, terms) -> OperatorSeries:
    """The sum of a * s over the (scalar, series) terms, one `lincomb` per
    power, so no scaled copy of a series is built."""
    per = {}
    for a, s in terms:
        if s.space != space:
            raise SpaceMismatch("series on different spaces")
        for n, f in s.coeffs.items():
            per.setdefault(n, []).append((a, f))
    return OperatorSeries(space, {n: lincomb(fs) for n, fs in per.items()})


def _power_sum(start: OperatorSeries, step, coeff) -> OperatorSeries:
    """sum_k coeff(k) t_k with t_0 = start and t_k = step(t_{k-1}).  The
    step raises the least power, so the terms are zero past the power cap:
    the loop stops at the first zero term and the sum is finite."""
    term, terms = start, [(coeff(0), start)]
    for k in range(1, power_cap(start.space) + 1):
        term = step(term)
        if term.is_zero:
            break
        terms.append((coeff(k), term))
    return series_lincomb(start.space, terms)


def series_exp(r: OperatorSeries) -> OperatorSeries:
    """exp of a series with zero constant term (a finite sum by nilpotency)."""
    if 0 in r.coeffs:
        raise BadConstantTerm("exp needs a zero constant term")
    return _power_sum(OperatorSeries.unit(r.space), lambda t: series_mul(t, r),
                      lambda k: Fraction(1, factorial(k)))


def _log(u: OperatorSeries, sign: int) -> OperatorSeries:
    """sign * log u = sum_{k>=1} sign (-1)^(k+1) v^k / k, v = u - 1, for a
    series u with constant term the identity."""
    if u.coefficient(0) != GradedMap.identity(u.space):
        raise BadConstantTerm("log needs constant term equal to the identity")
    v = OperatorSeries(u.space, {n: f for n, f in u.coeffs.items() if n})
    return _power_sum(v, lambda t: series_mul(t, v),
                      lambda k: Fraction(sign * (-1) ** k, k + 1))


def series_log(u: OperatorSeries) -> OperatorSeries:
    """log of a series with constant term the identity."""
    return _log(u, 1)


def conjugate_series(r: OperatorSeries, d_series: OperatorSeries) -> OperatorSeries:
    """exp(r) d exp(-r), computed as the exponential of ad_r.

    Every caller checks the result downstream: `check_gauge_hodge` compares
    each coefficient, `gauge_construct` validates the relations, and
    `conjugate_multicomplex` feeds the generators, whose outputs the tests
    validate."""
    if 0 in r.coeffs:
        raise BadConstantTerm("gauge series needs a zero constant term")
    return _power_sum(d_series, lambda t: commutator_series(r, t),
                      lambda k: Fraction(1, factorial(k)))


def conjugate_differential(r: OperatorSeries, d: GradedMap) -> OperatorSeries:
    return conjugate_series(r, OperatorSeries.from_constant(d))


def check_gauge_hodge(r: OperatorSeries, m: Multicomplex) -> HodgeData:
    """Does exp(r) d exp(-r) reproduce the operator family coefficientwise?
    The witness is the first differing power."""
    if r.space != m.space:
        raise SpaceMismatch("series and multicomplex live on different spaces")
    conj = conjugate_differential(r, m.delta(0))
    top = max(conj.max_power, m.order, 0)
    for n in range(top + 1):
        if conj.coefficient(n, 2 * n - 1) != m.delta(n):
            return HodgeData(ok=False, witness=n)
    return HodgeData(ok=True, witness=None)


def gauge_construct(d: GradedMap, r: OperatorSeries) -> Multicomplex:
    """Multicomplex whose operators are the coefficients of exp(r) d exp(-r).

    Conjugation preserves the square of the full series, so the result always
    satisfies the multicomplex relations; this is asserted on the way out.
    """
    if not compose(d, d).is_zero:
        raise NotSquareZero("d squared is nonzero")
    m = conjugate_multicomplex(r, Multicomplex.trivial(d.source, d))
    rep = validate_multicomplex(m)
    if not rep.ok:
        raise NotSquareZero("conjugated family fails the relations: " + rep.describe())
    return m


def conjugate_multicomplex(r: OperatorSeries, m: Multicomplex) -> Multicomplex:
    """Gauge transform of a whole multicomplex: coefficients of
    exp(r) D(z) exp(-r) where D(z) collects the operator family."""
    conj = conjugate_series(r, OperatorSeries(m.space, dict(enumerate(m.deltas))))
    deltas = [conj.coefficient(n, 2 * n - 1) for n in range(max(conj.max_power, 0) + 1)]
    return Multicomplex(m.space, deltas)


@dataclass
class NoGauge:
    """Returned when no gauge series exists; the witness is the least weight
    whose transferred operator on homology is nonzero."""
    witness: int

    def __bool__(self):
        return False


def find_gauge(model: MinimalModel):
    """A gauge series for the input of a minimal model, or NoGauge.

    When every transferred operator on homology vanishes, the model's
    isomorphism psi is an infinity-isotopy from the input to (A, d): psi_0
    is the identity and the carried minimal operators i mu_n p all vanish.
    The logarithm of psi^{-1} is a gauge, and log(psi^{-1}) = -log(psi)
    exactly in the nilpotent series ring, so no inverse is built.
    Otherwise no gauge can exist, and the least obstructing weight is cited.
    The series is returned unchecked; `check_gauge_hodge(series, input)`
    verifies it.
    """
    weights = nonzero_weights(model.minimal)
    if weights:
        return NoGauge(witness=weights[0])
    iso = model.iso
    return _log(OperatorSeries(iso.source.space, dict(enumerate(iso.comps))), -1)
