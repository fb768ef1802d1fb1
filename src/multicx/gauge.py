"""Truncated operator power series and the gauge condition.

Series are the `complexes.OperatorSeries` of End(A)[[z]], multiplied by
its one Cauchy product.  On a space of finite grading width every
coefficient degree grows linearly with the power, so beyond the power cap
every coefficient is degree-forced to zero, and exp, log and conjugation
are finite sums, not approximations.  A multicomplex is conjugated as the
series D(z) it holds, and the gauge is -log of the isomorphism psi(z).

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

from .complexes import (
    HodgeData,
    Multicomplex,
    OperatorSeries,
    _power_sum,
    _product_sum,
    validate_multicomplex,
)
from .errors import BadConstantTerm, NotSquareZero, SpaceMismatch
from .graded import GradedMap, compose
from .transfer import MinimalModel, nonzero_weights


def series_mul(a: OperatorSeries, b: OperatorSeries) -> OperatorSeries:
    """Cauchy product; coefficients compose as operators (a after b), and
    each power is one `lincomb` of its compositions."""
    return _product_sum([(1, a, b)])


def commutator_series(a: OperatorSeries, b: OperatorSeries) -> OperatorSeries:
    return _product_sum([(1, a, b), (-1, b, a)])


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
    return conjugate_series(r, OperatorSeries(d.source, {0: d}))


def check_gauge_hodge(r: OperatorSeries, m: Multicomplex) -> HodgeData:
    """Does exp(r) d exp(-r) reproduce the operator family coefficientwise?
    The witness is the first differing power."""
    if r.space != m.space:
        raise SpaceMismatch("series and multicomplex live on different spaces")
    conj = conjugate_differential(r, m.delta(0)).coeffs
    want = m.series.coeffs
    witness = next((n for n in sorted(set(conj) | set(want)) if conj.get(n) != want.get(n)), None)
    return HodgeData(ok=witness is None, witness=witness)


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
    return Multicomplex(m.space, conjugate_series(r, m.series))


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
    isomorphism, the series psi = `model.iso`, is an infinity-isotopy from
    the input to (A, d): psi_0 is the identity and the carried minimal
    operators i mu_n p all vanish.  The logarithm of psi^{-1} is a gauge,
    and log(psi^{-1}) = -log(psi) exactly in the nilpotent series ring, so
    no inverse is built.
    Otherwise no gauge can exist, and the least obstructing weight is cited.
    The series is returned unchecked; `check_gauge_hodge(series, input)`
    verifies it.
    """
    weights = nonzero_weights(model.minimal)
    if weights:
        return NoGauge(witness=weights[0])
    return _log(model.iso, -1)
