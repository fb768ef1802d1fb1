"""Truncated operator power series and the gauge condition.

Series live in End(A)[[z]] with graded-map coefficients.  On a space of
finite grading width every coefficient degree grows linearly with the power,
so all series here are exactly truncated: beyond the cap every coefficient is
degree-forced to zero, and exp/log are finite sums, not approximations.

The gauge condition for a multicomplex (A, d, delta_1, delta_2, ...) asks for
a series R(z) with zero constant term conjugating d onto the full family:
exp(R) d exp(-R) = d + delta_1 z + delta_2 z^2 + ...  Existence is detected
constructively through the minimal model; the witness of failure is the least
weight whose transferred operator refuses to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Multicomplex, validate_multicomplex
from .errors import BadConstantTerm, NotSquareZero, SpaceMismatch
from .graded import GradedMap, GradedVectorSpace, compose
from .transfer import HodgeData, MinimalModel, nonzero_weights


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
    def zero(space) -> "OperatorSeries":
        return OperatorSeries(space)

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
    def constant_term(self) -> GradedMap:
        return self.coefficient(0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, OperatorSeries) and self.space == other.space
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "OperatorSeries(powers %r)" % (list(self.coeffs),)

    def add(self, other: "OperatorSeries") -> "OperatorSeries":
        if self.space != other.space:
            raise SpaceMismatch("series on different spaces")
        out = {}
        for n in set(self.coeffs) | set(other.coeffs):
            a, b = self.coeffs.get(n), other.coeffs.get(n)
            out[n] = a if b is None else (b if a is None else a.add(b))
        return OperatorSeries(self.space, out)

    def scale(self, a) -> "OperatorSeries":
        return OperatorSeries(self.space, {n: f.scale(a) for n, f in self.coeffs.items()})

    def neg(self) -> "OperatorSeries":
        return self.scale(-1)

    def sub(self, other: "OperatorSeries") -> "OperatorSeries":
        return self.add(other.neg())


def series_mul(a: OperatorSeries, b: OperatorSeries) -> OperatorSeries:
    """Cauchy product; coefficients compose as operators (a after b)."""
    if a.space != b.space:
        raise SpaceMismatch("series on different spaces")
    cap = power_cap(a.space)
    out = {}
    for n, fa in a.coeffs.items():
        for m, fb in b.coeffs.items():
            if n + m > cap:
                continue
            term = compose(fa, fb)
            if term.is_zero:
                continue
            cur = out.get(n + m)
            out[n + m] = term if cur is None else cur.add(term)
    return OperatorSeries(a.space, out)


def series_exp(r: OperatorSeries) -> OperatorSeries:
    """exp of a series with zero constant term (a finite sum by nilpotency)."""
    if 0 in r.coeffs:
        raise BadConstantTerm("exp needs a zero constant term")
    cap = power_cap(r.space)
    acc = OperatorSeries.unit(r.space)
    term = OperatorSeries.unit(r.space)
    fact = 1
    for k in range(1, cap + 1):
        term = series_mul(term, r)
        if term.is_zero:
            break
        fact *= k
        acc = acc.add(term.scale(Fraction(1, fact)))
    return acc


def series_log(u: OperatorSeries) -> OperatorSeries:
    """log of a series with constant term the identity."""
    if u.constant_term != GradedMap.identity(u.space):
        raise BadConstantTerm("log needs constant term equal to the identity")
    v = u.sub(OperatorSeries.unit(u.space))
    cap = power_cap(u.space)
    acc = OperatorSeries.zero(u.space)
    term = OperatorSeries.unit(u.space)
    for k in range(1, cap + 1):
        term = series_mul(term, v)
        if term.is_zero:
            break
        acc = acc.add(term.scale(Fraction((-1) ** (k + 1), k)))
    return acc


def commutator_series(a: OperatorSeries, b: OperatorSeries) -> OperatorSeries:
    return series_mul(a, b).sub(series_mul(b, a))


def conjugate_series(r: OperatorSeries, d_series: OperatorSeries) -> OperatorSeries:
    """exp(r) d exp(-r), computed as the exponential of ad_r.

    Every caller checks the result downstream: `check_gauge_hodge` compares
    each coefficient, `gauge_construct` validates the relations, and
    `conjugate_multicomplex` feeds the generators, whose outputs the tests
    validate."""
    if 0 in r.coeffs:
        raise BadConstantTerm("gauge series needs a zero constant term")
    cap = power_cap(r.space)
    acc = d_series
    term = d_series
    fact = 1
    for k in range(1, cap + 1):
        term = commutator_series(r, term)
        if term.is_zero:
            break
        fact *= k
        acc = acc.add(term.scale(Fraction(1, fact)))
    return acc


def conjugate_differential(r: OperatorSeries, d: GradedMap) -> OperatorSeries:
    return conjugate_series(r, OperatorSeries.from_constant(d))


def deltas_as_series(m: Multicomplex) -> OperatorSeries:
    return OperatorSeries(m.space, {n: m.delta(n) for n in range(m.order + 1)
                                    if not m.delta(n).is_zero})


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
    conj = conjugate_series(r, deltas_as_series(m))
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

    When every transferred operator on homology vanishes, psi_n = frame o
    iso_n is an infinity-isotopy from the input to (A, d): the frame inverts
    iso_0 and is a chain map out of the direct sum, whose higher operators
    vanish.  The logarithm of psi^{-1} is a gauge, and log(psi^{-1}) =
    -log(psi) exactly in the nilpotent series ring, so no inverse is built.
    Otherwise no gauge can exist, and the least obstructing weight is cited.
    The series is returned unchecked; `check_gauge_hodge(series, input)`
    verifies it.
    """
    weights = nonzero_weights(model.minimal)
    if weights:
        return NoGauge(witness=weights[0])
    iso = model.iso
    psi = OperatorSeries(iso.source.space,
                         {n: compose(model.frame, iso.comp(n)) for n in range(iso.order + 1)})
    return series_log(psi).neg()

