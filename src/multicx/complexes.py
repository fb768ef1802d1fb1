"""Multicomplexes, mixed complexes, and their infinity-morphisms.

A multicomplex is a graded space with operators delta_n of degree 2n - 1
whose convolution square vanishes: sum_{i+j=n} delta_i delta_j = 0 for all n.
A mixed complex is the special case delta_n = 0 for n >= 2.  Morphisms come
in families f_n of degree 2n intertwining the two operator families.

Every family is one `OperatorSeries`: D(z) = sum delta_n z^n for a
multicomplex, and a morphism is its series F(z) = sum f_n z^n from the
source's space to the target's, with no other wrapper; its two
multicomplexes are named only to validate it.  The grading width forces
a coefficient to zero once its degree exceeds it, so every series is finite
and every "for all n" identity below is a finite check.  One Cauchy product,
`_product_sum`, composes the coefficients of two series: validation reads
D D and F D_src - D_tgt F, composition is G F, inversion sums powers of
-f_0^{-1} F_+, and `gauge` conjugates D(z) through it.  No direct sum is
built, since the minimal model's isomorphism lives on the input's own space
(`transfer.MinimalModel.iso`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BadConstantTerm,
    DegreeMismatch,
    NotInvertible,
    SpaceMismatch,
)
from .exactla import Matrix, solve
from .graded import GradedMap, GradedVectorSpace, compose, lincomb


class OperatorSeries:
    """Finitely many graded-map coefficients source -> target indexed by the
    power of z; the target defaults to the source, an endomorphism series.
    Every coefficient has one degree - 2n (deg z = -2), or DegreeMismatch.
    Zero coefficients are not stored, and a power past the grading width
    needs no cap: its coefficient has no nonempty block, so it is zero."""

    __slots__ = ("space", "target", "coeffs")

    def __init__(self, space: GradedVectorSpace, coeffs=None, target=None):
        self.space = space
        self.target = space if target is None else target
        clean = {}
        for n, f in (coeffs or {}).items():
            if f.source != space or f.target != self.target:
                raise SpaceMismatch("coefficient %d lives on different spaces" % n)
            if n < 0:
                raise BadConstantTerm("negative power %d" % n)
            if not f.is_zero:
                clean[int(n)] = f
        if len({f.degree - 2 * n for n, f in clean.items()}) > 1:
            raise DegreeMismatch("coefficients of one series differ in degree - 2n")
        self.coeffs = dict(sorted(clean.items()))

    @staticmethod
    def unit(space) -> "OperatorSeries":
        return OperatorSeries(space, {0: GradedMap.identity(space)})

    @staticmethod
    def single(power: int, f: GradedMap) -> "OperatorSeries":
        return OperatorSeries(f.source, {power: f}, f.target)

    def coefficient(self, n: int, degree=None) -> GradedMap:
        f = self.coeffs.get(n)
        if f is not None:
            return f
        return GradedMap.zero(self.space, self.target, 0 if degree is None else degree)

    @property
    def max_power(self) -> int:
        return max(self.coeffs, default=-1)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, OperatorSeries) and self.space == other.space
                and self.target == other.target and self.coeffs == other.coeffs)

    def __repr__(self):
        return "OperatorSeries(powers %r)" % (list(self.coeffs),)


def _family(space, target, maps, offset: int, what: str) -> OperatorSeries:
    """The maps space -> target, a list or a series, as one series whose
    power-n coefficient has degree 2n + offset."""
    series = isinstance(maps, OperatorSeries)
    if series and (maps.space != space or maps.target != target):
        raise SpaceMismatch("the %s series lives on different spaces" % what)
    items = maps.coeffs.items() if series else list(enumerate(maps))
    for n, f in items:
        if f.degree != 2 * n + offset:
            raise DegreeMismatch("%s %d must have degree %d" % (what, n, 2 * n + offset))
    return maps if series else OperatorSeries(space, dict(items), target)


class Multicomplex:
    """Graded space plus the operator series D(z) = delta_0 + delta_1 z + ...,
    given as the list (delta_0, delta_1, ...) or as the series itself."""

    __slots__ = ("space", "series")

    def __init__(self, space: GradedVectorSpace, deltas):
        self.space = space
        self.series = _family(space, space, deltas, -1, "operator")

    @staticmethod
    def trivial(space: GradedVectorSpace, d: GradedMap) -> "Multicomplex":
        return Multicomplex(space, [d])

    @staticmethod
    def zero(space: GradedVectorSpace) -> "Multicomplex":
        return Multicomplex(space, [])

    def delta(self, n: int) -> GradedMap:
        return self.series.coefficient(n, 2 * n - 1)

    @property
    def order(self) -> int:
        """Largest n with delta_n nonzero (0 for a plain complex)."""
        return max(self.series.max_power, 0)

    @property
    def deltas(self) -> list:
        return [self.delta(n) for n in range(self.order + 1)]

    def __eq__(self, other):
        return (isinstance(other, Multicomplex) and self.space == other.space
                and self.series == other.series)

    def __repr__(self):
        return "Multicomplex(order %d on %r)" % (self.order, self.space.dims)


@dataclass
class HodgeData:
    """A verdict with its witness (the least failing weight, power or page
    position), or None when it holds."""
    ok: bool
    witness: object

    def __bool__(self):
        return self.ok


@dataclass
class Violation:
    index: int
    source_degree: int
    row: int
    col: int
    value: object

    def describe(self) -> str:
        return ("relation n=%d fails at source degree %d, entry (%d,%d) = %s"
                % (self.index, self.source_degree, self.row, self.col, self.value))


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def indices(self):
        return sorted({v.index for v in self.violations})

    def describe(self) -> str:
        if self.ok:
            return "all relations hold"
        return "; ".join(v.describe() for v in self.violations)


def _product_sum(products) -> OperatorSeries:
    """The sum of c * (x y) over the (c, x, y) terms, x y the Cauchy product
    of two series with coefficients composed as operators, x after y.  This
    is the one place where coefficients of two series are composed: each
    power's compositions are collected as (coefficient, map) terms and summed
    by one `lincomb`, so no partial sum or scaled copy is built."""
    space, target = products[0][2].space, products[0][1].target
    per = {}
    for c, x, y in products:
        if x.space != y.target or y.space != space or x.target != target:
            raise SpaceMismatch("series on different spaces")
        for n, f in x.coeffs.items():
            for m, g in y.coeffs.items():
                term = compose(f, g)
                if not term.is_zero:
                    per.setdefault(n + m, []).append((c, term))
    return OperatorSeries(space, {n: lincomb(terms) for n, terms in per.items()}, target)


def series_lincomb(space: GradedVectorSpace, terms) -> OperatorSeries:
    """The sum of a * s over the (scalar, series) terms, all out of `space`
    into the first term's target, one `lincomb` per power, so no scaled copy
    of a series is built."""
    terms = list(terms)
    target = terms[0][1].target if terms else space
    per = {}
    for a, s in terms:
        if s.space != space or s.target != target:
            raise SpaceMismatch("series on different spaces")
        for n, f in s.coeffs.items():
            per.setdefault(n, []).append((a, f))
    return OperatorSeries(space, {n: lincomb(fs) for n, fs in per.items()}, target)


def power_cap(space: GradedVectorSpace) -> int:
    """Every coefficient of power n > cap is zero for both parity families
    (degree 2n and degree 2n - 1 maps die once they overshoot the width)."""
    if space.is_zero:
        return 0
    return space.width // 2 + 1


def _power_sum(start: OperatorSeries, step, coeff) -> OperatorSeries:
    """sum_k coeff(k) t_k with t_0 = start and t_k = step(t_{k-1}).  The
    step raises the least power, and each series keeps one degree - 2n, so
    the terms are zero past the power cap: the loop stops at the first zero
    term and the sum is finite."""
    term, terms = start, [(coeff(0), start)]
    for k in range(1, power_cap(start.space) + 1):
        term = step(term)
        if term.is_zero:
            break
        terms.append((coeff(k), term))
    return series_lincomb(start.space, terms)


def _report(defects: OperatorSeries) -> ValidationReport:
    """One violation per nonzero power of a defect series, ascending, each
    citing the first nonzero entry."""
    return ValidationReport([Violation(n, *next(f.entries())) for n, f in defects.coeffs.items()])


def validate_multicomplex(m: Multicomplex) -> ValidationReport:
    """Check D(z)^2 = 0, that is sum_{i+j=n} delta_i delta_j = 0 for every n."""
    return _report(_product_sum([(1, m.series, m.series)]))


def validate_infinity_morphism(f: OperatorSeries, source: Multicomplex,
                               target: Multicomplex) -> ValidationReport:
    """Check that f, a series from source's space to target's whose power-n
    coefficient has degree 2n, satisfies F(z) D_src(z) = D_tgt(z) F(z)
    coefficientwise."""
    _family(source.space, target.space, f, 0, "component")
    return _report(_product_sum([(1, f, source.series), (-1, target.series, f)]))


def compose_infinity(g: OperatorSeries, f: OperatorSeries) -> OperatorSeries:
    """(g f)(z) = G(z) F(z), so (g f)_n = sum_{k+l=n} g_k f_l; series whose
    spaces do not chain are a SpaceMismatch.  This is `gauge.series_mul`
    under the morphism name: `perfbench/spans.py` traces both names."""
    return _product_sum([(1, g, f)])


def invert_infinity(f: OperatorSeries) -> OperatorSeries:
    """Two-sided inverse of an infinity-isomorphism.

    With g_0 = f_0^{-1} and F_+ = F - f_0, the inverse is
    G = sum_k (-g_0 F_+)^k g_0 = (g_0 F)^{-1} g_0; each factor raises the
    least power of z, so the sum stops once the grading width kills it.
    """
    src, tgt = f.space, f.target
    for k in sorted(set(src.dims) | set(tgt.dims)):
        if src.dim(k) != tgt.dim(k):
            raise NotInvertible("degree %d dimensions differ" % k)
    inv_blocks = {}
    for k in src.degrees:
        x = solve(f.coefficient(0).block(k), Matrix.identity(tgt.dim(k)))
        if x is None:
            raise NotInvertible("degree-0 component singular at degree %d" % k)
        inv_blocks[k] = x
    g0 = OperatorSeries(tgt, {0: GradedMap(tgt, src, 0, inv_blocks)}, src)
    f_plus = OperatorSeries(src, {n: c for n, c in f.coeffs.items() if n}, tgt)
    factor = _product_sum([(-1, g0, f_plus)])
    return _power_sum(g0, lambda t: _product_sum([(1, factor, t)]), lambda k: 1)
