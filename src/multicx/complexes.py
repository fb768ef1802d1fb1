"""Multicomplexes, mixed complexes, and their infinity-morphisms.

A multicomplex is a graded space with operators delta_n of degree 2n - 1
whose convolution square vanishes: sum_{i+j=n} delta_i delta_j = 0 for all n.
A mixed complex is the special case delta_n = 0 for n >= 2.  Morphisms come
in families f_n of degree 2n intertwining the two operator families.

The grading width forces delta_n = 0 once 2n - 1 exceeds it, so operator
lists are finite and every "for all n" identity below is a finite check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DegreeMismatch, NotInvertible, SourceTargetMismatch, SpaceMismatch
from .exactla import Matrix, solve
from .graded import (
    GradedMap,
    GradedVectorSpace,
    compose,
    lincomb,
    max_component_index,
)


def _trim(maps):
    maps = list(maps)
    while maps and maps[-1].is_zero:
        maps.pop()
    return maps


class Multicomplex:
    """Graded space plus the operator family (delta_0, delta_1, ...)."""

    __slots__ = ("space", "deltas")

    def __init__(self, space: GradedVectorSpace, deltas):
        self.space = space
        deltas = list(deltas)
        for n, dn in enumerate(deltas):
            if dn.source != space or dn.target != space:
                raise SpaceMismatch("operator %d lives on a different space" % n)
            if dn.degree != 2 * n - 1:
                raise DegreeMismatch("operator %d must have degree %d" % (n, 2 * n - 1))
        if not deltas:
            deltas = [GradedMap.zero(space, space, -1)]
        self.deltas = _trim(deltas) or [GradedMap.zero(space, space, -1)]

    @staticmethod
    def trivial(space: GradedVectorSpace, d: GradedMap) -> "Multicomplex":
        return Multicomplex(space, [d])

    @staticmethod
    def zero(space: GradedVectorSpace) -> "Multicomplex":
        return Multicomplex(space, [GradedMap.zero(space, space, -1)])

    def delta(self, n: int) -> GradedMap:
        if 0 <= n < len(self.deltas):
            return self.deltas[n]
        return GradedMap.zero(self.space, self.space, 2 * n - 1)

    @property
    def order(self) -> int:
        """Largest n with delta_n stored (possibly 0 for a plain complex)."""
        return len(self.deltas) - 1

    @property
    def differential(self) -> GradedMap:
        return self.deltas[0]

    @property
    def is_mixed(self) -> bool:
        return self.order <= 1

    @property
    def is_minimal(self) -> bool:
        return self.differential.is_zero

    @property
    def is_trivial(self) -> bool:
        return self.order == 0

    def __eq__(self, other):
        return (isinstance(other, Multicomplex) and self.space == other.space
                and self.deltas == other.deltas)

    def __repr__(self):
        return "Multicomplex(order %d on %r)" % (self.order, self.space.dims)


class InfinityMorphism:
    """Family of maps f_n: source -> target of degree 2n."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Multicomplex, target: Multicomplex, comps):
        self.source = source
        self.target = target
        comps = list(comps)
        if not comps:
            raise DegreeMismatch("a morphism needs at least its degree-0 component")
        for n, fn in enumerate(comps):
            if fn.source != source.space or fn.target != target.space:
                raise SpaceMismatch("component %d endpoints disagree" % n)
            if fn.degree != 2 * n:
                raise DegreeMismatch("component %d must have degree %d" % (n, 2 * n))
        head, tail = comps[0], _trim(comps[1:])
        self.comps = [head] + tail

    @staticmethod
    def identity(m: Multicomplex) -> "InfinityMorphism":
        return InfinityMorphism(m, m, [GradedMap.identity(m.space)])

    def comp(self, n: int) -> GradedMap:
        if 0 <= n < len(self.comps):
            return self.comps[n]
        return GradedMap.zero(self.source.space, self.target.space, 2 * n)

    @property
    def order(self) -> int:
        return len(self.comps) - 1

    @property
    def is_isotopy(self) -> bool:
        return (self.source.space == self.target.space
                and self.comps[0] == GradedMap.identity(self.source.space))

    def __eq__(self, other):
        return (isinstance(other, InfinityMorphism)
                and self.source == other.source and self.target == other.target
                and self.comps == other.comps)

    def __repr__(self):
        return "InfinityMorphism(order %d)" % self.order


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


def _first_violation(n: int, defect: GradedMap):
    k, r, c, v = next(defect.entries())
    return Violation(n, k, r, c, v)


def validate_multicomplex(m: Multicomplex) -> ValidationReport:
    """Check sum_{i+j=n} delta_i delta_j = 0 for every n that can be nonzero."""
    report = ValidationReport()
    top = m.order
    for n in range(2 * top + 1):
        terms = [(1, compose(m.delta(i), m.delta(n - i)))
                 for i in range(n + 1) if i <= top and n - i <= top]
        defect = lincomb(terms, degree=2 * n - 2, source=m.space, target=m.space)
        if not defect.is_zero:
            report.violations.append(_first_violation(n, defect))
    return report


def validate_infinity_morphism(f: InfinityMorphism) -> ValidationReport:
    """Check sum f_k delta^src_l = sum delta^tgt_k f_l for every n."""
    report = ValidationReport()
    top = f.order + max(f.source.order, f.target.order)
    for n in range(top + 1):
        terms = [(1, compose(f.comp(k), f.source.delta(n - k))) for k in range(n + 1)]
        terms += [(-1, compose(f.target.delta(k), f.comp(n - k))) for k in range(n + 1)]
        defect = lincomb(terms, degree=2 * n - 1,
                         source=f.source.space, target=f.target.space)
        if not defect.is_zero:
            report.violations.append(_first_violation(n, defect))
    return report


def compose_infinity(g: InfinityMorphism, f: InfinityMorphism) -> InfinityMorphism:
    """(g f)_n = sum_{k+l=n} g_k f_l."""
    if f.target != g.source:
        raise SourceTargetMismatch("composition endpoints disagree")
    bound = max_component_index(f.source.space, g.target.space, 2, 0)
    comps = []
    for n in range(max(bound, 0) + 1):
        terms = [(1, compose(g.comp(k), f.comp(n - k))) for k in range(n + 1)]
        comps.append(lincomb(terms, degree=2 * n,
                             source=f.source.space, target=g.target.space))
    return InfinityMorphism(f.source, g.target, comps)


def invert_infinity(f: InfinityMorphism) -> InfinityMorphism:
    """Two-sided inverse of an infinity-isomorphism.

    Components solve the convolution recursion g_0 = f_0^{-1} and
    g_n = -f_0^{-1} sum_{k>=1} f_k g_{n-k}; the recursion stops once the
    grading width kills the component degree.
    """
    f0 = f.comps[0]
    inv_blocks = {}
    for k in f.source.space.degrees:
        if f.source.space.dim(k) != f.target.space.dim(k):
            raise NotInvertible("degree %d dimensions differ" % k)
        x = solve(f0.block(k), Matrix.identity(f.target.space.dim(k)))
        if x is None:
            raise NotInvertible("degree-0 component singular at degree %d" % k)
        inv_blocks[k] = x
    for k in f.target.space.degrees:
        if f.source.space.dim(k) != f.target.space.dim(k):
            raise NotInvertible("degree %d dimensions differ" % k)
    g0 = GradedMap(f.target.space, f.source.space, 0, inv_blocks)
    bound = max_component_index(f.target.space, f.source.space, 2, 0)
    comps = [g0]
    for n in range(1, max(bound, 0) + 1):
        terms = []
        for k in range(1, n + 1):
            terms.append((-1, compose(f.comp(k), comps[n - k])))
        acc = lincomb(terms, degree=2 * n, source=f.target.space, target=f.target.space)
        comps.append(compose(g0, acc))
    return InfinityMorphism(f.target, f.source, comps)


def _sum_space(a: GradedVectorSpace, b: GradedVectorSpace) -> GradedVectorSpace:
    dims = dict(a.dims)
    for k, d in b.dims.items():
        dims[k] = dims.get(k, 0) + d
    return GradedVectorSpace(dims)


def stack_maps(f: GradedMap, g: GradedMap, sum_space: GradedVectorSpace,
               top: GradedVectorSpace) -> GradedMap:
    """Combine f: X -> A and g: X -> B into X -> A (+) B.

    `top` is the first summand A; its dimensions give the row offsets of g's
    blocks inside the sum.
    """
    if f.source != g.source or f.degree != g.degree:
        raise SpaceMismatch("stacked maps must share source and degree")
    blocks = {}
    for k in f.source.degrees:
        tk = k + f.degree
        rows = sum_space.dim(tk)
        cols = f.source.dim(k)
        off = top.dim(tk)
        ent = []
        for (r, c), v in f.block(k).entries.items():
            ent.append((r, c, v))
        for (r, c), v in g.block(k).entries.items():
            ent.append((off + r, c, v))
        if ent:
            blocks[k] = Matrix(rows, cols, ent)
    return GradedMap(f.source, sum_space, f.degree, blocks)


def product(m1: Multicomplex, m2: Multicomplex) -> Multicomplex:
    """Degreewise direct sum with blockwise-diagonal operators, m1 first."""
    space = _sum_space(m1.space, m2.space)
    deltas = []
    for n in range(max(m1.order, m2.order) + 1):
        d1, d2 = m1.delta(n), m2.delta(n)
        deg = 2 * n - 1
        blocks = {}
        for k in space.degrees:
            rows, cols = space.dim(k + deg), space.dim(k)
            roff, coff = m1.space.dim(k + deg), m1.space.dim(k)
            ent = [(r, c, v) for (r, c), v in d1.block(k).entries.items()]
            ent += [(roff + r, coff + c, v) for (r, c), v in d2.block(k).entries.items()]
            if ent:
                blocks[k] = Matrix(rows, cols, ent)
        deltas.append(GradedMap(space, space, deg, blocks))
    return Multicomplex(space, deltas)
