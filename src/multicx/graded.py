"""Finitely supported Z-graded vector spaces and degree-homogeneous maps.

The grading convention is homological: differentials lower degree by one.
Cohomologically graded data (de Rham forms) enters with negated degrees,
handled by the de Rham builder.
"""

from __future__ import annotations

from .errors import DegreeMismatch, NotSquareZero, ShapeMismatch, SpaceMismatch
from .exactla import Matrix, rank, rat


class GradedVectorSpace:
    """Map from integer degree to a positive dimension; absent means zero."""

    __slots__ = ("dims",)

    def __init__(self, dims=None):
        clean = {}
        for k, d in (dims or {}).items():
            if d < 0:
                raise ShapeMismatch("negative dimension in degree %d" % k)
            if d:
                clean[int(k)] = int(d)
        self.dims = dict(sorted(clean.items()))

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def degrees(self):
        return list(self.dims)

    @property
    def is_zero(self) -> bool:
        return not self.dims

    @property
    def min_degree(self) -> int:
        return min(self.dims)

    @property
    def max_degree(self) -> int:
        return max(self.dims)

    @property
    def width(self) -> int:
        return 0 if self.is_zero else self.max_degree - self.min_degree

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return "GradedVectorSpace(%r)" % (self.dims,)


def max_component_index(src: GradedVectorSpace, tgt: GradedVectorSpace,
                        slope: int, offset: int) -> int:
    """Largest n >= 0 for which a degree slope*n + offset map src -> tgt can
    be nonzero; -1 when no such map exists (e.g. a zero space)."""
    if src.is_zero or tgt.is_zero:
        return -1
    room = tgt.max_degree - src.min_degree - offset
    if room < 0:
        return -1
    return room // slope


class GradedMap:
    """Degree-homogeneous linear map, stored as one Matrix block per source
    degree.  Blocks that are empty-shaped or identically zero are omitted."""

    __slots__ = ("source", "target", "degree", "blocks")

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 degree: int, blocks=None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        clean = {}
        for k, m in (blocks or {}).items():
            k = int(k)
            want = (target.dim(k + self.degree), source.dim(k))
            if (m.rows, m.cols) != want:
                raise ShapeMismatch(
                    "block at degree %d has shape %dx%d, expected %dx%d"
                    % (k, m.rows, m.cols, want[0], want[1]))
            if m.rows and m.cols and not m.is_zero():
                clean[k] = m
        self.blocks = dict(sorted(clean.items()))

    @staticmethod
    def zero(source, target, degree) -> "GradedMap":
        return GradedMap(source, target, degree)

    @staticmethod
    def identity(space: GradedVectorSpace) -> "GradedMap":
        return GradedMap(space, space, 0,
                         {k: Matrix.identity(d) for k, d in space.dims.items()})

    @staticmethod
    def from_entries(source, target, degree, entries) -> "GradedMap":
        """entries: iterable of (source_degree, row, col, value)."""
        per = {}
        for k, r, c, v in entries:
            per.setdefault(int(k), []).append((r, c, rat(v)))
        blocks = {}
        for k, ent in per.items():
            blocks[k] = Matrix(target.dim(k + degree), source.dim(k), ent)
        return GradedMap(source, target, degree, blocks)

    def block(self, k: int) -> Matrix:
        m = self.blocks.get(k)
        if m is None:
            return Matrix(self.target.dim(k + self.degree), self.source.dim(k))
        return m

    def entries(self):
        """Deterministic flat listing (source_degree, row, col, value)."""
        for k, m in self.blocks.items():
            for r, row in sorted(m.data.items()):
                for c, v in sorted(row.items()):
                    yield k, r, c, v

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.degree == other.degree
                and self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def __repr__(self):
        return "GradedMap(degree %d, blocks at %r)" % (self.degree, list(self.blocks))

    def scale(self, a) -> "GradedMap":
        a = rat(a)
        if not a:
            return GradedMap.zero(self.source, self.target, self.degree)
        return GradedMap(self.source, self.target, self.degree,
                         {k: m.scale(a) for k, m in self.blocks.items()})

    def neg(self) -> "GradedMap":
        return self.scale(-1)


def compose(g: GradedMap, f: GradedMap) -> GradedMap:
    """g after f; degrees add and blocks multiply."""
    if g.source != f.target:
        raise ShapeMismatch("compose: inner spaces disagree")
    blocks = {}
    for k, mf in f.blocks.items():
        mg = g.blocks.get(k + f.degree)
        if mg is None:
            continue
        prod = mg.mul(mf)
        if not prod.is_zero():
            blocks[k] = prod
    return GradedMap(f.source, g.target, g.degree + f.degree, blocks)


def lincomb(terms, degree=None, source=None, target=None) -> GradedMap:
    """Blockwise linear combination of (scalar, map) terms.

    An empty term list needs the degree and spaces spelled out.
    """
    terms = [(rat(a), f) for a, f in terms]
    if not terms:
        if degree is None or source is None or target is None:
            raise DegreeMismatch("empty linear combination needs degree and spaces")
        return GradedMap.zero(source, target, degree)
    first = terms[0][1]
    for _, f in terms:
        if f.degree != first.degree:
            raise DegreeMismatch("mixed degrees in linear combination")
        if f.source != first.source or f.target != first.target:
            raise SpaceMismatch("mixed spaces in linear combination")
    acc = {}
    for a, f in terms:
        if a:
            for k, m in f.blocks.items():
                acc[k] = (acc[k] if k in acc else Matrix(m.rows, m.cols))._plus(m, a)
    return GradedMap(first.source, first.target, first.degree, acc)


def homology(d: GradedMap) -> GradedVectorSpace:
    """Dimensions of ker d / im d per degree, for a degree -1 differential."""
    if d.degree != -1:
        raise DegreeMismatch("differential must have degree -1")
    if d.source != d.target:
        raise SpaceMismatch("differential endpoints disagree")
    if not compose(d, d).is_zero:
        raise NotSquareZero("d squared is nonzero")
    ranks = {k: rank(d.block(k)) for k in d.source.degrees}
    return GradedVectorSpace({k: d.source.dim(k) - r - ranks.get(k + 1, 0)
                              for k, r in ranks.items()})
