"""Exact sparse linear algebra over the rationals.

Everything downstream (graded maps, spectral pages, gauge series) reduces to
ranks, kernels, images, complements and induced maps on subquotients computed
here.  Entries are exact rationals: a Python `int` when the value is
integral and a `fractions.Fraction` otherwise; there is no floating point
anywhere in the package.  `rat` is the one place where a value is put in
that form, so the de Rham operators of an integer structure hold only ints
and a Fraction appears only where a denominator does.  Arithmetic may still
produce an integral Fraction; it compares and hashes equal to its int, so
matrix equality and printed values do not depend on which of the two is
held.  The only inversion in the package is the one final division of each
pivot row of `_rref` by its pivot.  Basis selection follows a leftmost-pivot
convention, so every output is reproducible byte for byte.

Every elimination goes through one kernel, `_rref`, which is fraction-free:
it eliminates over integer rows.  It keeps a column index (column -> ids of
the rows holding a nonzero there), so it reads pivot candidates and the rows
to clear from the index, visits only the columns that occur, and costs
nothing on an empty matrix.

A `Matrix` is stored by rows, {row: {col: value}} with no empty row and no
stored zero (the CSR layout of Saad, *Iterative Methods for Sparse Linear
Systems*, 2003, ch. 3), so products, eliminations, sums and slices work on
rows as stored.  Rows are shared (`select_rows`, `vstack`, `_plus`), so no
row changes once its matrix is built; `_rref` copies the rows it clears.
`Matrix.entries`, a read-only {(row, col): value} view built when read, is
for outside readers: the tests, and the benchmark tracer, which counts
nonzeros as its length.  `mul`, the constructor and `_rref` sum in place
with no call per entry; `accumulate` sums everywhere else.

`Subspace(n, basis)` checks that a caller's basis is independent, with one
rank computation.  Bases that are independent by construction skip that
check through the private `Subspace._independent`:
  - the kernel basis of `kernel_image` has an identity entry at its own free
    column and zeros at every other free column;
  - the image basis of `kernel_image` is the pivot columns, which no earlier
    column spans;
  - `complement` keeps pivot columns of an independent ambient basis;
  - `Subspace.zero` has no columns;
  - the image basis B = d C of `transfer.build_retract` is d applied to a
    complement C of ker d, on which d is injective;
  - the spectral filtration F_s takes identity columns, and the cycles Z^r_s
    re-index a kernel basis injectively into the total degree, which keeps
    it independent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .errors import NotContained, NotWellDefined, ShapeMismatch


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(x):
    """The exact rational x: an `int` when it is integral, else a `Fraction`.

    Ints (a bool becomes its int), strings p or p/q and Fractions are
    accepted; a Fraction or string whose denominator is 1 becomes its
    numerator.  A string must be p or p/q in ASCII digits, with an optional
    sign on p: any other string (a decimal, an exponent, an underscore, a
    space, a non-ASCII digit) is a ValueError naming it, as is a part past
    Python's integer digit limit, and q = 0 is a ZeroDivisionError.
    Anything else, a float included, is a TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, str):
        match = _RATIONAL.fullmatch(x)
        if match is None:
            raise ValueError("not a rational p or p/q: %r" % (x,))
        p, q = match.groups()
        x = int(p) if q is None else Fraction(int(p), int(q))
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("not an exact rational: %r" % (x,))


def accumulate(acc: dict, items, a=1) -> dict:
    """Add a*v into acc for every (key, v) in items and return acc.

    A key whose sum cancels is dropped, so a dict never stores a zero.
    With a = 1 values are added as they are, with no multiplication.
    """
    unit = a == 1
    for key, v in items:
        if not unit:
            v = a * v
        prev = acc.get(key)
        if prev is None:
            if v:
                acc[key] = v
        else:
            tot = prev + v
            if tot:
                acc[key] = tot
            else:
                del acc[key]
    return acc


class Matrix:
    """Sparse rational matrix: `data` is {row: {col: value}} (module
    docstring), each value as `rat` gives it, never changed once built.  The
    constructor sums (row, col, value) triples or a {(row, col): value}."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative matrix shape %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data = {}
        if entries:
            if isinstance(entries, dict):
                entries = [(r, c, v) for (r, c), v in entries.items()]
            for r, c, v in entries:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeMismatch("entry (%d,%d) outside %dx%d" % (r, c, rows, cols))
                if type(v) is not int:
                    v = rat(v)
                row = data.setdefault(r, {})
                prev = row.get(c)
                v = v if prev is None else prev + v
                if v:
                    row[c] = v
                elif prev is not None:
                    del row[c]
            if not all(data.values()):
                self.data = {r: row for r, row in data.items() if row}

    @property
    def entries(self):
        """A read-only {(row, col): value} view, built when read."""
        return MappingProxyType({(r, c): v for r, row in self.data.items() for c, v in row.items()})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [(i, i, 1) for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%d, %d, %d entries)" % (self.rows, self.cols, len(self.entries))

    def is_zero(self) -> bool:
        return not self.data

    def get(self, r: int, c: int):
        return self.data.get(r, {}).get(c, 0)

    def add(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", a) -> "Matrix":
        """self + a * other: a row that only one side holds is shared (scaled
        first unless a = 1), and self is the sum when other has no rows."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("add %dx%d to %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        if not other.data:
            return self
        m = Matrix(self.rows, self.cols)
        data = m.data = dict(self.data)
        for r, row in other.data.items():
            mine = data.get(r)
            if mine is None:
                data[r] = row if a == 1 else {c: a * v for c, v in row.items()}
            elif mine := accumulate(dict(mine), row.items(), a):
                data[r] = mine
            else:
                del data[r]
        return m

    def scale(self, a) -> "Matrix":
        a = rat(a)
        m = Matrix(self.rows, self.cols)
        if a:
            m.data = {r: {c: a * v for c, v in row.items()} for r, row in self.data.items()}
        return m

    def neg(self) -> "Matrix":
        return self.scale(-1)

    def mul(self, other: "Matrix") -> "Matrix":
        """self @ other, row by row (Gustavson 1978): each entry (j, a) of a
        row of self adds a * other's row j into the output row in place, and
        a sum that cancels is deleted as it happens."""
        if self.cols != other.rows:
            raise ShapeMismatch("mul %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        m = Matrix(self.rows, other.cols)
        by_row = other.data
        if not (self.data and by_row):
            return m
        for i, left in self.data.items():
            row = {}
            for j, a in left.items():
                hits = by_row.get(j)
                if hits:
                    for k, v in hits.items():
                        prev = row.get(k)
                        if prev is None:
                            row[k] = a * v
                        elif tot := prev + a * v:
                            row[k] = tot
                        else:
                            del row[k]
            if row:
                m.data[i] = row
        return m

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        m = Matrix(self.rows, self.cols + other.cols)
        data = m.data = dict(self.data)
        for r, row in other.data.items():
            data[r] = {**data.get(r, {}), **{self.cols + c: v for c, v in row.items()}}
        return m

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack col mismatch")
        m = Matrix(self.rows + other.rows, self.cols)
        m.data = {**self.data, **{self.rows + r: row for r, row in other.data.items()}}
        return m

    def select_columns(self, js) -> "Matrix":
        pos = {j: k for k, j in enumerate(js)}
        m = Matrix(self.rows, len(js))
        m.data = {r: kept for r, row in self.data.items()
                  if (kept := {k: v for c, v in row.items() if (k := pos.get(c)) is not None})}
        return m

    def select_rows(self, rs) -> "Matrix":
        m = Matrix(len(rs), self.cols)
        data = self.data
        m.data = {k: data[r] for k, r in enumerate(rs) if r in data}
        return m


def _unit_row(col, row):
    """An integer pivot row divided by its pivot at `col`: each v/p is an
    `int` when p divides v and a `Fraction` otherwise."""
    p = row[col]
    if p == 1:
        return row
    return {c: Fraction(v, p) if v % p else v // p for c, v in row.items()}


def _rref(m: Matrix):
    """Reduced row echelon form, eliminated over integer rows (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", 1968; Geddes, Czapor and Labahn, *Algorithms for Computer
    Algebra*, 1992, ch. 9).

    Returns (pivot_cols, rows), rows an iterator over {col: value} dicts in
    echelon order.  A row holding a Fraction is first multiplied by the lcm
    of its denominators.  The pivot p clears a row whose entry in its column
    is a as row <- (p/g) row - (a/g) pivot_row, g = gcd(p, a) with the sign
    of p, and the row is divided by its content, the gcd of its entries.
    Every row stays a nonzero multiple of the one rational elimination
    would hold, so zero patterns, pivots and key order are the same.  Each
    pivot row is divided by its pivot once, as the iterator reaches it, so
    a caller that needs only the pivots pays for no division.

    Each row is copied (rows are shared) and cleared in place, keeping the
    column index `where`: only a key the pivot row adds or cancels changes
    it.  One pass over a column's holders picks the sparsest unused row,
    then the lowest id; RREF is unique, so that only keeps fill-in low.
    """
    rows = {}
    where = {}
    fractional = set()
    for r, row in m.data.items():
        rows[r] = dict(row)
        for c, v in row.items():
            if type(v) is not int:
                fractional.add(r)
            ids = where.get(c)
            if ids is None:
                where[c] = {r}
            else:
                ids.add(r)
    for r in fractional:
        lcm = 1
        for v in rows[r].values():
            lcm = lcm // gcd(lcm, v.denominator) * v.denominator
        rows[r] = {c: v.numerator * (lcm // v.denominator) for c, v in rows[r].items()}
    used = set()
    pivot_rows = []
    pivots = []
    for col in sorted(where):
        holders = where[col]
        i = None
        for k in holders:
            if k not in used and (i is None or (len(rows[k]), k) < (len(rows[i]), i)):
                i = k
        if i is None:
            continue
        used.add(i)
        piv = rows[i]
        p = piv[col]
        where[col] = {i}
        for k in holders:
            if k == i:
                continue
            row = rows[k]
            a = row[col]
            g = gcd(p, a) if p > 0 else -gcd(p, a)
            s = p // g
            if s != 1:
                row = {c: s * v for c, v in row.items()}
            b = -(a // g)
            for c, v in piv.items():
                prev = row.get(c)
                if prev is None:
                    row[c] = b * v
                    where[c].add(k)
                elif tot := prev + b * v:
                    row[c] = tot
                else:
                    del row[c]
                    where[c].discard(k)
            content = gcd(*row.values())
            if content > 1:
                row = {c: v // content for c, v in row.items()}
            rows[k] = row
        pivot_rows.append(i)
        pivots.append(col)
    return pivots, map(_unit_row, pivots, [rows[i] for i in pivot_rows])


def rank(m: Matrix) -> int:
    pivots, _ = _rref(m)
    return len(pivots)


class Subspace:
    """A subspace of Q^n given by a basis matrix with independent columns.

    `Subspace(n, basis)` checks the shape and the independence of the basis;
    `Subspace._independent` skips the rank check for bases that are
    independent by construction (see the module docstring).
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.rows != ambient_dim:
            raise ShapeMismatch("basis rows != ambient dim")
        if basis.cols and rank(basis) != basis.cols:
            raise ShapeMismatch("basis columns are dependent")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def _independent(cls, ambient_dim: int, basis: Matrix) -> "Subspace":
        """A subspace on a basis whose columns are known to be independent."""
        sub = object.__new__(cls)
        sub.ambient_dim = ambient_dim
        sub.basis = basis
        return sub

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._independent(ambient_dim, Matrix(ambient_dim, 0))

    @staticmethod
    def spanned_by(ambient_dim: int, vectors: Matrix) -> "Subspace":
        """Span of arbitrary column vectors; dependent columns are dropped."""
        if vectors.rows != ambient_dim:
            raise ShapeMismatch("basis rows != ambient dim")
        return kernel_image(vectors)[1]

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim and self.contains(other))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)

    def contains(self, other: "Subspace") -> bool:
        return solve(self.basis, other.basis) is not None


def _kernel(m: Matrix):
    """The kernel basis of m (see `kernel_image`) and m's pivot columns,
    from one `_rref`."""
    pivots, rows = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    # free column -> its kernel vector; the cost is the RREF's nonzeros
    slot = {fc: k for k, fc in enumerate(free)}
    ker = Matrix(m.cols, len(free))
    ker.data = {fc: {k: 1} for k, fc in enumerate(free)}
    ker.data.update({pcol: out for pcol, row in zip(pivots, rows)
                     if (out := {k: -v for c, v in row.items() if (k := slot.get(c)) is not None})})
    return Subspace._independent(m.cols, ker), pivots


def kernel_image(m: Matrix):
    """Kernel and image (column space) of m, with canonical bases.

    The kernel basis comes from the unique RREF (one vector per free column,
    free columns ascending); the image basis is the original columns at the
    pivot positions, so dim ker + dim im = cols always.
    """
    ker, pivots = _kernel(m)
    return ker, Subspace._independent(m.rows, m.select_columns(pivots))


def solve(a: Matrix, b: Matrix):
    """Solve a @ X = b columnwise; returns X or None when unsolvable.

    Free variables are set to zero, so the solution is deterministic.
    """
    if a.rows != b.rows:
        raise ShapeMismatch("solve with mismatched rows")
    pivots, rows = _rref(a.hstack(b))
    # pivots ascend: b is outside the column space of a iff the last is in b
    if pivots and pivots[-1] >= a.cols:
        return None
    x = Matrix(a.cols, b.cols)
    n = a.cols
    x.data = {pcol: out for pcol, row in zip(pivots, rows)
              if (out := {c - n: v for c, v in row.items() if c >= n})}
    return x


def complement(sub: Subspace, ambient: Subspace) -> Subspace:
    """A complement of `sub` inside `ambient`, spanned by ambient basis columns.

    The chosen columns are the pivots at or past `sub.dim` of one RREF of
    [sub | ambient].  A column is a pivot exactly when it is not in the span
    of the columns before it, so this is the greedy choice: scan ambient's
    basis in order and keep each column that enlarges the span.  Because
    ambient's basis is independent, `sub` lies inside `ambient` exactly when
    the RREF has `ambient.dim` pivots.
    """
    if sub.ambient_dim != ambient.ambient_dim:
        raise ShapeMismatch("complement in a different ambient space")
    pivots, _ = _rref(sub.basis.hstack(ambient.basis))
    if len(pivots) != ambient.dim:
        raise NotContained("subspace not inside the ambient subspace")
    chosen = [p - sub.dim for p in pivots if p >= sub.dim]
    return Subspace._independent(ambient.ambient_dim, ambient.basis.select_columns(chosen))


def induced_subquotient_map(m: Matrix, src, dst) -> Matrix:
    """Matrix of the map induced by m between subquotients.

    `src` and `dst` are (numerator, denominator) Subspace pairs with the
    denominator contained in the numerator.  Coordinates on a subquotient are
    the coefficients on the greedy complement of the denominator inside the
    numerator, so they are deterministic.  Raises NotWellDefined when m fails
    to respect either subquotient, which signals a logic error upstream.
    """
    src_num, src_den = src
    dst_num, dst_den = dst
    src_rep = complement(src_den, src_num)
    dst_rep = complement(dst_den, dst_num)
    if m.cols != src_num.ambient_dim or m.rows != dst_num.ambient_dim:
        raise ShapeMismatch("map shape does not match the ambient spaces")
    if src_den.dim:
        if solve(dst_den.basis, m.mul(src_den.basis)) is None:
            raise NotWellDefined("denominator is not carried into the target denominator")
    frame = dst_den.basis.hstack(dst_rep.basis)
    if src_rep.dim == 0:
        return Matrix(dst_rep.dim, 0)
    coords = solve(frame, m.mul(src_rep.basis))
    if coords is None:
        raise NotWellDefined("numerator is not carried into the target numerator")
    return coords.select_rows(range(dst_den.dim, dst_den.dim + dst_rep.dim))
