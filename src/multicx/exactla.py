"""Exact sparse linear algebra over the rationals.

Everything downstream (graded maps, spectral pages, gauge series) reduces to
ranks, kernels, images, complements and induced maps on subquotients computed
here.  All arithmetic uses `fractions.Fraction`; there is no floating point
anywhere in the package.  Basis selection follows a leftmost-pivot convention,
so every output is reproducible byte for byte.

Every elimination goes through one kernel, `_rref`.  It keeps a column index
(column -> ids of the rows holding a nonzero there), so it reads pivot
candidates and the rows to clear from the index, visits only the columns
that occur, and costs nothing on an empty matrix.

`Subspace(n, basis)` checks that a caller's basis is independent, with one
rank computation.  Bases that are independent by construction skip that
check through the private `Subspace._independent`:
  - the kernel basis of `kernel_image` has an identity entry at its own free
    column and zeros at every other free column;
  - the image basis of `kernel_image` is the pivot columns, which no earlier
    column spans;
  - `complement` keeps pivot columns of an independent ambient basis;
  - `Subspace.zero` and `Subspace.full` have no columns and identity columns;
  - the spectral filtration F_s takes identity columns, and the cycles Z^r_s
    re-index a kernel basis injectively into the total degree, which keeps
    it independent.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotContained, NotWellDefined, ShapeMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/7', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def accumulate(acc: dict, items, a=1) -> dict:
    """Add a*v into acc for every (key, v) in items and return acc.

    This is the package's one sparse-sum loop: a key whose sum cancels is
    dropped, so a sparse dict never stores an explicit zero.  Values are
    Fractions.  With a = 1 they are added as they are, without a
    multiplication, and a new key takes its value without an addition.
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
    """Sparse rational matrix; immutable by convention after construction.

    Entries are stored as {(row, col): Fraction} with no explicit zeros.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative matrix shape %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            items = (entries.items() if isinstance(entries, dict)
                     else (((r, c), v) for r, c, v in entries))
            accumulate(self.entries, self._checked(items))

    def _checked(self, items):
        """The ((row, col), Fraction) items, each checked against the shape."""
        for (r, c), v in items:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ShapeMismatch("entry (%d,%d) outside %dx%d" % (r, c, self.rows, self.cols))
            yield (r, c), rat(v)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [(i, i, ONE) for i in range(n)])

    @staticmethod
    def column(values) -> "Matrix":
        return Matrix(len(values), 1, [(i, 0, rat(v)) for i, v in enumerate(values)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return "Matrix(%d, %d, %d entries)" % (self.rows, self.cols, len(self.entries))

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), ZERO)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("add %dx%d to %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        m = Matrix(self.rows, self.cols)
        m.entries.update(self.entries)
        accumulate(m.entries, other.entries.items())
        return m

    def scale(self, a) -> "Matrix":
        a = rat(a)
        m = Matrix(self.rows, self.cols)
        if a:
            m.entries.update({k: a * v for k, v in self.entries.items()})
        return m

    def neg(self) -> "Matrix":
        return self.scale(-1)

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.neg())

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ShapeMismatch("mul %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        by_row = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        lefts = {}
        for (i, j), a in self.entries.items():
            hits = by_row.get(j)
            if hits:
                lefts.setdefault(i, []).append((a, hits))
        # one output row at a time, so no second copy of the product is held
        m = Matrix(self.rows, other.cols)
        for i, terms in lefts.items():
            row = {}
            for a, hits in terms:
                accumulate(row, hits, a)
            m.entries.update(((i, k), v) for k, v in row.items())
        return m

    def transpose(self) -> "Matrix":
        m = Matrix(self.cols, self.rows)
        m.entries.update({(c, r): v for (r, c), v in self.entries.items()})
        return m

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        m = Matrix(self.rows, self.cols + other.cols)
        m.entries.update(self.entries)
        for (r, c), v in other.entries.items():
            m.entries[(r, self.cols + c)] = v
        return m

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack col mismatch")
        m = Matrix(self.rows + other.rows, self.cols)
        m.entries.update(self.entries)
        for (r, c), v in other.entries.items():
            m.entries[(self.rows + r, c)] = v
        return m

    def select_columns(self, js) -> "Matrix":
        pos = {j: k for k, j in enumerate(js)}
        m = Matrix(self.rows, len(js))
        for (r, c), v in self.entries.items():
            k = pos.get(c)
            if k is not None:
                m.entries[(r, k)] = v
        return m

    def select_rows(self, rs) -> "Matrix":
        pos = {r: k for k, r in enumerate(rs)}
        m = Matrix(len(rs), self.cols)
        for (r, c), v in self.entries.items():
            k = pos.get(r)
            if k is not None:
                m.entries[(k, c)] = v
        return m


def _rref(m: Matrix):
    """Reduced row echelon form.

    Returns (pivot_cols, rows) where rows is a list of {col: value} dicts in
    echelon order.  A column index `where` maps each column to the ids of
    the rows holding a nonzero there, so pivot candidates and the rows to
    clear are read from it instead of found by scanning every row.  Only
    columns that occur in the matrix are visited, left to right: elimination
    adds multiples of rows that are already there, so it never creates a
    new column.  Clearing a row with the pivot row can change that row only
    at the pivot row's keys, so those are the only index entries updated.
    Among the candidate pivot rows still unused, the sparsest (then lowest
    row id) is chosen; that does not affect the result (RREF is unique) but
    keeps intermediate fill-in low.  A pivot row whose pivot is already 1 is
    used as it is.
    """
    rows = {}
    where = {}
    for (r, c), v in m.entries.items():
        row = rows.get(r)
        if row is None:
            rows[r] = row = {}
        row[c] = v
        ids = where.get(c)
        if ids is None:
            where[c] = ids = set()
        ids.add(r)
    used = set()
    done = []
    pivots = []
    for col in sorted(where):
        holders = where[col]
        cand = [i for i in holders if i not in used]
        if not cand:
            continue
        i = min(cand, key=lambda i: (len(rows[i]), i))
        used.add(i)
        piv = rows[i]
        if piv[col] != 1:
            inv = ONE / piv[col]
            rows[i] = piv = {c: v * inv for c, v in piv.items()}
        where[col] = {i}
        keys = [c for c in piv if c != col]
        for k in holders:
            if k == i:
                continue
            row = rows[k]
            accumulate(row, piv.items(), -row[col])
            for c in keys:
                if c in row:
                    where[c].add(k)
                else:
                    where[c].discard(k)
        done.append(piv)
        pivots.append(col)
    return pivots, done


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
    def full(ambient_dim: int) -> "Subspace":
        return Subspace._independent(ambient_dim, Matrix.identity(ambient_dim))

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


def kernel_image(m: Matrix):
    """Kernel and image (column space) of m, with canonical bases.

    The kernel basis comes from the unique RREF (one vector per free column,
    free columns ascending); the image basis is the original columns at the
    pivot positions, so dim ker + dim im = cols always.
    """
    pivots, rows = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    ker = Matrix(m.cols, len(free))
    for k, fc in enumerate(free):
        ker.entries[(fc, k)] = ONE
        for prow, pcol in enumerate(pivots):
            v = rows[prow].get(fc)
            if v:
                ker.entries[(pcol, k)] = -v
    image = m.select_columns(pivots)
    return Subspace._independent(m.cols, ker), Subspace._independent(m.rows, image)


def solve(a: Matrix, b: Matrix):
    """Solve a @ X = b columnwise; returns X or None when unsolvable.

    Free variables are set to zero, so the solution is deterministic.
    """
    if a.rows != b.rows:
        raise ShapeMismatch("solve with mismatched rows")
    aug = a.hstack(b)
    pivots, rows = _rref(aug)
    for p, prow in zip(pivots, rows):
        if p >= a.cols:
            return None
    x = Matrix(a.cols, b.cols)
    for prow, pcol in enumerate(pivots):
        for c, v in rows[prow].items():
            if c >= a.cols and v:
                x.entries[(pcol, c - a.cols)] = v
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
