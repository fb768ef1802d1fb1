"""The total complex of a multicomplex, its row filtration, and the pages of
the resulting spectral sequence.

Per total degree n the total complex collects slots (n, q) carrying the
space in degree n - 2q; the boundary sends slot q to slot q - r through the
weight-r operator, and the decreasing filtration at level s keeps the rows
with q <= -s.  Shifting q by one identifies total degree n and level s with
total degree n + 2 and level s - 1, slot for slot, so the whole filtered
complex is the fold `_fold(n, s) = (n % 2, s + n // 2)` of its two parities.
`TotalComplex` keeps the ascending level lists and boundaries of total
degrees 0 and 1 only; degree n reads the level list of its parity shifted
by n // 2 and the same boundary matrix, and the start of F_s is one bisect
of that list.  Cycles, page entries, page differentials and the page
dimensions of `page_dims` are computed once per class; `lo` and `hi` only
mark the window of total degrees that a page prints, which spans both
parities around the support.

Pages follow the standard filtered-complex construction
    E^r_s = Z^r_s / (Z^{r-1}_{s+1} + boundary Z^{r-1}_{s-r+1}),
    Z^r_s = {x in F_s : boundary x in F_{s+r}},
with d^r the induced map on subquotients, reported in (filtration level,
total degree) coordinates.

Degeneration at page one is decided from ranks alone.  Slot q of total
degree n carries A_{n-2q} with the weight-zero differential, so
E^1_s(n) = H(A, d)_{n+2s}, and sum_s dim E^1_s(n) is the dimension of
H(A, d) in the degrees of the parity of n.  The filtration of each total
degree is finite, so the sequence converges: E^infinity_s(n) =
gr_s H_n(Tot).  Each page is the homology of the one before, so its total
dimension at n is the previous one minus the ranks of the d^r leaving and
entering degree n; page dimensions never increase.  Hence every
differential on every page vanishes exactly when, for both parities,
dim H(A, d) in that parity equals dim H_n(Tot) = dim Tot_n minus the ranks
of the two boundaries.

Every page dimension and every differential's rank is fixed by ranks of
corner blocks of the boundary, the rank invariants of persistence
(Edelsbrunner, Letscher and Zomorodian 2002; Basu and Parida 2017).  Let
rho_n(s, t) be the rank of boundary(n) on the columns of F_s(n) and the rows
of Tot_{n-1} below level t.  Then
    dim E^r_s(n) = dim gr_s(n) - rho_n(s, s+r) + rho_n(s+1, s+r)
                   + rho_{n+1}(s-r+1, s) - rho_{n+1}(s-r+1, s+1),
    rank d^r_s(n) = rho_n(s, s+r+1) - rho_n(s, s+r)
                    - rho_n(s+1, s+r+1) + rho_n(s+1, s+r).
The rows of a boundary are in ascending level, so the rows below level t
are a prefix, and the pivots of one RREF of the transposed F_s column block
(its row-rank profile) give rho_n(s, t) for every t: one elimination per
occupied class of `_fold`.  The rank test reads the rank of each boundary
off the profile of its lowest class, whose F_s is the whole total degree.
When the rank test fails, the witness and the page table are read off
these ranks.  Both sides of each formula are invariant under the fold, so
`page_dims` evaluates the dimension once per class of `_fold`, four corner
ranks each, whatever the width of the printed window, and the witness
search tests one source per class.  `page` builds the
subquotients themselves and is the oracle these ranks are checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .complexes import HodgeData, Multicomplex, validate_multicomplex
from .errors import InvalidMulticomplex, NotWellDefined
from .exactla import Matrix, Subspace, _rref, kernel_image, induced_subquotient_map
from .graded import GradedVectorSpace


def _fold(n, s):
    """The class of (total degree, level) under (n, s) ~ (n + 2, s - 1)."""
    return n % 2, s + n // 2


class TotalComplex:
    """Slot lists and boundary matrices of total degrees 0 and 1; total
    degree n is the one of its parity shifted by n // 2."""

    def __init__(self, source: Multicomplex):
        rep = validate_multicomplex(source)
        if not rep.ok:
            raise InvalidMulticomplex(rep.describe(), rep)
        self.source = source
        space = source.space
        # slot q of parity p carries degree p - 2q, that is level s = -q
        # carries p + 2s; ascending degrees give the ascending level list
        self._levels = [[(k - p) // 2 for k in space.degrees if (k - p) % 2 == 0]
                        for p in (0, 1)]
        # the offset of each slot of parity p, then the total dimension
        self._starts = [[0] for p in (0, 1)]
        for p in (0, 1):
            for d in self.slot_dims(p):
                self._starts[p].append(self._starts[p][-1] + d)
        self._boundaries = [self._boundary_matrix(p) for p in (0, 1)]
        self._zcache = {}
        self._profiles = {}
        # lo and hi only mark the window of total degrees a page prints
        self.lo, self.hi = ((0, -1) if space.is_zero
                            else (space.min_degree - 2, space.max_degree + 2))

    def slots(self, n):
        return [n // 2 - s for s in self._levels[n % 2]]

    def boundary(self, n) -> Matrix:
        """The boundary from total degree n to n - 1."""
        return self._boundaries[n % 2]

    def slot_dims(self, n):
        space = self.source.space
        return [space.dim(n - 2 * q) for q in self.slots(n)]

    def total_dim(self, n) -> int:
        return self._starts[n % 2][-1]

    def offset(self, n, q) -> int:
        off = 0
        for q2, d in zip(self.slots(n), self.slot_dims(n)):
            if q2 == q:
                return off
            off += d
        raise KeyError("slot %r absent at total degree %d" % (q, n))

    def _boundary_matrix(self, n) -> Matrix:
        m = self.source
        targets = self.slots(n - 1)
        out = Matrix(self.total_dim(n - 1), self.total_dim(n))
        for q_src in self.slots(n):
            col_off = self.offset(n, q_src)
            for r in range(m.order + 1):
                if q_src - r not in targets:
                    continue
                row_off = self.offset(n - 1, q_src - r)
                for i, row in m.delta(r).block(n - 2 * q_src).data.items():
                    dst = out.data.setdefault(row_off + i, {})
                    for j, v in row.items():
                        dst[col_off + j] = v
        return out

    def levels(self, n):
        """Occupied filtration levels at total degree n, ascending."""
        return [s - n // 2 for s in self._levels[n % 2]]

    def _filtration_start(self, n, s) -> int:
        """The first coordinate of F_s in the total degree n block.  Slots
        run by ascending level, so F_s is every coordinate from there on and
        the rows below level s are the ones before it."""
        p, level = _fold(n, s)
        return self._starts[p][bisect_left(self._levels[p], level)]

    def filtration_indices(self, n, s):
        """Coordinate indices of F_s inside the total degree n block."""
        return list(range(self._filtration_start(n, s), self.total_dim(n)))

    def filtration(self, n, s) -> Subspace:
        dim = self.total_dim(n)
        cols = self.filtration_indices(n, s)
        return Subspace._independent(dim, Matrix.identity(dim).select_columns(cols))

    def cycles(self, n, s, r) -> Subspace:
        """Z^r_s at total degree n: elements of F_s pushed into F_{s+r};
        r < 0 is clamped to the filtration itself."""
        if r < 0:
            return self.filtration(n, s)
        key = _fold(n, s) + (r,)
        cached = self._zcache.get(key)
        if cached is not None:
            return cached
        dim = self.total_dim(n)
        cols = self.filtration_indices(n, s)
        rows = range(self._filtration_start(n - 1, s + r))
        ker, _ = kernel_image(self.boundary(n).select_rows(rows).select_columns(cols))
        embed = Matrix(dim, ker.dim)
        embed.data = {cols[i]: row for i, row in ker.basis.data.items()}
        out = Subspace._independent(dim, embed)
        self._zcache[key] = out
        return out

    def _profile(self, n, start):
        """The row-rank profile (pivot rows, ascending) of boundary(n) on its
        columns from `start` on, eliminated once per occupied class of
        `_fold` and cached."""
        b = self.boundary(n)
        if start == b.cols:
            return []
        pivots = self._profiles.get((n % 2, start))
        if pivots is None:
            block = Matrix(b.cols - start, b.rows)
            for r, row in b.data.items():
                for c, v in row.items():
                    if c >= start:
                        block.data.setdefault(c - start, {})[r] = v
            pivots, _ = _rref(block)
            self._profiles[(n % 2, start)] = pivots
        return pivots

    def boundary_rank(self, n) -> int:
        """The rank of boundary(n): the profile of its lowest class, whose
        filtration F_s is the whole of total degree n."""
        return len(self._profile(n, 0))

    def corner_rank(self, n, s, t) -> int:
        """rho_n(s, t): the rank of boundary(n) on the columns of F_s(n) and
        the rows of Tot_{n-1} below level t, from the row-rank profile of the
        F_s column block."""
        pivots = self._profile(n, self._filtration_start(n, s))
        return bisect_left(pivots, self._filtration_start(n - 1, t))

    def page_window(self):
        return range(self.lo + 1, self.hi)

    def source_window(self):
        return range(self.lo + 2, self.hi)

    def stabilization_bound(self) -> int:
        longest = max(map(len, self._levels))
        return longest + 1 if longest else 0


@dataclass
class PageEntry:
    numerator: Subspace
    denominator: Subspace

    @property
    def dim(self) -> int:
        return self.numerator.dim - self.denominator.dim


@dataclass
class SpectralPage:
    r: int
    entries: dict = field(default_factory=dict)        # (s, n) -> PageEntry
    differentials: dict = field(default_factory=dict)  # (s, n) -> Matrix

    def dim(self, s, n) -> int:
        e = self.entries.get((s, n))
        return e.dim if e else 0

    def dims_table(self):
        return {key: e.dim for key, e in sorted(self.entries.items()) if e.dim}


def _page_entry(t: TotalComplex, n, s, r) -> PageEntry:
    num = t.cycles(n, s, r)
    den_a = t.cycles(n, s + 1, r - 1)
    db = t.boundary(n + 1)
    pre = t.cycles(n + 1, s - r + 1, r - 1)
    # one elimination: a boundary column dependent on earlier boundaries is no
    # pivot of the joint RREF either, so the basis is that of den_a + im(db pre)
    den = Subspace.spanned_by(t.total_dim(n), den_a.basis.hstack(db.mul(pre.basis)))
    return PageEntry(numerator=num, denominator=den)


def page(t: TotalComplex, r: int) -> SpectralPage:
    """Page r with its differentials d^r: (s, n) -> (s + r, n - 1), each
    entry and differential computed once per class of `_fold` and printed at
    every (s, n) of the window in its class."""
    if r < 0:
        raise InvalidMulticomplex("page index must be nonnegative")
    out = SpectralPage(r=r)
    entries, maps = {}, {}

    def entry(n, s):
        c = _fold(n, s)
        if c not in entries:
            entries[c] = _page_entry(t, n, s, r)
        out.entries[(s, n)] = entries[c]
        return entries[c]

    for n in t.page_window():
        for s in t.levels(n):
            entry(n, s)
    for n in t.source_window():
        for s in t.levels(n):
            src = out.entries[(s, n)]
            if src.dim == 0:
                continue
            tgt = entry(n - 1, s + r)
            c = _fold(n, s)
            if c not in maps:
                maps[c] = induced_subquotient_map(
                    t.boundary(n),
                    (src.numerator, src.denominator),
                    (tgt.numerator, tgt.denominator))
            out.differentials[(s, n)] = maps[c]
    return out


def page_one_dims(t: TotalComplex, h: GradedVectorSpace):
    """Nonzero entries of page one, {(s, n): dim}, as `page(t, 1).dims_table()`
    gives them: dim E^1_s(n) = h_{n+2s}, with h = H(A, d) from the caller."""
    return dict(sorted(((s, n), h.dim(n + 2 * s)) for n in t.page_window()
                       for s in t.levels(n) if h.dim(n + 2 * s)))


def page_dims(t: TotalComplex, r: int):
    """Nonzero entries of page r, {(s, n): dim}, as `page(t, r).dims_table()`
    gives them, read off corner ranks (module docstring).  The formula is
    evaluated once per class of `_fold`, four corner ranks each, and its
    value printed at every (s, n) of the window in that class."""
    rho = t.corner_rank
    space = t.source.space
    by_class, dims = {}, {}
    for n in t.page_window():
        for s in t.levels(n):
            c = _fold(n, s)
            dim = by_class.get(c)
            if dim is None:
                dim = by_class[c] = (space.dim(n + 2 * s) - rho(n, s, s + r)
                                     + rho(n, s + 1, s + r) + rho(n + 1, s - r + 1, s)
                                     - rho(n + 1, s - r + 1, s + 1))
            if dim:
                dims[(s, n)] = dim
    return dict(sorted(dims.items()))


def differential_rank(t: TotalComplex, r: int, s: int, n: int) -> int:
    """The rank of d^r: E^r_s(n) -> E^r_{s+r}(n-1), read off corner ranks."""
    rho = t.corner_rank
    return (rho(n, s, s + r + 1) - rho(n, s, s + r)
            - rho(n, s + 1, s + r + 1) + rho(n, s + 1, s + r))


def degenerates_at_one(t: TotalComplex, h: GradedVectorSpace) -> HodgeData:
    """True iff every differential on every page vanishes, decided by the
    rank test of the module docstring against h = H(A, d), which the caller
    computes once per analysis; when it fails, the witness is the
    first nonzero differential, by least page r and then least (s, n),
    found from corner ranks.  The rank is the same at every (s, n) of a
    class of `_fold`, so each page tests one source per class, its least."""
    b = t.boundary_rank(0) + t.boundary_rank(1)
    e1 = [sum(dim for k, dim in h.dims.items() if k % 2 == p) for p in (0, 1)]
    if all(e1[p] == t.total_dim(p) - b for p in (0, 1)):
        return HodgeData(ok=True, witness=None)
    bound = t.stabilization_bound()
    least = {}
    for s, n in sorted((s, n) for n in t.source_window() for s in t.levels(n)):
        least.setdefault(_fold(n, s), (s, n))
    sources = sorted(least.values())
    for r in range(1, bound + 1):
        for s, n in sources:
            if differential_rank(t, r, s, n):
                return HodgeData(ok=False, witness=(r, s, n))
    raise NotWellDefined("page one does not account for the total homology, "
                         "yet no page up to %d has a nonzero differential" % bound)


def total_complex(m: Multicomplex) -> TotalComplex:
    return TotalComplex(m)

