"""The total complex of a multicomplex, its row filtration, and the pages of
the resulting spectral sequence.

Per total degree n the total complex collects slots (n, q) carrying the
space in degree n - 2q; the boundary sends slot q to slot q - r through the
weight-r operator, and the decreasing filtration at level s keeps the rows
with q <= -s.  Shifting q by one identifies total degree n and level s with
total degree n + 2 and level s - 1, slot for slot, so the whole filtered
complex is the fold `_fold(n, s) = (n % 2, s + n // 2)` of its two parities.
`TotalComplex` keeps the slot lists and boundaries of total degrees 0 and 1
only; degree n reads the slot list of its parity shifted by n // 2 and the
same boundary matrix.  Cycles, page entries and page differentials are
computed once per class; `lo` and `hi` only mark the window of total
degrees that a page prints, which spans both parities around the support.

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
of the two boundaries.  Pages are built only to name the first nonzero
differential when the rank test fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Multicomplex, validate_multicomplex
from .errors import InvalidMulticomplex, NotWellDefined
from .exactla import Matrix, Subspace, kernel_image, induced_subquotient_map, rank
from .graded import GradedVectorSpace, homology


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
        # slot q of parity p carries degree p - 2q; ascending degrees give
        # descending q, that is ascending filtration level s = -q
        self._slots = [[(p - k) // 2 for k in space.degrees if (p - k) % 2 == 0]
                       for p in (0, 1)]
        self._boundaries = [self._boundary_matrix(p) for p in (0, 1)]
        self._zcache = {}
        # lo and hi only mark the window of total degrees a page prints
        self.lo, self.hi = ((0, -1) if space.is_zero
                            else (space.min_degree - 2, space.max_degree + 2))

    def slots(self, n):
        return [q + n // 2 for q in self._slots[n % 2]]

    def boundary(self, n) -> Matrix:
        """The boundary from total degree n to n - 1."""
        return self._boundaries[n % 2]

    def slot_dims(self, n):
        space = self.source.space
        return [space.dim(n - 2 * q) for q in self.slots(n)]

    def total_dim(self, n) -> int:
        return sum(self.slot_dims(n))

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
        ent = []
        for q_src in self.slots(n):
            col_off = self.offset(n, q_src)
            for r in range(m.order + 1):
                if q_src - r not in targets:
                    continue
                row_off = self.offset(n - 1, q_src - r)
                for (i, j), v in m.delta(r).block(n - 2 * q_src).entries.items():
                    ent.append((row_off + i, col_off + j, v))
        return Matrix(self.total_dim(n - 1), self.total_dim(n), ent)

    def levels(self, n):
        """Occupied filtration levels at total degree n, ascending."""
        return [-q for q in self.slots(n)]

    def filtration_indices(self, n, s):
        """Coordinate indices of F_s inside the total degree n block."""
        idx = []
        off = 0
        for q, d in zip(self.slots(n), self.slot_dims(n)):
            if q <= -s:
                idx.extend(range(off, off + d))
            off += d
        return idx

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
        keep = set(self.filtration_indices(n - 1, s + r))
        rows = [i for i in range(self.total_dim(n - 1)) if i not in keep]
        ker, _ = kernel_image(self.boundary(n).select_rows(rows).select_columns(cols))
        embed = Matrix(dim, ker.dim)
        for (i, j), v in ker.basis.entries.items():
            embed.entries[(cols[i], j)] = v
        out = Subspace._independent(dim, embed)
        self._zcache[key] = out
        return out

    def page_window(self):
        return range(self.lo + 1, self.hi)

    def source_window(self):
        return range(self.lo + 2, self.hi)

    def stabilization_bound(self) -> int:
        longest = max(map(len, self._slots))
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

    def differential_is_zero(self) -> bool:
        return self.first_nonzero_differential() is None

    def first_nonzero_differential(self):
        """Least (s, n) whose differential d^r is nonzero, or None."""
        for key in sorted(self.differentials):
            if not self.differentials[key].is_zero():
                return key
        return None


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


def page_one_dims(t: TotalComplex, h=None):
    """Nonzero entries of page one, {(s, n): dim}, as `page(t, 1).dims_table()`
    gives them: dim E^1_s(n) = dim H(A, d)_{n+2s}.  `h` is H(A, d) when the
    caller has it already."""
    if h is None:
        h = homology(t.source.delta(0))
    return dict(sorted(((s, n), h.dim(n + 2 * s)) for n in t.page_window()
                       for s in t.levels(n) if h.dim(n + 2 * s)))


@dataclass
class DegenerationResult:
    ok: bool
    witness: object  # (r, s, n) of the first nonzero differential, or None
    homology: GradedVectorSpace  # H(A, d), which gives page one
    pages: list = field(default_factory=list)  # pages built to find the witness

    @property
    def pages_checked(self) -> int:
        return len(self.pages)

    def __bool__(self):
        return self.ok


def degenerates_at_one(t: TotalComplex) -> DegenerationResult:
    """True iff every differential on every page vanishes, decided by the
    rank test of the module docstring; when it fails, pages 1, 2, ... are
    built up to the first nonzero differential, which is the witness."""
    h = homology(t.source.delta(0))
    b = rank(t.boundary(0)) + rank(t.boundary(1))
    e1 = [sum(dim for k, dim in h.dims.items() if k % 2 == p) for p in (0, 1)]
    if all(e1[p] == t.total_dim(p) - b for p in (0, 1)):
        return DegenerationResult(ok=True, witness=None, homology=h)
    pages = []
    for r in range(1, t.stabilization_bound() + 1):
        pages.append(page(t, r))
        key = pages[-1].first_nonzero_differential()
        if key is not None:
            return DegenerationResult(ok=False, witness=(r,) + key, homology=h, pages=pages)
    raise NotWellDefined("page one does not account for the total homology, "
                         "yet no page up to %d has a nonzero differential" % len(pages))


def total_complex(m: Multicomplex) -> TotalComplex:
    return TotalComplex(m)

