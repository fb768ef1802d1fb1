"""The total complex of a multicomplex, its row filtration, and the pages of
the resulting spectral sequence.

Per total degree n the total complex collects slots (n, q) carrying the
space in degree n - 2q; the boundary sends slot q to slot q - r through the
weight-r operator, and the decreasing filtration at level s keeps the rows
with q <= -s.  A bounded grading makes every slot list finite, and shifting
q by one identifies total degree n with total degree n + 2, so materialising
a window of total degrees around the support sees every differential that
can ever be nonzero.

Pages follow the standard filtered-complex construction
    E^r_s = Z^r_s / (Z^{r-1}_{s+1} + boundary Z^{r-1}_{s-r+1}),
    Z^r_s = {x in F_s : boundary x in F_{s+r}},
with d^r the induced map on subquotients, reported in (filtration level,
total degree) coordinates.

Degeneration at page one is decided from ranks alone.  Slot q of total
degree n carries A_{n-2q} with the weight-zero differential, so
E^1_s(n) = H(A, d)_{n+2s}.  The filtration of each total degree is finite,
so the sequence converges: E^infinity_s(n) = gr_s H_n(Tot).  Each page is
the homology of the one before, so its total dimension at n is the previous
one minus the ranks of the d^r leaving and entering degree n; page
dimensions never increase.  Hence every differential on every page vanishes
exactly when sum_s dim E^1_s(n) = dim H_n(Tot) for every n, and both sides
come from ranks of the d-blocks and of the total boundaries.  Shifting q by
one identifies total degree n with n + 2, so it suffices that `page_window`
covers both parities of n with complete slot lists and both boundaries; it
spans at least three degrees.  Pages are built only to name the first
nonzero differential when the rank test fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Multicomplex, validate_multicomplex
from .errors import InvalidMulticomplex, NotWellDefined
from .exactla import Matrix, Subspace, kernel_image, induced_subquotient_map, rank
from .graded import GradedVectorSpace, homology


class TotalComplex:
    """Slot layout and boundary matrices for a window of total degrees."""

    def __init__(self, source: Multicomplex):
        rep = validate_multicomplex(source)
        if not rep.ok:
            raise InvalidMulticomplex(rep.describe(), rep)
        self.source = source
        space = source.space
        if space.is_zero:
            self.lo, self.hi = 0, -1
            self.slots = {}
            self.boundaries = {}
            self._zcache = {}
            return
        self.lo = space.min_degree - 2
        self.hi = space.max_degree + 2
        self.slots = {}
        for n in range(self.lo, self.hi + 1):
            qs = []
            for q in range((n - space.max_degree + 1) // 2 - 1,
                           (n - space.min_degree) // 2 + 2):
                if space.dim(n - 2 * q):
                    qs.append(q)
            qs.sort(reverse=True)  # ascending filtration level s = -q
            self.slots[n] = qs
        self.boundaries = {}
        for n in range(self.lo + 1, self.hi + 1):
            self.boundaries[n] = self._boundary_matrix(n)
        self._zcache = {}

    def slot_dims(self, n):
        space = self.source.space
        return [space.dim(n - 2 * q) for q in self.slots.get(n, [])]

    def total_dim(self, n) -> int:
        return sum(self.slot_dims(n))

    def offset(self, n, q) -> int:
        off = 0
        for q2, d in zip(self.slots[n], self.slot_dims(n)):
            if q2 == q:
                return off
            off += d
        raise KeyError("slot %r absent at total degree %d" % (q, n))

    def _boundary_matrix(self, n) -> Matrix:
        space = self.source.space
        m = self.source
        rows = self.total_dim(n - 1)
        cols = self.total_dim(n)
        ent = []
        for q_src in self.slots.get(n, []):
            deg_src = n - 2 * q_src
            col_off = self.offset(n, q_src)
            for r in range(m.order + 1):
                q_tgt = q_src - r
                if q_tgt not in self.slots.get(n - 1, []):
                    continue
                row_off = self.offset(n - 1, q_tgt)
                block = m.delta(r).block(deg_src)
                for (i, j), v in block.entries.items():
                    ent.append((row_off + i, col_off + j, v))
        return Matrix(rows, cols, ent)

    def levels(self, n):
        """Occupied filtration levels at total degree n, ascending."""
        return [-q for q in self.slots.get(n, [])]

    def filtration_indices(self, n, s):
        """Coordinate indices of F_s inside the total degree n block."""
        idx = []
        off = 0
        for q, d in zip(self.slots.get(n, []), self.slot_dims(n)):
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
        key = (n, s, r)
        cached = self._zcache.get(key)
        if cached is not None:
            return cached
        dim = self.total_dim(n)
        cols = self.filtration_indices(n, s)
        if n <= self.lo or n > self.hi:
            raise KeyError("total degree %d lies outside the materialised window" % n)
        keep = set(self.filtration_indices(n - 1, s + r))
        rows = [i for i in range(self.total_dim(n - 1)) if i not in keep]
        sub = self.boundaries[n].select_rows(rows).select_columns(cols)
        ker, _ = kernel_image(sub)
        embed = Matrix(dim, ker.dim)
        for (i, j), v in ker.basis.entries.items():
            embed.entries[(cols[i], j)] = v
        out = Subspace._independent(dim, embed)
        self._zcache[key] = out
        return out

    def page_window(self):
        if not self.slots:
            return range(0)
        return range(self.lo + 1, self.hi)

    def source_window(self):
        if not self.slots:
            return range(0)
        return range(self.lo + 2, self.hi)

    def stabilization_bound(self) -> int:
        if not self.slots:
            return 0
        return max((len(self.slots[n]) for n in self.source_window()), default=0) + 1


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
    db = t.boundaries.get(n + 1)
    if db is None:
        raise KeyError("total degree %d has no incoming boundary" % (n + 1))
    pre = t.cycles(n + 1, s - r + 1, r - 1)
    # one elimination: a boundary column dependent on earlier boundaries is no
    # pivot of the joint RREF either, so the basis is that of den_a + im(db pre)
    den = Subspace.spanned_by(t.total_dim(n), den_a.basis.hstack(db.mul(pre.basis)))
    return PageEntry(numerator=num, denominator=den)


def page(t: TotalComplex, r: int) -> SpectralPage:
    """Page r with its differentials d^r: (s, n) -> (s + r, n - 1)."""
    if r < 0:
        raise InvalidMulticomplex("page index must be nonnegative")
    out = SpectralPage(r=r)
    for n in t.page_window():
        for s in t.levels(n):
            out.entries[(s, n)] = _page_entry(t, n, s, r)
    for n in t.source_window():
        for s in t.levels(n):
            src = out.entries[(s, n)]
            if src.dim == 0:
                continue
            tgt = out.entries.get((s + r, n - 1))
            if tgt is None:
                tgt = _page_entry(t, n - 1, s + r, r)
                out.entries[(s + r, n - 1)] = tgt
            mat = induced_subquotient_map(
                t.boundaries[n],
                (src.numerator, src.denominator),
                (tgt.numerator, tgt.denominator))
            out.differentials[(s, n)] = mat
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
    e1 = {}
    for (_, n), dim in page_one_dims(t, h).items():
        e1[n] = e1.get(n, 0) + dim
    b = {n: rank(m) for n, m in t.boundaries.items()}
    if all(e1.get(n, 0) == t.total_dim(n) - b[n] - b[n + 1] for n in t.page_window()):
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


def homology_subquotient(m: Multicomplex, k: int):
    """(ker d, im d) at degree k, the canonical subquotient presenting the
    homology class coordinates shared with the transfer module."""
    d = m.delta(0)
    ker, _ = kernel_image(d.block(k))
    _, img = kernel_image(d.block(k + 1))
    return ker, img


def identify_with_homology(t: TotalComplex, pg: SpectralPage, s: int, n: int) -> Matrix:
    """Matrix of the leading-slot identification E^r_s(n) -> H(A, d) in
    degree n + 2s.

    Projecting a class onto its slot of level s lands in cycles and kills
    the denominator, so the induced map on subquotients is well-defined; on
    page one it is the canonical isomorphism.
    """
    entry = pg.entries[(s, n)]
    space = t.source.space
    deg = n + 2 * s
    proj = Matrix(space.dim(deg), t.total_dim(n))
    off = t.offset(n, -s)
    for i in range(space.dim(deg)):
        proj.entries[(i, off + i)] = 1
    ker, img = homology_subquotient(t.source, deg)
    return induced_subquotient_map(
        proj,
        (entry.numerator, entry.denominator),
        (ker, img))
