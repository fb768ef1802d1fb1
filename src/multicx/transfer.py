"""Deformation retracts onto homology and homotopy transfer.

A retract is its splitting A_k = H_k (+) B_k (+) C_k: one
`DeformationRetract` holds the frame F_k = [H | B | C] and the rows
(p, b, c) of F_k^{-1}, and reads incl = H, proj = p and the homotopy off
them when it is made.  `build_retract` eliminates once per degree, for
Z_k = ker d_k; C_k complements Z_k, B_k = d C_{k+1} is im d, and H_k
complements B_k in Z_k.  As d maps C_{k+1} onto B_k column for column, the
homotopy -(d|_C)^{-1} on B is the product -C_{k+1} b_k, with no solve;
that sign makes incl o proj - id = d h + h d hold on the nose, and the
splitting gives h i = 0, p h = 0, h h = 0 for free.

Every other retract is a change of frame of this one, since ker d and im d
are unique: `alternative_retract` takes a retract, twists its F to F T
with T unipotent and reads the new retract from F T and T^{-1} F^{-1} by
products alone.

`transfer_structure` pushes a multicomplex structure across a retract using
the sum-over-compositions formulas: the transferred operator of weight n is
the sum over all compositions (i_1, ..., i_k) of n of
p delta_{i_1} h delta_{i_2} h ... h delta_{i_k} i, and similarly for the
morphism components extending proj.  It returns the transferred structure
and that infinity-morphism; the minimal model builds the two halves apart,
through the same helpers, so neither is computed twice.  The extension of
incl, i_n = h S_n over the chain sums S_n that end in incl, is not built:
nothing on the pipeline reads it.

`minimal_model` builds up front only what every verdict reads: the
retract and the transferred multicomplex.  The isomorphism
is built on first read, once, on A itself.  The minimal model mu carried
onto A is (A, d, i mu_1 p, i mu_2 p, ...), and the isomorphism onto it is
psi_0 = id and psi_n = i p_n - h delta_n.  This is the homotopy-perturbation
recursion psi_n = i p_n - h sum_{k<n} psi_k delta_{n-k} (Crainic, "On the
perturbation lemma, and deformations", 2004) in closed form: a retract read
off a splitting has h i = 0 and h h = 0, so h psi_k = h i p_k - h h (...) = 0
for every k >= 1 and only the k = 0 term is left.  The homotopy identity
d h + h d = i p - id is checked whenever the isomorphism is built.  Only
`gauge.find_gauge` reads it, and only when every transferred operator
vanishes, so an obstructed analysis never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import HodgeData, InfinityMorphism, Multicomplex
from .errors import NotSquareZero, SpaceMismatch
from .exactla import Matrix, Subspace, _kernel, complement, solve
from .graded import (
    GradedMap,
    GradedVectorSpace,
    compose,
    lincomb,
    max_component_index,
)


class DeformationRetract:
    """The retract of (A, d) onto its homology, which is its splitting:
    bases[k] = (H, B, C) are the columns of the frame F_k, and
    coords[k] = (p, b, c) the rows of F_k^{-1}.  incl is H, proj is p, and
    the homotopy on A_k is (-C_{k+1}) b_k, the sign on the thin factor C."""

    __slots__ = ("bases", "coords", "big", "small", "proj", "incl", "homotopy",
                 "d_big", "d_small")

    def __init__(self, d: GradedMap, bases: dict, coords: dict):
        self.bases, self.coords = bases, coords
        self.big, self.d_big = d.source, d
        proj, incl, homotopy = {}, {}, {}
        for k, (h, b, _) in bases.items():
            p, b_rows, _ = coords[k]
            if h.cols:
                incl[k], proj[k] = h, p
            if b.cols:
                homotopy[k] = bases[k + 1][2].neg().mul(b_rows)
        self.small = GradedVectorSpace({k: h.cols for k, (h, _, _) in bases.items()})
        self.proj = GradedMap(self.big, self.small, 0, proj)
        self.incl = GradedMap(self.small, self.big, 0, incl)
        self.homotopy = GradedMap(self.big, self.big, 1, homotopy)
        self.d_small = GradedMap.zero(self.small, self.small, -1)


def build_retract(space: GradedVectorSpace, d: GradedMap) -> DeformationRetract:
    """Deterministic deformation retract of (space, d) onto its homology.

    Each degree is eliminated once, for ker d_k; C_k is the greedy
    complement of ker d_k, B_k = d C_{k+1}, H_k the greedy complement of B_k
    in ker d_k, and one solve inverts the frame.  That C_k is the unit
    vectors at d_k's pivot columns: a free e_j is its kernel vector plus
    pivot unit vectors left of j, and the RREF row of a pivot j vanishes on
    ker d_k and on every e_i, i < j, but not on e_j.
    """
    if d.degree != -1:
        raise NotSquareZero("differential must have degree -1")
    if not compose(d, d).is_zero:
        raise NotSquareZero("d squared is nonzero")
    kernels, c = {}, {}
    for k, n in space.dims.items():
        kernels[k], pivots = _kernel(d.block(k))
        c[k] = Matrix(n, len(pivots), [(p, j, 1) for j, p in enumerate(pivots)])
    bases, coords = {}, {}
    for k, n in space.dims.items():
        b = d.block(k + 1).mul(c[k + 1]) if k + 1 in c else Matrix(n, 0)
        h = complement(Subspace._independent(n, b), kernels[k]).basis
        inverse = solve(h.hstack(b).hstack(c[k]), Matrix.identity(n))
        z = h.cols + b.cols
        bases[k] = (h, b, c[k])
        coords[k] = tuple(inverse.select_rows(r) for r in (range(h.cols), range(h.cols, z), range(z, n)))
    return DeformationRetract(d, bases, coords)


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [(rng.randrange(rows), c, rng.choice((-2, -1, 1, 2)))
                               for c in range(cols)] if rows else None)


def alternative_retract(r: DeformationRetract, rng) -> DeformationRetract:
    """A randomized deformation retract: the frame F of r twisted to F T,
    with T unipotent, H' = H + B phi and C' = C + H psi_H + B psi_B, where
    each column of phi, psi_H and psi_B holds one random entry in
    {-2, -1, 1, 2} at a random row, so the twisted retract stays about as
    sparse as the canonical one.  Many complements of B in ker d and of
    ker d in A arise so, not every one.  The inverse T^{-1} F^{-1} is a
    product: p' = p - psi_H c, b' = b - phi p' - psi_B c and c' = c."""
    bases, coords = {}, {}
    for k, (h, b, c) in r.bases.items():
        p, b_rows, c_rows = r.coords[k]
        phi = _random_matrix(rng, b.cols, h.cols)
        psi_h = _random_matrix(rng, h.cols, c.cols)
        psi_b = _random_matrix(rng, b.cols, c.cols)
        p_twisted = p.sub(psi_h.mul(c_rows))
        bases[k] = (h.add(b.mul(phi)), b, c.add(h.mul(psi_h)).add(b.mul(psi_b)))
        coords[k] = (p_twisted, b_rows.sub(phi.mul(p_twisted)).sub(psi_b.mul(c_rows)), c_rows)
    return DeformationRetract(r.d_big, bases, coords)


def _chain_sums(m: Multicomplex, h: GradedMap, rightmost: GradedMap, nmax: int):
    """S_n = sum over compositions of n of delta_{i_1} h ... h delta_{i_k} r.

    Computed by the recursion S_n = sum_j delta_j T_{n-j} with T_0 = r and
    T_m = h S_m, which visits every composition exactly once.
    """
    source = rightmost.source
    big = m.space
    sums = {}
    tails = {0: rightmost}
    for n in range(1, nmax + 1):
        terms = []
        for j in range(1, n + 1):
            dj = m.delta(j)
            if dj.is_zero:
                continue
            terms.append((1, compose(dj, tails[n - j])))
        sums[n] = lincomb(terms, degree=2 * n - 1 + rightmost.degree,
                          source=source, target=big)
        tails[n] = compose(h, sums[n])
    return sums


@dataclass
class TransferOutput:
    transferred: Multicomplex
    p_inf: InfinityMorphism


def _transferred(r: DeformationRetract, m: Multicomplex) -> Multicomplex:
    """The transferred multicomplex, from the chain sums over the inclusion
    up to one past the grading bound.  The operator at that weight is
    recomputed once and asserted zero rather than assumed."""
    if m.space != r.big:
        raise SpaceMismatch("multicomplex lives on a different space than the retract")
    if m.delta(0) != r.d_big:
        raise SpaceMismatch("retract differential disagrees with delta_0")
    n_delta = max(max_component_index(r.small, r.small, 2, -1), 0)
    s_chain = _chain_sums(m, r.homotopy, r.incl, n_delta + 1)
    deltas = [r.d_small] + [compose(r.proj, s_chain[n]) for n in range(1, n_delta + 1)]
    if not compose(r.proj, s_chain[n_delta + 1]).is_zero:
        raise NotSquareZero("transferred operator beyond the grading bound is nonzero")
    return Multicomplex(r.small, deltas)


def _p_components(r: DeformationRetract, m: Multicomplex) -> list:
    """The components of the infinity-morphism extending proj: proj, then
    proj composed with the chain sums over the homotopy."""
    n_p = max(max_component_index(r.big, r.small, 2, 0), 0)
    u_chain = _chain_sums(m, r.homotopy, r.homotopy, n_p)
    return [r.proj] + [compose(r.proj, u_chain[n]) for n in range(1, n_p + 1)]


def transfer_structure(r: DeformationRetract, m: Multicomplex) -> TransferOutput:
    """Transferred multicomplex on the small space plus the infinity-quasi-
    isomorphism extending the projection onto it."""
    transferred = _transferred(r, m)
    return TransferOutput(transferred=transferred,
                          p_inf=InfinityMorphism(m, transferred, _p_components(r, m)))


def nonzero_weights(m: Multicomplex) -> list:
    """Weights n >= 1 whose operator is nonzero, ascending; on a transferred
    structure the first one is the least obstructing weight."""
    return [n for n in range(1, m.order + 1) if not m.delta(n).is_zero]


def check_hodge_data(r: DeformationRetract, m: Multicomplex) -> HodgeData:
    """True iff every transferred operator of weight >= 1 vanishes."""
    weights = nonzero_weights(_transferred(r, m))
    return HodgeData(ok=not weights, witness=weights[0] if weights else None)


@dataclass
class MinimalModel:
    """m split, up to infinity-isomorphism, into a minimal multicomplex on
    its homology and an acyclic remainder.

    Built up front: the retract, which keeps its splitting, and `minimal`,
    the transferred multicomplex, which every verdict reads.  Built on first
    read, once: `iso`, the infinity-isomorphism from m onto the minimal
    model carried onto A by the retract.  `find_gauge` reads it only when
    every transferred operator vanishes.
    """
    source: Multicomplex
    minimal: Multicomplex
    retract: DeformationRetract

    @cached_property
    def iso(self) -> InfinityMorphism:
        """From m to (A, d, i mu_1 p, i mu_2 p, ...), mu_n the operators of
        `minimal`: psi_0 = id and psi_n = i p_n - h delta_n, with p_n the
        components extending proj.  This is the perturbation recursion
        psi_n = i p_n - h sum_{k<n} psi_k delta_{n-k} in closed form, by two
        side conditions of the retract: h i = 0 and h h = 0 give
        h psi_k = h i p_k - h h (...) = 0 for k >= 1.  Past the last p_n and
        the last delta_n every component is zero.  Building it checks the
        homotopy identity d h + h d = i p - id, which on the complement of
        the homology representatives says that it is acyclic."""
        m, r = self.source, self.retract
        ident = GradedMap.identity(m.space)
        if not lincomb([(1, compose(r.d_big, r.homotopy)), (1, compose(r.homotopy, r.d_big)),
                        (-1, compose(r.incl, r.proj)), (1, ident)]).is_zero:
            raise NotSquareZero("complement of the homology representatives is not acyclic")
        carried = Multicomplex(m.space, [r.d_big] + [compose(r.incl, compose(mu, r.proj))
                                                     for mu in self.minimal.deltas[1:]])
        p_comps = _p_components(r, m)
        psi = [ident]
        for n in range(1, max(len(p_comps) - 1, m.order) + 1):
            ip = [(1, compose(r.incl, p_comps[n]))] if n < len(p_comps) else []
            psi.append(lincomb(ip + [(-1, compose(r.homotopy, m.delta(n)))]))
        return InfinityMorphism(m, carried, psi)


def minimal_model(m: Multicomplex) -> MinimalModel:
    """The minimal model of m (`MinimalModel`): one splitting of d, the
    retract read off it and the transferred multicomplex; the isomorphism
    waits for its first read.  The model stores no inverse isomorphism;
    `invert_infinity(model.iso)` gives it when a caller needs it.
    """
    retract = build_retract(m.space, m.delta(0))
    return MinimalModel(source=m, minimal=_transferred(retract, m), retract=retract)
