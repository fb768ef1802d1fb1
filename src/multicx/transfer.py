"""Deformation retracts onto homology and homotopy transfer.

`build_retract` splits each degree as A = H (+) B (+) C with B = im d and
Z = ker d = H (+) B, then sets the contracting homotopy to -(d|_C)^{-1} on B
and zero elsewhere.  That sign makes incl o proj - id = d h + h d hold on the
nose, and the splitting gives the side conditions h i = 0, p h = 0, h h = 0
for free.  The same splitting hands back the acyclic complement K = B (+) C
of the homology representatives: its basis [B | C] and its coordinates q_0,
the lower rows of the inverse of the frame [H | B | C].

`transfer_structure` pushes a multicomplex structure across a retract using
the sum-over-compositions formulas: the transferred operator of weight n is
the sum over all compositions (i_1, ..., i_k) of n of
p delta_{i_1} h delta_{i_2} h ... h delta_{i_k} i, and similarly for the
morphism components extending proj.  It returns the transferred structure
and that infinity-morphism, which is what the minimal model reads.  The
extension of incl, i_n = h S_n over the chain sums S_n that end in incl, is
not built: nothing on the pipeline reads it.

`minimal_model` reads K off the splitting: d and h keep K (d C lies in B,
h lands in C), so d_K = q_0 d and s = q_0 h restricted to K are products
alone, and since incl o proj vanishes on K, d_K s + s d_K = -id (Crainic,
"On the perturbation lemma, and deformations", 2004).  The frame
[H | B | C] itself is the inverse of the isomorphism's degree-0 part
[proj; q_0], so the model keeps it instead of inverting that part again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    InfinityMorphism,
    Multicomplex,
    product,
    stack_maps,
)
from .errors import NotSquareZero, SpaceMismatch
from .exactla import Matrix, Subspace, complement, kernel_image, solve
from .graded import (
    GradedMap,
    GradedVectorSpace,
    compose,
    lincomb,
    max_component_index,
)


@dataclass
class DeformationRetract:
    big: GradedVectorSpace
    small: GradedVectorSpace
    proj: GradedMap      # big -> small, degree 0
    incl: GradedMap      # small -> big, degree 0
    homotopy: GradedMap  # big -> big, degree +1
    d_big: GradedMap
    d_small: GradedMap

    def identity_defects(self):
        """Exact defects of every retract identity; all zero iff valid."""
        ip = compose(self.incl, self.proj)
        ident = GradedMap.identity(self.big)
        dh = compose(self.d_big, self.homotopy)
        hd = compose(self.homotopy, self.d_big)
        return {
            "proj_chain": compose(self.d_small, self.proj).sub(compose(self.proj, self.d_big)),
            "incl_chain": compose(self.d_big, self.incl).sub(compose(self.incl, self.d_small)),
            "retract_identity": ip.sub(ident).sub(dh).sub(hd),
            "projection": compose(self.proj, self.incl).sub(GradedMap.identity(self.small)),
            "side_h_incl": compose(self.homotopy, self.incl),
            "side_proj_h": compose(self.proj, self.homotopy),
            "side_h_h": compose(self.homotopy, self.homotopy),
        }

    def is_valid(self) -> bool:
        return all(v.is_zero for v in self.identity_defects().values())


def _assemble_retract(space, d, parts):
    """Build (retract, (kbasis, kcoords)) from a per-degree splitting.

    parts maps degree k to (h_basis, b_sub, c_basis): independent columns
    spanning a complement of im d in ker d, the image subspace, and a
    complement of ker d in A_k.  kbasis[k] = [B | C] spans the complement K
    and kcoords[k] holds the matching rows of the frame inverse, so that
    kcoords[k] kbasis[k] = id and kcoords[k] incl = 0.
    """
    proj_blocks, incl_blocks, h_blocks = {}, {}, {}
    small_dims = {}
    kbasis, kcoords = {}, {}
    for k in space.degrees:
        h_b, b_sub, c_b = parts[k]
        small_dims[k] = h_b.cols
        frame = h_b.hstack(b_sub.basis).hstack(c_b)
        inv = solve(frame, Matrix.identity(space.dim(k)))
        if inv is None:
            raise NotSquareZero("splitting failed to span a degree, found no frame inverse")
        if h_b.cols:
            incl_blocks[k] = h_b
            proj_blocks[k] = inv.select_rows(range(h_b.cols))
        kbasis[k] = b_sub.basis.hstack(c_b)
        kcoords[k] = inv.select_rows(range(h_b.cols, space.dim(k)))
    for k in space.degrees:
        h_b, b_sub, c_b = parts[k]
        if not b_sub.dim:
            continue
        c_above = parts.get(k + 1)
        if c_above is None or not c_above[2].cols:
            raise NotSquareZero("image in degree %d has no preimage complement" % k)
        dm = d.block(k + 1).mul(c_above[2])
        coords = solve(dm, b_sub.basis)
        if coords is None:
            raise NotSquareZero("homotopy solve failed in degree %d" % k)
        lift = c_above[2].mul(coords).neg()
        b_rows = kcoords[k].select_rows(range(b_sub.dim))
        h_blocks[k] = lift.mul(b_rows)
    small = GradedVectorSpace(small_dims)
    retract = DeformationRetract(
        big=space,
        small=small,
        proj=GradedMap(space, small, 0, proj_blocks),
        incl=GradedMap(small, space, 0, incl_blocks),
        homotopy=GradedMap(space, space, 1, h_blocks),
        d_big=d,
        d_small=GradedMap.zero(small, small, -1),
    )
    return retract, (kbasis, kcoords)


def _splitting(space, d, twist=None):
    """Per-degree splitting data; `twist` perturbs the complement choices."""
    kernels, images = {}, {}
    for k in space.degrees:
        kernels[k], images[k - 1] = kernel_image(d.block(k))
    parts = {}
    for k in space.degrees:
        z = kernels[k]
        b = images.get(k) or Subspace.zero(space.dim(k))
        h_sub = complement(b, z)
        c_sub = complement(z, Subspace.full(space.dim(k)))
        h_b, c_b = h_sub.basis, c_sub.basis
        if twist is not None:
            phi, psi = twist(k, b.dim, h_b.cols, z.dim, c_b.cols)
            if h_b.cols and b.dim:
                h_b = h_b.add(b.basis.mul(phi))
            if c_b.cols and z.dim:
                c_b = c_b.add(z.basis.mul(psi))
        parts[k] = (h_b, b, c_b)
    return parts


def build_retract(space: GradedVectorSpace, d: GradedMap):
    """Deterministic deformation retract of (space, d) onto its homology.

    Returns (retract, (kbasis, kcoords)) where kbasis[k] spans the
    complement K = im d (+) C of the homology representatives in degree k
    and kcoords[k] maps A_k onto coordinates in that basis.
    """
    if d.degree != -1:
        raise NotSquareZero("differential must have degree -1")
    if not compose(d, d).is_zero:
        raise NotSquareZero("d squared is nonzero")
    return _assemble_retract(space, d, _splitting(space, d))


def alternative_retract(space: GradedVectorSpace, d: GradedMap, rng):
    """A randomized deformation retract: the complements H of im d in ker d
    and C of ker d are perturbed by random graphs, then the homotopy is
    rebuilt, so all side conditions are re-derived rather than assumed."""
    if not compose(d, d).is_zero:
        raise NotSquareZero("d squared is nonzero")

    def twist(k, bdim, hdim, zdim, cdim):
        phi = Matrix(bdim, hdim, [(r, c, rng.randint(-2, 2))
                                  for r in range(bdim) for c in range(hdim)])
        psi = Matrix(zdim, cdim, [(r, c, rng.randint(-2, 2))
                                  for r in range(zdim) for c in range(cdim)])
        return phi, psi

    retract, _ = _assemble_retract(space, d, _splitting(space, d, twist))
    return retract


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


def transfer_structure(r: DeformationRetract, m: Multicomplex) -> TransferOutput:
    """Transferred multicomplex on the small space plus the infinity-quasi-
    isomorphism extending the projection onto it."""
    transferred = _transferred(r, m)
    n_p = max(max_component_index(r.big, r.small, 2, 0), 0)
    u_chain = _chain_sums(m, r.homotopy, r.homotopy, n_p)
    p_comps = [r.proj] + [compose(r.proj, u_chain[n]) for n in range(1, n_p + 1)]
    return TransferOutput(transferred=transferred,
                          p_inf=InfinityMorphism(m, transferred, p_comps))


@dataclass
class HodgeData:
    """A verdict with its witness: the least weight or power at which the
    check fails, or None when it holds."""
    ok: bool
    witness: object

    def __bool__(self):
        return self.ok


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
    minimal: Multicomplex
    trivial: Multicomplex
    iso: InfinityMorphism  # from the input to minimal (+) trivial
    frame: GradedMap       # minimal (+) trivial -> input, the inverse of iso.comp(0)
    retract: DeformationRetract


def minimal_model(m: Multicomplex) -> MinimalModel:
    """Split m, up to infinity-isomorphism, into a minimal multicomplex on
    its homology and an acyclic trivial complement.

    The isomorphism stacks the transferred projection components with the
    recursive extension of the complement projection.  Its degree-0 part
    [proj; q_0] is the inverse of the retract's frame [incl | B | C], which
    the model keeps as `frame`; `invert_infinity(model.iso)` gives the whole
    inverse when a caller needs it.
    """
    retract, (kbasis, kcoords) = build_retract(m.space, m.delta(0))
    out = transfer_structure(retract, m)
    minimal = out.transferred
    big = m.space
    kspace = GradedVectorSpace({k: b.cols for k, b in kbasis.items()})
    q0 = GradedMap(big, kspace, 0, kcoords)
    i_k = GradedMap(kspace, big, 0, kbasis)
    d_k = compose(q0, compose(retract.d_big, i_k))
    s_k = compose(q0, compose(retract.homotopy, i_k))
    if not lincomb([(1, compose(d_k, s_k)), (1, compose(s_k, d_k)),
                    (1, GradedMap.identity(kspace))]).is_zero:
        raise NotSquareZero("complement of the homology representatives is not acyclic")
    # the extension of q solves its intertwining relations weight by weight:
    # q_n = -s (q delta_n + sum_{0<k<n} q_k delta_{n-k}), using the
    # contraction s of the acyclic complement
    q_comps = [q0]
    for n in range(1, max(max_component_index(big, kspace, 2, 0), 0) + 1):
        terms = [(1, compose(q_comps[k], m.delta(n - k))) for k in range(n)]
        defect = lincomb(terms, degree=2 * n - 1, source=big, target=kspace)
        q_comps.append(compose(s_k, defect).neg())
    trivial = Multicomplex(kspace, [d_k])
    total = product(minimal, trivial)
    nmax = max(out.p_inf.order, len(q_comps) - 1)
    comps = []
    for n in range(nmax + 1):
        pn = out.p_inf.comp(n)
        qn = q_comps[n] if n < len(q_comps) else GradedMap.zero(big, kspace, 2 * n)
        comps.append(stack_maps(pn, qn, total.space, minimal.space))
    iso = InfinityMorphism(m, total, comps)
    frame = GradedMap(total.space, big, 0,
                      {k: retract.incl.block(k).hstack(kbasis[k]) for k in big.degrees})
    return MinimalModel(minimal=minimal, trivial=trivial, iso=iso,
                        frame=frame, retract=retract)
