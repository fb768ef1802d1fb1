from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicx import spectral
from multicx.complexes import Multicomplex
from multicx.derham import FormAlgebra, PolyVector, basic_subcomplex, jacobi_multicomplex
from multicx.errors import InvalidMulticomplex, NotWellDefined
from multicx.exactla import Matrix, Subspace, kernel_image, rank
from multicx.gauge import conjugate_multicomplex
from multicx.generators import (
    corpus,
    generate,
    hand_library,
    profile_a,
    profile_b,
    rand_series,
    staircase4,
)
from multicx.graded import GradedMap, GradedVectorSpace, homology
from multicx.spectral import (
    degenerates_at_one,
    differential_rank,
    page,
    page_dims,
    page_one_dims,
    total_complex,
)
from multicx.transfer import build_retract, check_hodge_data, transfer_structure
from oracles import (
    direct_sum,
    first_nonzero_differential,
    identify_with_homology,
    mixed_gauge_instance,
)


def degeneration(t):
    """The degeneration verdict against H(A, d) of the total complex's source."""
    return degenerates_at_one(t, homology(t.source.delta(0)))


def two_line_mixed():
    space = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1)])
    return Multicomplex.trivial(space, d)


def obstructed_mixed():
    space = GradedVectorSpace({0: 1, 1: 1})
    delta = GradedMap.from_entries(space, space, 1, [(0, 0, 0, 1)])
    return Multicomplex(space, [GradedMap.zero(space, space, -1), delta])


def test_zero_space_total_complex():
    t = total_complex(Multicomplex.zero(GradedVectorSpace({})))
    assert t.slots(0) == t.slots(1) == [] and not t.page_window()
    res = degeneration(t)
    assert res.ok and res.witness is None


def test_slot_enumeration_two_line():
    # dims {0:1, 1:1}: for each total degree n exactly one q solves
    # n - 2q in {0, 1}, the parity of n deciding which line appears
    t = total_complex(two_line_mixed())
    for n in range(t.lo, t.hi + 1):
        qs = t.slots(n)
        assert len(qs) == 1
        assert t.source.space.dim(n - 2 * qs[0]) == 1


def test_invalid_multicomplex_rejected():
    space = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    d = GradedMap.from_entries(space, space, -1, [(1, 0, 0, 1), (2, 0, 0, 1)])
    # the constructor checks degrees and spaces, not the relations
    bad = Multicomplex(space, [d])
    with pytest.raises(InvalidMulticomplex):
        total_complex(bad)


def test_boundary_squares_to_zero_random():
    for prof, seed in [("a", 60), ("a", 61), ("b", 60), ("c", 2)]:
        m = generate(prof, seed)
        t = total_complex(m)
        for n in range(t.lo + 2, t.hi + 1):
            assert t.boundary(n - 1).mul(t.boundary(n)).is_zero()


def definition_boundary(m, n):
    """The boundary from total degree n to n - 1 straight from the
    definition: slot q carries degree n - 2q, slots run by descending q, and
    slot q goes to slot q - r through the weight-r operator."""
    space = m.space

    def slots(k):
        return [q for q in range((k - space.min_degree) // 2, (k - space.max_degree) // 2 - 1, -1)
                if space.dim(k - 2 * q)]

    def offsets(k):
        out, off = {}, 0
        for q in slots(k):
            out[q] = off
            off += space.dim(k - 2 * q)
        return out, off

    cols, n_cols = offsets(n)
    rows, n_rows = offsets(n - 1)
    out = Matrix(n_rows, n_cols)
    for q, col in cols.items():
        for r in range(m.order + 1):
            if q - r in rows:
                for (i, j), v in m.delta(r).block(n - 2 * q).entries.items():
                    out.data.setdefault(rows[q - r] + i, {})[col + j] = v
    return out


FOLD_INSTANCES = [staircase4()] + [
    generate(prof, seed)
    for prof, seed in [("a", 60), ("a", 61), ("b", 17), ("b", 60), ("c", 2), ("c", 9)]]


@pytest.mark.parametrize("m", FOLD_INSTANCES)
def test_folded_boundaries_match_the_definition(m):
    t = total_complex(m)
    for n in range(t.lo, t.hi + 1):
        assert t.boundary(n) == definition_boundary(m, n), n
    assert t.boundary(0).mul(t.boundary(1)).is_zero()
    assert t.boundary(1).mul(t.boundary(0)).is_zero()
    # two matrices, whatever the width of the grading
    assert {id(t.boundary(n)) for n in range(t.lo, t.hi + 1)} == \
        {id(t.boundary(0)), id(t.boundary(1))}
    for n in t.page_window():
        for s in t.levels(n):
            assert t.cycles(n, s, 1) is t.cycles(n + 2, s - 1, 1)


def test_fold_builds_each_class_once(monkeypatch):
    calls = {"_rref": 0, "_page_entry": [], "induced_subquotient_map": 0}

    def rref(m, _fn=spectral._rref):
        calls["_rref"] += 1
        return _fn(m)

    def page_entry(t, n, s, r, _fn=spectral._page_entry):
        calls["_page_entry"].append(spectral._fold(n, s))
        return _fn(t, n, s, r)

    def induced(*args, _fn=spectral.induced_subquotient_map):
        calls["induced_subquotient_map"] += 1
        return _fn(*args)
    monkeypatch.setattr(spectral, "_rref", rref)
    monkeypatch.setattr(spectral, "_page_entry", page_entry)
    monkeypatch.setattr(spectral, "induced_subquotient_map", induced)
    relabelled = 0
    for m in FOLD_INSTANCES:
        t = total_complex(m)
        calls["_rref"] = 0
        res = degeneration(t)
        # the rank test reads both boundary ranks off the profiles of the two
        # lowest classes; a witness adds at most one per other class
        assert calls["_rref"] <= (2 if res.ok else len(t.levels(0)) + len(t.levels(1)))
        for r in range(t.stabilization_bound() + 1):
            calls.update(_page_entry=[], induced_subquotient_map=0)
            pg = page(t, r)
            assert len(calls["_page_entry"]) == len(set(calls["_page_entry"]))
            assert set(calls["_page_entry"]) == {spectral._fold(n, s) for s, n in pg.entries}
            sources = {spectral._fold(n, s) for s, n in pg.differentials}
            assert calls["induced_subquotient_map"] == len(sources)
            relabelled += len(pg.entries) - len(calls["_page_entry"])
    assert relabelled


def test_page_one_dims_are_homology_dims():
    # bicomplex with only the vertical map: page 1 repeats homology along rows
    rng = Random(3)
    for _ in range(10):
        from multicx.generators import rand_space, rand_square_zero
        space = rand_space(rng, max_width=4, max_dim=3)
        d = rand_square_zero(rng, space, -1)
        m = Multicomplex.trivial(space, d)
        h = homology(d)
        t = total_complex(m)
        pg = page(t, 1)
        for n in t.page_window():
            for s in t.levels(n):
                assert pg.dim(s, n) == h.dim(n + 2 * s)
        res = degeneration(t)
        assert res.ok


def test_page_one_total_dim_random_multicomplexes():
    for seed in range(5):
        m = generate("a", 600 + seed)
        h = homology(m.delta(0))
        t = total_complex(m)
        pg = page(t, 1)
        for n in t.page_window():
            total = sum(pg.dim(s, n) for s in t.levels(n))
            expected = sum(h.dim(n - 2 * q) for q in t.slots(n))
            assert total == expected


def test_obstructed_has_nonzero_page_one_differential():
    m = obstructed_mixed()
    t = total_complex(m)
    pg = page(t, 1)
    assert first_nonzero_differential(pg) is not None
    res = degeneration(t)
    assert not res.ok and res.witness[0] == 1
    # with d = 0 page 2 drops in dimension somewhere
    p2 = page(t, 2)
    assert sum(p2.dims_table().values()) < sum(pg.dims_table().values())


def test_degeneration_trivial_and_gauge_orbit():
    assert degeneration(total_complex(two_line_mixed())).ok
    for seed in range(6):
        m = generate("a", 700 + seed)
        assert degeneration(total_complex(m)).ok


def test_degeneration_matches_hodge_data_both_ways():
    for prof, seed in [("a", 70), ("a", 71), ("b", 70), ("b", 71), ("c", 3), ("c", 8)]:
        m = generate(prof, seed)
        retract = build_retract(m.space, m.delta(0))
        hodge = check_hodge_data(retract, m)
        degen = degeneration(total_complex(m))
        assert hodge.ok == degen.ok, (prof, seed)


def test_staircase_witness_page_two():
    t = total_complex(staircase4())
    res = degeneration(t)
    assert not res.ok
    assert res.witness == (2, -2, 4)
    # the built pages agree: nothing moves on page one, the witness moves on page two
    assert first_nonzero_differential(page(t, 1)) is None
    assert first_nonzero_differential(page(t, 2)) == (-2, 4)


def check_ranks_against_pages(t):
    """Compare every page r <= the stabilization bound that corner ranks give
    with the page `page` builds: the dimension at every (s, n) and the rank
    of every differential.  Returns the page walk's witness, the least r and
    then the least (s, n) with a nonzero differential, or None."""
    witness = None
    for r in range(1, t.stabilization_bound() + 1):
        pg = page(t, r)
        assert page_dims(t, r) == pg.dims_table(), r
        for n in t.source_window():
            for s in t.levels(n):
                mat = pg.differentials.get((s, n))
                assert differential_rank(t, r, s, n) == (rank(mat) if mat else 0), (r, s, n)
        key = first_nonzero_differential(pg)
        if witness is None and key is not None:
            witness = (r,) + key
    return witness


def check_verdict(m):
    t = total_complex(m)
    witness = check_ranks_against_pages(t)
    res = degeneration(t)
    assert res.ok == (witness is None)
    assert res.witness == witness
    assert page_one_dims(t, homology(m.delta(0))) == page(t, 1).dims_table()
    if res.ok:
        # every page is page one, the table analyze prints for a degenerate input
        for r in range(1, t.stabilization_bound() + 1):
            assert page_dims(t, r) == page_one_dims(t, homology(m.delta(0)))
    return res


def width_instance(w, r=1):
    """Degrees 0..w-1 of dimension 1, d = 0 and delta_r = 1 from each degree
    k divisible by 2r to k + 2r - 1: obstructed at page r, with a page
    window about w wide and w / 2 levels per total degree."""
    space = GradedVectorSpace({k: 1 for k in range(w)})
    delta = GradedMap.from_entries(space, space, 2 * r - 1,
                                   [(k, 0, 0, 1) for k in range(0, w - 2 * r + 1, 2 * r)])
    zeros = [GradedMap.zero(space, space, 2 * n - 1) for n in range(r)]
    return Multicomplex(space, zeros + [delta])


def test_page_table_is_evaluated_once_per_fold_class(monkeypatch):
    t = total_complex(width_instance(12))
    assert degeneration(t).witness[0] == 1
    classes = {spectral._fold(n, s) for n in t.page_window() for s in t.levels(n)}
    cells = sum(len(t.levels(n)) for n in t.page_window())
    assert cells > 2 * len(classes)
    calls = []
    corner_rank = spectral.TotalComplex.corner_rank

    def counting(self, *args):
        calls.append(args)
        return corner_rank(self, *args)
    monkeypatch.setattr(spectral.TotalComplex, "corner_rank", counting)
    for r in range(1, t.stabilization_bound() + 1):
        del calls[:]
        dims = page_dims(t, r)
        assert 0 < len(calls) <= 4 * len(classes), r
        assert dims == page(t, r).dims_table(), r
    # the witness search tests one source per class on each page up to its own
    for late in (1, 3):
        t = total_complex(width_instance(12, late))
        sources = {spectral._fold(n, s) for n in t.source_window() for s in t.levels(n)}
        del calls[:]
        witness = degeneration(t).witness
        cells = sum(len(t.levels(n)) for n in t.source_window())
        assert len(calls) <= 4 * late * len(sources) < 4 * late * cells
        assert witness == check_ranks_against_pages(t) and witness[0] == late


def test_rank_verdict_agrees_with_page_walk():
    instances = [m for _, _, m in corpus(60)] + hand_library()
    seen = {True: 0, False: 0}
    for m in instances:
        seen[check_verdict(m).ok] += 1
    assert seen[True] and seen[False]


SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1, ((1, 0, 0), (1, 2)): 1, ((0, 1, 0), (0, 2)): -1})
CONTACT_W = PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
CONTACT_E = PolyVector(3, {((0, 0, 0), (2,)): -1})


@pytest.mark.parametrize("build, w, e, algebra", [
    (jacobi_multicomplex, SO3, PolyVector.zero(3), FormAlgebra(3, 2)),
    (jacobi_multicomplex, CONTACT_W, CONTACT_E, FormAlgebra(3, 3, weight=True)),
    (basic_subcomplex, CONTACT_W, CONTACT_E, FormAlgebra(3, 3, weight=True)),
], ids=["so3-poisson-2", "contact-jacobi-3", "contact-basic-3"])
def test_rank_verdict_agrees_with_page_walk_on_geometry(build, w, e, algebra):
    assert check_verdict(build(w, e, algebra).multicomplex).ok


def random_part(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return profile_a(rng, max_width=4, max_dim=2)[0]
    if kind == 1:
        return profile_b(rng, max_width=4, max_dim=2)
    if kind == 2:
        return staircase4()
    return rng.choice(hand_library())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32))
def test_rank_verdict_agrees_with_page_walk_on_conjugated_sums(seed):
    # a direct sum of two instances, conjugated by a random series of
    # weights one and two, mixes the pages on which differentials first move
    rng = Random(seed)
    base = direct_sum(random_part(rng), random_part(rng))
    check_verdict(conjugate_multicomplex(rand_series(rng, base.space, density=0.2), base))


def test_rank_failure_without_witness_is_a_logic_error(monkeypatch):
    # corner ranks that never see a boundary give no nonzero differential,
    # while the rank test still fails
    monkeypatch.setattr(spectral.TotalComplex, "corner_rank", lambda t, n, s, u: 0)
    with pytest.raises(NotWellDefined):
        degeneration(total_complex(staircase4()))


def test_page_denominator_matches_the_two_step_sum():
    # one elimination of [Z^{r-1}_{s+1} | boundaries] keeps the basis matrix
    # that spanning the boundaries first and then summing gives
    mixed = 0
    for m in [staircase4()] + [generate("b", seed) for seed in (11, 80, 81)]:
        t = total_complex(m)
        for r in range(t.stabilization_bound() + 1):
            for n in t.page_window():
                for s in t.levels(n):
                    den_a = t.cycles(n, s + 1, r - 1)
                    pre = t.cycles(n + 1, s - r + 1, r - 1)
                    den_b = Subspace.spanned_by(t.total_dim(n),
                                                t.boundary(n + 1).mul(pre.basis))
                    den = spectral._page_entry(t, n, s, r).denominator
                    two_step = Subspace.spanned_by(t.total_dim(n),
                                                   den_a.basis.hstack(den_b.basis))
                    assert den.basis == two_step.basis, (r, s, n)
                    mixed += bool(den_a.dim and den_b.dim)
    assert mixed


def test_page_recomputation_dims_consistency():
    for prof, seed in [("a", 80), ("b", 80), ("c", 3)]:
        m = generate(prof, seed)
        t = total_complex(m)
        for r in range(0, t.stabilization_bound()):
            pg = page(t, r)
            nxt = page(t, r + 1)
            for n in t.source_window():
                if n + 1 not in t.source_window():
                    continue
                for s in t.levels(n):
                    out = pg.differentials.get((s, n))
                    rank_out = 0
                    if out is not None:
                        ker, img = kernel_image(out)
                        rank_out = img.dim
                        kernel_dim = ker.dim
                    else:
                        kernel_dim = pg.dim(s, n)
                    inc = pg.differentials.get((s - r, n + 1))
                    rank_in = 0
                    if inc is not None:
                        _, img_in = kernel_image(inc)
                        rank_in = img_in.dim
                    assert nxt.dim(s, n) == kernel_dim - rank_in, (prof, seed, r, s, n)
                    assert rank_out + kernel_dim == pg.dim(s, n)


def test_page_one_differential_is_transferred_operator():
    # under the leading-slot identification, d^1 agrees with p delta_1 i
    rng = Random(9)
    count = 0
    for _ in range(12):
        m, _ = mixed_gauge_instance(rng)
        t = total_complex(m)
        pg = page(t, 1)
        retract = build_retract(m.space, m.delta(0))
        out = transfer_structure(retract, m)
        d1_op = out.transferred.delta(1)
        for (s, n), mat in pg.differentials.items():
            src_iso = identify_with_homology(t, pg, s, n)
            tgt = pg.entries[(s + 1, n - 1)]
            if tgt.dim == 0:
                continue
            tgt_iso = identify_with_homology(t, pg, s + 1, n - 1)
            lhs = tgt_iso.mul(mat)
            rhs = d1_op.block(n + 2 * s).mul(src_iso)
            assert lhs == rhs
            count += 1
    assert count > 0


def test_staircase_page_two_differential_is_transferred_weight_two():
    m = staircase4()
    t = total_complex(m)
    p1 = page(t, 1)
    assert first_nonzero_differential(p1) is None
    retract = build_retract(m.space, m.delta(0))
    out = transfer_structure(retract, m)
    d2_op = out.transferred.delta(2)
    pg = page(t, 2)
    seen_nonzero = False
    for (s, n), mat in pg.differentials.items():
        if pg.entries[(s + 2, n - 1)].dim == 0 or pg.dim(s, n) == 0:
            continue
        src_iso = identify_with_homology(t, pg, s, n)
        tgt_iso = identify_with_homology(t, pg, s + 2, n - 1)
        lhs = tgt_iso.mul(mat)
        rhs = d2_op.block(n + 2 * s).mul(src_iso)
        assert lhs == rhs
        if not mat.is_zero():
            seen_nonzero = True
    assert seen_nonzero
