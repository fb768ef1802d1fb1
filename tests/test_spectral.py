from random import Random

import pytest

from multicx import spectral
from multicx.complexes import Multicomplex
from multicx.errors import InvalidMulticomplex, NotWellDefined
from multicx.exactla import Matrix, Subspace, kernel_image
from multicx.generators import (
    corpus,
    generate,
    hand_library,
    staircase4,
)
from multicx.graded import GradedMap, GradedVectorSpace, homology
from multicx.spectral import (
    SpectralPage,
    degenerates_at_one,
    page,
    page_one_dims,
    total_complex,
)
from multicx.transfer import build_retract, check_hodge_data, transfer_structure
from oracles import identify_with_homology, mixed_gauge_instance


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
    res = degenerates_at_one(t)
    assert res.ok and res.pages_checked == 0


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
    bad = Multicomplex.__new__(Multicomplex)
    bad.space = space
    bad.deltas = [d]
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
                    out.entries[(rows[q - r] + i, col + j)] = v
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
    calls = {"rank": 0, "_page_entry": [], "induced_subquotient_map": 0}

    def rank(m, _fn=spectral.rank):
        calls["rank"] += 1
        return _fn(m)

    def page_entry(t, n, s, r, _fn=spectral._page_entry):
        calls["_page_entry"].append(spectral._fold(n, s))
        return _fn(t, n, s, r)

    def induced(*args, _fn=spectral.induced_subquotient_map):
        calls["induced_subquotient_map"] += 1
        return _fn(*args)
    monkeypatch.setattr(spectral, "rank", rank)
    monkeypatch.setattr(spectral, "_page_entry", page_entry)
    monkeypatch.setattr(spectral, "induced_subquotient_map", induced)
    relabelled = 0
    for m in FOLD_INSTANCES:
        t = total_complex(m)
        calls["rank"] = 0
        degenerates_at_one(t)
        assert calls["rank"] <= 2
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
        res = degenerates_at_one(t)
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
    assert not pg.differential_is_zero()
    res = degenerates_at_one(t)
    assert not res.ok and res.witness[0] == 1
    # with d = 0 page 2 drops in dimension somewhere
    p2 = page(t, 2)
    assert sum(p2.dims_table().values()) < sum(pg.dims_table().values())


def test_degeneration_trivial_and_gauge_orbit():
    assert degenerates_at_one(total_complex(two_line_mixed())).ok
    for seed in range(6):
        m = generate("a", 700 + seed)
        assert degenerates_at_one(total_complex(m)).ok


def test_degeneration_matches_hodge_data_both_ways():
    for prof, seed in [("a", 70), ("a", 71), ("b", 70), ("b", 71), ("c", 3), ("c", 8)]:
        m = generate(prof, seed)
        retract, _ = build_retract(m.space, m.delta(0))
        hodge = check_hodge_data(retract, m)
        degen = degenerates_at_one(total_complex(m))
        assert hodge.ok == degen.ok, (prof, seed)


def test_staircase_witness_page_two():
    res = degenerates_at_one(total_complex(staircase4()))
    assert not res.ok
    assert res.witness[0] == 2
    assert [pg.r for pg in res.pages] == [1, 2] and res.pages_checked == 2


def page_walk(t):
    """The page-by-page verdict: pages 1..bound up to the first nonzero
    differential, returned with the witness (None when every one vanishes)."""
    pages = []
    for r in range(1, t.stabilization_bound() + 1):
        pages.append(page(t, r))
        key = pages[-1].first_nonzero_differential()
        if key is not None:
            return (r,) + key, pages
    return None, pages


def test_rank_verdict_agrees_with_page_walk():
    instances = [m for _, _, m in corpus(60)] + hand_library()
    seen = {True: 0, False: 0}
    for m in instances:
        t = total_complex(m)
        witness, pages = page_walk(t)
        res = degenerates_at_one(t)
        assert res.ok == (witness is None)
        assert res.witness == witness
        seen[res.ok] += 1
        assert page_one_dims(t) == pages[0].dims_table()
        if res.ok:
            assert res.pages_checked == 0
            for pg in pages:
                assert page_one_dims(t) == pg.dims_table()
        else:
            assert [pg.dims_table() for pg in res.pages] == \
                [pg.dims_table() for pg in pages]
    assert seen[True] and seen[False]


def test_rank_failure_without_witness_is_a_logic_error(monkeypatch):
    monkeypatch.setattr(spectral, "page", lambda t, r: SpectralPage(r=r))
    with pytest.raises(NotWellDefined):
        degenerates_at_one(total_complex(staircase4()))


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
        retract, _ = build_retract(m.space, m.delta(0))
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
    assert p1.differential_is_zero()
    retract, _ = build_retract(m.space, m.delta(0))
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
