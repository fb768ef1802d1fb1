"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact rational arithmetic; there are no tolerances
anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines and timings.
"""

import time
from itertools import combinations, product as iproduct
from random import Random

from multicx import derham
from multicx.complexes import (
    Multicomplex,
    OperatorSeries,
    compose_infinity,
    invert_infinity,
    power_cap,
    validate_infinity_morphism,
    validate_multicomplex,
)
from multicx.derham import (
    FormAlgebra,
    PolyVector,
    basic_subcomplex,
    contraction,
    graded_commutator,
    jacobi_defects,
    jacobi_multicomplex,
    schouten,
    structure_order_ladder,
)
from multicx.gauge import (
    NoGauge,
    check_gauge_hodge,
    find_gauge,
    gauge_construct,
)
from multicx.generators import (
    rand_series,
    rand_space,
    rand_square_zero,
    staircase4,
)
from multicx.graded import compose, homology, lincomb
from multicx.spectral import (
    degenerates_at_one,
    page,
    total_complex,
)
from multicx.transfer import (
    alternative_retract,
    build_retract,
    check_hodge_data,
    minimal_model,
    transfer_structure,
)
from oracles import (
    check_contraction_identity,
    first_nonzero_differential,
    frame_isomorphism,
    identify_with_homology,
    inclusion_extension,
    mixed_complex_gauge,
    mixed_gauge_coefficient,
    reversed_contraction_symbol,
)


def conclude(number, name, ok, started):
    verdict = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %s (%.1fs) %s" % (number, verdict, time.time() - started, name))
    assert ok, "acceptance criterion %d failed: %s" % (number, name)


SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1,
                     ((1, 0, 0), (1, 2)): 1,
                     ((0, 1, 0), (0, 2)): -1})
CONTACT_W = PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
CONTACT_E = PolyVector(3, {((0, 0, 0), (2,)): -1})


def test_criterion_01_transfer_validates(acceptance_corpus):
    started = time.time()
    ok = True
    for profile, seed, m in acceptance_corpus:
        ok = ok and m.space.width <= 6
        ok = ok and all(d <= 4 for d in m.space.dims.values())
        retract = build_retract(m.space, m.delta(0))
        transferred, p = transfer_structure(retract, m)
        ok = ok and validate_multicomplex(transferred).ok
        i_inf = inclusion_extension(retract, m)
        ok = ok and validate_infinity_morphism(i_inf, transferred, m).ok
        ok = ok and validate_infinity_morphism(p, m, transferred).ok
        if not ok:
            break
    ok = ok and time.time() - started < 60
    conclude(1, "homotopy transfer output validates on 200 instances", ok, started)


def test_criterion_02_minimal_model(acceptance_corpus):
    # the isomorphism lives on A: from m onto the minimal model carried by
    # the retract, (A, d, i mu_1 p, ...), and equal to the isomorphism onto
    # minimal (+) acyclic complement read back through the frame
    started = time.time()
    ok = True
    for profile, seed, m in acceptance_corpus:
        model = minimal_model(m)
        r = model.retract
        carried = [m.delta(0)] + [compose(r.incl, compose(model.minimal.delta(n), r.proj))
                                  for n in range(1, model.minimal.order + 1)]
        target = Multicomplex(m.space, carried)
        ok = ok and validate_infinity_morphism(model.iso, m, target).ok
        iso_inv = invert_infinity(model.iso)
        ok = ok and validate_infinity_morphism(iso_inv, target, m).ok
        # source and target share the space A, so one unit series is the
        # identity morphism of both
        ident = OperatorSeries.unit(m.space)
        ok = ok and compose_infinity(iso_inv, model.iso) == ident
        ok = ok and compose_infinity(model.iso, iso_inv) == ident
        ok = ok and model.iso == frame_isomorphism(model)
        ok = ok and model.minimal.space == homology(m.delta(0))
        if not ok:
            break
    conclude(2, "minimal model splits every instance by a verified "
                "two-sided infinity-isomorphism", ok, started)


def test_criterion_03_gauge_forward():
    started = time.time()
    rng = Random(404)
    ok = True
    for _ in range(200):
        space = rand_space(rng)
        d = rand_square_zero(rng, space, -1)
        m = gauge_construct(d, rand_series(rng, space))
        found = find_gauge(minimal_model(m))
        ok = ok and not isinstance(found, NoGauge)
        ok = ok and check_gauge_hodge(found, m).ok
        if not ok:
            break
    conclude(3, "gauge orbits always return a verified gauge series "
                "(200 random pairs)", ok, started)


def test_criterion_04_three_way_agreement(acceptance_corpus):
    started = time.time()
    ok = True
    seen_false = 0
    for profile, seed, m in acceptance_corpus:
        retract = build_retract(m.space, m.delta(0))
        hodge = check_hodge_data(retract, m).ok
        degen = degenerates_at_one(total_complex(m), homology(m.delta(0))).ok
        gauge = not isinstance(find_gauge(minimal_model(m)), NoGauge)
        ok = ok and (hodge == degen == gauge)
        if not hodge:
            seen_false += 1
        if not ok:
            break
    ok = ok and seen_false > 0  # profile b instances realize the false branch
    conclude(4, "vanishing transfer, page-one degeneration, and gauge "
                "existence agree three ways on the corpus "
                "(%d obstructed instances)" % seen_false, ok, started)


def test_criterion_05_uniform_vanishing(acceptance_corpus):
    started = time.time()
    rng = Random(505)
    ok = True
    orbit = [(p, s, m) for p, s, m in acceptance_corpus if p == "a"]
    for profile, seed, m in orbit:
        canonical = build_retract(m.space, m.delta(0))
        for _ in range(20):
            retract = alternative_retract(canonical, rng)
            res = check_hodge_data(retract, m)
            ok = ok and res.ok
            if not ok:
                break
        if not ok:
            break
    conclude(5, "transferred operators vanish for 20 randomized retracts "
                "on each of %d gauge-orbit instances" % len(orbit), ok, started)


def test_criterion_06_mixed_gauge_formula(mixed_hodge_corpus):
    started = time.time()
    ok = True
    for m in mixed_hodge_corpus:
        retract = build_retract(m.space, m.delta(0))
        delta = m.delta(1)
        series = mixed_complex_gauge(retract, delta)
        ok = ok and check_gauge_hodge(series, m).ok
        expected_r1 = lincomb([(1, compose(retract.homotopy, delta)),
                               (-1, compose(compose(retract.incl, retract.proj),
                                            compose(delta, retract.homotopy)))])
        ok = ok and series.coefficient(1, 2) == expected_r1
        ok = ok and mixed_gauge_coefficient(retract, delta, 1) == expected_r1
        for n in range(2, power_cap(m.space) + 1):
            ok = ok and series.coefficient(n, 2 * n) == \
                mixed_gauge_coefficient(retract, delta, n)
        if not ok:
            break
    conclude(6, "explicit mixed gauge satisfies the conjugation identity on "
                "100 instances with weight-one coefficient h d1 - ip d1 h",
             ok, started)


def test_criterion_07_spectral_cross_oracle(mixed_hodge_corpus):
    started = time.time()
    ok = True
    checked_d1 = 0
    mixed_instances = list(mixed_hodge_corpus) + [staircase4()]
    for m in mixed_instances:
        t = total_complex(m)
        retract = build_retract(m.space, m.delta(0))
        transferred, _ = transfer_structure(retract, m)
        p1 = page(t, 1)
        d1_op = transferred.delta(1)
        for (s, n), mat in p1.differentials.items():
            tgt = p1.entries[(s + 1, n - 1)]
            if p1.dim(s, n) == 0:
                continue
            src_iso = identify_with_homology(t, p1, s, n)
            if tgt.dim == 0:
                ok = ok and mat.is_zero()
                continue
            tgt_iso = identify_with_homology(t, p1, s + 1, n - 1)
            ok = ok and tgt_iso.mul(mat) == d1_op.block(n + 2 * s).mul(src_iso)
            checked_d1 += 1
        if first_nonzero_differential(p1) is None:
            p2 = page(t, 2)
            d2_op = transferred.delta(2)
            for (s, n), mat in p2.differentials.items():
                if p2.dim(s, n) == 0:
                    continue
                tgt = p2.entries[(s + 2, n - 1)]
                src_iso = identify_with_homology(t, p2, s, n)
                if tgt.dim == 0:
                    ok = ok and mat.is_zero()
                    continue
                tgt_iso = identify_with_homology(t, p2, s + 2, n - 1)
                ok = ok and tgt_iso.mul(mat) == d2_op.block(n + 2 * s).mul(src_iso)
        if not ok:
            break
    conclude(7, "page differentials match the transferred operators under "
                "the leading-slot identification (%d blocks)" % checked_d1,
             ok, started)


def test_criterion_08_poisson_pipeline():
    started = time.time()
    ok = True
    cases = [
        ("plane", PolyVector(2, {((0, 0), (0, 1)): 1}), 2, 2),
        ("four-space", PolyVector(4, {((0,) * 4, (0, 1)): 1,
                                      ((0,) * 4, (2, 3)): 1}), 4, 2),
        ("so3", SO3, 3, 2),
    ]
    for name, w, dim, trunc in cases:
        case_start = time.time()
        ok = ok and schouten(w, w).is_zero
        algebra = FormAlgebra(dim, trunc)
        # a Poisson bivector is the Jacobi pair (w, 0); the builder checks
        # only the structure equations, so every identity is checked here
        geo = jacobi_multicomplex(w, PolyVector.zero(dim), algebra)
        ok = ok and validate_multicomplex(geo.multicomplex).ok
        d = geo.multicomplex.delta(0)
        delta = geo.multicomplex.delta(1)
        ok = ok and compose(delta, delta).is_zero
        ok = ok and lincomb([(1, compose(d, delta)), (1, compose(delta, d))]).is_zero
        ok = ok and check_gauge_hodge(geo.gauge, geo.multicomplex).ok
        ok = ok and degenerates_at_one(total_complex(geo.multicomplex), homology(d)).ok
        ok = ok and time.time() - case_start < 30
        if not ok:
            break
    conclude(8, "Poisson pipeline: symplectic planes and the rotation "
                "algebra collapse at page one", ok, started)


def test_criterion_09_jacobi_pipeline():
    started = time.time()
    # the pair was produced by the coefficientwise linear solve of the two
    # structure equations over the degree-one ansatz (see test_derham)
    first, second = jacobi_defects(CONTACT_W, CONTACT_E)
    ok = first.is_zero and second.is_zero and not CONTACT_E.is_zero
    algebra = FormAlgebra(3, 4, weight=True)
    geo = jacobi_multicomplex(CONTACT_W, CONTACT_E, algebra)
    m = geo.multicomplex
    d, d1, d2 = m.delta(0), m.delta(1), m.delta(2)
    ok = ok and not d2.is_zero
    relations = [
        compose(d, d),
        lincomb([(1, compose(d, d1)), (1, compose(d1, d))]),
        lincomb([(1, compose(d1, d1)), (1, compose(d2, d)), (1, compose(d, d2))]),
        lincomb([(1, compose(d1, d2)), (1, compose(d2, d1))]),
        compose(d2, d2),
    ]
    ok = ok and all(r.is_zero for r in relations)
    iw = contraction(algebra, CONTACT_W)
    ok = ok and graded_commutator(iw, d1) == lincomb([(2, d2)])
    ok = ok and check_gauge_hodge(geo.gauge, m).ok
    ok = ok and validate_multicomplex(m).ok
    basic = basic_subcomplex(CONTACT_W, CONTACT_E, algebra)
    ok = ok and not basic.multicomplex.space.is_zero
    bd = basic.multicomplex.delta(1)
    ok = ok and compose(bd, bd).is_zero
    ok = ok and degenerates_at_one(total_complex(basic.multicomplex),
                                   homology(basic.multicomplex.delta(0))).ok
    conclude(9, "Jacobi pipeline: contact-type pair satisfies all five "
                "relations, the bracket identity, and basic collapse",
             ok, started)


def test_criterion_10_order_ladder():
    started = time.time()
    ladder = structure_order_ladder(SO3)
    ok = ladder.d == 1
    ok = ok and ladder.delta1 == 2
    jac = structure_order_ladder(CONTACT_W, CONTACT_E)
    ok = ok and jac.d == 1
    ok = ok and jac.delta1 <= 2
    ok = ok and jac.delta2 <= 3
    conclude(10, "order ladder: differential exactly one, weight one at most "
                 "two (and genuinely two), weight two at most three", ok, started)


def test_criterion_11_convention_pin(monkeypatch):
    started = time.time()
    ok = True
    # all monomial bivector/trivector pairs with coefficient degree <= 1 on
    # two and three coordinates
    for dim in (2, 3):
        exps = [tuple(1 if t == i else 0 for t in range(dim)) for i in range(dim)]
        exps = [(0,) * dim] + exps
        monos = []
        for k in (2, 3):
            if k > dim:
                continue
            for J in combinations(range(dim), k):
                for alpha in exps:
                    monos.append(PolyVector(dim, {(alpha, J): 1}))
        for p, q in iproduct(monos, monos):
            ok = ok and check_contraction_identity(p, q)
            if not ok:
                break
        if not ok:
            break
    # negative control: the reversed composite order fails on a pair with a
    # nonzero bracket
    p = PolyVector(3, {((1, 0, 0), (0, 1)): 1})
    q = PolyVector(3, {((0, 1, 0), (1, 2)): 1})
    ok = ok and check_contraction_identity(p, q)
    monkeypatch.setattr(derham, "_contraction_symbol", reversed_contraction_symbol)
    ok = ok and not check_contraction_identity(p, q)
    conclude(11, "contraction/bracket compatibility pins the sign "
                 "conventions; the reversed order is rejected", ok, started)
