import argparse
import json
import os
import sys
from random import Random

import pytest

from multicx import cli, complexes, derham, exactla, gauge, graded, spectral, transfer
from multicx.cli import cmd_analyze, cmd_generate, cmd_geometry, main
from multicx.complexes import Multicomplex
from multicx.derham import PolyVector
from multicx.exactla import Subspace
from multicx.graded import GradedMap, lincomb
from multicx.formats import parse_multicomplex, print_multicomplex, print_structure
from multicx.generators import staircase4
from multicx.spectral import total_complex


SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1,
                     ((1, 0, 0), (1, 2)): 1,
                     ((0, 1, 0), (0, 2)): -1})
CONTACT_W = PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
CONTACT_E = PolyVector(3, {((0, 0, 0), (2,)): -1})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_generate_is_deterministic():
    assert cmd_generate("a", 11) == cmd_generate("a", 11)
    assert cmd_generate("b", 11) != cmd_generate("a", 11)
    m, meta = parse_multicomplex(cmd_generate("b", 11))
    assert meta["generator"] == "profile-b"


def test_generate_validate_pipeline(tmp_path, capsys):
    for profile in "abc":
        text = cmd_generate(profile, 4)
        path = write(tmp_path, "m-%s.mcx" % profile, text)
        code = main(["validate", path])
        assert code == 0
        assert "PASS multicomplex relations" in capsys.readouterr().out


def test_validate_reports_witness(tmp_path, capsys):
    doc = ("multicx multicomplex v1\ndegrees\n0 1\n1 1\n2 1\n"
           "operator 0\n1 0 0 1\n2 0 0 1\nend\n")
    path = write(tmp_path, "bad.mcx", doc)
    code = main(["validate", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL multicomplex relations" in out
    assert "n=0" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "broken.mcx", "garbage\n")
    assert main(["validate", path]) == 2
    assert main(["validate", str(tmp_path / "missing.mcx")]) == 2


def test_analyze_trivial(tmp_path):
    space_doc = "multicx multicomplex v1\ndegrees\n0 2\nend\n"
    path = write(tmp_path, "trivial.mcx", space_doc)
    report = cmd_analyze(path)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "three-way agreement" in names


def test_analyze_obstructed_three_way_false(tmp_path):
    doc = ("multicx multicomplex v1\ndegrees\n0 1\n1 1\n"
           "operator 0\noperator 1\n0 0 0 1\nend\n")
    path = write(tmp_path, "obstructed.mcx", doc)
    report = cmd_analyze(path)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["transferred operators vanish"].passed
    assert not by_name["degenerates at page one"].passed
    assert not by_name["gauge series exists"].passed
    assert by_name["three-way agreement"].passed
    assert not report.ok


def test_analyze_gauge_orbit_full_agreement(tmp_path):
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 23))
    report = cmd_analyze(path, seed=1)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["gauge series exists"].passed
    assert by_name["randomized retracts agree"].passed


def test_agreement_reads_the_gauge_conjugation(tmp_path, monkeypatch):
    # the gauge leg holds only when the found series conjugates d onto the
    # family; find_gauge reads the Hodge weights, so "found" alone would
    # always agree with the Hodge leg
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 5))
    monkeypatch.setattr(cli, "check_gauge_hodge",
                        lambda series, m: complexes.HodgeData(ok=False, witness=1))
    by_name = {c.name: c for c in cmd_analyze(path).checks}
    assert by_name["transferred operators vanish"].passed
    assert by_name["degenerates at page one"].passed
    assert by_name["gauge series exists"].passed
    assert not by_name["gauge series conjugates the differential"].passed
    agreement = by_name["three-way agreement"]
    assert not agreement.passed
    assert agreement.witness == "hodge=True degeneration=True gauge=False"


def test_analyze_staircase_witnesses(tmp_path):
    path = write(tmp_path, "stair.mcx", print_multicomplex(staircase4()))
    report = cmd_analyze(path)
    by_name = {c.name: c for c in report.checks}
    assert "weight 2" in by_name["transferred operators vanish"].witness
    assert "page 2" in by_name["degenerates at page one"].witness
    assert "weight 2" in by_name["gauge series exists"].witness
    assert by_name["three-way agreement"].passed


def count_calls(monkeypatch, *functions):
    """Count calls of each function wherever a pipeline module holds it."""
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:
        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in (cli, complexes, derham, gauge, spectral, transfer):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def test_analyze_builds_each_object_once(tmp_path, monkeypatch):
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 2))
    counts = count_calls(monkeypatch, spectral.page, transfer.minimal_model,
                         transfer.build_retract, transfer.transfer_structure,
                         transfer._p_components, gauge.check_gauge_hodge,
                         complexes.invert_infinity, complexes.compose_infinity)
    report = cmd_analyze(path)
    assert report.ok
    # the model transfers through the helpers transfer_structure shares: the
    # projection components once, for the isomorphism the gauge reads
    assert counts == {"page": 0, "minimal_model": 1, "build_retract": 1,
                      "transfer_structure": 0, "_p_components": 1,
                      "check_gauge_hodge": 1, "invert_infinity": 0,
                      "compose_infinity": 0}
    # the gauge is -log of the isomorphism on A, obstructed or not
    stair = write(tmp_path, "stair.mcx", print_multicomplex(staircase4()))
    assert not cmd_analyze(stair).ok
    assert counts["invert_infinity"] == counts["compose_infinity"] == 0
    # --seed twists the model's retract: one retract is still built, and
    # the two randomized retracts eliminate nothing
    eliminations = count_calls(monkeypatch, exactla.kernel_image, exactla.complement,
                               exactla.solve)
    inside = []

    def twisted(r, rng, _fn=transfer.alternative_retract):
        before = dict(eliminations)
        out = _fn(r, rng)
        inside.append({name: n - before[name] for name, n in eliminations.items()})
        return out
    monkeypatch.setattr(cli, "alternative_retract", twisted)
    for name in counts:
        counts[name] = 0
    report = cmd_analyze(path, seed=5)
    assert report.ok and report.checks[-1].name == "randomized retracts agree"
    assert counts["build_retract"] == counts["minimal_model"] == 1
    assert inside == [{"kernel_image": 0, "complement": 0, "solve": 0}] * 2


def test_obstructed_analysis_builds_no_isomorphism(tmp_path, monkeypatch):
    # find_gauge answers NoGauge from the transferred weights, so the
    # isomorphism, which starts from the projection components, is never read
    counts = count_calls(monkeypatch, transfer._p_components)
    stair = write(tmp_path, "stair.mcx", print_multicomplex(staircase4()))
    profile_b = write(tmp_path, "b.mcx", cmd_generate("b", 3))
    for path in (stair, profile_b):
        for seed in (None, 7):
            report = cmd_analyze(path, seed=seed)
            passed = {c.name: c.passed for c in report.checks}
            assert not passed["gauge series exists"] and passed["three-way agreement"]
            assert passed.get("randomized retracts agree", True)
            assert counts == {"_p_components": 0}
    assert cmd_analyze(write(tmp_path, "orbit.mcx", cmd_generate("a", 2))).ok
    assert counts == {"_p_components": 1}


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    orbit = write(tmp_path, "orbit.mcx", cmd_generate("a", 2))
    stair = write(tmp_path, "stair.mcx", print_multicomplex(staircase4()))
    commands = [["analyze", "--pages", "2", stair], ["analyze", orbit],
                ["geometry", "--kind", "basic", "--dim", "3", "--trunc", "3",
                 "--structure", structure_file(tmp_path, "basic")],
                ["analyze", "--no-such-option", orbit],
                ["generate", "--profile", "b", "--seed", "4"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    first = []
    for argv in commands:
        cli._parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _ in first] == [1, 0, 0, 2, 0]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    assert [run(argv) for argv in commands] == first
    # the parser and each subcommand's parser, once
    assert built.count("multicx") == 1 and len(built) == len(set(built))


def structure_file(tmp_path, kind):
    if kind == "poisson":
        return write(tmp_path, "so3.json", print_structure(3, SO3))
    return write(tmp_path, "contact.json", print_structure(3, CONTACT_W, CONTACT_E))


def test_pipeline_subspaces_skip_the_independence_check(tmp_path, monkeypatch):
    # every pipeline basis is independent by construction, so no command
    # goes through the checking constructor and its rank computation
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    checked = []
    original = Subspace.__init__

    def counting(self, *args):
        checked.append(args)
        original(self, *args)
    monkeypatch.setattr(Subspace, "__init__", counting)
    stair = write(tmp_path, "stair.mcx", print_multicomplex(staircase4()))
    assert not cmd_analyze(stair).ok
    assert cmd_geometry("basic", 3, 3, structure_file(tmp_path, "basic")).ok
    assert checked == []


def test_homology_is_computed_once_per_command(tmp_path, monkeypatch):
    # geometry computes H(A, d) once for the degeneration verdict; analyze
    # reads it off the minimal model, whose elimination already found ker d
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    counts = count_calls(monkeypatch, graded.homology)
    runs = [(1, lambda kind=kind: cmd_geometry(kind, 3, 3, structure_file(tmp_path, kind)))
            for kind in ("poisson", "jacobi", "basic")]
    for text in (cmd_generate("a", 2), print_multicomplex(staircase4())):
        path = write(tmp_path, "in.mcx", text)
        runs.append((0, lambda path=path: cmd_analyze(path)))
    for calls, run in runs:
        counts["homology"] = 0
        assert run().checks
        assert counts["homology"] == calls


def test_each_check_runs_once(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    counts = count_calls(monkeypatch, complexes.validate_multicomplex,
                         gauge.check_gauge_hodge)
    for kind in ("poisson", "jacobi", "basic"):
        counts.update(validate_multicomplex=0, check_gauge_hodge=0)
        assert cmd_geometry(kind, 3, 3, structure_file(tmp_path, kind)).ok
        assert counts == {"validate_multicomplex": 1, "check_gauge_hodge": 1}, kind
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 2))
    counts.update(validate_multicomplex=0)
    assert cmd_analyze(path).ok
    assert counts["validate_multicomplex"] == 1


def test_geometry_builds_each_operator_once(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    counts = count_calls(monkeypatch, derham.d_de_rham, derham.jacobi_defects)
    contracted = []
    real = derham.contraction

    def counting(a, p):
        contracted.append(p)
        return real(a, p)
    monkeypatch.setattr(derham, "contraction", counting)
    for kind, w in (("poisson", SO3), ("jacobi", CONTACT_W), ("basic", CONTACT_W)):
        counts.update(d_de_rham=0, jacobi_defects=0)
        contracted.clear()
        assert cmd_geometry(kind, 3, 3, structure_file(tmp_path, kind)).ok
        assert counts == {"d_de_rham": 1, "jacobi_defects": 1}, kind
        assert contracted.count(w) == 1, kind


def corrupted(builder, n):
    """The builder with one entry added to operator n of its multicomplex."""
    def build(*args):
        geo = builder(*args)
        m = geo.multicomplex
        deltas = [m.delta(i) for i in range(max(m.order, n) + 1)]
        k = next(k for k in m.space.degrees if m.space.dim(k + 2 * n - 1))
        bump = GradedMap.from_entries(m.space, m.space, 2 * n - 1, [(k, 0, 0, 1)])
        deltas[n] = lincomb([(1, deltas[n]), (1, bump)])
        geo.multicomplex = Multicomplex(m.space, deltas)
        return geo
    return build


IDENTITY_LINES = {
    "poisson": ("jacobi_multicomplex", 1, [
        "square of the induced operator vanishes",
        "differential anticommutes with the induced operator",
        "weight-one gauge identity", "multicomplex relations"]),
    "jacobi": ("jacobi_multicomplex", 2, [
        "five multicomplex relations", "bracket identity [i(w), delta] = 2 i(e) i(w)",
        "quadratic gauge identity", "multicomplex relations"]),
    "basic": ("basic_subcomplex", 1, [
        "basic subcomplex is stable and squares to zero", "restricted gauge identity",
        "multicomplex relations"]),
}


@pytest.mark.parametrize("kind", sorted(IDENTITY_LINES))
def test_corrupted_operator_fails_each_identity_line(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    builder, n, names = IDENTITY_LINES[kind]
    monkeypatch.setattr(cli, builder, corrupted(getattr(cli, builder), n))
    path = structure_file(tmp_path, kind)
    code = main(["geometry", "--kind", kind, "--dim", "3", "--trunc", "3",
                 "--structure", path, "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" not in captured.err
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    for name in names:
        assert not checks[name]["passed"] and checks[name]["witness"], name
    # a failing relation ends the command before the degeneration check
    assert "degenerates at page one" not in checks


def test_basic_restriction_that_leaves_the_subcomplex_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    real = derham._bivector_contraction

    def leaky(a, w):
        # i(w) sends every 2-form also to the function x3, which is not
        # basic: i(e) d x3 = -1
        x3 = a.position[0][((0, 0, 1), ())]
        bump = GradedMap.from_entries(a.space, a.space, 2, [
            (-2, x3, col, 1) for col in range(a.space.dim(-2))])
        return lincomb([(1, real(a, w)), (1, bump)])
    monkeypatch.setattr(derham, "_bivector_contraction", leaky)
    code = main(["geometry", "--kind", "basic", "--dim", "3", "--trunc", "3",
                 "--structure", structure_file(tmp_path, "basic")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert ("FAIL basic subcomplex is stable and squares to zero (witness: "
            "an operator does not preserve the basic subcomplex)") in captured.out
    # the structure line, checked before the restriction, passes first
    assert captured.out.index("PASS structure equations hold") < \
        captured.out.index("FAIL basic subcomplex")


def test_matrix_sub_makes_no_negated_copy(tmp_path, monkeypatch):
    # the randomized retracts of --seed subtract three times per degree;
    # each difference is summed with coefficient -1, not through a scaled
    # copy of its right operand
    callers, subs = [], []
    real_scale, real_sub = exactla.Matrix.scale, exactla.Matrix.sub

    def scale(self, a):
        caller = sys._getframe(1)
        while caller.f_code.co_name == "neg":
            caller = caller.f_back
        callers.append(caller.f_code.co_name)
        return real_scale(self, a)

    def sub(self, other):
        subs.append(1)
        return real_sub(self, other)
    monkeypatch.setattr(exactla.Matrix, "scale", scale)
    monkeypatch.setattr(exactla.Matrix, "sub", sub)
    for s in range(20):
        path = write(tmp_path, "orbit%d.mcx" % s, cmd_generate("a", s))
        assert cmd_analyze(path, seed=s).ok
    assert subs and "sub" not in callers


def test_analyze_pages_truncates_only_the_table(tmp_path, monkeypatch):
    # the obstructed staircase and a degenerate orbit: the table shows the
    # pages up to the bound or R, equal to the built pages, and neither
    # verdict builds a page
    counts = count_calls(monkeypatch, spectral.page)
    for name, text, witness in [
            ("stair.mcx", print_multicomplex(staircase4()),
             "page 2 at (level, total degree) = (-2, 4)"),
            ("orbit.mcx", cmd_generate("a", 2), "")]:
        path = write(tmp_path, name, text)
        t = total_complex(parse_multicomplex(text)[0])
        bound = t.stabilization_bound()
        for pages, shown in [(None, bound), (1, 1), (bound + 5, bound)]:
            counts["page"] = 0
            report = cmd_analyze(path, pages=pages)
            by_name = {c.name: c for c in report.checks}
            assert by_name["degenerates at page one"].witness == witness
            table = report.tables["page dimensions"]
            assert list(table) == ["page %d" % r for r in range(1, shown + 1)]
            assert counts["page"] == 0
            for r in range(1, shown + 1):
                direct = spectral.page(t, r).dims_table()
                assert table["page %d" % r] == {str(k): v for k, v in direct.items()}


def test_failed_verdict_reads_pages_off_corner_ranks(tmp_path, monkeypatch):
    # the rank test, the witness and the page table of a failed verdict come
    # from at most one elimination per filtration class, the rank test's
    # boundary ranks included, and no page or subquotient map is built
    counts = count_calls(monkeypatch, spectral.page, exactla.induced_subquotient_map,
                         exactla.rank, exactla._rref)
    for name, text in [("stair.mcx", print_multicomplex(staircase4())),
                       ("obstructed17.mcx", cmd_generate("b", 17))]:
        path = write(tmp_path, name, text)
        t = total_complex(parse_multicomplex(text)[0])
        for key in counts:
            counts[key] = 0
        assert not cmd_analyze(path).ok
        assert counts["page"] == counts["induced_subquotient_map"] == 0
        assert counts["rank"] == 0
        assert 0 < counts["_rref"] <= len(t.levels(0)) + len(t.levels(1)), counts


FUZZ_BYTES = b"0123456789-/ \n.e\"{}[],:x\xff"


def mutated(data: bytes, seed: int) -> bytes:
    """data after one to three byte flips, replacements, deletions or
    insertions, drawn from Random(seed)."""
    rng = Random(seed)
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        op = rng.randrange(4)
        if op == 0:
            out[i] ^= 1 << rng.randrange(8)
        elif op == 1:
            out[i] = rng.choice(FUZZ_BYTES)
        elif op == 2:
            del out[i]
        else:
            out.insert(i, rng.choice(FUZZ_BYTES))
    return bytes(out)


def test_mutated_inputs_never_fault(tmp_path, monkeypatch, capsys):
    # a damaged file is an input error or a verdict, never an internal error
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    contact = print_structure(3, CONTACT_W, CONTACT_E).encode()
    cases = [(cmd_generate("a", 3).encode(), ["analyze"]),
             (contact, ["geometry", "--kind", "jacobi", "--dim", "3", "--trunc", "2",
                        "--structure"])]
    for data, argv in cases:
        path = tmp_path / "mutant"
        codes = set()
        for seed in range(500):
            path.write_bytes(mutated(data, seed))
            code = main(argv + [str(path)])
            capsys.readouterr()
            assert code in (0, 1, 2), (argv[0], seed)
            codes.add(code)
        # some mutants get past the parser to a full report
        assert {0, 2} <= codes, argv[0]


def test_analyze_rejects_pages_below_one(tmp_path, capsys):
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 2))
    for bad in ("0", "-1"):
        assert main(["analyze", path, "--pages", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
    assert main(["analyze", path, "--pages", "1"]) == 0


def test_analyze_json_output(tmp_path, capsys):
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 2))
    code = main(["analyze", path, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert all(c["passed"] for c in doc["checks"])


def test_analyze_deterministic_modulo_timing(tmp_path):
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 31))
    a = cmd_analyze(path, seed=5).to_json()
    b = cmd_analyze(path, seed=5).to_json()
    a.pop("elapsed"), b.pop("elapsed")
    assert a == b


def test_geometry_poisson_so3(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    path = write(tmp_path, "so3.json", print_structure(3, SO3))
    report = cmd_geometry("poisson", 3, 2, path)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["degenerates at page one"].passed
    emitted = report.notes["multicomplex file"]
    assert os.path.exists(emitted)
    m, meta = parse_multicomplex(open(emitted).read())
    assert meta["generator"] == "geometry-poisson"
    from multicx.complexes import validate_multicomplex
    assert validate_multicomplex(m).ok


def test_geometry_rejects_non_poisson(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    bad = PolyVector(3, {((0, 1, 0), (1, 2)): 1, ((0, 0, 1), (0, 2)): 1})
    path = write(tmp_path, "bad.json", print_structure(3, bad))
    code = main(["geometry", "--kind", "poisson", "--dim", "3",
                 "--trunc", "2", "--structure", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL bivector brackets to zero" in out
    assert "[w, w] has terms" in out


def test_geometry_jacobi_and_basic(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    path = write(tmp_path, "contact.json", print_structure(3, CONTACT_W, CONTACT_E))
    rep_j = cmd_geometry("jacobi", 3, 4, path)
    assert rep_j.ok
    rep_b = cmd_geometry("basic", 3, 4, path)
    assert rep_b.ok
    for rep in (rep_j, rep_b):
        by_name = {c.name: c for c in rep.checks}
        assert by_name["degenerates at page one"].passed


def test_geometry_jacobi_requires_vector(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    path = write(tmp_path, "so3.json", print_structure(3, SO3))
    for kind in ("jacobi", "basic"):
        code = main(["geometry", "--kind", kind, "--dim", "3",
                     "--trunc", "3", "--structure", path])
        assert code == 2
        assert "needs a 'vector' term list" in capsys.readouterr().err


SO3_SUM = PolyVector(6, [(((alpha + (0,) * 3), J), c) for (alpha, J), c in SO3.terms.items()]
                     + [((((0,) * 3 + alpha), tuple(j + 3 for j in J)), c)
                        for (alpha, J), c in SO3.terms.items()])


@pytest.mark.parametrize("trunc", [1, 2])
def test_empty_vector_is_the_zero_field(trunc, tmp_path, monkeypatch, capsys):
    # (w, 0) with w Poisson is a Jacobi pair
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    doc = json.loads(print_structure(6, SO3_SUM))
    doc["vector"] = []
    path = write(tmp_path, "so3sum.json", json.dumps(doc))
    args = ["geometry", "--dim", "6", "--trunc", str(trunc), "--structure", path]
    assert main(args + ["--kind", "jacobi", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tables"]["homology"] == {"0": 1}
    if trunc == 1:
        # the polynomial window of --kind poisson still breaks delta_1^2 = 0 here
        assert main(args + ["--kind", "poisson"]) == 1


def test_order_line_names_the_order_found(tmp_path, monkeypatch, capsys):
    # on a point d is the zero operator, of order -1
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    path = write(tmp_path, "point.json", print_structure(0, PolyVector.zero(0)))
    code = main(["geometry", "--kind", "poisson", "--dim", "0",
                 "--trunc", "1", "--structure", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "  FAIL differential has order exactly one (witness: order -1)\n" in out
    assert out.count("  FAIL ") == 1 and "PASS induced operator has order at most two" in out


def test_generate_cli_round_trip(capsys):
    assert main(["generate", "--profile", "c", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    m, meta = parse_multicomplex(text)
    assert meta["seed"] == "3"


def test_zero_denominator_coefficient_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    doc = json.loads(print_structure(3, SO3))
    doc["bivector"][0]["coefficient"] = "1/0"
    path = write(tmp_path, "zero.json", json.dumps(doc))
    code = main(["geometry", "--kind", "poisson", "--dim", "3",
                 "--trunc", "2", "--structure", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.mcx"
    path.write_bytes(b"multicx multicomplex v1\n# caf\xe9\ndegrees\n0 1\nend\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_unwritable_output_directory_is_an_input_error(tmp_path, monkeypatch, capsys):
    # an output directory below a regular file can be neither made nor written
    blocker = write(tmp_path, "blocker", "")
    monkeypatch.setenv("MULTICX_OUTDIR", os.path.join(blocker, "out"))
    path = write(tmp_path, "so3.json", print_structure(3, SO3))
    code = main(["geometry", "--kind", "poisson", "--dim", "3",
                 "--trunc", "1", "--structure", path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write ")
    assert "internal error" not in err


def test_negative_truncation_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    path = write(tmp_path, "so3.json", print_structure(3, SO3))
    code = main(["geometry", "--kind", "poisson", "--dim", "3",
                 "--trunc", "-1", "--structure", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_negative_exponent_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    doc = json.loads(print_structure(3, SO3))
    doc["bivector"][0]["monomial"] = [0, -1, 1]
    path = write(tmp_path, "negative.json", json.dumps(doc))
    code = main(["geometry", "--kind", "poisson", "--dim", "3",
                 "--trunc", "2", "--structure", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def one_index_bivector(doc):
    doc["bivector"][0]["indices"] = [1]


def two_index_vector(doc):
    doc["vector"][0]["indices"] = [1, 3]


def negative_dim(doc):
    doc.update(dim=-1, bivector=[])
    doc.pop("vector")


@pytest.mark.parametrize("kind, dim, edit", [
    ("poisson", "3", one_index_bivector), ("jacobi", "3", two_index_vector),
    ("poisson", "-1", negative_dim)])
def test_structure_field_shape_is_an_input_error(kind, dim, edit, tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    doc = json.loads(print_structure(3, CONTACT_W, CONTACT_E))
    edit(doc)
    path = write(tmp_path, "shape.json", json.dumps(doc))
    code = main(["geometry", "--kind", kind, "--dim", dim,
                 "--trunc", "2", "--structure", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("field, value", [
    ("vector", 0), ("vector", False), ("vector", ""), ("vector", {}), ("bivector", 5)])
def test_term_list_that_is_no_list_is_an_input_error(field, value, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    doc = json.loads(print_structure(3, CONTACT_W, CONTACT_E))
    doc[field] = value
    path = write(tmp_path, "terms.json", json.dumps(doc))
    code = main(["geometry", "--kind", "jacobi", "--dim", "3",
                 "--trunc", "2", "--structure", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_bad_indices_are_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    for indices in ([2, 1], [1, 4]):
        doc = json.loads(print_structure(3, SO3))
        doc["bivector"][0]["indices"] = indices
        path = write(tmp_path, "indices.json", json.dumps(doc))
        code = main(["geometry", "--kind", "poisson", "--dim", "3",
                     "--trunc", "2", "--structure", path])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("field, value", [
    ("dim", 3.9), ("coefficient", 0.1), ("coefficient", True), ("coefficient", [1]),
    ("monomial", [0, 0, 1.7]), ("monomial", [0, 0, True]),
    ("indices", [1, 2.2]), ("indices", [True, 2])])
def test_structure_numbers_must_be_exact(field, value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    doc = json.loads(print_structure(3, SO3))
    if field == "dim":
        doc["dim"] = value
    else:
        doc["bivector"][0][field] = value
    path = write(tmp_path, "inexact.json", json.dumps(doc))
    code = main(["geometry", "--kind", "poisson", "--dim", "3",
                 "--trunc", "2", "--structure", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("stage broke")
    monkeypatch.setattr(cli, "cmd_analyze", broken)
    path = write(tmp_path, "orbit.mcx", cmd_generate("a", 2))
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: stage broke\n"
