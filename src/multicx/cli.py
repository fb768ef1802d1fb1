"""Command line front end.

Subcommands wire the full pipelines together and emit deterministic reports:

  validate  <file>                       relation check with witnesses
  analyze   <file> [--pages R] [--seed S]  homology, transfer, degeneration,
                                           gauge verdict, three-way agreement
  geometry  --kind poisson|jacobi|basic --dim m --trunc D --structure <file>
  generate  --profile a|b|c --seed S     instance generators, file on stdout

Every check a report prints is evaluated once, where the report shows it.
The relations come from the one validation `TotalComplex` runs (its error
carries the report); a failing relation stops the command before the
degeneration check.  `analyze` computes each object once: one minimal model
gives the homology, the transferred operators with their verdict, and the
gauge.  `geometry` builds a Poisson bivector w as the Jacobi pair (w, 0)
and calls its builder once; the builders check only the structure
equations, and the structure line reads its witness from their NotJacobi
error.  The independent degeneration verdict, in `analyze` and `geometry`
alike, comes from ranks: page one against the homology of the total
complex.  Pages are built only to find the witness of a failed verdict,
and `analyze` builds the later pages its table shows only then; when the
verdict holds every page equals page one.  `--pages R` (R >= 1) truncates
only the printed table.

Exit codes: 0 every check passed, 1 a mathematical check failed (the report
carries the witness), 2 input error, 3 internal error (a fault of the
program; stderr names the exception, with no traceback).  The only
environment hook is MULTICX_OUTDIR, the directory where geometry writes its
multicomplex file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import formats
from .complexes import ValidationReport, validate_multicomplex
from .derham import (
    FormAlgebra,
    PolyVector,
    basic_subcomplex,
    jacobi_multicomplex,
    structure_order_ladder,
)
from .errors import InvalidMulticomplex, MulticxError, NotContained, NotJacobi, ParseError
from .gauge import NoGauge, check_gauge_hodge, find_gauge
from .generators import generate
from .graded import compose, lincomb
from .spectral import degenerates_at_one, page, page_one_dims, total_complex
from .transfer import alternative_retract, check_hodge_data, minimal_model, nonzero_weights
from random import Random


@dataclass
class Check:
    name: str
    passed: bool
    witness: str = ""
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def add(self, name, passed, witness="", **details):
        self.checks.append(Check(name=name, passed=bool(passed),
                                 witness=str(witness), details=details))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [{"name": c.name, "passed": c.passed,
                        "witness": c.witness, "details": c.details}
                       for c in self.checks],
            "tables": self.tables,
            "notes": self.notes,
            "elapsed": self.elapsed,
        }

    def to_text(self) -> str:
        out = ["report for %s" % self.command]
        for key, value in sorted(self.inputs.items()):
            out.append("  input %s = %s" % (key, value))
        for name, table in sorted(self.tables.items()):
            out.append("  table %s:" % name)
            if isinstance(table, dict):
                for key in sorted(table, key=str):
                    out.append("    %s: %s" % (key, table[key]))
            else:
                out.append("    %s" % (table,))
        for c in self.checks:
            line = "  %s %s" % ("PASS" if c.passed else "FAIL", c.name)
            if c.witness and not c.passed:
                line += " (witness: %s)" % c.witness
            out.append(line)
            for key in sorted(c.details):
                out.append("    %s: %s" % (key, c.details[key]))
        for key in sorted(self.notes):
            out.append("  note %s: %s" % (key, self.notes[key]))
        out.append("result: %s" % ("all checks passed" if self.ok else "FAILURES PRESENT"))
        return "\n".join(out) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _validated(m):
    """The total complex of m (None when a relation fails) and the report of
    the one validation, which `TotalComplex` runs and its error carries."""
    try:
        return total_complex(m), ValidationReport()
    except InvalidMulticomplex as exc:
        return None, exc.report


def _relation(rep: ValidationReport, n=None):
    """Verdict and witness of relation n, or of every relation, read off rep."""
    found = [v for v in rep.violations if n is None or v.index == n]
    return not found, "; ".join(v.describe() for v in found)


def _gauge(series, m):
    """Verdict and witness of the gauge identity exp(r) d exp(-r) = family."""
    check = check_gauge_hodge(series, m)
    return check.ok, "" if check.ok else "fails at power %d" % check.witness


def _done(report: Report, started: float) -> Report:
    report.elapsed = round(time.perf_counter() - started, 6)
    return report


def cmd_validate(path: str) -> Report:
    report = Report(command="validate", inputs={"file": path})
    started = time.perf_counter()
    m, meta = formats.parse_multicomplex(_read(path))
    report.notes.update(meta)
    report.tables["dimensions"] = dict(m.space.dims)
    report.add("multicomplex relations", *_relation(validate_multicomplex(m)),
               operators=m.order + 1)
    return _done(report, started)


def cmd_analyze(path: str, pages=None, seed=None) -> Report:
    if pages is not None and pages < 1:
        raise ParseError("--pages must be at least 1, got %d" % pages)
    report = Report(command="analyze", inputs={"file": path})
    started = time.perf_counter()
    m, meta = formats.parse_multicomplex(_read(path))
    report.notes.update(meta)
    report.notes["retract"] = "deterministic leftmost-pivot splitting"
    report.tables["dimensions"] = dict(m.space.dims)
    t, rep = _validated(m)
    report.add("multicomplex relations", *_relation(rep))
    if not rep.ok:
        return _done(report, started)

    # one minimal model: its space is the homology, its operators are the
    # transferred ones, and it carries the isomorphism the gauge is built from
    model = minimal_model(m)
    report.tables["homology"] = dict(model.minimal.space.dims)
    weights = nonzero_weights(model.minimal)
    report.tables["transferred nonzero weights"] = weights
    hodge_ok = not weights
    report.add("transferred operators vanish", hodge_ok,
               "" if hodge_ok else "weight %d" % weights[0])

    # the verdict comes from ranks; when it holds every page equals page
    # one, and when it fails the pages built to find the witness fill the
    # table before any later page is built
    degen = degenerates_at_one(t)
    bound = t.stabilization_bound()
    shown = bound if pages is None else min(bound, pages)
    if degen.ok:
        rows = [page_one_dims(t, degen.homology)] * shown
    else:
        rows = [pg.dims_table() for pg in degen.pages[:shown]]
        rows += [page(t, r).dims_table() for r in range(len(rows) + 1, shown + 1)]
    report.tables["page dimensions"] = {
        "page %d" % r: {str(k): v for k, v in dims.items()}
        for r, dims in enumerate(rows, 1)}
    report.add("degenerates at page one", degen.ok,
               "" if degen.ok else "page %d at (level, total degree) = (%d, %d)" % degen.witness)

    gauge = find_gauge(model)
    found = not isinstance(gauge, NoGauge)
    report.add("gauge series exists", found,
               "" if found else "obstructed at weight %d" % gauge.witness)
    if found:
        report.notes["gauge"] = " | ".join(formats.print_series(gauge).strip().splitlines())
        report.add("gauge series conjugates the differential", *_gauge(gauge, m))

    agree = (hodge_ok == degen.ok == found)
    report.add("three-way agreement", agree,
               "" if agree else "hodge=%s degeneration=%s gauge=%s"
               % (hodge_ok, degen.ok, found))

    if seed is not None:
        rng = Random(seed)
        match = True
        for _ in range(2):
            alt = alternative_retract(m.space, m.delta(0), rng)
            if check_hodge_data(alt, m).ok != hodge_ok:
                match = False
        report.add("randomized retracts agree", match, seed=seed)
    return _done(report, started)


def _write_output(name: str, text: str) -> str:
    """Write `name` under MULTICX_OUTDIR; a directory that cannot be made or
    written is an input error, as an unreadable input file is."""
    outdir = os.environ.get("MULTICX_OUTDIR", ".")
    path = os.path.join(outdir, name)
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc))
    return path


def cmd_geometry(kind: str, dim: int, trunc: int, structure_path: str) -> Report:
    if trunc < 0:
        raise ParseError("--trunc must be nonnegative, got %d" % trunc)
    report = Report(command="geometry",
                    inputs={"kind": kind, "dim": dim, "trunc": trunc,
                            "structure": structure_path})
    started = time.perf_counter()
    _, bivector, vector = formats.parse_structure(_read(structure_path), dim)
    weighted = kind in ("jacobi", "basic")
    algebra = FormAlgebra(dim, trunc, weight=weighted)
    report.notes["truncation"] = ("weight |alpha| + |I| <= %d" % trunc) if weighted \
        else ("polynomial degree |alpha| <= %d" % trunc)

    if kind == "poisson":
        # a Poisson bivector is the Jacobi pair (w, 0)
        vector = PolyVector.zero(dim)
    elif vector is None:
        raise ParseError("kind %r needs a 'vector' term list in the structure" % kind)
    structure = "bivector brackets to zero" if kind == "poisson" else "structure equations hold"
    build = basic_subcomplex if kind == "basic" else jacobi_multicomplex
    try:
        geo = build(bivector, vector, algebra)
    except NotJacobi as exc:
        # with e = 0 the first defect is [w, w] and the second is zero
        first, second = exc.defects
        name, defect = ("[w, w] - 2 e ^ w", first) if not first.is_zero else ("[e, w]", second)
        if kind == "poisson":
            name = "[w, w]"
        report.add(structure, False, "%s has terms %s"
                   % (name, formats.polyvector_to_terms(defect)))
        return _done(report, started)
    except NotContained as exc:
        report.add(structure, True)
        report.add("basic subcomplex is stable and squares to zero", False, exc)
        return _done(report, started)
    report.add(structure, True)
    m = geo.multicomplex
    t, rep = _validated(m)
    gauge = _gauge(geo.gauge, m)
    if kind == "poisson":
        report.add("square of the induced operator vanishes", *_relation(rep, 2))
        report.add("differential anticommutes with the induced operator", *_relation(rep, 1))
        report.add("weight-one gauge identity", *gauge)
    elif kind == "jacobi":
        report.add("five multicomplex relations", *_relation(rep))
        # [i(w), delta_1] - 2 delta_2, with i(w) the gauge's weight-one term
        iw, d1 = geo.gauge.coefficient(1, 2), m.delta(1)
        defect = lincomb([(1, compose(iw, d1)), (-1, compose(d1, iw)), (-2, m.delta(2))])
        report.add("bracket identity [i(w), delta] = 2 i(e) i(w)", defect.is_zero,
                   "" if defect.is_zero else "source degree %d, entry (%d,%d) = %s"
                   % next(defect.entries()))
        report.add("quadratic gauge identity", *gauge)
    else:
        report.add("basic subcomplex is stable and squares to zero", *_relation(rep))
        report.add("restricted gauge identity", *gauge)
    report.add("multicomplex relations", *_relation(rep))
    report.tables["dimensions"] = dict(m.space.dims)
    if not rep.ok:
        return _done(report, started)

    degen = degenerates_at_one(t)
    report.tables["homology"] = dict(degen.homology.dims)
    report.add("degenerates at page one", degen.ok,
               "" if degen.ok else "page %d at (level, total degree) = (%d, %d)" % degen.witness)

    def order_line(name, order, ok):
        # a failing line names the order found, -1 for the zero operator
        report.add(name, ok, "" if ok else "order %d" % order)

    ladder = structure_order_ladder(bivector, None if kind == "poisson" else vector)
    order_line("differential has order exactly one", ladder.d, ladder.d == 1)
    order_line("induced operator has order at most two", ladder.delta1, ladder.delta1 <= 2)
    report.notes["induced operator order at most one"] = str(ladder.delta1 <= 1)
    if ladder.delta2 is not None:
        order_line("weight-two operator has order at most three", ladder.delta2,
                   ladder.delta2 <= 3)

    stem = os.path.splitext(os.path.basename(structure_path))[0]
    meta = {"generator": "geometry-%s" % kind, "structure": stem}
    path = _write_output("%s-%s.mcx" % (stem, kind), formats.print_multicomplex(m, meta))
    report.notes["multicomplex file"] = path
    return _done(report, started)


def cmd_generate(profile: str, seed: int) -> str:
    m = generate(profile, seed)
    meta = {"generator": "profile-%s" % profile, "seed": seed}
    return formats.print_multicomplex(m, meta)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multicx",
        description="exact homotopy theory of multicomplexes and polynomial "
                    "de Rham complexes of Poisson and Jacobi structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the defining relations")
    p_validate.add_argument("file")
    p_validate.add_argument("--json", action="store_true")

    p_analyze = sub.add_parser("analyze", help="full homotopy analysis")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--pages", type=int, default=None)
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.add_argument("--json", action="store_true")

    p_geo = sub.add_parser("geometry", help="build a de Rham multicomplex")
    p_geo.add_argument("--kind", required=True, choices=["poisson", "jacobi", "basic"])
    p_geo.add_argument("--dim", required=True, type=int)
    p_geo.add_argument("--trunc", required=True, type=int)
    p_geo.add_argument("--structure", required=True)
    p_geo.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("generate", help="emit a generated instance")
    p_gen.add_argument("--profile", required=True, choices=["a", "b", "c"])
    p_gen.add_argument("--seed", required=True, type=int)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            report = cmd_validate(args.file)
        elif args.command == "analyze":
            report = cmd_analyze(args.file, pages=args.pages, seed=args.seed)
        elif args.command == "geometry":
            report = cmd_geometry(args.kind, args.dim, args.trunc, args.structure)
        elif args.command == "generate":
            sys.stdout.write(cmd_generate(args.profile, args.seed))
            return 0
    except ParseError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    except MulticxError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return 3
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
