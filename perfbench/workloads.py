"""The benchmark's workloads: input generation, command lists and output checks.

Each workload turns a seed into input files, then into a fixed list of CLI
commands (one pass).  Every command runs through `multicx.cli.main(argv)` and
its output is compared with `reference.json`, which holds digests of the
mathematical content of every report the workloads can produce.  Inputs come
from fixed pools (generator seeds 0..POOL-1 for the analyze workloads, a few
scalings of the structure for the geometry workloads); the workload seed picks
from the pool, so every possible input has a recorded reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

POOL = 600
SCALES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3), Fraction(-3)]

# One pass per workload and size; the analyze passes are stratified by cost
# (see `stratified`).
ORBIT_PASS = {"full": 120, "tiny": 3}
OBSTRUCTED_PASS = {"full": 100, "tiny": 2}
TINY_POOL = 30
SO3_TRUNCS = {"full": [2, 3, 4], "tiny": [2]}
CONTACT_TRUNCS = {"full": [4, 5, 6], "tiny": [3]}
GEOMETRY_TRUNCS = {"poisson": [2, 3, 4], "jacobi": [3, 4, 5, 6], "basic": [3, 4, 5, 6]}

ANALYZE_TABLES = ["dimensions", "homology", "page dimensions", "transferred nonzero weights"]
GEOMETRY_TABLES = ["dimensions", "homology"]


@dataclass
class Command:
    argv: list
    expect_code: int
    kind: str          # "analyze" or "geometry-<kind>": selects the field list
    key: tuple         # where the expected digest sits in the reference
    output: str = ""   # the .mcx file a geometry command writes


class Multicx:
    """The program's modules, imported afresh from a source tree."""

    def __init__(self, src_dir: str):
        for name in [m for m in sys.modules if m == "multicx" or m.startswith("multicx.")]:
            del sys.modules[name]
        if src_dir not in sys.path:
            sys.path.insert(0, src_dir)
        self.cli = importlib.import_module("multicx.cli")
        self.derham = importlib.import_module("multicx.derham")
        self.formats = importlib.import_module("multicx.formats")
        self.generators = importlib.import_module("multicx.generators")
        origin = os.path.dirname(os.path.abspath(self.cli.__file__))
        if origin != os.path.join(os.path.abspath(src_dir), "multicx"):
            raise ImportError("multicx imported from %s, not from %s" % (origin, src_dir))

    @property
    def modules(self) -> dict:
        """Every loaded multicx module by its short name ('exactla', ...)."""
        return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("multicx.")}


def run_command(mcx: Multicx, cmd: Command):
    """Run one command in-process with captured output.

    Returns (exit code or None if it raised, stdout text, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mcx.cli.main(cmd.argv)
    except (Exception, SystemExit) as exc:  # a raising command is a failed one
        return None, out.getvalue(), "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- verification

def content(cmd: Command, stdout: str) -> dict:
    """The mathematical content of a report: tables, check verdicts with their
    witnesses, the gauge note, and the digest of the written .mcx file.
    Timing (`elapsed`), paths and check details are left out."""
    report = json.loads(stdout)
    tables = ANALYZE_TABLES if cmd.kind == "analyze" else GEOMETRY_TABLES
    fields = {"table:" + t: report["tables"].get(t) for t in tables}
    for check in report["checks"]:
        fields["check:" + check["name"]] = [check["passed"], check["witness"]]
    if cmd.kind == "analyze":
        fields["note:gauge"] = report["notes"].get("gauge")
    if cmd.output:
        with open(cmd.output, "rb") as fh:
            fields["mcx"] = hashlib.sha256(fh.read()).hexdigest()
    return fields


def digest(fields: dict, names: list) -> str:
    """Digest over the named fields only; a field added later is ignored, and a
    named field that disappears reads as null."""
    doc = json.dumps([fields.get(n) for n in names], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def expected(reference: dict, cmd: Command) -> str:
    entry = reference
    for part in cmd.key:
        entry = entry[part]
    return entry[1] if isinstance(entry, list) else entry


def verify(reference: dict, cmd: Command, code, stdout: str) -> str:
    """Empty when the command's exit code and output match the reference,
    otherwise a one-line reason."""
    if code != cmd.expect_code:
        return "exit code %r, expected %d" % (code, cmd.expect_code)
    try:
        got = digest(content(cmd, stdout), reference["fields"][cmd.kind])
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
    want = expected(reference, cmd)
    return "" if got == want else "content digest %s, reference %s" % (got, want)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- inputs

def stratified(pool: dict, count: int, rng: Random) -> list:
    """Pick `count` generator seeds from `pool` ({seed: [cost rank, digest]}):
    the pool, ordered by the cost each instance had when the reference was
    recorded, is cut into `count` equal strata and one instance is drawn from
    each.  Analysis cost is heavy-tailed, so plain sampling would make a
    pass's cost depend on the seed far more than on the program."""
    order = sorted(pool, key=lambda key: pool[key][0])
    picks = []
    for i in range(count):
        stratum = order[round(i * len(order) / count):round((i + 1) * len(order) / count)]
        picks.append(int(rng.choice(stratum)))
    rng.shuffle(picks)
    return picks


def cheapest(pool: dict, count: int, rng: Random) -> list:
    """`count` generator seeds among the TINY_POOL cheapest of the pool."""
    order = sorted(pool, key=lambda key: pool[key][0])
    return [int(key) for key in rng.sample(order[:TINY_POOL], count)]


def pick(pool: dict, count: int, seed: int, size: str) -> list:
    return (stratified if size == "full" else cheapest)(pool, count, Random(seed))


def generated_file(mcx: Multicx, workdir: str, profile: str, gseed: int) -> str:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = mcx.cli.main(["generate", "--profile", profile, "--seed", str(gseed)])
    if code != 0:
        raise RuntimeError("generate --profile %s --seed %d exited %d" % (profile, gseed, code))
    path = os.path.join(workdir, "%s%d.mcx" % (profile, gseed))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.getvalue())
    return path


def analyze_command(path: str, gseed: int, expect_code: int, key: tuple) -> Command:
    return Command(["analyze", "--json", "--seed", str(gseed), path], expect_code, "analyze", key)


def staircase_file(mcx: Multicx, workdir: str) -> str:
    path = os.path.join(workdir, "staircase4.mcx")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mcx.formats.print_multicomplex(mcx.generators.staircase4(),
                                                {"generator": "hand-library", "name": "staircase4"}))
    return path


def so3(mcx: Multicx, scale: Fraction):
    """The rotation-algebra bivector x3 d1^d2 + x1 d2^d3 + x2 d3^d1, scaled."""
    w = mcx.derham.PolyVector(3, {((0, 0, 1), (0, 1)): 1,
                                  ((1, 0, 0), (1, 2)): 1,
                                  ((0, 1, 0), (0, 2)): -1})
    return w.scale(scale), None


def contact(mcx: Multicx, scale: Fraction):
    """The contact Jacobi pair w = d1^d2 - x2 d2^d3, e = -d3, both scaled:
    [cw, cw] = 2 (ce) ^ (cw) and [ce, cw] = 0 still hold."""
    w = mcx.derham.PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
    e = mcx.derham.PolyVector(3, {((0, 0, 0), (2,)): -1})
    return w.scale(scale), e.scale(scale)


def structure_file(mcx: Multicx, workdir: str, stem: str, scale: Fraction) -> str:
    bivector, vector = {"so3": so3, "contact": contact}[stem](mcx, scale)
    path = os.path.join(workdir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mcx.formats.print_structure(3, bivector, vector))
    return path


def geometry_command(structure: str, kind: str, trunc: int, scale: Fraction,
                     outdir: str) -> Command:
    stem = os.path.splitext(os.path.basename(structure))[0]
    return Command(["geometry", "--kind", kind, "--dim", "3", "--trunc", str(trunc),
                    "--structure", structure, "--json"],
                   0, "geometry-" + kind, ("geometry", "%s:%s:%d" % (kind, scale, trunc)),
                   output=os.path.join(outdir, "%s-%s.mcx" % (stem, kind)))


# ---------------------------------------------------------------- workloads

def orbit_analyze(mcx, reference, seed, size, workdir, outdir):
    picks = pick(reference["analyze-a"], ORBIT_PASS[size], seed, size)
    return [analyze_command(generated_file(mcx, workdir, "a", s), s, 0, ("analyze-a", str(s)))
            for s in picks]


def obstructed_analyze(mcx, reference, seed, size, workdir, outdir):
    picks = pick(reference["analyze-b"], OBSTRUCTED_PASS[size], seed, size)
    cmds = [analyze_command(generated_file(mcx, workdir, "b", s), s, 1, ("analyze-b", str(s)))
            for s in picks]
    cmds.append(analyze_command(staircase_file(mcx, workdir), 0, 1, ("analyze-staircase4",)))
    return cmds


def so3_poisson(mcx, reference, seed, size, workdir, outdir):
    scale = Random(seed).choice(SCALES)
    path = structure_file(mcx, workdir, "so3", scale)
    return [geometry_command(path, "poisson", t, scale, outdir) for t in SO3_TRUNCS[size]]


def contact_jacobi(mcx, reference, seed, size, workdir, outdir):
    scale = Random(seed).choice(SCALES)
    path = structure_file(mcx, workdir, "contact", scale)
    return [geometry_command(path, kind, t, scale, outdir)
            for kind in ("jacobi", "basic") for t in CONTACT_TRUNCS[size]]


WORKLOADS = {
    "orbit-analyze": orbit_analyze,
    "obstructed-analyze": obstructed_analyze,
    "so3-poisson": so3_poisson,
    "contact-jacobi": contact_jacobi,
}
