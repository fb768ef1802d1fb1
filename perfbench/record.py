"""Record reference.json: the expected report of every input a workload can use.

    python3 perfbench/record.py

The references are taken from the program as it is when this script runs.
Run it only to add inputs to the pools; a reference re-recorded from a changed
program would hide the change.  Besides the digests it stores each pool
instance's cost rank (by its least time over two runs), which the analyze
workloads stratify on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import workloads as wl

ROOT = os.path.dirname(wl.HERE)
ANALYZE_REPEAT = 2   # the pools' cost ranks use each command's least time


def record(mcx, cmds, label, repeat=1):
    """Run `cmds` `repeat` times, returning [(cmd, content, least seconds)];
    any failure or any difference between repeats is fatal."""
    found, best = [None] * len(cmds), [float("inf")] * len(cmds)
    for _ in range(repeat):
        for i, cmd in enumerate(cmds):
            started = time.perf_counter()
            code, stdout, err = wl.run_command(mcx, cmd)
            best[i] = min(best[i], time.perf_counter() - started)
            if code != cmd.expect_code:
                raise SystemExit("%s: %s exited %r, expected %d: %s"
                                 % (label, " ".join(cmd.argv), code, cmd.expect_code, err))
            fields = wl.content(cmd, stdout)
            if found[i] not in (None, fields):
                raise SystemExit("%s: %s is not deterministic" % (label, " ".join(cmd.argv)))
            found[i] = fields
        print("%s: %d commands" % (label, len(cmds)), file=sys.stderr, flush=True)
    return list(zip(cmds, found, best))


def dump(reference: dict, fh):
    """JSON with one entry per line, analyze pools in seed order."""
    parts = []
    for key in sorted(reference):
        value = reference[key]
        if isinstance(value, dict):
            inner = ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(value[k]))
                               for k in sorted(value, key=lambda k: (len(k), k)))
            parts.append("%s: {\n%s\n}" % (json.dumps(key), inner))
        else:
            parts.append("%s: %s" % (json.dumps(key), json.dumps(value)))
    fh.write("{\n" + ",\n".join(parts) + "\n}\n")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    workdir = os.path.join(ROOT, ".perfbench_work", "record-%d" % os.getpid())
    os.makedirs(workdir)
    os.environ["MULTICX_OUTDIR"] = workdir
    try:
        mcx = wl.Multicx(os.path.join(ROOT, "src"))
        runs = []
        for profile, code in (("a", 0), ("b", 1)):
            cmds = [wl.analyze_command(wl.generated_file(mcx, workdir, profile, s), s, code,
                                       ("analyze-" + profile, str(s)))
                    for s in range(wl.POOL)]
            runs += record(mcx, cmds, "profile " + profile, repeat=ANALYZE_REPEAT)
        runs += record(mcx, [wl.analyze_command(wl.staircase_file(mcx, workdir), 0, 1,
                                                ("analyze-staircase4",))], "staircase4")
        for scale in wl.SCALES:
            for stem, kinds in (("so3", ["poisson"]), ("contact", ["jacobi", "basic"])):
                path = wl.structure_file(mcx, workdir, stem, scale)
                cmds = [wl.geometry_command(path, kind, t, scale, workdir)
                        for kind in kinds for t in wl.GEOMETRY_TRUNCS[kind]]
                runs += record(mcx, cmds, "%s scale %s" % (stem, scale))
    finally:
        shutil.rmtree(workdir)

    fields = {}
    for cmd, found, _ in runs:
        fields.setdefault(cmd.kind, set()).update(found)
    fields = {kind: sorted(names) for kind, names in fields.items()}
    reference = {"fields": fields, "analyze-a": {}, "analyze-b": {}, "geometry": {}}
    for cmd, found, _ in runs:
        entry = reference
        for part in cmd.key[:-1]:
            entry = entry[part]
        entry[cmd.key[-1]] = wl.digest(found, fields[cmd.kind])
    for profile in ("a", "b"):
        pool = [(elapsed, cmd.key[1]) for cmd, _, elapsed in runs
                if cmd.key[0] == "analyze-" + profile]
        for rank, (_, key) in enumerate(sorted(pool)):
            reference["analyze-" + profile][key] = [rank, reference["analyze-" + profile][key]]
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        dump(reference, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
