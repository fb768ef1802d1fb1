"""multicx benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny] [--spans FILE]

One process per workload, one client, closed loop: each command starts when
the previous one has returned.  Commands go through `multicx.cli.main(argv)`
in-process with stdout captured and MULTICX_OUTDIR set to a scratch directory
under the checkout, and every command's exit code and report are checked
against `reference.json`.  The workload repeats its pass (a fixed list of
commands made from the seed) for about `--seconds` seconds.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in its own child process and prints a
table of their metrics.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import spans
import workloads as wl

ROOT = os.path.dirname(wl.HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2      # kept for checking claims; do not tune against it
DEFAULT_SECONDS = 25
SETUPS = 5             # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 900

END_TO_END = [("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def setup(name: str, reference: dict, seed: int, size: str, workdir: str):
    """Import the program afresh and write the workload's input files, SETUPS
    times; returns the last set-up's modules and commands, and the median
    set-up time."""
    times = []
    for i in range(SETUPS):
        inputs = os.path.join(workdir, "inputs-%d" % i)
        os.makedirs(inputs)
        started = perf_counter()
        mcx = wl.Multicx(SRC)
        commands = wl.WORKLOADS[name](mcx, reference, seed, size, inputs,
                                      os.environ["MULTICX_OUTDIR"])
        times.append(perf_counter() - started)
        if i:
            shutil.rmtree(os.path.join(workdir, "inputs-%d" % (i - 1)))
    return mcx, commands, statistics.median(times)


def run_pass(mcx, reference, commands, tracer=None):
    """Run every command once; returns (latencies in s, failure reasons)."""
    latencies, failures = [], []
    for cmd in commands:
        if tracer is not None:
            tracer.command += 1
        if cmd.output and os.path.exists(cmd.output):
            os.remove(cmd.output)   # so a command that writes nothing cannot pass on a stale file
        started = perf_counter()
        code, out, err = wl.run_command(mcx, cmd)
        latencies.append(perf_counter() - started)
        reason = wl.verify(reference, cmd, code, out)
        if reason:
            failures.append("%s: %s%s" % (" ".join(cmd.argv), reason,
                                          " (%s)" % err.strip() if err.strip() else ""))
    return latencies, failures


def measure(mcx, reference, commands, seconds, tracer=None):
    """Repeat the pass while the next one is expected to end within `seconds`
    (at least one pass; with a tracer, at least one untraced and one traced,
    alternating).  Returns {traced: [(latencies, failures), ...]}."""
    passes = {False: [], True: []}
    kinds = (False, True) if tracer is not None else (False,)
    traced = False
    started = perf_counter()
    while True:
        if traced:
            tracer.enable()
        try:
            passes[traced].append(run_pass(mcx, reference, commands, tracer if traced else None))
        finally:
            if traced:
                tracer.disable()
        upcoming = kinds[(kinds.index(traced) + 1) % len(kinds)]
        seen = passes[upcoming] or passes[traced]
        expected = statistics.median(sum(lat) for lat, _ in seen)
        if all(passes[k] for k in kinds) and perf_counter() - started + expected > seconds:
            return passes
        traced = upcoming


def p90(samples):
    """Nearest-rank 90th percentile and how many samples lie beyond it."""
    rank = math.ceil(0.9 * len(samples))
    return sorted(samples)[rank - 1], len(samples) - rank


def end_to_end(passes, setup_s):
    latencies = [t for lat, _ in passes for t in lat]
    walls = [sum(lat) for lat, _ in passes]
    p90_s, beyond = p90(latencies)
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": p90_s * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": "median of %d passes of %d commands" % (len(walls), len(passes[0][0])),
        "op_p50_ms": "n=%d" % len(latencies),
        "op_p90_ms": "n=%d, %d beyond p90%s" % (len(latencies), beyond,
                                                "" if beyond >= 10 else ", fewer than 10"),
        "setup_s": "median of %d set-ups" % SETUPS,
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def print_end_to_end(values, notes, failed, attempted):
    for name, unit in END_TO_END:
        print("  %-12s = %.6g %s  (%s)" % (name, values[name], unit, notes[name]))
    print("  %-12s = %.6g ratio  (%d of %d commands)" % (
        "failed_frac", failed / attempted, failed, attempted))


def print_layers(values, bases, summary, passes):
    print("  per-layer metrics per traced pass (%d traced passes); self time "
          "excludes wrapped callees" % passes)
    print("  %-44s %14s %12s" % ("span", "calls", "self_s"))
    for layer, fns in spans.TARGETS.items():
        print("  %-44s %14.0f %12.6f" % (layer, values[layer + ".calls"], values[layer + ".self_s"]))
        for fn in fns:
            key = "%s.%s" % (layer, fn)
            print("    %-42s %14.0f %12.6f" % (key, values[key + ".calls"], values[key + ".self_s"]))
    print("  work counts, computed from argument shapes (per traced pass):")
    for name in spans.SIZED:
        print("    %-42s cells %.0f  nnz %.0f" % (name, values[name + ".cells"], values[name + ".nnz"]))
    print("  ratios (over all traced passes, with their bases):")
    for name, what in spans.RATIOS.items():
        num, den = bases[name]
        print("    %-42s %.6g  (%d / %d: %s)" % (name, values[name], num, den, what))
    print("  self times sum to %.6f s; root spans (cli.main) cover %.6f s" % (
        sum(summary["self_s"].values()), summary["root_s"]))
    print("  %s = %.6g  (median traced pass over median untraced pass, minus 1)" % (
        spans.OVERHEAD, values[spans.OVERHEAD]))


def run_workload(name, seed, seconds, trace, size, spans_path=None, reference=None):
    """Set up and measure one workload in this process; returns the result
    object that is printed as the last line."""
    reference = reference if reference is not None else wl.load_reference()
    workdir = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    previous_outdir = os.environ.get("MULTICX_OUTDIR")
    os.environ["MULTICX_OUTDIR"] = outdir
    try:
        mcx, commands, setup_s = setup(name, reference, seed, size, workdir)
        tracer = spans.Tracer(mcx.modules) if trace else None
        gc.collect()
        passes = measure(mcx, reference, commands, seconds, tracer)
    finally:
        if previous_outdir is None:
            os.environ.pop("MULTICX_OUTDIR", None)
        else:
            os.environ["MULTICX_OUTDIR"] = previous_outdir
        shutil.rmtree(workdir)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    every = passes[False] + passes[True]
    attempted = sum(len(lat) for lat, _ in every)
    failures = [f for _, fails in every for f in fails]
    print("workload %s, seed %d, size %s: %d commands per pass, closed loop, one client"
          % (name, seed, size, len(commands)))
    for line in failures[:10]:
        print("  FAILED %s" % line, file=sys.stderr)
    values, notes = end_to_end(passes[False], setup_s)
    print_end_to_end(values, notes, len(failures), attempted)
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    if trace:
        summary = tracer.summary()
        untraced = statistics.median(sum(lat) for lat, _ in passes[False])
        traced = statistics.median(sum(lat) for lat, _ in passes[True])
        layer, bases = spans.layer_metrics(summary, len(passes[True]), traced / untraced - 1.0)
        print_layers(layer, bases, summary, len(passes[True]))
        if spans_path:
            tracer.write(spans_path)
        metrics = {n: {"value": layer[n], "unit": u} for n, u in spans.metric_units()}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own child process, then one table of results."""
    results = {}
    for name in wl.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print("workload %s exited %d without a result" % (name, child.returncode),
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results)
    first = results[names[0]]["metrics"]
    rows = [(metric, first[metric]["unit"]) for metric in first]
    print()
    print("%-36s %-6s" % ("metric", "unit") + "".join(" %18s" % n for n in names))
    for metric, unit in rows:
        print("%-36s %-6s" % (metric, unit)
              + "".join(" %18.6g" % results[n]["metrics"][metric]["value"] for n in names))
    print("%-36s %-6s" % ("failed_frac", "ratio")
          + "".join(" %18.6g" % (results[n]["failed"] / results[n]["attempted"]) for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--spans", help="with --trace 1, also write every span to this file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "multicx", "cli.py")):
        print("error: no multicx sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size,
                          args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
