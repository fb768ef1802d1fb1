"""Outside-in tracing: wraps the public functions of each multicx layer with
spans recorded by the benchmark, without touching the program's sources.

A span records its name, start, end, parent span and command id.  Spans are
kept in flat in-memory arrays and summarised (or written out) when the run
ends.  A span's self time is its duration minus the durations of its child
spans; helpers that are not wrapped count towards the nearest wrapped caller.
The root span of each command is `cli.main`, so the self times of all spans
add up to the traced commands' wall time.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

# The layers are the modules; the functions are the entry points whose cost
# later changes are expected to move.  A class name means its construction.
TARGETS = {
    "exactla": ["rank", "kernel_image", "solve", "complement", "induced_subquotient_map",
                "Subspace", "Matrix.mul"],
    "graded": ["compose", "lincomb", "homology"],
    "complexes": ["validate_multicomplex", "compose_infinity", "invert_infinity"],
    "transfer": ["build_retract", "alternative_retract", "transfer_structure", "minimal_model"],
    "spectral": ["total_complex", "page", "degenerates_at_one"],
    "gauge": ["find_gauge", "check_gauge_hodge", "series_mul"],
    "derham": ["FormAlgebra", "poisson_mixed_complex", "jacobi_multicomplex",
               "basic_subcomplex", "structure_order_ladder"],
    "formats": ["parse_multicomplex", "print_multicomplex"],
    "cli": ["cmd_analyze", "cmd_geometry"],
}
ROOT = "cli.main"
SIZED = ["exactla.rank", "exactla.kernel_image", "exactla.solve"]

# Derived ratios and what their numerator and base count.
RATIOS = {
    "exactla.rank.subspace_share": "rank calls made by a Subspace construction / all rank calls",
    "exactla.complement.ranks_per_kept": "rank calls made by complement / vectors it kept",
    "spectral.page.per_analysis": "page calls / analyze commands",
    "transfer.build_retract.per_analysis": "build_retract calls / analyze commands",
    "gauge.check_gauge_hodge.per_gauge": "check_gauge_hodge calls / gauges find_gauge found",
}
OVERHEAD = "trace_overhead_frac"


def metric_units() -> list:
    """Every per-layer metric as (name, unit), in the order they are printed."""
    out = []
    for layer, fns in TARGETS.items():
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
        for fn in fns:
            out += [("%s.%s.calls" % (layer, fn), "count"), ("%s.%s.self_s" % (layer, fn), "s")]
    for name in SIZED:
        out += [(name + ".cells", "count"), (name + ".nnz", "count")]
    out += [(name, "ratio") for name in RATIOS]
    out.append((OVERHEAD, "ratio"))
    return out


class Tracer:
    """Span wrappers for the loaded multicx modules, switched on and off with
    `enable` and `disable`, and the spans they record."""

    def __init__(self, modules: dict):
        """`modules` maps short names to loaded modules ({'exactla': ...})."""
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.command_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.command = 0
        self.counts = {}       # work counted at span boundaries, by name
        self._patches = []     # (owner, attribute, original, wrapper)
        targets = [(layer, fn) for layer, fns in TARGETS.items() for fn in fns]
        targets.append(tuple(ROOT.split(".")))
        for layer, fn in targets:
            name = "%s.%s" % (layer, fn)
            before, after = self._hooks(name, modules)
            owner_name, _, method = fn.partition(".")
            obj = getattr(modules[layer], owner_name)
            if isinstance(obj, type):
                # A class stands for its constructor, `Class.method` for a method.
                method = method or "__init__"
                original = obj.__dict__[method]
                self._patches.append((obj, method, original,
                                      self._wrap(name, original, before, after)))
                continue
            # A function is replaced wherever a multicx module holds it.
            wrapped = self._wrap(name, obj, before, after)
            for mod in modules.values():
                for attr, value in vars(mod).items():
                    if value is obj:
                        self._patches.append((mod, attr, obj, wrapped))

    def enable(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn, before=None, after=None):
        idx = len(self.names)
        self.names.append(name)
        name_id, parent, command_id = self.name_id, self.parent, self.command_id
        start, end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            command_id.append(self.command)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(result)
            return result
        return wrapper

    def _hooks(self, name, modules):
        """Work counters taken at a span's boundary: matrix sizes from the
        arguments, vectors kept by complement, gauges found."""
        if name in SIZED:
            def before(args, key=name):
                m = args[0]
                self._count(key + ".cells", m.rows * m.cols)
                self._count(key + ".nnz", len(m.entries))
            return before, None
        if name == "exactla.complement":
            return None, lambda sub: self._count("exactla.complement.kept", sub.dim)
        if name == "gauge.find_gauge":
            no_gauge = modules["gauge"].NoGauge
            return None, lambda r: self._count("gauge.find_gauge.found",
                                               0 if isinstance(r, no_gauge) else 1)
        return None, None

    def summary(self) -> dict:
        """Totals over every recorded span: calls and self time by span name,
        root time, and the parent-based counts the ratios need."""
        n = len(self.name_id)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        root_s = 0.0
        under = {}   # (name, parent name) -> calls
        for sid in range(n):
            name = self.names[self.name_id[sid]]
            duration = self.end[sid] - self.start[sid]
            calls[name] += 1
            self_s[name] += duration - child[sid]
            p = self.parent[sid]
            if p < 0:
                root_s += duration
            else:
                key = (name, self.names[self.name_id[p]])
                under[key] = under.get(key, 0) + 1
        return {"calls": calls, "self_s": self_s, "root_s": root_s, "under": under,
                "counts": dict(self.counts)}

    def write(self, path: str):
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tcommand\n")
            for sid in range(len(self.name_id)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    sid, self.names[self.name_id[sid]], self.start[sid], self.end[sid],
                    self.parent[sid], self.command_id[sid]))


def layer_metrics(summary: dict, passes: int, overhead: float) -> tuple:
    """Per-layer metrics (counts and self times per traced pass) and the
    derived ratios, each ratio with its numerator and base for printing."""
    calls, self_s, under, counts = (summary["calls"], summary["self_s"],
                                    summary["under"], summary["counts"])
    values = {}
    for layer, fns in TARGETS.items():
        names = ["%s.%s" % (layer, fn) for fn in fns] + ([ROOT] if layer == "cli" else [])
        values[layer + ".calls"] = sum(calls[n] for n in names) / passes
        values[layer + ".self_s"] = sum(self_s[n] for n in names) / passes
        for fn in fns:
            values["%s.%s.calls" % (layer, fn)] = calls["%s.%s" % (layer, fn)] / passes
            values["%s.%s.self_s" % (layer, fn)] = self_s["%s.%s" % (layer, fn)] / passes
    for name in SIZED:
        for kind in ("cells", "nnz"):
            values["%s.%s" % (name, kind)] = counts.get("%s.%s" % (name, kind), 0) / passes
    bases = {
        "exactla.rank.subspace_share": (under.get(("exactla.rank", "exactla.Subspace"), 0),
                                        calls["exactla.rank"]),
        "exactla.complement.ranks_per_kept": (under.get(("exactla.rank", "exactla.complement"), 0),
                                              counts.get("exactla.complement.kept", 0)),
        "spectral.page.per_analysis": (calls["spectral.page"], calls["cli.cmd_analyze"]),
        "transfer.build_retract.per_analysis": (calls["transfer.build_retract"],
                                                calls["cli.cmd_analyze"]),
        "gauge.check_gauge_hodge.per_gauge": (calls["gauge.check_gauge_hodge"],
                                              counts.get("gauge.find_gauge.found", 0)),
    }
    for name, (num, den) in bases.items():
        values[name] = num / den if den else 0.0
    values[OVERHEAD] = overhead
    return values, bases
