"""The names outside readers reach: the benchmark harness under `perfbench/`
and the library example of README.md.  Both files are only read here."""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve():
    spans = load_spans()
    modules = {name: importlib.import_module("multicx." + name)
               for name in set(spans.TARGETS) | {"generators"}}
    # building the tracer looks up every traced name; it patches nothing
    # until it is enabled
    tracer = spans.Tracer(modules)
    assert set(tracer.names) == {"%s.%s" % (layer, fn) for layer, fns in spans.TARGETS.items()
                                 for fn in fns} | {spans.ROOT}
    # what the workloads call by name
    for module, attr in [("cli", "main"), ("formats", "print_structure"),
                         ("formats", "print_multicomplex"), ("generators", "staircase4"),
                         ("derham", "PolyVector")]:
        assert callable(getattr(modules[module], attr)), (module, attr)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
