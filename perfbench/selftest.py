"""Tests of the benchmark itself (not part of the library's test suite):

    python3 -m pytest -q perfbench/selftest.py
"""

import copy
import json
import math
import os
import subprocess
import sys
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args):
    child = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                           stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return child.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    text = "\n".join(lines[:-1])
    for name, unit in run.END_TO_END + [("failed_frac", "ratio")]:
        assert "%s " % name in text and " %s " % unit in text
    if trace:
        assert "trace_overhead_frac" in text and "subspace_share" in text
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_workloads_print_one_table():
    table = bench("--size", "tiny", "--seconds", "0.1")[-7:]
    assert table[0].split()[2:] == list(wl.WORKLOADS)
    for name, unit in run.END_TO_END + [("failed_frac", "ratio")]:
        assert any(row.split()[:2] == [name, unit] for row in table[1:])


def test_wrong_reference_gives_failures():
    reference = copy.deepcopy(wl.load_reference())
    for entry in reference["analyze-a"].values():
        entry[1] = "0" * 16
    result = run.run_workload("orbit-analyze", 3, 0.1, 0, "tiny", reference=reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_wrong_exit_code_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    reference = wl.load_reference()
    mcx = wl.Multicx(run.SRC)
    cmd = wl.obstructed_analyze(mcx, reference, 3, "tiny", str(tmp_path), str(tmp_path))[0]
    code, out, _ = wl.run_command(mcx, cmd)
    assert wl.verify(reference, cmd, code, out) == ""
    cmd.expect_code = 0
    assert wl.verify(reference, cmd, code, out).startswith("exit code 1")


def test_traced_self_times_sum_to_root_spans(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    reference = wl.load_reference()
    mcx = wl.Multicx(run.SRC)
    commands = wl.orbit_analyze(mcx, reference, 3, "tiny", str(tmp_path), str(tmp_path))
    original = mcx.modules["exactla"].rank
    tracer = spans.Tracer(mcx.modules)
    tracer.enable()
    try:
        _, failures = run.run_pass(mcx, reference, commands, tracer)
    finally:
        tracer.disable()
    assert failures == []
    assert mcx.modules["exactla"].rank is original
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == len(commands)
    assert summary["calls"]["exactla.rank"] > 0
    assert math.isclose(sum(summary["self_s"].values()), summary["root_s"], rel_tol=1e-9)
    values, bases = spans.layer_metrics(summary, 1, 0.0)
    num, den = bases["exactla.rank.subspace_share"]
    assert 0 < num <= den == summary["calls"]["exactla.rank"]
    assert values["transfer.build_retract.per_analysis"] == 2
    tracer.write(str(tmp_path / "spans.tsv"))
    rows = (tmp_path / "spans.tsv").read_text().splitlines()
    assert len(rows) == 1 + sum(summary["calls"].values())


def test_stratified_draws_one_instance_per_cost_stratum():
    pool = wl.load_reference()["analyze-a"]
    count = wl.ORBIT_PASS["full"]
    first = wl.stratified(pool, count, Random(1))
    assert first == wl.stratified(pool, count, Random(1))
    second = wl.stratified(pool, count, Random(2))
    assert first != second
    for picks in (first, second):
        strata = sorted(pool[str(s)][0] * count // len(pool) for s in picks)
        assert strata == list(range(count))
