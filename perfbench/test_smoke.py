"""Reduced-size smoke test of the benchmark.

Run from the root of a checkout (about a minute):

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that a wrong expected value is counted as a failed operation, that
an operation which hangs is cut off and counted, and that the benchmark
refuses to run without the graphlv sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def _result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _failed_frac(text: str) -> float:
    line = next(l for l in text.splitlines() if l.startswith("failed_frac"))
    return float(line.split()[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    out = _run(workload, trace)
    result = _result(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in out.stdout.splitlines()), name
    assert _failed_frac(out.stdout) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_counts_in_failed_frac(workload):
    out = _run(workload, 0, "--inject-fault")
    result = _result(out)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert _failed_frac(out.stdout) == pytest.approx(result["failed"] / result["attempted"])


def test_hanging_operation_times_out_and_counts(monkeypatch):
    """The known hang: stable_dt is 0 for initial data near the float limit."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import child
    import spans
    import workloads
    from graphlv.dynamics import CompetitionParams, Problem, integrate
    from graphlv.fixtures import triangle_example

    problem = Problem(triangle_example(), CompetitionParams(1, 1, 1, 1, 1, 1))
    hang = workloads.Op("huge-initial-data",
                        lambda: integrate(problem, (1e308, 1.0), 1.0), lambda _: None)
    monkeypatch.setattr(workloads, "operations", lambda *args: [hang])
    work = ROOT / ".perfbench_work" / f"smoke-hang-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = {"workload": "ensemble-tiny", "work": str(work), "op_timeout_s": 0.5}
        ctx = workloads.Context(docs={}, doc_paths={}, fault=False, cache={}, shared={})
        child.signal.signal(child.signal.SIGALRM, child._on_alarm)
        with open(work / "ops.jsonl", "w", encoding="utf-8") as log:
            child._repetition(plan, ctx, spans.Recorder(str(work)), 0, False, log)
        (record,) = [json.loads(line) for line in (work / "ops.jsonl").read_text().splitlines()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert not record["ok"]
    assert record["wall_s"] < 30.0


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / f"smoke-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
