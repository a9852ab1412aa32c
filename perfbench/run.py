#!/usr/bin/env python3
"""graphlv benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/NOTES.md):
  ensemble-tiny             `reproduce all` plus a 3x3 (a1, a2) regime sweep on the triangle
  lattice-neumann-simulate  `simulate` on a 40x40 reflecting lattice
  lattice-dirichlet-steady  `eigen`, `steady`, `steady --bounds`, monotone_solve and
                            verify_coupled_pair on a 30x30 absorbing lattice

Load model: a closed loop with one client. The workload's calls run one
after another in a single fresh child process, repeated until S seconds
are used; the only parallelism is the program's own (the sweep's process
pool) and OpenBLAS, pinned to OPENBLAS_THREADS threads.

The seed generates the documents and initial data; graphlv receives only
the generated JSON. Every operation's output is checked, and a failed
check, an exception, a nonzero exit or a timeout counts as a failure.

With --trace 0 the last line reports the end-to-end metrics, as medians
over the run's repetitions. With --trace 1 it reports the per-layer
metrics of spans recorded around calls into each graphlv module, on every
other repetition; the untraced ones give the tracing overhead. Lines
before it give every metric by name and unit, failed_frac, the seed, the
versions and the sample counts. The full record is also written to
.perfbench_work/results/.

Exit status is 0 when a result was printed (check "correct" for the
verdict) and nonzero when the benchmark itself could not run, for
example outside a graphlv checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OPENBLAS_THREADS = 1
OP_TIMEOUT_S = 60.0
DEADLINE_S = 170.0          # hard stop for the child, inside the 180 s contract
SETUP_REPEATS = {"ensemble-tiny": 30, "lattice-neumann-simulate": 1,
                 "lattice-dirichlet-steady": 3}     # set-up samples per repetition

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "config.parse_calls": "count", "config.parse_s": "s",
    "graphs.build_calls": "count", "graphs.build_s": "s",
    "graphs.blocks_calls": "count", "graphs.blocks_s": "s",
    "graphs.matvec_bytes_computed": "B", "graphs.operator_mib_computed": "MiB",
    "dynamics.integrate_calls": "count", "dynamics.integrate_s": "s",
    "dynamics.steps": "count", "dynamics.halvings": "count", "dynamics.clamped": "count",
    "dynamics.accept_ratio": "ratio", "dynamics.steps_per_time": "1/t",
    "dynamics.rhs_evals": "count", "dynamics.step_us": "us",
    "dynamics.operators_calls": "count", "dynamics.operators_s": "s",
    "dynamics.stable_dt_s": "s",
    "spectral.eigen_calls": "count", "spectral.eigen_s": "s",
    "spectral.eigen_residual_max": "1",
    "classify.calls": "count", "classify.s": "s",
    "monotone.logistic_calls": "count", "monotone.logistic_s": "s",
    "monotone.logistic_iters": "count",
    "monotone.bounds_s": "s", "monotone.march_time": "t",
    "monotone.solve_s": "s", "monotone.solve_iters": "count",
    "monotone.solve_s_per_iter": "s", "monotone.n_fine": "count",
    "monotone.verify_pair_s": "s",
    "fixtures.reproduce_s": "s", "fixtures.t_reached_sum": "t",
    "cli.self_s": "s", "cli.csv_bytes": "B",
    "trace.overhead_s": "s", "trace.worker_spans": "count",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input size; 'smoke' is the reduced size of the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="give one check a wrong expected value (smoke test only)")
    return parser.parse_args(argv)


def _source_digest() -> str:
    """SHA-256 over the package sources, standing in for the commit in a plain checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphlv").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _stop_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's session and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):        # orphaned pool workers are reaped by init
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_child(plan_path: Path, work: Path, deadline: float) -> tuple[int | None, bool]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(OPENBLAS_THREADS)
    with open(work / "child.out", "wb") as out, open(work / "child.err", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan_path)],
                                cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        killed = False
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            killed = True
            code = None
        finally:
            _stop_session(proc)
    return code, killed


def _cpu_ticks() -> list[int] | None:
    """The host-wide 'cpu' line of /proc/stat, to report the steal share of a run."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | None:
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse_args(argv)
    if not (ROOT / "src" / "graphlv" / "__init__.py").is_file():
        print(f"error: no graphlv sources under {ROOT / 'src'}; run from a graphlv checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{tag}-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    doc_paths = {}
    for name, doc in workloads.generate(args.workload, args.seed, args.scale).items():
        doc_paths[name] = str(work / "inputs" / f"{name}.json")
        with open(doc_paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    plan = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fault": args.inject_fault, "docs": doc_paths,
            "work": str(work), "op_timeout_s": OP_TIMEOUT_S,
            "setup_repeats": SETUP_REPEATS[args.workload]}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    ticks = _cpu_ticks()
    code, killed = _run_child(plan_path, work, started + DEADLINE_S)
    steal = _steal_share(ticks, _cpu_ticks())
    ops = []
    if (work / "ops.jsonl").is_file():
        ops = [json.loads(line) for line in (work / "ops.jsonl").read_text().splitlines()]
    result_path = work / "result.json"
    if code != 0 and not killed:
        sys.stderr.write((work / "child.err").read_text(errors="replace")[-4000:])
        print(f"error: measured process exited {code}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 1
    if killed or not result_path.is_file():
        # The run hung past the deadline: the operation in flight counts as failed.
        ops.append({"rep": None, "op": "in flight at deadline", "ok": False,
                    "error": f"killed after {DEADLINE_S:g} s", "wall_s": 0.0, "cpu_s": 0.0})
        # No finished repetition: report the time spent, which fails any bound,
        # and the peak of the reaped process tree.
        spent = time.monotonic() - started
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result = {"setup_s": [spent], "reps": [{"traced": False, "wall_s": spent,
                                               "cpu_s": spent}],
                  "peak_rss_mib": peak, "versions": {}}
    else:
        result = json.loads(result_path.read_text())

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    plain = [r for r in result["reps"] if not r["traced"]]
    traced = [r for r in result["reps"] if r["traced"]]
    if args.trace and not traced:
        metrics = {k: 0.0 for k in PER_LAYER}     # killed before a traced repetition
        units = PER_LAYER
        counts_repeat = None
    elif args.trace:
        # times are medians over the traced repetitions; counts repeat exactly
        timed = {k for k, unit in PER_LAYER.items() if unit in ("s", "us")}
        metrics = {k: statistics.median([r["layers"][k] for r in traced]) if k in timed
                   else traced[0]["layers"][k] for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in traced])
                                       - statistics.median([r["wall_s"] for r in plain]))
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = PER_LAYER
        counts_repeat = all(r["layers"][k] == traced[0]["layers"][k]
                            for r in traced for k in r["layers"] if k not in timed)
    else:
        metrics = {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "setup_s": statistics.median(result["setup_s"]),
            "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        units = END_TO_END
        counts_repeat = None

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "inject_fault": args.inject_fault,
        "commit": _commit(), "source_sha256": _source_digest(),
        "openblas_threads": OPENBLAS_THREADS, **result["versions"],
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "setup_samples": len(result["setup_s"]), "operations": attempted,
        "steal_share": steal,
        "op_wall_s": {name: statistics.median([op["wall_s"] for op in ops if op["op"] == name])
                      for name in dict.fromkeys(op["op"] for op in ops)},
        "wall_s_samples": [r["wall_s"] for r in plain],
        "traced_wall_s_samples": [r["wall_s"] for r in traced],
        "trace_counts_repeat": counts_repeat,
        "trajectory_sha256": result.get("trajectory_sha256"),
        "failures": [op for op in ops if not op["ok"]][:10],
    }
    record = {"meta": meta, "metrics": {k: {"value": v, "unit": units[k]}
                                         for k, v in metrics.items()}}
    (work_root / "results").mkdir(exist_ok=True)
    (work_root / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
