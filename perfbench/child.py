"""Measured process of one benchmark run.

run.py starts this file in a fresh session, with PYTHONPATH set to the
checkout's ``src`` and a fixed OpenBLAS thread count, and passes the path
of the plan it wrote. The process times set-up several times, then runs
the workload's operations as repetitions until the plan's seconds are
used up, checking each operation's output after its timed call. In a
traced run, every other repetition records spans.

Each finished operation is appended to ``ops.jsonl`` at once, so that a
run killed at its deadline still accounts for what it did; everything
else goes to ``result.json`` at the end.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time

import graphlv  # noqa: F401  (import time belongs to neither set-up nor a repetition)
import spans
import workloads


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _cpu_s() -> float:
    """CPU time of this process and of every child it has waited for, pool workers included."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest resident set of this process or of any waited-for child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _csv_bytes(directory: str | None) -> int:
    if directory is None:
        return 0
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(directory, "*.csv")))


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _repetition(plan, ctx, recorder, index: int, traced: bool, log) -> dict:
    rep_dir = os.path.join(plan["work"], f"rep{index}")
    ctx.shared = {}
    ops = workloads.operations(plan["workload"], ctx, rep_dir)
    patched = spans.install(recorder) if traced else []
    wall = cpu = 0.0
    csv_bytes = 0
    try:
        for op in ops:
            error = None
            recorder.active = traced
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, plan["op_timeout_s"])
            try:
                result = op.run()
            except OpTimeout:
                error = f"timed out after {plan['op_timeout_s']} s"
            except Exception as exc:        # any failure of the program counts, none stops the run
                error = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            used = _cpu_s() - cpu0
            recorder.active = False
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            csv_bytes += _csv_bytes(op.out)
            wall += elapsed
            cpu += used
            log.write(json.dumps({"rep": index, "op": op.name, "ok": error is None,
                                  "error": error, "wall_s": elapsed, "cpu_s": used}) + "\n")
            log.flush()
    finally:
        spans.uninstall(patched)
        shutil.rmtree(rep_dir, ignore_errors=True)
    rep = {"traced": traced, "wall_s": wall, "cpu_s": cpu}
    if traced:
        rep["layers"] = spans.layer_metrics(recorder.collect(), os.getpid())
        rep["layers"]["cli.csv_bytes"] = csv_bytes
    return rep


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    docs = {}
    for name, path in plan["docs"].items():
        with open(path, encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    ctx = workloads.Context(docs=docs, doc_paths=plan["docs"], fault=plan["fault"],
                            cache={}, shared={})
    signal.signal(signal.SIGALRM, _on_alarm)

    # Set-up is sampled before every repetition rather than in one burst,
    # so that its median does not hang on one second of machine noise. The
    # first, unrecorded pass finishes lazy imports.
    setup_docs = workloads.setup_documents(plan["workload"], docs)
    workloads.setup(setup_docs)
    setup_s = []

    def sample_setup():
        for _ in range(plan["setup_repeats"]):
            t0 = time.perf_counter()
            workloads.setup(setup_docs)
            setup_s.append(time.perf_counter() - t0)

    spill_dir = os.path.join(plan["work"], "spans")
    os.makedirs(spill_dir, exist_ok=True)
    recorder = spans.Recorder(spill_dir)
    reps = []
    started = time.perf_counter()
    with open(os.path.join(plan["work"], "ops.jsonl"), "a", encoding="utf-8") as log:
        while True:
            traced = bool(plan["trace"]) and len(reps) % 2 == 1
            sample_setup()
            reps.append(_repetition(plan, ctx, recorder, len(reps), traced, log))
            have_traced = any(r["traced"] for r in reps) or not plan["trace"]
            if time.perf_counter() - started >= plan["seconds"] and have_traced:
                break

    result = {"setup_s": setup_s, "reps": reps, "peak_rss_mib": _peak_rss_mib(),
              "versions": _versions(),
              "trajectory_sha256": ctx.cache.get("trajectory_sha256")}
    with open(os.path.join(plan["work"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
