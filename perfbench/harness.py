"""Job timing, the closed loop and the traced run, shared by the worker and the tests."""

from __future__ import annotations

import math
import os
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, direct_call

MIN_JOBS = 100  # p90 needs ten samples beyond it
MIN_PERIODS = 3  # jobs_per_s is a median over periods
HARD_CAP_S = 120.0  # cut a run that slows down this far so the process ends in time


class DeadlineExceeded(Exception):
    """A job ran past its workload's latency limit."""


@contextmanager
def deadline(seconds: float):
    """Raise ``DeadlineExceeded`` in this thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise DeadlineExceeded(f"job ran past its {seconds:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_job(workload, index: int, tracer=None, warmup: bool = False,
            check: bool = True) -> dict:
    """Time one job; check its output outside the timed region.

    The outcome is ``ok``, ``deadline`` (the job ran past the workload's
    latency limit), ``raised`` (the package raised), ``guarantee`` (a
    required property failed) or ``reference`` (a number disagreed with its
    reference).  With a tracer the job and each package call are spans.
    """
    payload = workload.payload(index, warmup)
    job = workload.prepare(payload)
    t0 = perf_counter()
    try:
        with deadline(workload.DEADLINE_S):
            if tracer is None:
                out = workload.run(job, direct_call)
            else:
                with tracer.job(f"job.{workload.name}"):
                    out = workload.run(job, tracer.call)
    except DeadlineExceeded as exc:
        return {"index": index, "s": perf_counter() - t0, "outcome": "deadline",
                "why": str(exc)}
    except Exception as exc:  # a failed job is a result, not a benchmark error
        return {"index": index, "s": perf_counter() - t0, "outcome": "raised",
                "why": f"{type(exc).__name__}: {exc}"}
    dt = perf_counter() - t0
    rec = {"index": index, "s": dt, "outcome": "ok", "why": "",
           "counters": workload.counters(out)}
    if check:
        try:
            problems = workload.check(payload, out)
        except Exception as exc:  # a check that cannot read the output fails the job
            problems = [("reference", f"check raised {type(exc).__name__}: {exc}")]
        kinds = {kind for kind, _ in problems}
        if kinds:
            rec["outcome"] = "reference" if "reference" in kinds else "guarantee"
            rec["why"] = "; ".join(msg for _, msg in problems[:3])
    return rec


def planned_jobs(workload, seconds: float, min_jobs: int = MIN_JOBS,
                 min_periods: int = MIN_PERIODS) -> int:
    """How many jobs a run of ``seconds`` holds: whole periods at the nominal rate.

    The count depends only on the workload and ``seconds``, never on how fast
    the machine happens to be, so the same seed gives the same jobs and the
    same failures in every run.
    """
    jobs = max(min_jobs, math.ceil(seconds * workload.NOMINAL_JOBS_PER_S))
    return workload.PERIOD * max(min_periods, math.ceil(jobs / workload.PERIOD))


def closed_loop(run_one, jobs: int, period: int) -> list[dict]:
    """``run_one(0)``, ``run_one(1)``, ... back to back, ``jobs`` of them.

    Only a run that is still going after ``HARD_CAP_S`` stops early, at the
    next period boundary, so the process ends in time on a machine far
    slower than the one the nominal rates were measured on.
    """
    records = []
    start = perf_counter()
    while len(records) < jobs:
        for _ in range(period):
            records.append(run_one(len(records)))
        if perf_counter() - start >= HARD_CAP_S:
            break
    return records


def _counters(records) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        for key, value in r.get("counters", {}).items():
            out.setdefault(key, []).append(value)
    return out


def _thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": _thread_count(),
        "nproc": os.cpu_count(),
    }


def coverage_jobs(tracer, seed: int, skip: str | None = None) -> list[dict]:
    """Trace two warm-up jobs of every workload but ``skip``.

    A span the workload never calls is timed on them, so every per-layer
    metric is measured in every traced run.
    """
    return [run_job(other(seed), index, tracer, warmup=True, check=False)
            for other in WORKLOADS.values() if other.name != skip for index in (0, 1)]


def traced_run(workload, seconds: float, out_dir: Path) -> tuple[list[dict], dict]:
    """Per-layer metrics from a traced loop, with the tracing overhead.

    Each job runs traced and untraced back to back, in alternating order, so
    the overhead is measured on the same inputs at the same machine speed.
    Each job runs twice, so the loop holds half the jobs of an untraced run.
    """
    tracer = Tracer()

    def paired(index: int) -> dict:
        if index % 2:
            plain = run_job(workload, index, check=False)["s"]
            rec = run_job(workload, index, tracer)
        else:
            rec = run_job(workload, index, tracer)
            plain = run_job(workload, index, check=False)["s"]
        return {**rec, "plain_s": plain}

    jobs = planned_jobs(workload, seconds / 2.0, min_jobs=1, min_periods=1)
    records = closed_loop(paired, jobs, workload.PERIOD)
    own_jobs = {s["job"] for s in tracer.spans}

    first = len(tracer.spans)
    cov_records = coverage_jobs(tracer, workload.seed, skip=workload.name)
    layers = tracer.summarize({s["job"] for s in tracer.spans[first:]})
    layers.update(tracer.summarize(own_jobs))

    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}-{workload.seed}.json")
    return records, {"spans": layers,
                     "counters": _counters(records) or _counters(cov_records),
                     "traced_s": sum(r["s"] for r in records),
                     "untraced_s": sum(r["plain_s"] for r in records),
                     "jobs": len(records)}
