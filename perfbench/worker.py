"""One workload in a fresh interpreter: import, warm up, then a closed loop.

Started by ``run.py``; not meant to be run by hand.  The first line written
to stdout marks the end of set-up (``import netinduct`` plus one warm-up
job).  In ``--mode run`` a single caller then starts each job only after the
previous one has returned, and the last stdout line is a JSON summary of
every job for ``run.py`` to turn into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HASHED_JOBS = 32


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import netinduct  # noqa: F401  -- the import whose cost set-up measures
    import_s = perf_counter() - t0
    import harness

    workload = harness.WORKLOADS[args.workload](args.seed)
    harness.run_job(workload, 0, warmup=True, check=False)
    _emit({"ready": True, "import_ms": 1e3 * import_s})
    if args.mode == "setup":
        return 0

    import generate as gen
    if args.trace:
        records, trace = harness.traced_run(workload, args.seconds, Path(".bench_out"))
    else:
        records = harness.closed_loop(lambda i: harness.run_job(workload, i),
                                      harness.planned_jobs(workload, args.seconds),
                                      workload.PERIOD)
        trace = None
    _emit({
        "jobs": [{k: r[k] for k in ("index", "s", "outcome", "why")} for r in records],
        "period": workload.PERIOD,
        "trace": trace,
        "inputs_sha256": gen.inputs_digest(
            [workload.payload(i) for i in range(HASHED_JOBS)]
            + [workload.payload(i, warmup=True) for i in (0, 1)]),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": harness.environment(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
