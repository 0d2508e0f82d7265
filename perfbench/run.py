"""netinduct benchmark: one workload per call, metrics on the last stdout line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze_distinct --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout.  Each call starts a
few fresh interpreters that only import the package and run one warm-up job
(set-up time), then one more that also runs the workload as a closed loop:
one caller, the next job starts when the previous one has returned, BLAS
held to one thread.  Every job's output is checked against numpy/scipy
references outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times every
package call as a span and prints the per-layer metrics instead, with the
tracing overhead.  Human-readable lines (inputs hash, environment, every
metric with its unit and sample count) come first; the last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5  # the last one goes on to run the workload
COLD_CLI_RUNS = 3
DEADLINE_S = 170.0
CLI_FIXTURE = "fixtures/ieee13_50hz.json"

LAYERS = ("network", "spectra", "measures", "kron", "simulate", "allocate", "cli")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Starts worker interpreters and kills any still running at the deadline."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.env = worker_env()

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("deadline passed")
        return left

    def launch(self, mode: str):
        """Start a worker; returns (process, set-up seconds, ready record, watchdog)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(self.args.trace)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(self._remaining(), proc.kill)
        watchdog.start()
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if not line:
            self.finish(proc, watchdog)
            raise BenchError(f"worker ({mode}) ended before set-up finished")
        try:
            ready = json.loads(line)
        except ValueError:
            proc.kill()
            self.finish(proc, watchdog)
            raise
        return proc, setup_s, ready, watchdog

    def finish(self, proc, watchdog) -> str:
        try:
            rest = proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")
        return rest

    def cold_cli(self) -> tuple[list[float], int]:
        """Wall times of ``python -m netinduct.cli analyze`` on the 13-node feeder."""
        times, errors = [], 0
        for _ in range(COLD_CLI_RUNS):
            t0 = perf_counter()
            res = subprocess.run([sys.executable, "-m", "netinduct.cli", "analyze", CLI_FIXTURE],
                                 cwd=ROOT, env=self.env, capture_output=True, text=True,
                                 timeout=self._remaining())
            times.append(perf_counter() - t0)
            try:
                ok = res.returncode == 0 and json.loads(res.stdout)["psi_nir"] > 0.0
            except (ValueError, KeyError, TypeError):
                ok = False
            errors += not ok
        return times, errors


def quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) by linear interpolation between order statistics."""
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def per_period_throughput(jobs: list[dict], period: int) -> list[float]:
    """For each whole period: jobs per second of job time.

    The time of a job cut at the workload's latency limit, a safety net that
    only a hung job reaches, is left out with the job: it measures the
    limit, not the package.
    """
    out = []
    for i in range(0, len(jobs), period):
        done = [j for j in jobs[i:i + period] if j["outcome"] != "deadline"]
        out.append(len(done) / sum(j["s"] for j in done) if done else 0.0)
    return out


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    jobs = result["jobs"]
    times = [j["s"] for j in jobs]
    ok = sum(j["outcome"] == "ok" for j in jobs)
    p50, p90 = quantiles(times)
    throughput = per_period_throughput(jobs, result["period"])
    metrics = {
        # The median over periods keeps one slow but correct job from moving
        # the figure; the run's share of correct jobs scales it, because how
        # many of a period's jobs fail differs from period to period.
        "jobs_per_s": (ok / len(jobs) * statistics.median(throughput), "1/s"),
        "job_p50_ms": (1e3 * p50, "ms"),
        "job_p90_ms": (1e3 * p90, "ms"),
        "ok_ratio": (ok / len(jobs), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    samples = {"jobs_per_s": len(throughput), "job_p50_ms": len(jobs), "job_p90_ms": len(jobs),
               "ok_ratio": len(jobs), "setup_s": len(setup), "peak_rss_mb": 1}
    return metrics, samples


def per_layer(result: dict, imports_ms: list[float], cli_s: list[float],
              cli_errors: int) -> tuple[dict, dict]:
    trace = result["trace"]
    spans = trace["spans"]
    metrics, samples = {}, {}
    for name in sorted(spans):
        metrics[f"{name}.calls"] = (spans[name]["calls"], "count")
        metrics[f"{name}.self_ms"] = (spans[name]["self_ms"], "ms")
        samples[f"{name}.calls"] = samples[f"{name}.self_ms"] = spans[name]["calls"]
    for layer in LAYERS:
        errors = sum(s["errors"] for name, s in spans.items() if name.startswith(layer + "."))
        metrics[f"{layer}.errors"] = (errors + (cli_errors if layer == "cli" else 0), "count")
        samples[f"{layer}.errors"] = trace["jobs"]
    for key in ("allocate.passes", "allocate.starts"):
        values = trace["counters"][key]
        metrics[key] = (statistics.median(values), "count")
        samples[key] = len(values)
    metrics["cli.import_ms"] = (statistics.median(imports_ms), "ms")
    samples["cli.import_ms"] = len(imports_ms)
    metrics["cli.cold_analyze_ms"] = (1e3 * statistics.median(cli_s), "ms")
    samples["cli.cold_analyze_ms"] = len(cli_s)
    metrics["trace.overhead_ms"] = (
        1e3 * (trace["traced_s"] - trace["untraced_s"]) / trace["jobs"], "ms")
    samples["trace.overhead_ms"] = trace["jobs"]
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "netinduct").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'netinduct'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload: choose from {', '.join(WORKLOADS)}")

    launcher = Launcher(args, perf_counter() + DEADLINE_S)
    try:
        setup, imports_ms = [], []
        for _ in range(SETUP_LAUNCHES - 1):
            proc, setup_s, ready, watchdog = launcher.launch("setup")
            launcher.finish(proc, watchdog)
            setup.append(setup_s)
            imports_ms.append(ready["import_ms"])
        proc, setup_s, ready, watchdog = launcher.launch("run")
        setup.append(setup_s)
        imports_ms.append(ready["import_ms"])
        result = json.loads(launcher.finish(proc, watchdog).strip().splitlines()[-1])
        if args.trace:
            cli_s, cli_errors = launcher.cold_cli()
            metrics, samples = per_layer(result, imports_ms, cli_s, cli_errors)
        else:
            metrics, samples = end_to_end(result, setup)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError,
            statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = result["jobs"]
    outcomes = {k: sum(j["outcome"] == k for j in jobs)
                for k in ("ok", "deadline", "raised", "guarantee", "reference")}
    failed = len(jobs) - outcomes["ok"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"inputs sha256 {result['inputs_sha256']}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print("jobs " + " ".join(f"{k}={v}" for k, v in outcomes.items())
          + f"  fail_ratio={failed / len(jobs)!r}")
    for j in jobs:
        if j["outcome"] != "ok":
            print(f"  failed job {j['index']} ({j['outcome']}): {j['why'][:200]}")
    if args.trace:
        trace = result["trace"]
        print(f"tracing overhead: traced {trace['traced_s']!r} s - untraced "
              f"{trace['untraced_s']!r} s over the same {trace['jobs']} jobs")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit} (n={samples[name]})")
    print(json.dumps({
        "correct": outcomes["reference"] == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
