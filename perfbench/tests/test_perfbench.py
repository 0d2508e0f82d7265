"""Tests of the benchmark itself: inputs, references, failure accounting, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import generate as gen
import harness
import run
import workloads as wl
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))


def _payloads(cls, seed, count=6):
    w = cls(seed)
    return [gen.dumps(w.payload(i)) for i in range(count)] + [
        gen.dumps(w.payload(i, warmup=True)) for i in (0, 1)]


@pytest.mark.parametrize("cls", list(wl.WORKLOADS.values()))
def test_same_seed_gives_identical_documents(cls):
    assert _payloads(cls, 5) == _payloads(cls, 5)
    assert _payloads(cls, 5) != _payloads(cls, 6)


def test_documents_do_not_depend_on_the_process():
    code = ("import generate, workloads; w = workloads.DesignKron(5); "
            "print(generate.inputs_digest([w.payload(i) for i in range(6)]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    w = wl.DesignKron(5)
    assert out == gen.inputs_digest([w.payload(i) for i in range(6)])


def test_timed_and_warmup_inputs_differ():
    w = wl.AnalyzeDistinct(3)
    timed = {gen.dumps(w.payload(i)) for i in range(4)}
    assert not timed & {gen.dumps(w.payload(i, warmup=True)) for i in range(4)}


# ---------------------------------------------------------------------------
# References agree with the package on the bundled fixtures

def _ids(text):
    return sorted(nd["id"] for nd in json.loads(text)["nodes"])


@pytest.mark.filterwarnings("ignore:all nodes are sources")
@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_analyze_reference_agrees(path):
    text = path.read_text()
    ids = _ids(text)
    payload = {"doc": text, "sources": ids[: max(2, (len(ids) + 1) // 2)]}
    w = wl.AnalyzeDistinct(0)
    assert w.check(payload, w.run(payload, wl.direct_call)) == []


@pytest.mark.parametrize("name", ["path4", "ieee13_50hz", "ieee13_60hz", "complete4"])
@pytest.mark.parametrize("l_out", [5e-4, 2e-2])
def test_phasor_reference_agrees(name, l_out):
    text = (ROOT / "fixtures" / f"{name}.json").read_text()
    w = wl.FeederSweep(0)
    net = w.prepare({"warmup": True, "feeder": name, "doc": text, "l_out": l_out})[0]
    out = w.run((net, l_out), wl.direct_call)
    assert w.check({"doc": text, "l_out": l_out}, out) == []


@pytest.mark.parametrize("name", ["complete4", "star", "path4", "ieee13_50hz"])
def test_transient_reference_agrees(name):
    text = (ROOT / "fixtures" / f"{name}.json").read_text()
    n = len(_ids(text))
    rng = np.random.default_rng(0)
    ics = [list(v - v.mean()) for v in rng.standard_normal((3, n))]
    payload = {"doc": text, "ics": ics}
    w = wl.TransientEnvelope(0)
    assert w.check(payload, w.run(payload, wl.direct_call)) == []


@pytest.mark.parametrize("op", ["optimize", "design"])
def test_design_reference_agrees(op):
    text = (ROOT / "fixtures" / "ieee13_50hz.json").read_text()
    doc = json.loads(text)
    theta_line = math.atan(doc["frequency_rad_s"] * doc["line"]["l_per_len"]
                           / doc["line"]["r_per_len"])
    payload = {"doc": text, "sources": [1, 3, 7], "budget": 5e-3, "op": op,
               "target_theta": theta_line + 0.3 * (math.pi / 2 - theta_line)}
    w = wl.DesignKron(0)
    assert w.check(payload, w.run(payload, wl.direct_call)) == []


def test_generated_jobs_pass_their_checks():
    for cls in (wl.AnalyzeDistinct, wl.FeederSweep, wl.TransientEnvelope):
        w = cls(9)
        for i in range(3):
            assert harness.run_job(w, i)["outcome"] == "ok", (cls.name, i)


# ---------------------------------------------------------------------------
# Failures are counted, not filtered

class _WrongPsi(wl.AnalyzeDistinct):
    def run(self, job, call):
        out = super().run(job, call)
        out["report"] = dataclasses.replace(out["report"],
                                            psi_nir=out["report"].psi_nir * (1 + 1e-4))
        return out


class _Raises(wl.AnalyzeDistinct):
    def run(self, job, call):
        raise ValueError("injected")


class _Slow(wl.AnalyzeDistinct):
    DEADLINE_S = 0.05

    def run(self, job, call):
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass


def test_injected_wrong_output_fails_the_job():
    rec = harness.run_job(_WrongPsi(1), 0)
    assert rec["outcome"] == "reference"
    assert "psi_nir" in rec["why"]


def test_raising_and_overdue_jobs_fail():
    assert harness.run_job(_Raises(1), 0)["outcome"] == "raised"
    rec = harness.run_job(_Slow(1), 0)
    assert rec["outcome"] == "deadline"
    assert rec["s"] < 1.0


@pytest.mark.parametrize("cls", list(wl.WORKLOADS.values()))
def test_run_length_is_whole_periods_fixed_by_seconds(cls):
    w = cls(1)
    jobs = harness.planned_jobs(w, 15.0)
    assert jobs % cls.PERIOD == 0
    assert jobs >= max(harness.MIN_JOBS, harness.MIN_PERIODS * cls.PERIOD)
    assert jobs >= 15.0 * cls.NOMINAL_JOBS_PER_S
    assert harness.planned_jobs(w, 40.0) >= jobs


def test_closed_loop_runs_exactly_the_planned_jobs():
    records = harness.closed_loop(lambda i: {"index": i}, 14, 7)
    assert [r["index"] for r in records] == list(range(14))


@pytest.mark.parametrize("cls", list(wl.WORKLOADS.values()))
def test_every_period_has_the_same_mix(cls):
    def mix(w, start):
        jobs = [w.payload(i) for i in range(start, start + cls.PERIOD)]
        sizes = sorted((len(json.loads(p["doc"])["nodes"]), p.get("op", "")) for p in jobs)
        sources = sorted(len(p["sources"]) for p in jobs if "op" in p)
        return sizes, sources
    w = cls(4)
    assert mix(w, 0) == mix(w, cls.PERIOD) == mix(cls(5), 0)


def test_failed_jobs_lower_the_end_to_end_metrics():
    jobs = [{"s": 0.1, "outcome": "ok"}] * 8 + [{"s": 3.5, "outcome": "deadline"},
                                                 {"s": 0.1, "outcome": "raised"}]
    metrics, samples = run.end_to_end({"jobs": jobs, "period": 10, "peak_rss_kb": 1024},
                                      [0.5, 0.7, 0.6])
    assert metrics["ok_ratio"][0] == pytest.approx(0.8)
    # the raised job's time counts; the time of the job cut at the limit does not
    assert metrics["jobs_per_s"][0] == pytest.approx(0.8 * 9 / 0.9)
    assert metrics["job_p90_ms"][0] > 100.0
    assert metrics["setup_s"][0] == 0.6
    assert samples["job_p90_ms"] == 10


def test_throughput_does_not_depend_on_where_failures_fall():
    ok, raised = {"s": 0.1, "outcome": "ok"}, {"s": 0.1, "outcome": "raised"}
    spread_out = [ok, raised] * 4
    bunched = [ok] * 4 + [raised] * 4
    a, _ = run.end_to_end({"jobs": spread_out, "period": 2, "peak_rss_kb": 1024}, [1.0])
    b, _ = run.end_to_end({"jobs": bunched, "period": 2, "peak_rss_kb": 1024}, [1.0])
    assert a["jobs_per_s"][0] == pytest.approx(b["jobs_per_s"][0]) == pytest.approx(5.0)


def test_throughput_is_a_median_over_periods():
    period = [{"s": 0.1, "outcome": "ok"}] * 4
    slow = [{"s": 0.1, "outcome": "ok"}] * 3 + [{"s": 5.0, "outcome": "ok"}]
    metrics, samples = run.end_to_end(
        {"jobs": period + slow + period, "period": 4, "peak_rss_kb": 1024}, [1.0])
    assert metrics["jobs_per_s"][0] == pytest.approx(10.0)
    assert samples["jobs_per_s"] == 3


# ---------------------------------------------------------------------------
# Tracing and the metric names the benchmark declares

def test_self_time_excludes_children():
    tracer = Tracer()

    def outer():
        tracer.call(time.sleep, 0.02)

    with tracer.job("job"):
        tracer.call(time.sleep, 0.02)
        tracer.call(outer)
    summary = tracer.summarize()
    assert summary["time.sleep"]["calls"] == 2
    assert summary["time.sleep"]["self_ms"] >= 30.0
    assert summary["test_perfbench.outer"]["self_ms"] < 10.0
    assert all(s["job"] == 0 for s in tracer.spans)


def test_declared_metrics_match_the_output():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    metrics, _ = run.end_to_end({"jobs": [{"s": 0.1, "outcome": "ok"}] * 10,
                                 "period": 5, "peak_rss_kb": 1024}, [1.0])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    tracer = Tracer()
    harness.coverage_jobs(tracer, 0)
    trace = {"spans": tracer.summarize(), "jobs": 1, "traced_s": 1.0, "untraced_s": 1.0,
             "counters": {"allocate.passes": [1], "allocate.starts": [1]}}
    metrics, _ = run.per_layer({"trace": trace}, [1.0], [1.0], 0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
