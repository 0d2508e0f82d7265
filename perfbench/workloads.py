"""The four benchmark workloads.

Each workload turns ``(seed, index)`` into a JSON-serializable payload,
runs one job on it through the package's public functions, and checks the
job's output against ``reference``.  Every package call goes through
``call(fn, *args)`` so that a traced run can time it as a span named
``<module>.<function>`` after ``fn``; an untraced run passes a hook that
only calls ``fn``.  Every ``PERIOD`` jobs hold the same mix of sizes,
families and output kinds, and a run covers a fixed number of whole
periods: ``NOMINAL_JOBS_PER_S`` (the workload's rate on a 2-vCPU x86 VM
with Python 3.11, numpy 2.4 and the cyclic-Jacobi eigensolver) times
``--seconds``, rounded up to whole periods.

``reference`` is imported inside the checks, never at module level: it loads
``scipy.linalg``, and set-up time must count only what the package imports.

Why each workload exists:

* ``analyze_distinct`` -- every network is new, so no per-network cache can
  help; the eigensolves behind ``measure_report`` dominate.
* ``feeder_sweep`` -- a few feeders swept over output inductance, as
  ``netinduct sweep`` does: the same Laplacian returns on every step, so
  spectrum reuse shows here and nowhere else.
* ``transient_envelope`` -- homogeneous trajectories, envelopes and decay
  fits; the only workload that runs the ``simulate`` layer.
* ``design_kron`` -- Kron reduction onto a few sources, then output-inductor
  design; the only workload that runs the allocation search.
"""

from __future__ import annotations

import json
import math

import numpy as np

import netinduct as ni

import generate as gen


def direct_call(fn, *args, **kwargs):
    """Untraced hook: call the package function and nothing else."""
    return fn(*args, **kwargs)


class Workload:
    name = ""
    STREAM = 0  # keeps the workloads' random inputs apart
    PERIOD = 1  # every run of this many jobs holds the same mix
    NOMINAL_JOBS_PER_S = 1.0  # sizes a run; see the module docstring
    # A safety net that only a hung job reaches: the slowest jobs take about
    # 1 s, and a design_kron search that runs a start into the package's
    # pass limit takes 4.5-7 s.  A limit measured in seconds would make the
    # failures depend on the machine's speed.
    DEADLINE_S = 30.0

    def __init__(self, seed: int):
        self.seed = seed

    def payload(self, index: int, warmup: bool = False) -> dict:
        raise NotImplementedError

    def prepare(self, payload: dict):
        """Untimed per-job preparation; returns what ``run`` takes."""
        return payload

    def run(self, job, call):
        raise NotImplementedError

    def check(self, payload: dict, out) -> list[tuple[str, str]]:
        raise NotImplementedError

    def counters(self, out) -> dict[str, float]:
        """Per-job counters read from the outputs (for the traced run)."""
        return {}

    def _rng(self, sub: int, index: int) -> np.random.Generator:
        return gen.rng_for(self.seed, self.STREAM, sub, index)


def _sub(warmup: bool) -> int:
    return gen.WARMUP if warmup else gen.TIMED


def _mix(index: int, sizes: tuple[int, int, int, int]) -> tuple[str, str, int]:
    """Family, output kind and size of a job, as a Latin square of period 16.

    Every 16 jobs cross the four families with the four output kinds once,
    and each family and each kind meets each of the four sizes once.
    """
    f, k = index % 4, (index // 4) % 4
    family, n = gen.FAMILIES[f], sizes[(f + k) % 4]
    return family, gen.OUTPUT_KINDS[k], min(n, gen.COMPLETE_MAX_N) if family == "complete" else n


# ---------------------------------------------------------------------------

class AnalyzeDistinct(Workload):
    """parse -> measure_report -> build_laplacian -> kron_reduce_real -> lambda2."""

    name = "analyze_distinct"
    STREAM = 1
    SIZES = gen.size_ladder((10, 40), 4)
    PERIOD = 16
    NOMINAL_JOBS_PER_S = 7.6
    WARMUP_N = 16

    def payload(self, index, warmup=False):
        rng = self._rng(_sub(warmup), index)
        family, kind, n = _mix(index, self.SIZES)
        n = self.WARMUP_N if warmup else n
        k = int(rng.integers(2, max(3, n // 4) + 1))
        sources = gen.pick_sources(rng, n, k)
        return {"doc": gen.dumps(gen.network_doc(rng, family, n, kind, sources)),
                "sources": sources}

    def run(self, job, call):
        net = call(ni.network_from_json, job["doc"])
        rep = call(ni.measure_report, net)
        lap = call(ni.build_laplacian, net)
        red = call(ni.kron_reduce_real, lap, job["sources"])
        spec = call(ni.eig_symmetric, red.matrix)
        conn = call(ni.algebraic_connectivity, spec)
        return {"report": rep, "laplacian": lap.matrix, "reduced": red, "lam2": conn.value}

    def check(self, payload, out):
        import reference as ref
        p = ref.Problems()
        doc = json.loads(payload["doc"])
        L = ref.laplacian(doc)
        p.close("laplacian", out["laplacian"], L, ref.MATRIX_RTOL)
        ref.check_report(p, out["report"], ref.measures(doc, L))
        S = ref.schur(L, ref.source_indices(doc, payload["sources"]))
        p.close("kron_reduce_real", out["reduced"].matrix, S, ref.MATRIX_RTOL)
        p.equal("kron node order", list(out["reduced"].node_ids()), payload["sources"])
        p.close("reduced lambda2", out["lam2"], np.linalg.eigvalsh(S)[1], ref.MEASURE_RTOL)
        return p


# ---------------------------------------------------------------------------

class FeederSweep(Workload):
    """One step of a uniform l_out sweep: with_outputs -> psi -> phasor -> angles."""

    name = "feeder_sweep"
    STREAM = 2
    # All feeders have one size: with sizes spread over 20..44, the median job
    # belonged to whichever feeder sat in the middle, and p50 moved by a
    # quarter.  Even at one size the eigensolver's cost differs by feeder, so
    # a period spans many feeders with a few steps each; each pass over them
    # shifts the grid, so a run sweeps each feeder over many l_out values.
    FEEDERS, FEEDER_N = 12, 32
    STEPS = 4
    PERIOD = FEEDERS * STEPS
    NOMINAL_JOBS_PER_S = 8.0
    L_OUT = (2e-4, 2e-2)  # henry, log grid
    WARMUP_N = 24

    def __init__(self, seed):
        super().__init__(seed)
        self._feeders = {}  # (warmup, feeder index) -> PowerNetwork
        self._spectra = {}  # doc text -> reference eigh of its Laplacian (checks only)

    def _feeder_doc(self, f: int, warmup: bool) -> str:
        rng = self._rng(gen.WARMUP if warmup else gen.FEEDER, f)
        n = self.WARMUP_N if warmup else self.FEEDER_N
        return gen.dumps(gen.network_doc(rng, "feeder", n, "uniform_low"))

    def payload(self, index, warmup=False):
        sweep, step = divmod(index % self.PERIOD, self.STEPS)
        # each pass over the feeders shifts the grid, so no l_out value repeats
        shift = self._rng(gen.GRID, index // self.PERIOD).random() if not warmup else 0.0
        lo, hi = (math.log(v) for v in self.L_OUT)
        l_out = math.exp(lo + (step + shift) * (hi - lo) / self.STEPS)
        f = 0 if warmup else sweep
        return {"feeder": f, "warmup": warmup, "l_out": l_out,
                "doc": self._feeder_doc(f, warmup)}

    def prepare(self, payload):
        key = (payload["warmup"], payload["feeder"])
        if key not in self._feeders:  # loaded once per feeder, as the CLI sweep does
            self._feeders[key] = ni.network_from_json(payload["doc"])
        return self._feeders[key], payload["l_out"]

    def run(self, job, call):
        net, l_out = job
        swept = call(net.with_outputs, r_out=0.0, l_out=l_out)
        rep = call(ni.psi_nir_uniform, swept)
        red = call(ni.phasor_reduce, swept)
        records = call(ni.line_angles, red, swept)
        return {"report": rep, "reduced": red, "records": records}

    def check(self, payload, out):
        import reference as ref
        p = ref.Problems()
        doc = json.loads(payload["doc"])
        if payload["doc"] not in self._spectra:
            self._spectra[payload["doc"]] = np.linalg.eigh(ref.laplacian(doc))
        lam, U = self._spectra[payload["doc"]]
        r, l = doc["line"]["r_per_len"], doc["line"]["l_per_len"]
        omega = doc["frequency_rad_s"]
        want = ref.uniform_measures(lam[1], lam[-1], r, l, 0.0, payload["l_out"])
        want.update(mu=1.0, theta_nir=math.atan(omega * want["psi_nir"]))
        ref.check_report(p, out["report"], want)
        Y = ref.phasor_admittance(lam, U, r, l, omega, payload["l_out"])
        p.close("phasor_reduce", out["reduced"].matrix, Y, ref.MATRIX_RTOL)
        ref.check_line_angles(p, out["records"], Y, doc)
        return p


# ---------------------------------------------------------------------------

class TransientEnvelope(Workload):
    """measure_report + assemble_dynamics, then a batch of trajectories."""

    name = "transient_envelope"
    STREAM = 3
    SIZES = gen.size_ladder((10, 32), 4)
    PERIOD = 16
    NOMINAL_JOBS_PER_S = 8.9
    RANDOM_ICS = 7  # plus the worst-case eigenvector
    SAMPLES = 4  # reference expm samples per trajectory
    WARMUP_N = 12

    def payload(self, index, warmup=False):
        rng = self._rng(_sub(warmup), index)
        family, kind, n = _mix(index, self.SIZES)
        n = self.WARMUP_N if warmup else n
        doc = gen.network_doc(rng, family, n, kind)
        ics = []
        for _ in range(self.RANDOM_ICS):
            v = rng.standard_normal(n)
            ics.append([float(x) for x in v - v.mean()])
        return {"doc": gen.dumps(doc), "ics": ics}

    @staticmethod
    def worst_case_i0(dyn, rep) -> np.ndarray:
        """Eigenvector of L^-1 R whose rate is closest to 1/psi_nir (``simulate --worst-case``)."""
        vals, vecs = np.linalg.eig(np.linalg.solve(dyn.l_matrix, dyn.r_matrix))
        v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0 / rep.psi_nir)))])
        v = v - v.sum() / v.size
        return v / np.linalg.norm(v)

    def run(self, job, call):
        net = call(ni.network_from_json, job["doc"])
        rep = call(ni.measure_report, net)
        dyn = call(ni.assemble_dynamics, net)
        grid = call(ni.default_time_grid, rep)
        ics = [np.array(v) for v in job["ics"]] + [self.worst_case_i0(dyn, rep)]
        runs = []
        for i0 in ics:
            traj = call(ni.homogeneous_solution, dyn, i0, grid)
            verdict = call(ni.verify_envelopes, traj, rep)
            rates = call(ni.fit_decay_rates, traj)
            runs.append((i0, traj, verdict, rates))
        return {"report": rep, "grid": grid, "runs": runs}

    def check(self, payload, out):
        import reference as ref
        p = ref.Problems()
        doc = json.loads(payload["doc"])
        L = ref.laplacian(doc)
        want = ref.measures(doc, L)
        ref.check_report(p, out["report"], want)
        times = out["grid"]
        p.close("default_time_grid", times, np.linspace(0.0, 8.0 * want["psi_nir"], 400),
                ref.MEASURE_RTOL)
        picks = np.linspace(0, times.size - 1, self.SAMPLES + 1).astype(int)[1:]
        props = ref.propagators(ref.dynamics(doc, L), times[picks])
        for k, (i0, traj, verdict, rates) in enumerate(out["runs"]):
            n0 = np.linalg.norm(i0)
            for j, E in zip(picks, props):
                p.close(f"trajectory[{k}] at t[{j}]", traj.currents[:, j], E @ i0,
                        0.0, ref.TRAJ_ATOL * n0)
            lower, upper = ref.envelope_verdict(traj.norms, times, n0, want)
            p.equal(f"trajectory[{k}] lower verdict", verdict.lower_ok, lower)
            p.equal(f"trajectory[{k}] upper verdict", verdict.upper_ok, upper)
            p.require(f"trajectory[{k}] breaks the Psi_NIR lower envelope", lower)
            p.require(f"trajectory[{k}] breaks the Psi_NRR upper envelope", upper)
            fast, slow = ref.decay_rates(times, traj.norms)
            p.close(f"trajectory[{k}] decay rates", [rates.fastest, rates.slowest],
                    [fast, slow], ref.TRAJ_RTOL)
        return p


# ---------------------------------------------------------------------------

class DesignKron(Workload):
    """Kron-reduce onto k sources, design_uniform, then allocate or design."""

    name = "design_kron"
    STREAM = 4
    # (n, k) per case.  k is mostly 3..6; the last case, larger DER counts,
    # takes k = 7 on a feeder and k = 8 on a mesh.  Search cost grows with k,
    # so job times fall into classes by k; the counts put p50 in the middle
    # of the k = 4 jobs and p90 in the middle of the k = 6 jobs, not on a
    # gap between classes.
    CASES = ((15, 3), (40, 3), (28, 3), (20, 4), (40, 4), (28, 4), (15, 4),
             (24, 5), (24, 6), (40, 6), (15, 6), (20, None))
    # Every period runs each case once with optimize and once with design, on
    # a feeder and on a mesh; which op gets the feeder swaps from period to period.
    PERIOD = 2 * len(CASES)
    NOMINAL_JOBS_PER_S = 3.9
    WARMUP_N, WARMUP_K = 16, 3

    def payload(self, index, warmup=False):
        rng = self._rng(_sub(warmup), index)
        p = index % self.PERIOD
        op = p % 2
        family = ("feeder", "mesh")[(op + index // self.PERIOD) % 2]
        if warmup:
            n, k = self.WARMUP_N, self.WARMUP_K
        else:
            n, k = self.CASES[p // 2]
            k = k or (7 if family == "feeder" else 8)
        sources = gen.pick_sources(rng, n, k)
        doc = gen.network_doc(rng, family, n, "uniform_low", sources)
        theta_line = math.atan(doc["frequency_rad_s"] * doc["line"]["l_per_len"]
                               / doc["line"]["r_per_len"])
        target = theta_line + float(rng.uniform(0.2, 0.6)) * (math.pi / 2 - theta_line)
        return {"doc": gen.dumps(doc), "sources": sources, "target_theta": target,
                "budget": k * float(rng.uniform(1e-3, 3e-3)),
                "op": ("optimize", "design")[op]}

    def run(self, job, call):
        net = call(ni.network_from_json, job["doc"])
        lap = call(ni.build_laplacian, net)
        red = call(ni.kron_reduce_real, lap, job["sources"])
        l_uniform = call(ni.design_uniform, net, job["target_theta"], sources=job["sources"])
        if job["op"] == "optimize":
            problem = ni.AllocationProblem(red.matrix, job["budget"], r_per_len=net.r_per_len,
                                           l_per_len=net.l_per_len, omega=net.omega)
            res = call(ni.optimize_allocation, problem)
        else:
            res = call(ni.design_nonuniform, net, job["target_theta"], sources=job["sources"])
        return {"reduced": red, "l_uniform": l_uniform, "result": res}

    def check(self, payload, out):
        import reference as ref
        p = ref.Problems()
        doc = json.loads(payload["doc"])
        r, l = doc["line"]["r_per_len"], doc["line"]["l_per_len"]
        omega = doc["frequency_rad_s"]
        S = ref.schur(ref.laplacian(doc), ref.source_indices(doc, payload["sources"]))
        p.close("kron_reduce_real", out["reduced"].matrix, S, ref.MATRIX_RTOL)
        lam2 = np.linalg.eigvalsh(S)[1]
        tan_t = math.tan(payload["target_theta"])
        p.close("design_uniform", out["l_uniform"], (tan_t / omega * r - l) / lam2,
                ref.MEASURE_RTOL)
        res = out["result"]
        if payload["op"] == "optimize":
            lam2_alloc = ref.check_allocation(p, res, S, payload["budget"])
        else:
            budget = float(np.sum(res.allocation))
            lam2_alloc = ref.check_allocation(p, res, S, budget)
            p.close("design_nonuniform.budget", res.diagnostics["budget"], budget,
                    ref.MEASURE_RTOL)
            p.close("design_nonuniform.theta", res.theta_nir, payload["target_theta"],
                    ref.MEASURE_RTOL)
        psi = (lam2_alloc + l) / r
        p.close("allocation.psi_nir", res.psi_nir, psi, ref.MEASURE_RTOL)
        p.close("allocation.theta_nir", res.theta_nir, math.atan(omega * psi),
                ref.MEASURE_RTOL)
        return p

    def counters(self, out):
        diag = out["result"].diagnostics
        return {"allocate.passes": diag["passes"], "allocate.starts": diag["starts"]}


WORKLOADS = {w.name: w for w in (AnalyzeDistinct, FeederSweep, TransientEnvelope, DesignKron)}
