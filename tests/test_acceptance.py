"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line and contributes to conformance_report.txt
(written at the end of the session, in the repository root).  Criterion 5 is
expected to fail: the published star-graph allocation it references is not the
optimum of the stated objective; the companion test below it asserts the true
optimum.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from netinduct import (AllocationProblem, assemble_dynamics, build_laplacian,
                       default_time_grid, design_nonuniform, design_uniform,
                       eig_symmetric, fit_decay_rates, homogeneous_solution,
                       kron_reduce_real, line_angles, load_network, measure_report,
                       optimize_allocation, phasor_reduce, psi_nir_uniform,
                       verify_envelopes)
from conftest import FIXTURES, make_network, random_connected_edges, \
    random_uniform_network

REPORT_PATH = Path(__file__).resolve().parent.parent / "conformance_report.txt"


@pytest.fixture(scope="session")
def diagnoses():
    """Lines explaining a criterion's result, written under its notes, by number."""
    return {}


@pytest.fixture(scope="session")
def conformance(diagnoses):
    entries = []
    yield entries
    lines = ["netinduct conformance report", "=" * 28, ""]
    for num, status, note in sorted(entries):
        lines.append(f"criterion {num}: {status}")
        for part in note + tuple(diagnoses.get(num, ())):
            lines.append(f"  - {part}")
        lines.append("")
    REPORT_PATH.write_text("\n".join(lines) + "\n")


def _line(entries, num, status, *note):
    entries.append((num, status, note))
    print(f"CRITERION {num}: {status} — {note[0]}")


def _sample_networks(count=20):
    rng = np.random.default_rng(100)
    return [random_uniform_network(rng, int(rng.integers(3, 11)))
            for _ in range(count)]


def _zero_sum_spectrum(l_matrix, r_matrix):
    """Eigenvalues of L^-1 R restricted to the zero-sum subspace."""
    A = np.linalg.solve(l_matrix, r_matrix)
    n = A.shape[0]
    # orthonormal basis of the complement of the ones vector
    Q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))
    B = Q[:, 1:]
    return np.sort(np.linalg.eigvals(B.T @ A @ B).real)


def test_criterion_1_spectral_identity(conformance):
    t0 = time.monotonic()
    for net in _sample_networks(20):
        rep = psi_nir_uniform(net)
        dyn = assemble_dynamics(net)
        rates = _zero_sum_spectrum(dyn.l_matrix, dyn.r_matrix)
        assert 1.0 / rep.psi_nir == pytest.approx(rates[-1], rel=1e-9)
        # equivalent dual form: psi is the smallest eigenvalue of R^-1 L there
        inv = _zero_sum_spectrum(dyn.r_matrix, dyn.l_matrix)
        assert rep.psi_nir == pytest.approx(inv[0], rel=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _line(conformance, 1, "PASS",
          "1/psi_nir equals the extreme eigenvalue of L^-1 R on the zero-sum "
          "subspace for 20 random networks at 1e-9 relative",
          "wording note: in the regime r_o/l_o < r/l that the criterion "
          "samples, 1/psi_nir is the LARGEST eigenvalue of L^-1 R on the "
          "zero-sum subspace (equivalently psi_nir is the smallest eigenvalue "
          "of R^-1 L there); the rate (r_o x + r)/(l_o x + l) is decreasing, "
          "so the literal 'smallest eigenvalue of L^-1 R' reading is "
          "inconsistent with the envelope property checked by criterion 2 "
          "and is asserted here in its corrected/equivalent dual form")


def test_criterion_2_envelopes(conformance):
    t0 = time.monotonic()
    rng = np.random.default_rng(200)
    for net in _sample_networks(20):
        rep = psi_nir_uniform(net)
        dyn = assemble_dynamics(net)
        grid = default_time_grid(rep, 160)
        for _ in range(10):
            i0 = rng.normal(size=net.n)
            i0 -= i0.mean()
            verdict = verify_envelopes(homogeneous_solution(dyn, i0, grid), rep)
            assert verdict.lower_ok
        fiedler = eig_symmetric(build_laplacian(net).matrix).eigenvectors[:, 1]
        verdict = verify_envelopes(homogeneous_solution(dyn, fiedler, grid), rep)
        assert verdict.lower_ok
        assert np.min(verdict.lower_slack) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _line(conformance, 2, "PASS",
          "lower envelope holds at every sample for 200 random initial "
          "conditions and is tight on the connectivity eigenvector")


def test_criterion_3_complete_graph_equivalence(conformance):
    rng = np.random.default_rng(300)
    for n in (3, 4, 6):
        tau = float(rng.uniform(0.5, 3.0))
        r, l = 0.7, 0.001
        l_o = float(rng.uniform(5e-4, 5e-3))
        r_o = float(rng.uniform(0.0, 0.3)) * l_o * r / l
        edges = [(a, b, tau) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        net = make_network(edges, r=r, l=l, r_out=r_o, l_out=l_o)
        l_c = n * l_o + l * tau
        r_c = n * r_o + r * tau

        dyn = assemble_dynamics(net)
        A = np.linalg.solve(dyn.l_matrix, dyn.r_matrix)
        P = np.eye(n) - np.full((n, n), 1.0 / n)
        assert np.max(np.abs(P @ A @ P - (r_c / l_c) * P)) <= 1e-10 * (r_c / l_c)

        # the phasor model carries inductive outputs only, so the angle
        # identity is checked with r_o = 0 (r_c = r tau)
        bare_r = make_network(edges, r=r, l=l, r_out=0.0, l_out=l_o)
        records = line_angles(phasor_reduce(bare_r), bare_r)
        oracle = math.atan(net.omega * l_c / (r * tau))
        for rec in records:
            assert rec.theta_rad == pytest.approx(oracle, rel=1e-9)
    _line(conformance, 3, "PASS",
          "complete-graph dynamics equal the synthesized uniform line "
          "(l_c = n l_o + l tau, r_c = n r_o + r tau) on the zero-sum "
          "subspace at 1e-10, and every reduced branch angle equals "
          "arctan(omega l_c / r_c) at 1e-9 for n in {3, 4, 6}")


def test_criterion_4_nonuniform_bounds_and_worst_case(conformance):
    rng = np.random.default_rng(400)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        net = make_network(random_connected_edges(rng, n), r=0.7, l=0.001,
                           l_out=rng.uniform(5e-4, 8e-3, size=n))
        rep = measure_report(net)
        d = net.l_out_vector()
        lam2_L = eig_symmetric(build_laplacian(net).matrix).eigenvalues[1]
        lo = (lam2_L * d.min() + 0.001) / 0.7
        hi = (lam2_L * d.max() + 0.001) / 0.7
        assert lo * (1 - 1e-12) <= rep.psi_nir <= hi * (1 + 1e-12)

        # worst-case mode: eigenvector whose rate is the guaranteed 1/psi
        dyn = assemble_dynamics(net)
        A = np.linalg.solve(dyn.l_matrix, dyn.r_matrix)
        vals, vecs = np.linalg.eig(A)
        k = int(np.argmin(np.abs(vals - 1.0 / rep.psi_nir)))
        i0 = np.real(vecs[:, k])
        i0 -= i0.mean()
        i0 /= np.linalg.norm(i0)
        traj = homogeneous_solution(dyn, i0, default_time_grid(rep, 200))
        rates = fit_decay_rates(traj)
        assert rates.fastest == pytest.approx(1.0 / rep.psi_nir, rel=1e-3)
    _line(conformance, 4, "PASS",
          "psi_nir inside the diagonal-scaling eigenvalue sandwich and the "
          "simulated worst-case decay rate matches 1/psi_nir at 1e-3 relative "
          "for 20 random non-uniform networks")


@pytest.mark.xfail(strict=True,
                   reason="published star allocation is not the simplex optimum "
                          "of lambda2(diag(d) L); see conformance report")
def test_criterion_5_star_allocation_published_values(conformance):
    t0 = time.monotonic()
    lap = build_laplacian(load_network(FIXTURES / "star.json"))
    res = optimize_allocation(AllocationProblem(lap, 5e-3))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _line(conformance, 5, "FAIL (expected)",
          "the referenced allocation (2.20, 1.23, 1.57, 0) mH is not the "
          "maximizer of lambda2(diag(d) L) on the 5 mH simplex: its value is "
          "1.744e-4 versus 2.381e-4 at the true optimum "
          "(1.1905, 1.6667, 2.1429, 0) mH, which is exactly proportional to "
          "the leaf distances (closed form lambda2 = min_i d_i/tau_i); no "
          "assignment of the published numbers to the leaves comes within "
          "the stated +-0.05 mH of the optimizer output",
          f"optimizer returned {np.array2string(res.allocation, precision=6)} H "
          f"with lambda2 = {res.lam2!r}",
          "the companion criterion-5 test asserts the true optimum and passes")
    assert res.allocation[3] == pytest.approx(0.0, abs=5e-5)
    assert np.allclose(res.allocation[:3], [2.20e-3, 1.23e-3, 1.57e-3],
                       atol=5e-5)


def test_criterion_5_star_allocation_true_optimum():
    t0 = time.monotonic()
    lap = build_laplacian(load_network(FIXTURES / "star.json"))
    res = optimize_allocation(AllocationProblem(lap, 5e-3))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    expect = 5e-3 * np.array([5.0, 7.0, 9.0, 0.0]) / 21.0
    assert np.allclose(res.allocation, expect, atol=5e-5)
    assert res.lam2 == pytest.approx(5e-3 / 21.0, rel=1e-8)
    print(f"CRITERION 5 (companion): PASS — optimizer finds the "
          f"length-proportional optimum in {elapsed:.2f}s")


def test_criterion_5_published_values_weight_edges_by_length(diagnoses):
    # the published allocation is the optimum when each edge is weighted by its
    # length tau rather than by 1/tau: 5 mH * (1/tau_i) / sum_j (1/tau_j) on
    # the leaves, which is the published triple with leaves 2 and 3 swapped
    doc = load_network(FIXTURES / "star.json")
    lap = build_laplacian(doc)
    tau = np.array(doc.topology.length)
    index = dict(zip(lap.ids, range(len(lap.ids))))
    a = [index[i] for i in doc.topology.edge_a]
    b = [index[i] for i in doc.topology.edge_b]
    L_tau = np.zeros((len(index), len(index)))
    np.add.at(L_tau, (a, a), tau)
    np.add.at(L_tau, (b, b), tau)
    np.add.at(L_tau, (a, b), -tau)
    np.add.at(L_tau, (b, a), -tau)
    res = optimize_allocation(AllocationProblem(L_tau, 5e-3))
    leaves = (1.0 / tau) / np.sum(1.0 / tau)  # edge k joins leaf k + 1 to the centre 4
    assert np.allclose(res.allocation, 5e-3 * np.append(leaves, 0.0), rtol=0.0, atol=1e-8)
    swapped = res.allocation[[0, 2, 1, 3]]  # leaves 2 and 3 exchange labels
    assert np.allclose(swapped, [2.20e-3, 1.23e-3, 1.57e-3, 0.0], rtol=0.0, atol=5e-5)
    mh = ", ".join(f"{x:.4f}" for x in res.allocation * 1e3)
    diagnoses.setdefault(5, []).append(
        f"diagnosis: weighting each edge by its length tau instead of 1/tau, the "
        f"optimizer returns ({mh}) mH = 5 mH (1/tau_i)/sum_j(1/tau_j), the published "
        f"(2.20, 1.23, 1.57, 0) mH with leaves 2 and 3 swapped, within +-0.05 mH; the "
        f"package keeps the 1/tau weights, the dimensionally consistent convention")


def test_criterion_6_ieee13_design(conformance):
    net = load_network(FIXTURES / "ieee13_50hz.json")
    sources = [1, 3, 7]
    red = kron_reduce_real(build_laplacian(net), sources)
    lam2 = eig_symmetric(red.matrix).eigenvalues[1]

    bare = math.atan(net.omega * net.l_per_len / net.r_per_len)
    target = 1.1 * bare

    # mandatory fallback: the uniform design, fed back through the measure,
    # hits the +10% angle target to 1e-9
    l_o = design_uniform(net, target, sources=sources)
    reduced_net = make_network(
        [(1, 3, 1.0 / 1.76), (1, 7, 1.0 / 0.44), (3, 7, 1.0 / 1.76)],
        r=net.r_per_len, l=net.l_per_len, omega=net.omega, l_out=l_o)
    rep = psi_nir_uniform(reduced_net)
    assert rep.theta_nir == pytest.approx(target, rel=1e-9)

    non = design_nonuniform(net, target, sources=sources)
    assert non.theta_nir == pytest.approx(target, rel=1e-9)

    # published values for comparison (not reproduced by any unit convention)
    lam2_not_31 = not (3.0 <= lam2 <= 3.2)
    assert lam2 == pytest.approx(2.64, abs=1e-9)
    _line(conformance, 6, "PASS (fallback)",
          "no unit/frequency convention reproduces lambda2 = 3.1 +- 0.1 for "
          "the reconstructed 13-node feeder: lambda2 is 2.64 (miles), 1.64 "
          "(km) or 0.50 (1000 ft), independent of frequency, so the "
          "criterion's mandatory internal-consistency fallback applies",
          f"uniform design l_o = {l_o!r} H feeds back to the +10% angle "
          f"target {target!r} rad to 1e-9 (reference value 3.21 mH not "
          f"matched: |{l_o * 1e3:.4f} - 3.21| mH > 10%)",
          f"non-uniform design {np.array2string(non.allocation, precision=7)} H "
          f"(budget {non.diagnostics['budget']!r} H) also feeds back to the "
          f"target to 1e-9 (reference (0.95, 0.95, 4.35) mH not matched)",
          f"lambda2 outside 3.1 +- 0.1 confirmed: {lam2_not_31}")


def test_criterion_7_kron_properties(conformance):
    rng = np.random.default_rng(700)
    pairs = 0
    while pairs < 50:
        n = int(rng.integers(4, 10))
        lap = build_laplacian(make_network(random_connected_edges(rng, n)))
        k = int(rng.integers(2, n))
        keep = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
        red = kron_reduce_real(lap, keep)
        M = red.matrix
        scale = np.max(np.abs(M))
        # closure: still a Laplacian
        assert np.max(np.abs(M - M.T)) <= 1e-10 * scale
        assert np.max(np.abs(M.sum(axis=1))) <= 1e-10 * scale
        assert np.max(M - np.diag(np.diag(M))) <= 1e-10 * scale
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-10 * scale
        # quotient property: eliminating in two stages gives the same result
        if k < n - 1:
            outside = [i for i in range(1, n + 1) if i not in keep]
            mid_keep = sorted(keep + [outside[int(rng.integers(len(outside)))]])
            two = kron_reduce_real(kron_reduce_real(lap, mid_keep), keep)
            assert np.max(np.abs(M - two.matrix)) <= 1e-10 * scale
        pairs += 1
    _line(conformance, 7, "PASS",
          "Laplacian closure and the two-stage quotient property hold at "
          "1e-10 on 50 random graph/source-set pairs")


def test_criterion_8_virtual_line_angles(conformance):
    net = load_network(FIXTURES / "path4.json")
    saw_negative = False
    for l_o in np.geomspace(0.5e-3, 50e-3, 25):
        swept = net.with_outputs(r_out=0.0, l_out=float(l_o))
        rep = psi_nir_uniform(swept)
        assert 0.0 < rep.theta_nir < math.pi / 2
        records = [rec for rec in line_angles(phasor_reduce(swept), swept)
                   if rec.klass != "absent"]
        saw_negative = saw_negative or any(rec.impedance.real < 0.0 or rec.impedance.imag < 0.0
                                          for rec in records)
        worst = min(records, key=lambda rec: rec.theta_principal_rad)
        assert worst.klass == "virtual"
    assert saw_negative  # some reduced branch has negative R or X in the sweep
    _line(conformance, 8, "PASS",
          "across l_o in [0.5, 50] mH on the 4-node path the minimum reduced "
          "line angle always sits on a virtual line, negative branch "
          "resistance/reactance does occur, and theta_nir stays inside "
          "(0, pi/2) throughout")


def test_criterion_9_angle_value(conformance):
    val = math.atan(1.2 / 0.7)
    assert val == pytest.approx(1.0427, abs=1e-4)
    assert val < math.pi / 2 < 2 * math.pi / 3
    _line(conformance, 9, "PASS",
          f"arctan(1.2/0.7) = {val!r} rad = 1.0427 +- 1e-4",
          "discrepancy recorded: a value of 2*pi/3 (~2.094 rad) is outside "
          "the range (0, pi/2) of arctan and therefore cannot be an "
          "inductivity angle; the asserted 1.0427 rad is the attainable "
          "value for the 1.2/0.7 reactance-to-resistance ratio")
