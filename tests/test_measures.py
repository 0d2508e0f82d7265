import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (assemble_dynamics, build_laplacian, load_network,
                       measure_report, psi_nir_nonuniform, psi_nir_uniform)
from conftest import make_network, random_connected_edges, random_uniform_network


def _zero_sum_rates(l_matrix, r_matrix):
    """Oracle: spectrum of L^-1 R with the ones-vector mode removed."""
    # 1^T is always a left eigenvector of L^-1 R (row sums of the Laplacian
    # parts vanish), so its eigenvalue is 1^T A 1 / n.
    A = np.linalg.solve(l_matrix, r_matrix)
    vals = np.sort(np.linalg.eigvals(A).real)
    ones = np.ones(A.shape[0])
    rate_ones = ones @ A @ ones / ones.size
    k = int(np.argmin(np.abs(vals - rate_ones)))
    return np.delete(vals, k)


# --- assembly ----------------------------------------------------------------

def test_assemble_uniform(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    dyn = assemble_dynamics(net)
    L = build_laplacian(net).matrix
    assert np.allclose(dyn.r_matrix, 0.7 * np.eye(4), atol=0)
    assert np.allclose(dyn.l_matrix, 0.002 * L + 0.001 * np.eye(4), atol=0)


def test_assemble_nonuniform():
    d_l = np.array([1e-3, 2e-3, 3e-3])
    net = make_network([(1, 2, 1.0), (2, 3, 2.0)], r=0.5, l=0.002, l_out=d_l)
    dyn = assemble_dynamics(net)
    L = build_laplacian(net).matrix
    assert np.allclose(dyn.r_matrix, 0.5 * np.eye(3), atol=0)
    assert np.allclose(dyn.l_matrix, 0.002 * np.eye(3) + L @ np.diag(d_l), atol=0)


# --- real, positive spectrum of L^-1 R ---------------------------------------

def _extreme_output_network(rng, n, kind):
    """Connected network with one of four output kinds, at extreme scales.

    Lengths span 1e-3..1e3 and output inductances may be zero (on some
    nodes, or uniformly); output resistances, where present, are positive.
    Wider than the trajectory tests' generator, which needs moderate scales
    for its time grids.
    """
    edges = [(a, b, float(10.0 ** rng.uniform(-3.0, 3.0)))
             for a, b, _ in random_connected_edges(rng, n)]
    r = float(rng.uniform(0.1, 2.0))
    l = float(10.0 ** rng.uniform(-4.0, -1.0))
    if kind in ("uniform_l", "uniform_lr"):
        l_out = float(10.0 ** rng.uniform(-6.0, -1.0)) * float(rng.integers(0, 2))
        r_out = float(rng.uniform(0.01, 10.0)) if kind == "uniform_lr" else 0.0
    else:
        l_out = 10.0 ** rng.uniform(-6.0, -1.0, n)
        l_out[rng.random(n) < 0.5] = 0.0
        r_out = rng.uniform(0.01, 10.0, n) if kind == "per_node_lr" else 0.0
    return make_network(edges, r=r, l=l, r_out=r_out, l_out=l_out)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform_l", "uniform_lr", "per_node_l", "per_node_lr"]))
def test_rates_are_real_positive_pencil_eigenvalues(n, seed, kind):
    # With Lap = S S^T (S of full column rank n - 1) the rates on the zero-sum
    # subspace are the eigenvalues of the SPD pencil (r I + S^T D_r S,
    # l I + S^T D_l S): real and positive, with r/l as the remaining rate.
    from scipy.linalg import eigh

    net = _extreme_output_network(np.random.default_rng(seed), n, kind)
    dyn = assemble_dynamics(net)
    vals = np.linalg.eigvals(np.linalg.solve(dyn.l_matrix, dyn.r_matrix))
    radius = np.max(np.abs(vals))
    assert np.max(np.abs(vals.imag)) <= 1e-8 * radius
    assert np.min(vals.real) > 0.0

    lam, U = np.linalg.eigh(build_laplacian(net).matrix)
    S = U[:, 1:] * np.sqrt(lam[1:])
    r_hat = net.r_per_len * np.eye(n - 1) + (S.T * net.r_out_vector()) @ S
    l_hat = net.l_per_len * np.eye(n - 1) + (S.T * net.l_out_vector()) @ S
    pencil = eigh(r_hat, l_hat, eigvals_only=True)
    rates = _zero_sum_rates(dyn.l_matrix, dyn.r_matrix)
    assert np.allclose(np.sort(rates), pencil, rtol=1e-9, atol=0)


# --- uniform measures --------------------------------------------------------

def test_uniform_degenerate_bare_line(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")
    rep = psi_nir_uniform(net)
    assert rep.regime == "degenerate"
    assert rep.psi_nir == pytest.approx(0.001 / 0.7, rel=1e-14)
    assert rep.psi_nrr == pytest.approx(700.0, rel=1e-14)
    assert rep.mu == 1.0


def test_uniform_lambda2_regime_complete4(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    rep = psi_nir_uniform(net)
    assert rep.regime == "lambda2"
    assert rep.lambda_used == pytest.approx(4.0, rel=1e-12)
    assert rep.psi_nir == pytest.approx(0.009 / 0.7, rel=1e-12)
    assert rep.psi_nrr == pytest.approx(0.7 / 0.009, rel=1e-12)


def test_uniform_resistive_outputs_use_lambda_max():
    net = make_network([(1, 2, 1.0), (2, 3, 1.0)], r=1.0, l=0.01, r_out=0.5)
    rep = psi_nir_uniform(net)
    lam = np.sort(np.linalg.eigvalsh(build_laplacian(net).matrix))
    assert rep.regime == "lambda_max"
    assert rep.psi_nir == pytest.approx(0.01 / (0.5 * lam[-1] + 1.0), rel=1e-12)
    assert rep.psi_nrr == pytest.approx((0.5 * lam[1] + 1.0) / 0.01, rel=1e-12)


def test_uniform_resistance_dominated_regime():
    # r_o / l_o > r / l: the fastest mode sits at the largest eigenvalue
    net = make_network([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)],
                       r=1.0, l=0.01, r_out=2.0, l_out=0.001)
    rep = psi_nir_uniform(net)
    lam = np.sort(np.linalg.eigvalsh(build_laplacian(net).matrix))
    assert rep.regime == "lambda_max"
    assert rep.psi_nir == pytest.approx(
        (0.001 * lam[-1] + 0.01) / (2.0 * lam[-1] + 1.0), rel=1e-12)


def test_uniform_matched_ratio_collapses():
    # r_o/l_o == r/l makes every zero-sum mode decay at exactly r/l
    net = make_network([(1, 2, 3.0), (2, 3, 1.0)], r=0.8, l=0.004,
                       r_out=0.8 * 0.002 / 0.004, l_out=0.002)
    rep = psi_nir_uniform(net)
    assert rep.regime == "degenerate"
    assert rep.psi_nir == pytest.approx(0.004 / 0.8, rel=1e-12)
    dyn = assemble_dynamics(net)
    rates = _zero_sum_rates(dyn.l_matrix, dyn.r_matrix)
    assert np.allclose(rates, 0.8 / 0.004, rtol=1e-12)


@pytest.mark.parametrize("spread, uniform", [(1e-13, True), (1e-10, False)])
def test_uniformity_threshold_is_1e12_relative(spread, uniform):
    # both uses of UNIFORM_RTOL: per-node outputs that agree to 1e-12 count as
    # uniform, and a ratio r_o/l_o that meets r/l to 1e-12 is degenerate
    edges = [(1, 2, 3.0), (2, 3, 1.0)]
    net = make_network(edges, l_out=np.array([2e-3, 2e-3, 2e-3 * (1.0 - spread)]))
    assert net.uniform_outputs() is uniform
    net = make_network(edges, r=0.8, l=0.004, r_out=0.4 * (1.0 - spread), l_out=0.002)
    assert psi_nir_uniform(net).regime == ("degenerate" if uniform else "lambda2")


def test_uniform_rejects_nonuniform_network():
    net = make_network([(1, 2, 1.0)], l_out=np.array([1e-3, 2e-3]))
    with pytest.raises(ValueError, match="non-uniform"):
        psi_nir_uniform(net)


def test_uniform_fastest_rate_identity():
    # 1/psi_nir is the largest eigenvalue of L^-1 R on the zero-sum subspace,
    # equivalently psi_nir is the smallest eigenvalue of R^-1 L there.
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_uniform_network(rng, int(rng.integers(3, 8)))
        rep = psi_nir_uniform(net)
        dyn = assemble_dynamics(net)
        rates = _zero_sum_rates(dyn.l_matrix, dyn.r_matrix)
        assert 1.0 / rep.psi_nir == pytest.approx(rates.max(), rel=1e-9)
        assert rep.psi_nrr == pytest.approx(rates.min(), rel=1e-9)
        inv = _zero_sum_rates(dyn.r_matrix, dyn.l_matrix)
        assert rep.psi_nir == pytest.approx(inv.min(), rel=1e-9)


def test_uniform_psi_monotone_in_output_inductance():
    net = make_network([(1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.5)], r=0.7, l=0.001)
    psis = [psi_nir_uniform(net.with_outputs(l_out=lo)).psi_nir
            for lo in np.linspace(0.0, 5e-3, 20)]
    assert all(b > a for a, b in zip(psis, psis[1:]))


def test_complete_graph_closed_form():
    # On a complete graph with equal lengths tau the ratio collapses to
    # (n l_o + l tau) / (n r_o + r tau).
    rng = np.random.default_rng(4)
    for n in (3, 4, 6):
        tau = float(rng.uniform(0.5, 3.0))
        r, l = 0.7, 0.001
        l_out = float(rng.uniform(1e-4, 5e-3))
        r_out = float(rng.uniform(0.0, 0.5)) * l_out * r / l
        edges = [(a, b, tau) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        net = make_network(edges, r=r, l=l, r_out=r_out, l_out=l_out)
        rep = psi_nir_uniform(net)
        assert rep.psi_nir * (n * r_out + r * tau) == pytest.approx(
            n * l_out + l * tau, rel=1e-12)


# --- non-uniform measures ----------------------------------------------------

def test_nonuniform_star_inductors_only(fixtures_dir):
    net = make_network([(1, 4, 5.0), (2, 4, 7.0), (3, 4, 9.0)], r=0.7, l=0.001,
                       l_out=np.array([2.20e-3, 1.23e-3, 1.57e-3, 0.0]))
    rep = psi_nir_nonuniform(net)
    lam2 = min(2.20e-3 / 5, 1.23e-3 / 7, 1.57e-3 / 9)  # block-triangular oracle
    assert rep.psi_nir == pytest.approx((lam2 + 0.001) / 0.7, rel=1e-9)
    assert rep.mu == 0.0  # zero output inductor at the center


def test_nonuniform_reduces_to_uniform():
    rng = np.random.default_rng(8)
    for _ in range(5):
        net = random_uniform_network(rng, int(rng.integers(3, 7)))
        uni = psi_nir_uniform(net)
        non = psi_nir_nonuniform(net)
        assert non.psi_nir == pytest.approx(uni.psi_nir, rel=1e-9)
        assert non.psi_nrr == pytest.approx(uni.psi_nrr, rel=1e-9)


def test_nonuniform_envelope_constant():
    d_l = np.array([1e-3, 4e-3, 2e-3])
    net = make_network([(1, 2, 1.0), (2, 3, 1.0)], l_out=d_l)
    rep = psi_nir_nonuniform(net)
    assert rep.mu == pytest.approx(math.sqrt(1e-3 / 4e-3), rel=1e-14)


def test_nonuniform_inductors_only_exact_rates():
    # With purely inductive outputs L^-1 R = r (l I + Lap D_l)^-1, so the
    # formula value must equal the true fastest/slowest zero-sum mode.
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        net = make_network([(k, k + 1, float(rng.uniform(0.5, 3.0)))
                            for k in range(1, n)],
                           r=1.0, l=0.005, l_out=rng.uniform(1e-3, 8e-3, size=n))
        rep = psi_nir_nonuniform(net)
        dyn = assemble_dynamics(net)
        rates = _zero_sum_rates(dyn.l_matrix, dyn.r_matrix)
        assert 1.0 / rep.psi_nir == pytest.approx(rates.max(), rel=1e-9)
        assert rep.psi_nrr == pytest.approx(rates.min(), rel=1e-9)


def test_nonuniform_mixed_outputs_paired_quotient():
    # With resistive and inductive outputs the value is the worst quotient of
    # the index-paired ascending spectra of Lap*D_l and Lap*D_r.
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        d_l = rng.uniform(1e-3, 8e-3, size=n)
        d_r = rng.uniform(0.0, 0.2, size=n)
        net = make_network([(k, k + 1, float(rng.uniform(0.5, 3.0)))
                            for k in range(1, n)],
                           r=1.0, l=0.005, l_out=d_l, r_out=d_r)
        rep = psi_nir_nonuniform(net)
        L = build_laplacian(net).matrix
        lam_l = np.sort(np.linalg.eigvals(np.diag(d_l) @ L).real)[1:]
        lam_r = np.sort(np.linalg.eigvals(np.diag(d_r) @ L).real)[1:]
        assert rep.psi_nir == pytest.approx(
            np.min((lam_l + 0.005) / (lam_r + 1.0)), rel=1e-9)
        assert rep.psi_nrr == pytest.approx(
            np.min((lam_r + 1.0) / (lam_l + 0.005)), rel=1e-9)


def test_dispatch(fixtures_dir):
    uni = load_network(fixtures_dir / "complete4.json")
    assert measure_report(uni).regime == "lambda2"
    non = make_network([(1, 2, 1.0)], l_out=np.array([1e-3, 2e-3]))
    assert measure_report(non).mu < 1.0


# --- impedance angle ---------------------------------------------------------

def test_theta_quarter_pi(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json")
    rep = measure_report(net)
    assert rep.theta_nir == pytest.approx(math.pi / 4, rel=1e-12)


def test_theta_ieee13_bare(fixtures_dir):
    for name in ("ieee13_50hz.json", "ieee13_60hz.json"):
        net = load_network(fixtures_dir / name)
        rep = measure_report(net)
        # bare feeder: psi = l/r, so the angle is atan(omega*l/r) = atan(1.2/0.7)
        assert rep.theta_nir == pytest.approx(math.atan(1.2 / 0.7), rel=1e-12)
    assert math.atan(1.2 / 0.7) == pytest.approx(1.042721878368537, abs=1e-15)


def test_theta_monotone_in_psi(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")
    reps = [measure_report(net.with_outputs(l_out=lo))
            for lo in (0.0, 1e-3, 5e-3)]
    thetas = [r.theta_nir for r in reps]
    assert thetas[0] < thetas[1] < thetas[2] < math.pi / 2
