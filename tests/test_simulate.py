import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (assemble_dynamics, build_laplacian, default_time_grid,
                       eig_symmetric, fit_decay_rates, homogeneous_solution,
                       load_network, measure_report, trajectory_csv, verify_envelopes)
from conftest import FIXTURES, OMEGA_50, make_network, random_connected_edges


def _grid(tmax, points=200):
    return np.linspace(0.0, tmax, points)


def test_default_grid(fixtures_dir):
    rep = measure_report(load_network(fixtures_dir / "complete4.json"))
    grid = default_time_grid(rep)
    assert grid.shape == (400,)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(8.0 * rep.psi_nir)


def test_zero_initial_condition(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    dyn = assemble_dynamics(net)
    traj = homogeneous_solution(dyn, np.zeros(4), _grid(0.1))
    assert np.all(traj.currents == 0.0)
    verdict = verify_envelopes(traj, measure_report(net))
    assert verdict.lower_ok and verdict.upper_ok


def test_bare_line_single_rate(fixtures_dir):
    # without output impedances every zero-sum mode decays at exactly r/l
    net = load_network(fixtures_dir / "twonode.json")
    dyn = assemble_dynamics(net)
    i0 = np.array([1.0, -1.0])
    t = _grid(0.01)
    traj = homogeneous_solution(dyn, i0, t)
    expect = np.outer(i0, np.exp(-(0.7 / 0.001) * t))
    assert np.max(np.abs(traj.currents - expect)) <= 1e-9


def test_fiedler_mode_decays_at_guaranteed_rate(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    rep = measure_report(net)
    dyn = assemble_dynamics(net)
    fiedler = eig_symmetric(build_laplacian(net).matrix).eigenvectors[:, 1]
    t = _grid(4.0 * rep.psi_nir)
    traj = homogeneous_solution(dyn, fiedler, t)
    expect = np.exp(-t / rep.psi_nir)
    assert np.max(np.abs(traj.norms - expect)) <= 1e-9


def test_envelopes_uniform(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    rep = measure_report(net)
    dyn = assemble_dynamics(net)
    rng = np.random.default_rng(23)
    for _ in range(10):
        i0 = rng.normal(size=4)
        i0 -= i0.mean()
        traj = homogeneous_solution(dyn, i0, default_time_grid(rep, 200))
        verdict = verify_envelopes(traj, rep)
        assert verdict.lower_ok and verdict.upper_ok


def test_envelope_tight_on_worst_mode(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    rep = measure_report(net)
    dyn = assemble_dynamics(net)
    fiedler = eig_symmetric(build_laplacian(net).matrix).eigenvectors[:, 1]
    traj = homogeneous_solution(dyn, fiedler, default_time_grid(rep, 200))
    verdict = verify_envelopes(traj, rep)
    assert verdict.lower_ok
    assert np.min(verdict.lower_slack) <= 1e-6  # bound attained, not just valid


def test_envelopes_nonuniform_star():
    net = make_network([(1, 4, 5.0), (2, 4, 7.0), (3, 4, 9.0)], r=0.7, l=0.001,
                       l_out=np.array([1e-3, 2e-3, 3e-3, 4e-3]))
    rep = measure_report(net)
    assert rep.mu == pytest.approx(0.5, rel=1e-14)
    dyn = assemble_dynamics(net)
    rng = np.random.default_rng(31)
    for _ in range(10):
        i0 = rng.normal(size=4)
        i0 -= i0.mean()
        traj = homogeneous_solution(dyn, i0, default_time_grid(rep, 200))
        verdict = verify_envelopes(traj, rep)
        assert verdict.lower_ok and verdict.upper_ok


def test_conservation_and_semigroup(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    dyn = assemble_dynamics(net)
    i0 = np.array([3.0, -1.0, -1.0, -1.0])
    t = _grid(0.05, 101)
    traj = homogeneous_solution(dyn, i0, t)
    assert np.max(np.abs(traj.currents.sum(axis=0))) <= 1e-12 * np.linalg.norm(i0)
    # restarting from the state at t[50] reproduces the tail
    tail = homogeneous_solution(dyn, traj.currents[:, 50], t[:51] * 1.0)
    assert np.max(np.abs(tail.currents - traj.currents[:, 50:])) <= 1e-9


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_fixture_dynamics_use_real_modes(name):
    # the pencil's rates are real and positive, and its modes lie in 1-perp
    net = load_network(FIXTURES / name)
    dec = assemble_dynamics(net).decomposition
    assert np.isrealobj(dec.vals) and np.isrealobj(dec.vecs)
    assert dec.vals.shape == (net.n - 1,) and np.min(dec.vals) > 0.0
    assert np.max(np.abs(dec.vecs.sum(axis=0))) <= 1e-12 * np.max(np.abs(dec.vecs))


def test_trajectories_share_one_decomposition(fixtures_dir, monkeypatch):
    net = load_network(fixtures_dir / "ieee13_50hz.json")
    dyn = assemble_dynamics(net)
    grid = default_time_grid(measure_report(net), 100)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    rng = np.random.default_rng(5)
    for _ in range(8):
        i0 = rng.normal(size=net.n)
        homogeneous_solution(dyn, i0 - i0.mean(), grid)
    assert len(calls) == 1


def _random_output_network(rng, n, kind):
    """Connected network with lengths over 12 decades and one of seven output kinds.

    ``matched`` sets r_o/l_o = r/l, where every zero-sum mode decays at r/l;
    the ``_zeros`` kinds set about half of the output inductances to 0.
    """
    r = float(rng.uniform(0.2, 1.0))
    l = float(rng.uniform(0.5, 2.0)) * r / OMEGA_50
    if kind in ("uniform_low", "uniform_high", "matched"):
        l_out = float(rng.uniform(1e-3, 5e-3))
        f = {"uniform_low": rng.uniform(0.0, 0.7), "uniform_high": rng.uniform(1.5, 4.0),
             "matched": 1.0}[kind]
        r_out = float(f) * l_out * r / l
    else:
        l_out = rng.uniform(0.5e-3, 5e-3, n)
        if kind.endswith("_zeros"):
            l_out[rng.random(n) < 0.5] = 0.0
        r_out = rng.uniform(0.01, 0.5, n) if kind.startswith("per_node_lr") else 0.0
    edges = [(a, b, float(10.0 ** rng.uniform(-6.0, 6.0)))
             for a, b, _ in random_connected_edges(rng, n)]
    return make_network(edges, r=r, l=l, r_out=r_out, l_out=l_out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform_low", "uniform_high", "matched", "per_node_l",
                             "per_node_lr", "per_node_l_zeros", "per_node_lr_zeros"]))
def test_cached_modes_match_matrix_exponential(n, seed, kind):
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    net = _random_output_network(rng, n, kind)
    dyn = assemble_dynamics(net)
    A = np.linalg.solve(dyn.l_matrix, dyn.r_matrix)
    slowest = np.min(np.linalg.eigvals(A).real)
    t = np.linspace(0.0, 4.0 / slowest, 41)
    i0 = rng.standard_normal(n)
    i0 -= i0.mean()
    homogeneous_solution(dyn, np.zeros(n), t)  # fills the cached decomposition
    traj = homogeneous_solution(dyn, i0, t)
    for k in (10, 20, 30, 40):
        ref = expm(-A * t[k]) @ i0
        assert np.max(np.abs(traj.currents[:, k] - ref)) <= 1e-9 * np.linalg.norm(i0)
    fresh = homogeneous_solution(assemble_dynamics(net), i0, t)
    assert np.array_equal(fresh.currents, traj.currents)


def test_projection_warning(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")
    dyn = assemble_dynamics(net)
    with pytest.warns(RuntimeWarning, match="projecting"):
        traj = homogeneous_solution(dyn, np.array([1.0, 0.0]), _grid(0.01))
    assert traj.i0.sum() == pytest.approx(0.0, abs=1e-15)


def test_grid_validation(fixtures_dir):
    dyn = assemble_dynamics(load_network(fixtures_dir / "twonode.json"))
    for bad in (np.array([0.1, 0.2]), np.array([0.0, 0.0, 0.1]),
                np.array([[0.0, 0.1]])):
        with pytest.raises(ValueError, match="t_grid"):
            homogeneous_solution(dyn, np.array([1.0, -1.0]), bad)


# --- decay-rate fits ----------------------------------------------------------

def test_rates_single_mode(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")
    traj = homogeneous_solution(assemble_dynamics(net), np.array([1.0, -1.0]),
                                _grid(0.01))
    rates = fit_decay_rates(traj)
    assert rates.fastest == pytest.approx(700.0, rel=1e-6)
    assert rates.slowest == pytest.approx(700.0, rel=1e-6)


def test_rates_bracket_two_modes(fixtures_dir):
    # on a path with output inductors the extreme Laplacian modes decay at
    # different rates: 1/psi_nir (fastest) and psi_nrr (slowest)
    net = load_network(fixtures_dir / "path4.json").with_outputs(l_out=1e-3)
    rep = measure_report(net)
    dyn = assemble_dynamics(net)
    vecs = eig_symmetric(build_laplacian(net).matrix).eigenvectors
    i0 = vecs[:, 1] + 0.5 * vecs[:, 3]
    grid = np.linspace(0.0, 60.0 * rep.psi_nir, 600)  # long tail: pure slow mode
    traj = homogeneous_solution(dyn, i0, grid)
    rates = fit_decay_rates(traj)
    assert rates.fastest > rates.slowest
    assert rates.slowest == pytest.approx(rep.psi_nrr, rel=1e-6)
    assert rates.fastest <= (1.0 / rep.psi_nir) * (1 + 1e-3)
    assert rates.fastest >= rep.psi_nrr * (1 - 1e-12)


def test_rates_match_lstsq_fit(fixtures_dir):
    # reference: the SVD least-squares line through (t, log ||I||) per window
    net = load_network(fixtures_dir / "ieee13_50hz.json").with_outputs(l_out=2e-3)
    rep = measure_report(net)
    dyn = assemble_dynamics(net)
    rng = np.random.default_rng(11)
    for _ in range(5):
        i0 = rng.normal(size=net.n)
        traj = homogeneous_solution(dyn, i0 - i0.mean(), default_time_grid(rep))
        rates = fit_decay_rates(traj)
        t, y = traj.times, np.log(traj.norms)
        k = max(2, math.ceil(0.1 * t.size))
        for got, sl in ((rates.fastest, slice(None, k)), (rates.slowest, slice(-k, None))):
            A = np.column_stack([t[sl], np.ones(k)])
            want = -np.linalg.lstsq(A, y[sl], rcond=None)[0][0]
            assert got == pytest.approx(want, rel=1e-12)


def test_rates_reject_zero_trajectory(fixtures_dir):
    dyn = assemble_dynamics(load_network(fixtures_dir / "twonode.json"))
    traj = homogeneous_solution(dyn, np.zeros(2), _grid(0.01))
    with pytest.raises(ValueError, match="zero"):
        fit_decay_rates(traj)


def test_trajectory_csv(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")
    traj = homogeneous_solution(assemble_dynamics(net), np.array([1.0, -1.0]),
                                _grid(0.01, 5))
    buf = io.StringIO()
    trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,I_1,I_2,norm"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[3]) == pytest.approx(math.sqrt(2.0), rel=1e-15)
