import io
import math

import numpy as np
import pytest

from netinduct import (SingularMatrixError, ValidationError, WeightedLaplacian,
                       algebraic_connectivity, angle_table_csv, build_laplacian,
                       eig_symmetric, kron_reduce_real, line_angles, load_network,
                       phasor_reduce)
from conftest import make_network, random_connected_edges


# --- real reduction ----------------------------------------------------------

def test_series_path_collapses(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    red = kron_reduce_real(lap, [1, 3])
    # two unit lines in series = one line of length 2
    assert np.allclose(red.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
    assert red.node_ids() == (1, 3)
    assert red.node_map == {1: 0, 3: 1}


def test_all_sources_is_identity_reduction(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    with pytest.warns(RuntimeWarning, match="nothing to eliminate"):
        red = kron_reduce_real(lap, [1, 2, 3])
    assert np.array_equal(red.matrix, lap.matrix)


def test_ieee13_reduced_connectivity(fixtures_dir):
    for name in ("ieee13_50hz.json", "ieee13_60hz.json"):
        net = load_network(fixtures_dir / name)
        red = kron_reduce_real(build_laplacian(net), list(net.source_ids()))
        lam2 = algebraic_connectivity(eig_symmetric(red.matrix)).value
        assert lam2 == pytest.approx(2.64, abs=1e-9)


def test_two_step_reduction_matches_one_step():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(5, 9))
        lap = build_laplacian(make_network(random_connected_edges(rng, n)))
        one = kron_reduce_real(lap, [1, 2, 3])
        mid = kron_reduce_real(lap, [1, 2, 3, 4])
        mid_lap = WeightedLaplacian(mid.matrix, np.array([]), mid.node_ids())
        two = kron_reduce_real(mid_lap, [1, 2, 3])
        assert np.max(np.abs(one.matrix - two.matrix)) <= 1e-10


def test_reduced_matrix_is_laplacian():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        lap = build_laplacian(make_network(random_connected_edges(rng, n)))
        red = kron_reduce_real(lap, [1, 2])
        M = red.matrix
        assert np.max(np.abs(M.sum(axis=1))) <= 1e-12 * np.max(np.abs(M))
        assert np.allclose(M, M.T)
        off = M - np.diag(np.diag(M))
        assert np.max(off) <= 1e-12 * np.max(np.abs(M))
        assert np.all(np.linalg.eigvalsh(M) >= -1e-12 * np.max(np.abs(M)))


def test_load_current_offset(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    red = kron_reduce_real(lap, [1, 3], load_currents=np.array([4.0]),
                           r_per_len=0.7)
    # single eliminated node: offset = -r * L_SL * i_2 / L_22 = 0.7 * 4 / 2
    assert np.allclose(red.offset, [1.4, 1.4], atol=1e-14)


def test_real_reduction_errors(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    with pytest.raises(ValidationError, match="unknown node ids"):
        kron_reduce_real(lap, [1, 9])
    with pytest.raises(ValidationError, match="empty"):
        kron_reduce_real(lap, [])
    with pytest.raises(ValidationError, match="at least 2"):
        kron_reduce_real(lap, [3])
    with pytest.raises(ValueError, match="r_per_len"):
        kron_reduce_real(lap, [1, 3], load_currents=np.array([1.0]))
    with pytest.raises(ValidationError, match="load_currents"):
        kron_reduce_real(lap, [1, 3], load_currents=np.array([1.0, 2.0]),
                         r_per_len=0.7)


def test_disconnected_load_island_raises():
    # hand-built two-component Laplacian (the network loader forbids these)
    M = np.array([[1.0, -1.0, 0.0, 0.0],
                  [-1.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, -1.0],
                  [0.0, 0.0, -1.0, 1.0]])
    lap = WeightedLaplacian(M, np.array([1.0, 1.0]), (1, 2, 3, 4))
    with pytest.raises(SingularMatrixError, match="load block"):
        kron_reduce_real(lap, [1, 2])


# --- phasor reduction --------------------------------------------------------

def test_two_node_branch_impedance(fixtures_dir):
    # one line of length tau behind two output inductors in series:
    # z = tau (r + j w l) + 2 j w l_o
    net = load_network(fixtures_dir / "twonode.json")
    red = phasor_reduce(net, l_out=1.5e-3)
    z = 1.0 / (-red.matrix[0, 1])
    oracle = 2.0 * (0.7 + 1j * net.omega * 0.001) + 2j * net.omega * 1.5e-3
    assert z == pytest.approx(oracle, rel=1e-12)


def test_complete_graph_angles(fixtures_dir):
    # a complete graph reduces to a complete graph with branch impedance
    # r tau + j w (n l_o + l tau); all pairs share the same angle
    net = load_network(fixtures_dir / "complete4.json")
    red = phasor_reduce(net)
    records = line_angles(red, net)
    oracle = math.atan2(net.omega * (4 * 0.002 + 0.001), 0.7)
    for rec in records:
        assert rec.klass == "physical"
        assert rec.theta_rad == pytest.approx(oracle, rel=1e-12)
        assert rec.impedance.real > 0.0 and rec.impedance.imag > 0.0
    assert oracle == pytest.approx(1.3281019225481796, abs=1e-15)


def test_small_output_inductance_limit(fixtures_dir):
    # l_o -> 0: the reduction tends to y_line * Laplacian, so adjacent pairs
    # recover the bare line admittance and non-adjacent pairs vanish
    net = load_network(fixtures_dir / "path4.json")
    red = phasor_reduce(net, l_out=1e-12)
    y_line_per_edge = red.y_line / 5.0  # edge length 5
    adj = -red.matrix[0, 1]
    assert adj == pytest.approx(y_line_per_edge, rel=1e-6)
    far = -red.matrix[0, 3]
    assert abs(far) <= 1e-6 * abs(adj)


def test_virtual_line_classification(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json")
    records = line_angles(phasor_reduce(net, l_out=1e-3), net)
    by_pair = {(rec.i, rec.j): rec for rec in records}
    assert by_pair[(1, 2)].klass == "physical"
    assert by_pair[(2, 3)].klass == "physical"
    assert by_pair[(1, 3)].klass == "virtual"
    assert by_pair[(1, 4)].klass == "virtual"


def test_angle_conventions_consistent(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json")
    records = line_angles(phasor_reduce(net, l_out=1e-3), net)
    for rec in records:
        if rec.klass == "absent":
            continue
        # the principal angle agrees with the two-argument one modulo pi
        assert math.sin(rec.theta_rad - rec.theta_principal_rad) == pytest.approx(
            0.0, abs=1e-12)


def test_reduced_admittance_row_sums(fixtures_dir):
    for name in ("path4.json", "complete4.json", "ieee13_50hz.json"):
        net = load_network(fixtures_dir / name)
        red = phasor_reduce(net, l_out=2e-3)
        scale = np.max(np.abs(red.matrix))
        assert np.max(np.abs(red.matrix.sum(axis=1))) <= 1e-9 * scale


def test_phasor_requires_uniform_positive_inductance(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")  # zero outputs
    with pytest.raises(ValidationError, match="uniform output inductance"):
        phasor_reduce(net)
    with pytest.raises(ValidationError, match="l_out"):
        phasor_reduce(net, l_out=0.0)
    non = make_network([(1, 2, 1.0)], l_out=np.array([1e-3, 2e-3]))
    with pytest.raises(ValidationError, match="uniform output inductance"):
        phasor_reduce(non)


def test_angle_table_csv(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json")
    records = line_angles(phasor_reduce(net, l_out=1e-3), net)
    buf = io.StringIO()
    angle_table_csv(records, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,j,class,R_branch,X_branch,theta_rad"
    assert len(lines) == 1 + 6  # all unordered pairs of 4 nodes
    first = lines[1].split(",")
    assert first[:3] == ["1", "2", "physical"]
    assert float(first[5]) == records[0].theta_rad
