import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (AngleTable, BranchRecord, SingularMatrixError, ValidationError,
                       WeightedLaplacian, algebraic_connectivity, angle_table_csv,
                       build_laplacian, eig_symmetric, kron_reduce_real, line_angles,
                       load_network, phasor_reduce)
from netinduct.kron import EDGE_EPS_SCALE
from conftest import make_network, random_connected_edges


# --- real reduction ----------------------------------------------------------

def test_series_path_collapses(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    red = kron_reduce_real(lap, [1, 3])
    # two unit lines in series = one line of length 2
    assert np.allclose(red.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
    assert red.node_ids() == (1, 3)


def test_all_sources_is_identity_reduction(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    with pytest.warns(RuntimeWarning, match="nothing to eliminate"):
        red = kron_reduce_real(lap, [1, 2, 3])
    assert np.array_equal(red.matrix, lap.matrix)
    # the record keeps the order the sources are given in
    with pytest.warns(RuntimeWarning, match="nothing to eliminate"):
        red = kron_reduce_real(lap, [3, 1, 2])
    assert red.node_ids() == (3, 1, 2)
    assert np.array_equal(red.matrix, lap.matrix[np.ix_([2, 0, 1], [2, 0, 1])])


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
        two = kron_reduce_real(mid, [1, 2, 3])
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), k=st.integers(2, 12))
def test_reduction_is_the_block_schur_complement(n, seed, k):
    # lengths over six decades make the load block ill-conditioned; any
    # elimination order then meets the reference only to about
    # eps cond(L_LL) max|L| (over 3000 such graphs, at most 0.25 of that
    # for this reduction and 0.7 for loads eliminated in reverse order)
    rng = np.random.default_rng(seed)
    edges = [(a, b, float(10.0 ** rng.uniform(-3.0, 3.0)))
             for a, b, _ in random_connected_edges(rng, n)]
    lap = build_laplacian(make_network(edges))
    sources = [int(i) for i in rng.permutation(n)[:min(k, n)] + 1]  # ids are 1..n
    s = [lap.ids.index(i) for i in sources]
    loads = [j for j in range(n) if j not in s]
    L = lap.matrix
    expect, cond = L[np.ix_(s, s)], 1.0
    if loads:
        L_LL = L[np.ix_(loads, loads)]
        expect = expect - L[np.ix_(s, loads)] @ np.linalg.solve(L_LL, L[np.ix_(loads, s)])
        cond = np.linalg.cond(L_LL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all nodes are sources
        red = kron_reduce_real(lap, sources)
    assert red.node_ids() == tuple(sources)
    tol = 10 * np.finfo(float).eps * cond * np.max(np.abs(L))
    assert np.max(np.abs(red.matrix - expect)) <= tol


def test_real_reduction_errors(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "bare.json"))
    with pytest.raises(ValidationError, match="unknown node ids"):
        kron_reduce_real(lap, [1, 9])
    with pytest.raises(ValidationError, match="empty"):
        kron_reduce_real(lap, [])
    with pytest.raises(ValidationError, match="at least 2"):
        kron_reduce_real(lap, [3])


def test_disconnected_load_island_raises():
    # hand-built two-component Laplacian (the network loader forbids these)
    M = np.array([[1.0, -1.0, 0.0, 0.0],
                  [-1.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, -1.0],
                  [0.0, 0.0, -1.0, 1.0]])
    lap = WeightedLaplacian(M, (1, 2, 3, 4))
    with pytest.raises(SingularMatrixError, match="load block"):
        kron_reduce_real(lap, [1, 2])


# --- phasor reduction --------------------------------------------------------

def test_two_node_branch_impedance(fixtures_dir):
    # one line of length tau behind two output inductors in series:
    # z = tau (r + j w l) + 2 j w l_o
    net = load_network(fixtures_dir / "twonode.json")
    red = phasor_reduce(net.with_outputs(l_out=1.5e-3))
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
    red = phasor_reduce(net.with_outputs(l_out=1e-12))
    y_line = 1.0 / (net.r_per_len + 1j * net.omega * net.l_per_len)
    y_line_per_edge = y_line / 5.0  # edge length 5
    adj = -red.matrix[0, 1]
    assert adj == pytest.approx(y_line_per_edge, rel=1e-6)
    far = -red.matrix[0, 3]
    assert abs(far) <= 1e-6 * abs(adj)


def test_virtual_line_classification(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json").with_outputs(l_out=1e-3)
    records = line_angles(phasor_reduce(net), net)
    by_pair = {(rec.i, rec.j): rec for rec in records}
    assert by_pair[(1, 2)].klass == "physical"
    assert by_pair[(2, 3)].klass == "physical"
    assert by_pair[(1, 3)].klass == "virtual"
    assert by_pair[(1, 4)].klass == "virtual"


def test_angle_conventions_consistent(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json").with_outputs(l_out=1e-3)
    records = line_angles(phasor_reduce(net), net)
    for rec in records:
        if rec.klass == "absent":
            continue
        # the principal angle agrees with the two-argument one modulo pi
        assert math.sin(rec.theta_rad - rec.theta_principal_rad) == pytest.approx(
            0.0, abs=1e-12)


def test_reduced_admittance_row_sums(fixtures_dir):
    for name in ("path4.json", "complete4.json", "ieee13_50hz.json"):
        net = load_network(fixtures_dir / name)
        red = phasor_reduce(net.with_outputs(l_out=2e-3))
        scale = np.max(np.abs(red.matrix))
        assert np.max(np.abs(red.matrix.sum(axis=1))) <= 1e-9 * scale


def test_phasor_rejects_output_resistance(fixtures_dir):
    # the phasor model carries inductive outputs only; a nonzero r_out would
    # otherwise be ignored without a word
    net = load_network(fixtures_dir / "path4.json").with_outputs(r_out=0.5, l_out=1e-3)
    with pytest.raises(ValidationError, match="r_out"):
        phasor_reduce(net)
    one = make_network([(1, 2, 1.0), (2, 3, 1.0)], r_out=np.array([0.0, 0.1, 0.0]),
                       l_out=1e-3)
    with pytest.raises(ValidationError, match="r_out"):
        phasor_reduce(one)


def _cond_guard_network(length: float):
    return make_network([(1, 2, length), (2, 3, length), (3, 4, 2 * length), (2, 4, length)])


@pytest.mark.parametrize("length", [1e-6, 1e-3, 1.0])
def test_singularity_guard_matches_condition_number(length):
    # M = I + c Lap is normal, so max|1 + c lam| / min|1 + c lam| is cond(M):
    # the guard raises exactly where np.linalg.cond(M) > 1e14 did (on 1e-6
    # lines from l_out ~ 1e6 on)
    tripped = kept = 0
    for l_out in np.geomspace(1e-6, 1e12, 37):
        net = _cond_guard_network(length).with_outputs(l_out=float(l_out))
        y_o = 1.0 / (1j * net.omega * l_out)
        y_l = 1.0 / (net.r_per_len + 1j * net.omega * net.l_per_len)
        M = np.eye(net.n) + (y_l / y_o) * build_laplacian(net).matrix
        if np.linalg.cond(M) > 1e14:
            tripped += 1
            with pytest.raises(SingularMatrixError, match="singular"):
                phasor_reduce(net)
        else:
            kept += 1
            phasor_reduce(net)
    assert kept > 0 and tripped > 0


def _loop_angles(red, original):
    """The per-pair loop that line_angles replaced, kept as its oracle."""
    ids = red.node_ids
    top = original.topology
    original_edges = {frozenset(e) for e in zip(top.edge_a, top.edge_b)}
    eps = EDGE_EPS_SCALE * np.max(np.abs(red.matrix))
    records = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            adm = -red.matrix[a, b]
            if abs(adm) < eps:
                records.append(BranchRecord(i, j, complex(adm), complex("nan"),
                                            math.nan, math.nan, "absent"))
                continue
            z = 1.0 / adm
            principal = math.atan(z.imag / z.real) if z.real != 0.0 else math.copysign(
                math.pi / 2, z.imag)
            klass = "physical" if frozenset((i, j)) in original_edges else "virtual"
            records.append(BranchRecord(i, j, complex(adm), complex(z),
                                        math.atan2(z.imag, z.real), principal, klass))
    return records


def _assert_table_matches_loop(net) -> AngleTable:
    red = phasor_reduce(net)
    table = line_angles(red, net)
    want = _loop_angles(red, net)
    assert len(table) == len(want)
    assert table.i.tolist() == [rec.i for rec in want]
    assert table.j.tolist() == [rec.j for rec in want]
    assert table.klass.tolist() == [rec.klass for rec in want]
    assert np.array_equal(table.admittance, [rec.admittance for rec in want])
    for column in ("impedance", "theta_rad", "theta_principal_rad"):
        got = getattr(table, column)
        ref = np.array([getattr(rec, column) for rec in want])
        assert np.array_equal(np.isnan(got), np.isnan(ref)), column
        finite = ~np.isnan(ref)
        scale = np.abs(ref[finite]) if column == "impedance" else 1.0
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * scale), column
    for k, (row, rec) in enumerate(zip(table, want)):
        assert repr(row) == repr(table[k])  # NaN fields compare unequal
        assert (row.i, row.j, row.klass) == (rec.i, rec.j, rec.klass)
        assert type(row.i) is int and type(row.klass) is str
        assert row.admittance == rec.admittance
        for got, ref in ((row.theta_rad, rec.theta_rad),
                         (row.theta_principal_rad, rec.theta_principal_rad)):
            assert (math.isnan(got) and math.isnan(ref)) or abs(got - ref) <= 1e-12
    return table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 14), seed=st.integers(0, 2**32 - 1),
       log_l_out=st.floats(-6.0, -1.0))
def test_angle_table_matches_per_pair_loop(n, seed, log_l_out):
    rng = np.random.default_rng(seed)
    edges = random_connected_edges(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.5)),
                                   length_range=(0.1, 10.0))
    net = make_network(edges, r=float(rng.uniform(0.1, 2.0)), l=float(rng.uniform(1e-3, 2e-2)),
                       l_out=10.0 ** log_l_out)
    _assert_table_matches_loop(net)


def test_angle_table_absent_pairs_match_loop():
    # a long path at a tiny output inductance: far pairs fall below the threshold
    net = make_network([(k, k + 1, 1.0) for k in range(1, 10)], l_out=1e-6)
    table = _assert_table_matches_loop(net)
    assert {"physical", "virtual", "absent"} <= set(table.klass.tolist())


def test_absent_below_1e9_of_largest_entry():
    # the documented threshold, written out: the 7 pairs within a decade above
    # it stay virtual, where a coarser threshold would call them absent
    net = make_network([(k, k + 1, 1.0) for k in range(1, 10)], l_out=1e-6)
    red = phasor_reduce(net)
    table = line_angles(red, net)
    ratio = np.abs(table.admittance) / np.max(np.abs(red.matrix))
    assert np.array_equal(table.klass == "absent", ratio < 1e-9)
    assert np.count_nonzero((ratio >= 1e-9) & (ratio < 1e-8)) == 7


def test_angle_table_is_a_sequence_of_rows(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json").with_outputs(l_out=1e-3)
    table = line_angles(phasor_reduce(net), net)
    assert len(table) == 6 and len(list(table)) == 6
    assert table[-1] == table[5] == list(table)[-1]  # no absent pair here
    assert (table[0].i, table[0].j) == (1, 2)
    with pytest.raises(IndexError):
        table[6]


def test_phasor_requires_uniform_positive_inductance(fixtures_dir):
    net = load_network(fixtures_dir / "twonode.json")  # zero outputs
    with pytest.raises(ValidationError, match="uniform output inductance"):
        phasor_reduce(net)
    non = make_network([(1, 2, 1.0)], l_out=np.array([1e-3, 2e-3]))
    with pytest.raises(ValidationError, match="uniform output inductance"):
        phasor_reduce(non)


def test_angle_table_csv(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json").with_outputs(l_out=1e-3)
    records = line_angles(phasor_reduce(net), net)
    buf = io.StringIO()
    angle_table_csv(records, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,j,class,R_branch,X_branch,theta_rad"
    assert len(lines) == 1 + 6  # all unordered pairs of 4 nodes
    first = lines[1].split(",")
    assert first[:3] == ["1", "2", "physical"]
    assert float(first[5]) == records[0].theta_rad
