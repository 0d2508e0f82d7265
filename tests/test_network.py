import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (ParseError, ValidationError, build_laplacian,
                       load_network, network_from_dict, network_from_json,
                       network_to_dict, save_network)
from conftest import make_network, random_connected_edges


def doc(nodes, edges, r=0.7, l=0.001, omega=2 * math.pi * 50):
    return {
        "frequency_rad_s": omega,
        "line": {"r_per_len": r, "l_per_len": l, "length_unit": "pu"},
        "nodes": [{"id": i, "role": "source", "r_out": 0.0, "l_out": 0.0} for i in nodes],
        "edges": [{"a": a, "b": b, "length": t} for a, b, t in edges],
    }


def test_load_minimal_two_node():
    net = network_from_dict(doc([1, 2], [(1, 2, 2.0)]))
    assert net.n == 2 and net.m == 1
    assert net.edges[0].length == 2.0
    assert net.r_per_len == 0.7 and net.l_per_len == 0.001


def test_load_star_fixture(fixtures_dir):
    net = load_network(fixtures_dir / "star.json")
    assert net.n == 4 and net.m == 3
    assert sorted(e.length for e in net.edges) == [5.0, 7.0, 9.0]


def test_disconnected_node_named():
    with pytest.raises(ValidationError, match="node 3"):
        network_from_dict(doc([1, 2, 3], [(1, 2, 1.0)]))


def test_parse_errors():
    with pytest.raises(ParseError):
        network_from_json("{not json")
    with pytest.raises(ParseError, match="frequency_rad_s"):
        d = doc([1, 2], [(1, 2, 1.0)])
        del d["frequency_rad_s"]
        network_from_dict(d)
    with pytest.raises(ParseError):
        network_from_json("[1, 2]")


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d["edges"][0].update(length=-1.0), "edges[0].length"),
    (lambda d: d["nodes"][0].update(r_out=-0.1), "nodes[0].r_out"),
    (lambda d: d["nodes"][1].update(l_out=-1e-6), "nodes[1].l_out"),
    (lambda d: d["line"].update(r_per_len=0.0), "line.r_per_len"),
    (lambda d: d["line"].update(l_per_len=-2.0), "line.l_per_len"),
    (lambda d: d.update(frequency_rad_s=0.0), "frequency_rad_s"),
])
def test_validation_names_offending_field(mutate, field):
    d = doc([1, 2], [(1, 2, 1.0)])
    mutate(d)
    with pytest.raises(ValidationError) as exc:
        network_from_dict(d)
    assert field in str(exc.value)


def test_self_loop_and_duplicate_edge_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        network_from_dict(doc([1, 2], [(1, 2, 1.0), (2, 2, 1.0)]))
    with pytest.raises(ValidationError, match="duplicate"):
        network_from_dict(doc([1, 2], [(1, 2, 1.0), (2, 1, 3.0)]))


def test_bad_role_rejected():
    d = doc([1, 2], [(1, 2, 1.0)])
    d["nodes"][0]["role"] = "generator"
    with pytest.raises(ValidationError, match="role"):
        network_from_dict(d)


# --- Laplacian -------------------------------------------------------------

def test_laplacian_two_node():
    lap = build_laplacian(make_network([(1, 2, 2.0)]))
    assert np.allclose(lap.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=0)


def test_laplacian_record_is_shared_and_read_only(fixtures_dir):
    net = load_network(fixtures_dir / "ieee13_50hz.json")
    lap = build_laplacian(net)
    assert build_laplacian(net) is lap
    swept = net.with_outputs(r_out=0.3, l_out=2e-3, omega=100.0)
    assert build_laplacian(swept) is lap
    assert build_laplacian(swept.with_outputs(l_out=1e-3)) is lap
    assert lap.spectrum is build_laplacian(swept).spectrum
    for array in (lap.matrix, lap.weights, lap.spectrum.eigenvalues,
                  lap.spectrum.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # a network built afresh assembles its own record
    assert build_laplacian(load_network(fixtures_dir / "ieee13_50hz.json")) is not lap


def test_laplacian_complete4_unit():
    edges = [(a, b, 1.0) for a in range(1, 5) for b in range(a + 1, 5)]
    L = build_laplacian(make_network(edges)).matrix
    assert np.allclose(np.diag(L), 3.0)
    off = L - np.diag(np.diag(L))
    assert np.allclose(off[off != 0], -1.0)


def test_laplacian_star_diagonals(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "star.json"))
    expect = [1 / 5, 1 / 7, 1 / 9, 1 / 5 + 1 / 7 + 1 / 9]
    assert np.allclose(np.diag(lap.matrix), expect, rtol=0, atol=1e-15)


def _edgewise_laplacian(net):
    index = {nid: k for k, nid in enumerate(net.node_ids())}
    L = np.zeros((net.n, net.n))
    for e in net.edges:
        w = 1.0 / e.length
        a, b = index[e.a], index[e.b]
        L[a, a] += w
        L[b, b] += w
        L[a, b] -= w
        L[b, a] -= w
    return L


ALL_FIXTURES = ["twonode.json", "bare.json", "path4.json", "complete4.json",
                "star.json", "ieee13_50hz.json", "ieee13_60hz.json"]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_laplacian_matches_edgewise_assembly(fixtures_dir, name):
    net = load_network(fixtures_dir / name)
    lap = build_laplacian(net)
    assert np.max(np.abs(lap.matrix - _edgewise_laplacian(net))) <= 1e-12
    assert np.max(np.abs(lap.matrix.sum(axis=1))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_laplacian_equals_incidence_product(n, seed):
    # sparse node ids, either edge orientation, lengths over six decades
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * n, size=n, replace=False))
    edges = [(int(ids[b - 1]), int(ids[a - 1]), t) if rng.random() < 0.5
             else (int(ids[a - 1]), int(ids[b - 1]), t)
             for a, b, t in random_connected_edges(rng, n, length_range=(1e-3, 1e3))]
    net = make_network(edges)
    lap = build_laplacian(net)
    index = {nid: k for k, nid in enumerate(net.node_ids())}
    B = np.zeros((net.n, net.m))  # incidence matrix, either orientation
    for k, e in enumerate(net.edges):
        B[index[e.a], k], B[index[e.b], k] = 1.0, -1.0
    expect = B @ np.diag(lap.weights) @ B.T
    assert np.max(np.abs(lap.matrix - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_laplacian_psd_random_vectors(fixtures_dir, name):
    net = load_network(fixtures_dir / name)
    L = build_laplacian(net).matrix
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=net.n)
        assert x @ L @ x >= -1e-12 * (x @ x)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialization_round_trip(fixtures_dir, tmp_path, name):
    net = load_network(fixtures_dir / name)
    out = tmp_path / "net.json"
    save_network(net, out)
    assert load_network(out) == net
    # dict round trip too
    assert network_from_dict(json.loads(json.dumps(network_to_dict(net)))) == net


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d["line"].update(r_per_len=math.nan), "line.r_per_len"),
    (lambda d: d["line"].update(l_per_len=math.inf), "line.l_per_len"),
    (lambda d: d["edges"][0].update(length=-math.inf), "edges[0].length"),
    (lambda d: d["nodes"][0].update(l_out=math.nan), "nodes[0].l_out"),
    (lambda d: d.update(frequency_rad_s=math.inf), "frequency_rad_s"),
])
def test_non_finite_numbers_rejected(mutate, field):
    # json writes these as NaN / Infinity, which parse and pass every sign check
    d = doc([1, 2], [(1, 2, 1.0)])
    mutate(d)
    text = json.dumps(d)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValidationError, match=re.escape(field)):
        network_from_json(text)


@pytest.mark.parametrize("bad", [1.7, 2.0, True, "2", None])
def test_non_integer_ids_rejected(bad):
    nodes = doc([1, 2], [(1, 2, 1.0)])
    nodes["nodes"][1]["id"] = bad
    with pytest.raises(ParseError, match=r"nodes\[1\]\.id"):
        network_from_dict(nodes)
    edges = doc([1, 2], [(1, 2, 1.0)])
    edges["edges"][0]["b"] = bad
    with pytest.raises(ParseError, match=r"edges\[0\]\.b"):
        network_from_dict(edges)
