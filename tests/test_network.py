import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (ParseError, PowerNetwork, ValidationError, build_laplacian,
                       kron_reduce_real, load_network, network_from_dict,
                       network_from_json, network_to_dict)
from netinduct import network
from netinduct.network import Outputs
from conftest import FIXTURES, make_network, random_connected_edges


def doc(nodes, edges, r=0.7, l=0.001, omega=2 * math.pi * 50):
    return {
        "frequency_rad_s": omega,
        "line": {"r_per_len": r, "l_per_len": l, "length_unit": "pu"},
        "nodes": [{"id": i, "role": "source", "r_out": 0.0, "l_out": 0.0} for i in nodes],
        "edges": [{"a": a, "b": b, "length": t} for a, b, t in edges],
    }


def save(net, path):
    path.write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def test_load_minimal_two_node():
    net = network_from_dict(doc([1, 2], [(1, 2, 2.0)]))
    assert net.n == 2 and net.topology.length == (2.0,)
    assert net.r_per_len == 0.7 and net.l_per_len == 0.001


def test_load_star_fixture(fixtures_dir):
    net = load_network(fixtures_dir / "star.json")
    assert net.n == 4
    assert sorted(net.topology.length) == [5.0, 7.0, 9.0]


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
    assert lap.eigenvalues is build_laplacian(swept).eigenvalues
    assert lap.lift is build_laplacian(swept).lift
    # a Kron reduction is the same kind of record, read-only as well, whether
    # it eliminates nodes or (every node a source) only reorders them
    with pytest.warns(RuntimeWarning, match="nothing to eliminate"):
        reordered = kron_reduce_real(lap, lap.node_ids()[::-1])
    for rec in (lap, kron_reduce_real(lap, net.source_ids()), reordered):
        for array in (rec.matrix, rec.eigenvalues, rec.lift):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    # a network built afresh assembles its own record
    assert build_laplacian(load_network(fixtures_dir / "ieee13_50hz.json")) is not lap


def test_output_and_pair_arrays_are_read_only(fixtures_dir):
    net = load_network(fixtures_dir / "ieee13_50hz.json")
    swept = net.with_outputs(r_out=0.3, l_out=2e-3)
    pairs = build_laplacian(net).pairs
    for array in (net.r_out_vector(), net.l_out_vector(), swept.r_out_vector(),
                  swept.l_out_vector(), pairs.a, pairs.b, pairs.i, pairs.j, pairs.edge):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # an output set copies what it is given, so it never aliases writable memory
    values = np.full(net.n, 0.1)
    built = PowerNetwork(net.topology, Outputs(values, values, net.omega))
    values[:] = 0.2
    assert np.all(built.r_out_vector() == 0.1) and np.all(built.l_out_vector() == 0.1)
    assert not np.shares_memory(swept.with_outputs(omega=100.0).l_out_vector(),
                                swept.l_out_vector())


@pytest.mark.parametrize("r_out, l_out", [([0.1, 0.2], [0.1]), ([], []), ([[0.1]], [[0.1]]),
                                           (["x"], [0.1])])
def test_malformed_output_set_rejected(r_out, l_out):
    with pytest.raises(ValidationError, match="^outputs: "):
        Outputs(r_out, l_out, 100.0)


def test_output_set_must_match_the_topology(fixtures_dir):
    net = load_network(fixtures_dir / "path4.json")
    with pytest.raises(ValidationError, match="^outputs: 3 values per field for 4 nodes"):
        PowerNetwork(net.topology, Outputs([0.0] * 3, [0.0] * 3, net.omega))


_OVERRIDES = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e3),
    st.sampled_from([0.0, -0.0, -1e-3, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), per_node=st.booleans(),
       r_out=_OVERRIDES, l_out=_OVERRIDES, omega=_OVERRIDES)
def test_with_outputs_validates_like_the_edited_document(n, seed, per_node, r_out, l_out, omega):
    # with_outputs validates the new output set only; the result must be what a
    # full load of the same document gives, error messages included
    rng = np.random.default_rng(seed)
    size = n if per_node else None
    base = make_network(random_connected_edges(rng, n),
                        r_out=rng.choice([0.0, 0.5], size=size) * rng.uniform(0, 1, size),
                        l_out=rng.choice([0.0, 1e-3], size=size) * rng.uniform(0, 1, size))
    doc = network_to_dict(base)
    for nd in doc["nodes"]:
        if r_out is not None:
            nd["r_out"] = r_out
        if l_out is not None:
            nd["l_out"] = l_out
    if omega is not None:
        doc["frequency_rad_s"] = omega

    def build(make):
        try:
            return make()
        except ValidationError as exc:
            return str(exc)

    want = build(lambda: network_from_dict(doc))
    got = build(lambda: base.with_outputs(r_out=r_out, l_out=l_out, omega=omega))
    valid = (all(v is None or 0.0 <= v < math.inf for v in (r_out, l_out))
             and (omega is None or 0.0 < omega < math.inf))
    assert isinstance(want, str) != valid
    assert got == want  # the identical message, or equal networks
    if not valid:
        return
    assert network_to_dict(got) == network_to_dict(want)
    assert np.array_equal(got.r_out_vector(), want.r_out_vector())
    assert np.array_equal(got.l_out_vector(), want.l_out_vector())
    assert got.uniform_outputs() == want.uniform_outputs()
    assert got.topology is base.topology
    assert build_laplacian(got) is build_laplacian(base)


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
    top = net.topology
    for a, b, t in zip(top.edge_a, top.edge_b, top.length):
        w = 1.0 / t
        a, b = index[a], index[b]
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
    top = net.topology
    B = np.zeros((net.n, len(top.length)))  # incidence matrix, either orientation
    for k, (a, b) in enumerate(zip(top.edge_a, top.edge_b)):
        B[index[a], k], B[index[b], k] = 1.0, -1.0
    expect = B @ np.diag(1.0 / np.array(top.length)) @ B.T
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
    save(net, out)
    assert load_network(out) == net
    # dict round trip too
    assert network_from_dict(json.loads(json.dumps(network_to_dict(net)))) == net


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d["line"].update(r_per_len=math.nan), "line.r_per_len"),
    (lambda d: d["line"].update(l_per_len=math.inf), "line.l_per_len"),
    (lambda d: d["edges"][0].update(length=-math.inf), "edges[0].length"),
    (lambda d: d["nodes"][0].update(l_out=math.nan), "nodes[0].l_out"),
    (lambda d: d["nodes"][1].update(r_out=math.inf), "nodes[1].r_out"),
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


@pytest.mark.parametrize("ids, bad", [([-2**63, 2**63 - 1], None), ([1, 2**63], 2**63),
                                      ([-2**63 - 1, 1], -2**63 - 1), ([2**64, 2**65], 2**64)],
                         ids=["extremes", "2**63", "-2**63-1", "both"])
def test_node_ids_must_fit_int64(ids, bad):
    d = doc(ids, [tuple(ids) + (1.0,)])
    if bad is None:
        assert network_from_dict(d).node_ids() == tuple(ids)
        return
    with pytest.raises(ValidationError, match=rf"^nodes: id {bad} is outside"):
        network_from_dict(d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), tree=st.booleans())
def test_lift_factors_the_laplacian(n, seed, tree):
    # S = P C: the ground row over the lower Cholesky factor of Lap[1:, 1:],
    # with lengths over 12 decades
    rng = np.random.default_rng(seed)
    edges = [(a, b, float(10.0 ** rng.uniform(-6.0, 6.0)))
             for a, b, _ in random_connected_edges(rng, n, 0.0 if tree else 0.3)]
    lap = build_laplacian(make_network(edges))
    S = lap.lift
    assert S.shape == (n, n - 1)
    assert np.array_equal(S[1:], np.tril(S[1:])) and np.all(np.diag(S[1:]) > 0.0)
    scale = np.max(np.abs(lap.matrix))
    assert np.max(np.abs(S @ S.T - lap.matrix)) <= 1e-14 * scale
    assert np.max(np.abs(S.sum(axis=0))) <= 1e-14 * np.max(np.abs(S))


def test_lift_is_built_once_and_read_only(fixtures_dir):
    net = load_network(fixtures_dir / "ieee13_50hz.json")
    S = build_laplacian(net).lift
    assert build_laplacian(net.with_outputs(l_out=1e-3)).lift is S
    with pytest.raises(ValueError, match="read-only"):
        S[0, 0] = 1.0


# --- Columnar parse and validation ----------------------------------------

def _reference_edge_outcome(doc):
    """The per-edge parse and validation of a document whose nodes and line
    are valid: ``(exception type, message)`` of the first fault, or None."""
    ids = sorted(nd["id"] for nd in doc["nodes"])
    rows = []
    for k, e in enumerate(doc["edges"]):
        ends = []
        for key in ("a", "b"):
            if key not in e:
                return ParseError, f"missing field {key!r}"
            value = e[key]
            if isinstance(value, bool) or not isinstance(value, int):
                return ParseError, f"edges[{k}].{key}: node id must be an integer, got {value!r}"
            ends.append(value)
        if "length" not in e:
            return ParseError, "missing field 'length'"
        try:
            rows.append((*ends, float(e["length"])))
        except (TypeError, ValueError) as exc:
            return ParseError, f"malformed value: {exc}"
    seen = set()
    for k, (a, b, t) in enumerate(rows):
        for key, value in (("a", a), ("b", b)):
            if value not in ids:
                return ValidationError, f"edges[{k}].{key}: unknown node id {value}"
        if a == b:
            return ValidationError, f"edges[{k}]: self-loop at node {a}"
        if frozenset((a, b)) in seen:
            return ValidationError, f"edges[{k}]: duplicate undirected edge {{{a}, {b}}}"
        seen.add(frozenset((a, b)))
        if not math.isfinite(t):
            return ValidationError, f"edges[{k}].length: must be a finite number, got {t!r}"
        if t <= 0:
            return ValidationError, f"edges[{k}].length: must be > 0, got {t}"
    reached, frontier = {ids[0]}, [ids[0]]
    while frontier:
        node = frontier.pop()
        for a, b, _ in rows:
            for x, y in ((a, b), (b, a)):
                if x == node and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    stray = [i for i in ids if i not in reached]
    if stray:
        return ValidationError, (f"nodes: graph is disconnected (node {stray[0]} "
                                 f"unreachable from node {ids[0]})")
    return None


def _edge_order_laplacian(doc):
    """Scatter-add of every edge's weight into L, in edge order."""
    index = {nid: k for k, nid in enumerate(sorted(nd["id"] for nd in doc["nodes"]))}
    a = np.array([index[e["a"]] for e in doc["edges"]], dtype=int)
    b = np.array([index[e["b"]] for e in doc["edges"]], dtype=int)
    gamma = np.array([1.0 / float(e["length"]) for e in doc["edges"]])
    L = np.zeros((len(index), len(index)))
    np.add.at(L, (a, a), gamma)
    np.add.at(L, (b, b), gamma)
    np.add.at(L, (a, b), -gamma)
    np.add.at(L, (b, a), -gamma)
    return L


FAULTS = ("unknown_id", "self_loop", "duplicate", "reversed_duplicate", "zero_length",
          "negative_length", "nan_length", "inf_length", "minus_inf_length", "bool_id",
          "float_id", "missing_key", "null_length", "dropped_edge")


def _inject(rng, doc, fault):
    edges, ids = doc["edges"], [nd["id"] for nd in doc["nodes"]]
    k = int(rng.integers(len(edges)))
    e, end = edges[k], str(rng.choice(["a", "b"]))
    if fault == "unknown_id":
        e[end] = max(ids) + 1 + int(rng.integers(3))
    elif fault == "self_loop":
        e["a" if end == "b" else "b"] = e[end]
    elif fault in ("duplicate", "reversed_duplicate"):
        a, b = (e["a"], e["b"]) if fault == "duplicate" else (e["b"], e["a"])
        edges.insert(int(rng.integers(len(edges) + 1)), {"a": a, "b": b, "length": 1.5})
    elif fault == "dropped_edge":
        del edges[k]
    elif fault in ("bool_id", "float_id"):
        e[end] = bool(rng.integers(2)) if fault == "bool_id" else e[end] + 0.5 * int(rng.integers(2))
    elif fault == "missing_key":
        del e[str(rng.choice(["a", "b", "length"]))]
    else:
        e["length"] = {"zero_length": 0.0, "negative_length": -float(rng.uniform(0.1, 9.0)),
                       "nan_length": math.nan, "inf_length": math.inf,
                       "minus_inf_length": -math.inf, "null_length": None}[fault]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1), complete=st.booleans(),
       faults=st.lists(st.sampled_from(FAULTS), max_size=2))
def test_columnar_parse_matches_per_edge_reference(n, seed, complete, faults):
    # the whole-column checks raise what a per-edge walk raises, first fault
    # first; a valid document assembles the edge-order Laplacian bit for bit
    rng = np.random.default_rng(seed)
    ids = sorted(int(i) for i in rng.choice(5 * n, size=n, replace=False) - n)
    pairs = ([(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)] if complete
             else [(a, b) for a, b, _ in random_connected_edges(  # trees half the time
                 rng, n, extra_edge_prob=float(rng.choice([0.0, 0.3])))])
    lengths = 10.0 ** rng.uniform(-3.0, 3.0, len(pairs))
    d = doc(rng.permutation(ids).tolist(), [
        (ids[b - 1], ids[a - 1], float(t)) if rng.random() < 0.5 else (ids[a - 1], ids[b - 1], float(t))
        for (a, b), t in zip(pairs, lengths)])
    for fault in faults:
        if d["edges"]:
            _inject(rng, d, fault)
    want = _reference_edge_outcome(d)
    try:
        net = network_from_dict(d)
    except (ParseError, ValidationError) as exc:
        assert (type(exc), str(exc)) == want
        return
    assert want is None
    top = net.topology
    assert list(zip(top.edge_a, top.edge_b, top.length)) == [
        (e["a"], e["b"], float(e["length"])) for e in d["edges"]]
    assert build_laplacian(net).matrix.tobytes() == _edge_order_laplacian(d).tobytes()


def test_connectivity_check_stops_once_spanned():
    # the first three edges span the four nodes, so the last three are never read
    read = []

    def column(values):
        for value in values:
            read.append(value)
            yield value

    a, b = (1, 2, 3, 1, 1, 2), (2, 3, 4, 3, 4, 4)
    assert network._disconnected_node((1, 2, 3, 4), column(a), b) is None
    assert read == [1, 2, 3]
    assert network._disconnected_node((1, 2, 3, 4), a[:2], b[:2]) == 4


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_save_load_save_is_byte_identical(tmp_path, name):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    net = load_network(FIXTURES / name)
    save(net, first)
    save(load_network(first), second)
    assert first.read_bytes() == second.read_bytes()
    # the rows written from the columns are the document's rows, nodes in id order
    fixture = json.loads((FIXTURES / name).read_text())
    saved = network_to_dict(net)
    assert saved["nodes"] == sorted(fixture["nodes"], key=lambda nd: nd["id"])
    assert saved["edges"] == fixture["edges"]


def test_edge_columns_must_have_one_length(fixtures_dir):
    top = load_network(fixtures_dir / "path4.json").topology
    with pytest.raises(ValidationError, match=r"^edges: 3 a ids, 2 b ids and 3 lengths$"):
        dataclasses.replace(top, edge_b=top.edge_b[:2])
