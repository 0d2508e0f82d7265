import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from netinduct import PowerNetwork, network, network_from_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

OMEGA_50 = 2 * math.pi * 50


LINALG_CALLS = ("eigh", "eigvalsh", "eig", "svd", "cond", "solve", "cholesky", "inv")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def count_linalg(monkeypatch) -> Counter:
    """Counts calls of the ``numpy.linalg`` entry points, Laplacian assemblies
    and topology validations.

    Only calls made through ``np.linalg.<name>`` are seen: the ``svd`` inside
    ``cond`` counts as a ``cond``.  Assemblies count under ``"laplacian"``,
    validations under ``"topology"``.
    """
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in LINALG_CALLS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(network, "_assemble_laplacian",
                        counted("laplacian", network._assemble_laplacian))
    monkeypatch.setattr(network, "_validate_topology",
                        counted("topology", network._validate_topology))
    return counts


def make_network(edges, r=1.0, l=0.01, omega=OMEGA_50, r_out=0.0, l_out=0.0,
                 roles=None, unit="pu") -> PowerNetwork:
    """Network from (a, b, length) triples; scalar or per-node outputs."""
    ids = sorted({int(i) for e in edges for i in e[:2]})
    n = len(ids)
    r_out = np.broadcast_to(np.asarray(r_out, dtype=float), (n,))
    l_out = np.broadcast_to(np.asarray(l_out, dtype=float), (n,))
    roles = roles or {}
    return network_from_dict({
        "frequency_rad_s": omega,
        "line": {"r_per_len": r, "l_per_len": l, "length_unit": unit},
        "nodes": [{"id": i, "role": roles.get(i, "source"), "r_out": r_out[k], "l_out": l_out[k]}
                  for k, i in enumerate(ids)],
        "edges": [{"a": int(a), "b": int(b), "length": t} for a, b, t in edges],
    })


def random_connected_edges(rng: np.random.Generator, n: int,
                           extra_edge_prob: float = 0.3,
                           length_range=(1.0, 10.0)):
    """Random spanning tree plus extra edges, lengths uniform in range."""
    lo, hi = length_range
    edges = []
    order = rng.permutation(n) + 1
    for k in range(1, n):
        prev = order[rng.integers(0, k)]
        edges.append((int(min(prev, order[k])), int(max(prev, order[k])),
                      float(rng.uniform(lo, hi))))
    present = {(a, b) for a, b, _ in edges}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in present and rng.random() < extra_edge_prob:
                edges.append((a, b, float(rng.uniform(lo, hi))))
    return edges


def wide_spread_tree_edges(rng: np.random.Generator, n: int):
    """Random tree over n nodes, lengths log-uniform over [1e-6, 1e6] (12 decades)."""
    return [(a, b, float(10.0 ** rng.uniform(-6.0, 6.0)))
            for a, b, _ in random_connected_edges(rng, n, extra_edge_prob=0.0)]


def random_uniform_network(rng: np.random.Generator, n: int) -> PowerNetwork:
    """Random connected network with uniform outputs in the r_o/l_o < r/l regime."""
    edges = random_connected_edges(rng, n)
    r = float(rng.uniform(0.5, 1.5))
    l = float(rng.uniform(0.002, 0.02))
    l_out = float(rng.uniform(1e-3, 1e-2))
    r_out = float(rng.uniform(0.0, 0.8)) * l_out * (r / l)
    return make_network(edges, r=r, l=l, r_out=r_out, l_out=l_out)
