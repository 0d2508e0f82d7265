"""Seeded network documents for the benchmark workloads.

Every input is a pure function of ``(seed, workload stream, sub-stream, index)``:
job ``i`` of a workload draws from its own ``numpy.random.Generator``, so the
same seed gives byte-identical JSON documents in any order and in any
process.

The job mix is a fixed schedule, not drawn at random: each workload gives
every period of jobs the same mix of network sizes, families and output
kinds (and, for design, source counts and operations), and a run holds a
fixed number of whole periods, so every run sees the same combinations in
the same proportions however fast the machine is.  The seed draws the rest (graph
structure, lengths, sources, line and output parameters), so every job is
still a network that has not been seen before.  Job cost grows with the
cube of the size, so a size drawn at random, or a run that ends part-way
through its schedule, would move the end-to-end figures from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

FAMILIES = ("mesh", "feeder", "star", "complete")
# uniform_low / uniform_high: the two r_o/l_o regimes (below and above r/l).
OUTPUT_KINDS = ("uniform_low", "uniform_high", "per_node_l", "per_node_lr")
OMEGAS = (2.0 * math.pi * 50.0, 2.0 * math.pi * 60.0)
COMPLETE_MAX_N = 24  # m = n(n-1)/2 edges; the dense Laplacian assembly is O(n m^2)

# Sub-stream keys: timed jobs and warm-up inputs never share a generator.
TIMED, WARMUP, FEEDER, GRID = 0, 1, 2, 3


def rng_for(seed: int, stream: int, sub: int, index: int) -> np.random.Generator:
    """The generator of one input; ``stream`` tells the workloads apart."""
    return np.random.default_rng([seed, stream, sub, index])


# ---------------------------------------------------------------------------
# Graphs: edge lists over node ids 1..n

def _tree(rng: np.random.Generator, n: int, chain_bias: float) -> list[tuple[int, int]]:
    """Random recursive tree; with ``chain_bias`` the new node hangs off its predecessor."""
    edges = []
    for k in range(2, n + 1):
        parent = k - 1 if rng.random() < chain_bias else int(rng.integers(1, k))
        edges.append((parent, k))
    return edges


def graph_edges(rng: np.random.Generator, family: str, n: int) -> list[tuple[int, int]]:
    if family == "feeder":  # radial: a trunk with laterals
        return _tree(rng, n, chain_bias=0.7)
    if family == "mesh":  # spanning tree plus about n/3 extra ties
        edges = _tree(rng, n, chain_bias=0.0)
        present = {frozenset(e) for e in edges}
        for _ in range(n // 3):
            a, b = (int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
            if frozenset((a, b)) not in present:
                present.add(frozenset((a, b)))
                edges.append((min(a, b), max(a, b)))
        return edges
    if family == "star":
        hub = int(rng.integers(1, n + 1))
        return [(min(hub, k), max(hub, k)) for k in range(1, n + 1) if k != hub]
    if family == "complete":
        return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Documents

def _line(rng: np.random.Generator) -> tuple[float, float, float]:
    """(r_per_len, l_per_len, omega) with line X/R between 0.5 and 2."""
    omega = OMEGAS[int(rng.integers(0, 2))]
    r = float(rng.uniform(0.2, 1.0))
    l = float(rng.uniform(0.5, 2.0)) * r / omega
    return r, l, omega


def _outputs(rng: np.random.Generator, kind: str, n: int, r: float, l: float):
    """Per-node (r_out, l_out) lists for one output kind."""
    if kind in ("uniform_low", "uniform_high"):
        l_o = float(rng.uniform(1e-3, 5e-3))
        # r_o/l_o is a factor below or above the line's r/l, away from the degenerate tie
        f = float(rng.uniform(0.0, 0.7)) if kind == "uniform_low" else float(rng.uniform(1.5, 4.0))
        r_o = f * l_o * r / l
        return [r_o] * n, [l_o] * n
    l_out = [float(x) for x in rng.uniform(0.5e-3, 5e-3, n)]
    if kind == "per_node_l":
        return [0.0] * n, l_out
    if kind == "per_node_lr":
        return [float(x) for x in rng.uniform(0.01, 0.5, n)], l_out
    raise ValueError(f"unknown output kind {kind!r}")


def network_doc(rng: np.random.Generator, family: str, n: int, kind: str,
                sources: list[int] | None = None) -> dict:
    edges = graph_edges(rng, family, n)
    r, l, omega = _line(rng)
    r_out, l_out = _outputs(rng, kind, n, r, l)
    src = set(range(1, n + 1) if sources is None else sources)
    return {
        "frequency_rad_s": omega,
        "line": {"r_per_len": r, "l_per_len": l, "length_unit": "km"},
        "nodes": [{"id": i, "role": "source" if i in src else "load",
                   "r_out": r_out[i - 1], "l_out": l_out[i - 1]} for i in range(1, n + 1)],
        "edges": [{"a": a, "b": b, "length": float(rng.uniform(0.2, 2.0))} for a, b in edges],
    }


def dumps(doc: dict) -> str:
    """Canonical JSON text (round-trip floats, fixed key order)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def pick_sources(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(int(x) for x in rng.choice(np.arange(1, n + 1), k, replace=False))


def size_ladder(bounds: tuple[int, int], slots: int) -> tuple[int, ...]:
    """``slots`` network sizes spaced geometrically from ``bounds[0]`` to ``bounds[1]``."""
    lo, hi = bounds
    return tuple(int(round(lo * (hi / lo) ** (j / (slots - 1)))) for j in range(slots))


def inputs_digest(payloads) -> str:
    """SHA-256 over the canonical text of a sequence of job payloads."""
    h = hashlib.sha256()
    for p in payloads:
        h.update(dumps(p).encode())
        h.update(b"\n")
    return h.hexdigest()
