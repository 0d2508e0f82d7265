"""Power network model: loading, validation and Laplacian assembly.

A network is an undirected connected graph of inverter nodes joined by
homogeneous distribution lines.  Line resistance and inductance are given
per length unit; each edge carries a physical length.  Every node may have
a series output impedance (resistance + inductance) between its source and
its grid connection point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import ParseError, ValidationError

if TYPE_CHECKING:
    from .spectra import Spectrum

ROLES = ("source", "load")
UNIFORM_RTOL = 1e-12  # relative spread below which per-node outputs count as uniform


@dataclass(frozen=True)
class NodeSpec:
    id: int
    role: str
    r_out: float  # ohm
    l_out: float  # henry


@dataclass(frozen=True)
class EdgeSpec:
    a: int
    b: int
    length: float  # in the network's length unit


@dataclass(frozen=True)
class PowerNetwork:
    """Validated immutable network.

    Nodes are kept sorted by id; matrix row/column ``i`` always refers to
    the node with the ``i``-th smallest id.  The Laplacian is assembled on
    first use and kept (see ``build_laplacian``).
    """

    nodes: tuple[NodeSpec, ...]
    edges: tuple[EdgeSpec, ...]
    r_per_len: float  # ohm / length unit
    l_per_len: float  # henry / length unit
    omega: float  # rad/s
    length_unit: str

    def __post_init__(self):
        _validate(self)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(nd.id for nd in self.nodes)

    def r_out_vector(self) -> np.ndarray:
        return np.array([nd.r_out for nd in self.nodes])

    def l_out_vector(self) -> np.ndarray:
        return np.array([nd.l_out for nd in self.nodes])

    def source_ids(self) -> tuple[int, ...]:
        return tuple(nd.id for nd in self.nodes if nd.role == "source")

    def uniform_outputs(self) -> bool:
        """True iff all output resistances agree and all output inductances agree."""
        return (spread(self.r_out_vector()) <= UNIFORM_RTOL
                and spread(self.l_out_vector()) <= UNIFORM_RTOL)

    @cached_property
    def _laplacian(self) -> "WeightedLaplacian":
        return _assemble_laplacian(self)

    def with_outputs(self, r_out: float | None = None, l_out: float | None = None,
                     omega: float | None = None) -> "PowerNetwork":
        """Copy with uniform output overrides and/or a new frequency.

        Outputs and frequency do not enter the Laplacian, so the copy shares
        this network's Laplacian record, eigendecomposition included.
        """
        nodes = tuple(
            NodeSpec(nd.id, nd.role,
                     nd.r_out if r_out is None else float(r_out),
                     nd.l_out if l_out is None else float(l_out))
            for nd in self.nodes)
        copy = PowerNetwork(nodes, self.edges, self.r_per_len, self.l_per_len,
                            self.omega if omega is None else float(omega),
                            self.length_unit)
        copy.__dict__["_laplacian"] = self._laplacian  # where cached_property keeps it
        return copy


def spread(v: np.ndarray) -> float:
    """(max - min) / max |v|, or 0 for an all-zero vector."""
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return 0.0
    return (np.max(v) - np.min(v)) / scale


def _validate(net: PowerNetwork) -> None:
    # NaN and Infinity (JSON accepts both, and so do the CLI overrides) pass
    # every sign check, so each number is first checked to be finite
    ids = [nd.id for nd in net.nodes]
    if not ids:
        raise ValidationError("nodes: empty node list")
    if len(set(ids)) != len(ids):
        raise ValidationError("nodes: duplicate node ids")
    if list(ids) != sorted(ids):
        raise ValidationError("nodes must be sorted by id (use load_network/network_from_dict)")
    for i, nd in enumerate(net.nodes):
        if nd.role not in ROLES:
            raise ValidationError(f"nodes[{i}].role: {nd.role!r} not in {ROLES}")
        for name, value in (("r_out", nd.r_out), ("l_out", nd.l_out)):
            if not math.isfinite(value):
                raise ValidationError(f"nodes[{i}].{name}: must be a finite number, got {value!r}")
        if nd.r_out < 0:
            raise ValidationError(f"nodes[{i}].r_out: negative output resistance {nd.r_out}")
        if nd.l_out < 0:
            raise ValidationError(f"nodes[{i}].l_out: negative output inductance {nd.l_out}")
    for where, value in (("line.r_per_len", net.r_per_len), ("line.l_per_len", net.l_per_len),
                         ("frequency_rad_s", net.omega)):
        if not math.isfinite(value):
            raise ValidationError(f"{where}: must be a finite number, got {value!r}")
    if net.r_per_len <= 0:
        raise ValidationError(f"line.r_per_len: must be > 0, got {net.r_per_len}")
    if net.l_per_len <= 0:
        raise ValidationError(f"line.l_per_len: must be > 0, got {net.l_per_len}")
    if net.omega <= 0:
        raise ValidationError(f"frequency_rad_s: must be > 0, got {net.omega}")

    idset = set(ids)
    seen: set[frozenset[int]] = set()
    for k, e in enumerate(net.edges):
        if e.a not in idset:
            raise ValidationError(f"edges[{k}].a: unknown node id {e.a}")
        if e.b not in idset:
            raise ValidationError(f"edges[{k}].b: unknown node id {e.b}")
        if e.a == e.b:
            raise ValidationError(f"edges[{k}]: self-loop at node {e.a}")
        key = frozenset((e.a, e.b))
        if key in seen:
            raise ValidationError(f"edges[{k}]: duplicate undirected edge {{{e.a}, {e.b}}}")
        seen.add(key)
        if not math.isfinite(e.length):
            raise ValidationError(
                f"edges[{k}].length: must be a finite number, got {e.length!r}")
        if e.length <= 0:
            raise ValidationError(f"edges[{k}].length: must be > 0, got {e.length}")

    stray = _disconnected_node(ids, net.edges)
    if stray is not None:
        raise ValidationError(f"nodes: graph is disconnected (node {stray} unreachable from node {ids[0]})")


def _disconnected_node(ids, edges) -> int | None:
    """Union-find connectivity check; returns an unreachable node id or None."""
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ra, rb = find(e.a), find(e.b)
        if ra != rb:
            parent[ra] = rb
    root = find(ids[0])
    for i in ids:
        if find(i) != root:
            return i
    return None


# ---------------------------------------------------------------------------
# JSON document handling

def _node_id(value: Any, where: str) -> int:
    """A JSON integer; floats (1.7 would truncate to 1) and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: node id must be an integer, got {value!r}")
    return value


def network_from_dict(doc: dict[str, Any]) -> PowerNetwork:
    """Build a validated PowerNetwork from a parsed JSON document."""
    try:
        line = doc["line"]
        nodes = tuple(sorted(
            (NodeSpec(_node_id(nd["id"], f"nodes[{i}].id"), str(nd["role"]),
                      float(nd["r_out"]), float(nd["l_out"]))
             for i, nd in enumerate(doc["nodes"])),
            key=lambda nd: nd.id))
        edges = tuple(EdgeSpec(_node_id(e["a"], f"edges[{k}].a"), _node_id(e["b"], f"edges[{k}].b"),
                               float(e["length"]))
                      for k, e in enumerate(doc["edges"]))
        return PowerNetwork(
            nodes=nodes,
            edges=edges,
            r_per_len=float(line["r_per_len"]),
            l_per_len=float(line["l_per_len"]),
            omega=float(doc["frequency_rad_s"]),
            length_unit=str(line["length_unit"]),
        )
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed value: {exc}") from exc


def network_from_json(text: str) -> PowerNetwork:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return network_from_dict(doc)


def load_network(path: str | Path) -> PowerNetwork:
    """Load and validate a network document from a JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return network_from_json(text)


def network_to_dict(net: PowerNetwork) -> dict[str, Any]:
    return {
        "frequency_rad_s": net.omega,
        "line": {
            "r_per_len": net.r_per_len,
            "l_per_len": net.l_per_len,
            "length_unit": net.length_unit,
        },
        "nodes": [
            {"id": nd.id, "role": nd.role, "r_out": nd.r_out, "l_out": nd.l_out}
            for nd in net.nodes
        ],
        "edges": [{"a": e.a, "b": e.b, "length": e.length} for e in net.edges],
    }


def save_network(net: PowerNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Matrix assembly

@dataclass(frozen=True)
class WeightedLaplacian:
    """L = B diag(gamma) B^T with gamma_k = 1/tau_k (inverse line lengths).

    Treated as immutable: the eigendecomposition is computed on first use
    and kept, with read-only arrays.  The records ``build_laplacian``
    returns are shared by every consumer of a topology, so their own arrays
    are read-only as well.
    """

    matrix: np.ndarray  # n x n symmetric PSD
    weights: np.ndarray  # gamma, length m
    node_ids: tuple[int, ...]

    @cached_property
    def spectrum(self) -> "Spectrum":
        """Ascending eigenvalues and orthonormal eigenvectors of ``matrix``."""
        from .spectra import eig_symmetric  # spectra imports this module

        spec = eig_symmetric(self.matrix)
        spec.eigenvalues.flags.writeable = False
        spec.eigenvectors.flags.writeable = False
        return spec


def build_laplacian(net: PowerNetwork) -> WeightedLaplacian:
    """The network's Laplacian record, assembled once per topology.

    Copies made by ``PowerNetwork.with_outputs`` share it.
    """
    return net._laplacian


def _assemble_laplacian(net: PowerNetwork) -> WeightedLaplacian:
    """Scatter-add of each edge's weight into L; equals B diag(gamma) B^T."""
    ids = net.node_ids()
    index = {nid: i for i, nid in enumerate(ids)}
    a = np.array([index[e.a] for e in net.edges], dtype=int)
    b = np.array([index[e.b] for e in net.edges], dtype=int)
    gamma = np.array([1.0 / e.length for e in net.edges])
    L = np.zeros((net.n, net.n))
    np.add.at(L, (a, a), gamma)
    np.add.at(L, (b, b), gamma)
    np.add.at(L, (a, b), -gamma)
    np.add.at(L, (b, a), -gamma)
    L.flags.writeable = False
    gamma.flags.writeable = False
    return WeightedLaplacian(L, gamma, ids)
