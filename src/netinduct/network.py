"""Power network model: loading, validation and Laplacian assembly.

A network is an undirected connected graph of inverter nodes joined by
homogeneous distribution lines.  Line resistance and inductance are given
per length unit; each edge carries a physical length.  Every node may have
a series output impedance (resistance + inductance) between its source and
its grid connection point.

A ``PowerNetwork`` is two records, each validated once, when it is built:
a ``Topology`` (node ids and roles, the edges as three columns ``edge_a``,
``edge_b`` and ``length``, and the line constants), which owns the Laplacian
record, and an ``Outputs`` set (per-node r_out and l_out as read-only
arrays, and the frequency).  Outputs and frequency do not enter the
Laplacian, so ``with_outputs`` builds and validates a new output set only
and shares the topology, its Laplacian's eigenvalues and lift included.
There are no row views: read the columns, or ``network_to_dict`` for rows.

Parsing and validation work on whole columns.  A document's rows are read
once, and a location such as ``edges[3].b`` is formatted only for an error:
when a column check fails, the rows are walked in document order and the
first fault is raised, so every message is the one a row-by-row check
gives.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

ROLES = ("source", "load")
UNIFORM_RTOL = 1e-12  # relative spread below which per-node outputs count as uniform
ROW_SUM_RTOL = 1e-9  # largest row sum of a Laplacian record, relative to its largest entry
SYMMETRY_RTOL = 1e-12  # largest asymmetry of a Laplacian record, relative to its largest entry


@dataclass(frozen=True)
class Topology:
    """Validated graph and line constants: everything the Laplacian depends on.

    Node ``k`` has id ``ids[k]`` and role ``roles[k]``.  Ids are sorted, so
    matrix row/column ``k`` always refers to the node with the ``k``-th
    smallest id.  Edge ``k`` joins nodes ``edge_a[k]`` and ``edge_b[k]`` by
    a line of length ``length[k]``.  The Laplacian record is assembled on
    first use and kept.
    """

    ids: tuple[int, ...]
    roles: tuple[str, ...]
    edge_a: tuple[int, ...]
    edge_b: tuple[int, ...]
    length: tuple[float, ...]  # in the length unit
    r_per_len: float  # ohm / length unit
    l_per_len: float  # henry / length unit
    length_unit: str

    def __post_init__(self):
        _validate_topology(self)

    @cached_property
    def laplacian(self) -> "WeightedLaplacian":
        return _assemble_laplacian(self)


@dataclass(frozen=True, eq=False)
class Outputs:
    """Per-node output impedances, in node order, and the frequency.

    ``r_out`` and ``l_out`` are read-only float arrays copied from what the
    constructor is given, so an output set never aliases writable memory.
    ``uniform`` is true iff all output resistances agree and all output
    inductances agree, each to ``UNIFORM_RTOL`` relative to its largest.
    """

    r_out: np.ndarray  # ohm
    l_out: np.ndarray  # henry
    omega: float  # rad/s
    uniform: bool = field(init=False, repr=False)

    def __post_init__(self):
        try:
            values = np.array((self.r_out, self.l_out), dtype=float)
        except ValueError as exc:  # ragged or non-numeric
            raise ValidationError(f"outputs: {exc}") from exc
        values.flags.writeable = False
        object.__setattr__(self, "r_out", values[0])
        object.__setattr__(self, "l_out", values[1])
        (r_min, l_min), (r_max, l_max) = _validate_outputs(values, self.omega)
        object.__setattr__(self, "uniform", _spread(r_min, r_max) <= UNIFORM_RTOL
                           and _spread(l_min, l_max) <= UNIFORM_RTOL)

    def __eq__(self, other):
        if not isinstance(other, Outputs):
            return NotImplemented
        return (self.omega == other.omega and np.array_equal(self.r_out, other.r_out)
                and np.array_equal(self.l_out, other.l_out))

    def __hash__(self):
        return hash((self.omega, tuple(self.r_out.tolist()), tuple(self.l_out.tolist())))


@dataclass(frozen=True)
class PowerNetwork:
    """Validated immutable network: a topology and an output set.

    Each part is validated once, when it is built.  The line constants,
    frequency and output vectors read through to the two parts; the node and
    edge columns are the topology's.
    """

    topology: Topology
    outputs: Outputs

    def __post_init__(self):
        if self.outputs.r_out.size != len(self.topology.ids):
            raise ValidationError(f"outputs: {self.outputs.r_out.size} values per field "
                                  f"for {len(self.topology.ids)} nodes")

    @property
    def r_per_len(self) -> float:
        return self.topology.r_per_len

    @property
    def l_per_len(self) -> float:
        return self.topology.l_per_len

    @property
    def omega(self) -> float:
        return self.outputs.omega

    @property
    def n(self) -> int:
        return len(self.topology.ids)

    def node_ids(self) -> tuple[int, ...]:
        return self.topology.ids

    def r_out_vector(self) -> np.ndarray:
        """Output resistances in node order (read-only)."""
        return self.outputs.r_out

    def l_out_vector(self) -> np.ndarray:
        """Output inductances in node order (read-only)."""
        return self.outputs.l_out

    def source_ids(self) -> tuple[int, ...]:
        top = self.topology
        return tuple(i for i, role in zip(top.ids, top.roles) if role == "source")

    def uniform_outputs(self) -> bool:
        """True iff all output resistances agree and all output inductances agree."""
        return self.outputs.uniform

    def with_outputs(self, r_out: float | None = None, l_out: float | None = None,
                     omega: float | None = None) -> "PowerNetwork":
        """Copy with uniform output overrides and/or a new frequency.

        Only the output set is built and validated anew: the copy shares this
        network's topology, and with it the Laplacian record and all it caches.
        """
        out = self.outputs
        return PowerNetwork(self.topology, Outputs(
            out.r_out if r_out is None else np.full(self.n, float(r_out)),
            out.l_out if l_out is None else np.full(self.n, float(l_out)),
            out.omega if omega is None else float(omega)))


def _spread(low: float, high: float) -> float:
    """(max - min) / max of values >= 0, or 0 when all are 0."""
    return 0.0 if high == 0.0 else (high - low) / high


# NaN and Infinity (JSON accepts both, and so do the CLI overrides) pass
# every sign check, so each number is first checked to be finite


def _validate_topology(top: Topology) -> None:
    ids = top.ids
    if not ids:
        raise ValidationError("nodes: empty node list")
    if len(top.roles) != len(ids):
        raise ValidationError(f"nodes: {len(ids)} ids but {len(top.roles)} roles")
    if len(set(ids)) != len(ids):
        raise ValidationError("nodes: duplicate node ids")
    if list(ids) != sorted(ids):
        raise ValidationError("nodes must be sorted by id (use load_network/network_from_dict)")
    for i in (ids[0], ids[-1]):  # the extremes, as the ids are sorted
        if not -2**63 <= i < 2**63:
            raise ValidationError(f"nodes: id {i} is outside the 64-bit range [-2**63, 2**63)")
    for i, role in enumerate(top.roles):
        if role not in ROLES:
            raise ValidationError(f"nodes[{i}].role: {role!r} not in {ROLES}")
    for where, value in (("line.r_per_len", top.r_per_len), ("line.l_per_len", top.l_per_len)):
        if not math.isfinite(value):
            raise ValidationError(f"{where}: must be a finite number, got {value!r}")
    if top.r_per_len <= 0:
        raise ValidationError(f"line.r_per_len: must be > 0, got {top.r_per_len}")
    if top.l_per_len <= 0:
        raise ValidationError(f"line.l_per_len: must be > 0, got {top.l_per_len}")

    a, b, length = top.edge_a, top.edge_b, top.length
    m = len(length)
    if len(a) != m or len(b) != m:
        raise ValidationError(f"edges: {len(a)} a ids, {len(b)} b ids and {m} lengths")
    # a pair joined twice repeats an ordered pair or meets its reverse; a
    # self-loop (x, x) is its own reverse, so the same test finds it
    idset, pairs = set(ids), set(zip(a, b))
    if not (idset.issuperset(a) and idset.issuperset(b)
            and len(pairs) == m and pairs.isdisjoint(zip(b, a))
            and all(map(math.isfinite, length))
            and min(length, default=1.0) > 0.0):
        _raise_first_edge_fault(idset, a, b, length)

    stray = _disconnected_node(ids, a, b)
    if stray is not None:
        raise ValidationError(f"nodes: graph is disconnected (node {stray} unreachable from node {ids[0]})")


def _raise_first_edge_fault(idset, edge_a, edge_b, length) -> None:
    """Walk the edges in order and raise the first fault a column check found."""
    seen: set[frozenset[int]] = set()
    for k, (a, b, t) in enumerate(zip(edge_a, edge_b, length)):
        if a not in idset:
            raise ValidationError(f"edges[{k}].a: unknown node id {a}")
        if b not in idset:
            raise ValidationError(f"edges[{k}].b: unknown node id {b}")
        if a == b:
            raise ValidationError(f"edges[{k}]: self-loop at node {a}")
        key = frozenset((a, b))
        if key in seen:
            raise ValidationError(f"edges[{k}]: duplicate undirected edge {{{a}, {b}}}")
        seen.add(key)
        if not math.isfinite(t):
            raise ValidationError(f"edges[{k}].length: must be a finite number, got {t!r}")
        if t <= 0:
            raise ValidationError(f"edges[{k}].length: must be > 0, got {t}")


def _disconnected_node(ids, edge_a, edge_b) -> int | None:
    """Union-find connectivity check; returns an unreachable node id or None.

    Edges are read only until n - 1 of them have joined two components,
    which spans the graph.
    """
    parent = dict(zip(ids, ids))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = len(ids) - 1  # still needed to span the graph
    for a, b in zip(edge_a, edge_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joins -= 1
            if not joins:
                return None
    root = find(ids[0])
    for i in ids:
        if find(i) != root:
            return i
    return None


def _validate_outputs(values: np.ndarray, omega: float) -> tuple[list[float], list[float]]:
    """Check the rows (r_out, l_out) and omega; returns each row's min and max."""
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValidationError(f"outputs: r_out and l_out must be non-empty, 1-D and of one "
                              f"length, got shape {values.shape}")
    # min and max propagate NaN, which fails every comparison; only a failure
    # walks the nodes to name the first fault
    low = np.minimum.reduce(values, axis=1).tolist()
    high = np.maximum.reduce(values, axis=1).tolist()
    if not (0.0 <= low[0] and 0.0 <= low[1] and high[0] < math.inf and high[1] < math.inf):
        for i, (r_i, l_i) in enumerate(zip(*values.tolist())):
            for name, value in (("r_out", r_i), ("l_out", l_i)):
                if not math.isfinite(value):
                    raise ValidationError(f"nodes[{i}].{name}: must be a finite number, got {value!r}")
            if r_i < 0:
                raise ValidationError(f"nodes[{i}].r_out: negative output resistance {r_i}")
            if l_i < 0:
                raise ValidationError(f"nodes[{i}].l_out: negative output inductance {l_i}")
    if not math.isfinite(omega):
        raise ValidationError(f"frequency_rad_s: must be a finite number, got {omega!r}")
    if omega <= 0:
        raise ValidationError(f"frequency_rad_s: must be > 0, got {omega}")
    return low, high


# ---------------------------------------------------------------------------
# JSON document handling

def _node_id(value: Any, where: str) -> int:
    """A JSON integer; floats (1.7 would truncate to 1) and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: node id must be an integer, got {value!r}")
    return value


# field -> cast of each cell; None marks a node id, checked by ``_node_id``
_NODE_FIELDS = {"id": None, "role": str, "r_out": float, "l_out": float}
_EDGE_FIELDS = {"a": None, "b": None, "length": float}


def _columns(rows, name: str, fields: dict) -> tuple[tuple, ...]:
    """One tuple column per field of the JSON objects ``rows``, cast per field.

    Every row is read once and no location is formatted.  On any fault (a
    missing key, a non-integer id, a bad number) the rows are walked again
    by ``_walk_rows``, which raises the first fault in document order.
    """
    try:
        cols = tuple(zip(*map(operator.itemgetter(*fields), rows))) or ((),) * len(fields)
        cols = tuple(col if cast is None else tuple(map(cast, col))
                     for col, cast in zip(cols, fields.values()))
        if all(cast is not None or {*map(type, col)} <= {int}
               for col, cast in zip(cols, fields.values())):
            return cols
    except (KeyError, TypeError, ValueError):
        pass
    return _walk_rows(rows, name, fields)  # raises, or accepts ids of int subclasses


def _walk_rows(rows, name: str, fields: dict) -> tuple[tuple, ...]:
    """Row by row, field by field: the columns, or the first fault, located."""
    cols = tuple([] for _ in fields)
    for k, row in enumerate(rows):
        for col, (key, cast) in zip(cols, fields.items()):
            value = row[key]
            col.append(_node_id(value, f"{name}[{k}].{key}") if cast is None else cast(value))
    return tuple(map(tuple, cols))


def network_from_dict(doc: dict[str, Any]) -> PowerNetwork:
    """Build a validated PowerNetwork from a parsed JSON document."""
    try:
        line = doc["line"]
        nodes = sorted(zip(*_columns(doc["nodes"], "nodes", _NODE_FIELDS)),
                       key=operator.itemgetter(0))
        edge_a, edge_b, length = _columns(doc["edges"], "edges", _EDGE_FIELDS)
        r_per_len = float(line["r_per_len"])
        l_per_len = float(line["l_per_len"])
        length_unit = str(line["length_unit"])
        omega = float(doc["frequency_rad_s"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed value: {exc}") from exc
    ids, roles, r_out, l_out = tuple(zip(*nodes)) or ((),) * 4
    return PowerNetwork(Topology(ids, roles, edge_a, edge_b, length, r_per_len, l_per_len,
                                 length_unit),
                        Outputs(r_out, l_out, omega))


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
    top, out = net.topology, net.outputs
    return {
        "frequency_rad_s": out.omega,
        "line": {
            "r_per_len": top.r_per_len,
            "l_per_len": top.l_per_len,
            "length_unit": top.length_unit,
        },
        "nodes": [{"id": i, "role": role, "r_out": r, "l_out": l}
                  for i, role, r, l in zip(top.ids, top.roles, out.r_out.tolist(),
                                           out.l_out.tolist())],
        "edges": [{"a": a, "b": b, "length": t}
                  for a, b, t in zip(top.edge_a, top.edge_b, top.length)],
    }


# ---------------------------------------------------------------------------
# Matrix assembly

class PairColumns(NamedTuple):
    """Every node pair k < k' in ``np.triu_indices`` order, as read-only columns."""

    a: np.ndarray  # row index k
    b: np.ndarray  # column index k'
    i: np.ndarray  # node id of row a
    j: np.ndarray  # node id of column b
    edge: np.ndarray  # bool: a line joins the pair (the Laplacian entry is nonzero)


@dataclass(frozen=True)
class WeightedLaplacian:
    """A connected Laplacian over the nodes ``ids``: row/column ``k`` is node ``ids[k]``.

    A record guarantees a symmetric matrix with zero row sums and lam2 > 0,
    checked once where the matrix comes from: topology validation for a
    network's L = B diag(gamma) B^T (gamma_k = 1/tau_k, symmetric by
    assembly), the row-sum test of ``kron_reduce_real`` (which returns the
    same record over the sources it keeps), or ``AllocationProblem`` for a
    bare matrix.  Code that reads its ``eigenvalues`` and ``lift`` checks
    nothing again.  Treated as immutable: the eigenvalues, the lift and the
    pair columns are computed on first use and kept, read-only, as are the
    matrices of the records ``build_laplacian`` shares.
    """

    matrix: np.ndarray  # n x n symmetric PSD
    ids: tuple[int, ...]

    def node_ids(self) -> tuple[int, ...]:
        return self.ids

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``matrix``: lam[0] is 0 to round-off, lam[1] is lam2."""
        lam = np.linalg.eigvalsh(self.matrix)
        lam.flags.writeable = False
        return lam

    @cached_property
    def lift(self) -> np.ndarray:
        """S = P C with S S^T = ``matrix``: C is the lower Cholesky factor of
        ``matrix[1:, 1:]`` and P = [-1^T; I] adds the ground row, so ``lift[1:]`` is C."""
        C = np.linalg.cholesky(self.matrix[1:, 1:])
        S = np.vstack((-C.sum(axis=0), C))
        S.flags.writeable = False
        return S

    @cached_property
    def pairs(self) -> PairColumns:
        a, b = np.triu_indices(len(self.ids), 1)
        ids = np.array(self.ids)
        cols = PairColumns(a, b, ids[a], ids[b], self.matrix[a, b] != 0.0)
        for col in cols:
            col.flags.writeable = False
        return cols


def build_laplacian(net: PowerNetwork) -> WeightedLaplacian:
    """The network's Laplacian record, assembled once per topology.

    Copies made by ``PowerNetwork.with_outputs`` share it.
    """
    return net.topology.laplacian


def _assemble_laplacian(top: Topology) -> WeightedLaplacian:
    """L = B diag(gamma) B^T, assembled from the edge columns.

    Each node pair carries at most one line (validated), so the
    off-diagonals are assigned.  The diagonal is scatter-added in edge
    order, every ``a`` end before every ``b`` end, which is the order of a
    per-edge assembly: a sum in another order (``bincount``) moves the
    diagonal by round-off, and outputs such as an optimizer's gap with it.
    """
    n, m = len(top.ids), len(top.length)
    index = dict(zip(top.ids, range(n)))  # exact for any int id, unlike a numpy id array
    a = np.fromiter(map(index.__getitem__, top.edge_a), np.intp, m)
    b = np.fromiter(map(index.__getitem__, top.edge_b), np.intp, m)
    gamma = 1.0 / np.array(top.length, dtype=float)
    L = np.zeros((n, n))
    L[a, b] = L[b, a] = -gamma
    np.add.at(L.reshape(-1), np.concatenate((a, b)) * (n + 1), np.concatenate((gamma, gamma)))
    L.flags.writeable = False
    return WeightedLaplacian(L, top.ids)
