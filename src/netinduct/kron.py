"""Kron reduction: real Schur complements and phasor-domain reduction.

Real reduction eliminates constant-current load nodes from a weighted
Laplacian.  Phasor reduction eliminates the internal grid nodes of a
network with uniform output inductors, yielding a complex admittance
matrix over the augmented nodes, from which per-line impedance angles
and a physical/virtual classification are extracted.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .network import UNIFORM_RTOL, PowerNetwork, WeightedLaplacian, build_laplacian, spread

EDGE_EPS_SCALE = 1e-9  # relative threshold for absent-edge classification
ANGLE_CSV_HEADER = ("i", "j", "class", "R_branch", "X_branch", "theta_rad")


@dataclass(frozen=True)
class ReducedLaplacian:
    matrix: np.ndarray  # over source nodes
    node_map: dict[int, int]  # original node id -> reduced index
    offset: np.ndarray | None  # -r * L_SL L_LL^{-1} I_L*, if load currents given

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.node_map, key=self.node_map.get))


@dataclass(frozen=True)
class BranchRecord:
    i: int
    j: int
    admittance: complex
    impedance: complex
    theta_rad: float  # two-argument arctangent of the branch impedance
    theta_principal_rad: float  # plain arctan(Im/Re), sign-convention free
    klass: str  # "physical" | "virtual" | "absent"


@dataclass(frozen=True)
class ReducedAdmittance:
    matrix: np.ndarray  # complex, over all augmented nodes
    node_ids: tuple[int, ...]
    y_line: complex


def _check_laplacian(L: np.ndarray, what: str, tol: float = 1e-9) -> None:
    scale = max(np.max(np.abs(L)), 1e-300)
    if np.max(np.abs(L - L.T)) > tol * scale:
        raise ValidationError(f"{what}: not symmetric")
    if np.max(np.abs(L.sum(axis=1))) > tol * scale:
        raise ValidationError(f"{what}: row sums not zero")
    off = L - np.diag(np.diag(L))
    if np.max(off) > tol * scale:
        raise ValidationError(f"{what}: positive off-diagonal entry")


def kron_reduce_real(lap: WeightedLaplacian, sources: Sequence[int],
                     load_currents: np.ndarray | None = None,
                     r_per_len: float | None = None) -> ReducedLaplacian:
    """Schur complement of the load block: L_SS - L_SL L_LL^{-1} L_LS.

    ``sources`` are node ids kept; all other nodes are eliminated.  When
    ``load_currents`` (ordered like the eliminated nodes) and ``r_per_len``
    are given, the constant offset term of the reduced dynamics is attached.
    """
    ids = lap.node_ids
    src = list(dict.fromkeys(sources))
    unknown = [s for s in src if s not in ids]
    if unknown:
        raise ValidationError(f"sources: unknown node ids {unknown}")
    if len(src) < 2:
        raise ValidationError(
            f"sources: need at least 2 source nodes, got {src or 'an empty source set'}")

    if len(src) == len(ids):
        warnings.warn("all nodes are sources; nothing to eliminate", RuntimeWarning,
                      stacklevel=2)
        node_map = {nid: k for k, nid in enumerate(ids)}
        return ReducedLaplacian(lap.matrix.copy(), node_map, None)

    index = {nid: i for i, nid in enumerate(ids)}
    s_idx = [index[s] for s in src]
    l_idx = sorted(set(range(len(ids))).difference(s_idx))
    L = lap.matrix
    L_ss = L[np.ix_(s_idx, s_idx)]
    L_sl = L[np.ix_(s_idx, l_idx)]
    L_ll = L[np.ix_(l_idx, l_idx)]

    if np.linalg.cond(L_ll) > 1e14:
        raise SingularMatrixError("load block L_LL is singular (disconnected load island)")
    X = np.linalg.solve(L_ll, L[np.ix_(l_idx, s_idx)])
    L_red = L_ss - L_sl @ X
    L_red = 0.5 * (L_red + L_red.T)  # symmetrize round-off

    _check_laplacian(L_red, "reduced Laplacian")

    offset = None
    if load_currents is not None:
        if r_per_len is None:
            raise ValueError("r_per_len is required together with load_currents")
        i_l = np.asarray(load_currents, dtype=float)
        if i_l.shape != (len(l_idx),):
            raise ValidationError(
                f"load_currents: expected {len(l_idx)} entries, got {i_l.shape}")
        offset = -r_per_len * (L_sl @ np.linalg.solve(L_ll, i_l))

    node_map = {nid: k for k, nid in enumerate(src)}
    return ReducedLaplacian(L_red, node_map, offset)


def phasor_reduce(net: PowerNetwork, l_out: float | None = None) -> ReducedAdmittance:
    """Complex reduction eliminating the grid-side nodes.

    Requires a uniform output inductance l_o > 0 (taken from the network
    unless overridden).  One linear solve per column of
    (I + (y_l/y_o) L), with y_o = 1/(j w l_o) and y_l = 1/(r + j w l).
    """
    if l_out is None:
        lv = net.l_out_vector()
        if np.max(lv) == 0.0 or spread(lv) > UNIFORM_RTOL:
            raise ValidationError(
                "phasor reduction needs a uniform output inductance > 0 "
                "(set it on the nodes or pass l_out)")
        l_out = float(lv[0])
    if l_out <= 0.0:
        raise ValidationError(f"l_out: must be > 0, got {l_out}")

    omega = net.omega
    y_o = 1.0 / (1j * omega * l_out)
    y_l = 1.0 / (net.r_per_len + 1j * omega * net.l_per_len)

    lap = build_laplacian(net)
    n = net.n
    M = np.eye(n, dtype=complex) + (y_l / y_o) * lap.matrix
    if np.linalg.cond(M) > 1e14:
        raise SingularMatrixError(
            f"(I + (y_l/y_o) L) is singular at omega = {omega!r}")
    Minv = np.linalg.solve(M, np.eye(n, dtype=complex))  # LU with partial pivoting
    Y = y_o * (np.eye(n, dtype=complex) - Minv)
    return ReducedAdmittance(Y, lap.node_ids, y_l)


def line_angles(red: ReducedAdmittance, original: PowerNetwork) -> tuple[BranchRecord, ...]:
    """Per-pair branch angles and physical/virtual classification.

    The branch admittance between i != j is -Y_red[i, j]; its reciprocal is
    the branch impedance.  Angles are reported two ways because the sign
    convention of the branch term only fixes the Im/Re ratio, not the
    quadrant: a two-argument arctangent, plus the principal arctan of the
    ratio.
    """
    ids = red.node_ids
    original_edges = {frozenset((e.a, e.b)) for e in original.edges}
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
    return tuple(records)


def angle_table_csv(records: Iterable[BranchRecord], dest: str | Path | IO[str]) -> None:
    """Write the angle table with the fixed documented header."""

    def _write(fh):
        w = csv.writer(fh)
        w.writerow(ANGLE_CSV_HEADER)
        for rec in records:
            if rec.klass == "absent":
                w.writerow([rec.i, rec.j, rec.klass, "", "", ""])
            else:
                w.writerow([rec.i, rec.j, rec.klass,
                            repr(rec.impedance.real), repr(rec.impedance.imag),
                            repr(rec.theta_rad)])

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", newline="") as fh:
            _write(fh)
