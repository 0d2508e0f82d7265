"""Kron reduction: real Schur complements and phasor-domain reduction.

Real reduction eliminates constant-current load nodes from a weighted
Laplacian.  It trusts the validated network: in a connected graph every
load component touches a source, so the load block is nonsingular and the
Schur complement is again a connected Laplacian; no condition number is
computed.  Phasor reduction eliminates the internal grid nodes of a network
with uniform output inductors, yielding a complex admittance matrix over
the augmented nodes, from which per-line impedance angles and a
physical/virtual classification are extracted into a columnar
``AngleTable``.

Phasor reduction solves M = I + c Lap by LU.  M is normal (Lap is real
symmetric, so M = U diag(1 + c lam) U^T), hence its singular values are
|1 + c lam| over the Laplacian's eigenvalues, and the singularity guard
cond(M) > 1e14 is read off the cached eigenvalues in O(n) instead of an SVD.
The solve itself stays LU: against a 50-digit reference, forming Y in the
eigenbasis loses about 2e-9 relative on the far entries of a 4-node path at
l_o = 1e-4 H, where the LU stays within 1e-15.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import NetinductError, SingularMatrixError, ValidationError
from .network import ROW_SUM_RTOL, PowerNetwork, WeightedLaplacian, build_laplacian

EDGE_EPS_SCALE = 1e-9  # relative threshold for absent-edge classification
ANGLE_CSV_HEADER = ("i", "j", "class", "R_branch", "X_branch", "theta_rad")
_CLASSES = np.array(["physical", "virtual", "absent"])  # indexed by class code


@dataclass(frozen=True)
class BranchRecord:
    i: int
    j: int
    admittance: complex
    impedance: complex
    theta_rad: float  # two-argument arctangent of the branch impedance
    theta_principal_rad: float  # plain arctan(Im/Re), sign-convention free
    klass: str  # "physical" | "virtual" | "absent"


@dataclass(frozen=True, eq=False)
class AngleTable(Sequence[BranchRecord]):
    """Branch angles of every pair i < j in node order, one array per field.

    As a sequence it holds ``BranchRecord`` rows, each built on access.
    Absent pairs carry NaN impedance and angles.  ``i`` and ``j`` are the
    Laplacian record's read-only id columns, shared by every table of a
    topology.
    """

    i: np.ndarray  # node ids
    j: np.ndarray
    admittance: np.ndarray  # complex
    impedance: np.ndarray  # complex
    theta_rad: np.ndarray
    theta_principal_rad: np.ndarray
    klass: np.ndarray  # str: "physical" | "virtual" | "absent"

    def __len__(self) -> int:
        return self.i.size

    def __getitem__(self, k) -> BranchRecord:
        k = operator.index(k)
        return BranchRecord(int(self.i[k]), int(self.j[k]), complex(self.admittance[k]),
                            complex(self.impedance[k]), float(self.theta_rad[k]),
                            float(self.theta_principal_rad[k]), str(self.klass[k]))

    def __iter__(self):
        return map(BranchRecord, self.i.tolist(), self.j.tolist(), self.admittance.tolist(),
                   self.impedance.tolist(), self.theta_rad.tolist(),
                   self.theta_principal_rad.tolist(), self.klass.tolist())


@dataclass(frozen=True)
class ReducedAdmittance:
    matrix: np.ndarray  # complex, over all augmented nodes
    node_ids: tuple[int, ...]


def kron_reduce_real(lap: WeightedLaplacian, sources: Sequence[int]) -> WeightedLaplacian:
    """Schur complement of the load block: L_SS - L_SL L_LL^{-1} L_LS.

    ``sources`` are node ids kept, in the order given (a repeated id is
    dropped); all other nodes are eliminated.  One gather permutes L to the
    sources, in that order, then the loads in ascending order, and the four
    blocks are slices of it.  The result is a read-only Laplacian record
    over the sources, whose eigenvalues and lift every consumer shares.
    When every node is a source nothing is eliminated, and the record holds
    ``lap.matrix`` permuted into the order of ``sources``.  A load block
    that is exactly singular (only a hand-built record has one) raises
    ``SingularMatrixError``.  Row sums further than ``ROW_SUM_RTOL`` of the
    largest entry from zero mean that round-off has taken the result too far
    to be a Laplacian: a ``NetinductError``, numerical rather than input.
    """
    ids = lap.ids
    index = dict(zip(ids, range(len(ids))))
    src = list(dict.fromkeys(sources))
    unknown = [s for s in src if s not in index]
    if unknown:
        raise ValidationError(f"sources: unknown node ids {unknown}")
    k = len(src)
    if k < 2:
        raise ValidationError(
            f"sources: need at least 2 source nodes, got {src or 'an empty source set'}")

    s_idx = [index[s] for s in src]
    is_load = np.ones(len(ids), dtype=bool)
    is_load[s_idx] = False
    perm = np.concatenate((s_idx, np.flatnonzero(is_load)))
    M = lap.matrix[perm][:, perm]
    L_red = M[:k, :k]
    if k == len(ids):
        warnings.warn("all nodes are sources; nothing to eliminate", RuntimeWarning,
                      stacklevel=2)
    else:
        try:
            X = np.linalg.solve(M[k:, k:], M[k:, :k])
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "load block L_LL is singular (disconnected load island)") from None
        L_red = L_red - M[:k, k:] @ X
        L_red = 0.5 * (L_red + L_red.T)  # symmetrize round-off
        if np.max(np.abs(L_red.sum(axis=1))) > ROW_SUM_RTOL * max(np.max(np.abs(L_red)), 1e-300):
            raise NetinductError("reduced Laplacian: row sums not zero (accuracy lost "
                                 "to round-off)")

    L_red.flags.writeable = False
    return WeightedLaplacian(L_red, tuple(src))


def phasor_reduce(net: PowerNetwork) -> ReducedAdmittance:
    """Complex reduction eliminating the grid-side nodes.

    Requires the network's output inductance to be uniform and > 0 (set it
    with ``with_outputs``), and no output resistance, which the phasor model
    does not carry yet.  One LU solve of M = I + c L with c = y_l/y_o,
    y_o = 1/(j w l_o) and y_l = 1/(r + j w l).  M is normal with singular
    values |1 + c lam|, so it counts as singular when their ratio exceeds
    1e14, as cond(M) would, read off the network's cached eigenvalues.
    """
    if net.r_out_vector().any():
        raise ValidationError(
            "r_out: phasor reduction models inductive outputs only; "
            "output resistance must be 0")
    # r_out is all zero here, so the outputs are uniform iff l_out is
    l_out = float(net.l_out_vector()[0])
    if not net.uniform_outputs() or l_out == 0.0:
        raise ValidationError(
            "phasor reduction needs a uniform output inductance > 0 "
            "(set it on the nodes, by with_outputs or by --lo)")

    omega = net.omega
    y_o = 1.0 / (1j * omega * l_out)
    y_l = 1.0 / (net.r_per_len + 1j * omega * net.l_per_len)

    lap = build_laplacian(net)
    sv = np.abs(1.0 + (y_l / y_o) * lap.eigenvalues)
    if np.max(sv) > 1e14 * np.min(sv):
        raise SingularMatrixError(f"(I + (y_l/y_o) L) is singular at omega = {omega!r}")
    eye = np.eye(net.n, dtype=complex)
    M = eye + (y_l / y_o) * lap.matrix
    Minv = np.linalg.solve(M, eye)  # LU with partial pivoting
    Y = y_o * (eye - Minv)
    return ReducedAdmittance(Y, lap.ids)


def line_angles(red: ReducedAdmittance, original: PowerNetwork) -> AngleTable:
    """Per-pair branch angles and physical/virtual classification.

    The branch admittance between i != j is -Y_red[i, j]; its reciprocal is
    the branch impedance.  Angles are reported two ways because the sign
    convention of the branch term only fixes the Im/Re ratio, not the
    quadrant: a two-argument arctangent, plus the principal arctan of the
    ratio.  A pair is absent below ``EDGE_EPS_SCALE`` times the largest
    entry, and physical where the original Laplacian has an edge (every
    weight 1/length is > 0).
    """
    lap = build_laplacian(original)
    if red.node_ids != lap.ids:
        raise ValueError("line_angles: reduction and network have different nodes")
    pairs = lap.pairs
    adm = -red.matrix[pairs.a, pairs.b]
    absent = np.abs(adm) < EDGE_EPS_SCALE * np.max(np.abs(red.matrix))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = 1.0 / adm
        z[absent] = np.nan
        principal = np.where(z.real != 0.0, np.arctan(z.imag / z.real),
                             np.copysign(np.pi / 2, z.imag))
    klass = _CLASSES[np.where(absent, 2, ~pairs.edge)]
    return AngleTable(pairs.i, pairs.j, adm, z, np.arctan2(z.imag, z.real), principal, klass)


def angle_table_csv(table: AngleTable, fh: IO[str]) -> None:
    """Write the angle table to the open text handle ``fh``, with the fixed
    documented header; an absent pair's R, X and angle cells are empty."""
    w = csv.writer(fh)
    w.writerow(ANGLE_CSV_HEADER)
    values = zip(map(repr, table.impedance.real.tolist()),
                 map(repr, table.impedance.imag.tolist()),
                 map(repr, table.theta_rad.tolist()))
    for i, j, klass, cells in zip(table.i.tolist(), table.j.tolist(),
                                  table.klass.tolist(), values):
        w.writerow([i, j, klass, *(("", "", "") if klass == "absent" else cells)])
