"""Network inductivity/resistivity ratios.

The homogeneous current dynamics of a network with output impedances is
R I + L dI/dt = Lap V_o.  The inductivity ratio is the reciprocal of the
fastest guaranteed decay rate of ||I(t)|| over initial conditions in the
image of the incidence matrix; the resistivity ratio is the slowest
guaranteed rate.  Closed forms exist in terms of the algebraic
connectivity (uniform outputs) or of the spectra of Lap*D products
(non-uniform output inductors/resistors).

The measures rest on every eigenvalue of L^{-1}R being real and positive.
For a valid network (r, l > 0, D_r, D_l >= 0, connected graph) this holds
by construction, so it is not checked at run time.  Write Lap = S S^T with
S of full column rank n - 1 (Doerfler & Bullo, "Kron reduction of graphs
with applications to electrical networks", IEEE TCAS-I 2013):

* 1^T R = r 1^T and 1^T L = l 1^T, so r/l > 0 is an eigenvalue.
* An eigenvector v of any other eigenvalue rho, (R - rho L) v = 0, gives
  (r - rho l) 1^T v = 0, so v lies in 1-perp and v = S x.
* Then (R - rho L) S x = S (R^ - rho L^) x with R^ = r I + S^T D_r S and
  L^ = l I + S^T D_l S, both symmetric positive definite, so rho is a
  generalized eigenvalue of an SPD pencil: real and > 0.
* L is nonsingular: its spectrum is {l} together with spec(L^), all >= l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularMatrixError
from .network import UNIFORM_RTOL, PowerNetwork, WeightedLaplacian, build_laplacian
from .spectra import eig_product

_DIAG_COND_LIMIT = 1e8


@dataclass(frozen=True)
class ModalDecomposition:
    """Eigendecomposition of A = L^{-1}R and the propagation route it allows."""

    a_matrix: np.ndarray  # L^{-1} R
    vals: np.ndarray  # decay rates; a real array when the whole spectrum is real
    vecs: np.ndarray  # right eigenvectors as columns, real alongside real vals
    route: str  # "modes" (well-conditioned eigenbasis) | "expm"


@dataclass(frozen=True)
class AugmentedDynamics:
    """R and L matrices of the current dynamics R I + L dI/dt = 0.

    The matrices are treated as immutable once a trajectory has used them:
    the first use caches their modal decomposition on the instance.
    """

    r_matrix: np.ndarray
    l_matrix: np.ndarray

    @cached_property
    def decomposition(self) -> ModalDecomposition:
        """L^{-1}R with its eigenpairs, computed once per instance.

        Raises SingularMatrixError (on every access, since nothing is cached
        then) when L is numerically singular.  The route is "modes" when the
        eigenvector matrix is well conditioned and reproduces A to 1e-10
        relative, otherwise "expm" (not diagonalizable in double precision).
        """
        if np.linalg.cond(self.l_matrix) > 1e14:
            raise SingularMatrixError("L matrix of the dynamics is singular")
        A = np.linalg.solve(self.l_matrix, self.r_matrix)
        vals, V = np.linalg.eig(A)
        route = "expm"
        if np.linalg.cond(V) < _DIAG_COND_LIMIT:
            resid = np.linalg.norm(A @ V - V * vals) / max(np.linalg.norm(A), 1e-300)
            if resid < 1e-10:
                route = "modes"
        return ModalDecomposition(A, vals, V, route)


@dataclass(frozen=True)
class MeasureReport:
    psi_nir: float  # seconds
    psi_nrr: float  # 1/seconds
    theta_nir: float  # radians
    regime: str  # "lambda2" | "lambda_max" | "degenerate"
    mu: float  # envelope constant; 0.0 flags a zero output inductor
    lambda_used: float


def assemble_dynamics(net: PowerNetwork) -> AugmentedDynamics:
    """R = r I + Lap D_r and L = l I + Lap D_l, with D_r, D_l the output diagonals."""
    lap = build_laplacian(net).matrix
    eye = np.eye(net.n)
    return AugmentedDynamics(net.r_per_len * eye + lap * net.r_out_vector(),
                             net.l_per_len * eye + lap * net.l_out_vector())


def _rate(lam: float, r_o: float, r: float, l_o: float, l: float) -> float:
    return (r_o * lam + r) / (l_o * lam + l)


def psi_nir_uniform(net: PowerNetwork) -> MeasureReport:
    """Inductivity/resistivity ratios for uniform output impedances.

    The decay rates of the dynamics on the zero-sum subspace are
    (r_o*lam_i + r)/(l_o*lam_i + l) over the nonzero Laplacian eigenvalues;
    the rate is monotone in lam so the extremes sit at lam_2 or lam_max
    depending on the sign of r_o/l_o - r/l.
    """
    if not net.uniform_outputs():
        raise ValueError("network has non-uniform output impedances")
    return _uniform_report(net, build_laplacian(net))


def _uniform_report(net: PowerNetwork, lap: WeightedLaplacian) -> MeasureReport:
    r, l = net.r_per_len, net.l_per_len
    r_o = float(net.r_out_vector()[0])
    l_o = float(net.l_out_vector()[0])

    vals = lap.spectrum.eigenvalues  # computed once per topology
    lam2 = float(vals[1])
    lam_max = float(vals[-1])

    diff = r_o * l - r * l_o  # sign of r_o/l_o - r/l
    scale = max(abs(r_o * l), abs(r * l_o))
    if abs(diff) <= UNIFORM_RTOL * scale:  # includes r_o = l_o = 0
        regime, lam_used = "degenerate", lam2
        psi, nrr = l / r, r / l
    elif diff < 0.0:
        regime, lam_used = "lambda2", lam2
        psi = 1.0 / _rate(lam2, r_o, r, l_o, l)
        nrr = _rate(lam_max, r_o, r, l_o, l)
    else:  # includes purely resistive outputs, l_o = 0 < r_o
        regime, lam_used = "lambda_max", lam_max
        psi = 1.0 / _rate(lam_max, r_o, r, l_o, l)
        nrr = _rate(lam2, r_o, r, l_o, l)

    return MeasureReport(psi_nir=psi, psi_nrr=nrr,
                         theta_nir=math.atan(net.omega * psi),
                         regime=regime, mu=1.0, lambda_used=lam_used)


def psi_nir_nonuniform(net: PowerNetwork) -> MeasureReport:
    """Ratios for per-node output impedances.

    Inductors only: psi = (lam2(D_l*Lap) + l)/r.  With resistors as well the
    spectra of Lap*D_l and Lap*D_r are index-paired ascending and the worst
    quotient over indices 2..n is taken.
    """
    return _nonuniform_report(net, build_laplacian(net).matrix)


def _nonuniform_report(net: PowerNetwork, lap: np.ndarray) -> MeasureReport:
    r, l = net.r_per_len, net.l_per_len
    d_r = net.r_out_vector()
    d_l = net.l_out_vector()

    lam_l = eig_product(d_l, lap)
    if np.all(d_r == 0.0):
        lam2 = float(lam_l[1])
        lam_max = float(lam_l[-1])
        psi = (lam2 + l) / r
        nrr = r / (lam_max + l)
        lam_used = lam2
    else:
        lam_r = eig_product(d_r, lap)
        quot = (lam_l[1:] + l) / (lam_r[1:] + r)
        k = int(np.argmin(quot))
        psi = float(quot[k])
        nrr = float(np.min((lam_r[1:] + r) / (lam_l[1:] + l)))
        lam_used = float(lam_l[1:][k])

    mn, mx = float(np.min(d_l)), float(np.max(d_l))
    mu = math.sqrt(mn / mx) if mn > 0.0 and mx > 0.0 else 0.0

    return MeasureReport(psi_nir=psi, psi_nrr=nrr,
                         theta_nir=math.atan(net.omega * psi),
                         regime="lambda2", mu=mu, lambda_used=lam_used)


def measure_report(net: PowerNetwork) -> MeasureReport:
    """Dispatch on output uniformity; the Laplacian is assembled once."""
    lap = build_laplacian(net)
    if net.uniform_outputs():
        return _uniform_report(net, lap)
    return _nonuniform_report(net, lap.matrix)
