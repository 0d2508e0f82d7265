"""Dense eigendecompositions through one route: LAPACK's symmetric solver.

``numpy.linalg.eigh`` returns ascending eigenvalues and orthonormal
eigenvectors.  Products D*L of a nonnegative diagonal with a Laplacian are
resolved through the symmetric matrix D^{1/2} L D^{1/2}, which shares the
full spectrum of D*L, so no nonsymmetric eigensolver is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SpectralMismatchError
from .network import WeightedLaplacian

_ZERO_RTOL = 1e-8  # smallest eigenvalue of a Laplacian, relative to max(|eigenvalue|, 1)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, with orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class Connectivity(NamedTuple):
    value: float


def _check_symmetric(A: np.ndarray, rtol: float = 1e-12) -> None:
    scale = max(np.max(np.abs(A)), 1e-300)
    asym = np.max(np.abs(A - A.T))
    if asym > rtol * scale:
        raise SpectralMismatchError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds {rtol:.1e} * {scale:.3e}")


def eig_symmetric(A: np.ndarray) -> Spectrum:
    """Full spectrum of a symmetric matrix, ascending, with orthonormal eigenvectors."""
    A = np.asarray(A, dtype=float)
    _check_symmetric(A)
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))  # drop round-off asymmetry
    return Spectrum(vals, vecs)


def _lap_matrix(L: WeightedLaplacian | np.ndarray) -> np.ndarray:
    return L.matrix if isinstance(L, WeightedLaplacian) else np.asarray(L, dtype=float)


def eig_product(D: np.ndarray, L: WeightedLaplacian | np.ndarray) -> np.ndarray:
    """Real spectrum of diag(D)*L for a nonnegative vector D, ascending.

    Computed as the spectrum of the symmetric matrix D^{1/2} L D^{1/2}.
    """
    Lm = _lap_matrix(L)
    d = np.asarray(D, dtype=float)
    if np.any(d < 0):
        raise ValueError("diagonal entries must be nonnegative")

    _check_symmetric(Lm)
    sq_d = np.sqrt(d)
    return np.linalg.eigvalsh(sq_d[:, None] * Lm * sq_d[None, :])


def algebraic_connectivity(s: Spectrum) -> Connectivity:
    """Second smallest eigenvalue (with multiplicity).

    Requires the smallest eigenvalue to be numerically zero, as for the
    Laplacian of a connected graph.
    """
    vals = s.eigenvalues
    scale = max(np.max(np.abs(vals)), 1.0)
    if abs(vals[0]) > _ZERO_RTOL * scale:
        raise SpectralMismatchError(
            f"smallest eigenvalue {vals[0]!r} is not zero; input is not Laplacian-like")
    return Connectivity(float(vals[1]))
