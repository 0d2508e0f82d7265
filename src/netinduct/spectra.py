"""Dense eigendecompositions.

Two routes are kept deliberately independent:

* LAPACK's symmetric solver (``numpy.linalg.eigh``), which returns
  ascending eigenvalues and orthonormal eigenvectors, and
* a general real-spectrum solver used purely as a cross-check
  (LAPACK Hessenberg + shifted QR via ``numpy.linalg.eigvals``).

Products D*L of a nonnegative diagonal with a Laplacian are resolved
through the symmetric matrix D^{1/2} L D^{1/2}, which shares the full
spectrum of D*L, and cross-checked against the general solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SpectralMismatchError
from .network import WeightedLaplacian


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending; eigenvectors only for symmetric input."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    symmetric: bool


class Connectivity(NamedTuple):
    value: float
    fiedler: np.ndarray | None


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
    return Spectrum(vals, vecs, True)


def eig_general(A: np.ndarray, imag_rtol: float = 1e-8) -> np.ndarray:
    """Real, ascending eigenvalues of a general square matrix.

    Small imaginary parts (round-off of a real spectrum) are truncated;
    genuinely complex eigenvalues raise.
    """
    vals = np.linalg.eigvals(np.asarray(A, dtype=float))
    scale = max(np.max(np.abs(vals)), 1e-300)
    if np.max(np.abs(vals.imag)) > imag_rtol * scale:
        raise SpectralMismatchError(
            f"complex eigenvalues beyond tolerance: max |Im| = {np.max(np.abs(vals.imag)):.3e}")
    return np.sort(vals.real)


def _lap_matrix(L: WeightedLaplacian | np.ndarray) -> np.ndarray:
    return L.matrix if isinstance(L, WeightedLaplacian) else np.asarray(L, dtype=float)


def eig_product(D: np.ndarray, L: WeightedLaplacian | np.ndarray,
                cross_rtol: float = 1e-6) -> Spectrum:
    """Real spectrum of D*L for nonnegative diagonal D.

    Computed from the symmetric matrix D^{1/2} L D^{1/2} and cross-checked
    against the general solver on D*L.  For nonsingular D a disagreement
    raises; for singular D (a boundary case the symmetric route still
    covers) a disagreement is only reported as a warning.
    """
    Lm = _lap_matrix(L)
    d = np.asarray(D, dtype=float)
    if d.ndim == 2:
        d = np.diag(d)
    if np.any(d < 0):
        raise ValueError("diagonal entries must be nonnegative")

    _check_symmetric(Lm)
    sq_d = np.sqrt(d)
    sym_vals = np.linalg.eigvalsh(sq_d[:, None] * Lm * sq_d[None, :])

    gen_vals = eig_general(np.diag(d) @ Lm)
    scale = max(np.max(np.abs(sym_vals)), np.max(np.abs(gen_vals)), 1e-300)
    disagreement = np.max(np.abs(sym_vals - gen_vals)) / scale
    if disagreement > cross_rtol:
        msg = (f"eigenvalue routes disagree by {disagreement:.3e} relative "
               f"(symmetric lambda2={sym_vals[1]!r}, general lambda2={gen_vals[1]!r})")
        if np.min(d) > 0:
            raise SpectralMismatchError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return Spectrum(sym_vals, None, False)


def algebraic_connectivity(s: Spectrum, zero_rtol: float = 1e-8) -> Connectivity:
    """Second smallest eigenvalue (with multiplicity) and Fiedler vector.

    Requires the smallest eigenvalue to be numerically zero, as for the
    Laplacian of a connected graph.
    """
    vals = s.eigenvalues
    scale = max(np.max(np.abs(vals)), 1.0)
    if abs(vals[0]) > zero_rtol * scale:
        raise SpectralMismatchError(
            f"smallest eigenvalue {vals[0]!r} is not zero; input is not Laplacian-like")
    fiedler = s.eigenvectors[:, 1].copy() if s.eigenvectors is not None else None
    return Connectivity(float(vals[1]), fiedler)
