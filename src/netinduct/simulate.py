"""Homogeneous current trajectories and empirical envelope checks.

Trajectories run in real arithmetic through the SPD pencil (R^, L^):
I(t) = S G e^{-rho t} G^T L^ x with C x = I0[1:] and S = P C the lift; the
``measures`` docstring derives this and proves every rate real and > 0.
All trajectories of one ``AugmentedDynamics`` share its rates and modes.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .measures import AugmentedDynamics, MeasureReport
from .network import build_laplacian

ENVELOPE_SLACK = 1e-9  # multiplicative round-off allowance at t = 0
# below this ||I|| the squares summed by np.linalg.norm are subnormal or 0
_NORM_FLOOR = 1e-150
_TINY = np.finfo(float).tiny  # smallest normal double; below it no relative precision


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # seconds, ascending, t[0] = 0
    currents: np.ndarray  # n x T
    i0: np.ndarray
    norms: np.ndarray  # ||I(t)|| per sample


@dataclass(frozen=True)
class EnvelopeVerdict:
    lower_ok: bool
    upper_ok: bool
    lower_slack: np.ndarray  # ||I|| / (mu e^{-t/psi} ||I0||) - 1 per sample
    upper_slack: np.ndarray  # (mu' e^{-nrr t} ||I0||) / ||I|| - 1 per sample


@dataclass(frozen=True)
class DecayRates:
    fastest: float  # fit over the first 10% of the grid
    slowest: float  # fit over the last 10%


def default_time_grid(report: MeasureReport, points: int = 400) -> np.ndarray:
    """Grid covering about eight slowest time constants."""
    return np.linspace(0.0, 8.0 * report.psi_nir, points)


def homogeneous_solution(dyn: AugmentedDynamics, i0: np.ndarray,
                         t_grid: np.ndarray) -> Trajectory:
    """I(t) = exp(-L^{-1}R t) I0 on the given grid.

    I0 is projected onto the zero-sum subspace if it violates current
    conservation beyond round-off.  Each call solves C x = I0[1:] and
    expands x in the modes of ``dyn.decomposition``, computed once per ``dyn``.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be ascending and start at 0")
    i0 = np.asarray(i0, dtype=float).copy()
    n = i0.size
    drift = abs(i0.sum())
    if drift > 1e-12 * max(np.linalg.norm(i0), 1e-300):
        warnings.warn(f"i0 violates 1^T I0 = 0 by {drift:.3e}; projecting",
                      RuntimeWarning, stacklevel=2)
        i0 = i0 - i0.sum() / n

    dec = dyn.decomposition
    # a solve per call, not a cached inverse, for accuracy
    x = np.linalg.solve(build_laplacian(dyn.network).lift[1:], i0[1:])
    alpha = dec.project @ x
    currents = dec.vecs @ (np.exp(-np.outer(dec.vals, t)) * alpha[:, None])
    norms = np.linalg.norm(currents, axis=0)
    low = norms < _NORM_FLOOR
    norms[low] = np.hypot.reduce(currents[:, low], axis=0)  # no squares to underflow
    return Trajectory(t, currents, i0, norms)


def verify_envelopes(traj: Trajectory, report: MeasureReport) -> EnvelopeVerdict:
    """Check the exponential lower/upper bounds sample by sample.

    Lower: ||I(t)|| >= mu e^{-t/psi_nir} ||I0||.
    Upper: ||I(t)|| <= mu' e^{-psi_nrr t} ||I0|| with mu' = 1/mu.
    Violations are returned as negative slack, not raised.  Where the
    divisor of a slack (the lower bound, or ||I(t)|| for the upper one) has
    underflowed below the normal range, the sample carries no relative
    precision and holds trivially: its slack is +inf.
    """
    n0 = np.linalg.norm(traj.i0)
    if n0 == 0.0:
        z = np.zeros_like(traj.times)
        return EnvelopeVerdict(True, True, z, z)
    mu = report.mu if report.mu > 0.0 else 1.0  # zero-flagged mu: no scaling known
    lower = mu * np.exp(-traj.times / report.psi_nir) * n0
    upper = (1.0 / mu) * np.exp(-report.psi_nrr * traj.times) * n0
    lower_slack = np.divide(traj.norms * (1.0 + ENVELOPE_SLACK), lower,
                            out=np.full_like(lower, np.inf), where=lower >= _TINY) - 1.0
    upper_slack = np.divide(upper * (1.0 + ENVELOPE_SLACK), traj.norms,
                            out=np.full_like(upper, np.inf), where=traj.norms >= _TINY) - 1.0
    return EnvelopeVerdict(bool(np.all(lower_slack >= 0.0)),
                           bool(np.all(upper_slack >= 0.0)),
                           lower_slack, upper_slack)


def fit_decay_rates(traj: Trajectory) -> DecayRates:
    """Log-linear least-squares decay rates over the head and tail of the grid."""
    norms = traj.norms
    if np.all(norms == 0.0):
        raise ValueError("trajectory is identically zero")
    valid = norms > 1e-300  # underflow truncates the fit window
    t = traj.times[valid]
    y = np.log(norms[valid])
    k = max(2, int(math.ceil(0.1 * t.size)))

    def slope(ts, ys):
        # closed-form least-squares slope of ys against ts, negated
        dt = ts - ts.mean()
        return -np.dot(dt, ys - ys.mean()) / np.dot(dt, dt)

    return DecayRates(fastest=float(slope(t[:k], y[:k])),
                      slowest=float(slope(t[-k:], y[-k:])))


def trajectory_csv(traj: Trajectory, fh: IO[str]) -> None:
    """Write columns t, I_1 ... I_n, norm to the open text handle ``fh``."""
    w = csv.writer(fh)
    n = traj.currents.shape[0]
    w.writerow(["t"] + [f"I_{k + 1}" for k in range(n)] + ["norm"])
    for k, tk in enumerate(traj.times):
        w.writerow([repr(float(tk))]
                   + [repr(float(x)) for x in traj.currents[:, k]]
                   + [repr(float(traj.norms[k]))])
