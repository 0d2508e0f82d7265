"""Independent numpy/scipy references for every benchmark job.

Nothing here calls the package: each value is recomputed from the generated
JSON document with LAPACK routines (``eigvalsh``/``eigh``, Cholesky,
``expm``) and compared with what the package returned.  A check yields
problems of two kinds:

* ``"reference"`` -- a returned number disagrees with its reference;
* ``"guarantee"`` -- a property the result must have does not hold (an
  envelope bound, an allocation off the simplex or below the uniform split).

Either kind fails the job; only the first makes the run incorrect.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

MEASURE_RTOL = 1e-7
MATRIX_RTOL = 1e-9
TRAJ_RTOL = 1e-6
TRAJ_ATOL = 1e-7  # times ||I0||
ANGLE_ATOL = 1e-6
EDGE_EPS_SCALE = 1e-9  # the package's absent-branch threshold, relative to max |Y|
ENVELOPE_SLACK = 1e-9  # the package's round-off allowance on both envelopes


class Problems(list):
    """Collected (kind, message) pairs for one job."""

    def close(self, what: str, got, want, rtol: float, atol: float = 0.0) -> None:
        got = np.asarray(got, dtype=complex if np.iscomplexobj(got) else float)
        want = np.asarray(want, dtype=got.dtype)
        if got.shape != want.shape:
            self.append(("reference", f"{what}: shape {got.shape} != {want.shape}"))
            return
        err = np.max(np.abs(got - want), initial=0.0)
        scale = np.max(np.abs(want), initial=0.0)
        if not err <= atol + rtol * scale:
            self.append(("reference", f"{what}: max error {err:.3e} vs scale {scale:.3e}"))

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.append(("reference", f"{what}: {got!r} != {want!r}"))

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.append(("guarantee", what))


# ---------------------------------------------------------------------------
# Networks

def laplacian(doc: dict) -> np.ndarray:
    """Weighted Laplacian over nodes sorted by id, edge weight 1/length."""
    ids = sorted(nd["id"] for nd in doc["nodes"])
    index = {nid: i for i, nid in enumerate(ids)}
    L = np.zeros((len(ids), len(ids)))
    a = np.array([index[e["a"]] for e in doc["edges"]])
    b = np.array([index[e["b"]] for e in doc["edges"]])
    w = np.array([1.0 / e["length"] for e in doc["edges"]])
    np.add.at(L, (a, b), -w)
    np.add.at(L, (b, a), -w)
    np.add.at(L, (a, a), w)
    np.add.at(L, (b, b), w)
    return L


def outputs(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    nodes = sorted(doc["nodes"], key=lambda nd: nd["id"])
    return (np.array([nd["r_out"] for nd in nodes]),
            np.array([nd["l_out"] for nd in nodes]))


def _uniform(v: np.ndarray) -> bool:
    scale = np.max(np.abs(v))
    return scale == 0.0 or (np.max(v) - np.min(v)) / scale <= 1e-12


def product_eigvals(d: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Ascending spectrum of diag(d) L through the symmetric D^1/2 L D^1/2."""
    s = np.sqrt(d)
    return np.linalg.eigvalsh(s[:, None] * L * s[None, :])


def measures(doc: dict, L: np.ndarray | None = None) -> dict:
    """Psi_NIR, Psi_NRR, theta_NIR, regime, lambda_used and mu from closed forms."""
    L = laplacian(doc) if L is None else L
    r, l = doc["line"]["r_per_len"], doc["line"]["l_per_len"]
    omega = doc["frequency_rad_s"]
    d_r, d_l = outputs(doc)
    if _uniform(d_r) and _uniform(d_l):
        lam = np.linalg.eigvalsh(L)
        out = uniform_measures(lam[1], lam[-1], r, l, float(d_r[0]), float(d_l[0]))
        out["mu"] = 1.0
    else:
        lam_l = product_eigvals(d_l, L)
        if np.all(d_r == 0.0):
            psi, nrr, used = (lam_l[1] + l) / r, r / (lam_l[-1] + l), lam_l[1]
        else:
            lam_r = product_eigvals(d_r, L)
            quot = (lam_l[1:] + l) / (lam_r[1:] + r)
            k = int(np.argmin(quot))
            psi, used = quot[k], lam_l[1:][k]
            nrr = np.min((lam_r[1:] + r) / (lam_l[1:] + l))
        mn, mx = np.min(d_l), np.max(d_l)
        out = {"psi_nir": float(psi), "psi_nrr": float(nrr), "regime": "lambda2",
               "lambda_used": float(used),
               "mu": math.sqrt(mn / mx) if mn > 0.0 and mx > 0.0 else 0.0}
    out["theta_nir"] = math.atan(omega * out["psi_nir"])
    return out


def uniform_measures(lam2: float, lam_max: float, r: float, l: float,
                     r_o: float, l_o: float) -> dict:
    """Extreme decay rates (r_o lam + r)/(l_o lam + l) over lam in {lam2, lam_max}."""
    rate2 = (r_o * lam2 + r) / (l_o * lam2 + l)
    rate_max = (r_o * lam_max + r) / (l_o * lam_max + l)
    if abs(r_o * l - r * l_o) <= 1e-12 * max(abs(r_o * l), abs(r * l_o)):
        # r_o/l_o = r/l (or no outputs): every mode decays at r/l
        return {"psi_nir": l / r, "psi_nrr": r / l, "regime": "degenerate",
                "lambda_used": float(lam2)}
    if r_o * l < r * l_o:  # rates grow with lam: the slowest mode sits at lam2
        return {"psi_nir": 1.0 / rate2, "psi_nrr": rate_max, "regime": "lambda2",
                "lambda_used": float(lam2)}
    return {"psi_nir": 1.0 / rate_max, "psi_nrr": rate2, "regime": "lambda_max",
            "lambda_used": float(lam_max)}


def check_report(p: Problems, rep, want: dict) -> None:
    for key in ("psi_nir", "psi_nrr", "theta_nir", "lambda_used", "mu"):
        p.close(f"report.{key}", getattr(rep, key), want[key], MEASURE_RTOL)
    p.equal("report.regime", rep.regime, want["regime"])


def schur(L: np.ndarray, keep: list[int]) -> np.ndarray:
    """Kron reduction L_kk - L_ke L_ee^-1 L_ek by Cholesky of the eliminated block."""
    elim = [i for i in range(L.shape[0]) if i not in set(keep)]
    if not elim:
        return L[np.ix_(keep, keep)].copy()
    factor = scipy.linalg.cho_factor(L[np.ix_(elim, elim)])
    X = scipy.linalg.cho_solve(factor, L[np.ix_(elim, keep)])
    S = L[np.ix_(keep, keep)] - L[np.ix_(keep, elim)] @ X
    return 0.5 * (S + S.T)


def source_indices(doc: dict, sources: list[int]) -> list[int]:
    ids = sorted(nd["id"] for nd in doc["nodes"])
    return [ids.index(s) for s in sources]


# ---------------------------------------------------------------------------
# Phasor reduction

def phasor_admittance(lam: np.ndarray, U: np.ndarray, r: float, l: float,
                      omega: float, l_o: float) -> np.ndarray:
    """Y_red = y_o (I - U diag(1/(1 + c lam)) U^T), c = y_l / y_o."""
    y_o = 1.0 / (1j * omega * l_o)
    y_l = 1.0 / (r + 1j * omega * l)
    c = y_l / y_o
    n = lam.size
    return y_o * (np.eye(n) - (U * (1.0 / (1.0 + c * lam))) @ U.T)


def check_line_angles(p: Problems, records, Y: np.ndarray, doc: dict) -> None:
    """Classification and two-argument angle of every pair against Y."""
    n = Y.shape[0]
    ids = sorted(nd["id"] for nd in doc["nodes"])
    iu = np.triu_indices(n, 1)
    if len(records) != iu[0].size:
        p.append(("reference", f"line_angles: {len(records)} records, want {iu[0].size}"))
        return
    edges = {frozenset((e["a"], e["b"])) for e in doc["edges"]}
    adm = -Y[iu]
    eps = EDGE_EPS_SCALE * np.max(np.abs(Y))
    for rec, a, b, y in zip(records, iu[0], iu[1], adm):
        if (rec.i, rec.j) != (ids[a], ids[b]):
            p.append(("reference", f"line_angles: pair {(rec.i, rec.j)} out of order"))
            return
        mag = abs(y)
        if abs(mag - eps) <= 1e-6 * eps:
            continue  # on the threshold either class is right
        if mag < eps:
            p.equal(f"class[{rec.i},{rec.j}]", rec.klass, "absent")
            continue
        want = "physical" if frozenset((rec.i, rec.j)) in edges else "virtual"
        p.equal(f"class[{rec.i},{rec.j}]", rec.klass, want)
        if mag >= 1e-6 * np.max(np.abs(Y)):  # small entries carry LU round-off
            z = 1.0 / y
            diff = (rec.theta_rad - math.atan2(z.imag, z.real) + math.pi) % (2 * math.pi) - math.pi
            if abs(diff) > ANGLE_ATOL:
                p.append(("reference", f"theta[{rec.i},{rec.j}] off by {diff:.3e} rad"))


# ---------------------------------------------------------------------------
# Trajectories

def dynamics(doc: dict, L: np.ndarray) -> np.ndarray:
    """A = L_dyn^-1 R_dyn of the homogeneous current dynamics."""
    r, l = doc["line"]["r_per_len"], doc["line"]["l_per_len"]
    d_r, d_l = outputs(doc)
    eye = np.eye(L.shape[0])
    if _uniform(d_r) and _uniform(d_l):
        R, Ld = d_r[0] * L + r * eye, d_l[0] * L + l * eye
    else:
        R, Ld = r * eye + L * d_r[None, :], l * eye + L * d_l[None, :]
    return np.linalg.solve(Ld, R)


def propagators(A: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    return [scipy.linalg.expm(-A * t) for t in times]


def envelope_verdict(norms: np.ndarray, times: np.ndarray, i0_norm: float,
                     want: dict) -> tuple[bool, bool]:
    """Lower mu e^{-t/psi_nir} and upper e^{-psi_nrr t}/mu bounds on ||I(t)||."""
    mu = want["mu"] if want["mu"] > 0.0 else 1.0
    lower = mu * np.exp(-times / want["psi_nir"]) * i0_norm
    upper = np.exp(-want["psi_nrr"] * times) * i0_norm / mu
    return (bool(np.all(norms * (1.0 + ENVELOPE_SLACK) >= lower)),
            bool(np.all(upper * (1.0 + ENVELOPE_SLACK) >= norms)))


def decay_rates(times: np.ndarray, norms: np.ndarray) -> tuple[float, float]:
    """Least-squares slopes of log ||I|| over the first and last tenth of the grid."""
    valid = norms > 1e-300
    t, y = times[valid], np.log(norms[valid])
    k = max(2, math.ceil(0.1 * t.size))
    return -np.polyfit(t[:k], y[:k], 1)[0], -np.polyfit(t[-k:], y[-k:], 1)[0]


# ---------------------------------------------------------------------------
# Allocation

def allocation_lam2(alloc: np.ndarray, S: np.ndarray) -> float:
    return float(product_eigvals(np.clip(alloc, 0.0, None), S)[1])


def check_allocation(p: Problems, res, S: np.ndarray, budget: float) -> float:
    """Simplex, bounds, lambda2 and the uniform-split floor; returns the reference lambda2."""
    d = np.asarray(res.allocation, dtype=float)
    p.require(f"allocation sums to {d.sum()!r}, budget {budget!r}",
              abs(d.sum() - budget) <= 1e-9 * budget)
    p.require(f"allocation below its zero lower bound: min {d.min()!r}",
              d.min() >= -1e-12 * budget)
    lam2 = allocation_lam2(d, S)
    p.close("allocation.lam2", res.lam2, lam2, MEASURE_RTOL)
    floor = allocation_lam2(np.full(d.size, budget / d.size), S)
    p.require(f"lambda2 {lam2!r} below the uniform split {floor!r}",
              lam2 >= floor * (1.0 - 1e-9))
    return lam2
