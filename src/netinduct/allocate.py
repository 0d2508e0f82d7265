"""Output-inductor design.

Uniform design inverts the closed-form angle target.  Non-uniform design
maximizes the algebraic connectivity lam2(diag(d) L) over the budget
simplex {d >= b, sum(d) = c}, a concave objective.  L is a Laplacian
record, the network's own or its Kron reduction onto the sources.  Its
cached lift S = P C (C the Cholesky factor of L[1:, 1:], P = [-1^T; I]), a
k x (k-1) matrix with S S^T = L, gives lam2(diag(d) L) = lam_min(S^T diag(d) S),
linear in d, so the design step is the small eigenvalue SDP

    maximize t  subject to  S^T diag(d) S >= t I,  d >= b,  1^T d = c.

It is solved, scaled to unit budget and to lam_min = 1 at the uniform
split, by a primal-dual interior-point method (HKM direction with a
Mehrotra predictor-corrector).  Each Newton step factors once: one stacked
eigh of the primal slack Z and the dual W gives lam_min, Z^-1 and both
step-length scalings, and predictor and corrector share one equilibration
of the Newton system.  Any W >= 0 with tr W = 1 bounds the optimum from
above by UB = b^T g + (c - sum(b)) max_i g_i, where g_i = s_i^T W s_i and
s_i is row i of S; the dual iterates supply such W.
The solver stops once the certified relative gap (UB - lam2) / UB is at
most ``_GAP_TARGET`` and returns the primal iterate with the largest lam2.
When diag(d) L is badly conditioned at the optimum (lam_max / lam2 of about
1e3 or more, as when lower bounds fix nearly the whole budget), double
precision can stall it short of the target; it then stops and reports the
gap it did certify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NetinductError, ValidationError
from .kron import kron_reduce_real
from .network import PowerNetwork, WeightedLaplacian, build_laplacian

_GAP_TARGET = 1e-9  # certified relative duality gap at which the solver stops
_MAX_STEPS = 60  # safety net: well-conditioned problems (k = 2..12) stop within 18 steps


@dataclass(frozen=True)
class AllocationProblem:
    """``laplacian`` may be given as a matrix: built from no validated network,
    it is checked to be a connected Laplacian (a ``ValidationError`` names the
    fault) and copied into a read-only record over the node ids 0..n-1."""

    laplacian: WeightedLaplacian
    budget: float  # henry
    lower_bounds: np.ndarray | None = None
    r_per_len: float | None = None
    l_per_len: float | None = None
    omega: float | None = None

    def __post_init__(self):
        if not isinstance(self.laplacian, WeightedLaplacian):
            L = np.array(self.laplacian, dtype=float, ndmin=2)
            L.flags.writeable = False
            object.__setattr__(self, "laplacian", WeightedLaplacian(L, tuple(range(len(L)))))
            _check_laplacian(self.laplacian)

    def bounds(self) -> np.ndarray:
        n = len(self.laplacian.ids)
        if n < 2:
            raise ValidationError(f"laplacian: allocation needs at least 2 nodes, got {n}")
        b = np.zeros(n) if self.lower_bounds is None else np.asarray(self.lower_bounds, dtype=float)
        if b.shape != (n,):
            raise ValidationError(f"lower_bounds: expected {n} entries")
        if not np.all(np.isfinite(b)):
            raise ValidationError("lower_bounds: must be finite numbers")
        if np.any(b < 0):
            raise ValidationError("lower_bounds: negative entry")
        if not 0.0 < self.budget < math.inf:
            raise ValidationError(f"budget: must be a finite number > 0, got {self.budget!r}")
        if b.sum() > self.budget * (1 + 1e-12):
            raise ValidationError("lower_bounds: sum exceeds the budget")
        return b


@dataclass(frozen=True)
class AllocationResult:
    allocation: np.ndarray
    lam2: float
    psi_nir: float | None
    theta_nir: float | None
    diagnostics: dict = field(default_factory=dict)


def _check_laplacian(lap: WeightedLaplacian) -> None:
    """Symmetry; zero row sums, to the reduction's 1e-9 (else S S^T != L); lam2 > 0."""
    L = lap.matrix
    if L.ndim != 2 or not 2 <= len(L) == L.shape[1] or not np.all(np.isfinite(L)):
        raise ValidationError(f"laplacian: allocation needs a square matrix of finite "
                              f"numbers over at least 2 nodes, got shape {L.shape}")
    scale = max(np.max(np.abs(L)), 1e-300)
    if np.max(np.abs(L - L.T)) > 1e-12 * scale:
        raise ValidationError("laplacian: matrix is not symmetric")
    if np.max(np.abs(L.sum(axis=1))) > 1e-9 * scale:
        raise ValidationError("laplacian: row sums are not zero")
    lam = lap.eigenvalues
    if not lam[1] > 1e-12 * lam[-1]:
        raise ValidationError("laplacian: lambda2 is zero, the network is disconnected")


def _upper_bound(g: np.ndarray, beta: np.ndarray, free: float) -> float:
    """max lam_min(A^T diag(x) A) over {x >= beta, sum(x - beta) = free} is at most
    this, for g_i = a_i^T W a_i with W >= 0 and tr W = 1."""
    return float(beta @ g + free * g.max())


def _interior_point(A: np.ndarray, beta: np.ndarray):
    """Maximize lam_min(A^T diag(x) A) over {x >= beta, sum(x) = 1}.

    Primal (x, t) with slacks Z = A^T diag(x) A - t I and s = x - beta; dual
    W >= 0 with tr W = 1, u >= 0 and nu with a_i^T W a_i + u_i = nu.  The
    start is feasible for both (x uniform over the free budget, t one below
    its lam_min, W = I/m).  The eigenpairs of Z and W give the scalings F
    with F Z F^T = F W F^T = I, so the largest steps keeping Z and W
    positive definite come from the eigenvalues of F dZ F^T and F dW F^T.
    Returns (x with the largest lam_min, that lam_min, the smallest
    certified upper bound, Newton steps).
    """
    k, m = A.shape
    free = 1.0 - beta.sum()
    x = beta + free / k
    eye = np.eye(m)
    W = eye / m
    g = np.einsum("ij,ij->i", A, A) / m
    nu = g.max() + 1.0
    u = nu - g
    lb_best, x_best, ub_best = -np.inf, x, np.inf
    steps = 0
    while True:
        s = x - beta
        AW = A @ W
        g = np.einsum("ij,ij->i", AW, A)
        (lam, w), (V, Q) = np.linalg.eigh(np.stack([(A.T * x) @ A, W]))
        if steps == 0:
            t = lam[0] - 1.0
        z = lam - t
        if lam[0] > lb_best:
            lb_best, x_best = float(lam[0]), x
        ub_best = min(ub_best, _upper_bound(g / np.trace(W), beta, free))
        if (ub_best - lb_best <= _GAP_TARGET * ub_best or steps == _MAX_STEPS
                or z[0] <= 0 or w[0] <= 0):  # past the boundary, round-off ends the run
            break
        Z = (V * z) @ V.T
        Zi = (V / z) @ V.T
        F = np.stack([V.T / np.sqrt(z)[:, None], Q.T / np.sqrt(w)[:, None]])
        mu = (np.sum(Z * W) + s @ u) / (m + k)
        AZi = A @ Zi
        h = np.einsum("ij,ij->i", AZi @ W, A)  # a_i^T Z^-1 W a_i
        # Schur complement of the HKM Newton system in (dx, dt, dnu), Ruiz-equilibrated
        K = np.zeros((k + 2, k + 2))
        K[:k, :k] = (AW @ A.T) * (AZi @ A.T)
        K[np.arange(k), np.arange(k)] += u / s
        K[:k, k] = K[k, :k] = -h
        K[k, k] = np.sum(Zi * W.T)
        K[:k, k + 1] = K[k + 1, :k] = 1.0
        e = np.ones(k + 2)
        for _ in range(3):
            r = 1.0 / np.sqrt(np.abs(K).max(axis=1))
            K = K * r[:, None] * r[None, :]
            e *= r
        r_dual = g + u - nu
        r_trace = np.trace(W) - 1.0
        r_budget = x.sum() - 1.0

        def direction(Wc, uc):
            """Newton step towards W Z = mu' I, u s = mu'; Wc, uc carry mu' and the corrector."""
            rhs = np.concatenate([r_dual + np.einsum("ij,ij->i", A @ Wc, A) + uc,
                                  [-r_trace - np.trace(Wc)], [-r_budget]])
            sol = e * np.linalg.solve(K, e * rhs)
            dx, dt, dnu = sol[:k], sol[k], sol[k + 1]
            dZ = (A.T * dx) @ A - dt * eye
            T = W @ dZ @ Zi
            dW = Wc - 0.5 * (T + T.T)
            du = uc - (u / s) * dx
            # 0.95 of the way to the boundary of Z, W, s, u > 0, and at most 1
            low = min(np.linalg.eigvalsh(F @ np.stack([dZ, dW]) @ F.transpose(0, 2, 1)).min(),
                      np.min(dx / s), np.min(du / u))
            return dx, dt, dnu, dZ, dW, du, 1.0 if low >= -0.95 else -0.95 / low

        try:
            dx, dt, dnu, dZ, dW, du, step = direction(-W, -u)  # predictor
            mu_aff = (np.sum((Z + step * dZ) * (W + step * dW))
                      + (s + step * dx) @ (u + step * du)) / (m + k)
            sigma_mu = mu * (mu_aff / mu) ** 3
            C = dW @ dZ @ Zi
            dx, dt, dnu, dZ, dW, du, step = direction(
                sigma_mu * Zi - W - 0.5 * (C + C.T), (sigma_mu - s * u - dx * du) / s)
        except np.linalg.LinAlgError:  # round-off has taken an iterate to the boundary
            break
        x = x + step * dx
        t = t + step * dt
        W = W + step * dW
        W = 0.5 * (W + W.T)
        u = u + step * du
        nu = nu + step * dnu
        steps += 1
    return x_best, lb_best, ub_best, steps


def optimize_allocation(problem: AllocationProblem) -> AllocationResult:
    """Maximize lam2(diag(d) * L) over {d >= bounds, sum d = budget}.

    Deterministic; ``diagnostics`` holds ``gap``, the certified relative
    duality gap (``upper_bound`` - lam2) / ``upper_bound``, ``passes``
    (interior-point Newton steps) and ``starts`` (always 1).
    """
    lap = problem.laplacian
    b = problem.bounds()
    c = problem.budget
    free = c - b.sum()
    lam2_L = float(lap.eigenvalues[1])
    if not lam2_L > 0.0:  # the record is connected, so round-off has lost lam2
        raise NetinductError(f"laplacian: lambda2 is not > 0, got {lam2_L!r} (round-off)")
    S, k = lap.lift, len(lap.ids)
    if free <= 1e-12 * c:  # the simplex is the single point b
        best, steps = b, 0
        v = np.linalg.eigh((S.T * b) @ S)[1][:, 0]
        upper = _upper_bound((S @ v) ** 2, b, max(free, 0.0))
    else:  # scaled to unit budget, with lam_min = 1 at the uniform split
        x, _, ub, steps = _interior_point(S * math.sqrt(k / lam2_L), b / c)
        spent = np.clip(x - b / c, 0.0, None)
        best = b + spent * (free / spent.sum())
        upper = ub * c * lam2_L / k

    lam2 = float(np.linalg.eigvalsh((S.T * best) @ S)[0])
    psi = theta = None
    if problem.r_per_len is not None and problem.l_per_len is not None:
        psi = (lam2 + problem.l_per_len) / problem.r_per_len
        if problem.omega is not None:
            theta = math.atan(problem.omega * psi)
    return AllocationResult(best, lam2, psi, theta, {
        "starts": 1,
        "passes": steps,
        "gap": max(0.0, (upper - lam2) / upper),
        "upper_bound": upper,
    })


def allocation_landscape(problem: AllocationProblem, resolution: int) -> np.ndarray:
    """lam2 on a regular barycentric grid of the budget simplex.

    Rows are (k_1/resolution, ..., k_n/resolution, lam2); the allocation at
    a row is bounds + free_budget * coordinates.
    """
    lap = problem.laplacian
    n = len(lap.ids)
    if n > 6:
        raise ValidationError(f"landscape grid needs n <= 6 nodes, got {n}")
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    b = problem.bounds()
    free = problem.budget - b.sum()
    S = lap.lift

    coords = np.array([np.diff((-1,) + combo + (resolution + n - 1,)) - 1
                       for combo in itertools.combinations(range(resolution + n - 1), n - 1)]
                      ) / resolution
    d = b + free * coords
    # one stacked eigvalsh of S^T diag(d_p) S over every grid point p; with two
    # or more d_i = 0 its rank is below n - 1, so lam2 is 0, not round-off
    lam2 = np.linalg.eigvalsh((S.T * d[:, None, :]) @ S)[:, 0]
    return np.column_stack([coords, np.where(np.sum(d == 0.0, axis=1) >= 2, 0.0, lam2)])


def _laplacian(net: PowerNetwork, sources=None) -> WeightedLaplacian:
    """The network's Laplacian record, or its Kron reduction onto ``sources``."""
    lap = build_laplacian(net)
    return lap if sources is None else kron_reduce_real(lap, sources)


def design_uniform(net: PowerNetwork, target_theta: float, sources=None) -> float:
    """Uniform output inductance reaching a target impedance angle.

    Solves arctan(omega * (l_o lam2 + l)/r) = target for l_o, with no output
    resistance and lam2 taken from the (optionally Kron-reduced) Laplacian.
    """
    r, l, omega = net.r_per_len, net.l_per_len, net.omega
    lam2 = float(_laplacian(net, sources).eigenvalues[1])
    current = math.atan(omega * l / r)
    if not current <= target_theta < math.pi / 2:
        raise ValidationError(f"target theta {target_theta!r} not in [{current!r}, pi/2)")
    return (math.tan(target_theta) / omega * r - l) / lam2


def design_nonuniform(net: PowerNetwork, target_theta: float,
                      sources=None) -> AllocationResult:
    """Minimal-budget non-uniform allocation reaching a target angle.

    lam2(diag(d) L) is positively homogeneous in d, so the optimal direction
    is independent of the budget scale: optimize once at unit budget, then
    the minimal budget follows in closed form from (lam2 + l)/r = tan(theta)/omega.
    """
    r, l, omega = net.r_per_len, net.l_per_len, net.omega
    lap = _laplacian(net, sources)
    current = math.atan(omega * l / r)
    if not current < target_theta < math.pi / 2:
        raise ValidationError(f"target theta {target_theta!r} not in ({current!r}, pi/2)")

    unit = optimize_allocation(AllocationProblem(lap, 1.0))
    lam2_hat = unit.lam2  # lam2 per unit budget along the optimal direction
    psi_target = math.tan(target_theta) / omega
    budget = (r * psi_target - l) / lam2_hat
    alloc = unit.allocation * budget
    lam2 = budget * lam2_hat
    psi = (lam2 + l) / r
    return AllocationResult(alloc, lam2, psi, math.atan(omega * psi), {
        "budget": budget,
        "starts": unit.diagnostics["starts"],
        "passes": unit.diagnostics["passes"],
        "gap": unit.diagnostics["gap"],
    })
