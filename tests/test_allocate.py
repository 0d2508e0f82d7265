import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (AllocationProblem, NetinductError, ValidationError,
                       WeightedLaplacian, allocation_landscape, build_laplacian,
                       design_nonuniform, design_uniform, eig_symmetric,
                       kron_reduce_real, load_network, measure_report,
                       optimize_allocation)
from netinduct.allocate import _GAP_TARGET
from conftest import make_network, random_connected_edges


def _star_problem(fixtures_dir, budget=5e-3, **kw):
    lap = build_laplacian(load_network(fixtures_dir / "star.json"))
    return AllocationProblem(lap, budget, **kw)


def test_star_optimum_is_length_proportional(fixtures_dir):
    # closed form: with nothing at the center, lam2(DL) = min_i d_i / tau_i,
    # maximized by splitting the budget proportionally to the leaf distances
    res = optimize_allocation(_star_problem(fixtures_dir))
    expect = 5e-3 * np.array([5.0, 7.0, 9.0, 0.0]) / 21.0
    assert np.allclose(res.allocation, expect, atol=1e-8 * 5e-3)
    assert res.lam2 == pytest.approx(5e-3 / 21.0, rel=1e-8)
    assert res.allocation.sum() == pytest.approx(5e-3, rel=1e-12)


def test_complete_graph_optimum_is_uniform(fixtures_dir):
    lap = build_laplacian(load_network(fixtures_dir / "complete4.json"))
    res = optimize_allocation(AllocationProblem(lap, 4e-3))
    assert np.allclose(res.allocation, 1e-3, atol=1e-8 * 4e-3)
    assert res.lam2 == pytest.approx(4e-3, rel=1e-8)  # (c/n) * lam2(L) = 1e-3 * 4


def test_result_carries_measure(fixtures_dir):
    res = optimize_allocation(_star_problem(fixtures_dir, r_per_len=0.7,
                                            l_per_len=0.001,
                                            omega=100 * math.pi))
    assert res.psi_nir == pytest.approx((res.lam2 + 0.001) / 0.7, rel=1e-12)
    assert res.theta_nir == pytest.approx(
        math.atan(100 * math.pi * res.psi_nir), rel=1e-12)
    assert res.diagnostics["starts"] == 1
    assert 0.0 <= res.diagnostics["gap"] <= 1e-9


def test_budget_scaling_invariance(fixtures_dir):
    one = optimize_allocation(_star_problem(fixtures_dir, budget=5e-3))
    two = optimize_allocation(_star_problem(fixtures_dir, budget=1e-2))
    assert np.allclose(two.allocation, 2.0 * one.allocation, rtol=1e-9,
                       atol=1e-9 * 1e-2)
    assert two.lam2 == pytest.approx(2.0 * one.lam2, rel=1e-9)


def test_deterministic(fixtures_dir):
    a = optimize_allocation(_star_problem(fixtures_dir))
    b = optimize_allocation(_star_problem(fixtures_dir))
    assert np.array_equal(a.allocation, b.allocation)
    assert a.lam2 == b.lam2


def test_lower_bounds_respected(fixtures_dir):
    bounds = np.array([2e-3, 0.0, 0.0, 1e-3])
    res = optimize_allocation(_star_problem(fixtures_dir, lower_bounds=bounds))
    assert np.all(res.allocation >= bounds - 1e-15)
    assert res.allocation.sum() == pytest.approx(5e-3, rel=1e-12)
    # eigenvalue sandwich for diagonal scalings
    lam2_L = eig_symmetric(_star_problem(fixtures_dir).laplacian.matrix).eigenvalues[1]
    assert res.lam2 <= lam2_L * res.allocation.max() + 1e-15
    # constrained optimum can never beat the unconstrained one
    free = optimize_allocation(_star_problem(fixtures_dir))
    assert res.lam2 <= free.lam2 * (1 + 1e-9)


def test_beats_or_matches_uniform_split():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        L = build_laplacian(make_network(random_connected_edges(rng, n))).matrix
        c = float(rng.uniform(1e-3, 1e-2))
        res = optimize_allocation(AllocationProblem(L, c))
        uniform_lam2 = (c / n) * np.linalg.eigvalsh(L)[1]
        assert res.lam2 >= uniform_lam2 * (1 - 1e-9)


def test_problem_validation(fixtures_dir):
    with pytest.raises(ValidationError, match="budget"):
        optimize_allocation(_star_problem(fixtures_dir, budget=0.0))
    with pytest.raises(ValidationError, match="exceeds"):
        optimize_allocation(_star_problem(
            fixtures_dir, lower_bounds=np.array([2e-3, 2e-3, 2e-3, 0.0])))
    with pytest.raises(ValidationError, match="negative"):
        optimize_allocation(_star_problem(
            fixtures_dir, lower_bounds=np.array([-1e-3, 0.0, 0.0, 0.0])))
    with pytest.raises(ValidationError, match="lower_bounds"):
        optimize_allocation(_star_problem(
            fixtures_dir, lower_bounds=np.array([math.nan, 0.0, 0.0, 0.0])))
    with pytest.raises(ValidationError, match="expected 4"):
        optimize_allocation(_star_problem(
            fixtures_dir, lower_bounds=np.zeros(3)))


def test_problem_wraps_a_matrix_in_a_record(fixtures_dir):
    # a bare matrix is copied once into a read-only record over ids 0..n-1,
    # and solves exactly as the network's own record does
    lap = build_laplacian(load_network(fixtures_dir / "star.json"))
    L = np.array(lap.matrix)
    prob = AllocationProblem(L, 5e-3)
    assert prob.laplacian.node_ids() == (0, 1, 2, 3)
    L[0, 0] = 0.0
    assert np.array_equal(prob.laplacian.matrix, lap.matrix)
    with pytest.raises(ValueError, match="read-only"):
        prob.laplacian.matrix[0, 0] = 1.0
    own = optimize_allocation(AllocationProblem(lap, 5e-3))
    assert np.array_equal(optimize_allocation(prob).allocation, own.allocation)


def test_single_node_rejected():
    with pytest.raises(ValidationError, match="at least 2 nodes"):
        optimize_allocation(AllocationProblem(np.zeros((1, 1)), 1e-3))


def test_disconnected_laplacian_rejected():
    L = np.zeros((3, 3))
    L[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(ValidationError, match="disconnected"):
        optimize_allocation(AllocationProblem(L, 1e-3))


def test_bare_matrix_with_nonzero_row_sums_rejected():
    # the identity is symmetric with lam2 > 0, but its rows do not sum to zero,
    # so it is no Laplacian and its lift would not factor it
    with pytest.raises(ValidationError, match="row sums are not zero"):
        optimize_allocation(AllocationProblem(np.eye(3), 1e-3))


def test_non_symmetric_bare_matrix_rejected():
    # zero row sums and a connected lower triangle, but no symmetry
    L = np.array([[2.0, -1.0, -1.0], [-2.0, 3.0, -1.0], [-1.0, -1.0, 2.0]])
    with pytest.raises(ValidationError, match="not symmetric"):
        optimize_allocation(AllocationProblem(L, 1e-3))


@pytest.mark.parametrize("matrix", [5.0, np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)),
                                    [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["scalar", "vector", "not-square", "3-d", "nan"])
def test_malformed_bare_matrix_rejected(matrix):
    with pytest.raises(ValidationError, match="^laplacian: "):
        AllocationProblem(matrix, 1e-3)


def test_lost_lambda2_of_a_record_is_numerical_error():
    # a record is trusted to be connected: one whose lam2 is not > 0 has lost
    # it to round-off, a numerical error rather than an input error
    L = np.zeros((3, 3))
    L[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    L.flags.writeable = False
    record = WeightedLaplacian(L, (1, 2, 3))
    with pytest.raises(NetinductError, match="lambda2 is not > 0") as info:
        optimize_allocation(AllocationProblem(record, 1e-3))
    assert not isinstance(info.value, ValidationError)


def test_bounds_spending_the_budget_are_returned(fixtures_dir):
    bounds = np.array([1e-3, 2e-3, 1.5e-3, 0.5e-3])
    res = optimize_allocation(_star_problem(fixtures_dir, lower_bounds=bounds))
    assert np.array_equal(res.allocation, bounds)
    assert res.diagnostics["passes"] == 0
    assert res.diagnostics["gap"] <= _GAP_TARGET


# --- certified solver, by property ------------------------------------------------

def _lam2(d, L):
    """lam2(diag(d) L) through D^1/2 L D^1/2, independent of the package."""
    r = np.sqrt(d)
    return np.linalg.eigvalsh(r[:, None] * L * r[None, :])[1]


@st.composite
def allocation_problems(draw, max_n=12, shares=(0.0, 0.3, 0.9)):
    """Random connected graph, budget, and lower bounds fixing ``share`` of the budget."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = build_laplacian(make_network(random_connected_edges(rng, n))).matrix
    budget = draw(st.floats(1e-6, 1.0))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
                                     min_size=n, max_size=n)))
    share = draw(st.sampled_from(shares))
    bounds = budget * share * weights / weights.sum() if weights.sum() > 0 else np.zeros(n)
    return L, budget, bounds


def _check_certified(L, budget, bounds, max_gap):
    res = optimize_allocation(AllocationProblem(L, budget, lower_bounds=bounds))
    d = res.allocation
    assert d.sum() == pytest.approx(budget, rel=1e-12)
    assert np.all(d >= bounds)
    n = L.shape[0]
    uniform = bounds + (budget - bounds.sum()) / n
    assert res.lam2 >= _lam2(uniform, L) * (1 - 1e-12)
    gap, upper = res.diagnostics["gap"], res.diagnostics["upper_bound"]
    assert gap <= max_gap
    assert gap == pytest.approx(max(0.0, (upper - res.lam2) / upper), abs=1e-15)
    # the certificate bounds every feasible allocation, not just the returned one
    rng = np.random.default_rng(0)
    for w in rng.dirichlet(np.ones(n), size=20):
        assert _lam2(bounds + (budget - bounds.sum()) * w, L) <= upper * (1 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(allocation_problems())
def test_allocation_feasible_and_certified(problem):
    _check_certified(*problem, max_gap=_GAP_TARGET)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(allocation_problems(shares=(0.99, 0.999, 0.9999)))
def test_nearly_fixed_allocation_still_certified(problem):
    # with >= 99 % of the budget in lower bounds, diag(d) L can be so badly
    # conditioned (lam_max / lam2 ~ 1e4) that double precision stalls the
    # solver short of the target; the certificate stays valid and small
    _check_certified(*problem, max_gap=1e-7)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(allocation_problems(max_n=4))
def test_allocation_beats_landscape_grid(problem):
    L, budget, bounds = problem
    prob = AllocationProblem(L, budget, lower_bounds=bounds)
    res = optimize_allocation(prob)
    grid_best = allocation_landscape(prob, resolution=20)[:, -1].max()
    assert res.lam2 >= grid_best * (1 - res.diagnostics["gap"]) - 1e-15 * grid_best


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(3, 40), seed=st.integers(0, 2**32 - 1), log_lengths=st.booleans(),
       budget=st.floats(1e-6, 1.0))
def test_star_allocation_meets_closed_form(k, seed, log_lengths, budget):
    # an exact oracle at every size: on a star, lam2(diag(d) L) = min_i d_i / tau_i
    # over the leaves once the centre holds nothing, so the optimum spends the
    # budget in proportion to the leaf lengths, lam2* = c / sum(tau), and the
    # centre's share is 0; lengths uniform over one decade or log-uniform over six
    rng = np.random.default_rng(seed)
    tau = 10.0 ** rng.uniform(-3.0, 3.0, k) if log_lengths else rng.uniform(0.2, 2.0, k)
    net = make_network([(0, i + 1, float(t)) for i, t in enumerate(tau)])
    res = optimize_allocation(AllocationProblem(build_laplacian(net), budget))
    lam2_star = budget / tau.sum()
    eps = np.finfo(float).eps
    gap, upper = res.diagnostics["gap"], res.diagnostics["upper_bound"]
    assert lam2_star - gap * upper <= res.lam2 <= lam2_star * (1 + 4 * eps)
    assert upper >= lam2_star * (1 - 4 * eps)
    expect = budget * np.concatenate(([0.0], tau)) / tau.sum()  # node 0 is the centre
    assert np.max(np.abs(res.allocation - expect)) <= 1e-8 * budget


# --- landscape ----------------------------------------------------------------

def test_landscape_two_node_is_flat():
    L = build_laplacian(make_network([(1, 2, 4.0)])).matrix
    grid = allocation_landscape(AllocationProblem(L, 2e-3), resolution=10)
    assert grid.shape == (11, 3)
    # lam2(diag(d) L) = (d1 + d2) / tau is constant on the simplex
    assert np.allclose(grid[:, -1], 2e-3 / 4.0, rtol=1e-12)
    assert np.allclose(grid[:, :2].sum(axis=1), 1.0, atol=1e-12)


def test_landscape_maximum_near_optimum(fixtures_dir):
    prob = _star_problem(fixtures_dir)
    grid = allocation_landscape(prob, resolution=50)
    best = optimize_allocation(prob).lam2
    assert grid[:, -1].max() <= best * (1 + 1e-9)
    assert grid[:, -1].max() >= best * 0.98  # grid granularity only


def test_landscape_limits(fixtures_dir):
    prob = _star_problem(fixtures_dir)
    with pytest.raises(ValidationError, match="resolution"):
        allocation_landscape(prob, resolution=0)
    big = AllocationProblem(np.diag(np.ones(7)) - np.full((7, 7), 1.0 / 7), 1.0)
    with pytest.raises(ValidationError, match="n <= 6"):
        allocation_landscape(big, resolution=2)


# --- angle-targeted design ------------------------------------------------------

def test_design_uniform_bare_target_needs_nothing(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    bare = math.atan(net.omega * net.l_per_len / net.r_per_len)
    assert design_uniform(net, bare) == pytest.approx(0.0, abs=1e-18)


def test_design_uniform_feedback(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json").with_outputs(l_out=0.0)
    target = 1.2
    l_o = design_uniform(net, target)
    rep = measure_report(net.with_outputs(l_out=l_o))
    assert rep.theta_nir == pytest.approx(target, rel=1e-9)


def test_design_uniform_with_sources(fixtures_dir):
    net = load_network(fixtures_dir / "ieee13_50hz.json")
    bare = math.atan(1.2 / 0.7)
    target = 1.1 * bare
    l_o = design_uniform(net, target, sources=[1, 3, 7])
    # feed back through the reduced closed form (lambda2 = 2.64 per mile)
    red = kron_reduce_real(build_laplacian(net), [1, 3, 7])
    lam2 = np.linalg.eigvalsh(red.matrix)[1]
    theta = math.atan(net.omega * (l_o * lam2 + net.l_per_len) / net.r_per_len)
    assert theta == pytest.approx(target, rel=1e-12)
    assert l_o == pytest.approx(0.42395719913723384e-3, rel=1e-9)


def test_design_uniform_rejects_unreachable_target(fixtures_dir):
    net = load_network(fixtures_dir / "complete4.json")
    with pytest.raises(ValidationError, match="target theta"):
        design_uniform(net, math.pi / 2)
    with pytest.raises(ValidationError, match="target theta"):
        design_uniform(net, 0.01)


def test_design_nonuniform_hits_target(fixtures_dir):
    net = load_network(fixtures_dir / "ieee13_50hz.json")
    target = 1.1 * math.atan(1.2 / 0.7)
    res = design_nonuniform(net, target, sources=[1, 3, 7])
    assert res.theta_nir == pytest.approx(target, rel=1e-9)
    # the reduced feeder is symmetric between buses 1 and 7
    assert res.allocation[0] == pytest.approx(res.allocation[2], rel=1e-6)
    # an optimized split never needs more budget than the uniform design
    l_o = design_uniform(net, target, sources=[1, 3, 7])
    assert res.diagnostics["budget"] <= 3 * l_o * (1 + 1e-9)
