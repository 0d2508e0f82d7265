import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netinduct import (SpectralMismatchError, algebraic_connectivity,
                       build_laplacian, eig_product, eig_symmetric, load_network)
from conftest import make_network, random_connected_edges


def char_poly_roots(A):
    """Independent oracle: real roots of det(A - x I) via companion matrix."""
    coeffs = np.poly(A)
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) <= 1e-6 * max(np.max(np.abs(roots)), 1.0)
    return np.sort(roots.real)


def test_two_by_two():
    s = eig_symmetric(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-14)


def test_complete4_spectrum():
    edges = [(a, b, 1.0) for a in range(1, 5) for b in range(a + 1, 5)]
    L = build_laplacian(make_network(edges)).matrix
    s = eig_symmetric(L)
    assert np.allclose(s.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-12)


def test_random_symmetric_vs_charpoly_oracle():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8))
    A = A + A.T
    s = eig_symmetric(A)
    assert np.allclose(s.eigenvalues, char_poly_roots(A), rtol=0,
                       atol=1e-8 * np.linalg.norm(A))


def test_rejects_nonsymmetric():
    with pytest.raises(SpectralMismatchError, match="not symmetric"):
        eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("n", [5, 20, 50, 200])
def test_reconstruction_and_orthonormality(n):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    A = A + A.T
    lap = build_laplacian(make_network(random_connected_edges(rng, n))).matrix
    for M in (A, lap):
        s = eig_symmetric(M)
        U = s.eigenvectors
        norm = np.linalg.norm(M)
        assert np.linalg.norm(M - (U * s.eigenvalues) @ U.T) <= 1e-9 * norm
        assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-10
        assert np.max(np.abs(M @ U - U * s.eigenvalues)) <= 1e-10 * norm
        assert np.all(np.diff(s.eigenvalues) >= 0)


# --- products --------------------------------------------------------------

def test_product_scalar_diagonal():
    L = build_laplacian(make_network([(1, 2, 1.0), (2, 3, 2.0)])).matrix
    base = eig_symmetric(L).eigenvalues
    vals = eig_product(np.full(3, 0.004), L)
    assert np.allclose(vals, 0.004 * base, atol=1e-15)


def test_product_two_node_oracle():
    # 2x2 characteristic polynomial of diag(a,b) @ [[1,-1],[-1,1]]:
    # x^2 - (a+b) x, roots {0, a+b}
    L = build_laplacian(make_network([(1, 2, 1.0)])).matrix
    a, b = 0.8, 2.5
    vals = eig_product(np.array([a, b]), L)
    assert np.allclose(vals, [0.0, a + b], atol=1e-12)


def test_product_star_boundary_allocation(fixtures_dir):
    # diag(d) L of a star with zero at the center is block triangular, so its
    # spectrum is {0} plus {d_i / tau_i}; closed-form oracle for the boundary
    # point that a singular D route has to handle.
    lap = build_laplacian(load_network(fixtures_dir / "star.json"))
    d = np.array([2.20e-3, 1.23e-3, 1.57e-3, 0.0])
    expect = sorted([0.0, 2.20e-3 / 5, 1.23e-3 / 7, 1.57e-3 / 9])
    vals = eig_product(d, lap.matrix)
    assert np.allclose(vals, expect, atol=1e-12)
    assert vals[1] == pytest.approx(1.57e-3 / 9, rel=1e-9)


def test_product_matches_similarity_transform():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        L = build_laplacian(make_network(random_connected_edges(rng, n))).matrix
        d = rng.uniform(0.1, 2.0, size=n)
        vals = eig_product(d, L)
        sq_d = np.sqrt(d)
        sym = eig_symmetric(sq_d[:, None] * L * sq_d[None, :]).eigenvalues
        assert np.allclose(vals, sym, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       zeros=st.integers(0, 11))
def test_product_with_zero_entries_matches_general_solver(n, seed, zeros):
    # the general QR solver on D*L as an independent oracle, for D with and
    # without zero entries
    rng = np.random.default_rng(seed)
    L = build_laplacian(make_network(random_connected_edges(rng, n))).matrix
    d = rng.uniform(0.1, 3.0, size=n)
    d[rng.permutation(n)[:min(zeros, n - 1)]] = 0.0
    expect = np.sort(np.linalg.eigvals(np.diag(d) @ L).real)
    got = eig_product(d, L)
    assert np.allclose(got, expect, rtol=0, atol=1e-10 * np.max(np.abs(expect)))


def test_merikoski_sandwich():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        L = build_laplacian(make_network(random_connected_edges(rng, n))).matrix
        d = rng.uniform(0.05, 3.0, size=n)
        lam2_L = eig_symmetric(L).eigenvalues[1]
        lam2_DL = eig_product(d, L)[1]
        assert lam2_L * d.min() - 1e-12 <= lam2_DL <= lam2_L * d.max() + 1e-12


def test_lambda2_positive_iff_connected():
    rng = np.random.default_rng(9)
    connected = build_laplacian(make_network(random_connected_edges(rng, 6))).matrix
    assert eig_symmetric(connected).eigenvalues[1] > 1e-6
    # two components glued into one matrix
    a = build_laplacian(make_network([(1, 2, 1.0)])).matrix
    b = build_laplacian(make_network([(1, 2, 3.0), (2, 3, 1.0)])).matrix
    disc = np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), b]])
    assert abs(eig_symmetric(disc).eigenvalues[1]) <= 1e-12


# --- algebraic connectivity -------------------------------------------------

@pytest.mark.parametrize("n,tau", [(3, 1.0), (4, 2.0), (6, 0.5)])
def test_connectivity_complete_graph(n, tau):
    edges = [(a, b, tau) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    s = eig_symmetric(build_laplacian(make_network(edges)).matrix)
    conn = algebraic_connectivity(s)
    assert conn.value == pytest.approx(n / tau, rel=1e-12)


def test_connectivity_path2():
    s = eig_symmetric(build_laplacian(make_network([(1, 2, 1.0)])).matrix)
    assert algebraic_connectivity(s).value == pytest.approx(2.0, abs=1e-14)


def test_connectivity_star_vs_quartic_oracle(fixtures_dir):
    L = build_laplacian(load_network(fixtures_dir / "star.json")).matrix
    s = eig_symmetric(L)
    roots = char_poly_roots(L)
    assert algebraic_connectivity(s).value == pytest.approx(roots[1], rel=1e-8)


def test_connectivity_rejects_non_laplacian():
    s = eig_symmetric(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(SpectralMismatchError, match="not zero"):
        algebraic_connectivity(s)

