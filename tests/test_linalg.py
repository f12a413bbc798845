import numpy as np
import pytest

from fraclab.linalg import check_spectrum, eigendecompose, eigenvalues, spectral_power, sym_matrix


def test_eigendecompose_identity():
    e = eigendecompose(np.eye(3))
    assert np.allclose(e.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)


def test_eigendecompose_diagonal_is_canonical_basis_up_to_sign():
    e = eigendecompose(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(e.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(np.abs(e.eigenvectors), np.eye(3), atol=1e-12)


def test_eigendecompose_2x2_hand_computed():
    # characteristic polynomial of [[2,1],[1,2]]: (2-t)^2 - 1 -> t = 1, 3
    e = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_eigendecompose_rejects_asymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigendecompose(np.eye(2), tol=-1.0)


def test_sym_matrix_returns_its_own_output_as_it_is():
    frozen = sym_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert sym_matrix(frozen) is frozen
    view = frozen[:, :]  # read-only, but its storage is not its own
    assert sym_matrix(view) is not view
    writable = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = sym_matrix(writable)
    assert out is not writable and not out.flags.writeable
    writable[0, 1] = writable[1, 0] = 5.0
    assert out[0, 1] == 1.0


@pytest.mark.parametrize("entries", [[[1.0, 2.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                                     [[np.nan, 0.0], [0.0, 1.0]]])
def test_eigendecompose_validates_a_frozen_matrix_outside_the_contract(entries):
    m = np.array(entries)
    m.flags.writeable = False
    with pytest.raises(ValueError):
        eigendecompose(m)


def test_check_spectrum_wants_the_trace_and_the_frobenius_norm():
    m = sym_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    check_spectrum(np.array([1.0, 3.0]), 4.0, 10.0, 2.0)
    with pytest.raises(RuntimeError, match="eigenvalues miss the trace"):
        check_spectrum(np.array([3.0]), 4.0, 10.0, 2.0)
    with pytest.raises(RuntimeError, match="eigenvalues miss the squared Frobenius norm"):
        check_spectrum(np.array([0.0, 4.0]), float(np.trace(m)), float(np.vdot(m, m)), 2.0)


@pytest.mark.parametrize("n", [5, 50, 400])
def test_reconstruction_residual_random_symmetric(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    m = sym_matrix(m + m.T)
    e = eigendecompose(m)
    scale = np.max(np.abs(m))
    q = e.eigenvectors
    assert np.max(np.abs((q * e.eigenvalues) @ q.T - m)) <= 1e-8 * scale
    assert np.max(np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(n))) <= 1e-10


@pytest.mark.parametrize("n", [1, 5, 50, 400])
def test_eigenvalues_agree_with_the_decomposition(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    m = sym_matrix(m + m.T)
    w = eigenvalues(m)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, eigendecompose(m).eigenvalues, rtol=0, atol=1e-12 * np.max(np.abs(w)))


def test_eigenvalues_refuse_an_asymmetric_matrix_and_a_failed_solve(monkeypatch):
    with pytest.raises(ValueError, match="sym_matrix"):
        eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def failing(matrix):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(RuntimeError, match="did not converge"):
        eigenvalues(sym_matrix(np.eye(3)))


def test_spectral_power_one_reconstructs():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((8, 8))
    m = sym_matrix(m @ m.T + 8 * np.eye(8))
    e = eigendecompose(m)
    assert np.max(np.abs(spectral_power(e, 1.0) - m)) <= 1e-8 * np.max(np.abs(m))


def test_spectral_power_zero_is_identity():
    e = eigendecompose(np.diag([4.0, 9.0]))
    assert np.allclose(spectral_power(e, 0.0), np.eye(2), atol=1e-8)


def test_spectral_power_diagonal_square_roots():
    e = eigendecompose(np.diag([4.0, 9.0]))
    assert np.allclose(spectral_power(e, 0.5), np.diag([2.0, 3.0]), atol=1e-12)


def test_spectral_power_rejects_nonpositive_spectrum():
    e = eigendecompose(np.diag([-1.0, 2.0]))
    with pytest.raises(ValueError):
        spectral_power(e, 0.5)


def test_spectral_power_semigroup():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((12, 12))
    m = sym_matrix(m @ m.T + 12 * np.eye(12))
    e = eigendecompose(m)
    for a in (0.25, 0.5):
        for b in (0.25, 0.5):
            lhs = spectral_power(e, a) @ spectral_power(e, b)
            rhs = spectral_power(e, a + b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_quadratic_form_agrees_with_spectral_sum():
    # two evaluation paths: u^T M^s u versus sum_j lambda_j^s (q_j . u)^2
    rng = np.random.default_rng(3)
    m = rng.standard_normal((20, 20))
    m = sym_matrix(m @ m.T + 20 * np.eye(20))
    e = eigendecompose(m)
    u = rng.standard_normal(20)
    u /= np.linalg.norm(u)
    for s in (0.25, 0.5, 0.75):
        direct = float(u @ spectral_power(e, s) @ u)
        coeffs = e.eigenvectors.T @ u
        spectral = float(np.sum(e.eigenvalues**s * coeffs**2))
        assert abs(direct - spectral) <= 1e-10


def test_sym_matrix_freezes_storage():
    m = sym_matrix(np.eye(2))
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
