"""Hamiltonian and Legendre transform tests.

Gradients and Hessian diagonals are checked against central finite
differences, and the off-diagonal Hessian entries against zero;
Legendre values against closed forms (quadratic family) and against
brute-force maximization on a dense momentum grid (log-cosh family).
"""

import math

import numpy as np
import pytest

from fracvisc.hamiltonians import (
    VALID_RADIUS,
    HamiltonianSpec,
    LagrangianSpec,
    legendre_batch,
    legendre_transform,
    make_hamiltonian,
)


def fd_gradient(spec: HamiltonianSpec, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.zeros(spec.dim)
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = h
        out[j] = (float(spec.value(p + e)) - float(spec.value(p - e))) / (2 * h)
    return out


def fd_hessian(spec: HamiltonianSpec, p: np.ndarray, h: float = 1e-5) -> np.ndarray:
    out = np.zeros((spec.dim, spec.dim))
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = h
        out[:, j] = (spec.grad(p + e) - spec.grad(p - e)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_make_hamiltonian_validation():
    with pytest.raises(ValueError):
        make_hamiltonian("cubic", 1)
    with pytest.raises(ValueError):
        make_hamiltonian("quadratic", 3)
    with pytest.raises(ValueError):
        make_hamiltonian("quadratic", 1, (2.0,))
    with pytest.raises(ValueError):
        make_hamiltonian("anisotropic_quadratic", 2, (1.0,))  # wrong length
    with pytest.raises(ValueError):
        make_hamiltonian("anisotropic_quadratic", 2, (1.0, -2.0))  # not positive
    with pytest.raises(ValueError):
        make_hamiltonian("log_cosh_regularized", 1, (-0.1,))
    with pytest.raises(ValueError):
        make_hamiltonian("zero", 1, (1.0,))


def test_certified_bounds():
    assert make_hamiltonian("quadratic", 1).theta == 1.0
    assert make_hamiltonian("quadratic", 1).Theta == 1.0
    h = make_hamiltonian("anisotropic_quadratic", 2, (2.0, 0.5))
    assert (h.theta, h.Theta) == (0.5, 2.0)
    lc = make_hamiltonian("log_cosh_regularized", 1)
    assert lc.theta == pytest.approx(1.1)
    assert lc.Theta == pytest.approx(math.cosh(6.0) + 0.1)
    z = make_hamiltonian("zero", 2)
    assert z.theta == 0.0 and z.Theta == 0.0 and z.is_zero


# ---------------------------------------------------------------------------
# pointwise evaluation against closed forms and finite differences
# ---------------------------------------------------------------------------


def pointwise(spec: HamiltonianSpec, p) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian diagonal at one momentum point."""
    q = np.asarray(p, dtype=np.float64)
    return float(spec.value(q)), spec.grad(q), spec.hess_diag(q)


def test_ham_eval_quadratic_2d():
    spec = make_hamiltonian("quadratic", 2)
    v, g, d = pointwise(spec, (3.0, 4.0))
    assert v == pytest.approx(12.5)
    assert np.allclose(g, [3.0, 4.0])
    assert np.allclose(d, [1.0, 1.0])


def test_ham_eval_anisotropic():
    spec = make_hamiltonian("anisotropic_quadratic", 2, (2.0, 0.5))
    v, g, d = pointwise(spec, (1.0, 1.0))
    assert v == pytest.approx(1.25)
    assert np.allclose(g, [2.0, 0.5])
    assert np.allclose(d, [2.0, 0.5])


def test_ham_eval_log_cosh_origin():
    spec = make_hamiltonian("log_cosh_regularized", 2)
    v, g, d = pointwise(spec, (0.0, 0.0))
    assert v == 0.0
    assert np.allclose(g, 0.0)
    assert np.allclose(d, [1.1, 1.1])


def test_ham_eval_zero():
    spec = make_hamiltonian("zero", 1)
    v, g, d = pointwise(spec, (2.5,))
    assert v == 0.0 and g[0] == 0.0 and d[0] == 0.0


@pytest.mark.parametrize(
    "kind,dim,params",
    [
        ("quadratic", 1, ()),
        ("quadratic", 2, ()),
        ("anisotropic_quadratic", 2, (1.5, 0.7)),
        ("log_cosh_regularized", 1, ()),
        ("log_cosh_regularized", 2, (0.25,)),
    ],
)
def test_grad_hess_match_finite_differences(kind, dim, params):
    spec = make_hamiltonian(kind, dim, params)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0, size=dim)
        assert np.max(np.abs(spec.grad(p) - fd_gradient(spec, p))) <= 5e-8
        fd = fd_hessian(spec, p)
        assert np.max(np.abs(spec.hess_diag(p) - np.diag(fd))) <= 5e-7
        # separability: the Hessian is diagonal
        assert np.max(np.abs(fd - np.diag(np.diag(fd)))) <= 5e-7


def test_vectorized_evaluation_shapes():
    spec = make_hamiltonian("quadratic", 2)
    P = np.zeros((5, 7, 2))
    assert spec.value(P).shape == (5, 7)
    assert spec.grad(P).shape == (5, 7, 2)
    assert spec.hess_diag(P).shape == (5, 7, 2)
    spec1 = make_hamiltonian("quadratic", 1)
    assert spec1.value(np.zeros(9)).shape == (9,)  # bare 1d arrays accepted


def test_monotonicity_of_gradient():
    # (DH(p1) - DH(p2)) . (p1 - p2) >= theta |p1 - p2|^2 (uniform convexity)
    rng = np.random.default_rng(11)
    for kind, dim, params in [
        ("quadratic", 2, ()),
        ("anisotropic_quadratic", 2, (2.0, 0.5)),
        ("log_cosh_regularized", 1, ()),
    ]:
        spec = make_hamiltonian(kind, dim, params)
        for _ in range(50):
            p1 = rng.uniform(-2.5, 2.5, size=dim)
            p2 = rng.uniform(-2.5, 2.5, size=dim)
            lhs = float(np.dot(spec.grad(p1) - spec.grad(p2), p1 - p2))
            rhs = spec.theta * float(np.sum((p1 - p2) ** 2))
            assert lhs >= rhs - 1e-12, (kind, lhs, rhs)


def test_hessian_eigenvalue_sandwich():
    rng = np.random.default_rng(13)
    for kind, dim, params in [
        ("quadratic", 2, ()),
        ("anisotropic_quadratic", 2, (0.5, 2.0)),
        ("log_cosh_regularized", 2, ()),
    ]:
        spec = make_hamiltonian(kind, dim, params)
        for _ in range(50):
            p = rng.uniform(-1.0, 1.0, size=dim)
            p *= rng.uniform(0, VALID_RADIUS) / max(np.linalg.norm(p), 1e-12)
            if np.linalg.norm(p) > VALID_RADIUS:
                continue
            # the Hessian is diagonal (test_grad_hess_match_finite_differences),
            # so its eigenvalues are the diagonal entries
            eigs = spec.hess_diag(p)
            assert np.min(eigs) >= spec.theta - 1e-9
            assert np.max(eigs) <= spec.Theta + 1e-9


def test_grad_sup_bounds_sampled_gradients():
    rng = np.random.default_rng(17)
    for kind, dim, params in [
        ("quadratic", 2, ()),
        ("anisotropic_quadratic", 2, (2.0, 0.5)),
        ("log_cosh_regularized", 2, ()),
    ]:
        spec = make_hamiltonian(kind, dim, params)
        r = 2.0
        sup = spec.grad_sup(r)
        for _ in range(200):
            p = rng.standard_normal(dim)
            p *= r * rng.uniform() / np.linalg.norm(p)
            assert np.linalg.norm(spec.grad(p)) <= sup + 1e-12


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------


def test_legendre_quadratic_closed_form():
    lag = LagrangianSpec(make_hamiltonian("quadratic", 1))
    for q in (-2.0, 0.0, 0.3, 1.7):
        assert legendre_transform(lag, q) == pytest.approx(0.5 * q * q, abs=1e-12)


def test_legendre_anisotropic_closed_form():
    # L(q) = sum q_j^2 / (2 m_j)
    lag = LagrangianSpec(make_hamiltonian("anisotropic_quadratic", 2, (2.0, 0.5)))
    q = np.array([1.0, -0.6])
    exact = q[0] ** 2 / 4.0 + q[1] ** 2 / 1.0
    assert legendre_transform(lag, q) == pytest.approx(exact, abs=1e-12)


def test_legendre_log_cosh_vs_dense_grid():
    # brute-force sup over a dense momentum grid
    lag = LagrangianSpec(make_hamiltonian("log_cosh_regularized", 1))
    pg = np.linspace(-12.0, 12.0, 2_000_001)
    hval = np.cosh(pg) - 1.0 + 0.05 * pg**2
    for q in (-3.0, -0.4, 0.0, 1.3, 5.0):
        brute = float(np.max(q * pg - hval))
        assert legendre_transform(lag, q) == pytest.approx(brute, abs=1e-9)


def test_legendre_batch_matches_scalar():
    lag = LagrangianSpec(make_hamiltonian("log_cosh_regularized", 2))
    rng = np.random.default_rng(5)
    Q = rng.uniform(-4, 4, size=(40, 2))
    batch = legendre_batch(lag, Q)
    for i in range(Q.shape[0]):
        assert batch[i] == pytest.approx(legendre_transform(lag, Q[i]), abs=1e-10)


def test_biconjugacy():
    # Fenchel equality H(p) + L(DH(p)) = p . DH(p) certifies H** = H at p
    rng = np.random.default_rng(23)
    for kind, dim, params in [
        ("quadratic", 1, ()),
        ("anisotropic_quadratic", 2, (2.0, 0.5)),
        ("log_cosh_regularized", 1, ()),
        ("log_cosh_regularized", 2, ()),
    ]:
        spec = make_hamiltonian(kind, dim, params)
        lag = LagrangianSpec(spec)
        for _ in range(25):
            p = rng.uniform(-2.0, 2.0, size=dim)
            qstar = spec.grad(p)
            lhs = float(spec.value(p)) + legendre_transform(lag, qstar)
            rhs = float(np.dot(p, qstar))
            assert abs(lhs - rhs) <= 1e-8


def test_legendre_rejects_zero_hamiltonian():
    with pytest.raises(ValueError):
        LagrangianSpec(make_hamiltonian("zero", 1))
