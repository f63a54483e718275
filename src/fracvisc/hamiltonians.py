"""Convex Hamiltonians H(p) on R^dim and their Legendre transforms.

All supported kinds are separable with diagonal Hessians, which keeps the
vectorized Newton inversion used by the Legendre transform exact and cheap.
Each spec carries certified convexity bounds theta, Theta with

    theta I  <=  D^2 H(p)  <=  Theta I        for |p| <= VALID_RADIUS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VALID_RADIUS",
    "HamiltonianSpec",
    "make_hamiltonian",
    "LagrangianSpec",
    "legendre_momentum",
    "legendre_batch",
]

_KINDS = ("quadratic", "anisotropic_quadratic", "log_cosh_regularized", "zero")
VALID_RADIUS = 6.0  # |p| within which every spec's theta/Theta bounds are certified


@dataclass(frozen=True)
class HamiltonianSpec:
    """A convex Hamiltonian with vectorized value, gradient and (diagonal) Hessian."""

    kind: str
    dim: int
    params: tuple[float, ...]
    theta: float
    Theta: float

    # -- pointwise evaluation on arrays of shape (..., dim) ---------------

    def _as_points(self, p: np.ndarray) -> np.ndarray:
        arr = np.asarray(p, dtype=np.float64)
        if self.dim == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
            arr = arr[..., np.newaxis]
        if arr.shape[-1] != self.dim:
            raise ValueError(f"momentum must have trailing axis of length {self.dim}")
        return arr

    def value(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """H(p) for p of shape (..., dim); returns shape (...).

        Sums over components run on the views p[..., j] in the order j = 0, 1,
        so a strided p costs no copy.  out, when given, receives the result;
        for dim == 1 the quadratic kinds then allocate nothing.
        """
        q = self._as_points(p)
        out = np.empty(q.shape[:-1]) if out is None else out
        if self.kind == "log_cosh_regularized":
            np.cosh(q[..., 0], out=out)
            out -= 1.0
            for j in range(1, self.dim):
                out += np.cosh(q[..., j]) - 1.0
            out += 0.5 * self.params[0] * _weighted_squares(q)
        elif self.kind == "zero":
            out[...] = 0.0
        else:
            _weighted_squares(q, self.params if self.kind == "anisotropic_quadratic" else None, out)
            out *= 0.5
        return out

    def grad(self, p: np.ndarray) -> np.ndarray:
        """D_p H(p), shape (..., dim)."""
        q = self._as_points(p)
        if self.kind == "quadratic":
            return q.copy()
        if self.kind == "anisotropic_quadratic":
            return np.asarray(self.params) * q
        if self.kind == "log_cosh_regularized":
            c = self.params[0]
            return np.sinh(q) + c * q
        return np.zeros_like(q)

    def hess_diag(self, p: np.ndarray) -> np.ndarray:
        """Diagonal of D^2 H(p), shape (..., dim).  Exact for all kinds here."""
        q = self._as_points(p)
        if self.kind == "quadratic":
            return np.ones_like(q)
        if self.kind == "anisotropic_quadratic":
            return np.broadcast_to(np.asarray(self.params), q.shape).copy()
        if self.kind == "log_cosh_regularized":
            c = self.params[0]
            return np.cosh(q) + c
        return np.zeros_like(q)

    def grad_sup(self, radius: float) -> float:
        """sup of |D_p H(p)| over the ball |p| <= radius (Euclidean norms)."""
        r = float(abs(radius))
        if self.kind == "quadratic":
            return r
        if self.kind == "anisotropic_quadratic":
            return r * max(self.params)
        if self.kind == "log_cosh_regularized":
            # |DH|^2 = sum (sinh p_j + c p_j)^2 is maximized on a single axis
            c = self.params[0]
            return math.sinh(r) + c * r
        return 0.0

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


def _weighted_squares(q: np.ndarray, weights=None, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j m_j q_j q_j over the last axis of q, in the order j = 0, 1; m_j = 1 when weights is None."""
    for j in range(q.shape[-1]):
        mq = q[..., j] if weights is None else weights[j] * q[..., j]
        if j == 0:
            out = np.multiply(mq, q[..., 0], out=out)
        else:
            out += mq * q[..., j]
    return out


def make_hamiltonian(kind: str, dim: int, params: tuple[float, ...] = ()) -> HamiltonianSpec:
    """Build a HamiltonianSpec with analytically certified theta/Theta.

    kinds:
      quadratic                 H(p) = |p|^2 / 2
      anisotropic_quadratic     H(p) = sum_j m_j p_j^2 / 2, params = (m_1..m_dim)
      log_cosh_regularized      H(p) = sum_j (cosh p_j - 1) + c |p|^2 / 2,
                                params = (c,), default c = 0.1
      zero                      H(p) = 0 (degenerate; Legendre transform rejected)
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}; choose from {_KINDS}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    params = tuple(float(v) for v in params)
    if kind == "quadratic":
        if params:
            raise ValueError("quadratic takes no parameters")
        theta = Theta = 1.0
    elif kind == "anisotropic_quadratic":
        if len(params) != dim:
            raise ValueError(f"anisotropic_quadratic needs {dim} diagonal entries, got {len(params)}")
        if min(params) <= 0.0:
            raise ValueError("anisotropic_quadratic entries must be positive")
        theta, Theta = min(params), max(params)
    elif kind == "log_cosh_regularized":
        if len(params) == 0:
            params = (0.1,)
        if len(params) != 1 or params[0] <= 0.0:
            raise ValueError("log_cosh_regularized takes one positive parameter")
        c = params[0]
        theta = 1.0 + c
        Theta = math.cosh(VALID_RADIUS) + c
    else:  # zero
        if params:
            raise ValueError("zero takes no parameters")
        theta = Theta = 0.0
    return HamiltonianSpec(kind, dim, params, theta, Theta)


@dataclass(frozen=True)
class LagrangianSpec:
    """Legendre transform L(q) = sup_p [p.q - H(p)] of a convex Hamiltonian."""

    hamiltonian: HamiltonianSpec
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.hamiltonian.is_zero:
            raise ValueError("Legendre transform of the zero Hamiltonian is degenerate")
        if self.hamiltonian.theta <= 0.0:
            raise ValueError("Legendre transform requires a uniformly convex Hamiltonian")


def _newton_start(ham: HamiltonianSpec, q: np.ndarray) -> np.ndarray:
    if ham.kind == "quadratic":
        return q.copy()
    if ham.kind == "anisotropic_quadratic":
        return q / np.asarray(ham.params)
    # log_cosh: invert the dominant sinh term, ignoring the regularization
    return np.arcsinh(q)


def legendre_momentum(lag: LagrangianSpec, q: np.ndarray) -> np.ndarray:
    """p* = D_q L(q), the root of D_p H(p) = q, for q of shape (..., dim); D_q^2 L(q) is diag(1 / H''(p*)).

    Damped Newton: the supported Hamiltonians are separable, so the inversion and its damping decouple per
    component, and one component at round-off cannot stall another.  Raises RuntimeError when 100
    iterations do not reach lag.tol.
    """
    ham = lag.hamiltonian
    qa = ham._as_points(q)
    p = _newton_start(ham, qa)
    resid = ham.grad(p) - qa
    scale = np.maximum(np.max(np.abs(qa)), 1.0)
    for _ in range(100):
        err = np.max(np.abs(resid))
        if err <= lag.tol * scale:
            break
        step = -resid / ham.hess_diag(p)
        lam = np.ones(p.shape)
        cur = np.abs(resid)
        for _ in range(40):
            trial = p + lam * step
            tr = ham.grad(trial) - qa
            bad = np.abs(tr) > (1.0 - 0.25 * lam) * cur
            if not np.any(bad):
                break
            lam = np.where(bad, 0.5 * lam, lam)
        p = p + lam * step
        resid = ham.grad(p) - qa
    else:
        raise RuntimeError(f"Legendre Newton failed to converge: residual {np.max(np.abs(resid)):.3e}")
    return p


def legendre_batch(lag: LagrangianSpec, q: np.ndarray) -> np.ndarray:
    """L(q) = p*.q - H(p*) for q of shape (..., dim), with p* = legendre_momentum(lag, q)."""
    qa = lag.hamiltonian._as_points(q)
    p = legendre_momentum(lag, qa)
    return np.sum(p * qa, axis=-1) - lag.hamiltonian.value(p)
