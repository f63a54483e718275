"""Convex separable Hamiltonians H(p) on R^dim and their Legendre transforms.

A Hamiltonian is plain data, the axis weights m_j and a flag `cosh`:

    H(p) = sum_j [ m_j p_j^2 / 2 + (cosh p_j - 1 if cosh) ].

Every one is a sum of one-axis terms with a diagonal Hessian, which keeps the
vectorized Newton inversion used by the Legendre transform exact and cheap,
and each carries certified convexity bounds theta, Theta with

    theta I  <=  D^2 H(p)  <=  Theta I        for |p| <= VALID_RADIUS.

make_hamiltonian is the one place that knows the named kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VALID_RADIUS",
    "HamiltonianSpec",
    "make_hamiltonian",
    "legendre_momentum",
    "legendre_batch",
]

_KINDS = ("quadratic", "anisotropic_quadratic", "log_cosh_regularized", "zero")
VALID_RADIUS = 6.0  # |p| within which every spec's theta/Theta bounds are certified
LEGENDRE_TOL = 1e-12  # residual of the Legendre Newton inversion, relative to max(|q|, 1)


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(p) = sum_j [m_j p_j^2 / 2 + (cosh p_j - 1 if cosh)] with vectorized value, gradient and Hessian diagonal."""

    weights: tuple[float, ...]
    cosh: bool = False

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def theta(self) -> float:
        return min(self.weights) + float(self.cosh)

    @property
    def Theta(self) -> float:
        return max(self.weights) + (math.cosh(VALID_RADIUS) if self.cosh else 0.0)

    @property
    def is_zero(self) -> bool:
        return not self.cosh and not any(self.weights)

    def axis(self, j: int) -> HamiltonianSpec:
        """The one-component Hamiltonian of axis j: H is the sum of these over j."""
        return HamiltonianSpec((self.weights[j],), self.cosh)

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

        The cosh terms come first, then each axis's (m_j / 2) p_j^2 in the order
        j = 0, 1, all on the views p[..., j], so a strided p costs no copy.  out,
        when given, receives the result; without cosh terms the first square is
        formed in out, so for dim == 1 nothing is allocated.
        """
        q = self._as_points(p)
        out = np.empty(q.shape[:-1]) if out is None else out
        if self.cosh:
            np.cosh(q[..., 0], out=out)
            out -= 1.0
            for j in range(1, self.dim):
                out += np.cosh(q[..., j]) - 1.0
        for j, m in enumerate(self.weights):
            if j == 0 and not self.cosh:
                np.multiply(q[..., 0], q[..., 0], out=out)
                out *= 0.5 * m
            else:
                out += (0.5 * m) * (q[..., j] * q[..., j])
        return out

    def grad(self, p: np.ndarray) -> np.ndarray:
        """D_p H(p), shape (..., dim)."""
        q = self._as_points(p)
        mq = np.asarray(self.weights) * q
        return np.sinh(q) + mq if self.cosh else mq

    def hess_diag(self, p: np.ndarray) -> np.ndarray:
        """Diagonal of D^2 H(p), shape (..., dim); the Hessian is diagonal."""
        q = self._as_points(p)
        m = np.asarray(self.weights)
        return np.cosh(q) + m if self.cosh else np.broadcast_to(m, q.shape).copy()

    def grad_sup(self, radius: float) -> float:
        """sup of |D_p H(p)| over the ball |p| <= radius (Euclidean norms).

        |DH|^2 = sum_j (m_j p_j + sinh p_j)^2 is a power series in the p_j^2 with
        nonnegative coefficients, largest with all of |p| on the axis of the largest m_j.
        """
        r = float(abs(radius))
        return r * max(self.weights) + (math.sinh(r) if self.cosh else 0.0)


def make_hamiltonian(kind: str, dim: int, params: tuple[float, ...] = ()) -> HamiltonianSpec:
    """Build the HamiltonianSpec of a named kind, validating its parameters.

    kind                    H(p)                                        weights m_j
    quadratic               |p|^2 / 2                                   1
    anisotropic_quadratic   sum_j m_j p_j^2 / 2, params = (m_1..m_dim)  params, each > 0
    log_cosh_regularized    sum_j (cosh p_j - 1) + c |p|^2 / 2,         c, with cosh
                            params = (c,), c > 0, default c = 0.1
    zero                    0 (Legendre transform rejected)             0
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}; choose from {_KINDS}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    params = tuple(float(v) for v in params)
    if kind in ("quadratic", "zero"):
        if params:
            raise ValueError(f"{kind} takes no parameters")
        return HamiltonianSpec((1.0 if kind == "quadratic" else 0.0,) * dim)
    if kind == "anisotropic_quadratic":
        if len(params) != dim:
            raise ValueError(f"anisotropic_quadratic needs {dim} diagonal entries, got {len(params)}")
        if min(params) <= 0.0:
            raise ValueError("anisotropic_quadratic entries must be positive")
        return HamiltonianSpec(params)
    params = params or (0.1,)
    if len(params) != 1 or params[0] <= 0.0:
        raise ValueError("log_cosh_regularized takes one positive parameter")
    return HamiltonianSpec(params * dim, cosh=True)


def legendre_momentum(ham: HamiltonianSpec, q: np.ndarray) -> np.ndarray:
    """p* = D_q L(q), the root of D_p H(p) = q, for q of shape (..., dim); D_q^2 L(q) is diag(1 / H''(p*)).

    Damped Newton from q / m (arcsinh q with cosh terms): H is separable, so the inversion and its damping
    decouple per component, and one component at round-off cannot stall another.  Raises ValueError unless
    theta > 0, and RuntimeError when 100 iterations do not reach LEGENDRE_TOL.
    """
    if ham.theta <= 0.0:
        raise ValueError("Legendre transform requires a uniformly convex Hamiltonian (theta > 0)")
    qa = ham._as_points(q)
    p = np.arcsinh(qa) if ham.cosh else qa / np.asarray(ham.weights)
    resid = ham.grad(p) - qa
    scale = np.maximum(np.max(np.abs(qa)), 1.0)
    for _ in range(100):
        err = np.max(np.abs(resid))
        if err <= LEGENDRE_TOL * scale:
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


def legendre_batch(ham: HamiltonianSpec, q: np.ndarray) -> np.ndarray:
    """L(q) = sup_p [p.q - H(p)] = p*.q - H(p*) for q of shape (..., dim), with p* = legendre_momentum(ham, q)."""
    qa = ham._as_points(q)
    p = legendre_momentum(ham, qa)
    return np.sum(p * qa, axis=-1) - ham.value(p)
