"""The rfft diagnostics against reference definitions on the complex FFT.

Each reference below applies its Fourier multiplier to the full spectrum
from np.fft.fftn, transforms back with np.fft.ifftn and keeps the real
part.  At the nodes that real part behaves as if every Nyquist mode were a
cosine, which is the convention the rfft helpers of fracvisc.torus follow.
The fields are random with a full spectrum, so every Nyquist mode carries
weight and every special case in the helpers is exercised.
"""

import math

import numpy as np
import pytest

from fracvisc.torus import (
    Field,
    TorusGrid,
    eval_modes,
    frac_laplacian,
    hessian_max_eig,
    mode_table,
    refine,
    spectral_gradient,
)

CASES = [(1, 64), (2, 32)]


def _k_mesh(grid: TorusGrid) -> list[np.ndarray]:
    k = np.fft.fftfreq(grid.n_points, d=1.0 / grid.n_points)
    return list(np.meshgrid(*([k] * grid.dim), indexing="ij"))


def _back(multiplied: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(multiplied).real


def ref_frac_laplacian(f: Field, s: float) -> np.ndarray:
    k2 = sum(km**2 for km in _k_mesh(f.grid))
    with np.errstate(divide="ignore"):
        sym = k2**s
    sym.flat[0] = 0.0
    return _back(sym * np.fft.fftn(f.values))


def ref_gradient(f: Field) -> list[np.ndarray]:
    coeff = np.fft.fftn(f.values)
    return [_back(1j * km * coeff) for km in _k_mesh(f.grid)]


def ref_hessian_max_eig(f: Field) -> float:
    coeff = np.fft.fftn(f.values)
    kms = _k_mesh(f.grid)
    if f.grid.dim == 1:
        return float(np.max(_back(-kms[0] ** 2 * coeff)))
    kx, ky = kms
    uxx, uyy, uxy = (_back(-m * coeff) for m in (kx * kx, ky * ky, kx * ky))
    return float(np.max(0.5 * (uxx + uyy) + np.sqrt(0.25 * (uxx - uyy) ** 2 + uxy**2)))


def ref_refine(f: Field, factor: int) -> np.ndarray:
    # modes -n/2..n/2-1 on every axis copied into the fine spectrum
    grid = f.grid
    n, m = grid.n_points, grid.n_points * factor
    coeff = np.fft.fftn(f.values) / grid.n_total
    out = np.zeros((m,) * grid.dim, dtype=complex)
    src = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    out[np.ix_(*([src % m] * grid.dim))] = coeff
    return _back(out * m**grid.dim)


def ref_evaluate(f: Field, pts: np.ndarray) -> np.ndarray:
    # real part of the full mode sum with wavevectors -n/2..n/2-1 per axis
    coeff = np.fft.fftn(f.values) / f.grid.n_total
    kvecs = np.stack([km.reshape(-1) for km in _k_mesh(f.grid)], axis=-1)
    return (np.exp(1j * (pts @ kvecs.T)) @ coeff.reshape(-1)).real


def _field(dim: int, n: int) -> Field:
    grid = TorusGrid(dim, n)
    return Field(grid, np.random.default_rng(10 * dim + n).standard_normal(grid.shape))


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim,n", CASES)
@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
def test_frac_laplacian_matches_reference(dim, n, s):
    f = _field(dim, n)
    assert_close(frac_laplacian(f, s).values, ref_frac_laplacian(f, s))


@pytest.mark.parametrize("dim,n", CASES)
def test_spectral_gradient_matches_reference(dim, n):
    f = _field(dim, n)
    for got, ref in zip(spectral_gradient(f), ref_gradient(f), strict=True):
        assert_close(got.values, ref)


@pytest.mark.parametrize("dim,n", CASES)
def test_hessian_max_eig_matches_reference(dim, n):
    f = _field(dim, n)
    assert hessian_max_eig(f) == pytest.approx(ref_hessian_max_eig(f), rel=1e-12)


@pytest.mark.parametrize("dim,n", CASES)
def test_refine_matches_reference(dim, n):
    f = _field(dim, n)
    assert_close(refine(f, 4).values, ref_refine(f, 4))


@pytest.mark.parametrize("dim,n", CASES)
def test_mode_table_matches_reference_off_grid(dim, n):
    f = _field(dim, n)
    pts = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (200, dim))
    assert_close(eval_modes(*mode_table(f, 1e-15), pts), ref_evaluate(f, pts))
