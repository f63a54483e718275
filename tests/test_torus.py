"""Spectral core tests.

Expected values come from closed-form calculus on trigonometric polynomials
(derivatives and symbols of single Fourier modes), plus structural
identities (Parseval, operator composition, positivity pairings) that hold
exactly in the continuum and must hold to near machine precision here.
"""

import math

import numpy as np
import pytest

from fracvisc.torus import (
    Field,
    SpectralField,
    TorusGrid,
    dealias,
    evaluate_at,
    forward,
    frac_laplacian,
    hessian_max_eig,
    inverse,
    lp_norm,
    parseval_mismatch,
    refine,
    spectral_gradient,
    subsample,
)

TWO_PI = 2.0 * math.pi


def random_field(grid: TorusGrid, seed: int, band_limited: bool = False) -> Field:
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal(grid.shape))
    if band_limited:
        f = inverse(dealias(forward(f)))
    return f


# ---------------------------------------------------------------------------
# grid and container validation
# ---------------------------------------------------------------------------


def test_grid_validation():
    TorusGrid(1, 8)
    TorusGrid(2, 64)
    with pytest.raises(ValueError):
        TorusGrid(3, 64)
    with pytest.raises(ValueError):
        TorusGrid(1, 48)  # not a power of two
    with pytest.raises(ValueError):
        TorusGrid(1, 4)  # too small
    g = TorusGrid(1, 128)
    assert g.spacing == pytest.approx(TWO_PI / 128)
    assert g.n_total == 128
    assert TorusGrid(2, 32).n_total == 1024


def test_field_validation():
    g = TorusGrid(1, 16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        Field(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        Field(g, np.zeros(16, dtype=complex))
    f = Field(g, np.zeros(16))
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # snapshot arrays are read-only


def test_spectral_field_hermitian_guard():
    g = TorusGrid(1, 16)
    coeff = np.zeros(16, dtype=complex)
    coeff[1] = 1.0 + 0.5j  # no conjugate partner at k = -1
    with pytest.raises(ValueError):
        SpectralField(g, coeff)
    coeff[-1] = np.conj(coeff[1])
    SpectralField(g, coeff)


def test_wavenumber_layout():
    g = TorusGrid(1, 8)
    assert list(g.k_axis) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert g.dealias_keep.tolist() == [True, True, True, False, False, False, True, True]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 256), (2, 32)])
def test_roundtrip(dim, n):
    f = random_field(TorusGrid(dim, n), seed=dim * 100 + n)
    back = inverse(forward(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-13


def test_forward_normalization():
    # f = 3 + 2 cos(x): c_0 = 3, c_{+-1} = 1
    g = TorusGrid(1, 32)
    x = g.nodes()[0]
    spec = forward(Field(g, 3.0 + 2.0 * np.cos(x)))
    assert spec.coefficients[0] == pytest.approx(3.0, abs=1e-14)
    assert spec.coefficients[1] == pytest.approx(1.0, abs=1e-14)
    assert spec.coefficients[-1] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
def test_parseval(dim, n):
    for seed in range(5):
        f = random_field(TorusGrid(dim, n), seed)
        assert parseval_mismatch(f) <= 1e-12


# ---------------------------------------------------------------------------
# differential operators: single-mode calculus oracles
# ---------------------------------------------------------------------------


def test_gradient_single_mode():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    grad = spectral_gradient(Field(g, np.cos(3 * x)))[0]
    assert np.max(np.abs(grad.values + 3 * np.sin(3 * x))) <= 1e-12


def test_gradient_2d():
    g = TorusGrid(2, 64)
    X, Y = g.nodes()
    f = Field(g, np.sin(2 * X) * np.cos(Y))
    gx, gy = spectral_gradient(f)
    assert np.max(np.abs(gx.values - 2 * np.cos(2 * X) * np.cos(Y))) <= 1e-12
    assert np.max(np.abs(gy.values + np.sin(2 * X) * np.sin(Y))) <= 1e-12


@pytest.mark.parametrize("s,k,expect", [(1.0, 2, 4.0), (0.5, 2, 2.0), (0.25, 4, 2.0)])
def test_frac_laplacian_single_mode(s, k, expect):
    # (-Delta)^s cos(kx) = |k|^(2s) cos(kx)
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    out = frac_laplacian(Field(g, np.cos(k * x)), s)
    assert np.max(np.abs(out.values - expect * np.cos(k * x))) <= 1e-12 * max(1.0, expect)


def test_frac_laplacian_2d_mode():
    # (-Delta)^(1/2) cos(3x)cos(4y) = 5 cos(3x)cos(4y)   (|k| = 5)
    g = TorusGrid(2, 64)
    X, Y = g.nodes()
    f = Field(g, np.cos(3 * X) * np.cos(4 * Y))
    out = frac_laplacian(f, 0.5)
    assert np.max(np.abs(out.values - 5.0 * f.values)) <= 1e-11


def test_frac_laplacian_kills_constants():
    g = TorusGrid(1, 64)
    out = frac_laplacian(Field(g, np.full(g.shape, 7.3)), 0.5)
    assert np.max(np.abs(out.values)) <= 1e-13


def test_frac_laplacian_rejects_bad_s():
    g = TorusGrid(1, 64)
    f = random_field(g, 1)
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            frac_laplacian(f, s)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
def test_composition_half_half_equals_laplacian(dim, n):
    # (-Delta)^(1/2) applied twice equals (-Delta)^1 on dealiased fields
    for seed in range(3):
        f = random_field(TorusGrid(dim, n), seed, band_limited=True)
        twice = frac_laplacian(frac_laplacian(f, 0.5), 0.5)
        once = frac_laplacian(f, 1.0)
        scale = max(float(np.max(np.abs(once.values))), 1e-30)
        assert np.max(np.abs(twice.values - once.values)) / scale <= 1e-10


def test_s_equals_one_consistency():
    # (-Delta)^1 f == -(f_xx + f_yy) for a concrete trig polynomial
    g = TorusGrid(2, 64)
    X, Y = g.nodes()
    f = Field(g, np.cos(X) * np.cos(2 * Y) + 0.3 * np.sin(3 * X))
    out = frac_laplacian(f, 1.0)
    exact = 5.0 * np.cos(X) * np.cos(2 * Y) + 0.3 * 9.0 * np.sin(3 * X)
    assert np.max(np.abs(out.values - exact)) <= 1e-11


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------


def test_hessian_max_eig_1d():
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    # max of -cos = 1 attained at x = pi (a grid node)
    assert hessian_max_eig(Field(g, np.cos(x))) == pytest.approx(1.0, abs=1e-12)


def test_hessian_max_eig_2d_diagonal():
    g = TorusGrid(2, 64)
    X, Y = g.nodes()
    # Hessian diag(-cos x, -4 cos 2y): largest eigenvalue 4
    f = Field(g, np.cos(X) + np.cos(2 * Y))
    assert hessian_max_eig(f) == pytest.approx(4.0, abs=1e-11)


def test_hessian_max_eig_2d_mixed():
    g = TorusGrid(2, 64)
    X, Y = g.nodes()
    # f = cos(x + y): Hessian -cos(x+y) [[1,1],[1,1]], eigenvalues {0, -2cos(x+y)}
    f = Field(g, np.cos(X + Y))
    assert hessian_max_eig(f) == pytest.approx(2.0, abs=1e-11)


def test_spectral_hessian_entries():
    g = TorusGrid(2, 64)
    X, Y = g.nodes()
    f = Field(g, np.sin(X) * np.sin(2 * Y))
    # D^2 f[i][j] as the spectral gradient of the spectral gradient
    H = [spectral_gradient(d) for d in spectral_gradient(f)]
    assert np.max(np.abs(H[0][1].values - 2 * np.cos(X) * np.cos(2 * Y))) <= 1e-11
    assert np.max(np.abs(H[1][1].values + 4 * np.sin(X) * np.sin(2 * Y))) <= 1e-11


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_lp_norm_constants():
    # ||c||_p = |c| (2pi)^(dim/p): quadrature without volume division
    g = TorusGrid(1, 64)
    c = Field(g, np.full(g.shape, -2.0))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert lp_norm(c, p) == pytest.approx(2.0 * TWO_PI ** (1.0 / p), rel=1e-13)
    assert lp_norm(c, math.inf) == pytest.approx(2.0)
    g2 = TorusGrid(2, 32)
    c2 = Field(g2, np.full(g2.shape, 3.0))
    assert lp_norm(c2, 2.0) == pytest.approx(3.0 * TWO_PI, rel=1e-13)


def test_lp_norm_cosine():
    # ||cos||_2 = sqrt(pi), ||cos||_4 = (3 pi / 4)^(1/4), ||cos||_inf = 1
    g = TorusGrid(1, 256)
    f = Field(g, np.cos(g.nodes()[0]))
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert lp_norm(f, 4.0) == pytest.approx((0.75 * math.pi) ** 0.25, rel=1e-12)
    assert lp_norm(f, math.inf) == pytest.approx(1.0)


def test_lp_norm_rejects_p_below_one():
    g = TorusGrid(1, 64)
    f = random_field(g, 0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_norm_equivalence_on_band_limited_fields():
    # For 2/3-band-limited fields the grid quadrature L^p norm matches the
    # continuum norm (measured on an 8x refined grid) within frozen factors.
    a_p = {1.5: 1.05, 2.0: 1.0 + 1e-12, 4.0: 1.05}
    g = TorusGrid(1, 128)
    for seed in range(50):
        f = random_field(g, seed, band_limited=True)
        fine = refine(f, 8)
        for p, bound in a_p.items():
            coarse_norm = lp_norm(f, p)
            fine_norm = lp_norm(fine, p)
            ratio = coarse_norm / fine_norm
            assert 1.0 / bound <= ratio <= bound, (p, seed, ratio)


def test_nonnegativity_pairing():
    # int rho^(q-1) (-Delta)^(1/2) rho dx >= 0 for smooth rho >= 0
    g = TorusGrid(1, 256)
    h = g.spacing
    for q in (2, 3, 4):
        for seed in range(10):
            base = random_field(g, 1000 * q + seed, band_limited=True)
            rho = base.values - np.min(base.values) + 0.1  # nonnegative
            scale = float(np.max(rho))
            frac = frac_laplacian(Field(g, rho), 0.5).values
            pairing = float(np.sum(rho ** (q - 1) * frac) * h)
            assert pairing >= -1e-8 * scale**q, (q, seed, pairing)


# ---------------------------------------------------------------------------
# dealiasing, interpolation, resampling
# ---------------------------------------------------------------------------


def test_dealias_cutoff_and_idempotence():
    g = TorusGrid(1, 64)  # cutoff at |k| <= 21
    x = g.nodes()[0]
    f = Field(g, np.cos(21 * x) + np.cos(22 * x))
    spec = dealias(forward(f))
    kept = inverse(spec)
    assert np.max(np.abs(kept.values - np.cos(21 * x))) <= 1e-12
    again = dealias(spec)
    assert np.max(np.abs(again.coefficients - spec.coefficients)) == 0.0


def test_evaluate_at_matches_closed_form():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    f = Field(g, 2.0 * np.cos(x) - np.sin(3 * x))
    pts = np.array([0.1, 1.7321, 4.0, 6.1])
    vals = evaluate_at(f, pts)
    exact = 2.0 * np.cos(pts) - np.sin(3 * pts)
    assert np.max(np.abs(vals - exact)) <= 1e-12


def test_evaluate_at_2d():
    g = TorusGrid(2, 32)
    X, Y = g.nodes()
    f = Field(g, np.cos(X + 2 * Y))
    pts = np.array([[0.3, 1.1], [2.0, 0.0], [5.5, 3.3]])
    assert np.max(np.abs(evaluate_at(f, pts) - np.cos(pts[:, 0] + 2 * pts[:, 1]))) <= 1e-12


def test_refine_subsample_roundtrip():
    g = TorusGrid(1, 64)
    f = random_field(g, 3, band_limited=True)
    up = refine(f, 4)
    assert up.grid.n_points == 256
    back = subsample(up, 4)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    # refinement interpolates: value at a fine node equals the interpolant
    x_fine = up.grid.nodes()[0]
    assert np.max(np.abs(up.values - evaluate_at(f, x_fine))) <= 1e-11


def test_refine_2d_exact_on_modes():
    g = TorusGrid(2, 16)
    X, Y = g.nodes()
    f = Field(g, np.cos(2 * X) * np.sin(3 * Y))
    up = refine(f, 4)
    Xf, Yf = up.grid.nodes()
    assert np.max(np.abs(up.values - np.cos(2 * Xf) * np.sin(3 * Yf))) <= 1e-12


@pytest.mark.parametrize("dim,n", [(1, 1024), (1, 16384), (2, 32), (2, 128)])
def test_batched_transforms_equal_single_ones(dim, n):
    # a batch of three and a batch of one, each transformed in one call,
    # equal the single transforms
    sp = TorusGrid(dim, n).spectral
    vals = np.random.default_rng(3).standard_normal((3,) + sp.shape)
    for batch in (vals, vals[:1]):
        coeff = sp.fwd(batch)
        assert all(np.array_equal(c, sp.fwd(v)) for c, v in zip(coeff, batch))
        back = sp.inv(coeff, out=np.empty_like(batch))
        assert all(np.array_equal(b, sp.inv(c)) for b, c in zip(back, coeff))
