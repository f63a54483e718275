"""Spectral core tests.

Expected values come from closed-form calculus on trigonometric polynomials
(derivatives and symbols of single Fourier modes), plus structural
identities (Parseval, operator composition, positivity pairings) that hold
exactly in the continuum and must hold to near machine precision here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fracvisc.hj import DT_CFL_MAX
from fracvisc.torus import (
    Field,
    TorusGrid,
    _etdrk4_weights,
    _phi_functions,
    eval_modes,
    frac_laplacian,
    hessian_max_eig,
    lp_norm,
    mode_table,
    refine,
    spectral_gradient,
    subsample,
)

TWO_PI = 2.0 * math.pi


def random_field(grid: TorusGrid, seed: int, band_limited: bool = False) -> Field:
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal(grid.shape))
    if band_limited:
        coeff = grid.spectral.fwd(f.values)
        grid.spectral.truncate(coeff)
        f = Field(grid, grid.spectral.inv(coeff))
    return f


def interpolant(f: Field, pts: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant of f at pts of shape (..., dim)."""
    return eval_modes(*mode_table(f, 1e-15), pts)


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


def test_wavenumber_layout():
    # rfft layout: numpy FFT ordering on the first axis, 0..n/2 on the last
    sp = TorusGrid(1, 8).spectral
    assert sp.k[0].tolist() == [0, 1, 2, 3, 4]
    assert sp.keep.tolist() == [True, True, True, False, False]
    sp2 = TorusGrid(2, 8).spectral
    kx, ky = sp2.k
    assert kx[:, 0].tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert ky[0].tolist() == [0, 1, 2, 3, 4]
    assert sp2.keep[:, 0].tolist() == [True, True, True, False, False, False, True, True]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 256), (2, 32)])
def test_roundtrip(dim, n):
    f = random_field(TorusGrid(dim, n), seed=dim * 100 + n)
    sp = f.grid.spectral
    back = sp.inv(sp.fwd(f.values))
    assert np.max(np.abs(back - f.values)) <= 1e-13


def test_forward_normalization():
    # f = 3 + 2 cos(x): unnormalized rfft c_0 = 3 N, c_1 = N; the mode table
    # holds the amplitudes 3 and 2 (c_1 counts once more for c_{-1})
    g = TorusGrid(1, 32)
    x = g.nodes()[0]
    f = Field(g, 3.0 + 2.0 * np.cos(x))
    coeff = g.spectral.fwd(f.values)
    assert coeff[0] == pytest.approx(3.0 * 32, abs=1e-12)
    assert coeff[1] == pytest.approx(32.0, abs=1e-12)
    kvecs, cvals = mode_table(f, 1e-12)
    assert kvecs[:, 0].tolist() == [0.0, 1.0]
    assert cvals == pytest.approx([3.0, 2.0], abs=1e-14)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
def test_parseval(dim, n):
    # sum |f_j|^2 h^dim = (2pi)^dim sum_k w_k |c_k|^2 / N_total^2 over the half spectrum
    for seed in range(5):
        f = random_field(TorusGrid(dim, n), seed)
        sp = f.grid.spectral
        spectral = math.sqrt(TWO_PI**dim * float(np.sum(sp.parseval_w * np.abs(sp.fwd(f.values)) ** 2))) / f.grid.n_total
        quad = lp_norm(f, 2.0)
        assert abs(quad - spectral) / quad <= 1e-12


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
    # large p on small and large amplitudes: |f|^p alone under- or overflows
    for p in (128.0, 1024.0):
        unit = lp_norm(f, p)
        for amp in (1e-3, 1e3):
            val = lp_norm(Field(g, amp * f.values), p)
            assert math.isfinite(val) and val > 0.0
            assert val == pytest.approx(amp * unit, rel=1e-12)


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
    sp = TorusGrid(1, 64).spectral  # cutoff at |k| <= 21
    x = sp.grid.nodes()[0]
    coeff = sp.fwd(np.cos(21 * x) + np.cos(22 * x))
    sp.truncate(coeff)
    assert np.max(np.abs(sp.inv(coeff) - np.cos(21 * x))) <= 1e-12
    again = coeff.copy()
    sp.truncate(again)
    assert np.array_equal(again, coeff)
    assert not np.any(coeff[~sp.keep])


def test_evaluate_at_matches_closed_form():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    f = Field(g, 2.0 * np.cos(x) - np.sin(3 * x))
    pts = np.array([0.1, 1.7321, 4.0, 6.1])
    exact = 2.0 * np.cos(pts) - np.sin(3 * pts)
    assert np.max(np.abs(interpolant(f, pts[:, np.newaxis]) - exact)) <= 1e-12


def test_evaluate_at_2d():
    g = TorusGrid(2, 32)
    X, Y = g.nodes()
    f = Field(g, np.cos(X + 2 * Y))
    pts = np.array([[0.3, 1.1], [2.0, 0.0], [5.5, 3.3]])
    assert np.max(np.abs(interpolant(f, pts) - np.cos(pts[:, 0] + 2 * pts[:, 1]))) <= 1e-12


def test_refine_subsample_roundtrip():
    # band-limited and full-spectrum fields (the latter with weight on every
    # Nyquist mode), in 1-D and 2-D
    for f in (random_field(TorusGrid(1, 64), 3, band_limited=True), random_field(TorusGrid(1, 64), 4),
              random_field(TorusGrid(2, 32), 5)):
        up = refine(f, 4)
        assert up.grid.n_points == 4 * f.grid.n_points
        back = subsample(up, 4)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12
        # refinement interpolates: value at a fine node equals the interpolant
        x_fine = np.stack(up.grid.nodes(), axis=-1)
        assert np.max(np.abs(up.values - interpolant(f, x_fine))) <= 1e-11


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


def test_phi_functions_match_their_exact_series():
    # phi_j(z) = sum_k z^k / (k + j)! in exact rationals: both branches of
    # _phi_functions (the series below |z| = 1, the expm1 forms from there),
    # both sides of the switch; 200 terms, since at z = -50 a 60-term sum is
    # still far from its limit
    zs = [-1e-12, -1e-6, -0.5, -(1 - 1e-6), -(1 + 1e-6), -3.0, -50.0]
    phis = _phi_functions(np.array(zs))
    for i, z in enumerate(zs):
        zf = Fraction(z)
        for j, phi in enumerate(phis, start=1):
            exact = float(sum(zf**k / math.factorial(k + j) for k in range(200)))
            assert abs(phi[i] - exact) <= 1e-14 * abs(exact), (z, j, phi[i], exact)
    # far in the damping band: exp(-1e9) is 0 in any float, so phi_j(z) is
    # -(sum_{k<j} z^k / k!) / z^j exactly, near 1/|z|, 1/|z| and 1/(2|z|)
    zf = Fraction(-10**9)
    for j, phi in enumerate(_phi_functions(np.array([-1e9])), start=1):
        exact = float(-sum(zf**k / math.factorial(k) for k in range(j)) / zf**j)
        assert abs(phi[0] - exact) <= 1e-14 * exact, (j, phi[0], exact)
    # z = 0, the mean mode, is exact
    np.testing.assert_array_equal([phi[0] for phi in _phi_functions(np.zeros(1))], [1.0, 0.5, 1.0 / 6.0])


def _etdrk4_amplification(dim: int, n: int, dt_cfl: float) -> np.ndarray:
    """|R| of one ETDRK4 step on d_t y = -damping y + i |k| y over the kept modes, dt = dt_cfl 2 pi / n.

    The linear model is advection at speed 1, the smallest speed the step rule's ladder rounds up to;
    the modes beyond the cutoff carry no nonlinearity, so their R = exp(-damping dt) is at most 1.
    """
    sp = TorusGrid(dim, n).spectral
    c = 1j * np.sqrt(sp.k2[sp.keep])
    e2, q, f1, f2, f3 = _etdrk4_weights(sp.damping[sp.keep], dt_cfl * TWO_PI / n)  # f2 holds 2 f2
    a = e2 + q * c
    b = e2 + q * c * a
    cc = e2 * a + q * c * (2.0 * b - 1.0)
    return np.abs(e2 * e2 + c * (f1 + f2 * (a + b) + f3 * cc))


@pytest.mark.parametrize("dim,n", [(1, 1024), (1, 16384), (2, 64), (2, 256)])
def test_etdrk4_is_stable_at_the_step_cap(dim, n):
    # the cap DT_CFL_MAX, derived from the damping band, lies inside the march's own
    # stability edge (about 2.78 in 1-D, 2.79-2.82 in 2-D), which 2.9 lies beyond
    assert np.max(_etdrk4_amplification(dim, n, DT_CFL_MAX)) <= 1.0 + 1e-12
    assert np.max(_etdrk4_amplification(dim, n, 2.9)) > 1.0
