"""Spectral calculus on the flat torus [0, 2pi)^d for d in {1, 2}.

Fields live on uniform tensor grids and are manipulated through their
Fourier coefficients.  The coefficient convention used throughout is

    f(x_j) = sum_k  c_k exp(i k . x_j),      c_k = FFT(f)_k / N_total,

with integer wavevectors in numpy FFT ordering.  Under this convention
Parseval reads  sum_j |f_j|^2 h^d = (2pi)^d sum_k |c_k|^2.

The time-dependent solvers work instead on unnormalized real-FFT (rfftn)
coefficients through RealSpectral, the per-grid backend, and share one
integrating-factor RK4 integrator, ifrk4_march.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TorusGrid",
    "Field",
    "SpectralField",
    "forward",
    "inverse",
    "frac_laplacian",
    "spectral_gradient",
    "spectral_hessian",
    "hessian_max_eig",
    "second_difference_max",
    "lp_norm",
    "dealias",
    "evaluate_at",
    "mode_table",
    "eval_modes",
    "refine",
    "subsample",
    "parseval_mismatch",
    "RealSpectral",
    "ifrk4_march",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, 2pi)^dim with n_points nodes per axis.

    n_points must be a power of two (>= 8) so that FFT sizes stay fast and
    the 2/3-rule cutoff n_points // 3 is unambiguous.
    """

    dim: int
    n_points: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not isinstance(self.n_points, int) or not _is_power_of_two(self.n_points) or self.n_points < 8:
            raise ValueError(
                f"n_points must be a power of two >= 8, got {self.n_points}"
            )

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.dim

    @property
    def n_total(self) -> int:
        return self.n_points**self.dim

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    def nodes(self) -> list[np.ndarray]:
        """Coordinate meshes, one array of shape `self.shape` per axis."""
        return list(np.meshgrid(*([self.axis_coords] * self.dim), indexing="ij"))

    @cached_property
    def x1(self) -> np.ndarray:
        """Read-only first coordinate mesh, nodes()[0] built once per grid."""
        x1 = self.nodes()[0]
        x1.setflags(write=False)
        return x1

    @cached_property
    def spectral(self) -> "RealSpectral":
        """The rfft backend of this grid, built on first use."""
        return RealSpectral(self)

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT ordering."""
        return np.fft.fftfreq(self.n_points, d=1.0 / self.n_points).astype(np.int64)

    @cached_property
    def k_mesh(self) -> list[np.ndarray]:
        """Broadcast integer wavevector components, one per axis."""
        return list(np.meshgrid(*([self.k_axis] * self.dim), indexing="ij"))

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        for km in self.k_mesh:
            out += km.astype(np.float64) ** 2
        return out

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean mask of modes kept by the 2/3 rule: all |k_j| <= n/3."""
        cutoff = self.n_points // 3
        keep = np.ones(self.shape, dtype=bool)
        for km in self.k_mesh:
            keep &= np.abs(km) <= cutoff
        return keep

    def symbol(self, s: float) -> np.ndarray:
        """Fourier symbol |k|^(2s) of the fractional Laplacian (-Delta)^s."""
        if not 0.0 < s <= 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1], got {s}")
        with np.errstate(divide="ignore"):
            sym = self.k_squared**s
        if self.dim == 1:
            sym[0] = 0.0
        else:
            sym[0, 0] = 0.0
        return sym


def _validate_values(grid: TorusGrid, values: np.ndarray, *, complex_ok: bool) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    if not complex_ok:
        if np.iscomplexobj(arr):
            raise ValueError("Field values must be real")
        arr = np.asarray(arr, dtype=np.float64)
    else:
        arr = np.asarray(arr, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError("values contain NaN or Inf")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Field:
    """Real nodal samples of a function on a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validate_values(self.grid, self.values, complex_ok=False))

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients (normalized by 1/N_total) of a real field.

    Coefficients must satisfy the Hermitian symmetry c_{-k} = conj(c_k) up to
    1e-12 of the largest coefficient, so that the nodal values are real.
    """

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = _validate_values(self.grid, self.coefficients, complex_ok=True)
        scale = np.max(np.abs(coeff)) if coeff.size else 0.0
        if scale > 0.0:
            flipped = _reverse_modes(coeff)
            defect = np.max(np.abs(coeff - np.conj(flipped)))
            if defect > 1e-12 * scale:
                raise ValueError(
                    f"coefficients violate Hermitian symmetry (defect {defect:.3e} "
                    f"vs scale {scale:.3e})"
                )
        object.__setattr__(self, "coefficients", coeff)


def _reverse_modes(coeff: np.ndarray) -> np.ndarray:
    """Map coefficient array c_k -> c_{-k} in FFT index layout."""
    out = coeff
    for axis in range(coeff.ndim):
        out = np.flip(np.roll(out, -1, axis=axis), axis=axis)
    return out


def _check_same_grid(a: TorusGrid, b: TorusGrid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def forward(field: Field) -> SpectralField:
    """Nodal values -> normalized Fourier coefficients."""
    coeff = np.fft.fftn(field.values) / field.grid.n_total
    return SpectralField(field.grid, coeff)


def inverse(spec: SpectralField) -> Field:
    """Normalized Fourier coefficients -> real nodal values."""
    values = np.fft.ifftn(spec.coefficients * spec.grid.n_total)
    return Field(spec.grid, values.real)


def _coefficients(f: Field | SpectralField) -> tuple[TorusGrid, np.ndarray]:
    if isinstance(f, Field):
        return f.grid, np.fft.fftn(f.values) / f.grid.n_total
    if isinstance(f, SpectralField):
        return f.grid, f.coefficients
    raise TypeError(f"expected Field or SpectralField, got {type(f).__name__}")


def frac_laplacian(f: Field | SpectralField, s: float) -> Field:
    """Apply (-Delta)^s via the Fourier multiplier |k|^(2s)."""
    grid, coeff = _coefficients(f)
    out = coeff * grid.symbol(s)
    return Field(grid, np.fft.ifftn(out * grid.n_total).real)


def spectral_gradient(f: Field | SpectralField) -> list[Field]:
    """Exact spectral partial derivatives, one Field per axis."""
    grid, coeff = _coefficients(f)
    grads = []
    for km in grid.k_mesh:
        g = np.fft.ifftn(1j * km * coeff * grid.n_total).real
        grads.append(Field(grid, g))
    return grads


def spectral_hessian(f: Field | SpectralField) -> list[list[Field]]:
    """Second derivative matrix entries D^2 f[i][j] as Fields."""
    grid, coeff = _coefficients(f)
    rows = []
    for ki in grid.k_mesh:
        row = []
        for kj in grid.k_mesh:
            h = np.fft.ifftn(-(ki * kj) * coeff * grid.n_total).real
            row.append(Field(grid, h))
        rows.append(row)
    return rows


def hessian_max_eig(f: Field | SpectralField) -> float:
    """sup over nodes of the largest eigenvalue of the spectral Hessian."""
    grid, coeff = _coefficients(f)
    if grid.dim == 1:
        k2 = grid.k_mesh[0].astype(np.float64) ** 2
        uxx = np.fft.ifftn(-k2 * coeff * grid.n_total).real
        return float(np.max(uxx))
    kx, ky = (km.astype(np.float64) for km in grid.k_mesh)
    scaled = coeff * grid.n_total
    uxx = np.fft.ifftn(-(kx * kx) * scaled).real
    uyy = np.fft.ifftn(-(ky * ky) * scaled).real
    uxy = np.fft.ifftn(-(kx * ky) * scaled).real
    half_tr = 0.5 * (uxx + uyy)
    disc = np.sqrt(0.25 * (uxx - uyy) ** 2 + uxy**2)
    return float(np.max(half_tr + disc))


def second_difference_max(f: Field, scale: float) -> float:
    """Largest centred second difference quotient at a fixed probe scale.

    Returns max over nodes x and probe directions e of
        (f(x + z e) - 2 f(x) + f(x - z e)) / |z e|^2
    with z the grid multiple of `scale` (at least one cell) and e running
    over the axes plus, in 2d, the two diagonals.  For any function that is
    semiconcave with constant k this quotient is bounded by k at every
    scale, so the measurement is a certified lower estimate of the
    semiconcavity constant that stays finite when f carries unresolved
    near-discontinuities (where the spectral Hessian diverges with the grid).
    """
    if not isinstance(f, Field):
        raise TypeError("second_difference_max expects a nodal Field")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    grid = f.grid
    m = max(1, int(round(scale / grid.spacing)))
    u = f.values
    best = -math.inf
    if grid.dim == 1:
        shifts = [((m,), m * grid.spacing)]
    else:
        zm = m * grid.spacing
        shifts = [
            ((m, 0), zm),
            ((0, m), zm),
            ((m, m), zm * math.sqrt(2.0)),
            ((m, -m), zm * math.sqrt(2.0)),
        ]
    for shift, dist in shifts:
        axes = tuple(range(grid.dim))
        d2 = np.roll(u, shift, axis=axes) + np.roll(u, tuple(-s for s in shift), axis=axes) - 2.0 * u
        best = max(best, float(np.max(d2)) / (dist * dist))
    return best


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p quadrature norm; p = inf gives the nodal sup norm.

    For finite p the norm is (sum |f_j|^p h^dim)^(1/p) with no division by
    the torus volume, so constants satisfy ||c||_p = |c| (2pi)^(dim/p).
    """
    if not isinstance(f, Field):
        raise TypeError("lp_norm expects a nodal Field")
    if math.isinf(p):
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    h_vol = f.grid.spacing**f.grid.dim
    return float((np.sum(np.abs(f.values) ** p) * h_vol) ** (1.0 / p))


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode with any |k_j| > n_points/3 (the 2/3 rule)."""
    grid = f.grid
    return SpectralField(grid, np.where(grid.dealias_keep, f.coefficients, 0.0))


def mode_table(f: Field | SpectralField, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Significant modes of f: float wavevectors (m, dim) and normalized coefficients.

    Modes at or below rel_tol times the peak coefficient are dropped."""
    grid, coeff = _coefficients(f)
    flat = coeff.reshape(-1)
    sig = np.abs(flat) > rel_tol * max(np.max(np.abs(flat)), 1e-300)
    kvecs = np.stack([km.reshape(-1)[sig] for km in grid.k_mesh], axis=-1).astype(np.float64)
    return kvecs, flat[sig]


def eval_modes(kvecs: np.ndarray, cvals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Real part of sum_k c_k exp(i k . x) over a mode table, at pts of shape (..., dim)."""
    phase = pts.reshape(-1, pts.shape[-1]) @ kvecs.T
    return (np.exp(1j * phase) @ cvals).real.reshape(pts.shape[:-1])


def evaluate_at(f: Field | SpectralField, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points.

    points has shape (..., dim) (a trailing axis of length dim; plain shape
    (...,) is accepted for dim == 1).  Modes smaller than 1e-15 of the peak
    coefficient are skipped.
    """
    kvecs, cvals = mode_table(f, 1e-15)
    dim = f.grid.dim
    pts = np.asarray(points, dtype=np.float64)
    if dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., np.newaxis]
    if pts.shape[-1] != dim:
        raise ValueError(f"points must have trailing axis of length {dim}")
    return eval_modes(kvecs, cvals, pts)


def refine(f: Field, factor: int) -> Field:
    """Trigonometric upsampling onto a grid factor times finer per axis."""
    if not isinstance(factor, int) or factor < 1 or not _is_power_of_two(factor):
        raise ValueError(f"factor must be a power-of-two integer >= 1, got {factor}")
    if factor == 1:
        return f
    grid = f.grid
    fine = TorusGrid(grid.dim, grid.n_points * factor)
    coeff = np.fft.fftn(f.values) / grid.n_total
    out = np.zeros(fine.shape, dtype=np.complex128)
    n = grid.n_points
    half = n // 2
    if grid.dim == 1:
        # modes 0..half-1 and -half..-1; the Nyquist mode -half is treated
        # as a pure cosine, which is exact for real nodal data
        out[:half] = coeff[:half]
        out[-half:] = coeff[-half:]
    else:
        sl = (slice(0, half), slice(-half, None))
        for a in range(2):
            for b in range(2):
                src = (slice(0, half) if a == 0 else slice(half - n, None),
                       slice(0, half) if b == 0 else slice(half - n, None))
                dst = (sl[a], sl[b])
                out[dst] = coeff[src]
    vals = np.fft.ifftn(out * fine.n_total).real
    return Field(fine, vals)


def subsample(f: Field, factor: int) -> Field:
    """Restrict nodal values onto a grid factor times coarser per axis."""
    if not isinstance(factor, int) or factor < 1 or not _is_power_of_two(factor):
        raise ValueError(f"factor must be a power-of-two integer >= 1, got {factor}")
    if factor == 1:
        return f
    grid = f.grid
    if grid.n_points % factor != 0 or grid.n_points // factor < 8:
        raise ValueError(f"cannot subsample n_points={grid.n_points} by {factor}")
    coarse = TorusGrid(grid.dim, grid.n_points // factor)
    idx = (slice(None, None, factor),) * grid.dim
    return Field(coarse, f.values[idx])


def parseval_mismatch(f: Field) -> float:
    """|quadrature L2 - spectral L2| / L2, used as a self-check diagnostic."""
    spec = forward(f)
    quad = lp_norm(f, 2.0)
    spectral = math.sqrt(TWO_PI**f.grid.dim * float(np.sum(np.abs(spec.coefficients) ** 2)))
    denom = max(quad, 1e-300)
    return abs(quad - spectral) / denom


# ---------------------------------------------------------------------------
# rfft backend and the integrating-factor RK4 march of the spectral solvers
# ---------------------------------------------------------------------------


class RealSpectral:
    """rfftn-layout wavenumbers, 2/3 dealiasing and transforms of one grid.

    Obtain it through TorusGrid.spectral, which builds it once per grid; its
    arrays are read-only because every solve on the grid shares them.  ik[j]
    is the multiplier i k_j with the modes beyond the 2/3 cutoff zeroed, so
    ik[j] * c is the dealiased j-th derivative; tail lists those modes as
    slices of the rfft layout.  fwd and inv write into out when it is given.
    """

    def __init__(self, grid: TorusGrid):
        n = grid.n_points
        kfull = np.fft.fftfreq(n, d=1.0 / n).astype(np.float64)
        khalf = np.arange(n // 2 + 1, dtype=np.float64)
        cutoff = n // 3
        if grid.dim == 1:
            kms = [khalf]
            k2 = khalf**2
            self.tail = ((slice(cutoff + 1, None),),)
        else:
            kx, ky = np.meshgrid(kfull, khalf, indexing="ij")
            kms = [kx, ky]
            k2 = kx**2 + ky**2
            self.tail = (
                (slice(cutoff + 1, n - cutoff), slice(None)),
                (slice(None), slice(cutoff + 1, None)),
            )
        self.k2 = k2
        keep = np.ones(k2.shape, dtype=bool)
        for km in kms:
            keep &= np.abs(km) <= cutoff
        self.keep = keep
        self.ik = [np.where(keep, 1j * km, 0.0) for km in kms]
        # Parseval weights: modes with conjugate partner folded away count twice
        w = np.full(k2.shape, 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0
        self.parseval_w = w
        for arr in (k2, keep, *self.ik, w):
            arr.setflags(write=False)
        self.shape = grid.shape
        self.axes = tuple(range(grid.dim))
        self.grid = grid

    def symbol(self, s: float) -> np.ndarray:
        sym = self.k2**s
        sym.flat[0] = 0.0
        return sym

    def damping_rate(self, amp: float, order: int) -> np.ndarray:
        """Smooth near-cutoff damping rate amp * k_c * (|k|/k_c)^(2*order).

        Sharp spectral truncation of a steep front excites a standing wave
        packet just below the cutoff wherever the transport speed vanishes;
        squaring inside the Hamiltonian then rectifies the packet into an
        O(1) spurious forcing that no grid refinement removes.  A smooth
        high-order roll-off kills the packet band while leaving physically
        resolved modes (|k| < 0.3 k_c say) untouched to far below round-off.
        """
        kc = float(self.grid.n_points // 3)
        return amp * kc * (self.k2 / (kc * kc)) ** order

    def fwd(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.rfftn(values, out=out)

    def inv(self, coeff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.irfftn(coeff, s=self.shape, axes=self.axes, out=out)

    def truncate(self, coeff: np.ndarray) -> None:
        """Zero, in place, every mode beyond the 2/3 cutoff."""
        for sl in self.tail:
            coeff[sl] = 0.0

    def gradient(self, coeff: np.ndarray, out: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
        """Dealiased gradient of the field with rfft coefficients coeff.

        Returns shape (dim, *grid.shape); out receives it and work (shaped
        like coeff) holds each derivative's coefficients when given.
        """
        if out is None:
            out = np.empty((len(self.axes),) + self.shape)
        if work is None:
            work = np.empty_like(coeff)
        for ik, g in zip(self.ik, out):
            self.inv(np.multiply(ik, coeff, out=work), out=g)
        return out

    def tail_fraction(self, coeff: np.ndarray) -> float:
        e = self.parseval_w * np.abs(coeff) ** 2
        total = float(np.sum(e))
        if total == 0.0:
            return 0.0
        return float(np.sum(e[~self.keep])) / total


def ifrk4_march(grid: TorusGrid, viscosity: float, s: float, spectral_damping: tuple[float, int] | None,
                y: np.ndarray, nonlinear, *, dt_rule, landings: np.ndarray, t_ref: float, land, nonfinite) -> int:
    """Integrating-factor RK4 for d_t y = -lam y + N(y, t) in rfft coefficients.

    lam = viscosity |k|^(2s), plus the smooth near-cutoff damping
    RealSpectral.damping_rate(*spectral_damping) unless that is None.  y
    holds the initial coefficients and is advanced in place.
    nonlinear(y, t, out) writes N(y, t) into out and returns a value that
    dt_rule turns into the step of the stage-1 point; steps are shortened
    to land exactly on each of the ascending landings, where land(y, t) is
    called.  Every 64 steps the coefficients are checked and the exception
    nonfinite(t) is raised once they stop being finite; t_ref scales the
    landing tolerance 1e-13 t_ref.  The integrating factors of the last 64
    step sizes are cached.  Returns the number of steps taken.
    """
    sp = grid.spectral
    lam = viscosity * sp.symbol(s)
    if spectral_damping is not None:
        amp, order = spectral_damping
        if amp < 0.0 or not isinstance(order, int) or order < 1:
            raise ValueError(f"spectral_damping must be (amp >= 0, integer order >= 1), got {spectral_damping}")
        lam = lam + sp.damping_rate(amp, order)

    factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    # stage slopes k1..k4 and two partial sums; each update below repeats
    # the operand order of the expression in its comment, so results are
    # bitwise those of the plain array expressions
    k1, k2, k3, k4, a, b = (np.empty_like(y) for _ in range(6))
    t = 0.0
    n_steps = 0
    for target in landings:
        end = target - 1e-13 * t_ref
        while t < end:
            dt = dt_rule(nonlinear(y, t, k1))
            if t + dt >= end:
                dt = target - t
            if dt not in factors:
                e_half = np.exp(lam * (-0.5 * dt))
                if len(factors) > 64:
                    factors.clear()
                factors[dt] = (e_half, e_half * e_half)
            e1, e2 = factors[dt]
            # k2 = N(e1 * (y + (0.5 * dt) * k1))
            np.multiply(0.5 * dt, k1, out=a)
            np.add(y, a, out=a)
            np.multiply(e1, a, out=a)
            nonlinear(a, t + 0.5 * dt, k2)
            # k3 = N(e1 * y + (0.5 * dt) * k2)
            np.multiply(e1, y, out=a)
            np.multiply(0.5 * dt, k2, out=b)
            np.add(a, b, out=a)
            nonlinear(a, t + 0.5 * dt, k3)
            # k4 = N(e2 * y + dt * (e1 * k3))
            np.multiply(e2, y, out=a)
            np.multiply(e1, k3, out=b)
            np.multiply(dt, b, out=b)
            np.add(a, b, out=a)
            nonlinear(a, t + dt, k4)
            # y = e2 * y + (dt / 6) * (e2 * k1 + 2 * (e1 * (k2 + k3)) + k4)
            np.add(k2, k3, out=a)
            np.multiply(e1, a, out=a)
            np.multiply(2.0, a, out=a)
            np.multiply(e2, k1, out=b)
            np.add(b, a, out=b)
            np.add(b, k4, out=b)
            np.multiply(dt / 6.0, b, out=b)
            np.multiply(e2, y, out=y)
            np.add(y, b, out=y)
            t += dt
            n_steps += 1
            if n_steps % 64 == 0 and not np.all(np.isfinite(y)):
                raise nonfinite(t)
        t = target
        land(y, t)
    return n_steps
