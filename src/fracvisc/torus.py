"""Spectral calculus on the flat torus [0, 2pi)^d for d in {1, 2}.

Fields live on uniform tensor grids.  The one coefficient convention is the
unnormalized real FFT, c_k = rfftn(f)_k = sum_j f(x_j) exp(-i k . x_j), over
the half spectrum: numpy FFT ordering on the first axis, 0..n/2 on the last.
RealSpectral, built once per grid, holds its wavenumbers, 2/3 dealiasing,
Parseval weights and transforms.  The diagnostics below are Fourier
multipliers on it that take a Nyquist mode, at the nodes, as the cosine
through its samples.  Both time-dependent solvers march with its one
integrating-factor RK4 integrator, ifrk4_march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TorusGrid",
    "Field",
    "frac_laplacian",
    "spectral_gradient",
    "hessian_max_eig",
    "second_difference_max",
    "lp_norm",
    "mode_table",
    "eval_modes",
    "refine",
    "subsample",
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


@dataclass(frozen=True)
class Field:
    """Real nodal samples of a function on a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.shape != self.grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid shape {self.grid.shape}")
        if np.iscomplexobj(arr):
            raise ValueError("Field values must be real")
        out = np.array(arr, dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise ValueError("values contain NaN or Inf")
        out.setflags(write=False)
        object.__setattr__(self, "values", out)


def _nyquist_free(k: np.ndarray, n: int) -> np.ndarray:
    """Wavenumbers k with the Nyquist one, n/2 in magnitude, set to zero."""
    return np.where(np.abs(k) < n // 2, k, 0.0)


def frac_laplacian(f: Field, s: float) -> Field:
    """Apply (-Delta)^s via the Fourier multiplier |k|^(2s)."""
    sp = f.grid.spectral
    return Field(f.grid, sp.inv(sp.fwd(f.values) * sp.symbol(s)))


def spectral_gradient(f: Field) -> list[Field]:
    """Exact spectral partial derivatives, one Field per axis.

    No mode is dealiased, but a Nyquist wavenumber differentiates to zero:
    the cosine through a Nyquist mode's samples has zero slope at the nodes.
    """
    sp = f.grid.spectral
    coeff = sp.fwd(f.values)
    return [Field(f.grid, sp.inv(1j * _nyquist_free(km, f.grid.n_points) * coeff)) for km in sp.k]


def hessian_max_eig(f: Field) -> float:
    """sup over nodes of the largest eigenvalue of the spectral Hessian.

    The mixed derivative zeroes a Nyquist wavenumber as spectral_gradient
    does, except at the corner mode (n/2, n/2), which is taken as
    cos(n/2 (x + y)) and keeps its multiplier -n^2/4.
    """
    grid = f.grid
    sp = grid.spectral
    coeff = sp.fwd(f.values)
    if grid.dim == 1:
        return float(np.max(sp.inv(-sp.k2 * coeff)))
    n = grid.n_points
    kx, ky = sp.k
    kxy = _nyquist_free(kx, n) * _nyquist_free(ky, n)
    kxy[n // 2, -1] = n * n / 4
    uxx, uyy, uxy = (sp.inv(-m * coeff) for m in (kx * kx, ky * ky, kxy))
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
    the torus volume, so constants satisfy ||c||_p = |c| (2pi)^(dim/p).  The
    sum is taken over |f| / sup|f|, so it neither under- nor overflows at
    large p.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    a = np.abs(f.values)
    m = float(np.max(a))
    if math.isinf(p) or not 0.0 < m < math.inf:  # the sup norm, a zero field, or a non-finite one
        return m
    h_vol = f.grid.spacing**f.grid.dim
    return m * float((np.sum((a / m) ** p) * h_vol) ** (1.0 / p))


def _split_nyquist_row(coeff: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """2-D rfft coefficients on the n + 1 rows kx = 0..n/2, -n/2..-1, and those kx.

    The axis-0 Nyquist row is split evenly between kx = n/2 and -n/2, so
    that it stands for a cosine in x, except its corner mode, which goes to
    kx = n/2 whole and so stands for cos(n/2 (x + y)).
    """
    half = n // 2
    rows = np.concatenate([coeff[:half + 1], coeff[half:]])
    rows[half:half + 2] *= 0.5
    rows[half, -1], rows[half + 1, -1] = coeff[half, -1], 0.0
    return rows, np.r_[0:half + 1, -half:0]


def mode_table(f: Field, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Significant modes of f: float wavevectors (m, dim) and coefficients for eval_modes.

    The modes are the rfft half spectrum, with each coefficient weighted by
    parseval_w / N_total so that the real part of the mode sum is the
    trigonometric interpolant; in 2-D the axis-0 Nyquist row is split as in
    refine.  Modes at or below rel_tol times the peak coefficient are dropped.
    """
    grid = f.grid
    sp = grid.spectral
    coeff = sp.fwd(f.values) * (sp.parseval_w / grid.n_total)
    kms = sp.k
    if grid.dim == 2:
        coeff, kx = _split_nyquist_row(coeff, grid.n_points)
        kms = np.meshgrid(kx, sp.k[1][0], indexing="ij")
    flat = coeff.reshape(-1)
    sig = np.abs(flat) > rel_tol * max(np.max(np.abs(flat)), 1e-300)
    kvecs = np.stack([km.reshape(-1)[sig] for km in kms], axis=-1)
    return kvecs, flat[sig]


def eval_modes(kvecs: np.ndarray, cvals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Real part of sum_k c_k exp(i k . x) over a mode table, at pts of shape (..., dim)."""
    phase = pts.reshape(-1, pts.shape[-1]) @ kvecs.T
    return (np.exp(1j * phase) @ cvals).real.reshape(pts.shape[:-1])


def refine(f: Field, factor: int) -> Field:
    """Trigonometric upsampling onto a grid factor times finer per axis.

    The rfft coefficients are zero-padded, with each Nyquist mode split
    evenly between +-n/2 so that it stands for a cosine; in 2-D the corner
    mode (n/2, n/2) stands for cos(n/2 (x + y)).
    """
    if not isinstance(factor, int) or factor < 1 or not _is_power_of_two(factor):
        raise ValueError(f"factor must be a power-of-two integer >= 1, got {factor}")
    if factor == 1:
        return f
    grid = f.grid
    n = grid.n_points
    fine = TorusGrid(grid.dim, n * factor)
    # the fine half spectrum holds the last-axis Nyquist at +n/2 and implies its partner
    coeff = grid.spectral.fwd(f.values) * float(factor**grid.dim)
    coeff[..., -1] *= 0.5
    if grid.dim == 2:
        rows, kx = _split_nyquist_row(coeff, n)
        coeff = np.zeros((fine.n_points, n // 2 + 1), dtype=complex)
        coeff[kx] = rows
    return Field(fine, np.fft.irfftn(coeff, s=fine.shape, axes=grid.spectral.axes))


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


# ---------------------------------------------------------------------------
# rfft backend and the integrating-factor RK4 march of the spectral solvers
# ---------------------------------------------------------------------------


class RealSpectral:
    """rfftn-layout wavenumbers, 2/3 dealiasing and transforms of one grid.

    Obtain it through TorusGrid.spectral, which builds it once per grid; its
    arrays are read-only because every solve on the grid shares them.  k[j]
    holds the wavenumbers k_j of every mode and ik[j] the multiplier i k_j
    with the modes beyond the 2/3 cutoff zeroed, so ik[j] * c is the
    dealiased j-th derivative; tail lists those modes as slices of the rfft
    layout.  fwd, inv and truncate also take a batch of fields stacked on a
    leading axis, transformed in one call; fwd and inv write into out when
    given.
    """

    def __init__(self, grid: TorusGrid):
        n = grid.n_points
        kfull = np.fft.fftfreq(n, d=1.0 / n).astype(np.float64)
        khalf = np.arange(n // 2 + 1, dtype=np.float64)
        cutoff = n // 3
        if grid.dim == 1:
            kms = (khalf,)
            self.tail = ((..., slice(cutoff + 1, None)),)
        else:
            kms = np.meshgrid(kfull, khalf, indexing="ij")
            self.tail = (
                (..., slice(cutoff + 1, n - cutoff), slice(None)),
                (..., slice(cutoff + 1, None)),
            )
        self.k = kms
        self.k2 = k2 = sum(km**2 for km in kms)
        self.keep = keep = np.logical_and.reduce([np.abs(km) <= cutoff for km in kms])
        self.ik = [np.where(keep, 1j * km, 0.0) for km in kms]
        # Parseval weights: modes with conjugate partner folded away count twice
        w = np.full(k2.shape, 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0
        self.parseval_w = w
        for arr in (*kms, k2, keep, *self.ik, w):
            arr.setflags(write=False)
        self.shape = grid.shape
        self.axes = tuple(range(-grid.dim, 0))
        self.grid = grid

    def symbol(self, s: float) -> np.ndarray:
        """Fourier symbol |k|^(2s) of the fractional Laplacian (-Delta)^s."""
        if not 0.0 < s <= 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1], got {s}")
        return self.k2**s

    @cached_property
    def damping(self) -> np.ndarray:
        """Smooth near-cutoff damping rate 3000 k_c (|k|/k_c)^16 that both solvers add to lam.

        Sharp spectral truncation of a steep front excites a standing wave
        packet just below the cutoff wherever the transport speed vanishes;
        squaring inside the Hamiltonian then rectifies the packet into an
        O(1) spurious forcing that no grid refinement removes.  A smooth
        high-order roll-off kills the packet band while leaving physically
        resolved modes (|k| < 0.3 k_c say) untouched to far below round-off.
        """
        kc = float(self.grid.n_points // 3)
        rate = 3000.0 * kc * (self.k2 / (kc * kc)) ** 8
        rate.setflags(write=False)
        return rate

    def fwd(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # s= spares rfftn a shape lookup that costs more than a 1024-point transform's tenth
        return np.fft.rfftn(values, s=self.shape, axes=self.axes, out=out)

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


@np.errstate(over="ignore", invalid="ignore")  # a blowing-up member is reported by its guard
def ifrk4_march(grid: TorusGrid, members, y: np.ndarray, nonlinear,
                *, dt_rule, landings: np.ndarray, t_ref: float, land, nonfinite) -> list[int]:
    """Integrating-factor RK4 for d_t y = -lam y + N(y, t), one independent solve per row of y.

    Member i starts from the rfft coefficients y[i], with lam = viscosity
    |k|^(2s) for (viscosity, s) = members[i] plus the smooth near-cutoff
    damping RealSpectral.damping.
    The members still marching hold the rows y[:m], advanced in place; the
    rows behind a member that leaves move up, so rows keep their members'
    order.  nonlinear(y, ids, ts, out) writes N of the m rows, row j of
    member ids[j] at time ts[j], into out; dt_rule(ids), called right after
    the stage-1 evaluation (so it may read that call's buffers), returns
    their steps.  Each member's steps are shortened to land exactly
    on each ascending landing, where land(i, y_i, t) is called; member i
    leaves when that returns False or after the last landing, and through
    nonfinite(i, t) (which may raise) right after a step that dt_rule gave
    as zero or NaN, or every 64 steps once its row stops being finite.
    t_ref scales the landing tolerance 1e-13 t_ref.  A row rebuilds its
    factors exp(-lam dt / 2) and exp(-lam dt) only when its (member, dt)
    changes, and keeps no others.  Each row's numbers are bitwise those of
    its member marched alone.  Returns each member's number of steps.

    Lawson form: fourth order while the solution is smooth, but a mode with
    lam dt >> 1 (the damping band) leaves a step at about (dt / 6) N_k, not
    at its slaved value N_k / lam_k.  Once a front feeds that band, the
    nonlinearity carries this first-order error into the resolved modes, so
    the time error then shrinks only about like dt (measured in CHANGES.md).
    """
    sp = grid.spectral
    lams = {key: key[0] * sp.symbol(key[1]) + sp.damping for key in members}

    # stage slopes k1..k4, two partial sums, and per row its factors and its
    # 0.5 dt, dt and dt / 6 filled across the row (a column broadcast over the
    # row misses numpy's contiguous loops); each update below repeats the
    # operand order of the expression in its comment, so results are bitwise
    # those of the plain array expressions
    bufs = (y,) + tuple(np.empty_like(y) for _ in range(11))
    ends = [target - 1e-13 * t_ref for target in landings]
    # per row: its member, time, next landing and the (member, dt) of its factors
    ids, t, nxt, row_key = list(range(len(members))), [0.0] * len(members), [0] * len(members), []
    steps = [0] * len(members)
    n_steps = m = 0
    bad = ()  # rows found non-finite
    while True:
        stay = []
        for r, i in enumerate(ids):
            ok = r not in bad
            while ok and nxt[r] < len(landings) and not t[r] < ends[nxt[r]]:
                t[r] = landings[nxt[r]]
                nxt[r] += 1
                ok = land(i, y[r], t[r])
            if ok and nxt[r] < len(landings):
                stay.append(r)
            else:
                steps[i] = n_steps
        if len(stay) < m or not m:
            y[:len(stay)] = y[stay]
            ids, t, nxt = ([v[r] for r in stay] for v in (ids, t, nxt))
            m, row_key = len(stay), [None] * len(stay)
            if not m:
                return steps
            ym, k1, k2, k3, k4, a, b, e1, e2, h, dt, sixth = (arr[:m] for arr in bufs)
        nonlinear(ym, ids, t, k1)
        dts = list(dt_rule(ids))
        stalled = {r for r, d in enumerate(dts) if not d > 0.0}  # these rows leave after this step
        for r, i in enumerate(ids):
            if t[r] + dts[r] >= ends[nxt[r]]:  # shorten the step to land on the next landing
                dts[r] = landings[nxt[r]] - t[r]
            if row_key[r] != (members[i], dts[r]):
                row_key[r] = (members[i], dts[r])
                e_half = np.exp(lams[members[i]] * (-0.5 * dts[r]))
                e1[r], e2[r] = e_half, e_half * e_half
                h[r], dt[r], sixth[r] = 0.5 * dts[r], dts[r], dts[r] / 6.0
        t_half = [tr + 0.5 * dr for tr, dr in zip(t, dts)]
        t = [tr + dr for tr, dr in zip(t, dts)]
        # k2 = N(e1 * (y + (0.5 * dt) * k1))
        np.multiply(h, k1, out=a)
        np.add(ym, a, out=a)
        np.multiply(e1, a, out=a)
        nonlinear(a, ids, t_half, k2)
        # k3 = N(e1 * y + (0.5 * dt) * k2)
        np.multiply(e1, ym, out=a)
        np.multiply(h, k2, out=b)
        np.add(a, b, out=a)
        nonlinear(a, ids, t_half, k3)
        # k4 = N(e2 * y + dt * (e1 * k3)); y holds e2 * y from here on, all the update needs
        np.multiply(e2, ym, out=ym)
        np.multiply(e1, k3, out=b)
        np.multiply(dt, b, out=b)
        np.add(ym, b, out=a)
        nonlinear(a, ids, t, k4)
        # y = e2 * y + (dt / 6) * (e2 * k1 + 2 * (e1 * (k2 + k3)) + k4)
        np.add(k2, k3, out=a)
        np.multiply(e1, a, out=a)
        np.multiply(2.0, a, out=a)
        np.multiply(e2, k1, out=b)
        np.add(b, a, out=b)
        np.add(b, k4, out=b)
        np.multiply(sixth, b, out=b)
        np.add(ym, b, out=ym)
        n_steps += 1
        bad = stalled
        if n_steps % 64 == 0 and not np.all(np.isfinite(ym)):
            bad |= set(np.flatnonzero(~np.isfinite(ym).reshape(m, -1).all(axis=1)).tolist())
        for r in bad:
            nonfinite(ids[r], t[r])
