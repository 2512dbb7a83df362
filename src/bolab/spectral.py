"""Fourier transforms, multipliers, Hilbert transform, dyadic projections and
spatial shell cutoffs on the periodic grid.

Discrete transform pair (math-ordered coefficients, symmetric normalization),
``coeffs_of`` and ``samples_of`` on plain arrays:

    c_m = (dx / sqrt(2 pi)) * sum_i f_i exp(-i xi_m x_i)
    f_i = (dxi / sqrt(2 pi)) * sum_m c_m exp(+i xi_m x_i),   dxi = 2 pi / L

so that Parseval reads  dx * sum |f_i|^2 = dxi * sum |c_m|^2  and pointwise
products obey  (f g)^ = (1/sqrt(2 pi)) c_f (*) c_g  with the lattice
convolution carrying measure dxi.

Sign conventions: sgn(0) = 0 in the Hilbert multiplier, the half-line
indicators vanish at xi = 0, and every projector zeroes the unpaired Nyquist
mode.  This preserves realness and the identity (H +- i) = +-2i P^{-+} on
mean-zero fields.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from . import cutoffs
from .errors import (
    BandEdgeWarning,
    DegenerateShellError,
    GridMismatchError,
    MultiplierDomainError,
)
from .grid import ComplexField, Field, Grid

# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def coeffs_of(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Raw samples -> math-ordered coefficients (internal fast path).

    For the even n of every grid, fftshift is the swap of the two halves."""
    a = np.fft.fft(samples)
    h = grid.n_points // 2
    c = np.concatenate((a[h:], a[:h]))
    c *= grid.dx / np.sqrt(2.0 * np.pi)
    c *= grid._phase
    return c


def fft_ordered(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """ifftshift(coeffs * grid._phase) in a new complex array: math order to
    FFT order, the swap of the two halves for the even n of every grid."""
    h = grid.n_points // 2
    out = np.empty(coeffs.shape, dtype=complex)
    np.multiply(coeffs[h:], grid._phase[h:], out=out[:h])
    np.multiply(coeffs[:h], grid._phase[:h], out=out[h:])
    return out


def samples_of(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Math-ordered coefficients -> raw samples (internal fast path)."""
    a = fft_ordered(coeffs, grid)
    np.fft.ifft(a, out=a)
    a *= np.sqrt(2.0 * np.pi) / grid.dx
    return a


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def apply_multiplier(m: Callable[[np.ndarray], np.ndarray], f: Field | ComplexField) -> ComplexField:
    """Apply the Fourier multiplier m(xi) to a field.

    Raises MultiplierDomainError if m is non-finite at any grid frequency.
    The output is real (to roundoff) whenever m(-xi) = conj(m(xi)) and the
    input is real with no Nyquist content.
    """
    grid = f.grid
    values = np.asarray(m(grid.xi), dtype=complex)
    if values.shape != grid.xi.shape:
        values = np.broadcast_to(values, grid.xi.shape).astype(complex)
    if not np.all(np.isfinite(values)):
        bad = grid.xi[~np.isfinite(values)]
        raise MultiplierDomainError(f"multiplier non-finite at xi = {bad[:3]} ...")
    c = coeffs_of(np.asarray(f.samples), grid)
    return ComplexField(grid, samples_of(values * c, grid))


def _apply_values(values: np.ndarray, samples: np.ndarray, grid: Grid) -> np.ndarray:
    return samples_of(values * coeffs_of(samples, grid), grid)


def derivative_values(grid: Grid, order: int) -> np.ndarray:
    """Multiplier values (i xi)^order of the spectral derivative, applied to
    coefficients; the Nyquist mode is zeroed for odd orders."""
    values = (1j * grid.xi) ** order
    if order % 2 == 1:
        values[0] = 0.0
    return values


def derivative(f: Field | ComplexField, order: int = 1) -> ComplexField:
    """Spectral derivative (i xi)^order; the Nyquist mode is zeroed for odd orders."""
    grid = f.grid
    return ComplexField(grid, _apply_values(derivative_values(grid, order),
                                            np.asarray(f.samples), grid))


def hilbert(f: Field | ComplexField) -> Field | ComplexField:
    """Hilbert transform, multiplier -i*sgn(xi) with sgn(0) = 0, Nyquist zeroed.

    Returns a real Field when given one.
    """
    grid = f.grid
    values = -1j * np.sign(grid.xi)
    values[0] = 0.0  # unpaired Nyquist would break realness
    out = _apply_values(values, np.asarray(f.samples), grid)
    if isinstance(f, Field):
        return Field(grid, out.real)
    return ComplexField(grid, out)


def lp_values(grid: Grid, k: float, variant: str) -> np.ndarray:
    """Multiplier values for the Littlewood-Paley projection of a given variant."""
    axi = np.abs(grid.xi)
    if variant == "full":
        v = cutoffs.shell(k, axi)
    elif variant == "plus":
        v = cutoffs.shell(k, axi) * (grid.xi > 0)
    elif variant == "minus":
        v = cutoffs.shell(k, axi) * (grid.xi < 0)
    elif variant == "leq":
        v = cutoffs.le(k, axi)
    else:
        raise ValueError(f"unknown LP variant {variant!r}")
    v = np.asarray(v, dtype=float).copy()
    v[0] = 0.0
    return v


def warn_band_edge(grid: Grid, k: float) -> None:
    """Warn (BandEdgeWarning) when the band 2^{k+1} reaches the grid Nyquist."""
    if k + 1 >= math.log2(grid.nyquist):
        warnings.warn(f"band k={k} touches the Nyquist frequency {grid.nyquist:.3g}",
                      BandEdgeWarning, stacklevel=3)


def lp_project(f: Field | ComplexField, k: float, variant: str) -> ComplexField:
    """Dyadic frequency projection P_k (and its half-line / cumulative variants).

    Warns (BandEdgeWarning) when the band 2^{k+1} reaches the grid Nyquist.
    """
    grid = f.grid
    if variant in ("full", "plus", "minus"):
        warn_band_edge(grid, k)
    values = lp_values(grid, k, variant)
    return ComplexField(grid, _apply_values(values, np.asarray(f.samples), grid))


def lp_partition_bounds(grid: Grid) -> tuple[int, int]:
    """Integer band range (k_min, k_max) covering all nonzero grid frequencies.

    chi_{<= k_max} == 1 on the grid, so P_{<= k_min} + sum_{k_min < k <= k_max} P_k
    reconstructs any Nyquist-free field exactly.
    """
    k_max = int(np.ceil(np.log2(grid.nyquist)))
    k_min = int(np.floor(np.log2(grid.dxi))) - 1
    return k_min, k_max


# ---------------------------------------------------------------------------
# spatial cutoffs
# ---------------------------------------------------------------------------


def spatial_cutoff_values(grid: Grid, j: float, sign: str) -> np.ndarray:
    """Values of the dyadic shell chi_j on the grid points, at x or -x, and the one rule
    of which shells a measurement admits: DegenerateShellError for a 2^j beyond
    box_length/4, decided in log2, where 2^j cannot overflow, or no grid point weighed."""
    if not j <= math.log2(grid.box_length / 4.0):
        raise DegenerateShellError(f"shell 2^{j} exceeds box_length/4 = {grid.box_length / 4:.3g}")
    if sign not in ("+", "-"):
        raise ValueError(f"unknown sign {sign!r}")
    w = np.asarray(cutoffs.shell(j, grid.x if sign == "+" else -grid.x), dtype=float)
    if not w.any():
        raise DegenerateShellError(f"shell 2^{j} weighs no grid point (dx = {grid.dx:.3g})")
    return w


def spatial_cutoff(f: Field | ComplexField, j: float, sign: str) -> Field | ComplexField:
    """Pointwise product with the shell cutoff; errors on shells leaving the box or
    weighing no grid point."""
    return type(f)(f.grid, spatial_cutoff_values(f.grid, j, sign) * np.asarray(f.samples))


def shell_weight(grid: Grid, j: float, sign: str) -> tuple[slice, np.ndarray]:
    """``spatial_cutoff_values`` on its support: (s, values), the weight being zero off
    the slice s."""
    w = spatial_cutoff_values(grid, j, sign)
    nz = np.flatnonzero(w)
    s = slice(nz[0], nz[-1] + 1)
    return s, w[s].copy()


# ---------------------------------------------------------------------------
# small conveniences shared by the higher modules
# ---------------------------------------------------------------------------


def require_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for g in fields[1:]:
        if g.grid != grid:
            raise GridMismatchError(f"{g.grid} != {grid}")
    return grid


def multiply(f: Field | ComplexField, g: Field | ComplexField) -> ComplexField:
    """Plain pointwise product (no dealiasing mask)."""
    require_same_grid(f, g)
    return ComplexField(f.grid, np.asarray(f.samples) * np.asarray(g.samples))


def spectral_tail_mass(f: Field | ComplexField, fraction: float, c: np.ndarray) -> float:
    """dxi * sum of |coefficients| c of f beyond fraction * Nyquist (aliasing
    proxy)."""
    grid = f.grid
    tail = np.abs(grid.xi) > fraction * grid.nyquist
    return float(grid.dxi * np.sum(np.abs(c[tail])))
