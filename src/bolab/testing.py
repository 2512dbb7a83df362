"""Deterministic random-field builders shared by the test suite and the
CLI verification commands.

All generators work in frequency space so fields are exactly band-limited,
mean-zero and Nyquist-free (the conventions every projector assumes), with
Hermitian coefficients so samples are real.
"""

from __future__ import annotations

import numpy as np

from .grid import ComplexField, Field, Grid
from .spectral import samples_of


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    band_fraction: float = 0.5,
    decay: float = 0.0,
) -> Field:
    """Real mean-zero field with spectrum supported in 0 < |xi| <= fraction * Nyquist.

    ``decay`` multiplies each coefficient by exp(-decay * |xi|), producing
    smoother fields with soliton-like spectral tails when positive.
    """
    n = grid.n_points
    coeffs = np.zeros(n, dtype=complex)
    limit = band_fraction * grid.nyquist
    half = np.arange(1, n // 2)  # positive modes, Nyquist excluded
    xi_half = 2.0 * np.pi * half / grid.box_length
    live = xi_half <= limit
    vals = (rng.normal(size=half.shape) + 1j * rng.normal(size=half.shape)) * live
    if decay > 0.0:
        vals = vals * np.exp(-decay * xi_half)
    center = n // 2
    coeffs[center + half] = vals
    coeffs[center - half] = np.conj(vals)
    return Field(grid, samples_of(coeffs, grid).real)


def random_compact_bump(
    grid: Grid,
    rng: np.random.Generator,
    support_radius: float = 8.0,
    n_bumps: int = 3,
) -> Field:
    """Real field supported (numerically) within |x| <= support_radius."""
    samples = np.zeros(grid.n_points)
    for _ in range(n_bumps):
        center = rng.uniform(-support_radius / 2.0, support_radius / 2.0)
        width = rng.uniform(0.5, support_radius / 4.0)
        amp = rng.normal()
        samples += amp * np.exp(-(((grid.x - center) / width) ** 2))
    return Field(grid, samples)


def single_mode(grid: Grid, m: int, amplitude: complex = 1.0) -> ComplexField:
    """The complex exponential exp(i xi_m x) scaled by ``amplitude``."""
    return ComplexField(grid, amplitude * np.exp(1j * grid.xi[m + grid.n_points // 2] * grid.x))
