"""Periodic grid and the field containers built on it.

The box [-L/2, L/2) with n equispaced points stands in for the real line;
all continuum statements acquire O(1/L) truncation budgets stated per test.
Frequencies are xi_m = 2*pi*m/L for m = -n/2 .. n/2-1 (single unpaired
Nyquist mode at m = -n/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputShapeError


class Grid:
    """Uniform periodic grid on [-L/2, L/2).

    Attributes:
        n_points: even number of samples.
        box_length: period L.
        dx: sample spacing, dx * n_points == L.
        x: sample locations, x[0] = -L/2.
        xi: angular frequencies in math order (ascending, Nyquist first).
        nyquist: pi * n / L, the largest resolvable |xi|.

    Instances are immutable in spirit; arrays must not be written to.
    """

    def __init__(self, n_points: int, box_length: float):
        # 1000.5 points are not 1000, and an infinite box has no spacing
        n = int(n_points) if float(n_points).is_integer() else -1
        if n < 4 or n % 2 != 0:
            raise ConfigError(f"n_points must be an even integer >= 4, got {n_points}")
        if not 0 < box_length < np.inf:
            raise ConfigError(f"box_length must be positive and finite, got {box_length}")
        self.n_points = n
        self.box_length = float(box_length)
        self.dx = self.box_length / n
        self.x = -self.box_length / 2.0 + self.dx * np.arange(n)
        self.modes = np.arange(-n // 2, n // 2)
        self.xi = 2.0 * np.pi * self.modes / self.box_length
        self.dxi = 2.0 * np.pi / self.box_length
        self.nyquist = np.pi * n / self.box_length
        # e^{-i xi_m x_0} with x_0 = -L/2 reduces to (-1)^m exactly
        self._phase = np.where(self.modes % 2 == 0, 1.0, -1.0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n_points == other.n_points
            and self.box_length == other.box_length
        )

    def __hash__(self) -> int:
        return hash((self.n_points, self.box_length))

    def __repr__(self) -> str:
        return f"Grid(n_points={self.n_points}, box_length={self.box_length})"


def _check_len(grid: Grid, samples: np.ndarray) -> None:
    if samples.shape != (grid.n_points,):
        raise InputShapeError(
            f"expected {grid.n_points} samples, got array of shape {samples.shape}"
        )


@dataclass
class Field:
    """Real-valued samples on a grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        _check_len(self.grid, self.samples)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def l2_norm(self) -> float:
        """Physical L2 norm: sqrt(dx * sum |f|^2)."""
        return float(np.sqrt(self.grid.dx * np.sum(self.samples**2)))


@dataclass
class ComplexField:
    """Complex-valued samples on a grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        _check_len(self.grid, self.samples)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))
