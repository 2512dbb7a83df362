"""Smooth dyadic cutoff family used for both spatial shells and frequency bands.

The base profile is built from the standard C-infinity bump
``psi(t) = exp(-1/t)`` for ``t > 0`` (zero otherwise) through the smoothstep

    s(t) = psi(t) / (psi(t) + psi(1 - t)),

which rises monotonically from 0 (t <= 0) to 1 (t >= 1).  The half-line base
cutoff is

    base_le(y) = s(2 - y)     # equals 1 for y <= 1, 0 for y >= 2.

The two members are derived from it by dyadic rescaling and difference:

    le(j, y)      = base_le(2^-j y)                   (one for y <= 2^j)
    shell(j, y)   = le(j, y) - le(j-1, y)             (supported on [2^{j-1}, 2^{j+1}])

with their derivatives in y.  Symmetric (both-sign) variants evaluate the
half-line member at |y|; a negative-half cutoff is the half-line member
evaluated at -y.  The very-low-pass member used by the gauge transformation
is ``ll(k, N, y, factor)`` = le(k - factor*N, |y|); the default factor is
100 and experiments may relax it (the tested property is support separation
from the 2^k band, which callers assert).

Indices may be any real number: members are continuous functions of 2^-j y.
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-300


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) on t > 0, zero elsewhere; vectorized and overflow-safe."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_deriv(t: np.ndarray) -> np.ndarray:
    """d/dt exp(-1/t) = exp(-1/t)/t^2 on t > 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Monotone C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = _bump(t)
    b = _bump(1.0 - t)
    return a / np.maximum(a + b, _TINY)


def smoothstep_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    a = _bump(t)
    b = _bump(1.0 - t)
    ap = _bump_deriv(t)
    bp = _bump_deriv(1.0 - t)
    s = np.maximum(a + b, _TINY)
    return (ap * b + a * bp) / s**2


class CutoffFamily:
    """All dyadic cutoffs derived from one fixed smoothstep profile.

    Instances are stateless; the module-level ``DEFAULT`` is shared.  Every
    method is vectorized over its spatial/frequency argument and accepts a
    real (possibly non-integer) dyadic index.
    """

    # -- half-line members (arguments may be negative; le == 1 there) --

    def le(self, j: float, y) -> np.ndarray:
        """chi^+_{<=j}: one for y <= 2^j, zero for y >= 2^{j+1}."""
        return smoothstep(2.0 - np.asarray(y, dtype=float) / 2.0**j)

    def le_deriv(self, j: float, y) -> np.ndarray:
        return -smoothstep_deriv(2.0 - np.asarray(y, dtype=float) / 2.0**j) / 2.0**j

    def shell(self, j: float, y) -> np.ndarray:
        """chi^+_j = chi^+_{<=j} - chi^+_{<=j-1}, supported on [2^{j-1}, 2^{j+1}]."""
        return self.le(j, y) - self.le(j - 1, y)

    def shell_deriv(self, j: float, y) -> np.ndarray:
        return self.le_deriv(j, y) - self.le_deriv(j - 1, y)

    # -- symmetric members --

    def le_abs(self, j: float, y) -> np.ndarray:
        """chi_{<=j}(y) = chi^+_{<=j}(|y|); equals 1 at y = 0."""
        return self.le(j, np.abs(np.asarray(y, dtype=float)))

    def shell_abs(self, j: float, y) -> np.ndarray:
        return self.shell(j, np.abs(np.asarray(y, dtype=float)))

    # -- gauge low-pass --

    def ll(self, k: float, order: int, y, factor: float = 100.0) -> np.ndarray:
        """Very-low-pass chi_{<< k} = chi_{<= k - factor*order}(|y|)."""
        return self.le_abs(k - factor * order, y)


DEFAULT = CutoffFamily()
