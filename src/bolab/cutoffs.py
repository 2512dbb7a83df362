"""The one smooth dyadic cutoff family, used for both spatial shells and
frequency bands, as plain functions.

The base profile is built from the standard C-infinity bump
``psi(t) = exp(-1/t)`` for ``t > 0`` (zero otherwise) through the smoothstep

    s(t) = psi(t) / (psi(t) + psi(1 - t)),

which rises monotonically from 0 (t <= 0) to 1 (t >= 1).  The half-line base
cutoff is

    base_le(y) = s(2 - y)     # equals 1 for y <= 1, 0 for y >= 2.

The module's functions derive the family from it by dyadic rescaling and
difference:

    le(j, y)      = base_le(2^-j y)                   (one for y <= 2^j)
    shell(j, y)   = le(j, y) - le(j-1, y)             (supported on [2^{j-1}, 2^{j+1}])

The symmetric (both-sign) members ``le_abs`` and ``shell_abs`` evaluate the
half-line member at |y|; a negative-half cutoff is the half-line member
evaluated at -y.  The very-low pass chi_{<<k} of the gauge transformation is
the member le_abs(k - factor*N, y), the factor set by the caller (the tested
property is support separation from the 2^k band, which callers assert).

Indices may be any real number: members are continuous functions of 2^-j y,
vectorized over y, also where 2^j is not a normal double (``le`` then takes
its limit).  ``shell_holds`` tells whether a shell meets a set of points,
also for an index whose 2^j over- or underflows.
"""

from __future__ import annotations

import math

import numpy as np

_TINY = 1e-300


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) on t > 0, zero elsewhere; vectorized and overflow-safe."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Monotone C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = _bump(t)
    b = _bump(1.0 - t)
    return a / np.maximum(a + b, _TINY)


def _scaled(j: float, y: np.ndarray) -> np.ndarray:
    """2^-j y for a normal 2^j, with y first clamped to [-2^(j+2), 2^(j+2)]: below
    and above that range ``le`` is exactly 1 and 0, so the clamp changes no value
    and keeps the quotient finite (no overflow warning) where 2^j is tiny.  The
    bound is a Python float, which is inf, with no warning, where 2^(j+2) overflows."""
    scale = 2.0 ** float(j)
    return np.maximum(np.minimum(y, 4.0 * scale), -4.0 * scale) / scale


def le(j: float, y) -> np.ndarray:
    """chi^+_{<=j}: one for y <= 2^j (negative y included), zero for y >= 2^{j+1}.
    Where 2^j is not a normal double, the indicator of y <= 0 below, one above."""
    y = np.asarray(y, dtype=float)
    if not -1022 <= j < 1024:
        return np.where(y <= 0.0, 1.0, 0.0) if j < 0 else np.ones_like(y)
    return smoothstep(2.0 - _scaled(j, y))


def shell(j: float, y) -> np.ndarray:
    """chi^+_j = chi^+_{<=j} - chi^+_{<=j-1}, supported on [2^{j-1}, 2^{j+1}]."""
    return le(j, y) - le(j - 1, y)


def shell_holds(j: float, points: np.ndarray) -> bool:
    """Whether chi^+_j is nonzero at one of ``points``, evaluated only at the
    points inside its support [2^{j-1}, 2^{j+1}].  A support that misses the
    range of the positive points is found in log2, without forming 2^j, which
    could over- or underflow."""
    positive = points[points > 0]
    if not (positive.size and math.log2(positive.min()) - 1.0 < j
            < math.log2(positive.max()) + 1.0):
        return False
    inside = positive[(positive > 2.0 ** (j - 1)) & (positive < 2.0 ** (j + 1))]
    return bool(np.any(shell(j, inside)))


def le_abs(j: float, y) -> np.ndarray:
    """chi_{<=j}(y) = chi^+_{<=j}(|y|); equals 1 at y = 0."""
    return le(j, np.abs(np.asarray(y, dtype=float)))


def shell_abs(j: float, y) -> np.ndarray:
    return shell(j, np.abs(np.asarray(y, dtype=float)))
