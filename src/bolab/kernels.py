"""Direct quadrature of the space/frequency-localized propagator kernels and
log-log decay-exponent fitting.

Each kernel has the form

    K(x, y) = (i^a / 2 pi) * chi_j^+(x) * src(y) * I(x, y),
    I = integral of exp(i phi(xi)) * cut(xi) * xi^a d xi,
    phi = xi (x - y + t) + t |xi| xi          (drifting unidirectional flow)

with variant-dependent frequency cutoff and source region:

    lowfreq-left   cut = chi_{<= k0}(|xi|),  src = chi^+_{<= j-10}(y),
                   k0 = -(1 - eps)/2 * j
    dyadic-left    cut = chi_k(|xi|),        src = chi^+_{<= j-10}(y)
    dyadic-right   cut = chi_k,              src = chi^+_ell(y),
                   t > 2^(ell+10) / <2^k>
    schro-left     cut = chi^+_k(xi) (positive half-line only),
                   src = chi^+_{<= j-10}(y), phase xi (x - y + t) + t xi^2

On xi > 0 the drifting phase equals the Schroedinger-with-drift phase, which
is the reduction identity checked to quadrature accuracy.

The left-variant source region sits strictly left of the measurement shell
(chi^+_{<= j-10}); on it the phase is nonstationary, d phi / d xi =
(x - y + t) + 2 t |xi| > 0, which is what produces the decay exponents.

Oscillatory integrals are evaluated by a composite 16-node Gauss-Legendre
rule on each side of xi = 0, where the phase curvature jumps.  The phase
depends on (x, y) only through d = x - y + t, so every sample point of a
batch shares the nodes, the weights and the d-free factor
amp = w cut(xi) xi^a exp(i t |xi| xi).  Each node is xi = m_p + s_g, the
midpoint m_p of panel p plus a Gauss offset s_g that is the same in every
panel, so exp(i d xi) = exp(i d m_p) exp(i d s_g): the batch forms the
panel sums exp(i outer(d, s)) @ amp_p in one matrix product and weights
them by exp(i outer(d, m)), D (P + 16) complex exponentials for D points
and P panels in place of the 16 D P of exp(i outer(d, xi)) @ amp.  The
panel count starts from the largest |phi'| on the piece and doubles until
the rule agrees with the same rule on half as many panels to quad_tol times
the integrand scale at every point, or until QUAD_LIMIT panels;
non-convergence is flagged on the result and never silent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import cutoffs
from .errors import DegenerateSeriesError, KernelDomainError, QuadratureWarning
from .files import write_csv

LEFT_VARIANTS = ("lowfreq-left", "dyadic-left", "schro-left")
RIGHT_VARIANTS = ("dyadic-right",)
VARIANTS = LEFT_VARIANTS + RIGHT_VARIANTS

#: cap on the panels of the composite rule on one piece of the frequency range
QUAD_LIMIT = 20000
#: Gauss-Legendre nodes per panel
GL_NODES = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
#: radians of phase change per panel in the first, unrefined rule
PANEL_PHASE = 8.0
#: panels of the first rule on a piece with little or no oscillation
MIN_PANELS = 4
#: entries of one block of the exp(i outer(d, m)) and panel-sum matrices
_BLOCK = 2**18
#: largest |j|, |k| and |ell| of a kernel: every scale a spec forms, up to
#: 4^k and 2^(ell + 10), is then a finite double
INDEX_MAX = 500.0
#: the fewest distinct parameters that ``fit_decay`` fits
FIT_MIN_POINTS = 4


def low_frequency_index(j: float, epsilon: float) -> float:
    """k0(j) = -(1 - epsilon)/2 * j, the band below which the low-frequency
    pieces of shell j lie (``KernelSpec.k0``, the decay harness's low-pass)."""
    return -(1.0 - epsilon) / 2.0 * j


@dataclass
class KernelSpec:
    """Parameters of one localized-kernel evaluation.

    j is the measurement shell, a the derivative count, t the elapsed time.
    Low-frequency variants use k0 = -(1 - epsilon)/2 * j; dyadic and
    Schroedinger variants use the band index k.  The right-moving variant
    needs a source shell ell > j - 10 and a time above the crossing threshold.
    """

    variant: str
    j: float
    t: float
    a: int = 0
    epsilon: float = 0.5
    k: float | None = None
    ell: float | None = None
    quad_tol: float = 1e-10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise KernelDomainError(f"unknown variant {self.variant!r}")
        for name in ("j", "k", "ell"):
            value = getattr(self, name)
            if value is not None and not abs(value) <= INDEX_MAX:
                raise KernelDomainError(f"{name} = {value:g} lies outside [-{INDEX_MAX:g}, "
                                        f"{INDEX_MAX:g}]: its dyadic scales would overflow")
        if self.a < 0:
            raise KernelDomainError(f"derivative count a must be nonnegative, got {self.a}")
        if self.j < 0:
            raise KernelDomainError("shell index j must be nonnegative")
        if not (0.0 < self.epsilon < 1.0):
            raise KernelDomainError("epsilon must lie in (0, 1)")
        if self.t < 0:
            raise KernelDomainError("time must be nonnegative")
        dyadic = self.variant.startswith(("dyadic", "schro"))
        if dyadic and self.k is None:
            raise KernelDomainError(f"variant {self.variant} requires a band index k")
        if self.variant in RIGHT_VARIANTS:
            if self.ell is None:
                raise KernelDomainError("right-moving variants require a source shell ell")
            if not self.ell > self.j - 10:
                raise KernelDomainError("right-moving variants require ell > j - 10")
            if self.t <= self.time_threshold():
                raise KernelDomainError(
                    f"t = {self.t:.4g} below the admissible threshold "
                    f"{self.time_threshold():.4g} for {self.variant}"
                )

    @property
    def k0(self) -> float:
        return low_frequency_index(self.j, self.epsilon)

    def time_threshold(self) -> float:
        if self.variant not in RIGHT_VARIANTS:
            return 0.0
        return 2.0 ** (self.ell + 10) / math.sqrt(1.0 + 4.0**self.k)  # japanese bracket <2^k>

    # -- geometry --

    def frequency_cutoff(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.variant.startswith("lowfreq"):
            return lambda xi: cutoffs.le_abs(self.k0, xi)
        if self.variant.startswith("dyadic"):
            return lambda xi: cutoffs.shell_abs(self.k, xi)
        return lambda xi: cutoffs.shell(self.k, xi)  # schro: positive half-line band

    def frequency_range(self) -> tuple[float, float]:
        if self.variant.startswith("lowfreq"):
            r = 2.0 ** (self.k0 + 1)
            return (-r, r)
        hi = 2.0 ** (self.k + 1)
        lo = 2.0 ** (self.k - 1)
        if self.variant.startswith("schro"):
            return (lo, hi)
        return (-hi, hi)

    def dispersive_phase(self, xi: np.ndarray) -> np.ndarray:
        """The part t |xi| xi (t xi^2 for Schroedinger) of the phase that
        does not depend on (x, y)."""
        xi = np.asarray(xi, dtype=float)
        if self.variant.startswith("schro"):
            return self.t * xi**2
        return self.t * np.abs(xi) * xi

    def phase_derivative(self, xi: np.ndarray, x: float, y: float) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.variant.startswith("schro"):
            return (x - y + self.t) + 2.0 * self.t * xi
        return (x - y + self.t) + 2.0 * self.t * np.abs(xi)

    def source_cutoff(self, y) -> np.ndarray:
        if self.variant in LEFT_VARIANTS:
            return np.asarray(cutoffs.le(self.j - 10, y), dtype=float)
        return np.asarray(cutoffs.shell(self.ell, y), dtype=float)

    def source_window(self) -> tuple[float, float]:
        """Sampling window for y; the sup lives near the right edge of the source."""
        if self.variant in LEFT_VARIANTS:
            return (-(2.0 ** (self.j + 1)), 2.0 ** (self.j - 9))
        return (2.0 ** (self.ell - 1), 2.0 ** (self.ell + 1))

    def shell_window(self) -> tuple[float, float]:
        return (2.0 ** (self.j - 1), 2.0 ** (self.j + 1))


@dataclass
class QuadResult:
    """Value and error estimate per point, arrays of the broadcast shape of
    the points (0-d for a scalar point); ``converged`` is one flag for the
    whole batch."""

    value: np.ndarray
    error: np.ndarray
    converged: bool


def _panel_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mid, offsets, weights) of the composite Gauss-Legendre rule with
    ``panels`` equal panels on [a, b]: node g of panel p is mid[p] + offsets[g]
    and has the weight weights[g]."""
    h = (b - a) / panels
    return a + h * (np.arange(panels) + 0.5), 0.5 * h * _GL_X, 0.5 * h * _GL_W


def phase_integral(
    spec: KernelSpec,
    x,
    y,
    cutoff_override: Callable[[np.ndarray], np.ndarray] | None = None,
    range_override: tuple[float, float] | None = None,
) -> QuadResult:
    """The oscillatory integral  int exp(i phi) cut(xi) xi^a dxi  at one point
    or at every point of the broadcast arrays (x, y).

    Split at xi = 0 where the phase curvature jumps; on each piece the
    composite Gauss-Legendre rule is refined until it agrees with the rule on
    half as many panels to quad_tol times the integrand scale at every point.
    Non-convergence within QUAD_LIMIT panels warns and flags the result
    (never silent).
    """
    cut = cutoff_override if cutoff_override is not None else spec.frequency_cutoff()
    lo, hi = range_override if range_override is not None else spec.frequency_range()
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = xs.shape
    xs, ys = xs.ravel(), ys.ravel()
    d = xs - ys + spec.t

    # integrand scale from the non-oscillatory magnitude
    grid = np.linspace(lo, hi, 257)
    scale = float(np.max(np.abs(cut(grid) * grid**spec.a)) * (hi - lo))
    epsabs = max(spec.quad_tol * max(scale, 1e-300), 1e-300)

    def rule(a_: float, b_: float, panels: int) -> np.ndarray:
        # exp(i d (m_p + s_g)) = exp(i d m_p) exp(i d s_g): per panel, one
        # exponential of its midpoint times the panel sum over the shared offsets
        mid, offsets, weights = _panel_rule(a_, b_, panels)
        xi = mid[:, None] + offsets
        amp = weights * cut(xi) * xi**spec.a * np.exp(1j * spec.dispersive_phase(xi))
        e_off = np.exp(1j * np.outer(d, offsets))
        out = np.zeros(d.size, dtype=complex)
        step = max(1, _BLOCK // max(d.size, 1))
        for s in range(0, panels, step):
            sums = e_off @ amp[s : s + step].T
            out += np.einsum("dp,dp->d", np.exp(1j * np.outer(d, mid[s : s + step])), sums)
        return out

    total = np.zeros(d.size, dtype=complex)
    err = np.zeros(d.size)
    ok = True
    pieces = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    for a_, b_ in pieces:
        if a_ >= b_ or d.size == 0:
            continue
        # |phi'| is monotone in |xi| and linear in d, so its max is at a corner
        slope = float(np.max(np.abs(spec.phase_derivative(np.array([[a_], [b_]]), xs, ys))))
        panels = min(max(MIN_PANELS, math.ceil(slope * (b_ - a_) / PANEL_PHASE)),
                     QUAD_LIMIT)
        coarse = rule(a_, b_, panels // 2)
        fine = rule(a_, b_, panels)
        while np.max(np.abs(fine - coarse)) > epsabs:
            if 2 * panels > QUAD_LIMIT:
                ok = False
                break
            panels *= 2
            coarse, fine = fine, rule(a_, b_, panels)
        total += fine
        err += np.abs(fine - coarse)
    if not ok:
        worst = int(np.argmax(err))
        warnings.warn(
            f"quadrature did not converge for {spec.variant} at t={spec.t:.3g} within "
            f"{QUAD_LIMIT} panels: {int(np.sum(err > epsabs))} of {d.size} points, "
            f"worst at (x={xs[worst]:.3g}, y={ys[worst]:.3g}); values are estimates",
            QuadratureWarning,
            stacklevel=2,
        )
    return QuadResult(value=total.reshape(shape), error=err.reshape(shape), converged=ok)


def _prefactor(spec: KernelSpec, x, y) -> np.ndarray:
    """(i^a / 2 pi) chi_j^+(x) src(y): the spatial localization of K."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        (1j**spec.a / (2.0 * np.pi))
        * np.asarray(cutoffs.shell(spec.j, x), dtype=float)
        * spec.source_cutoff(y)
    )


@dataclass
class SupResult:
    sup: float
    arg_x: float
    arg_y: float
    all_converged: bool


def kernel_sup(spec: KernelSpec, nx: int, ny: int) -> SupResult:
    """Max of |K| over an (nx, ny) sample grid of the declared support regions,
    evaluated as one batch over the points where the spatial cutoffs are
    nonzero."""
    x_lo, x_hi = spec.shell_window()
    y_lo, y_hi = spec.source_window()
    xs, ys = np.meshgrid(np.linspace(x_lo, x_hi, nx), np.linspace(y_lo, y_hi, ny),
                         indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    pre = _prefactor(spec, xs, ys)
    live = np.flatnonzero(pre != 0.0)
    if live.size == 0:
        return SupResult(sup=0.0, arg_x=float(xs[0]), arg_y=float(ys[0]), all_converged=True)
    inner = phase_integral(spec, xs[live], ys[live])
    mags = np.abs(pre[live] * inner.value)
    best = live[int(np.argmax(mags))]
    return SupResult(sup=float(np.max(mags)), arg_x=float(xs[best]), arg_y=float(ys[best]),
                     all_converged=inner.converged)


# ---------------------------------------------------------------------------
# sweeps and fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_decay(pairs: Sequence[tuple[float, float]]) -> FitResult:
    """Least squares of log2(sup) against the parameter (use log2 t for time
    sweeps).  Requires positive values at four or more distinct parameters."""
    params = np.array([p for p, _ in pairs], dtype=float)
    distinct = len(set(params.tolist()))
    if distinct < FIT_MIN_POINTS:
        raise DegenerateSeriesError(
            f"need points at {FIT_MIN_POINTS} or more distinct parameters, got {distinct}")
    values = np.array([v for _, v in pairs], dtype=float)
    if np.any(values <= 0.0):
        raise DegenerateSeriesError("all sup values must be positive for a log fit")
    logs = np.log2(values)
    slope, intercept = np.polyfit(params, logs, 1)
    pred = slope * params + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=r2, n_points=len(pairs))


def sweep(specs: Iterable[KernelSpec], nx: int, ny: int) -> list[dict]:
    """Kernel sup of each of ``specs`` in turn; one row each, for fitting."""
    return [_row(spec, kernel_sup(spec, nx=nx, ny=ny)) for spec in specs]


def _row(spec: KernelSpec, res: SupResult) -> dict:
    return {
        "variant": spec.variant,
        "j": spec.j,
        "k": spec.k if spec.k is not None else spec.k0,
        "a": spec.a,
        "ell": spec.ell if spec.ell is not None else "",
        "t": spec.t,
        "sup": res.sup,
        "quad_flag": 0 if res.all_converged else 1,
    }


def rows_to_csv(rows: list[dict], path: str) -> None:
    fields = ["variant", "j", "k", "a", "ell", "t", "sup", "quad_flag"]
    write_csv(path, ",".join(fields), ([row[f] for f in fields] for row in rows))
