"""The test oracles of the package's fast paths: formulas that only the tests
evaluate, each written apart from the code it checks.

* the dense O(n^2) frequency-lattice sum of a bilinear symbol
  (``bilinear_apply``) and its Leibniz rule, the reference of the
  pseudoproduct identities that the package's one lattice convolution
  (``pseudoproduct._lattice_conv``) meets;
* the derivatives of the cutoff family (``le_deriv``, ``shell_deriv``), which
  only the removable singularity of the branch symbols needs;
* the mean-removed antiderivative and the half-line projections of a field,
  by round trips through samples: the oracles of ``normal_form.phi_coeffs``
  and of the masks ``BandKernel.plus`` and ``minus``;
* the closed-form branch symbols of the quadratic normal form, which with
  ``bilinear_apply`` are the dense oracle of ``pseudoproduct.assemble_B``;
* the right-hand side of the evolution equation from spectral's public
  operators, the oracle of ``solver.step``;
* the weighted shell sups of a field, one shell and sign at a time, the
  reference that ``decay.SnapshotTables`` matches bit for bit.

``tests/`` is no package, so the test modules import this one as ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from bolab import cutoffs
from bolab.grid import ComplexField, Field, Grid
from bolab.pseudoproduct import LL_FACTOR
from bolab.solver import SolverState
from bolab.spectral import (apply_multiplier, coeffs_of, derivative, hilbert,
                            require_same_grid, samples_of, shell_weight)

# ---------------------------------------------------------------------------
# the dense lattice sum of a bilinear symbol
# ---------------------------------------------------------------------------


@dataclass
class BilinearSymbol:
    """Symbol b(xi, eta), with ``xi_support`` a closed interval (lo, hi)
    outside of which it vanishes, or None for no restriction."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    xi_support: tuple[float, float] | None = None

    def __call__(self, xi, eta) -> np.ndarray:
        return np.asarray(self.fn(xi, eta), dtype=complex)


def _indices_in(grid: Grid, support: tuple[float, float] | None) -> np.ndarray:
    if support is None:
        return np.arange(grid.n_points)
    lo, hi = support
    return np.nonzero((grid.xi >= lo) & (grid.xi <= hi))[0]


def bilinear_apply(sym: BilinearSymbol, f: Field | ComplexField,
                   g: Field | ComplexField) -> ComplexField:
    """Apply a bilinear pseudoproduct by the direct O(n^2) lattice sum, over
    the output frequencies in the symbol's ``xi_support``.  Frequencies
    falling outside the grid contribute zero (zero-extension, not wrap-around).
    """
    grid = require_same_grid(f, g)
    fc = coeffs_of(np.asarray(f.samples), grid)
    gc = coeffs_of(np.asarray(g.samples), grid)
    rows = _indices_in(grid, sym.xi_support)
    # drop eta columns with no spectral content; keeps the sum deterministic
    cols = np.flatnonzero(np.abs(gc) > 0.0)
    out = np.zeros(grid.n_points, dtype=complex)
    if len(rows) and len(cols):
        values = sym(grid.xi[rows][:, None], grid.xi[cols][None, :])
        shift = rows[:, None] - cols[None, :] + grid.n_points // 2
        valid = (shift >= 0) & (shift < grid.n_points)
        fv = np.where(valid, fc[np.clip(shift, 0, grid.n_points - 1)], 0.0)
        out[rows] = (values * fv) @ gc[cols] * grid.dxi
    return ComplexField(grid, samples_of(out, grid))


def leibnitz_check(
    sym: BilinearSymbol, f: Field | ComplexField, g: Field | ComplexField
) -> float:
    """Sup norm of d/dx B(f,g) - B(f',g) - B(f,g'); an exact lattice identity."""
    lhs = derivative(bilinear_apply(sym, f, g))
    rhs = bilinear_apply(sym, derivative(f), g).samples + bilinear_apply(
        sym, f, derivative(g)
    ).samples
    return float(np.max(np.abs(lhs.samples - rhs)))


# ---------------------------------------------------------------------------
# derivatives of the cutoff family
# ---------------------------------------------------------------------------


def _bump_deriv(t: np.ndarray) -> np.ndarray:
    """d/dt exp(-1/t) = exp(-1/t)/t^2 on t > 0."""
    t = np.asarray(t, dtype=float)
    return np.divide(cutoffs._bump(t), t**2, out=np.zeros_like(t), where=t > 0)


def smoothstep_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    a = cutoffs._bump(t)
    b = cutoffs._bump(1.0 - t)
    ap = _bump_deriv(t)
    bp = _bump_deriv(1.0 - t)
    s = np.maximum(a + b, cutoffs._TINY)
    return (ap * b + a * bp) / s**2


def le_deriv(j: float, y) -> np.ndarray:
    """d/dy chi^+_{<=j}(y); zero where 2^j is not a normal double."""
    y = np.asarray(y, dtype=float)
    if not -1022 <= j < 1024:
        return np.zeros_like(y)
    return -smoothstep_deriv(2.0 - cutoffs._scaled(j, y)) / 2.0**j


def shell_deriv(j: float, y) -> np.ndarray:
    return le_deriv(j, y) - le_deriv(j - 1, y)


# ---------------------------------------------------------------------------
# the field-by-field oracles of the normal form
# ---------------------------------------------------------------------------


def antiderivative_mean_removed(u: Field) -> tuple[Field, float]:
    """Mean-removed spectral antiderivative, by a round trip through samples.

    Returns (phi, mass) with d/dx phi = u - mean(u), mean(phi) = 0 and
    mass = integral of u over the box.  The sign matches the convention that
    phi increases where u > mean(u).  ``normal_form.phi_coeffs`` forms the
    coefficients of phi directly from those of u.
    """
    grid = u.grid
    c = coeffs_of(u.samples, grid)
    out = np.zeros_like(c)
    nz = np.abs(grid.xi) > 0
    out[nz] = c[nz] / (1j * grid.xi[nz])
    out[0] = 0.0  # Nyquist
    phi = samples_of(out, grid)
    mass = float(grid.dx * np.sum(u.samples))
    return Field(grid, phi.real), mass


def half_project(f: Field | ComplexField, sign: str) -> ComplexField:
    """P^+ / P^- of a field, Nyquist zeroed; the normal form applies them to
    coefficients as the masks ``BandKernel.plus`` and ``minus``."""
    mask = np.sign(f.grid.xi) == (1 if sign == "+" else -1)
    mask[0] = False  # the unpaired Nyquist mode
    return apply_multiplier(lambda xi: mask, f)


#: sign patterns (xi, xi - eta, eta) of the nonzero branches; the other five
#: (two negative input frequencies, or a negative output) vanish
BRANCHES = ("+++", "++-", "+-+")

_MVT_SWITCH = 1e-8  # relative to the band scale 2^k


def _diff_quotient(k: float, a, b, den) -> np.ndarray:
    """(chi_k^+(a) - chi_k^+(b)) / (2 den), removable singularity at den = 0
    evaluated as the derivative value chi_k^+'(a) / 2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    den = np.asarray(den, dtype=float)
    small = np.abs(den) < _MVT_SWITCH * 2.0**k
    safe = np.where(small, 1.0, den)
    value = (cutoffs.shell(k, a) - cutoffs.shell(k, b)) / (2.0 * safe)
    return np.where(small, 0.5 * shell_deriv(k, a), value)


def _complement_ratio(low: float, den) -> np.ndarray:
    """(1 - chi_{<= low}(den)) / (2 den); the numerator vanishes identically near 0."""
    den = np.asarray(den, dtype=float)
    numer = 1.0 - cutoffs.le_abs(low, den)
    small = np.abs(den) < 1e-300
    return np.where(small, 0.0, numer / (2.0 * np.where(small, 1.0, den)))


def nf_branch_symbol(k: float, order: int, branch: str,
                     ll_factor: float = LL_FACTOR) -> BilinearSymbol:
    """Closed-form symbol of one nonzero branch of the quadratic normal-form
    correction; with ``bilinear_apply`` the dense O(n^2) oracle of
    ``assemble_B``.

    ``branch`` is the sign pattern (e1 e2 e3) of (xi, xi-eta, eta), one of
    ``BRANCHES``.  The gauge's very-low pass chi_{<<k} is chi_{<= k - ll_factor
    * order}.  The xi-support is the 2^k band broadened by its width.
    """
    if branch not in BRANCHES:
        raise ValueError(f"invalid branch tag {branch!r}")
    low = k - ll_factor * order
    pad = 2.0 ** (low + 1)
    xi_support = (2.0 ** (k - 1) - pad, 2.0 ** (k + 1) + pad)

    if branch == "+++":

        def fn(xi, eta):
            xi = np.asarray(xi, dtype=float)
            eta = np.asarray(eta, dtype=float)
            shell = cutoffs.shell(k, xi)
            return (
                cutoffs.le_abs(low, eta) * _diff_quotient(k, xi, xi - eta, eta)
                + shell * _complement_ratio(low, eta)
                + cutoffs.le_abs(low, xi - eta) * _diff_quotient(k, xi, eta, xi - eta)
                + shell * _complement_ratio(low, xi - eta)
            )

    elif branch == "++-":

        def fn(xi, eta):
            xi = np.asarray(xi, dtype=float)
            eta = np.asarray(eta, dtype=float)
            return (cutoffs.shell(k, xi) * _complement_ratio(low, eta)
                    + cutoffs.le_abs(low, eta) * _diff_quotient(k, xi, xi - eta, eta))

    else:  # "+-+" by the reflection eta -> xi - eta of "++-"

        ppm = nf_branch_symbol(k, order, "++-", ll_factor)

        def fn(xi, eta):
            xi = np.asarray(xi, dtype=float)
            eta = np.asarray(eta, dtype=float)
            return ppm.fn(xi, xi - eta)

    return BilinearSymbol(fn=fn, xi_support=xi_support)


# ---------------------------------------------------------------------------
# the evolution equation
# ---------------------------------------------------------------------------


def rhs(state: SolverState) -> Field:
    """w_t = c w_x + H w_xx - (P w^2)_x - sigma w in the state's frame (c = 0 in
    the lab frame), from spectral's operators: P keeps |xi| <= 2/3 Nyquist (the
    2/3 rule), the quadratic term is present when ``state.nonlinear`` and the
    sponge's sigma is zero when it is off."""
    w = state.w
    grid = w.grid
    out = state.drift() * derivative(w).samples + derivative(hilbert(w), 2).samples
    if state.nonlinear:
        kept = np.abs(grid.xi) <= (2.0 / 3.0) * grid.nyquist
        out -= derivative(apply_multiplier(lambda xi: kept, Field(grid, w.samples**2))).samples
    return Field(grid, out.real - state.sponge.profile(grid) * w.samples)


# ---------------------------------------------------------------------------
# weighted shell sups
# ---------------------------------------------------------------------------


def weighted_shell_sup(f: Field | ComplexField,
                       shells: Iterable[float]) -> dict[float, dict[str, float]]:
    """Per-shell, per-sign weighted sup norms sup_x |chi_j^{+-}(x) f(x)|.

    A shell that ``spectral.spatial_cutoff_values`` refuses, one whose support
    [2^{j-1}, 2^{j+1}] does not fit in the half-box or that weighs no grid
    point, raises DegenerateShellError.
    """
    a = np.abs(np.asarray(f.samples))
    return {
        float(j): {sign: weighted_sup(shell_weight(f.grid, j, sign), a) for sign in "+-"}
        for j in shells
    }


def weighted_sup(weight: tuple[slice, np.ndarray], a: np.ndarray) -> float:
    """sup_x weight(x) a(x) for a >= 0 and a ``spectral.shell_weight`` (s, values)."""
    s, values = weight
    return float(np.max(values * a[s]))
