"""Bilinear pseudoproducts on the frequency lattice, and the quadratic
normal-form correction B_k.

A bilinear pseudoproduct with symbol b acts through

    B(f,g)^(xi) = sum_eta b(xi, eta) fhat(xi - eta) ghat(eta) * dxi

with dxi = 2*pi/L the lattice measure (so b == 1 reproduces sqrt(2 pi) f g
exactly for band-limited inputs).  Frequencies outside the grid range are
treated as zero (no circular wrap).  ``bilinear_apply`` is the dense O(n^2)
lattice sum.  The cubic and quartic terms of the transformed equation are
pointwise products of B_k outputs and projections of u
(``normal_form.Bundle.terms``); their inputs are expected below 1/4 of
Nyquist, and ``check_dealias_margin`` warns otherwise.

The closed-form branch symbols of the quadratic cancellation live in
``bolab.testing`` (``nf_branch_symbol``): with ``bilinear_apply`` they are
the dense oracle of ``assemble_B``, which evaluates no symbol table.  The
input half-line projections keep eta = 0 off the lattice, the
ll * chi(xi) / (2 eta) pieces of the branch symbols cancel, and what is left
is the half kernel

    chi(xi) / (2 eta) - ll(eta) chi(xi - eta) / (2 eta)

(chi = chi_k^+, ll = chi_{<<k}).  With half(a, b) its lattice sum against
a(xi - eta) b(eta), the branches are "+++" = half(P+f, P+g) + half(P+g, P+f),
"++-" = half(P+f, P-g) and "+-+" = half(P+g, P-f).  half() is linear in b,
so their sum is half(P+f, Pg) + half(P+g, Pf) with P = P+ + P- (the identity
apart from xi = 0 and the Nyquist mode), and each half() separates into two
paraproducts

    half(a, b) = chi * conv(a, b / (2 xi)) - conv(chi * a, ll * b / (2 xi)).

The convolutions are linear ones, which reproduces the zero extension of
the lattice sum exactly, each zero-padded to the smaller of 2n and the next
power of two that holds the linear convolution of its inputs' supports.
The first convolves full-grid inputs at length 2n.  The second convolves
chi_k^+ a against ll b / (2 xi), supported on |xi| below 2^(k - factor N + 1),
and is empty, with no transform, when ll resolves only xi = 0, where
1 / (2 xi) is taken as 0.  The first does not depend on k (its masks are
grid-only), so the gauge bands of one snapshot share it
(``BandKernel.paraproduct``).  The assembled operator carries
the overall normalization -1/sqrt(2 pi) forced by the symmetric transform
convention (pointwise products carry 1/sqrt(2 pi) relative to pseudoproduct
symbols).

With these, the quadratic generator assembled in ``nf_generator_terms`` sums
to zero at roundoff level, which is the decisive acceptance oracle.  It works
on Fourier coefficients: its three B_k terms share one ``BandKernel``, which
returns coefficients, every projection and derivative is a multiplier, and
each term is inverted once.  The terms agree with the field-by-field formula
(the tests' reference) to 1e-13 times the largest term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cutoffs
from .errors import AliasingWarning, BolabError
from .grid import ComplexField, Field, Grid
from .spectral import (
    coeffs_of,
    derivative,
    derivative_values,
    lp_values,
    multiply,
    require_same_grid,
    samples_of,
    spectral_tail_mass,
    warn_band_edge,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Overall scale of the assembled normal-form bilinear operator.  Pointwise
#: products contribute symbols with a 1/sqrt(2 pi) factor under the symmetric
#: transform convention, and the solved symbol enters with a minus sign.
NF_NORMALIZATION = -1.0 / SQRT_2PI

#: default factor of the gauge low-pass threshold 2^(k - factor * order)
LL_FACTOR = 100.0

#: dealiasing margin of the quartic terms of the transformed equation, as a
#: fraction of the Nyquist frequency
QUARTIC_MARGIN = 0.25


# ---------------------------------------------------------------------------
# symbol containers
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


# ---------------------------------------------------------------------------
# lattice applications
# ---------------------------------------------------------------------------


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
# the normal-form correction B_k
# ---------------------------------------------------------------------------


def _support(values: np.ndarray) -> tuple[int, int]:
    """The smallest index range [lo, hi) outside of which ``values`` vanish;
    (0, 0) when they vanish everywhere."""
    nonzero = np.flatnonzero(values)
    return (int(nonzero[0]), int(nonzero[-1]) + 1) if len(nonzero) else (0, 0)


def _lattice_conv(a: np.ndarray, a_lo: int, b: np.ndarray, b_lo: int, grid: Grid,
                  rows: Callable[[int], np.ndarray]) -> np.ndarray:
    """sum_eta a(xi - eta) b(eta) * dxi on the grid frequencies, for pieces a
    and b whose first entries sit at the grid indices a_lo and b_lo and off
    which they vanish.

    The convolution of the two pieces is a linear one, zero-padded to the
    smaller of 2n and the next power of two at least la + lb - 1, so
    frequencies outside the grid range are zero (the lattice's zero
    extension, no circular wrap).  With whole-grid pieces that is one
    length-2n transform of each; an empty piece takes no transform.  The
    padded pieces and their transforms live in ``rows(size)``, two complex
    rows of the padded length (``BandKernel._rows``).
    """
    if not (len(a) and len(b)):
        return np.zeros(grid.n_points, dtype=complex)
    length = len(a) + len(b) - 1
    fa, fb = rows(min(2 * grid.n_points, 1 << (length - 1).bit_length()))
    fa[:len(a)] = a
    fa[len(a):] = 0.0
    fb[:len(b)] = b
    fb[len(b):] = 0.0
    return _padded_conv(fa, fb, a_lo + b_lo, length, grid)


def _padded_conv(fa: np.ndarray, fb: np.ndarray, offset: int, length: int,
                 grid: Grid) -> np.ndarray:
    """The lattice convolution from its zero-padded pieces fa and fb, which
    start at the grid indices summing to ``offset``: three transforms in place
    in fa and fb, whose first ``length`` entries of the inverse, times dxi,
    land at the grid indices from offset - n/2 on, clipped to the grid."""
    n = grid.n_points
    np.fft.fft(fa, out=fa)
    np.fft.fft(fb, out=fb)
    fa *= fb
    np.fft.ifft(fa, out=fa)
    out = np.zeros(n, dtype=complex)
    shift = offset - n // 2
    lo, hi = max(0, shift), min(n, shift + length)
    if lo < hi:
        np.multiply(fa[lo - shift:hi - shift], grid.dxi, out=out[lo:hi])
    return out


def _check_separation(order: int, ll_factor: float) -> None:
    if order < 1 or ll_factor * order < 2:
        raise BolabError(
            f"gauge low-pass threshold 2^(k - {ll_factor}*{order}) is not "
            "separated from the band; need order >= 1 and ll_factor * order >= 2"
        )


class BandKernel:
    """One band k of the normal form at truncation order N: the tables of B_k
    (chi = chi_k^+, ll = chi_{<<k}, 1/(2 xi), the half-line projectors as
    boolean masks, the output mask), applied to any number of inputs, which
    also serve v_k (``normal_form.Bundle``).  A gauge low-pass that is not
    separated from the band raises BolabError.

    ``chi`` vanishes for xi <= 0 and so equals ``lp_values(grid, k, "plus")``,
    the multiplier of u_k^+; ``low`` is the gauge low-pass of ``lp_values``
    (Nyquist zeroed), which ``half`` only multiplies into inputs that
    ``both`` has zeroed at the Nyquist mode, where it could differ from
    chi_{<<k}.  A boolean mask multiplies a complex array as 1+0j or 0j, as a
    0/1 float table does, so the products are the same bit for bit.

    ``chi_range`` and ``ll_range`` are the index ranges on which chi and
    ll / (2 xi) can be nonzero; the second paraproduct of ``half`` convolves
    only those, and is empty, with no transform, when ll resolves only
    xi = 0.  The first paraproduct uses no table of the band, so the bands of
    one grid can share it (``paraproduct``).

    The kernel holds the workspace of its paraproducts' transforms, two
    complex rows allocated on first use, as long as the longest convolution
    asked of it (2n once ``paraproduct`` runs), and kept while the kernel
    lives: every caller (``SnapshotTables``, ``transformed_residual``,
    ``nf_generator_terms``, ``assemble_B``) runs its length-2n transforms in
    it.  A kernel handed a shared paraproduct holds only what its second
    paraproduct needs, nothing when that one is empty."""

    def __init__(self, grid: Grid, k: float, order: int, ll_factor: float = LL_FACTOR):
        _check_separation(order, ll_factor)
        self.grid, self.k, self.order = grid, k, order
        self.chi = cutoffs.shell(k, grid.xi)
        self.low = lp_values(grid, k - ll_factor * order, "leq")
        self.inv2xi = np.divide(0.5, grid.xi, out=np.zeros(grid.n_points), where=grid.xi != 0)
        self.plus = grid.xi > 0
        self.both = grid.xi != 0
        self.both[0] = False  # the unpaired Nyquist mode
        self.minus = self.both & ~self.plus
        self.chi_range = _support(self.chi)
        self.ll_range = _support(self.low * self.inv2xi * self.both)
        # the 2^k band broadened by the width of the gauge low-pass
        pad = 2.0 ** (k - ll_factor * order + 1)
        lo, hi = 2.0 ** (k - 1) - pad, 2.0 ** (k + 1) + pad
        self.outside = (grid.xi <= 0) | (grid.xi < lo) | (grid.xi > hi)
        self._work = np.empty((2, 0), dtype=complex)

    def _rows(self, size: int) -> np.ndarray:
        """Two complex rows of length ``size`` for the paraproducts: views of a
        workspace allocated on first use, grown to the longest length asked
        and held as long as the kernel."""
        if self._work.shape[1] < size:
            self._work = np.empty((2, size), dtype=complex)
        return self._work[:, :size]

    def half(self, fc: np.ndarray, gc: np.ndarray, shared: np.ndarray | None = None) -> np.ndarray:
        """chi * conv(a, b / (2 xi)) - conv(chi * a, ll * b / (2 xi)) for a = P+f and
        b = Pg, from the coefficients fc and gc of f and g; ``shared`` may pass in
        ``paraproduct(fc, gc)``, the first convolution, which does not depend on the
        band.  The second convolves only its pieces on ``chi_range`` and
        ``ll_range``, and is skipped, with no transform, when one is empty."""
        if shared is None:
            shared = self.paraproduct(fc, gc)
        out = self.chi * shared
        (a_lo, a_hi), (b_lo, b_hi) = self.chi_range, self.ll_range
        if a_lo < a_hi and b_lo < b_hi:
            a = self.chi[a_lo:a_hi] * (self.plus[a_lo:a_hi] * fc[a_lo:a_hi])
            b = self.low[b_lo:b_hi] * (self.both[b_lo:b_hi] * gc[b_lo:b_hi]
                                       * self.inv2xi[b_lo:b_hi])
            out -= _lattice_conv(a, a_lo, b, b_lo, self.grid, self._rows)
        return out

    def paraproduct(self, fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
        """conv(P+f, Pg / (2 xi)) from the coefficients fc and gc of f and g: the
        first paraproduct of ``half``, built from grid-only masks, so for
        fc = gc = c one serves B_k(u, u) in every band of the grid (see
        ``apply``).  The masked inputs are formed in place in the kernel's
        workspace, so a steady call allocates no length-2n array."""
        n = self.grid.n_points
        fa, fb = self._rows(2 * n)
        np.multiply(self.plus, fc, out=fa[:n])
        fa[n:] = 0.0
        np.multiply(self.both, gc, out=fb[:n])
        fb[:n] *= self.inv2xi
        fb[n:] = 0.0
        return _padded_conv(fa, fb, 0, 2 * n - 1, self.grid)

    def apply(self, fc: np.ndarray, gc: np.ndarray, shared: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of B_k(f, g) from the coefficients of f and g: the sum
        of the branches, masked to the output band and normalized.  For
        ``gc is fc``, ``shared`` may pass in ``paraproduct(fc, fc)``, which the
        bands of one snapshot share; the result is the same bit for bit."""
        if shared is not None and gc is not fc:
            raise ValueError("a shared paraproduct serves only B_k(u, u)")
        first, second = _branches(self, fc, gc, shared)
        out = first + second
        out[self.outside] = 0.0
        out *= NF_NORMALIZATION
        return out


def _branches(kernel: BandKernel, fc: np.ndarray, gc: np.ndarray,
              shared: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of half(P+f, Pg) and half(P+g, Pf), whose sum is the sum
    of the three nonzero branches of B_k(f, g) before the output mask and the
    normalization.  For ``gc is fc`` the two halves are equal and the one is
    computed once, from ``shared`` when it is given."""
    first = kernel.half(fc, gc, shared)
    return first, first if gc is fc else kernel.half(gc, fc)


def assemble_B(
    k: float,
    order: int,
    f: Field | ComplexField,
    g: Field | ComplexField,
    ll_factor: float = LL_FACTOR,
) -> ComplexField:
    """The quadratic normal-form correction B_k(f, g), in O(n log n) time
    and O(n) memory.

    Sums the three nonzero branches, computed as two half kernels of
    separated paraproducts: Fourier multipliers around linear convolutions
    of the half-line projected inputs, each sized by its inputs' supports
    (see the module docstring).  B_k(f, f) takes one transform and one half
    kernel.  The output is kept on xi > 0 inside the 2^k band broadened by
    the width of the gauge low-pass, and scaled by ``NF_NORMALIZATION``.
    ``bilinear_apply`` of ``bolab.testing.nf_branch_symbol``'s branches is
    the dense oracle it matches to roundoff.
    """
    grid = require_same_grid(f, g)
    fc = coeffs_of(np.asarray(f.samples), grid)
    gc = fc if g is f else coeffs_of(np.asarray(g.samples), grid)
    return ComplexField(grid, samples_of(BandKernel(grid, k, order, ll_factor).apply(fc, gc), grid))


# ---------------------------------------------------------------------------
# the cancellation oracle
# ---------------------------------------------------------------------------


def check_dealias_margin(u: Field | ComplexField, c: np.ndarray) -> None:
    """Warn when the spectrum of u, whose coefficients are ``c``, carries mass
    beyond QUARTIC_MARGIN * Nyquist."""
    tail = spectral_tail_mass(u, QUARTIC_MARGIN, c)
    scale = max(np.max(np.abs(np.asarray(u.samples))), 1e-300)
    if tail > 1e-12 * scale:
        warnings.warn(
            f"spectral tail beyond {QUARTIC_MARGIN:.2f}*Nyquist has mass {tail:.2e}; "
            "multilinear lattice sums may alias",
            AliasingWarning,
            stacklevel=3,
        )


def nf_generator_terms(
    u: Field | ComplexField,
    k: float,
    order: int,
    ll_factor: float = LL_FACTOR,
) -> dict[str, ComplexField]:
    """The six terms of the quadratic generator whose sum must vanish.

    (H + i) is realized as 2i P^- (identical off the mean, which every term
    kills through an x-derivative).  u and u^2 are transformed once each;
    every projection and derivative is a multiplier on their coefficients,
    the three B_k terms share one ``BandKernel``, and each term is inverted
    once.  The terms agree with the field-by-field formula to 1e-13 times
    the largest term.
    """
    grid = u.grid
    c = coeffs_of(np.asarray(u.samples), grid)
    check_dealias_margin(u, c)
    kernel = BandKernel(grid, k, order, ll_factor)
    # chi = lp_values(grid, k, "plus") and low the "leq" low-pass (see BandKernel)
    chi, low, minus = kernel.chi, kernel.low, kernel.minus
    d1 = derivative_values(grid, 1)
    u_ll = samples_of(low * c, grid)
    warn_band_edge(grid, k)
    u_kp = samples_of(chi * c, grid)
    c_hpi = 2j * minus * derivative_values(grid, 2) * c
    c_du = d1 * c
    c_usq = coeffs_of(multiply(u, u).samples, grid)
    warn_band_edge(grid, k)  # the P_k^+ of the transport term
    terms = {
        "transport": -1j * samples_of(chi * d1 * c_usq, grid),
        "gauge_hilbert": 2j * samples_of(minus * d1 * low * c, grid) * u_kp,
        "gauge_derivative": 2j * u_ll * samples_of(d1 * chi * c, grid),
        # both orders, not twice one: B_k(f, g) = B_k(g, f) holds only while its
        # two half kernels are right, and the cancellation must see either one fail
        "b_left": 1j * samples_of(kernel.apply(c_hpi, c), grid),
        "b_right": 1j * samples_of(kernel.apply(c, c_hpi), grid),
        "b_derivative": -2.0 * samples_of(kernel.apply(c_du, c_du), grid),
    }
    return {name: ComplexField(grid, samples) for name, samples in terms.items()}


def verify_nf_cancellation(
    u: Field | ComplexField,
    k: float,
    order: int,
    ll_factor: float = LL_FACTOR,
) -> tuple[float, float]:
    """(residual, scale): the sup norm of the assembled quadratic generator,
    zero when the branch symbols solve the cancellation equation, and the
    largest sup norm of a single generator term, its reference scale."""
    terms = nf_generator_terms(u, k, order, ll_factor)
    total = sum(t.samples for t in terms.values())
    return float(np.max(np.abs(total))), max(t.sup_norm() for t in terms.values())
