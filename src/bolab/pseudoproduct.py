"""Bilinear pseudoproducts on the frequency lattice, and the quadratic
normal-form correction B_k.

A bilinear pseudoproduct with symbol b acts through

    B(f,g)^(xi) = sum_eta b(xi, eta) fhat(xi - eta) ghat(eta) * dxi

with dxi = 2*pi/L the lattice measure (so b == 1 reproduces sqrt(2 pi) f g
exactly for band-limited inputs).  Frequencies outside the grid range are
treated as zero (no circular wrap).  The package evaluates pseudoproducts
only as the paraproducts of B_k, each one linear convolution
(``_lattice_conv``); the dense O(n^2) lattice sum of a symbol,
``bilinear_apply``, is their oracle in ``tests/oracles.py``.  The cubic and
quartic terms of the transformed equation are pointwise products of B_k
outputs and projections of u (``normal_form.Bundle.terms``); their inputs
are expected below 1/4 of Nyquist, and ``check_dealias_margin`` warns
otherwise.

The closed-form branch symbols of the quadratic cancellation live with the
tests (``nf_branch_symbol`` in ``tests/oracles.py``): with the dense sum
they are the oracle of ``assemble_B``, which evaluates no symbol table.  The input half-line projections keep eta = 0 off the lattice, the
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

Both are one routine, ``_lattice_conv``: it forms the two masked inputs in
the kernel's workspace and convolves them linearly, zero-padded to length
2n, which reproduces the zero extension of the lattice sum exactly.  The
second convolves chi_k^+ a against ll b / (2 xi), and is not made, with no
transform, when ll resolves only xi = 0, as on every shipped grid; 1 / (2 xi)
is taken as 0 at xi = 0 and at the Nyquist mode.  The first does not depend
on k (its masks are grid-only), so the gauge bands of one snapshot share it
(``BandKernel.paraproduct``).  The assembled operator carries the overall
normalization -1/sqrt(2 pi) forced by the symmetric transform convention
(pointwise products carry 1/sqrt(2 pi) relative to pseudoproduct symbols).

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
from typing import Callable

import numpy as np

from . import cutoffs
from .errors import AliasingWarning, BolabError
from .grid import ComplexField, Field, Grid
from .spectral import (
    coeffs_of,
    derivative_values,
    lp_values,
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
# the normal-form correction B_k
# ---------------------------------------------------------------------------


def _lattice_conv(a_mask: np.ndarray, fc: np.ndarray, b_mask: np.ndarray, gc: np.ndarray,
                  grid: Grid, work: np.ndarray) -> np.ndarray:
    """sum_eta a(xi - eta) b(eta) * dxi on the grid frequencies, for the pieces
    a = a_mask * fc and b = b_mask * gc, along the last axis: of one field, or
    of each field of a stack.

    The pieces are formed in place in the first n entries of the two arrays
    of ``work`` (``BandKernel._rows``), each shaped like fc but with rows of
    length 2n, whose other n entries are zeroed, so the convolution is a
    linear one and frequencies outside the grid range are zero (the
    lattice's zero extension, no circular wrap): three transforms in place,
    of which the n entries of the inverse from n/2 on, times dxi, are the
    grid's.
    """
    n = grid.n_points
    fa, fb = work
    np.multiply(a_mask, fc, out=fa[..., :n])
    fa[..., n:] = 0.0
    np.multiply(b_mask, gc, out=fb[..., :n])
    fb[..., n:] = 0.0
    np.fft.fft(fa, out=fa)
    np.fft.fft(fb, out=fb)
    fa *= fb
    np.fft.ifft(fa, out=fa)
    return fa[..., n // 2:n // 2 + n] * grid.dxi


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
    the multiplier of u_k^+ and the mask of P+ f in the band.  ``inv2xi``,
    zero off ``both``, is the mask of P g / (2 xi).  ``low`` is the gauge
    low-pass of ``lp_values`` (Nyquist zeroed, where it could differ from
    chi_{<<k}), which ``half`` multiplies into ``inv2xi * g``, not into
    ``inv2xi``, which would round differently.  A boolean mask multiplies a
    complex array as 1+0j or 0j, as a 0/1 float table does, so the products
    are the same bit for bit.

    Both paraproducts are one ``_lattice_conv`` of masked inputs at length
    2n.  ``ll_resolved`` says whether ll / (2 xi) keeps a mode; when it does
    not, as on every shipped grid, ``half`` makes no second paraproduct and
    takes no transform.  The first paraproduct uses no table of the band, so
    the bands of one grid can share it (``paraproduct``).

    Every table acts on the last axis, so a kernel serves one field or a
    stack of fields (``nf_generator_terms``) alike.  The kernel holds the
    workspace of its paraproducts' transforms, two complex arrays shaped like
    its input but with rows of length 2n: allocated on first use, kept while
    the kernel lives and made anew only for an input of another shape.  Every
    caller (``SnapshotTables``, ``transformed_residual``,
    ``nf_generator_terms``, ``assemble_B``) runs its transforms in it.  A
    kernel handed a shared paraproduct holds none unless ``ll_resolved``."""

    def __init__(self, grid: Grid, k: float, order: int, ll_factor: float = LL_FACTOR):
        _check_separation(order, ll_factor)
        self.grid, self.k, self.order = grid, k, order
        self.chi = cutoffs.shell(k, grid.xi)
        self.low = lp_values(grid, k - ll_factor * order, "leq")
        self.plus = grid.xi > 0
        self.both = grid.xi != 0
        self.both[0] = False  # the unpaired Nyquist mode
        self.minus = self.both & ~self.plus
        # zero where ``both`` is, so that it is the mask of P g / (2 xi)
        self.inv2xi = np.divide(0.5, grid.xi, out=np.zeros(grid.n_points), where=self.both)
        # whether chi_{<<k} / (2 xi) keeps a mode, so that the second paraproduct runs
        self.ll_resolved = bool(np.any(self.low * self.inv2xi))
        # the 2^k band broadened by the width of the gauge low-pass; an exponent
        # is capped at 1023, above which the band keeps no grid mode and B_k is 0
        pad = 2.0 ** min(k - ll_factor * order + 1, 1023)
        lo, hi = 2.0 ** min(k - 1, 1023) - pad, 2.0 ** min(k + 1, 1023) + pad
        self.outside = (grid.xi <= 0) | (grid.xi < lo) | (grid.xi > hi)
        self._work = np.empty((2, 0), dtype=complex)

    def _rows(self, shape: tuple) -> np.ndarray:
        """The workspace of the paraproducts' transforms for inputs of ``shape``:
        two complex arrays of that shape with rows of length 2n, held as long as
        the kernel, or until an input of another shape replaces them."""
        work_shape = (2, *shape[:-1], 2 * self.grid.n_points)
        if self._work.shape != work_shape:
            self._work = np.empty(work_shape, dtype=complex)
        return self._work

    def half(self, fc: np.ndarray, gc: np.ndarray, shared: np.ndarray | None = None) -> np.ndarray:
        """chi * conv(a, b / (2 xi)) - conv(chi * a, ll * b / (2 xi)) for a = P+f and
        b = Pg, from the coefficients fc and gc of f and g; ``shared`` may pass in
        ``paraproduct(fc, gc)``, the first convolution, which does not depend on the
        band.  The second is skipped, with no transform, unless ``ll_resolved``."""
        if shared is None:
            shared = self.paraproduct(fc, gc)
        out = self.chi * shared
        if self.ll_resolved:
            out -= _lattice_conv(self.chi, fc, self.low, self.inv2xi * gc, self.grid,
                                 self._rows(fc.shape))
        return out

    def paraproduct(self, fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
        """conv(P+f, Pg / (2 xi)) from the coefficients fc and gc of f and g: the
        first paraproduct of ``half``, built from grid-only masks, so for
        fc = gc = c one serves B_k(u, u) in every band of the grid (see
        ``apply``).  Its masked inputs are formed in the kernel's workspace, so
        a steady call allocates no length-2n array."""
        return _lattice_conv(self.plus, fc, self.inv2xi, gc, self.grid, self._rows(fc.shape))

    def apply(self, fc: np.ndarray, gc: np.ndarray, shared: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of B_k(f, g) from the coefficients of f and g: the sum
        of its two halves, half(P+f, Pg) and half(P+g, Pf), masked to the
        output band and normalized (``combine``).  For ``gc is fc`` the two
        halves are equal and the one is computed once, and ``shared`` may pass
        in ``paraproduct(fc, fc)``, which the bands of one snapshot share; the
        result is the same bit for bit."""
        if shared is not None and gc is not fc:
            raise ValueError("a shared paraproduct serves only B_k(u, u)")
        first = self.half(fc, gc, shared)
        return self.combine(first, first if gc is fc else self.half(gc, fc))

    def combine(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Coefficients of B_k(f, g) from its halves half(P+f, Pg) and
        half(P+g, Pf), in that order: their sum, which is the sum of the three
        nonzero branches, masked to the output band and normalized.  A caller
        that forms both B_k(f, g) and B_k(g, f) forms the two halves once and
        passes them in both orders; verify-normal-form's
        ``--inject-symbol-bug`` perturbs the first half here, so that each
        order sees it."""
        out = first + second
        out[..., self.outside] = 0.0
        out *= NF_NORMALIZATION
        return out


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
    separated paraproducts: Fourier multipliers around length-2n linear
    convolutions of the half-line projected inputs, the second not made when
    the gauge low-pass resolves only xi = 0 (see the module docstring).
    B_k(f, f) takes one transform and one half kernel.  The output is kept
    on xi > 0 inside the 2^k band broadened by the width of the gauge
    low-pass, and scaled by ``NF_NORMALIZATION``.
    The tests' dense lattice sum (``oracles.bilinear_apply``) of their
    closed-form branch symbols (``oracles.nf_branch_symbol``) is the oracle
    it matches to roundoff.
    """
    grid = require_same_grid(f, g)
    fc = coeffs_of(np.asarray(f.samples), grid)
    gc = fc if g is f else coeffs_of(np.asarray(g.samples), grid)
    return ComplexField(grid, samples_of(BandKernel(grid, k, order, ll_factor).apply(fc, gc), grid))


# ---------------------------------------------------------------------------
# the cancellation oracle
# ---------------------------------------------------------------------------


def check_dealias_margin(grid: Grid, samples: np.ndarray, c: np.ndarray) -> None:
    """Warn, once for each field of ``samples`` (one field, or a stack) whose
    coefficients ``c`` carry mass beyond QUARTIC_MARGIN * Nyquist."""
    tails = spectral_tail_mass(grid, QUARTIC_MARGIN, c)
    scales = np.maximum(np.max(np.abs(samples), axis=-1), 1e-300)
    for tail, scale in zip(np.ravel(tails), np.ravel(scales)):
        if tail > 1e-12 * scale:
            warnings.warn(
                f"spectral tail beyond {QUARTIC_MARGIN:.2f}*Nyquist has mass {tail:.2e}; "
                "multilinear lattice sums may alias",
                AliasingWarning,
                stacklevel=3,
            )


def _gauge_projections(kernel: BandKernel, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Samples of u_k^+, u_ll, 2i P^- d/dx u_ll and d/dx u_k^+ in the band of ``kernel``,
    u having the coefficients c: the projections that the gauge terms of
    ``nf_generator_terms`` and ``normal_form.Bundle.terms`` multiply, each one inverse
    transform of a multiplier on c (chi and the gauge low-pass; see ``BandKernel``)."""
    grid = kernel.grid
    d1 = derivative_values(grid, 1)
    hpi_du_ll = 2j * samples_of(kernel.minus * d1 * kernel.low * c, grid)
    d_u_kp = samples_of(d1 * kernel.chi * c, grid)
    return samples_of(kernel.chi * c, grid), samples_of(kernel.low * c, grid), hpi_du_ll, d_u_kp


def nf_generator_terms(
    u: Field | ComplexField | list,
    k: float,
    order: int,
    ll_factor: float = LL_FACTOR,
) -> dict[str, np.ndarray]:
    """The samples of the six terms of the quadratic generator whose sum must
    vanish, for the field u, or one row per field for a list u of fields on
    one grid, which go through as one stack in one ``BandKernel``.

    (H + i) is realized as 2i P^- (identical off the mean, which every term
    kills through an x-derivative).  u and u^2 are transformed once each;
    every projection and derivative is a multiplier on their coefficients,
    the three B_k terms share the kernel, the two half kernels of b_left
    serve b_right too, and each term is inverted once.  Each field is checked
    for aliasing once and warned of the band edge once at each of its two
    P_k^+, as when it goes alone.  The terms agree with the field-by-field
    formula to 1e-13 times the largest term.
    """
    if isinstance(u, (Field, ComplexField)):
        grid, samples = u.grid, np.asarray(u.samples)
    else:
        grid, samples = require_same_grid(*u), np.array([field.samples for field in u])
    kernel = BandKernel(grid, k, order, ll_factor)
    c = coeffs_of(samples, grid)
    check_dealias_margin(grid, samples, c)
    # per field, the P_k^+ of u_k^+ and the P_k^+ of the transport term
    for _ in range(2 * (samples.size // grid.n_points)):
        warn_band_edge(grid, k)
    d1 = derivative_values(grid, 1)
    u_kp, u_ll, hpi_du_ll, d_u_kp = _gauge_projections(kernel, c)
    c_hpi = 2j * kernel.minus * derivative_values(grid, 2) * c
    c_du = d1 * c
    c_usq = coeffs_of(samples * samples, grid)
    # both orders, each from the two halves formed once: B_k(f, g) = B_k(g, f)
    # holds only while both halves are right, and the cancellation must see
    # either one fail, in either order
    left, right = kernel.half(c_hpi, c), kernel.half(c, c_hpi)
    return {
        "transport": -1j * samples_of(kernel.chi * d1 * c_usq, grid),
        "gauge_hilbert": hpi_du_ll * u_kp,
        "gauge_derivative": 2j * u_ll * d_u_kp,
        "b_left": 1j * samples_of(kernel.combine(left, right), grid),
        "b_right": 1j * samples_of(kernel.combine(right, left), grid),
        "b_derivative": -2.0 * samples_of(kernel.apply(c_du, c_du), grid),
    }


def verify_nf_cancellation(
    u: Field | ComplexField | list,
    k: float,
    order: int,
    ll_factor: float = LL_FACTOR,
) -> tuple[np.ndarray, np.ndarray]:
    """(residual, scale) of the field u, or of each field of a list u, as
    ``nf_generator_terms`` takes them: the sup norm of the assembled quadratic
    generator, zero when the branch symbols solve the cancellation equation,
    and the largest sup norm of a single generator term, its reference
    scale."""
    terms = nf_generator_terms(u, k, order, ll_factor)
    total = sum(terms.values())
    sups = [np.max(np.abs(term), axis=-1) for term in terms.values()]
    return np.max(np.abs(total), axis=-1), np.max(sups, axis=0)
