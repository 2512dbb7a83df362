"""The Nth-order normal-form / approximate-gauge transformation and the
residual verifier for the transformed evolution equation.

The transformed variable of band k at truncation order N is

    v_k = (u_k^+ + B_k(u, u)) * E_N(phi_ll)

where phi is the mean-removed antiderivative of u, phi_ll its very-low-pass
part, E_N the degree-N Taylor polynomial of exp(-i z), and B_k the quadratic
correction (``pseudoproduct.BandKernel``).

With the correction in place the transformed equation reads

    (i d/dt - d^2/dx^2) v_k = -B_rem * (-i phi_ll)^N / N!
                              + C_tilde * (-i phi_ll)^N / N!
                              + (C + Q) * E_{N-1}(phi_ll)
                              + Delta_box

where B_rem, C_tilde, C, Q are the quadratic remainder, cubic and quartic
terms assembled exactly as written by ``Bundle.terms`` (pointwise products
of B_k outputs and projections of u), and Delta_box collects the corrections
that are exactly zero on the infinite line but not on the periodic box
(mean-value terms of size O(mass / L)) together with the second-order
gauge-polynomial term

    (u_k^+ + B) * (d/dx phi_ll)^2 * E_{N-2}(phi_ll),

which belongs to the exact product-rule expansion.  ``transformed_residual``
reports the residual both against the four literal terms (with the norm of
Delta_box as an explicit additive budget) and against the box-exact right
side, whose residual converges at O(dt^2); both behaviours were verified by
step-halving studies.

One band is one ``pseudoproduct.BandKernel``: its tables of B_k, chi_k^+
(the multiplier of u_k^+) and the gauge low-pass serve every snapshot, so
``transformed_residual`` builds one per call and a decay run one per gauge
band.  Each snapshot is transformed once: ``transform`` returns its
``Bundle`` (see there).  B_k(u, u) is ``BandKernel.apply`` given the first
paraproduct ``BandKernel.paraproduct``, which a decay run computes once per
snapshot for all of its bands.  A = u_k^+ + B_k(u, u) is inverted once; phi
is formed, on coefficients, only when the band's gauge low-pass resolves a
mode (``BandKernel.ll_resolved``), and otherwise (the default factor on a
desk-scale grid) v_k is A.  The residual forms the four terms and Delta_box
from the bundle, each projection and derivative a multiplier on coefficients
in hand, inverted once; they agree with the field-by-field formula to 1e-13
times the largest term.

The gauge low-pass threshold is 2^(k - factor*N) with factor configurable
(default ``pseudoproduct.LL_FACTOR``, 100); desk-scale grids often resolve
no modes below it, in which case phi_ll vanishes (mean-removed) and the
gauge degenerates to 1.  What the decay arguments actually need is support
separation from the 2^k band, which ``BandKernel`` asserts directly.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .files import write_csv
from .grid import ComplexField, Field, Grid
from .pseudoproduct import (LL_FACTOR, QUARTIC_MARGIN, BandKernel, _gauge_projections,
                            check_dealias_margin)
from .spectral import (
    coeffs_of,
    derivative,
    derivative_values,
    multiply,
    samples_of,
    spectral_tail_mass,
    warn_band_edge,
)


def gauge_polynomial(order: int, z: np.ndarray) -> np.ndarray:
    """E_n(z) = sum_{m<=n} (-iz)^m / m!, the Taylor polynomial of exp(-iz).

    E_{-1} is the empty sum (zero); evaluation is by Horner recurrence.
    """
    z = np.asarray(z, dtype=complex)
    if order < 0:
        return np.zeros_like(z)
    out = np.ones_like(z)
    for m in range(order, 0, -1):
        out = 1.0 + (-1j * z) * out / m
    return out


class Bundle:
    """One snapshot's pieces of v_k in the band of ``kernel``, each computed
    once from the coefficients c of u and ``shared`` = ``kernel.paraproduct(c, c)``,
    which every band of the grid shares: the coefficients b_c of B_k(u, u), and
    the samples of A = u_k^+ + B_k(u, u) (one inverse transform, of
    chi_k^+ c + b_c), phi_ll and v_k = A E_N(phi_ll).  phi (``phi_coeffs``) is
    formed only when the gauge low-pass keeps a paired mode (``kernel.ll_resolved``);
    otherwise the low-pass keeps no coefficient of phi, phi_ll = 0 and E_N(0) = 1
    exactly, so v is A itself: phi_ll is not inverted and E_N not evaluated.  The
    four literal terms and Delta_box are formed from them and ``_gauge_projections``."""

    def __init__(self, kernel: BandKernel, c: np.ndarray, shared: np.ndarray):
        grid = kernel.grid
        warn_band_edge(grid, kernel.k)
        self.kernel, self.c = kernel, c
        self.b_c = kernel.apply(c, c, shared)
        a_c = kernel.chi * c
        a_c += self.b_c
        self.a = samples_of(a_c, grid)
        if kernel.ll_resolved:
            self.phi_ll = samples_of(kernel.low * phi_coeffs(grid, c), grid)
            self.v = self.a * gauge_polynomial(kernel.order, self.phi_ll)
        else:
            self.phi_ll, self.v = np.zeros_like(self.a), self.a

    def terms(self, u: Field | ComplexField) -> tuple[dict[str, ComplexField], np.ndarray]:
        """The four nonlinear terms of the transformed equation, assembled
        exactly as written, for the u whose coefficients are c, and the samples
        of u_ll, which Delta_box also takes; (H + i) is realized as 2i P^-.
        Keys: B_rem (quadratic remainder), C_tilde, C (cubic), Q (quartic)."""
        check_dealias_margin(u, self.c)
        grid, kernel = u.grid, self.kernel
        c_usq = coeffs_of(multiply(u, u).samples, grid)
        d1 = derivative_values(grid, 1)
        # B_k is symmetric bit for bit: B(d_usq, u) + B(u, d_usq) = 2 B(d_usq, u);
        # its length-2n transforms set the peak memory, so it comes first
        c_tilde = -2j * samples_of(kernel.apply(d1 * c_usq, self.c), grid)
        usq_ll = samples_of(kernel.low * c_usq, grid)
        u_kp, u_ll, hpi_du_ll, d_u_kp = _gauge_projections(kernel, self.c)
        b_rem = hpi_du_ll * u_kp + 2j * u_ll * d_u_kp
        d_bu = samples_of(d1 * self.b_c, grid)
        bu = self.a - u_kp
        c_full = c_tilde - usq_ll * u_kp + 2j * u_ll * d_bu + hpi_du_ll * bu
        q = -usq_ll * bu
        return {"B_rem": ComplexField(grid, b_rem), "C_tilde": ComplexField(grid, c_tilde),
                "C": ComplexField(grid, c_full), "Q": ComplexField(grid, q)}, u_ll

    def right_side(self, u: Field) -> tuple[np.ndarray, np.ndarray, float]:
        """(rhs, Delta_box, scale) at the snapshot u whose coefficients are c:
        the four literal terms times their gauge factors, the exact
        periodic-box correction, and the largest sup norm of a single term.

        Delta_box = mean(u^2) A E_{N-1} - 2i mean(u) A' E_{N-1}
                    + A (u_ll - mean(u))^2 E_{N-2}

        with A = u_k^+ + B(u,u).  The first two pieces vanish as mass/L -> 0; the
        third is the second-order gauge-polynomial term beyond the first-order
        expansion (identically zero whenever the low-pass resolves only the mean).
        """
        terms, u_ll = self.terms(u)
        order = self.kernel.order
        e_nm1 = gauge_polynomial(order - 1, self.phi_ll)
        g_top = (-1j * self.phi_ll) ** order / math.factorial(order)
        rhs = (
            -terms["B_rem"].samples * g_top
            + terms["C_tilde"].samples * g_top
            + terms["C"].samples * e_nm1
            + terms["Q"].samples * e_nm1
        )
        a = self.a
        ubar = float(np.mean(u.samples))
        mean_sq = float(np.mean(u.samples**2))
        e_nm2 = gauge_polynomial(order - 2, self.phi_ll)
        da = samples_of(derivative_values(u.grid, 1) * (self.kernel.chi * self.c + self.b_c),
                        u.grid)
        delta = mean_sq * a * e_nm1 - 2j * ubar * da * e_nm1 + a * (u_ll - ubar) ** 2 * e_nm2
        return rhs, delta, max(term.sup_norm() for term in terms.values())


def phi_coeffs(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Coefficients c / (i xi) of the mean-removed antiderivative phi of the u on
    ``grid`` whose coefficients are c, with no transform: zero at xi = 0, which
    removes the mean, and at the unpaired Nyquist mode.
    The tests' ``oracles.antiderivative_mean_removed``, a round trip through
    samples, is its oracle."""
    xi = grid.xi
    out = np.divide(c, 1j * xi, out=np.zeros_like(c), where=xi != 0)
    out[0] = 0.0  # Nyquist
    return out


def transform(u: Field, kernel: BandKernel) -> Bundle:
    """The bundle of v_k = (u_k^+ + B_k(u,u)) E_N(phi_ll) in the band of
    ``kernel``, whose ``v`` holds its samples."""
    c = coeffs_of(u.samples, u.grid)
    return Bundle(kernel, c, kernel.paraproduct(c, c))


@dataclass
class ResidualReport:
    """Residual of the transformed equation over a snapshot window; the
    fields are in the column order of ``residual_reports_to_csv``."""

    k: float
    order: int
    dt: float
    box_length: float
    residual_inf: float          # against the four literal terms
    budget_dt2: float            # |d^3 v / dt^3| dt^2 / 6 estimate (0 if unavailable)
    budget_massL: float          # sup norm of the box correction
    budget_alias: float          # spectral-tail proxy beyond the quartic margin
    residual_box_exact: float    # literal terms + exact box correction
    term_scale: float            # largest single right-side term


def transformed_residual(
    snapshots: list[tuple[float, Field]],
    k: float,
    order: int,
    ll_factor: float = LL_FACTOR,
) -> ResidualReport:
    """Centered-difference residual of the transformed equation.

    ``snapshots`` are (t, u) pairs from the lab-frame solver at uniform
    spacing, at least three of them.  The time derivative of v comes from
    centered differences, so the box-exact residual converges at O(dt^2);
    the residual against the literal terms additionally carries the
    mass/L budget reported alongside.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least three snapshots")
    times = np.array([t for t, _ in snapshots], dtype=float)
    dts = np.diff(times)
    dt = float(dts[0])
    if not np.allclose(dts, dt, rtol=1e-8, atol=1e-12):
        raise ValueError("snapshots must be uniformly spaced in time")
    grid = snapshots[0][1].grid
    kernel = BandKernel(grid, k, order, ll_factor)

    vs, sides = [], []
    scale = budget_alias = 0.0
    for i, (_, u) in enumerate(snapshots):
        bundle = transform(u, kernel)
        vs.append(bundle.v)
        if 0 < i < len(snapshots) - 1:
            rhs, delta, term_scale = bundle.right_side(u)
            sides.append((rhs, delta))
            scale = max(scale, term_scale)
            budget_alias = max(
                budget_alias,
                spectral_tail_mass(u, QUARTIC_MARGIN, bundle.c) * (1.0 + u.sup_norm()),
            )
        del bundle  # one snapshot's bundle at a time
    worst_literal = worst_exact = budget_mass = 0.0
    for i, (rhs, delta) in enumerate(sides, start=1):
        lhs = 1j * (vs[i + 1] - vs[i - 1]) / (2.0 * dt) - derivative(
            ComplexField(grid, vs[i]), 2
        ).samples
        worst_literal = max(worst_literal, float(np.max(np.abs(lhs - rhs))))
        worst_exact = max(worst_exact, float(np.max(np.abs(lhs - rhs - delta))))
        budget_mass = max(budget_mass, float(np.max(np.abs(delta))))

    budget_dt2 = 0.0
    if len(snapshots) >= 5:
        # third time derivative from the centered 5-point stencil at the middle
        mid = len(snapshots) // 2
        d3 = (vs[mid + 2] - 2.0 * vs[mid + 1] + 2.0 * vs[mid - 1] - vs[mid - 2]) / (2.0 * dt**3)
        budget_dt2 = float(np.max(np.abs(d3)) * dt**2 / 6.0)

    return ResidualReport(
        k=k,
        order=order,
        dt=dt,
        box_length=grid.box_length,
        residual_inf=worst_literal,
        residual_box_exact=worst_exact,
        term_scale=scale,
        budget_dt2=budget_dt2,
        budget_massL=budget_mass,
        budget_alias=budget_alias,
    )


def residual_reports_to_csv(reports: list[ResidualReport], path: str) -> None:
    """One row per report, its fields in order; ``order`` is column N and
    ``box_length`` column L."""
    write_csv(path, "k,N,dt,L,residual_inf,budget_dt2,budget_massL,budget_alias,"
                    "residual_box_exact,term_scale", map(astuple, reports))
