"""The Nth-order normal-form / approximate-gauge transformation and the
residual verifier for the transformed evolution equation.

The transformed variable of band k at truncation order N is

    v_k = (u_k^+ + B_k(u, u)) * E_N(phi_ll)

where phi is the mean-removed antiderivative of u, phi_ll its very-low-pass
part, E_N the degree-N Taylor polynomial of exp(-i z), and B_k the quadratic
correction assembled from the branch symbols (``pseudoproduct.assemble_B``).

With the correction in place the transformed equation reads

    (i d/dt - d^2/dx^2) v_k = -B_rem * (-i phi_ll)^N / N!
                              + C_tilde * (-i phi_ll)^N / N!
                              + (C + Q) * E_{N-1}(phi_ll)
                              + Delta_box

where B_rem, C_tilde, C, Q are the quadratic remainder, cubic and quartic
terms assembled exactly as written by ``rhs_terms``, and Delta_box collects
the corrections that are exactly zero on the infinite line but not on the
periodic box (mean-value terms of size O(mass / L)) together with the
second-order gauge-polynomial term

    (u_k^+ + B) * (d/dx phi_ll)^2 * E_{N-2}(phi_ll),

which belongs to the exact product-rule expansion.  ``transformed_residual``
reports the residual both against the four literal terms (with the norm of
Delta_box as an explicit additive budget) and against the box-exact right
side, whose residual converges at O(dt^2); both behaviours were verified by
step-halving studies.

The gauge low-pass threshold is 2^(k - factor*N) with factor configurable
(default 100); desk-scale grids often resolve no modes below it, in which
case phi_ll vanishes (mean-removed) and the gauge degenerates to 1.  What the
decay arguments actually need is support separation from the 2^k band, which
``make_gauge_context`` asserts directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cli import atomic_write_text
from .cutoffs import DEFAULT as DEFAULT_CUTOFFS
from .cutoffs import CutoffFamily
from .errors import BolabError
from .grid import ComplexField, Field, Grid
from .pseudoproduct import QUARTIC_MARGIN, BandKernel, assemble_B, check_dealias_margin
from .spectral import (
    antiderivative_mean_removed,
    coeffs_of,
    derivative,
    half_project,
    hilbert,
    low_pass,
    lp_project,
    lp_values,
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


@dataclass
class GaugeContext:
    """Everything the gauge multiplication needs for one (k, N) pair."""

    k: float
    order: int
    ll_factor: float
    phi: Field
    phi_ll: ComplexField
    mass: float
    gauge: ComplexField  # E_N(phi_ll)
    gauge_abs_min: float
    gauge_abs_max: float


def _check_separation(order: int, ll_factor: float) -> None:
    if ll_factor * order < 2:
        raise BolabError(
            f"gauge low-pass threshold 2^(k - {ll_factor}*{order}) is not "
            "separated from the band; need ll_factor * order >= 2"
        )


def make_gauge_context(
    u: Field,
    k: float,
    order: int,
    ll_factor: float = 100.0,
    cutoffs: CutoffFamily = DEFAULT_CUTOFFS,
) -> GaugeContext:
    """Build the antiderivative, its low-pass and the gauge polynomial.

    Requires the support-separation property 2^(k - ll_factor*order + 1)
    <= 2^(k-1): the gauge spectrum must sit well below the band.
    """
    _check_separation(order, ll_factor)
    phi, mass = antiderivative_mean_removed(u)
    phi_ll = low_pass(phi, k - ll_factor * order, cutoffs)
    gauge = ComplexField(u.grid, gauge_polynomial(order, phi_ll.samples))
    mags = np.abs(gauge.samples)
    return GaugeContext(
        k=k,
        order=order,
        ll_factor=ll_factor,
        phi=phi,
        phi_ll=phi_ll,
        mass=mass,
        gauge=gauge,
        gauge_abs_min=float(np.min(mags)),
        gauge_abs_max=float(np.max(mags)),
    )


@dataclass
class TransformedVariable:
    """Gauge-transformed band variable with its provenance."""

    v: ComplexField
    k: float
    order: int
    ll_factor: float
    source_time: float | None = None


class GaugeBand:
    """The tables of v_k for one band (the multiplier of u_k^+, the gauge
    low-pass and the ``BandKernel`` of B_k), reused by a decay run at every snapshot."""

    def __init__(self, grid: Grid, k: float, order: int, ll_factor: float = 100.0,
                 cutoffs: CutoffFamily = DEFAULT_CUTOFFS):
        _check_separation(order, ll_factor)
        self.grid, self.k, self.order = grid, k, order
        self.plus = lp_values(grid, k, "plus", cutoffs)
        self.low = lp_values(grid, k - ll_factor * order, "leq", cutoffs)
        self.kernel = BandKernel(grid, k, order, ll_factor, cutoffs)

    def v(self, c: np.ndarray, phi_c: np.ndarray) -> np.ndarray:
        """Samples of v_k = (u_k^+ + B_k(u,u)) E_N(phi_ll) from the
        coefficients of u and of phi (see ``phi_coeffs``)."""
        warn_band_edge(self.grid, self.k)
        u_kp = samples_of(self.plus * c, self.grid)
        gauge = gauge_polynomial(self.order, samples_of(self.low * phi_c, self.grid))
        return (u_kp + self.kernel.apply(c, c)) * gauge


def phi_coeffs(u: Field, c: np.ndarray) -> np.ndarray:
    """Coefficients of the mean-removed antiderivative phi of u, given those of u."""
    phi, _ = antiderivative_mean_removed(u, c)
    return coeffs_of(phi.samples, u.grid)


def transform(
    u: Field,
    k: float,
    order: int,
    ll_factor: float = 100.0,
    cutoffs: CutoffFamily = DEFAULT_CUTOFFS,
    source_time: float | None = None,
) -> TransformedVariable:
    """v_k = (u_k^+ + B_k(u,u)) E_N(phi_ll)."""
    band = GaugeBand(u.grid, k, order, ll_factor, cutoffs)
    c = coeffs_of(u.samples, u.grid)
    v = ComplexField(u.grid, band.v(c, phi_coeffs(u, c)))
    return TransformedVariable(v=v, k=k, order=order, ll_factor=ll_factor,
                               source_time=source_time)


def rhs_terms(
    u: Field | ComplexField,
    k: float,
    order: int,
    ll_factor: float = 100.0,
    cutoffs: CutoffFamily = DEFAULT_CUTOFFS,
) -> dict[str, ComplexField]:
    """The four nonlinear terms of the transformed equation, assembled exactly
    as written; (H + i) is realized as 2i P^-.

    Keys: B_rem (quadratic remainder), C_tilde, C (cubic), Q (quartic).
    """
    check_dealias_margin(u, QUARTIC_MARGIN)
    grid = u.grid
    u_ll = low_pass(u, k - ll_factor * order, cutoffs)
    u_kp = lp_project(u, k, "plus", cutoffs)
    bu = assemble_B(k, order, u, u, ll_factor, cutoffs)
    usq = multiply(u, u)
    usq_ll = low_pass(usq, k - ll_factor * order, cutoffs)
    d_usq = derivative(usq)
    hpi_du_ll = 2j * half_project(derivative(u_ll), "-").samples

    b_rem = ComplexField(
        grid, hpi_du_ll * u_kp.samples + 2j * u_ll.samples * derivative(u_kp).samples
    )
    c_tilde = ComplexField(
        grid,
        -2j * assemble_B(k, order, d_usq, u, ll_factor, cutoffs).samples,
    )  # B_k is symmetric bit for bit: B(d_usq, u) + B(u, d_usq) = 2 B(d_usq, u)
    c_full = ComplexField(
        grid,
        c_tilde.samples
        - usq_ll.samples * u_kp.samples
        + 2j * u_ll.samples * derivative(bu).samples
        + hpi_du_ll * bu.samples,
    )
    q = ComplexField(grid, -usq_ll.samples * bu.samples)
    return {"B_rem": b_rem, "C_tilde": c_tilde, "C": c_full, "Q": q}


def box_correction(
    u: Field,
    k: float,
    order: int,
    ll_factor: float = 100.0,
    cutoffs: CutoffFamily = DEFAULT_CUTOFFS,
) -> ComplexField:
    """Exact periodic-box correction to the literal right side.

    mean(u^2) A E_{N-1}  -  2i mean(u) A' E_{N-1}  +  A (u_ll - mean(u))^2 E_{N-2}

    with A = u_k^+ + B(u,u).  The first two pieces vanish as mass/L -> 0; the
    third is the second-order gauge-polynomial term beyond the first-order
    expansion (identically zero whenever the low-pass resolves only the mean).
    """
    grid = u.grid
    ctx = make_gauge_context(u, k, order, ll_factor, cutoffs)
    u_kp = lp_project(u, k, "plus", cutoffs)
    bu = assemble_B(k, order, u, u, ll_factor, cutoffs)
    a = u_kp.samples + bu.samples
    u_ll = low_pass(u, k - ll_factor * order, cutoffs)
    ubar = float(np.mean(u.samples))
    mean_sq = float(np.mean(u.samples**2))
    e_nm1 = gauge_polynomial(order - 1, ctx.phi_ll.samples)
    e_nm2 = gauge_polynomial(order - 2, ctx.phi_ll.samples)
    da = derivative(ComplexField(grid, a)).samples
    corr = (
        mean_sq * a * e_nm1
        - 2j * ubar * da * e_nm1
        + a * (u_ll.samples - ubar) ** 2 * e_nm2
    )
    return ComplexField(grid, corr)


@dataclass
class ResidualReport:
    """Residual of the transformed equation over a snapshot window."""

    k: float
    order: int
    dt: float
    box_length: float
    residual_inf: float          # against the four literal terms
    residual_box_exact: float    # literal terms + exact box correction
    term_scale: float            # largest single right-side term
    budget_dt2: float            # |d^3 v / dt^3| dt^2 / 6 estimate (0 if unavailable)
    budget_massL: float          # sup norm of the box correction
    budget_alias: float          # spectral-tail proxy beyond the quartic margin

    def csv_row(self) -> str:
        return ",".join(
            repr(v)
            for v in (
                self.k,
                self.order,
                self.dt,
                self.box_length,
                self.residual_inf,
                self.budget_dt2,
                self.budget_massL,
                self.budget_alias,
                self.residual_box_exact,
                self.term_scale,
            )
        )

    @staticmethod
    def csv_header() -> str:
        return (
            "k,N,dt,L,residual_inf,budget_dt2,budget_massL,budget_alias,"
            "residual_box_exact,term_scale"
        )


def _assemble_rhs(
    u: Field, k: float, order: int, ll_factor: float, cutoffs: CutoffFamily
) -> tuple[np.ndarray, float]:
    terms = rhs_terms(u, k, order, ll_factor, cutoffs)
    ctx = make_gauge_context(u, k, order, ll_factor, cutoffs)
    e_nm1 = gauge_polynomial(order - 1, ctx.phi_ll.samples)
    g_top = (-1j * ctx.phi_ll.samples) ** order / math.factorial(order)
    rhs = (
        -terms["B_rem"].samples * g_top
        + terms["C_tilde"].samples * g_top
        + terms["C"].samples * e_nm1
        + terms["Q"].samples * e_nm1
    )
    scale = max(t.sup_norm() for t in terms.values())
    return rhs, scale


def transformed_residual(
    snapshots: list[tuple[float, Field]],
    k: float,
    order: int,
    ll_factor: float = 100.0,
    cutoffs: CutoffFamily = DEFAULT_CUTOFFS,
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

    vs = [
        transform(u, k, order, ll_factor, cutoffs, source_time=t).v.samples
        for t, u in snapshots
    ]
    worst_literal = 0.0
    worst_exact = 0.0
    scale = 0.0
    budget_mass = 0.0
    budget_alias = 0.0
    for i in range(1, len(snapshots) - 1):
        u_i = snapshots[i][1]
        lhs = 1j * (vs[i + 1] - vs[i - 1]) / (2.0 * dt) - derivative(
            ComplexField(grid, vs[i]), 2
        ).samples
        rhs, s = _assemble_rhs(u_i, k, order, ll_factor, cutoffs)
        delta = box_correction(u_i, k, order, ll_factor, cutoffs).samples
        worst_literal = max(worst_literal, float(np.max(np.abs(lhs - rhs))))
        worst_exact = max(worst_exact, float(np.max(np.abs(lhs - rhs - delta))))
        scale = max(scale, s)
        budget_mass = max(budget_mass, float(np.max(np.abs(delta))))
        budget_alias = max(
            budget_alias,
            spectral_tail_mass(u_i, QUARTIC_MARGIN) * (1.0 + u_i.sup_norm()),
        )

    budget_dt2 = 0.0
    if len(snapshots) >= 5:
        # third time derivative from the centered 5-point stencil at the middle
        mid = len(snapshots) // 2
        if 2 <= mid <= len(snapshots) - 3:
            d3 = (
                vs[mid + 2] - 2.0 * vs[mid + 1] + 2.0 * vs[mid - 1] - vs[mid - 2]
            ) / (2.0 * dt**3)
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
    lines = [ResidualReport.csv_header(), *(rep.csv_row() for rep in reports)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def phi_equation_residual(
    snapshots: list[tuple[float, Field]],
) -> tuple[float, float]:
    """Residual of the antiderivative evolution identity along a solver run.

    Returns (residual_sup, mass_budget) where the equation
    phi_t - H phi_xx + (phi_x)^2 = 0 is checked by centered time differences;
    on the box the exact right side is mean(u^2) - 2 mean(u) u + mean(u)^2,
    whose sup norm is the returned budget.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least three snapshots")
    times = np.array([t for t, _ in snapshots])
    dt = float(times[1] - times[0])
    grid = snapshots[0][1].grid
    phis = [antiderivative_mean_removed(u)[0] for _, u in snapshots]
    worst = 0.0
    budget = 0.0
    for i in range(1, len(snapshots) - 1):
        u = snapshots[i][1]
        phi = phis[i]
        dphi_dt = (phis[i + 1].samples - phis[i - 1].samples) / (2.0 * dt)
        h_xx = hilbert(Field(grid, derivative(phi, 2).samples.real)).samples
        phi_x = derivative(phi).samples.real
        resid = dphi_dt - h_xx + phi_x**2
        ubar = float(np.mean(u.samples))
        exact = float(np.mean(u.samples**2)) - 2.0 * ubar * u.samples + ubar**2
        worst = max(worst, float(np.max(np.abs(resid))))
        budget = max(budget, float(np.max(np.abs(exact))))
    return worst, budget
