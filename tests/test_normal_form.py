import numpy as np
import pytest

from bolab.errors import BolabError
from bolab.grid import ComplexField, Field, Grid
from bolab.kernels import fit_decay
from bolab.normal_form import gauge_polynomial, phi_coeffs, transform, transformed_residual
from bolab.pseudoproduct import BandKernel, _gauge_projections, assemble_B, nf_generator_terms
from bolab.solver import SolverState, evolve, soliton
from bolab.spectral import (apply_multiplier, coeffs_of, derivative, hilbert, lp_project,
                            lp_values, multiply)
from bolab.testing import random_band_limited
from oracles import antiderivative_mean_removed, half_project, weighted_shell_sup

pytestmark = pytest.mark.filterwarnings("ignore::bolab.errors.AliasingWarning")


def rhs_terms(u, k, order, ll_factor=100.0):
    """The four nonlinear terms of the transformed equation (``Bundle.terms``)."""
    return transform(u, BandKernel(u.grid, k, order, ll_factor)).terms(u)[0]


def phi_equation_residual(snapshots):
    """Residual of the antiderivative evolution identity along a solver run.

    Returns (residual_sup, mass_budget) where the equation
    phi_t - H phi_xx + (phi_x)^2 = 0 is checked by centered time differences;
    on the box the exact right side is mean(u^2) - 2 mean(u) u + mean(u)^2,
    whose sup norm is the returned budget.
    """
    dt = snapshots[1][0] - snapshots[0][0]
    grid = snapshots[0][1].grid
    phis = [antiderivative_mean_removed(u)[0] for _, u in snapshots]
    worst = budget = 0.0
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


# ---------------------------------------------------------------------------
# gauge polynomial and the gauge pieces of the bundle
# ---------------------------------------------------------------------------


def test_gauge_polynomial_values():
    z = np.array([0.7, -1.3, 2.0])
    assert np.allclose(gauge_polynomial(0, z), 1.0)
    assert np.allclose(gauge_polynomial(1, z), 1.0 - 1j * z)
    assert np.allclose(
        gauge_polynomial(2, z), 1.0 - 1j * z + (-1j * z) ** 2 / 2.0
    )
    assert np.all(gauge_polynomial(-1, z) == 0.0)
    # converges to exp(-iz) as the order grows
    assert np.max(np.abs(gauge_polynomial(20, z) - np.exp(-1j * z))) < 1e-12


def test_gauge_context_zero_field(grid_small):
    z = Field(grid_small, np.zeros(grid_small.n_points))
    bundle = transform(z, BandKernel(z.grid, 2.0, 4))
    phi, mass = antiderivative_mean_removed(z)
    assert phi.sup_norm() == 0.0 and np.max(np.abs(bundle.phi_ll)) == 0.0
    assert np.allclose(gauge_polynomial(4, bundle.phi_ll), 1.0)
    assert mass == 0.0


def test_gauge_context_requires_support_separation(grid_small, rng):
    # the band object checks the separation, so every entry point that builds
    # one raises the same error
    u = random_band_limited(grid_small, rng, 0.25)
    snaps = [(0.0, u), (1e-3, u), (2e-3, u)]
    for build in (lambda: BandKernel(u.grid, 2.0, 1, 1.0),
                  lambda: assemble_B(2.0, 1, u, u, 1.0),
                  lambda: nf_generator_terms(u, 2.0, 1, 1.0),
                  lambda: transformed_residual(snaps, 2.0, 1, 1.0),
                  lambda: BandKernel(u.grid, 2.0, 0)):
        with pytest.raises(BolabError, match="not separated"):
            build()


def test_gauge_boundedness_for_soliton():
    # |E_N(phi_ll)| stays within [1/2, 2] for N >= 6 at soliton amplitude
    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    assert antiderivative_mean_removed(s)[0].sup_norm() < 1.1 * np.pi
    for order in (6, 8):
        phi_ll = transform(s, BandKernel(s.grid, 2.0, order, 1.0)).phi_ll
        mags = np.abs(gauge_polynomial(order, phi_ll))
        assert np.min(mags) >= 0.5
        assert np.max(mags) <= 2.0


def test_phi_equation_residual_along_run(rng):
    # residual = exactly-computed mean-value budget + O(dt^2) differencing
    # remainder; the excess over the budget must quarter under step halving
    g = Grid(512, 16 * np.pi)
    u0 = Field(g, 0.5 * random_band_limited(g, rng, 0.2).samples)
    excess = []
    for dt in (2e-3, 1e-3):
        st = SolverState(w=u0, frame="lab", dt=dt)
        snaps = evolve(st, 4 * dt, snapshot_stride=1, record_ledger=False)
        resid, budget = phi_equation_residual([(s.t, s.w) for s in snaps])
        assert resid <= budget + 2e4 * dt**2  # coefficient ~ xi_max^6 ||phi||
        excess.append(max(resid - budget, 1e-300))
    assert 2.5 < excess[0] / excess[1] < 6.0


# ---------------------------------------------------------------------------
# the transformation
# ---------------------------------------------------------------------------


def test_transform_zero_field(grid_small):
    z = Field(grid_small, np.zeros(grid_small.n_points))
    bundle = transform(z, BandKernel(z.grid, 2.0, 4))
    assert np.max(np.abs(bundle.v)) == 0.0


def test_transform_frequency_support_audit(rng):
    # nontrivial gauge: threshold 2^(k - 2*2) = 2^-1 resolves many modes
    g = Grid(512, 16 * np.pi)
    u = random_band_limited(g, rng, 0.25)
    k, order, factor = 3.0, 2, 2.0
    bundle = transform(u, BandKernel(u.grid, k, order, factor))
    c = coeffs_of(bundle.v, g)
    energy = np.abs(c) ** 2
    window = (g.xi > 0) & (g.xi >= 2.0 ** (k - 2)) & (g.xi <= 2.0 ** (k + 2))
    assert energy[~window].sum() < 1e-4 * energy.sum()


def test_phi_coeffs_match_the_round_trip_antiderivative(rng):
    # c / (i xi) on coefficients against the inverse of c / (i xi) transformed
    # back, for fields with and without a mean
    for grid, mean in ((Grid(512, 16 * np.pi), 0.0), (Grid(512, 16 * np.pi), 0.3),
                       (Grid(4096, 400.0), None)):
        u = soliton(1.0, 0.5, grid) if mean is None else Field(
            grid, random_band_limited(grid, rng, 0.5).samples + mean)
        phi_c = phi_coeffs(grid, coeffs_of(u.samples, grid))
        oracle = coeffs_of(antiderivative_mean_removed(u)[0].samples, grid)
        assert phi_c[0] == 0.0 and phi_c[grid.n_points // 2] == 0.0
        assert np.max(np.abs(phi_c - oracle)) <= 1e-13 * np.max(np.abs(phi_c))


@pytest.mark.parametrize("n, box, k", [(512, 16 * np.pi, 2.0), (4096, 400.0, 1.0)])
def test_trivial_gauge_bundle_is_a_itself(rng, n, box, k):
    # with the factor 100 the gauge low-pass keeps no mode of phi: phi_ll = 0,
    # E_N(0) = 1 exactly and v is A, with no transform of phi_ll
    grid = Grid(n, box)
    u = Field(grid, random_band_limited(grid, rng, 0.25).samples + 0.2)
    bundle = transform(u, BandKernel(u.grid, k, 4, 100.0))
    assert not np.any(bundle.phi_ll)
    assert np.array_equal(bundle.v, bundle.a)
    assert np.array_equal(bundle.v, bundle.a * gauge_polynomial(4, bundle.phi_ll))
    a = lp_project(u, k, "plus").samples + assemble_B(k, 4, u, u).samples
    assert np.max(np.abs(bundle.a - a)) <= 1e-13 * np.max(np.abs(a))


def test_transform_reduces_to_band_plus_correction_when_gauge_trivial(rng):
    # with the literal factor 100 the low-pass resolves only the (removed)
    # mean, so E_N(phi_ll) = 1 identically
    g = Grid(512, 16 * np.pi)
    u = random_band_limited(g, rng, 0.25)
    from bolab.spectral import lp_project

    bundle = transform(u, BandKernel(u.grid, 2.0, 4, 100.0))
    direct = lp_project(u, 2.0, "plus").samples + assemble_B(2.0, 4, u, u).samples
    assert np.max(np.abs(bundle.v - direct)) < 1e-14


# ---------------------------------------------------------------------------
# right-side terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, k, order, factor", [(2048, 1.0, 4, 3.0), (4096, 0.0, 4, 100.0),
                                                 (256, -2.0, 2, 1.0)])
def test_gauge_band_shares_the_kernel_tables(n, k, order, factor):
    # one band object: its tables of B_k include chi_k^+ and the gauge
    # low-pass of v_k, byte for byte the lp_values multipliers; its
    # projectors are boolean masks
    g = Grid(n, 400.0)
    kernel = BandKernel(g, k, order, factor)
    assert (kernel.k, kernel.order) == (k, order)
    assert kernel.chi.tobytes() == lp_values(g, k, "plus").tobytes()
    assert kernel.low.tobytes() == lp_values(g, k - factor * order, "leq").tobytes()
    assert kernel.plus.dtype == kernel.both.dtype == bool
    assert np.array_equal(kernel.plus, g.xi > 0)
    assert np.array_equal(kernel.both, (g.xi != 0) & (np.arange(n) > 0))
    # 1 / (2 xi) is zero where ``both`` is, at xi = 0 and the Nyquist mode
    assert np.array_equal(kernel.inv2xi != 0, kernel.both)


def test_rhs_terms_zero_field(grid_small):
    z = Field(grid_small, np.zeros(grid_small.n_points))
    terms = rhs_terms(z, 2.0, 2)
    assert all(t.sup_norm() == 0.0 for t in terms.values())


def test_rhs_terms_single_mode_cubic_quartic_vanish(grid_medium):
    # complex single positive mode: the squared field has no low modes, the
    # quadratic correction vanishes on the plateau, so C and Q die termwise
    g = grid_medium
    k = 3.0
    m = int(round(2.0**k * g.box_length / (2 * np.pi)))
    mode = ComplexField(g, np.exp(1j * g.xi[m + g.n_points // 2] * g.x))
    terms = rhs_terms(mode, k, 2, ll_factor=3.0)
    for name in ("C", "C_tilde", "Q"):
        assert terms[name].sup_norm() < 1e-11, name


def test_cubic_term_shell_decay():
    # cubic-term spatial decay for localized data: fitted shell slope >= 2.5
    g = Grid(4096, 1024.0)
    w = soliton(1.0, 0.0, g)
    terms = rhs_terms(w, 1.0, 2, ll_factor=3.0)
    sups = weighted_shell_sup(terms["C"], [3.0, 4.0, 5.0, 6.0, 7.0])
    pairs = [(j, v["+"]) for j, v in sups.items()]
    fit = fit_decay(pairs)
    assert fit.slope <= -2.5


def test_quadratic_correction_shell_decay():
    # B(w, w) decays at least like 2^(-2j) across shells at fixed band
    g = Grid(4096, 1024.0)
    w = soliton(1.0, 0.0, g)
    bu = assemble_B(1.0, 2, w, w, ll_factor=3.0)
    sups = weighted_shell_sup(bu, [3.0, 4.0, 5.0, 6.0, 7.0])
    pairs = [(j, v["+"]) for j, v in sups.items()]
    fit = fit_decay(pairs)
    assert fit.slope <= -2.0


def test_quartic_term_shell_decay():
    # the quartic term with the mean-removed low-pass factor (its exact form
    # on the box; the zero mode is a flat mass/L background absent on the
    # line) decays at least like 2^(-3.5 j)
    g = Grid(4096, 1024.0)
    w = soliton(1.0, 0.0, g)
    k, order, factor = 1.0, 2, 3.0
    bu = assemble_B(k, order, w, w, ll_factor=factor)
    from bolab.spectral import lp_project, multiply

    wsq = multiply(w, w)
    wsq_ll = lp_project(wsq, k - factor * order, "leq")
    q_box = ComplexField(
        g, -(wsq_ll.samples - np.mean(wsq.samples.real)) * bu.samples
    )
    sups = weighted_shell_sup(q_box, [3.0, 4.0, 5.0, 6.0, 7.0])
    pairs = [(j, v["+"]) for j, v in sups.items()]
    fit = fit_decay(pairs)
    assert fit.slope <= -3.5


# ---------------------------------------------------------------------------
# the transformed-equation residual
# ---------------------------------------------------------------------------


def test_residual_needs_three_uniform_snapshots(grid_small, rng):
    u = random_band_limited(grid_small, rng, 0.2)
    with pytest.raises(ValueError):
        transformed_residual([(0.0, u), (1.0, u)], 2.0, 2)
    with pytest.raises(ValueError):
        transformed_residual([(0.0, u), (1.0, u), (2.5, u)], 2.0, 2)


def test_residual_zero_field(grid_small):
    z = Field(grid_small, np.zeros(grid_small.n_points))
    rep = transformed_residual([(0.0, z), (1e-3, z), (2e-3, z)], 2.0, 2)
    assert rep.residual_inf == 0.0


def test_residual_linear_free_schroedinger_consistency(rng):
    # nonlinearity off, trivial gauge and no correction: the residual reduces
    # to the centered-difference error of the free flow on the band
    g = Grid(512, 16 * np.pi)
    u0 = Field(g, 0.6 * random_band_limited(g, rng, 0.2).samples)
    for dt in (2e-3, 1e-3):
        st = SolverState(w=u0, frame="lab", dt=dt, nonlinear=False)
        snaps = evolve(st, 2 * dt, snapshot_stride=1, record_ledger=False)
        from bolab.spectral import derivative, lp_project

        k = 3.0
        vs = [lp_project(s.w, k, "plus").samples for s in snaps]
        lhs = 1j * (vs[2] - vs[0]) / (2 * dt) - derivative(
            ComplexField(g, vs[1]), 2
        ).samples
        if dt == 2e-3:
            first = np.max(np.abs(lhs))
        else:
            second = np.max(np.abs(lhs))
    assert 3.0 < first / second < 5.0  # O(dt^2) centered-difference limit


def test_residual_box_exact_convergence(rng):
    # the master correctness test: with the exact box correction the
    # residual is pure O(dt^2) and quarters under step halving
    g = Grid(512, 16 * np.pi)
    # a smooth field with a soliton-like spectral tail exp(-|xi|)
    smooth = apply_multiplier(lambda xi: np.exp(-np.abs(xi)), random_band_limited(g, rng, 0.25))
    u0 = Field(g, 0.8 * smooth.samples.real)
    k, order, factor = 3.0, 2, 2.0
    resids = []
    budgets = []
    for dt in (2e-3, 1e-3, 5e-4):
        st = SolverState(w=u0, frame="lab", dt=dt)
        snaps = evolve(st, 4 * dt, snapshot_stride=1, record_ledger=False)
        rep = transformed_residual([(s.t, s.w) for s in snaps], k, order, factor)
        resids.append(rep.residual_box_exact)
        budgets.append(rep.budget_massL)
        # the literal-form residual is the box-exact one plus the reported
        # mass/L correction
        assert rep.residual_inf <= rep.residual_box_exact + rep.budget_massL * 1.05
    assert 3.0 < resids[0] / resids[1] < 5.0
    assert 3.0 < resids[1] / resids[2] < 5.0
    assert budgets[0] > 0.0


def test_residual_report_csv(tmp_path, grid_small, rng):
    from bolab.normal_form import residual_reports_to_csv

    u = random_band_limited(grid_small, rng, 0.2)
    dt = 1e-3
    st = SolverState(w=u, frame="lab", dt=dt)
    snaps = evolve(st, 2 * dt, snapshot_stride=1, record_ledger=False)
    rep = transformed_residual([(s.t, s.w) for s in snaps], 2.0, 2)
    path = str(tmp_path / "residuals.csv")
    residual_reports_to_csv([rep], path)
    lines = (tmp_path / "residuals.csv").read_text().strip().split("\n")
    # the README's "Residual CSV" columns
    assert lines[0] == ("k,N,dt,L,residual_inf,budget_dt2,budget_massL,budget_alias,"
                        "residual_box_exact,term_scale")
    assert len(lines) == 2


def test_box_correction_vanishes_for_mean_free_trivial_gauge(grid_medium, rng):
    # with factor 100 the gauge low-pass is empty and the data mean-zero, so
    # only the mean(u^2) piece survives
    u = random_band_limited(grid_medium, rng, 0.25)
    _, corr, _ = transform(u, BandKernel(u.grid, 2.0, 4, 100.0)).right_side(u)
    from bolab.spectral import lp_project

    a = lp_project(u, 2.0, "plus").samples + assemble_B(2.0, 4, u, u).samples
    expected = float(np.mean(u.samples**2)) * a
    assert np.max(np.abs(corr - expected)) < 1e-12


def _right_side_field_by_field(u, k, order, ll_factor):
    """The four terms and Delta_box of the transformed equation formed field
    by field, one ``lp_project``, ``derivative``, ``half_project`` or
    ``assemble_B`` per piece: the reference of ``Bundle.terms`` and
    ``Bundle.right_side``."""
    low = k - ll_factor * order
    u_ll = lp_project(u, low, "leq").samples
    u_kp = lp_project(u, k, "plus")
    usq = multiply(u, u)
    usq_ll = lp_project(usq, low, "leq").samples
    d_usq = derivative(usq)
    bu = assemble_B(k, order, u, u, ll_factor)
    hpi_du_ll = 2j * half_project(derivative(ComplexField(u.grid, u_ll)), "-").samples
    c_tilde = -1j * (assemble_B(k, order, d_usq, u, ll_factor).samples
                     + assemble_B(k, order, u, d_usq, ll_factor).samples)
    terms = {
        "B_rem": hpi_du_ll * u_kp.samples + 2j * u_ll * derivative(u_kp).samples,
        "C_tilde": c_tilde,
        "C": (c_tilde - usq_ll * u_kp.samples + 2j * u_ll * derivative(bu).samples
              + hpi_du_ll * bu.samples),
        "Q": -usq_ll * bu.samples,
    }
    phi_ll = lp_project(antiderivative_mean_removed(u)[0], low, "leq").samples
    a = ComplexField(u.grid, u_kp.samples + bu.samples)
    ubar, mean_sq = float(np.mean(u.samples)), float(np.mean(u.samples**2))
    e_nm1, e_nm2 = gauge_polynomial(order - 1, phi_ll), gauge_polynomial(order - 2, phi_ll)
    delta = (mean_sq * a.samples * e_nm1 - 2j * ubar * derivative(a).samples * e_nm1
             + a.samples * (u_ll - ubar) ** 2 * e_nm2)
    return terms, delta


@pytest.mark.parametrize("n, box, k, order, factor, mean", [
    (512, 16 * np.pi, 2.0, 4, 100.0, 0.0),
    (512, 16 * np.pi, 0.0, 2, 100.0, 0.3),
    # chi_{<<k} resolves lattice modes, so u_ll, phi_ll and the gauge factors
    # are not trivial
    (512, 16 * np.pi, 3.0, 2, 2.0, 0.3),
    (1024, 2000.0, -2.0, 1, 2.0, 0.1),
])
def test_right_side_matches_the_field_by_field_terms(rng, n, box, k, order, factor, mean):
    grid = Grid(n, box)
    u = Field(grid, random_band_limited(grid, rng, 0.25).samples + mean)
    reference, ref_delta = _right_side_field_by_field(u, k, order, factor)
    bundle = transform(u, BandKernel(u.grid, k, order, factor))
    terms, u_ll = bundle.terms(u)
    rhs, delta, term_scale = bundle.right_side(u)
    scale = max(np.max(np.abs(t)) for t in (*reference.values(), ref_delta))
    assert terms.keys() == reference.keys()
    for name, ref in reference.items():
        assert np.max(np.abs(terms[name].samples - ref)) <= 1e-13 * scale, name
    # B_rem vanishes when u_ll does: mean-zero u and a trivial gauge
    live = [name for name in reference if name != "B_rem" or mean or factor < 100.0]
    assert all(np.max(np.abs(reference[name])) > 1e-6 * scale for name in live)
    assert np.max(np.abs(delta - ref_delta)) <= 1e-13 * scale
    assert abs(term_scale - max(np.max(np.abs(t)) for t in reference.values())) <= 1e-13 * scale
    if factor < 100.0:
        assert np.array_equal(u_ll, _gauge_projections(bundle.kernel, bundle.c)[1])
        assert np.max(np.abs(bundle.phi_ll)) > 0.0 and np.max(np.abs(u_ll)) > 0.0


@pytest.mark.parametrize("n_snapshots", [3, 5])
def test_residual_builds_and_applies_one_kernel_per_snapshot(monkeypatch, n_snapshots):
    # one BandKernel per call, whatever the number of snapshots; each
    # snapshot's transform applies B_k(u, u) once, and each interior snapshot
    # adds one application, B_k(d(u^2), u)
    builds, applies = [], []
    init, apply = BandKernel.__init__, BandKernel.apply

    def counted_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def counted_apply(self, *args, **kwargs):
        applies.append(1)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(BandKernel, "__init__", counted_init)
    monkeypatch.setattr(BandKernel, "apply", counted_apply)
    g = Grid(2048, 400.0)
    dt = 1e-3
    st = SolverState(w=soliton(1.0, 0.0, g), frame="lab", dt=dt)
    snaps = evolve(st, (n_snapshots - 1) * dt, snapshot_stride=1, record_ledger=False)
    assert len(snaps) == n_snapshots
    transformed_residual([(s.t, s.w) for s in snaps], 1.0, 4, 3.0)
    assert len(builds) == 1
    assert len(applies) == 2 * n_snapshots - 2


def test_residual_forms_its_terms_from_coefficients(fft_lengths):
    # per snapshot 2 grid-length transforms for the bundle (u and A; phi_ll
    # is zero), and per interior snapshot 9 more for the terms and Delta_box
    # and 2 for d^2 v/dx^2: 69 over 7 snapshots (92 when the bundle also
    # inverted u_k^+, B and phi_ll and round-tripped phi, 132 when every
    # derivative and projection was a round trip on samples)
    g = Grid(1024, 400.0)
    dt = 1e-3
    snaps = evolve(SolverState(w=soliton(1.0, 0.0, g), frame="lab", dt=dt), 6 * dt,
                   snapshot_stride=1, record_ledger=False)
    fft_lengths.clear()
    transformed_residual([(s.t, s.w) for s in snaps], 1.0, 4, 3.0)
    assert fft_lengths.count(1024) <= 69
