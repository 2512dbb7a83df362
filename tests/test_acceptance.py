"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here.  Box-size surrogate budgets (mass/L, wrap,
dealiasing) are computed explicitly where a criterion involves them and are
reported in the printed line.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from bolab.grid import Field, Grid
from bolab.kernels import fit_decay
from bolab.normal_form import transformed_residual
from bolab.pseudoproduct import SQRT_2PI
from bolab.solver import SolverState, evolve, soliton
from bolab.spectral import hilbert, lp_project, multiply
from bolab.decay import ExperimentConfig, SnapshotTables, bootstrap_predict, run
from bolab.testing import (
    commutator_constants,
    convolution_identity_errors,
    kernel_exponents,
    nf_cancellation_sweep,
    operator_identity_errors,
    random_band_limited,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::bolab.errors.AliasingWarning",
    "ignore::bolab.errors.BandEdgeWarning",
)

SHELLS = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]


def _shell_tables(grid: Grid, shells: list) -> SnapshotTables:
    """measure-decay's snapshot measurement on ``grid`` and ``shells``: the first two
    blocks of its ``measure`` are the weighted sups sup |chi_j^+ w| and sup |chi_j^- w|."""
    return SnapshotTables(ExperimentConfig(n_points=grid.n_points, box_length=grid.box_length,
                                           shells=shells))


def _report(number: int, name: str, passed: bool, detail: str, timing: str = "") -> None:
    """Print the criterion's line, and its wall time on a line of its own so
    that the criterion lines of two runs compare byte for byte."""
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    if timing:
        print(f"TIMING {number:02d} {name}: {timing}")
    assert passed, f"criterion {number} {name}: {detail}" + (f", {timing}" if timing else "")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def soliton_run():
    """T = 10 comoving soliton at the reference resolution (criteria 9, 10)."""
    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    state = SolverState(w=s, frame="moving", speed=1.0, dt=1e-3)
    snaps = evolve(state, 10.0, snapshot_stride=1000)
    return s, snaps


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_operator_calculus_suite():
    t0 = time.time()
    worst = operator_identity_errors(Grid(2048, 64 * np.pi), np.random.default_rng(0), 1000)
    elapsed = time.time() - t0
    ok = all(v <= 1e-10 for v in worst.values()) and elapsed < 60.0
    _report(
        1,
        "operator-calculus",
        ok,
        f"worst rel errors {', '.join(f'{k}={v:.2e}' for k, v in worst.items())}",
        f"{elapsed:.0f}s for 1000 fields (<60s)",
    )


def test_criterion_02_hilbert_closed_form():
    g = Grid(4096, 400.0)
    f = Field(g, 1.0 / (1.0 + g.x**2))
    hf = hilbert(f)
    target = g.x / (1.0 + g.x**2)
    err = np.abs(hf.samples - target)
    # the 1e-4 budget is box-truncation dominated: the lattice error at the
    # dispersion kink grows ~ (2 pi / L)^2 |x|, so it holds on the central
    # window; the whole box obeys the O(1/L) budget
    window = np.abs(g.x) <= g.box_length / 100.0
    err_window = float(np.max(err[window]))
    err_box = float(np.max(err))
    tables = _shell_tables(g, [3.0, 3.5, 4.0, 4.5, 5.0, 5.5])
    sups = tables.measure(hilbert(soliton(1.0, 0.0, g)))
    count = len(tables.shells)
    fit = fit_decay([(j, max(plus, minus)) for j, plus, minus
                     in zip(tables.shells, sups[:count], sups[count:2 * count])])
    ok = err_window <= 1e-4 and err_box <= 2.5 / g.box_length and abs(fit.slope + 1.0) <= 0.15
    _report(
        2,
        "hilbert-closed-form",
        ok,
        f"window err {err_window:.2e} (<=1e-4), box err {err_box:.2e} "
        f"(<=2.5/L), |H soliton| slope {fit.slope:.3f} (-1 +- 0.15)",
    )


def test_criterion_03_pseudoproduct_identity():
    worst = convolution_identity_errors(Grid(512, 16 * np.pi), np.random.default_rng(1), 20)
    ok = worst["product"] <= 1e-10 and worst["leibnitz"] <= 1e-10
    _report(
        3,
        "pseudoproduct-identity",
        ok,
        f"sqrt(2pi)fg rel err {worst['product']:.2e}, Leibnitz rel {worst['leibnitz']:.2e} "
        "(<=1e-10)",
    )


def test_criterion_04_pseudolocality_slope():
    g = Grid(2048, 256.0)
    rng = np.random.default_rng(2)
    htar = random_band_limited(g, rng, 0.25)
    obs = np.abs(g.x) <= 1.0
    best = {}
    for j, k in [(3, 0), (4, 0), (5, 0), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)]:
        # the symbol chi_{<=k}(xi) chi_{<=k}(eta), as projections around a product
        f = Field(g, np.exp(-(((g.x - 2.0**j) / 0.5) ** 2)))
        out = SQRT_2PI * lp_project(multiply(f, lp_project(htar, k, "leq")), k, "leq").samples
        val = np.max(np.abs(out[obs])) / (f.sup_norm() * htar.sup_norm())
        best[j + k] = max(best.get(j + k, 0.0), float(val))
    fit = fit_decay(sorted(best.items()))
    ok = fit.slope <= -2.5
    _report(
        4,
        "pseudolocality-slope",
        ok,
        f"fitted decay {-fit.slope:.2f} in j+k over [3,9] (need >= 2.5)",
    )


def test_criterion_05_commutator_constants():
    consts = commutator_constants(Grid(8192, 2048.0), np.random.default_rng(3), 100)
    spreads = {
        n: max(consts[n].values()) / min(consts[n].values()) for n in (0, 1, 2)
    }
    # the +-50% stability clause attaches to the base constant; the derivative
    # versions assert the bound with an order-one constant per derivative count
    ok = spreads[0] <= 3.0 and spreads[1] <= 10.0 and spreads[2] <= 10.0
    _report(
        5,
        "hilbert-commutator",
        ok,
        f"constant spreads across j in [3,8]: base {spreads[0]:.2f} (<=3, +-50%), "
        f"d1 {spreads[1]:.2f}, d2 {spreads[2]:.2f} (bounds hold, spread <=10)",
    )


def test_criterion_06_normal_form_cancellation():
    t0 = time.time()
    cases = nf_cancellation_sweep(Grid(1024, 8 * np.pi), np.random.default_rng(4),
                                  [0.0, 1.0, 2.0, 3.0, 4.0], [2, 4], 5, 100.0)
    worst = max(resid / scale for *_, resid, scale in cases)
    count = len(cases)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 600.0 and count == 50
    _report(
        6,
        "normal-form-cancellation",
        ok,
        f"worst relative residual {worst:.2e} over {count} fields (<=1e-8)",
        f"{elapsed:.0f}s at n=1024 (<600s)",
    )


def test_criterion_07_transformed_equation_residual():
    g = Grid(8192, 400.0)
    s = soliton(1.0, 0.0, g)
    k, order, factor = 1.0, 4, 3.0
    reports = []
    for dt in (1e-3, 5e-4):
        st = SolverState(w=s, frame="lab", dt=dt)
        snaps = evolve(st, 6 * dt, snapshot_stride=1, record_ledger=False)
        reports.append(
            transformed_residual([(sn.t, sn.w) for sn in snaps], k, order, factor)
        )
    rep = reports[0]
    ratio = reports[0].residual_box_exact / reports[1].residual_box_exact
    within_budget = rep.residual_inf <= (
        1e-3 * rep.term_scale + rep.budget_massL + rep.budget_alias
    )
    box_small = rep.residual_box_exact <= 1e-3 * rep.term_scale
    ok = 3.0 <= ratio <= 5.0 and within_budget and box_small
    _report(
        7,
        "transformed-residual",
        ok,
        f"dt-halving ratio {ratio:.2f} (~4), residual {rep.residual_inf:.2e} <= "
        f"1e-3*scale({rep.term_scale:.2e}) + massL({rep.budget_massL:.2e}) + "
        f"alias({rep.budget_alias:.1e}); budget-corrected {rep.residual_box_exact:.2e}",
    )


def test_criterion_08_kernel_exponents():
    t0 = time.time()
    _, exps = kernel_exponents(
        0.5,
        {"j": 0.0, "a": 1, "times": [16.0 * 2.0**i for i in range(8)]},
        {"t": 4.0, "a": 1, "shells": [3, 4, 5, 6, 7, 8]},
        {"j": 2.0, "k": 0.0, "ell": -4.0, "a": 1, "M": 6,
         "times": [46.0 * 1.5**i for i in range(5)]},
        4,
    )
    elapsed = time.time() - t0
    t_slope = exps["lowfreq_left_t_slope"]
    j_slope = exps["lowfreq_left_j_slope"]
    r_slope = exps["dyadic_right_t_slope"]
    schro_diff = exps["schro_reduction_max_diff"]
    ok = (
        t_slope <= -2.8
        and j_slope <= -2.8
        and r_slope <= -2.7
        and schro_diff <= 1e-10
        and elapsed < 300.0
    )
    _report(
        8,
        "kernel-exponents",
        ok,
        f"left t-slope {t_slope:.2f} (<=-2.8), j-slope {j_slope:.2f} (<=-2.8), "
        f"right t-slope {r_slope:.2f} (<=-2.7), schro diff {schro_diff:.1e} (<=1e-10)",
        f"{elapsed:.0f}s (<300s)",
    )


def test_criterion_09_solver_fidelity(soliton_run):
    s, snaps = soliton_run
    shape_err = float(np.max(np.abs(snaps[-1].w.samples - s.samples)))
    led = np.array(snaps[-1].ledger)
    mass_drift = float(np.max(np.abs(led[:, 1] - led[0, 1]))) / abs(led[0, 1])
    l2_drift = float(np.max(np.abs(led[:, 2] - led[0, 2]))) / abs(led[0, 2])

    g2 = Grid(512, 50.0)
    s2 = soliton(1.0, 0.0, g2)
    errs = []
    for dt in (0.02, 0.01):
        st = SolverState(w=s2, frame="moving", speed=1.0, dt=dt)
        w = evolve(st, 0.5, snapshot_stride=10**9, record_ledger=False)[-1].w
        ref = evolve(replace(st, dt=dt / 8), 0.5, snapshot_stride=10**9,
                     record_ledger=False)[-1].w
        errs.append(float(np.max(np.abs(w.samples - ref.samples))))
    ratio = errs[0] / errs[1]

    ok = (
        shape_err <= 1e-3
        and mass_drift <= 1e-10
        and l2_drift <= 1e-10
        and 12.0 <= ratio <= 20.0
    )
    _report(
        9,
        "solver-fidelity",
        ok,
        f"T=10 shape err {shape_err:.2e} (<=1e-3), mass drift {mass_drift:.1e}, "
        f"L2 drift {l2_drift:.1e} (<=1e-10), RK4 halving ratio {ratio:.1f} (16+-4)",
    )


def test_criterion_10_sharp_soliton_decay(soliton_run):
    _, snaps = soliton_run
    tables = _shell_tables(snaps[0].w.grid, SHELLS)
    slopes = []
    for snap in snaps:
        sups = tables.measure(snap.w)
        fit = fit_decay(list(zip(tables.shells, sups[:len(SHELLS)])))
        slopes.append(-fit.slope)
    ok = all(abs(e - 2.0) <= 0.1 for e in slopes)
    _report(
        10,
        "sharp-soliton-decay",
        ok,
        f"exponent over t in [0,10]: min {min(slopes):.3f}, max {max(slopes):.3f} "
        f"(2.0 +- 0.1)",
    )


def test_criterion_11_bootstrap_arithmetic():
    # independent oracle: iterate the exponent map directly and count
    eps, count = 0.1, 0
    seq = []
    exponent = 1.0 + eps
    while exponent < 2.0:
        exponent = min(1.0 + 1.5 * (exponent - 1.0), 2.0)
        seq.append(exponent)
        count += 1
        assert count < 100
    # measure-decay's rule, iterated from the same exponent
    measured, exponent = 0, 1.0 + eps
    while exponent < 2.0:
        exponent = bootstrap_predict(exponent - 1.0)
        measured += 1
        assert measured < 100
    ok = measured == count == 6 and seq[-1] == 2.0
    _report(
        11,
        "bootstrap-arithmetic",
        ok,
        f"eps=0.1 terminates at exponent 2 in {measured} iterations (oracle {count})",
    )


def test_criterion_12_perturbed_decay_indicative():
    cfg = ExperimentConfig(
        n_points=4096,
        box_length=400.0,
        t_final=10.0,
        dt=1e-3,
        snapshot_stride=1000,
        shells=SHELLS,
        initial={
            "kind": "soliton_bump",
            "c": 1.0,
            "x0": 0.0,
            "bump_amplitude": 0.05,
            "bump_width": 1.0,
            "bump_center": 2.0,
        },
        sponge={"enabled": True, "width_fraction": 0.1, "strength": 1.0},
    )
    report = run(cfg)
    predicted = bootstrap_predict(report.epsilon_measured)
    late = [f for f in report.fits if f["kind"] == "sup_plus"][-1]
    late_exponent = -late["slope"]
    # indicative evidence only: finite box, finite horizon, fitted exponents
    ok = late_exponent >= predicted - 0.3 and report.predicted_exponent == predicted
    _report(
        12,
        "perturbed-decay-indicative",
        ok,
        f"eps_meas {report.epsilon_measured:.3f}, predicted exponent {predicted:.2f}, "
        f"late-time measured {late_exponent:.3f} (>= predicted - 0.3); "
        f"budgets: wrap tail {report.budgets['box_wrap_tail']:.1e}, "
        f"mass/L {report.budgets['mass_over_L']:.1e}",
    )
