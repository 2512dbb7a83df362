import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bolab import cutoffs, kernels
from bolab.errors import DegenerateSeriesError, KernelDomainError, QuadratureWarning
from bolab.kernels import (
    KernelSpec,
    QuadResult,
    _prefactor,
    fit_decay,
    kernel_sup,
    phase_integral,
    rows_to_csv,
    sweep,
)


def kernel_value(spec, x, y):
    """The full localized kernel K(x, y), spatial cutoffs and i^a / 2 pi
    included, at one point."""
    pre = complex(_prefactor(spec, x, y))
    if pre == 0.0:
        return QuadResult(value=0.0 + 0.0j, error=0.0, converged=True)
    inner = phase_integral(spec, x, y)
    return QuadResult(value=pre * inner.value, error=abs(pre) * inner.error,
                      converged=inner.converged)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_parameters():
    # the right-moving low-frequency and Schroedinger variants are not kernels
    for variant in ("nonsense", "lowfreq-right", "schro-right"):
        with pytest.raises(KernelDomainError, match="unknown variant"):
            KernelSpec(variant=variant, j=1.0, t=100.0, k=0.0, ell=0.0)
    with pytest.raises(KernelDomainError):
        KernelSpec(variant="lowfreq-left", j=-1.0, t=1.0)
    with pytest.raises(KernelDomainError):
        KernelSpec(variant="lowfreq-left", j=1.0, t=1.0, epsilon=1.5)
    with pytest.raises(KernelDomainError):
        KernelSpec(variant="dyadic-left", j=1.0, t=1.0)  # missing k
    with pytest.raises(KernelDomainError, match="time must be nonnegative"):
        KernelSpec(variant="lowfreq-left", j=1.0, t=-1.0)
    with pytest.raises(KernelDomainError, match="require a source shell ell"):
        KernelSpec(variant="dyadic-right", j=2.0, t=100.0, k=0.0)
    # xi^-1 is not integrable across xi = 0
    with pytest.raises(KernelDomainError, match="a must be nonnegative, got -1"):
        KernelSpec(variant="lowfreq-left", j=1.0, t=1.0, a=-1)


@pytest.mark.parametrize("field, value, params", [
    ("j", 2000.0, dict(variant="lowfreq-left", t=4.0)),
    ("j", 500.5, dict(variant="lowfreq-left", t=4.0)),
    ("k", -5000.0, dict(variant="dyadic-left", j=3.0, t=4.0)),
    ("ell", 1e6, dict(variant="dyadic-right", j=2.0, t=46.0, k=0.0)),
])
def test_spec_rejects_an_index_whose_scale_overflows(field, value, params):
    # 2^(j + 1), 4^k and 2^(ell + 10) would overflow (or 2^k underflow to 0)
    with pytest.raises(KernelDomainError, match=re.escape(f"{field} = {value:g} lies outside")):
        KernelSpec(**params, **{field: value})


def test_spec_takes_indices_up_to_the_bound():
    assert KernelSpec(variant="lowfreq-left", j=kernels.INDEX_MAX, t=4.0).shell_window()[1] > 0
    spec = KernelSpec(variant="dyadic-left", j=3.0, t=4.0, k=-kernels.INDEX_MAX)
    assert spec.frequency_range()[1] > 0


def test_right_variant_time_threshold_guarded():
    # below the admissible time the spec must refuse to evaluate
    with pytest.raises(KernelDomainError):
        KernelSpec(variant="dyadic-right", j=2.0, t=10.0, k=0.0, ell=-4.0)
    # the threshold is 2^(ell + 10) / <2^k> = 64 / sqrt(2) = 45.25...
    with pytest.raises(KernelDomainError, match="below the admissible threshold"):
        KernelSpec(variant="dyadic-right", j=2.0, t=45.0, k=0.0, ell=-4.0)
    # and ell must exceed j - 10
    with pytest.raises(KernelDomainError):
        KernelSpec(variant="dyadic-right", j=12.0, t=1e6, k=0.0, ell=1.0)
    ok = KernelSpec(variant="dyadic-right", j=2.0, t=50.0, k=0.0, ell=-4.0)
    assert ok.time_threshold() < 50.0


def test_k0_formula():
    spec = KernelSpec(variant="lowfreq-left", j=4.0, t=1.0, epsilon=0.5)
    assert spec.k0 == -(1.0 - 0.5) / 2.0 * 4.0


# ---------------------------------------------------------------------------
# the oscillatory integral
# ---------------------------------------------------------------------------


def test_static_integral_is_cutoff_area():
    # t = 0, a = 0, x = y: the integral collapses to the cutoff area, which
    # sits between the plateau and support widths
    spec = KernelSpec(variant="lowfreq-left", j=4.0, t=0.0, a=0, epsilon=0.5)
    res = phase_integral(spec, 1.0, 1.0)
    k0 = spec.k0
    assert res.converged
    assert abs(res.value.imag) < 1e-12
    assert 2.0 ** (k0 + 1) <= res.value.real <= 2.0 ** (k0 + 2)


def test_indicator_cutoff_reproduces_sinc():
    spec = KernelSpec(variant="lowfreq-left", j=4.0, t=0.0, a=0)
    a_width = 1.5
    for x, y in [(3.0, 1.0), (5.5, -2.0), (2.0, 2.0)]:
        res = phase_integral(
            spec,
            x,
            y,
            cutoff_override=lambda xi: (np.abs(xi) <= a_width).astype(float),
            range_override=(-a_width, a_width),
        )
        z = a_width * (x - y)
        expect = 2.0 * a_width * (np.sinc(z / np.pi) if z != 0 else 1.0)
        assert abs(res.value - expect) < 1e-9


def test_phase_nonstationary_on_left_source():
    spec = KernelSpec(variant="lowfreq-left", j=5.0, t=3.0, a=1, epsilon=0.5)
    xi = np.linspace(-2.0 ** (spec.k0 + 1), 2.0 ** (spec.k0 + 1), 257)
    for x in np.linspace(2.0**4, 2.0**6, 7):
        for y in np.linspace(-(2.0**6), 2.0 ** (5 - 9), 7):
            assert np.min(spec.phase_derivative(xi, float(x), float(y))) > 0.0


def test_kernel_value_vanishes_off_support():
    spec = KernelSpec(variant="lowfreq-left", j=4.0, t=1.0, a=0)
    res = kernel_value(spec, 1.0, 0.0)  # x below the shell
    assert res.value == 0.0 and res.converged


def test_quadrature_refinement_stability():
    spec = KernelSpec(variant="lowfreq-left", j=3.0, t=8.0, a=1, quad_tol=1e-10)
    loose = kernel_sup(spec, nx=4, ny=4)
    tight = kernel_sup(
        KernelSpec(variant="lowfreq-left", j=3.0, t=8.0, a=1, quad_tol=5e-11),
        nx=4,
        ny=4,
    )
    assert abs(loose.sup - tight.sup) <= 1e-8 * max(loose.sup, tight.sup)


def test_schroedinger_reduction_identity():
    # positive-half-line band: drifting dispersive phase equals the
    # Schroedinger-with-drift phase
    bo = KernelSpec(variant="dyadic-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12)
    sch = KernelSpec(variant="schro-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12)
    cut = lambda xi: cutoffs.shell(1.0, xi)
    for x, y in [(5.0, -1.0), (10.0, 0.01), (14.0, -3.5)]:
        v_bo = phase_integral(bo, x, y, cutoff_override=cut, range_override=(0.5, 4.0))
        v_sch = phase_integral(sch, x, y)
        assert abs(v_bo.value - v_sch.value) < 1e-10


def _quad_oracle(spec, x, y, epsabs):
    """Adaptive Gauss-Kronrod (scipy quad) on each side of xi = 0, real and
    imaginary parts separately, with a per-point Python integrand."""
    from scipy.integrate import quad

    cut = spec.frequency_cutoff()
    lo, hi = spec.frequency_range()
    pieces = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]

    def f(xi):
        phase = xi * (x - y + spec.t) + spec.dispersive_phase(xi)
        return np.exp(1j * phase) * float(cut(np.asarray(xi))) * xi**spec.a

    total = 0.0j
    for a_, b_ in pieces:
        for part, unit in ((lambda xi: f(xi).real, 1.0), (lambda xi: f(xi).imag, 1j)):
            total += unit * quad(part, a_, b_, epsabs=epsabs, epsrel=0.0, limit=20000)[0]
    return total


def _integrand_scale(spec):
    lo, hi = spec.frequency_range()
    xi = np.linspace(lo, hi, 257)
    return float(np.max(np.abs(spec.frequency_cutoff()(xi) * xi**spec.a)) * (hi - lo))


#: (spec, sample points) of the rule's oracle tests: both half-lines, a late
#: time, a far shell, the right variant and the Schroedinger half-line band
ORACLE_CASES = [
    (KernelSpec(variant="lowfreq-left", j=0.0, t=16.0, a=1, quad_tol=1e-12),
     [(0.5, -2.0), (2.0, 2.0**-9), (1.25, -1.0)]),
    (KernelSpec(variant="lowfreq-left", j=0.0, t=2048.0, a=1, quad_tol=1e-12),
     [(2.0, 2.0**-9)]),
    (KernelSpec(variant="lowfreq-left", j=5.0, t=4.0, a=1, quad_tol=1e-12),
     [(40.0, 2.0**-4)]),
    (KernelSpec(variant="dyadic-right", j=2.0, t=233.0, a=1, k=0.0, ell=-4.0,
                quad_tol=1e-12), [(2.0, 0.125), (8.0, 0.03125)]),
    (KernelSpec(variant="schro-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12),
     [(16.0, -4.0)]),
]


@pytest.mark.parametrize("spec, points", ORACLE_CASES)
def test_batched_rule_matches_quad_oracle(spec, points):
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    res = phase_integral(spec, xs, ys)
    assert res.converged and res.value.shape == xs.shape
    tol = spec.quad_tol * _integrand_scale(spec)
    for value, (x, y) in zip(res.value, points):
        assert abs(value - _quad_oracle(spec, x, y, 0.1 * tol)) <= tol


def _panel_calls(monkeypatch) -> list[tuple[float, float, int]]:
    """The (a, b, panels) of each rule ``phase_integral`` evaluates from now on."""
    calls = []
    panel_rule = kernels._panel_rule

    def recorded(a, b, panels):
        calls.append((a, b, panels))
        return panel_rule(a, b, panels)

    monkeypatch.setattr(kernels, "_panel_rule", recorded)
    return calls


def _direct_rule(spec, d, a, b, panels):
    """The composite rule on [a, b] as one product exp(i outer(d, xi)) @ amp,
    one exponential per point and node, at the nodes, weights and amplitudes
    of ``kernels.phase_integral``."""
    mid, offsets, weights = kernels._panel_rule(a, b, panels)
    xi = (mid[:, None] + offsets).ravel()
    amp = (np.tile(weights, panels) * spec.frequency_cutoff()(xi) * xi**spec.a
           * np.exp(1j * spec.dispersive_phase(xi)))
    return np.exp(1j * np.outer(d, xi)) @ amp


@pytest.mark.parametrize("spec, points", ORACLE_CASES)
def test_factored_rule_matches_direct_rule(spec, points, monkeypatch):
    # the per-panel factoring exp(i d m_p) exp(i d s_g) of exp(i d xi) moves the
    # result by roundoff only; compared at the panels the refinement settled on
    calls = _panel_calls(monkeypatch)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    res = phase_integral(spec, xs, ys)
    final = {(a, b): panels for a, b, panels in calls}  # each piece's last rule
    direct = sum(_direct_rule(spec, xs - ys + spec.t, a, b, panels)
                 for (a, b), panels in final.items())
    assert len(final) in (1, 2)
    assert np.max(np.abs(res.value - direct)) <= 1e-13 * _integrand_scale(spec)


def test_rule_takes_one_exponential_per_point_and_panel(monkeypatch):
    # D (P + 16) phase exponentials per rule (16 offsets and P midpoints per
    # point) and 16 P for the amplitudes, where one exponential per point and
    # node took 16 D P; real exponentials (the cutoffs) are not counted
    counted = [0]
    exp = np.exp

    def counting_exp(z, *args, **kwargs):
        out = exp(z, *args, **kwargs)
        if np.iscomplexobj(out):
            counted[0] += np.size(out)
        return out

    spec, points = ORACLE_CASES[0]
    calls = _panel_calls(monkeypatch)
    monkeypatch.setattr(np, "exp", counting_exp)
    phase_integral(spec, np.array([p[0] for p in points]), np.array([p[1] for p in points]))
    monkeypatch.undo()
    d = len(points)
    assert [panels for *_, panels in calls] == [10, 21, 42, 10, 21, 42]
    assert counted[0] == sum(d * (panels + 16) + 16 * panels for *_, panels in calls) == 3062


def test_nonconvergence_is_flagged(monkeypatch):
    monkeypatch.setattr(kernels, "QUAD_LIMIT", 8)
    spec = KernelSpec(variant="lowfreq-left", j=0.0, t=2048.0, a=1, quad_tol=1e-12)
    with pytest.warns(QuadratureWarning, match="did not converge"):
        res = phase_integral(spec, np.array([0.5, 2.0]), np.array([-2.0, 0.0]))
    assert res.converged is False
    with pytest.warns(QuadratureWarning):
        rows = sweep([replace(spec, t=t) for t in (1024.0, 2048.0)], nx=3, ny=3)
    assert [r["quad_flag"] for r in rows] == [1, 1]


def test_scalar_kernel_value_matches_batched_sup():
    spec = KernelSpec(variant="dyadic-right", j=2.0, t=69.0, a=1, k=0.0, ell=-4.0,
                      quad_tol=1e-12)
    sup = kernel_sup(spec, nx=5, ny=5)
    single = kernel_value(spec, sup.arg_x, sup.arg_y)
    assert sup.all_converged and single.converged
    assert isinstance(single.value, complex) and isinstance(single.error, float)
    assert abs(abs(single.value) - sup.sup) <= 1e-12 * _integrand_scale(spec)


def test_kernel_modules_do_not_import_scipy_integrate():
    code = ("import sys, bolab.cli, bolab.decay, bolab.kernels; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_exact_power_law():
    pairs = [(j, 2.0 ** (-2 * j)) for j in range(3, 9)]
    fit = fit_decay(pairs)
    assert abs(fit.slope + 2.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_constant_series():
    fit = fit_decay([(j, 0.25) for j in range(5)])
    assert abs(fit.slope) < 1e-12


def test_fit_rejects_degenerate_series():
    with pytest.raises(DegenerateSeriesError):
        fit_decay([(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)])  # too short
    with pytest.raises(DegenerateSeriesError, match="distinct"):
        fit_decay([(3.0, 1e-3), (3.0, 1e-3), (3.0, 2e-3), (3.0, 1e-3)])  # one parameter
    with pytest.raises(DegenerateSeriesError):
        fit_decay([(1.0, 1.0), (2.0, 0.5), (3.0, 0.0), (4.0, 0.1)])  # zero value


def test_fit_soliton_shell_sups():
    from bolab.grid import Grid
    from bolab.solver import soliton
    from oracles import weighted_shell_sup

    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    sups = weighted_shell_sup(s, [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5])
    fit = fit_decay([(j, v["+"]) for j, v in sups.items()])
    assert abs(fit.slope + 2.0) < 0.1


# ---------------------------------------------------------------------------
# sweeps (small, fast versions; the full criteria live in the acceptance run)
# ---------------------------------------------------------------------------


def test_sweep_rows_and_csv(tmp_path):
    spec = KernelSpec(variant="lowfreq-left", j=1.0, t=4.0, a=1, quad_tol=1e-10)
    rows = sweep([replace(spec, t=t) for t in (4.0, 8.0)], nx=3, ny=3)
    assert len(rows) == 2 and rows[0]["sup"] > rows[1]["sup"] > 0.0
    rows += sweep([replace(spec, j=j) for j in (2.0, 3.0)], nx=3, ny=3)
    path = str(tmp_path / "rows.csv")
    rows_to_csv(rows, path)
    lines = (tmp_path / "rows.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,j,k,a,ell,t,sup,quad_flag"
    assert len(lines) == 5
