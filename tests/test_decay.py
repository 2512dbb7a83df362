import json
import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import bolab.cutoffs
from bolab.decay import (
    EXPERIMENT_DEFAULTS,
    DecayReport,
    ExperimentConfig,
    SnapshotTables,
    bootstrap_iteration_count,
    bootstrap_predict,
    contamination_time,
    lowfreq_decay_check,
    measure_epsilon,
    run,
)
from bolab.errors import AcceptanceFailure, ConfigError, DegenerateSeriesError
from bolab.files import merge_config
from bolab.grid import Field, Grid
from bolab.kernels import fit_decay
from bolab.normal_form import Bundle, gauge_polynomial, transform
from bolab.pseudoproduct import BandKernel, assemble_B
from bolab.solver import SolverState, dump_snapshot, evolve, soliton
from bolab.spectral import (
    coeffs_of,
    fft_ordered,
    lp_partition_bounds,
    lp_project,
    lp_values,
    samples_of,
    spatial_cutoff_values,
    weighted_shell_sup,
)
from bolab.testing import antiderivative_mean_removed, random_band_limited


# ---------------------------------------------------------------------------
# bootstrap arithmetic
# ---------------------------------------------------------------------------


def test_bootstrap_predict_values():
    assert bootstrap_predict(0.5) == 1.75
    assert bootstrap_predict(1.0) == 2.0
    assert bootstrap_predict(2.0) == 2.0  # capped
    with pytest.raises(ValueError):
        bootstrap_predict(0.0)


def test_bootstrap_iteration_count_matches_oracle():
    # oracle: iterate the exponent map directly and count until it reaches 2
    def oracle(eps):
        count, exponent = 0, 1.0 + eps
        while exponent < 2.0:
            exponent = min(1.0 + 1.5 * (exponent - 1.0), 2.0)
            count += 1
        return count

    for eps in (0.1, 0.25, 0.5, 0.9, 1.0):
        assert bootstrap_iteration_count(eps) == oracle(eps)
    # geometric growth 1.5^n * 0.1 >= 1 first at n = 6
    assert bootstrap_iteration_count(0.1) == 6
    # an excess that rounds away in 1 + eps has no pass to grow it, and raises
    with pytest.raises(ValueError, match="must be positive"):
        bootstrap_iteration_count(1e-17)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        merge_config(EXPERIMENT_DEFAULTS, {"n_points": 256, "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig(initial={"kind": "soliton", "what": 2})
    with pytest.raises(ConfigError):
        ExperimentConfig(sponge={"enabled": True, "oops": 0.1})


def test_config_rejects_oversized_shells():
    with pytest.raises(ConfigError):
        ExperimentConfig(box_length=100.0, shells=[2.0, 7.0])


def test_readme_config_block_is_the_experiment_defaults():
    # the README's "Config format" schema is the one `evolve` and `measure-decay` merge over
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == EXPERIMENT_DEFAULTS


def test_config_round_trip():
    cfg = ExperimentConfig(n_points=512, box_length=200.0, t_final=1.0)
    again = ExperimentConfig(**asdict(cfg))
    assert asdict(again) == asdict(cfg)


def test_initial_field_kinds():
    cfg = ExperimentConfig(n_points=512, box_length=200.0)
    s = cfg.initial_field()
    assert abs(s.samples.max() - 2.0) < 1e-12
    zero = ExperimentConfig(
        n_points=512, box_length=200.0, initial={"kind": "zero"}
    ).initial_field()
    assert zero.sup_norm() == 0.0
    bump_cfg = ExperimentConfig(
        n_points=512,
        box_length=200.0,
        initial={
            "kind": "soliton_bump",
            "c": 1.0,
            "x0": 0.0,
            "bump_amplitude": 0.05,
            "bump_width": 1.0,
            "bump_center": 2.0,
        },
    )
    wb = bump_cfg.initial_field()
    assert wb.sup_norm() > s.sup_norm()


def _epsilon_of_field(w: Field, shells: list[float]) -> float:
    """The measured epsilon as computed from a field before ``measure_epsilon`` took
    the report's t = 0 fit row: its own weights, positive sups and fit (the oracle)."""
    sups = weighted_shell_sup(w, shells)
    pairs = [(j, v["+"]) for j, v in sups.items() if v["+"] > 0.0]
    if len(pairs) < 4:
        return 0.05
    return float(np.clip(-fit_decay(pairs).slope - 1.0, 0.05, 1.0))


def test_epsilon_measurement_clamped():
    g = Grid(2048, 400.0)
    shells = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]

    def fit_row(w):
        sups = weighted_shell_sup(w, shells)
        return {"slope": fit_decay([(j, v["+"]) for j, v in sups.items()]).slope}

    eps = measure_epsilon(fit_row(soliton(1.0, 0.0, g)))
    assert 0.9 <= eps <= 1.0  # soliton decays one power above the hypothesis
    flat = Field(g, np.ones(g.n_points))
    assert measure_epsilon(fit_row(flat)) == 0.05  # clamped from below
    assert measure_epsilon(None) == 0.05  # no fit: fewer than four positive shells


def test_contamination_time_policy():
    cfg = ExperimentConfig(n_points=512, box_length=400.0)
    t3 = contamination_time(cfg, 3.0)
    t5 = contamination_time(cfg, 5.0)
    assert t3 > t5 > 0.0  # outer shells are reached sooner
    assert t3 == (400.0 - 2.0**4) / 1.0


# ---------------------------------------------------------------------------
# runs and reports
# ---------------------------------------------------------------------------


def _small_config(**kw):
    base = dict(
        n_points=2048,
        box_length=400.0,
        t_final=0.2,
        dt=2e-3,
        snapshot_stride=50,
        shells=[2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5],
    )
    base.update(kw)
    return ExperimentConfig(**base)


ORACLE_CONFIGS = {
    "soliton": {},
    "bump_sponge_gauge": {
        "initial": {"kind": "soliton_bump", "bump_amplitude": 0.05, "bump_center": 2.0},
        "sponge": {"enabled": True},
        "gauge": {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]},
    },
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_report_numbers_match_their_formulas_on_the_initial_field(name):
    # epsilon, the mass budget and the contamination horizons, bit for bit as
    # measured on the initial field by the formulas the run no longer repeats
    cfg = _small_config(**ORACLE_CONFIGS[name])
    rep = run(cfg)
    w0 = cfg.initial_field()
    grid = cfg.grid()
    assert rep.epsilon_measured == _epsilon_of_field(w0, cfg.shells)
    assert rep.predicted_exponent == bootstrap_predict(rep.epsilon_measured)
    assert rep.budgets["mass_over_L"] == float(grid.dx * np.sum(w0.samples)) / cfg.box_length
    assert rep.budgets["contamination_time"] == {
        f"{j}": contamination_time(cfg, j) for j in rep.shells}
    for j in rep.shells:
        assert rep.clean[f"{j}"] == [t <= contamination_time(cfg, j) for t in rep.times]


def test_flat_and_zero_fields_report_the_epsilon_floor(tmp_path):
    grid = Grid(2048, 400.0)
    path = str(tmp_path / "flat.bosnap")
    dump_snapshot(SolverState(w=Field(grid, np.ones(grid.n_points))), path)
    for initial in ({"kind": "file", "path": path}, {"kind": "zero"}):
        cfg = _small_config(initial=initial, t_final=0.02, snapshot_stride=5)
        rep = run(cfg)
        assert rep.epsilon_measured == 0.05
        assert rep.epsilon_measured == _epsilon_of_field(cfg.initial_field(), cfg.shells)


def test_zero_data_all_sups_zero_fits_skipped():
    rep = run(_small_config(initial={"kind": "zero"}))
    for sign in ("+", "-"):
        for series in rep.sup[sign].values():
            assert all(v == 0.0 for v in series)
    assert all(f["kind"] != "sup_plus" for f in rep.fits)
    chk = lowfreq_decay_check(rep)  # nothing to bound: vacuous pass
    assert chk.passed and chk.slope == 0.0


def test_lowfreq_check_needs_enough_clean_shells():
    rep = run(_small_config(shells=[2.5, 3.0, 3.5]))
    with pytest.raises(DegenerateSeriesError):
        lowfreq_decay_check(rep)


def test_soliton_run_exponent_and_report_shape():
    rep = run(_small_config())
    snap_fits = [f for f in rep.fits if f["kind"] == "sup_plus"]
    assert len(snap_fits) == len(rep.times)
    for f in snap_fits:
        assert abs(-f["slope"] - 2.0) < 0.1
    assert rep.predicted_exponent == 2.0
    assert len(rep.ledger) == len(rep.times)
    assert set(rep.budgets) >= {"box_wrap_tail", "contamination_time", "sponge",
                                "mass_over_L"}


def test_fit_rows_are_the_fits_of_their_clean_positive_sups():
    # a fast front leaves the last snapshots fewer than four clean shells: a
    # snapshot's row is fit_decay of its clean positive sup["+"] values, it has
    # none below four of them, and the aggregate row fits each shell's largest
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    sponge = {"enabled": True, "width_fraction": 0.1, "strength": 1.0}
    cfg = _small_config(snapshot_stride=5, front_speed=1950.0, gauge=gauge, sponge=sponge,
                        initial={"kind": "soliton_bump"})
    rep = run(cfg)
    sup = rep.sup["+"]
    for j in rep.shells:
        assert rep.clean[f"{j}"] == [t <= contamination_time(cfg, j) for t in rep.times]

    def row(pairs, time, kind):
        fit = fit_decay(pairs)
        return {"time": time, "kind": kind, "slope": fit.slope, "intercept": fit.intercept,
                "r_squared": fit.r_squared, "n_points": fit.n_points}

    expected, counts = [], []
    for i, t in enumerate(rep.times):
        pairs = [(j, sup[f"{j}"][i]) for j in rep.shells
                 if rep.clean[f"{j}"][i] and sup[f"{j}"][i] > 0.0]
        counts.append(len(pairs))
        if len(pairs) >= 4:
            expected.append(row(pairs, t, "sup_plus"))
    peaks = [(j, max(v for v, ok in zip(sup[f"{j}"], rep.clean[f"{j}"]) if ok and v > 0.0))
             for j in rep.shells]
    assert rep.fits == expected + [row(peaks, None, "aggregate_sup_plus")]
    assert counts[0] == 7 and any(0 < n < 4 for n in counts) and counts[-1] == 0


def test_report_json_csv_round_trip(tmp_path):
    rep = run(_small_config())
    jpath = os.path.join(tmp_path, "rep.json")
    cpath = os.path.join(tmp_path, "rep.csv")
    rep.to_json(jpath)
    rep.to_csv(cpath)
    back = DecayReport.from_json(jpath)
    assert back.times == rep.times
    assert back.sup == rep.sup
    assert back.fits == rep.fits
    with open(cpath) as fh:
        header = fh.readline().strip()
    assert header == "time,quantity,sign,shell,value"


def test_report_to_json_failure_leaves_previous_file(tmp_path):
    rep = DecayReport(config={}, times=[0.0], shells=[3.0], sup={}, lowpass_sup={},
                      bandsum_sup={}, gauge_sup={}, clean={}, fits=[], epsilon_measured=0.5,
                      predicted_exponent=1.75, budgets={}, ledger=[])
    path = tmp_path / "rep.json"
    rep.to_json(str(path))
    before = path.read_bytes()
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    assert path.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777
    rep.budgets = {"unserializable": object()}
    with pytest.raises(TypeError):
        rep.to_json(str(path))
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["plain.txt", "rep.json"]


def test_report_with_nan_is_refused_and_previous_file_kept(tmp_path):
    rep = run(_small_config())
    path = tmp_path / "rep.json"
    rep.to_json(str(path))
    before = path.read_bytes()
    rep.epsilon_measured = float("nan")
    with pytest.raises(AcceptanceFailure, match="non-finite"):
        rep.to_json(str(path))
    rep.epsilon_measured = 0.5
    rep.sup["+"]["3.0"][0] = float("inf")
    with pytest.raises(AcceptanceFailure):
        rep.to_json(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rep.json"]


def test_report_bitwise_reproducibility(tmp_path):
    paths = [tmp_path / f"rep{i}.json" for i in range(2)]
    for path in paths:
        run(_small_config()).to_json(str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gauge_band_measurement():
    rep = run(
        _small_config(
            n_points=2048,
            gauge={"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [1]},
        )
    )
    series = rep.gauge_sup["1"]
    assert set(series) == {f"{j}" for j in rep.shells}
    assert all(len(v) == len(rep.times) for v in series.values())
    assert max(max(v) for v in series.values()) > 0.0


def test_cutoff_tables_are_built_once_per_run(monkeypatch):
    # every smoothstep evaluation happens before the snapshot loop: a run
    # with 9 snapshots evaluates no more cutoffs than one with 3
    calls = []
    smoothstep = bolab.cutoffs.smoothstep

    def counted(t):
        calls.append(1)
        return smoothstep(t)

    monkeypatch.setattr(bolab.cutoffs, "smoothstep", counted)
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    counts = []
    for t_final in (0.04, 0.16):
        calls.clear()
        rep = run(_small_config(t_final=t_final, snapshot_stride=10, gauge=gauge))
        counts.append((len(rep.times), len(calls)))
    assert [n for n, _ in counts] == [3, 9]
    assert counts[0][1] == counts[1][1] > 0


def test_gauge_tables_reused_over_a_run_match_fresh_transform():
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    cfg = _small_config(t_final=0.06, snapshot_stride=10, gauge=gauge)
    rep = run(cfg)
    tables = SnapshotTables(cfg)
    snaps = evolve(cfg.solver_state(), cfg.t_final, snapshot_stride=cfg.snapshot_stride)
    assert [s.t for s in snaps] == rep.times and len(snaps) == 4
    g = cfg.grid()
    for i, snap in enumerate(snaps):
        c = coeffs_of(snap.w.samples, g)
        for k, kernel in tables.gauge.items():
            fresh = transform(snap.w, BandKernel(g, k, 4, 100.0)).v
            assert np.array_equal(Bundle(kernel, c, kernel.paraproduct(c, c)).v, fresh)
            for j in rep.shells:
                weights = spatial_cutoff_values(g, j, "+")
                assert rep.gauge_sup[f"{k}"][f"{j}"][i] == float(np.max(weights * np.abs(fresh)))


def test_resolved_gauge_low_pass_matches_the_field_by_field_transform():
    # 2^(k - 2 * 2) resolves lattice modes on (2048, 400), so phi_ll is not zero
    # and v = (u_k^+ + B_k(u, u)) E_N(phi_ll) takes the gauge polynomial
    gauge = {"enabled": True, "order": 2, "ll_factor": 2.0, "bands": [0, 1]}
    cfg = _small_config(gauge=gauge)
    tables = SnapshotTables(cfg)
    g, w = cfg.grid(), _soliton_bump(cfg)
    gauge_sups = _measured(tables, w)[3]
    phi = antiderivative_mean_removed(w)[0]
    for k in (0, 1):
        phi_ll = lp_project(phi, k - 4.0, "leq").samples
        assert np.max(np.abs(phi_ll)) > 1e-3 * phi.sup_norm()
        a = lp_project(w, k, "plus").samples + assemble_B(k, 2, w, w, 2.0).samples
        v_abs = np.abs(a * gauge_polynomial(2, phi_ll))
        for j in tables.shells:
            expected = float(np.max(spatial_cutoff_values(g, j, "+") * v_abs))
            assert abs(gauge_sups[k][j] - expected) <= 1e-12 * expected


def test_streamed_run_equals_in_process_evolve_and_measure():
    # the snapshots are measured as the solver yields them: every series and
    # the ledger equal an evolve followed by a measure, bit for bit
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    sponge = {"enabled": True, "width_fraction": 0.1, "strength": 1.0}
    cfg = _small_config(t_final=0.06, snapshot_stride=10, gauge=gauge, sponge=sponge,
                        initial={"kind": "soliton_bump"})
    rep = run(cfg)
    tables = SnapshotTables(cfg)
    snaps = evolve(cfg.solver_state(), cfg.t_final, snapshot_stride=cfg.snapshot_stride)
    measured = [_measured(tables, snap.w) for snap in snaps]
    assert rep.times == [snap.t for snap in snaps] and len(snaps) == 4
    for j in rep.shells:
        for sign in "+-":
            assert rep.sup[sign][f"{j}"] == [m[0][j][sign] for m in measured]
        assert rep.lowpass_sup[f"{j}"] == [m[1][j] for m in measured]
        assert rep.bandsum_sup[f"{j}"] == [m[2][j] for m in measured]
        for k in (0, 1):
            assert rep.gauge_sup[f"{k}"][f"{j}"] == [m[3][k][j] for m in measured]
    assert rep.ledger == [list(row) for row in snaps[-1].ledger]


def test_exception_while_measuring_propagates_and_leaves_no_process(monkeypatch):
    measure = SnapshotTables.measure
    failure = RuntimeError("measurement failed")
    calls = []

    def failing(self, w):
        calls.append(1)
        if len(calls) == 2:
            raise failure
        return measure(self, w)

    monkeypatch.setattr(SnapshotTables, "measure", failing)
    with pytest.raises(RuntimeError) as info:
        run(_small_config(t_final=0.2, snapshot_stride=10))
    assert info.value is failure and len(calls) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gauge_bands_sharing_the_paraproduct_match_fresh_transform():
    # three bands share one first paraproduct per snapshot, bit for bit
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1, 2]}
    cfg = _small_config(t_final=0.04, snapshot_stride=10, gauge=gauge)
    rep = run(cfg)
    tables = SnapshotTables(cfg)
    snaps = evolve(cfg.solver_state(), cfg.t_final, snapshot_stride=cfg.snapshot_stride)
    assert [s.t for s in snaps] == rep.times and len(snaps) == 3
    g = cfg.grid()
    for i, snap in enumerate(snaps):
        gauge_sups = _measured(tables, snap.w)[3]
        c = coeffs_of(snap.w.samples, g)
        shared = tables.gauge[0].paraproduct(c, c)
        for k, kernel in tables.gauge.items():
            fresh = transform(snap.w, BandKernel(g, k, 4, 100.0)).v
            assert np.array_equal(Bundle(kernel, c, shared).v, fresh)
            for j in rep.shells:
                weights = spatial_cutoff_values(g, j, "+")
                expected = float(np.max(weights * np.abs(fresh)))
                assert gauge_sups[k][j] == rep.gauge_sup[f"{k}"][f"{j}"][i] == expected


def test_gauge_snapshot_takes_one_paraproduct_of_length_2n(fft_lengths):
    # n = 4096, two gauge bands: 3 transforms of length 2n per snapshot (12
    # when each band made both of its paraproducts), and 7 of length n: one
    # forward transform, 2 irfft blocks of the 7 low-pass rows, 2 ifft blocks
    # of the 8 band rows and one inverse per gauge band (14 with a second
    # forward transform of the centered field, the round trip of phi and
    # three inverses per gauge band)
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    cfg = _small_config(n_points=4096, gauge=gauge)
    tables = SnapshotTables(cfg)
    w = _soliton_bump(cfg)
    fft_lengths.clear()
    tables.measure(w)
    assert fft_lengths.count(8192) == 3
    assert fft_lengths.count(4096) <= 7


def test_steady_gauge_snapshot_allocates_no_length_2n_array(fft_lengths):
    # the shared paraproduct forms its inputs and runs its 3 length-2n transforms
    # in the first gauge kernel's workspace, allocated by the first call and held:
    # one length-2n workspace per run, since the second band's own paraproduct
    # is empty at ll_factor 100
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    cfg = _small_config(n_points=4096, gauge=gauge)
    tables = SnapshotTables(cfg)
    w = _soliton_bump(cfg)
    first = tables.measure(w)
    workspace = tables.gauge[0]._work
    assert [kernel._work.shape for kernel in tables.gauge.values()] == [(2, 8192), (2, 0)]
    fft_lengths.clear()
    assert tables.measure(w) == first
    assert fft_lengths.count(8192) == 3
    assert all(out for length, out in zip(fft_lengths, fft_lengths.out) if length == 8192)
    assert tables.gauge[0]._work is workspace


def test_snapshot_field_sups_equal_weighted_shell_sup_bitwise(rng):
    # the row maxima of each sign's weight rows times the field's magnitude on the
    # window of that sign's supports are the floats of one weighted_sup of the whole
    # field per shell and sign
    cfg = _small_config()
    tables = SnapshotTables(cfg)
    for w in (_soliton_bump(cfg), random_band_limited(cfg.grid(), rng, 0.3)):
        assert _measured(tables, w)[0] == weighted_shell_sup(w, tables.shells)


def _soliton_bump(cfg):
    w = cfg.initial_field()
    return Field(w.grid, w.samples + 0.05 * np.exp(-((w.grid.x - 2.0) ** 2)))


def _measured(tables, w):
    """tables.measure(w) split into its series, in the CSV's block order: (sups[j][sign],
    lowpass[j], bandsum[j], gauge[k][j])."""
    values = iter(tables.measure(w))

    def series():
        return {j: next(values) for j in tables.shells}

    plus, minus, lowpass, bandsum = series(), series(), series(), series()
    gauge = {k: series() for k in tables.gauge}
    assert next(values, None) is None
    return {j: {"+": plus[j], "-": minus[j]} for j in tables.shells}, lowpass, bandsum, gauge


def test_snapshot_projections_match_per_row_transforms():
    # every row carries the inverse's factor, and the low-pass rows are real
    # inverses of the half spectrum of the uncentered field: each row, and the
    # sups measure() reports, match the per-row transforms to 1e-12 x the row's max
    cfg = _small_config(n_points=2048)
    tables = SnapshotTables(cfg)
    g, w = cfg.grid(), _soliton_bump(cfg)
    c = coeffs_of(w.samples, g)
    c_centered = coeffs_of(w.samples - np.mean(w.samples), g)
    # the bands of the full partition that some shell sums
    k_min, k_max = lp_partition_bounds(g)
    partition = range(k_min + 1, k_max + 1)
    assert tables.band_ks == [k for k in partition if k > min(tables.k0.values())]
    full = {k: np.abs(samples_of(lp_values(g, k, "plus") * c, g)) for k in partition}
    bands = [full[k] for k in tables.band_ks]
    lows = [np.abs(samples_of(lp_values(g, tables.k0[j], "leq") * c_centered, g))
            for j in tables.shells]
    cf = fft_ordered(c, g)
    for table, expected in ((tables.band_table, bands), (tables.low_table, lows)):
        rows = [np.abs(row) for row in tables._projected(table, cf)]
        assert len(rows) == len(expected)
        for row, ref in zip(rows, expected):
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(ref)
    # and measure() reports them as the per-row transforms give them
    _, lowpass, bandsum, _ = _measured(tables, w)
    window = tables.windows["+"]
    for j, weight, low in zip(tables.shells, tables.weights["+"], lows):
        assert abs(lowpass[j] - float(np.max(weight * low[window]))) <= 1e-12 * np.max(low)
        summed = [mags for k, mags in full.items() if k > tables.k0[j]]
        total = np.sum([mags[window] for mags in summed], axis=0)
        bound = 1e-12 * sum(np.max(mags) for mags in summed)
        assert abs(bandsum[j] - float(np.max(weight * total))) <= bound


def test_snapshot_series_equal_the_weighted_sups_of_their_rows_bitwise():
    # each of the four series is, bit for bit, the sup over the whole grid of the
    # shell cutoff times the magnitude of its row: the field, each low-pass row,
    # each shell's sum of the band rows above k0(j) in increasing k, and each
    # gauge band's v; the weight rows are the cutoffs on their sign's window
    gauge = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    cfg = _small_config(gauge=gauge)
    tables = SnapshotTables(cfg)
    g, w = cfg.grid(), _soliton_bump(cfg)
    sups, lowpass, bandsum, gauge_sups = _measured(tables, w)

    def sup(j, sign, x):
        return float(np.max(spatial_cutoff_values(g, j, sign) * np.abs(x)))

    for sign in "+-":
        window = tables.windows[sign]
        for j, weight in zip(tables.shells, tables.weights[sign]):
            cutoff = spatial_cutoff_values(g, j, sign)
            assert np.array_equal(cutoff[window], weight)
            assert not cutoff[:window.start].any() and not cutoff[window.stop:].any()
            assert sups[j][sign] == sup(j, sign, w.samples)
    c = coeffs_of(w.samples, g)
    cf = fft_ordered(c, g)
    lows = [row.copy() for row in tables._projected(tables.low_table, cf)]
    bands = np.array([np.abs(row) for row in tables._projected(tables.band_table, cf)])
    for j, low in zip(tables.shells, lows):
        assert lowpass[j] == sup(j, "+", low)
        above = [k > tables.k0[j] for k in tables.band_ks]
        assert bandsum[j] == sup(j, "+", np.sum(bands[above], axis=0))
    shared = tables.gauge[0].paraproduct(c, c)
    assert sorted(gauge_sups) == [0, 1]
    for k, kernel in tables.gauge.items():
        v = Bundle(kernel, c, shared).v
        assert gauge_sups[k] == {j: sup(j, "+", v) for j in tables.shells}


def test_snapshot_measurement_memory_is_bounded():
    # the projections go through a work buffer of at most 4 rows, built with
    # the tables: stacking all 10 summed band rows of n = 16384 at once would
    # take 10 * 256 KiB = 2.5 MiB
    cfg = _small_config(n_points=16384)
    tables = SnapshotTables(cfg)
    w = _soliton_bump(cfg)
    tables.measure(w)
    tracemalloc.start()
    try:
        tables.measure(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables.band_ks) == 10
    assert tables._work.nbytes <= 4 * 16 * cfg.n_points
    assert peak < 1.5 * 2**20


def test_shell_sup_triangle_audits():
    cfg = _small_config(n_points=2048)
    rep = run(cfg)
    g = cfg.grid()
    w = cfg.initial_field()
    eps = cfg.epsilon_assumed
    c = coeffs_of(w.samples, g)
    from bolab.spectral import lp_partition_bounds

    k_min, k_max = lp_partition_bounds(g)
    j = 4.0
    weights = spatial_cutoff_values(g, j, "+")
    k0 = -(1.0 - eps) / 2.0 * j
    # sum of per-band sups dominates the sup of the band sum
    per_band = 0.0
    total = np.zeros(g.n_points)
    for k in range(k_min + 1, k_max + 1):
        if k > k0:
            mags = np.abs(samples_of(lp_values(g, k, "plus") * c, g))
            per_band += float(np.max(weights * mags))
            total += mags
    band_sum_sup = float(np.max(weights * total))
    assert per_band >= band_sum_sup - 1e-12
    # and the band sum dominates (full - mean - low-pass)/2
    w0 = Field(g, w.samples - np.mean(w.samples))
    lp = lp_project(w0, k0, "leq")
    remainder = np.abs(w.samples - np.mean(w.samples) - lp.samples.real)
    assert band_sum_sup >= float(np.max(weights * remainder)) / 2.0 - 1e-10


def test_lowfreq_decay_check_soliton():
    # initial-data check on a large box: the low-pass inherits the profile's
    # decay up to cutoff tails (spec target: slope <= -1.7 for the soliton)
    cfg = ExperimentConfig(
        n_points=16384,
        box_length=3200.0,
        t_final=0.1,
        dt=0.05,
        snapshot_stride=1,
        shells=[3.5, 4.0, 4.5, 5.0, 5.5],
    )
    rep = run(cfg)
    chk = lowfreq_decay_check(rep)
    assert chk.target == -2.0
    assert chk.passed
    assert chk.slope <= -1.7


def test_lowfreq_check_bump_baseline():
    # unevolved bump data: the check reflects the data's own decay
    cfg = ExperimentConfig(
        n_points=16384,
        box_length=3200.0,
        t_final=0.1,
        dt=0.05,
        snapshot_stride=1,
        shells=[3.5, 4.0, 4.5, 5.0, 5.5],
        initial={"kind": "soliton_bump", "c": 1.0, "x0": 0.0,
                 "bump_amplitude": 0.05, "bump_width": 1.0, "bump_center": 2.0},
    )
    rep = run(cfg)
    chk = lowfreq_decay_check(rep)
    assert chk.passed
