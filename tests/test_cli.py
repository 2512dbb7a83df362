import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bolab.decay
import bolab.kernels
import bolab.solver
from bolab.cli import apply_overrides, config_hash, main, write_manifest
from bolab.decay import DecayReport, lowfreq_decay_check
from bolab.errors import AcceptanceFailure, ConfigError, SolverInstabilityError
from bolab.files import read_json_object
from bolab.grid import Field, Grid
from bolab.solver import (SolverState, SpongeConfig, dump_snapshot, evolve, ledger_to_csv,
                          soliton)
from bolab.spectral import spatial_cutoff_values

#: an integer too large for a double, and one of more digits than Python parses
HUGE, TOO_LONG = str(10**400), "1" + "0" * 5000

SMALL_DECAY = ("n_points=512", "box_length=200.0", "t_final=0.01", "dt=0.01",
               "shells=[2.0, 2.5, 3.0, 3.5]")


def _measure_decay(out, *overrides):
    args = ["measure-decay", "--output-dir", str(out)]
    for override in (*SMALL_DECAY, *overrides):
        args += ["--override", override]
    return main(args)


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["evolve", "--config", str(tmp_path / "nope.json"),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["measure-decay", "--config", str(bad), "--output-dir", str(tmp_path)])
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_points": 512, "box_length": 200.0, "mystery": 1}))
    code = main(["measure-decay", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_override_parsing():
    cfg = {"a": 1, "nested": {"b": 2}}
    out = apply_overrides(cfg, ["a=5", "nested.b=[1,2]", "nested.c=hello"])
    assert out["a"] == 5
    assert out["nested"]["b"] == [1, 2]
    assert out["nested"]["c"] == "hello"
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["novalue"])


def test_config_round_trip(tmp_path):
    payload = {"n_points": 512, "box_length": 200.0, "t_final": 0.1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    loaded = read_json_object(str(path), "config")
    assert json.loads(json.dumps(loaded, sort_keys=True)) == payload


def test_verify_normal_form_pass_and_manifest(tmp_path):
    out = tmp_path / "nf"
    code = main([
        "verify-normal-form", "--output-dir", str(out),
        "--override", "n_points=256",
        "--override", "trials_per_case=1",
        "--override", "bands=[1,2]",
        "--override", "orders=[2]",
    ])
    assert code == 0
    table = (out / "normal_form_residuals.csv").read_text().strip().split("\n")
    assert table[0] == "k,N,trial,residual,scale,relative,pass"
    assert len(table) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify-normal-form"
    assert "normal_form_residuals.csv" in manifest["outputs"]


def test_verify_normal_form_counts_each_fields_band_edge_warnings(tmp_path, capsys):
    # 2^(6+1) reaches the default grid's Nyquist (128): each of band 6's 2 x 5
    # fields warns once at each of its two P_k^+, though the fields of a case
    # go through the generator as one stack
    out = tmp_path / "edge"
    assert main(["verify-normal-form", "--output-dir", str(out),
                 "--override", "bands=[5,6]"]) == 0
    assert json.loads((out / "manifest.json").read_text())["warnings"] == {"BandEdgeWarning": 20}
    assert "warnings: 20 BandEdgeWarning" in capsys.readouterr().err


def test_verify_normal_form_fault_injection_exits_3(tmp_path, capsys):
    code = main([
        "verify-normal-form", "--output-dir", str(tmp_path / "bug"),
        "--override", "n_points=256",
        "--override", "trials_per_case=1",
        "--override", "bands=[1]",
        "--override", "orders=[4]",
        "--inject-symbol-bug",
    ])
    assert code == 3
    assert "residual" in capsys.readouterr().err


def test_verify_normal_form_fails_a_band_with_nothing_to_cancel(tmp_path, capsys):
    # chi_9^+ has no mode below the default grid's Nyquist (128): every
    # generator term is zero, and a zero residual of nothing is no pass; the
    # same for a band whose 2^k overflows or underflows
    for band in (9, 5000, -5000):
        out = tmp_path / f"k{band}"
        code = main(["verify-normal-form", "--output-dir", str(out),
                     "--override", f"bands=[{band}]", "--override", "trials_per_case=1"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"nothing to cancel at (k, N) = ({band}, 2), ({band}, 4)" in err
        assert "Traceback" not in err
        table = (out / "normal_form_residuals.csv").read_text().strip().split("\n")
        assert table[1:] == [f"{band},2,0,0.0,0.0,0.0,0", f"{band},4,0,0.0,0.0,0.0,0"]
        assert not (out / "manifest.json").exists()


def test_verify_normal_form_fails_a_band_beyond_the_products_of_its_fields(tmp_path, capsys):
    # the fields stop at 0.25 * Nyquist = 32, so their products stop at 64,
    # where chi_7^+ (support (64, 256)) starts: its terms and residuals are
    # roundoff, and pass no check however they compare
    code = main(["verify-normal-form", "--output-dir", str(tmp_path),
                 "--override", "bands=[7]", "--override", "trials_per_case=1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "nothing to cancel at (k, N) = (7, 2), (7, 4): the band misses every grid mode" in err
    table = (tmp_path / "normal_form_residuals.csv").read_text().strip().split("\n")
    assert [row.split(",")[:3] for row in table[1:]] == [["7", "2", "0"], ["7", "4", "0"]]
    assert all(row.endswith(",0") for row in table[1:])


def test_manifest_determinism(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "verify-normal-form", "--output-dir", str(out),
            "--override", "n_points=256",
            "--override", "trials_per_case=1",
            "--override", "bands=[1]",
            "--override", "orders=[2]",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        hashes.append((manifest["config_hash"], manifest["outputs"]))
    assert hashes[0] == hashes[1]


def test_evolve_and_report_pipeline(tmp_path, capsys):
    cfg = {
        "n_points": 512,
        "box_length": 200.0,
        "t_final": 0.05,
        "dt": 0.01,
        "snapshot_stride": 5,
        "shells": [2.0, 2.5, 3.0, 3.5, 4.0],
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    out_e = tmp_path / "evolve"
    assert main(["evolve", "--config", str(cfg_path), "--output-dir", str(out_e)]) == 0
    snaps = sorted(p for p in os.listdir(out_e) if p.endswith(".bosnap"))
    assert len(snaps) == 2  # t = 0 and t = 0.05
    assert (out_e / "ledger.csv").exists()

    out_m = tmp_path / "measure"
    assert main(["measure-decay", "--config", str(cfg_path), "--output-dir", str(out_m)]) == 0
    assert (out_m / "decay_report.json").exists()

    out_r = tmp_path / "report"
    code = main([
        "report", "--input", str(out_m / "decay_report.json"),
        "--output-dir", str(out_r),
    ])
    assert code == 0
    assert (out_r / "decay_report.csv").exists()
    check = lowfreq_decay_check(DecayReport.from_json(str(out_m / "decay_report.json")))
    line = f"low-frequency bound: slope {check.slope:.3f}, target {check.target:.3f}, "
    assert line + ("pass" if check.passed else "FAIL") in capsys.readouterr().out


def test_report_prints_na_when_the_lowfreq_series_is_degenerate(tmp_path, capsys):
    # three shells: too few for the low-frequency fit, which needs four
    assert _measure_decay(tmp_path, "shells=[2.0, 2.5, 3.0]") == 0
    code = main(["report", "--input", str(tmp_path / "decay_report.json"),
                 "--output-dir", str(tmp_path / "report")])
    assert code == 0
    # the message is fit_decay's, the one home of the four-point minimum
    assert ("low-frequency bound: n/a (need points at 4 or more distinct parameters, got 3)"
            in capsys.readouterr().out)


def test_report_holds_the_lowfreq_sups_against_the_box_mean_floor(tmp_path, capsys):
    # on L = 400 the low-pass sups of the outer shells sit at the box mean of the
    # soliton, mass/L = 2 pi / 400: the FAIL reads as one at the floor
    assert _measure_decay(tmp_path, "n_points=1024", "box_length=400.0",
                          "shells=[2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]") == 0
    path = str(tmp_path / "decay_report.json")
    assert main(["report", "--input", path, "--output-dir", str(tmp_path / "report")]) == 0
    report = DecayReport.from_json(path)
    floor = report.budgets["mass_over_L"]
    # every snapshot is clean: the fit takes each shell's largest low-pass sup
    smallest = min(max(series) for series in report.lowpass_sup.values())
    check = lowfreq_decay_check(report)
    assert check.smallest_sup == smallest and not check.passed
    assert abs(smallest / floor - 1.0) < 0.1
    assert (f"target -2.000, FAIL (smallest clean low-pass sup {smallest:.3g}, "
            f"box-mean floor mass/L {floor:.3g})") in capsys.readouterr().out


@pytest.mark.parametrize("shell", ["1e6", "-2000", "-3"])
def test_a_refused_shell_exits_2_with_the_message_of_spatial_cutoff_values(tmp_path, capsys,
                                                                            shell):
    # one rule and one message for every refused shell, a configuration error
    with pytest.raises(ConfigError) as refused:
        spatial_cutoff_values(Grid(512, 200.0), json.loads(shell), "+")
    assert _measure_decay(tmp_path, f"shells=[2.5, 3.0, 3.5, {shell}]") == 2
    assert capsys.readouterr().err == f"configuration error: {refused.value}\n"


def test_report_rewrites_the_measure_decay_csv_byte_for_byte(tmp_path):
    # shells and gauge bands out of order: the CSV follows the report's shells,
    # and its gauge blocks come in increasing k, whichever command writes it
    assert _measure_decay(tmp_path, "shells=[3.0, 2.0, 2.5, 4.0]", "t_final=0.02",
                          "gauge.enabled=true", "gauge.bands=[1, 0]") == 0
    assert main(["report", "--input", str(tmp_path / "decay_report.json"),
                 "--output-dir", str(tmp_path / "report")]) == 0
    written = (tmp_path / "decay_report.csv").read_bytes()
    assert (tmp_path / "report" / "decay_report.csv").read_bytes() == written
    rows = [line.split(",") for line in written.decode().splitlines()[1:]]
    quantities = list(dict.fromkeys(row[1] for row in rows))
    assert quantities == ["sup", "lowpass_sup", "bandsum_sup", "gauge_sup_k0", "gauge_sup_k1"]
    assert list(dict.fromkeys(row[3] for row in rows)) == ["3.0", "2.0", "2.5", "4.0"]


def test_report_missing_input_exits_2(tmp_path):
    assert main(["report", "--output-dir", str(tmp_path)]) == 2


#: the smallest decay report that ``report`` reads: one time, one shell
MINIMAL_REPORT = {
    "config": {}, "times": [0.0], "shells": [2.0],
    "sup": {"+": {"2.0": [1.0]}, "-": {"2.0": [1.0]}}, "lowpass_sup": {"2.0": [0.5]},
    "bandsum_sup": {"2.0": [1.0]}, "gauge_sup": {}, "clean": {"2.0": [True]},
    "fits": [{"time": 0.0, "kind": "sup_plus", "slope": -2.0, "intercept": 0.0,
              "r_squared": 1.0, "n_points": 4}],
    "epsilon_measured": 0.5, "predicted_exponent": 1.75, "budgets": {"mass_over_L": 0.0},
    "ledger": [],
}


def _report_with(**fields) -> str:
    return json.dumps({**MINIMAL_REPORT, **fields})


def test_report_reads_the_minimal_report(tmp_path, capsys):
    source = tmp_path / "input"
    source.write_text(_report_with())
    assert main(["report", "--input", str(source), "--output-dir", str(tmp_path / "out")]) == 0
    assert "sup_plus t=0: slope -2.000" in capsys.readouterr().out


@pytest.mark.parametrize("content, message", [
    (None, "cannot read report input file"),
    ("{not json", "report input is not valid JSON"),
    ('{"a": 1}', "has unknown fields ['a']"),
    (_report_with(times=[]), "field times must be a non-empty list of numbers"),
    (_report_with(shells="x"), "field shells must be a non-empty list of numbers"),
    (_report_with(sup=[1]), 'field sup must be an object with exactly the keys "+" and "-"'),
    (_report_with(epsilon_measured="a"), "field epsilon_measured must be a positive number"),
    (_report_with(fits=[{"time": None}]), "field fits must be a list of objects with the keys"),
    (_report_with(budgets={}), "field budgets must be an object with a number mass_over_L"),
    (_report_with(times=[0.0, 1.0]),
     "the sup series of sign + must map exactly the shells [2.0] to one number per time (2)"),
    (_report_with(sup={"+": {}, "-": {"2.0": [1.0]}}),
     "the sup series of sign + must map exactly the shells [2.0]"),
    (_report_with(bandsum_sup={"2.0": [1.0], "3.0": [1.0]}),
     "the bandsum_sup series of sign + must map exactly the shells [2.0]"),
    (_report_with(gauge_sup={"x": {"2.0": [1.0]}}),
     "field gauge_sup must be an object keyed by integer bands"),
    (_report_with(sup={"+": {"2.0": [1.0]}}),
     'field sup must be an object with exactly the keys "+" and "-"'),
])
def test_report_unreadable_input_exits_2(tmp_path, capsys, content, message):
    source = tmp_path / "input"
    if content is None:
        source.mkdir()
    else:
        source.write_text(content)
    code = main(["report", "--input", str(source), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_config_holding_a_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = main(["measure-decay", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_config_file_with_an_integer_of_too_many_digits_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_points": %s}' % TOO_LONG)
    code = main(["measure-decay", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config is not valid JSON" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    code = main(["measure-decay", "--config", str(tmp_path), "--output-dir", str(tmp_path)])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_report_rejects_unknown_key(tmp_path, capsys):
    assert _measure_decay(tmp_path) == 0
    code = main(["report", "--input", str(tmp_path / "decay_report.json"),
                 "--output-dir", str(tmp_path / "report"), "--override", "bogus=1"])
    assert code == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_report_refuses_a_seed_given_as_a_flag_as_in_a_config_file(tmp_path, capsys):
    # report draws no random numbers, and its config has no seed
    source = tmp_path / "input"
    source.write_text(_report_with())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"input": str(source), "seed": 7}))
    out = tmp_path / "out"
    for args in (["--input", str(source), "--seed", "7"], ["--config", str(config)]):
        assert main(["report", *args, "--output-dir", str(out)]) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err
        assert not out.exists()


def test_seed_flag_is_the_seed_override_and_wins_over_it(tmp_path):
    small = ["--override", "n_points=256", "--override", "trials_per_case=1",
             "--override", "bands=[1]", "--override", "orders=[2]"]
    runs = {"flag": ["--seed", "3"], "override": ["--override", "seed=3"],
            "both": ["--override", "seed=5", "--seed", "3"], "other": ["--seed", "5"]}
    outputs = {}
    for name, args in runs.items():
        out = tmp_path / name
        assert main(["verify-normal-form", "--output-dir", str(out), *small, *args]) == 0
        outputs[name] = {file: (out / file).read_bytes() for file in sorted(os.listdir(out))}
    assert outputs["flag"] == outputs["override"] == outputs["both"]
    assert json.loads(outputs["flag"]["manifest.json"])["seed"] == 3
    assert outputs["other"] != outputs["flag"]


def test_config_hash_key_order_invariant():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


def test_verify_kernels_default_run_passes(tmp_path):
    out = tmp_path / "kern"
    assert main(["verify-kernels", "--output-dir", str(out)]) == 0
    sweeps = (out / "kernel_sweeps.csv").read_text().strip().split("\n")
    assert sweeps[0] == "variant,j,k,a,ell,t,sup,quad_flag"
    assert len(sweeps) == 1 + 8 + 6 + 5
    assert all(line.endswith(",0") for line in sweeps[1:])
    summary = (out / "kernel_summary.csv").read_text().strip().split("\n")
    assert len(summary) == 5 and all(line.endswith(",1") for line in summary[1:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["right_sweep"]["M"] == 6


@pytest.mark.parametrize("args", [
    ["measure-decay", *(arg for item in SMALL_DECAY for arg in ("--override", item))],
    ["verify-kernels", "--override", "schro_points=2"],
], ids=["measure-decay", "verify-kernels"])
def test_commands_run_without_scipy(tmp_path, args):
    # scipy serves only the tests' quadrature oracles: a command, manifest
    # included, runs without importing it
    code = ("import sys; from bolab.cli import main; "
            "print(main(sys.argv[1:]), 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, *args, "--output-dir", str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
    assert "scipy_version" not in json.loads((tmp_path / "manifest.json").read_text())


@pytest.mark.parametrize("override, message", [
    ("t_sweep=3", "t_sweep must be an object"),
    ("t_sweep.times=3", "t_sweep.times must be a non-empty list"),
    ("j_sweep.shells=[3, \"4\"]", "j_sweep.shells must be a non-empty list"),
    ("right_sweep.a=1.5", "right_sweep.a must be an integer"),
    ("mystery=1", "unknown config key 'mystery'"),
    ("right_sweep.mystery=1", "unknown config key 'right_sweep.mystery'"),
    ("schro_points=0", "schro_points must be at least 1"),
    ("schro_points=-2", "schro_points must be at least 1"),
    ("t_sweep.times=[0.0,16.0,32.0,64.0]", "t_sweep.times must be positive"),
])
def test_verify_kernels_rejects_bad_config(tmp_path, capsys, override, message):
    code = main(["verify-kernels", "--output-dir", str(tmp_path), "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "kernel_sweeps.csv").exists()


@pytest.mark.parametrize("command, output", [
    ("verify-operators", "operator_suite.csv"),
    ("verify-normal-form", "normal_form_residuals.csv"),
])
def test_verify_empty_config_runs_defaults(tmp_path, command, output):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 0
    assert (out / output).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_points"] == 1024
    assert "threads" not in manifest


def test_verify_operators_commutator_spread_failure_exits_3(tmp_path, capsys):
    # one field per shell (seed 0) leaves the constants too uneven for the spread bounds
    out = tmp_path / "out"
    assert main(["verify-operators", "--output-dir", str(out),
                 "--override", "commutator.n_fields=1"]) == 3
    assert "operator suite exceeded a threshold" in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "operator_suite.csv").read_text().split("\n")[1:10]]
    assert [row[3] for row in rows] == ["1"] * 6 + ["0"] * 3
    assert [row[0] for row in rows[6:]] == ["commutator_constant_spread", "commutator_d1_spread",
                                            "commutator_d2_spread"]
    assert not (out / "manifest.json").exists()


def test_verify_kernels_exponent_failure_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify-kernels", "--output-dir", str(out),
                 "--override", "t_sweep.slope_max=-100"]) == 3
    assert "kernel exponent check failed" in capsys.readouterr().err
    summary = (out / "kernel_summary.csv").read_text().strip().split("\n")
    assert [line.rsplit(",", 1)[1] for line in summary[1:]] == ["0", "1", "1", "1"]
    assert summary[1].startswith("lowfreq_left_t_slope,") and ",-100," in summary[1]
    assert not (out / "manifest.json").exists()


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-kernels", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, message", [
    ("verify-operators", "mystery=1", "unknown config key 'mystery'"),
    ("verify-operators", "commutator.n_fields=2.5", "commutator.n_fields must be an integer"),
    ("verify-operators", "n_points=\"abc\"", "n_points must be an integer"),
    ("verify-operators", "n_points=1023", "n_points must be an even integer"),
    # the one positive mode, 2 pi / L, lies above 0.45 * Nyquist
    ("verify-operators", "n_points=4", "no grid mode lies in 0 < |xi| <= 0.45 * Nyquist"),
    # the commutator grid's spacing 512 leaves every shell 2^3 .. 2^8 between its points
    ("verify-operators", "commutator.n_points=4",
     "error: shell 2^3 weighs no grid point (dx = 512)"),
    # a random field's squares underflow to 0, or overflow
    ("verify-operators", "box_length=1e300",
     "a random field on Grid(n_points=1024, box_length=1e+300) has L2 norm 0"),
    ("verify-operators", "box_length=1e-300",
     "a random field on Grid(n_points=1024, box_length=1e-300) has L2 norm inf"),
    # numpy's generator takes no negative seed; refused before the first draw
    ("verify-operators", "seed=-1", "seed must be non-negative, got -1"),
    ("verify-normal-form", "seed=-3", "seed must be non-negative, got -3"),
    ("verify-normal-form", "commutator=1", "unknown config key 'commutator'"),
    ("verify-normal-form", "bands=2", "bands must be a non-empty list"),
    # the cancellation bound is criterion 6's, which no config relaxes
    ("verify-normal-form", "threshold=1", "unknown config key 'threshold'"),
    ("verify-operators", "n_fields=0", "n_fields must be at least 1"),
    ("verify-operators", "commutator.n_fields=0", "commutator.n_fields must be at least 1"),
    ("verify-normal-form", "trials_per_case=0", "trials_per_case must be at least 1"),
    ("verify-normal-form", "ll_factor=0", "need order >= 1 and ll_factor * order >= 2"),
    ("verify-normal-form", "ll_factor=-1", "need order >= 1 and ll_factor * order >= 2"),
    ("verify-normal-form", "orders=[0]", "need order >= 1 and ll_factor * order >= 2"),
    ("verify-normal-form", "orders=[-1]", "need order >= 1 and ll_factor * order >= 2"),
    ("verify-normal-form", "orders=[2, 0]", "need order >= 1 and ll_factor * order >= 2"),
    ("verify-normal-form", "orders=[2.5]", "orders must be distinct integers, got [2.5]"),
    ("verify-normal-form", "orders=[4, 4]", "orders must be distinct integers, got [4, 4]"),
    ("verify-normal-form", "bands=[1.5]", "bands must be distinct integers, got [1.5]"),
    ("verify-normal-form", "bands=[1, 1]", "bands must be distinct integers, got [1, 1]"),
    ("verify-normal-form", "bands=[1, 1.0]", "bands must be distinct integers, got [1, 1.0]"),
    pytest.param("verify-normal-form", f"bands=[{HUGE}]",
                 "bands must be a non-empty list of numbers", id="verify-normal-form-huge-band"),
    # a sweep fitted through repeated parameters would report a made-up slope
    ("verify-kernels", "t_sweep.times=[64.0,64.0,64.0,64.0]",
     "t_sweep.times must be distinct, got [64.0, 64.0, 64.0, 64.0]"),
    ("verify-kernels", "j_sweep.shells=[5,6,7,7]", "j_sweep.shells must be distinct"),
    ("verify-kernels", "right_sweep.times=[46.0,52.0,52.0,58.0]",
     "right_sweep.times must be distinct"),
    # a fit needs four points; a shorter sweep is refused before its quadrature
    ("verify-kernels", "t_sweep.times=[45.0,64.0,90.0]",
     "t_sweep.times must hold 4 or more entries, got [45.0, 64.0, 90.0]"),
    ("verify-kernels", "j_sweep.shells=[3,4,5]",
     "j_sweep.shells must hold 4 or more entries, got [3, 4, 5]"),
    ("verify-kernels", "right_sweep.times=[46.0]",
     "right_sweep.times must hold 4 or more entries, got [46.0]"),
    # a point out of its kernel's domain is refused before the first quadrature
    ("verify-kernels", "j_sweep.shells=[5,6,7,2000]",
     "j_sweep at j = 2000: j = 2000 lies outside [-500, 500]"),
    ("verify-kernels", "t_sweep.j=2000", "t_sweep at t = 16.0: j = 2000 lies outside"),
    ("verify-kernels", "right_sweep.ell=1e6",
     "right_sweep at t = 46.0: ell = 1e+06 lies outside [-500, 500]"),
    ("verify-kernels", "right_sweep.k=-5000", "k = -5000 lies outside"),
    ("verify-kernels", "j_sweep.shells=[5,6,7,-1]",
     "j_sweep at j = -1: shell index j must be nonnegative"),
    ("verify-kernels", "t_sweep.a=-1",
     "t_sweep at t = 16.0: derivative count a must be nonnegative, got -1"),
])
def test_verify_rejects_bad_config(tmp_path, capsys, command, override, message, monkeypatch):
    # no rejected config may reach a kernel quadrature
    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a rejected config")

    monkeypatch.setattr(bolab.kernels, "phase_integral", no_quadrature)
    code = main([command, "--output-dir", str(tmp_path), "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_every_csv_artifact_has_lf_line_ends(tmp_path):
    runs = [
        ("verify-operators", ["n_fields=2", "commutator.n_fields=2"]),
        ("verify-normal-form", ["n_points=256", "trials_per_case=1", "bands=[1]", "orders=[2]"]),
        ("verify-kernels", []),
        ("evolve", SMALL_DECAY),
        ("measure-decay", SMALL_DECAY),
        ("report", ["input=" + str(tmp_path / "measure-decay" / "decay_report.json")]),
    ]
    for command, overrides in runs:
        args = [command, "--output-dir", str(tmp_path / command)]
        for override in overrides:
            args += ["--override", override]
        assert main(args) == 0, command
    written = sorted(tmp_path.glob("*/*.csv"))
    assert [f"{p.parent.name}/{p.name}" for p in written] == [
        "evolve/ledger.csv", "measure-decay/decay_report.csv", "report/decay_report.csv",
        "verify-kernels/kernel_summary.csv", "verify-kernels/kernel_sweeps.csv",
        "verify-normal-form/normal_form_residuals.csv", "verify-operators/operator_suite.csv",
    ]
    for path in written:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path


@pytest.mark.parametrize("override, message", [
    ("n_points=abc", "n_points must be of kind int"),
    ("dt=[1]", "dt must be of kind float"),
    ("shells=[]", "shells must be of kind list"),
    ("sponge=true", "sponge must be of kind dict"),
    ("initial.c=\"abc\"", "initial.c must be a number"),
    ("initial.kind=3", "initial.kind must be a string"),
    ("sponge.strength=\"x\"", "sponge.strength must be a number"),
    ("gauge.enabled=1", "gauge.enabled must be true or false"),
    ("gauge.mystery=1", "unknown config key 'gauge.mystery'"),
    ("epsilon_assumed=NaN", "epsilon_assumed must be a number"),
    ("dt=true", "dt must be a number"),
    pytest.param(f"initial.c={HUGE}", "initial.c must be a number", id="huge-initial.c"),
    pytest.param(f"n_points={HUGE}", "n_points must be an integer", id="huge-n_points"),
    pytest.param(f"n_points={TOO_LONG}", "n_points must be an integer", id="too-long-n_points"),
    ("front_speed=Infinity", "front_speed must be null or a number"),
    ("shells=[2.5, -Infinity]", "shells must be a non-empty list of numbers"),
])
def test_measure_decay_rejects_value_of_wrong_kind(tmp_path, capsys, override, message):
    code = main(["measure-decay", "--output-dir", str(tmp_path), "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "decay_report.json").exists()


OUT_OF_DOMAIN_RUN = ("n_points=512", "box_length=200", "t_final=0.01", "dt=0.001",
                     "snapshot_stride=5")


@pytest.mark.parametrize("command", ["measure-decay", "evolve"])
@pytest.mark.parametrize("overrides, message", [
    (["shells=[2.0, 2.0, 2.5, 3.0, 3.5]"], "shells must be distinct"),
    (["front_speed=-1"], "front_speed must be null or positive"),
    (["front_speed=0"], "front_speed must be null or positive"),
    (["epsilon_assumed=0"], "epsilon_assumed must lie in (0, 1]"),
    (["epsilon_assumed=-0.5"], "epsilon_assumed must lie in (0, 1]"),
    (["sponge.enabled=true", "sponge.width_fraction=0"], "sponge.width_fraction must lie in (0, 1)"),
    (["sponge.enabled=true", "sponge.width_fraction=-0.1"], "sponge.width_fraction must lie in (0, 1)"),
    (["sponge.enabled=true", "sponge.strength=-50"], "sponge.strength must be non-negative"),
    (["initial.kind=soliton_bump", "initial.bump_width=0"], "initial.bump_width must be positive"),
    (["initial.kind=soliton_bump", "initial.bump_width=-1"], "initial.bump_width must be positive"),
    # 2^j overflows, or no grid point lies in the shell (dx = 0.39): no
    # series may come out as all zeros
    (["shells=[2.5, 3.0, 3.5, 1e6]"], "shell 2^1000000.0 exceeds box_length/4 = 50"),
    (["shells=[2.5, 3.0, 3.5, -2000]"], "shell 2^-2000 weighs no grid point (dx = 0.391)"),
    (["shells=[-3, 2.5, 3.0, 3.5]"], "shell 2^-3 weighs no grid point (dx = 0.391)"),
    # chi_k^+ keeps no grid mode (Nyquist 8.04, or 2.01 at n = 128)
    (["gauge.enabled=true", "gauge.bands=[0, 5000]"], "gauge.bands [5000] keep no grid mode"),
    (["gauge.enabled=true", "gauge.bands=[-5000]"], "gauge.bands [-5000] keep no grid mode"),
    (["n_points=128", "gauge.enabled=true", "gauge.bands=[9]"], "gauge.bands [9] keep no grid mode"),
    (["initial.c=1e200"], "soliton speed 1e+200 is out of range: c * c is not finite"),
    (["initial.kind=nope"], "unknown initial-data kind 'nope'"),
])
def test_experiment_value_out_of_domain_exits_2(tmp_path, capsys, command, overrides, message,
                                                monkeypatch):
    # no rejected config may reach the solver
    def no_stream(*args):
        raise AssertionError("the solver ran on a rejected config")

    monkeypatch.setattr(bolab.solver, "stream", no_stream)
    monkeypatch.setattr(bolab.decay, "stream", no_stream)
    args = [command, "--output-dir", str(tmp_path)]
    for item in (*OUT_OF_DOMAIN_RUN, *overrides):
        args += ["--override", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("gauge", [["gauge.order=0"], ["gauge.order=-1", "gauge.ll_factor=-3"],
                                   ["gauge.ll_factor=0.25"]])
def test_measure_decay_rejects_a_gauge_not_separated_from_its_band(tmp_path, capsys, gauge):
    # the rule verify-normal-form applies to each of its orders
    args = ["measure-decay", "--output-dir", str(tmp_path)]
    for item in (*OUT_OF_DOMAIN_RUN, "gauge.enabled=true", *gauge):
        args += ["--override", item]
    assert main(args) == 2
    assert "need order >= 1 and ll_factor * order >= 2" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", ["null", "3.0"])
def test_measure_decay_front_speed_takes_null_or_a_number(tmp_path, value):
    assert _measure_decay(tmp_path, f"front_speed={value}") == 0
    report = json.loads((tmp_path / "decay_report.json").read_text())
    assert report["config"]["front_speed"] == json.loads(value)


@pytest.mark.parametrize("command, overrides, message", [
    ("measure-decay", ["n_points=1023"], "n_points must be an even integer"),
    ("measure-decay", ["dt=0.003", "t_final=0.01"], "must be an integer multiple of dt"),
    ("measure-decay", ["initial.c=-1"], "soliton speed must be positive"),
    ("evolve", ["n_points=2"], "n_points must be an even integer"),
])
def test_argument_out_of_domain_exits_2(tmp_path, capsys, command, overrides, message):
    args = [command, "--output-dir", str(tmp_path)]
    for override in overrides:
        args += ["--override", override]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


TIME_STEPPING = ("n_points=256", "t_final=0.01", "dt=0.001")


@pytest.mark.parametrize("command", ["measure-decay", "evolve"])
@pytest.mark.parametrize("override, message", [
    ("dt=0", "dt must be positive"),
    ("dt=-0.001", "dt must be positive"),
    ("t_final=-0.01", "t_final must be non-negative"),
    # t_final / dt overflows to infinity
    ("dt=1e-320", "do not reach t_final"),
])
def test_bad_time_stepping_exits_2(tmp_path, capsys, command, override, message):
    args = [command, "--output-dir", str(tmp_path)]
    for item in (*TIME_STEPPING, override):
        args += ["--override", item]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["measure-decay", "evolve"])
@pytest.mark.parametrize("stride", ["0", "-3"])
def test_snapshot_stride_below_one_exits_2(tmp_path, command, stride):
    # in a child process with a timeout, so that a stride that never
    # advances fails the test instead of stalling the suite
    args = [sys.executable, "-m", "bolab.cli", command, "--output-dir", str(tmp_path / "out")]
    for item in (*TIME_STEPPING, f"snapshot_stride={stride}"):
        args += ["--override", item]
    out = subprocess.run(args, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "snapshot_stride must be at least 1" in out.stderr
    assert not os.path.exists(tmp_path / "out") or os.listdir(tmp_path / "out") == []


#: a run of three snapshots, 0.01 apart
SOLVER_RUN = ("n_points=512", "box_length=200.0", "t_final=0.01", "dt=0.001",
              "snapshot_stride=5", "shells=[2.0, 2.5, 3.0, 3.5]")


def _args(command: str, outdir, *overrides: str) -> list[str]:
    args = [command, "--output-dir", str(outdir)]
    for item in (*SOLVER_RUN, *overrides):
        args += ["--override", item]
    return args


def _no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evolve_writes_what_an_in_process_evolve_gives(tmp_path):
    assert main(_args("evolve", tmp_path / "out", "sponge.enabled=true",
                      'initial.kind="soliton_bump"')) == 0
    grid = Grid(512, 200.0)
    w = soliton(1.0, 0.0, grid).samples + 0.05 * np.exp(-((grid.x - 2.0) ** 2))
    state = SolverState(w=Field(grid, w), frame="moving", speed=1.0, dt=1e-3,
                        sponge=SpongeConfig(enabled=True))
    snaps = evolve(state, 0.01, snapshot_stride=5)
    names = [f"snapshot_{i:04d}.bosnap" for i in range(len(snaps))]
    for name, snap in zip(names, snaps):
        dump_snapshot(snap, str(tmp_path / "ref" / name))
    ledger_to_csv(snaps[-1].ledger, str(tmp_path / "ref" / "ledger.csv"))
    for name in (*names, "ledger.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    assert sorted(os.listdir(tmp_path / "out")) == sorted((*names, "ledger.csv", "manifest.json"))


def test_blow_up_in_the_solver_exits_2_with_its_message(tmp_path, capsys):
    # a NaN sample makes the solver raise, and the command reports its message
    grid = Grid(512, 200.0)
    samples = soliton(1.0, 0.0, grid).samples.copy()
    samples[300] = np.nan
    state = SolverState(w=Field(grid, samples), frame="moving", speed=1.0, dt=1e-3)
    path = str(tmp_path / "nan.bosnap")
    dump_snapshot(state, path)
    with pytest.raises(SolverInstabilityError) as info:
        evolve(state, 0.01, snapshot_stride=5)
    args = _args("measure-decay", tmp_path / "out", 'initial.kind="file"',
                 f"initial.path={json.dumps(path)}")
    assert main(args) == 2
    assert f"error: {info.value}\n" in capsys.readouterr().err
    _no_process_left()


@pytest.mark.parametrize("t_final", ["0.0", "0.01"])
def test_evolve_from_a_non_finite_field_exits_2_before_the_first_snapshot(tmp_path, capsys,
                                                                          t_final):
    grid = Grid(512, 200.0)
    samples = soliton(1.0, 0.0, grid).samples.copy()
    samples[300] = np.nan
    path = str(tmp_path / "nan.bosnap")
    dump_snapshot(SolverState(w=Field(grid, samples), frame="moving", speed=1.0, dt=1e-3), path)
    out = tmp_path / "out"
    assert main(_args("evolve", out, 'initial.kind="file"', f"initial.path={json.dumps(path)}",
                      f"t_final={t_final}")) == 2
    assert "error: sup norm is nan at t = 0\n" in capsys.readouterr().err
    assert os.listdir(out) == []
    _no_process_left()


@pytest.mark.parametrize("command", ["measure-decay", "evolve"])
def test_initial_snapshot_on_another_grid_exits_2(tmp_path, capsys, command):
    grid = Grid(256, 200.0)
    path = str(tmp_path / "other.bosnap")
    dump_snapshot(SolverState(w=soliton(1.0, 0.0, grid), frame="moving", speed=1.0, dt=1e-3), path)
    out = tmp_path / "out"
    assert main(_args(command, out, 'initial.kind="file"', f"initial.path={json.dumps(path)}")) == 2
    assert "snapshot grid does not match the configured grid" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_warnings_in_the_solver_are_counted_once_per_snapshot(tmp_path, monkeypatch):
    conserved = bolab.solver.conserved

    def warning_conserved(state):
        warnings.warn("a ledger row", UserWarning)
        return conserved(state)

    monkeypatch.setattr(bolab.solver, "conserved", warning_conserved)
    assert main(_args("measure-decay", tmp_path)) == 0
    report = json.loads((tmp_path / "decay_report.json").read_text())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(report["times"]) == 3
    assert manifest["warnings"] == {"UserWarning": 3}
    _no_process_left()


def test_measure_decay_gauge_enabled_alone_measures_default_bands(tmp_path):
    args = ["measure-decay", "--output-dir", str(tmp_path)]
    for override in ("n_points=512", "box_length=200.0", "t_final=0.01", "dt=0.01",
                     "shells=[2.0, 2.5, 3.0, 3.5]", "gauge.enabled=true"):
        args += ["--override", override]
    assert main(args) == 0
    report = json.loads((tmp_path / "decay_report.json").read_text())
    assert report["config"]["gauge"] == {"enabled": True, "order": 4, "ll_factor": 100.0,
                                         "bands": [0, 1]}
    assert sorted(report["gauge_sup"]) == ["0", "1"]


def test_verify_operators_counts_warnings_and_reports_every_measurement(tmp_path, capsys):
    assert main(["verify-operators", "--output-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == {"BandEdgeWarning": 100}
    assert "100 BandEdgeWarning" in capsys.readouterr().err
    rows = [line.split(",") for line in
            (tmp_path / "operator_suite.csv").read_text().strip().split("\n")]
    assert rows[0] == ["measurement", "value", "threshold", "pass"]
    checks = {"parseval_rel": "1e-10", "composition_rel": "1e-10",
              "hilbert_squared_rel": "1e-10", "lp_partition_rel": "1e-10",
              "product_rel": "1e-10", "leibnitz_rel": "1e-10",
              "commutator_constant_spread": "3.0", "commutator_d1_spread": "10.0",
              "commutator_d2_spread": "10.0"}
    assert {name: thresh for name, _, thresh, _ in rows[1:10]} == checks
    assert all(row[3] == "1" for row in rows[1:10])
    assert [row[0] for row in rows[10:]] == [f"commutator_constant_j{j}" for j in range(3, 9)]


@pytest.mark.parametrize("bands", ["[0.5, 1.7]", "[1, 1.0]"])
def test_measure_decay_rejects_fractional_or_repeated_gauge_bands(tmp_path, capsys, bands):
    code = _measure_decay(tmp_path, "gauge.enabled=true", f"gauge.bands={bands}")
    assert code == 2
    assert "gauge.bands must be distinct integers" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_measure_decay_integral_float_bands_keep_integer_keys(tmp_path):
    assert _measure_decay(tmp_path, "gauge.enabled=true", "gauge.bands=[0.0, 1.0]") == 0
    report = json.loads((tmp_path / "decay_report.json").read_text())
    assert report["config"]["gauge"]["bands"] == [0.0, 1.0]
    assert sorted(report["gauge_sup"]) == ["0", "1"]


def test_measure_decay_with_a_very_low_pass_below_the_normal_range(tmp_path):
    # ll_factor 1e6 puts chi_{<<k} at index k - 4e6, whose 2^j underflows; at
    # ll_factor 200 (index k - 800) the formula gives the same multiplier
    out = {}
    for factor in (1e6, 200.0):
        out[factor] = tmp_path / f"ll{factor:g}"
        args = ["measure-decay", "--output-dir", str(out[factor])]
        for override in ("n_points=256", "t_final=0.01", "dt=0.001", "snapshot_stride=5",
                         "gauge.enabled=true", f"gauge.ll_factor={factor!r}"):
            args += ["--override", override]
        assert main(args) == 0
        manifest = json.loads((out[factor] / "manifest.json").read_text())
        assert "RuntimeWarning" not in manifest["warnings"]
    reports = [json.loads((path / "decay_report.json").read_text()) for path in out.values()]
    assert reports[0]["gauge_sup"] == reports[1]["gauge_sup"]


def test_measure_decay_with_a_very_low_pass_at_the_bottom_of_the_normal_range(tmp_path):
    # ll_factor 255.5 puts chi_{<<k} at index k - 1022, where 2^j is normal but
    # xi / 2^j overflowed up to the Nyquist frequency: that emitted and counted
    # two RuntimeWarnings
    args = ["measure-decay", "--output-dir", str(tmp_path)]
    for override in ("n_points=2048", "t_final=0.01", "dt=0.001", "snapshot_stride=5",
                     "gauge.enabled=true", "gauge.ll_factor=255.5"):
        args += ["--override", override]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "RuntimeWarning" not in manifest["warnings"]


def test_measure_decay_counts_band_edge_warnings_per_snapshot(tmp_path):
    # bands whose 2^(k+1) reaches Nyquist warn once per snapshot, as lp_project does
    bands = [1, 2, 3]
    assert _measure_decay(tmp_path, "t_final=0.05", "snapshot_stride=1", "gauge.enabled=true",
                          f"gauge.bands={bands}") == 0
    nyquist = Grid(512, 200.0).nyquist
    edge = [k for k in bands if 2.0 ** (k + 1) >= nyquist]
    assert edge == [3]
    report = json.loads((tmp_path / "decay_report.json").read_text())
    assert len(report["times"]) == 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == {"BandEdgeWarning": 6 * len(edge)}


def _snapshot_bytes(tmp_path) -> bytes:
    path = tmp_path / "good.bosnap"
    grid = Grid(512, 200.0)
    dump_snapshot(SolverState(w=soliton(1.0, 0.0, grid), frame="moving", speed=1.0, dt=0.01),
                  str(path))
    return path.read_bytes()


def _with_n(data: bytes, n: int) -> bytes:
    return data[:8] + n.to_bytes(8, "little", signed=True) + data[16:]


def _with_frame_flag(data: bytes, flag: int) -> bytes:
    return data[:32] + flag.to_bytes(8, "little", signed=True) + data[40:]


@pytest.mark.parametrize("corrupt, message", [
    (None, "cannot read snapshot file ''"),
    (lambda data: None, "cannot read snapshot file"),
    (lambda data: b"NOTMAGIC" + data[8:], "not a snapshot file"),
    (lambda data: data[:30], "header truncated"),
    (lambda data: data[:-8], "body holds"),
    (lambda data: _with_n(data, 511), "not a positive even number"),
    (lambda data: _with_n(data, -512), "not a positive even number"),
    (lambda data: _with_frame_flag(data, 2), "frame flag 2, not 0 (lab) or 1 (moving)"),
], ids=["no-path", "missing-file", "bad-magic", "truncated-header", "truncated-body", "odd-n",
        "negative-n", "frame-flag-2"])
def test_measure_decay_bad_initial_file_exits_2(tmp_path, capsys, corrupt, message):
    out = tmp_path / "out"
    overrides = ["initial.kind=\"file\""]
    if corrupt is not None:
        data = corrupt(_snapshot_bytes(tmp_path))
        path = tmp_path / "input.bosnap"
        if data is not None:
            path.write_bytes(data)
        overrides.append(f"initial.path={path}")
    assert _measure_decay(out, *overrides) == 2
    assert message in capsys.readouterr().err
    assert not (out / "decay_report.json").exists()


def test_measure_decay_reads_initial_file(tmp_path):
    path = tmp_path / "good.bosnap"
    path.write_bytes(_snapshot_bytes(tmp_path))
    assert _measure_decay(tmp_path / "out", "initial.kind=\"file\"", f"initial.path={path}") == 0


def test_measure_decay_nan_report_exits_3_and_keeps_previous_files(tmp_path, monkeypatch, capsys):
    assert _measure_decay(tmp_path) == 0
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    real_run = bolab.decay.run

    def nan_run(config):
        report = real_run(config)
        report.lowpass_sup["2.0"][0] = float("nan")
        return report

    monkeypatch.setattr(bolab.decay, "run", nan_run)
    assert _measure_decay(tmp_path) == 3
    assert "non-finite value" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_manifest_with_nan_is_refused(tmp_path):
    write_manifest(str(tmp_path), "evolve", {"dt": 0.1}, [], {})
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(AcceptanceFailure):
        write_manifest(str(tmp_path), "evolve", {"dt": float("nan")}, [], {})
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_output_dir_that_is_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["verify-kernels", "--output-dir", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "File exists" in err
    assert os.listdir(tmp_path) == ["taken"]


def test_output_that_cannot_be_written_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    # a directory stands where the sweeps CSV goes
    (tmp_path / "kernel_sweeps.csv").mkdir()
    assert main(["verify-kernels", "--output-dir", str(tmp_path),
                 "--override", "schro_points=2"]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "kernel_sweeps.csv") in err and "Is a directory" in err
    assert os.listdir(tmp_path) == ["kernel_sweeps.csv"]
