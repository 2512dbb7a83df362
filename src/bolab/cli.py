"""Batch command-line front end.

Subcommands:

    evolve            run the solver on a config, dump snapshots + ledger CSV
    measure-decay     run a decay experiment, write report JSON + flat CSV
    verify-operators  operator-calculus measurement suite -> CSV
    verify-normal-form   cancellation residuals over (k, N) -> CSV
    verify-kernels    kernel-exponent sweeps -> CSV
    report            re-emit CSV + print a summary of an existing report

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
acceptance failure.  Every run writes a manifest (config hash, package and
library versions, seed, output hashes).  All artifacts are written
atomically (temp file + rename).

Configs are JSON key/value trees; ``--override path.to.key=value`` patches
individual entries (values parsed as JSON when possible).  Unknown keys are
rejected.  This module imports the computing layers, as modules so that a
patched attribute reaches the commands, and no module imports it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from collections import Counter

import numpy as np

from . import __version__, cutoffs, decay, kernels, pseudoproduct, solver, testing
from .errors import AcceptanceFailure, BolabError, ConfigError, DegenerateSeriesError
from .files import (atomic_write_text, check_distinct, check_distinct_integers, json_text,
                    merge_config, read_json_object, write_csv)
from .grid import Grid
from .pseudoproduct import LL_FACTOR, _check_separation

DEFAULT_OUTDIR_ENV = "BOLAB_OUTDIR"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer of more digits than Python parses
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return config


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir: str, command: str, config: dict, outputs: list[str],
                   warning_counts: dict) -> str:
    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "bolab_version": __version__,
        "numpy_version": np.__version__,
        "seed": config.get("seed", 0),
        "outputs": {os.path.basename(p): file_sha256(p) for p in outputs},
        "warnings": warning_counts,
    }
    path = os.path.join(outdir, "manifest.json")
    atomic_write_text(path, json_text(manifest) + "\n")
    return path


# ---------------------------------------------------------------------------
# verify-operators
# ---------------------------------------------------------------------------

OPERATOR_DEFAULTS = {
    "n_points": 1024,
    "box_length": 201.06192982974676,  # 64 pi
    "n_fields": 50,
    "seed": 0,
    "commutator": {"n_points": 8192, "box_length": 2048.0, "n_fields": 20},
}


def _write_checks(path: str, rows: list[tuple], extra: list[tuple] = ()) -> bool:
    """Write (measurement, value, threshold) rows and their pass flags, then
    the ``extra`` rows, as one CSV; True when every row passes."""
    checks = [(name, value, thresh, int(value <= thresh)) for name, value, thresh in rows]
    write_csv(path, "measurement,value,threshold,pass", [*checks, *extra])
    return all(ok for *_, ok in checks)


def run_verify_operators(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    rng = np.random.default_rng(config["seed"])
    grid = Grid(config["n_points"], config["box_length"])
    ccfg = config["commutator"]
    errors = testing.operator_identity_errors(grid, rng, config["n_fields"])
    # one pair of fields, drawn before the commutator's bumps
    errors.update(testing.convolution_identity_errors(grid, rng, 1))
    cgrid = Grid(ccfg["n_points"], ccfg["box_length"])
    consts = testing.commutator_constants(cgrid, rng, ccfg["n_fields"])

    spread = {n: max(c.values()) / min(c.values()) for n, c in consts.items()}
    rows = [(f"{name}_rel", value, 1e-10) for name, value in errors.items()]
    rows += [
        ("commutator_constant_spread", spread[0], 3.0),
        ("commutator_d1_spread", spread[1], 10.0),
        ("commutator_d2_spread", spread[2], 10.0),
    ]
    path = os.path.join(outdir, "operator_suite.csv")
    extra = [(f"commutator_constant_j{j}", c, "", "") for j, c in consts[0].items()]
    if not _write_checks(path, rows, extra):
        raise AcceptanceFailure("operator suite exceeded a threshold; see CSV")
    return [path]


# ---------------------------------------------------------------------------
# verify-normal-form
# ---------------------------------------------------------------------------

NORMAL_FORM_DEFAULTS = {
    "n_points": 1024,
    "box_length": 25.132741228718345,  # 8 pi
    "bands": [0, 1, 2, 3, 4],
    "orders": [2, 4],
    "trials_per_case": 5,
    "ll_factor": LL_FACTOR,
    "seed": 0,
}

#: the relative cancellation residual each case must stay within, which criterion 6 pins
CANCELLATION_MAX = 1e-8


def run_verify_normal_form(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    rng = np.random.default_rng(config["seed"])
    grid = Grid(config["n_points"], config["box_length"])

    # test fixture: perturb one half of B_k by a relative 1e-3
    original = pseudoproduct._branches

    def buggy(*branch_args):
        first, second = original(*branch_args)
        return 1.001 * first, second

    try:
        if args.inject_symbol_bug:
            pseudoproduct._branches = buggy
        cases = testing.nf_cancellation_sweep(grid, rng, config["bands"], config["orders"],
                                              config["trials_per_case"], config["ll_factor"])
    finally:
        pseudoproduct._branches = original

    # a band that misses every mode the fields' products reach has nothing to
    # cancel (its terms are roundoff at most), and fails rather than pass
    reach = 2.0 * pseudoproduct.QUARTIC_MARGIN * grid.nyquist
    modes = grid.xi[(grid.xi > 0) & (grid.xi <= reach)]
    holds = {k: cutoffs.shell_holds(k, modes) for k in config["bands"]}
    rows = []
    for k, order, trial, resid, scale in cases:
        rel = resid / max(scale, 1e-300)
        rows.append((k, order, trial, resid, scale, rel,
                     int(holds[k] and rel <= CANCELLATION_MAX)))
    path = os.path.join(outdir, "normal_form_residuals.csv")
    write_csv(path, "k,N,trial,residual,scale,relative,pass", rows)
    empty = sorted({(k, order) for k, order, *_ in cases if not holds[k]})
    if empty:
        raise AcceptanceFailure(f"nothing to cancel at (k, N) = {', '.join(map(str, empty))}: "
                                f"the band misses every grid mode in 0 < xi <= {reach:.4g}, "
                                "all that the test fields' products reach")
    if not all(row[-1] for row in rows):
        raise AcceptanceFailure("normal-form cancellation residual above threshold")
    return [path]


# ---------------------------------------------------------------------------
# verify-kernels
# ---------------------------------------------------------------------------

#: ``right_sweep.M`` is accepted and written to the manifest, but no
#: measurement reads it
KERNEL_DEFAULTS = {
    "epsilon": 0.5,
    "t_sweep": {"j": 0.0, "a": 1, "times": [16.0 * 2.0**i for i in range(8)],
                "slope_max": -2.8},
    "j_sweep": {"t": 4.0, "a": 1, "shells": [3, 4, 5, 6, 7, 8],
                "slope_max": -2.8},
    "right_sweep": {"j": 2.0, "k": 0.0, "ell": -4.0, "a": 1, "M": 6,
                    "times": [46.0 * 1.5**i for i in range(5)],
                    "slope_max": -2.7},
    "schro_points": 4,
    "schro_tol": 1e-10,
    "seed": 0,
}


def run_verify_kernels(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    rows, exponents = testing.kernel_exponents(config["epsilon"], config["t_sweep"],
                                               config["j_sweep"], config["right_sweep"],
                                               config["schro_points"])
    limits = {
        "lowfreq_left_t_slope": config["t_sweep"]["slope_max"],
        "lowfreq_left_j_slope": config["j_sweep"]["slope_max"],
        "dyadic_right_t_slope": config["right_sweep"]["slope_max"],
        "schro_reduction_max_diff": config["schro_tol"],
    }
    sweep_path = os.path.join(outdir, "kernel_sweeps.csv")
    kernels.rows_to_csv(rows, sweep_path)
    summary_path = os.path.join(outdir, "kernel_summary.csv")
    if not _write_checks(summary_path, [(n, v, limits[n]) for n, v in exponents.items()]):
        raise AcceptanceFailure("kernel exponent check failed; see summary CSV")
    return [sweep_path, summary_path]


# ---------------------------------------------------------------------------
# evolve / measure-decay / report
# ---------------------------------------------------------------------------


def run_evolve(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    cfg = decay.ExperimentConfig(**config)
    state = cfg.solver_state()
    outputs = []
    # each snapshot is written as the solver yields it
    for i, snap in enumerate(solver.stream(state, cfg.t_final, cfg.snapshot_stride)):
        path = os.path.join(outdir, f"snapshot_{i:04d}.bosnap")
        solver.dump_snapshot(snap, path)
        outputs.append(path)
    ledger_path = os.path.join(outdir, "ledger.csv")
    solver.ledger_to_csv(snap.ledger, ledger_path)
    outputs.append(ledger_path)
    return outputs


def run_measure_decay(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    report = decay.run(decay.ExperimentConfig(**config))
    json_path = os.path.join(outdir, "decay_report.json")
    csv_path = os.path.join(outdir, "decay_report.csv")
    report.to_json(json_path)
    report.to_csv(csv_path)
    return [json_path, csv_path]


def run_report(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    if not config["input"]:
        raise ConfigError("report needs --input")
    report = decay.DecayReport.from_json(config["input"])
    csv_path = os.path.join(outdir, "decay_report.csv")
    report.to_csv(csv_path)
    print(f"report over t in [{report.times[0]}, {report.times[-1]}], "
          f"shells {report.shells}")
    print(f"epsilon_measured = {report.epsilon_measured:.4f}, "
          f"predicted exponent = {report.predicted_exponent:.4f}")
    try:
        check = decay.lowfreq_decay_check(report)
        print(f"low-frequency bound: slope {check.slope:.3f}, target {check.target:.3f}, "
              f"{'pass' if check.passed else 'FAIL'} (smallest clean low-pass sup "
              f"{check.smallest_sup:.3g}, box-mean floor mass/L "
              f"{report.budgets['mass_over_L']:.3g})")
    except DegenerateSeriesError as exc:
        print(f"low-frequency bound: n/a ({exc})")
    for fit in report.fits:
        t = fit["time"]
        label = "aggregate" if t is None else f"t={t:g}"
        print(f"  {fit['kind']} {label}: slope {fit['slope']:.3f} "
              f"(R^2 {fit['r_squared']:.4f}, {fit['n_points']} shells)")
    return [csv_path]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _check_counts(config: dict, *names: str) -> None:
    """Each named count of the merged config (a dotted path) is at least 1:
    none of zero fields, trials or points would pass vacuously."""
    for name in names:
        value = config
        for part in name.split("."):
            value = value[part]
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value!r}")


def _check_seed(config: dict) -> None:
    """The seed of a command that draws random fields is non-negative, as
    numpy's generator requires."""
    if config["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {config['seed']!r}")


def _check_operators(config: dict) -> None:
    _check_counts(config, "n_fields", "commutator.n_fields")
    _check_seed(config)


def _check_normal_form(config: dict) -> None:
    _check_counts(config, "trials_per_case")
    _check_seed(config)
    # measure-decay's rules for gauge.bands and for the gauge's separation
    check_distinct_integers("bands", config["bands"])
    check_distinct_integers("orders", config["orders"])
    for order in config["orders"]:
        _check_separation(order, config["ll_factor"])


def _check_kernels(config: dict) -> None:
    _check_counts(config, "schro_points")
    # each sweep is fitted against its parameter, at FIT_MIN_POINTS or more points
    # no two of which may share it (measure-decay's rule for its shells); checked
    # here, before any quadrature
    least = kernels.FIT_MIN_POINTS
    for sweep, key in (("t_sweep", "times"), ("j_sweep", "shells"), ("right_sweep", "times")):
        values = config[sweep][key]
        if len(values) < least:
            raise ConfigError(f"{sweep}.{key} must hold {least} or more entries, got {values!r}")
        check_distinct(f"{sweep}.{key}", values)
    # the t-sweep is fitted against log2 t
    if min(config["t_sweep"]["times"]) <= 0:
        raise ConfigError(f"t_sweep.times must be positive, got {config['t_sweep']['times']!r}")


#: per command: its defaults, which also serve as its schema, its runner and
#: a further check of the merged config
COMMANDS = {
    "verify-operators": (OPERATOR_DEFAULTS, run_verify_operators, _check_operators),
    "verify-normal-form": (NORMAL_FORM_DEFAULTS, run_verify_normal_form, _check_normal_form),
    "verify-kernels": (KERNEL_DEFAULTS, run_verify_kernels, _check_kernels),
    "evolve": (decay.EXPERIMENT_DEFAULTS, run_evolve, None),
    "measure-decay": (decay.EXPERIMENT_DEFAULTS, run_measure_decay, None),
    "report": ({"input": ""}, run_report, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bolab",
        description="numerical laboratory for unidirectional dispersive decay",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--output-dir", default=None,
                       help="output directory (default $%s or ./bolab-out)" % DEFAULT_OUTDIR_ENV)
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="patch a config entry")
        p.add_argument("--seed", type=int, default=None)
        if name == "verify-normal-form":
            p.add_argument("--inject-symbol-bug", action="store_true",
                           help="test fixture: corrupt one branch symbol")
        if name == "report":
            p.add_argument("--input", default=None, help="existing report JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        defaults, run, check = COMMANDS[args.command]
        # --seed N is the override seed=N, after the others so that it wins
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        config = {} if args.config is None else read_json_object(args.config, "config")
        config = apply_overrides(config, args.override + seed)
        if getattr(args, "input", None) is not None:
            config["input"] = args.input
        config = merge_config(defaults, config)
        if check is not None:
            check(config)
        outdir = args.output_dir or os.environ.get(DEFAULT_OUTDIR_ENV) or "bolab-out"
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {outdir!r}: {exc.strerror}") from exc

        # every warning is counted, repeats included, and reported once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs = run(config, outdir, args)
        counts = dict(Counter(w.category.__name__ for w in caught))
        if counts:
            listed = ", ".join(f"{n} {name}" for name, n in sorted(counts.items()))
            print(f"warnings: {listed} (counts in manifest.json)", file=sys.stderr)
        write_manifest(outdir, args.command, config, outputs, counts)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AcceptanceFailure as exc:
        print(f"acceptance failure: {exc}", file=sys.stderr)
        return 3
    except BolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
