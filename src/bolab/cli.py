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
rejected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from collections import Counter

import numpy as np

from . import __version__, pseudoproduct
from .errors import AcceptanceFailure, BolabError, ConfigError, DegenerateSeriesError
from .grid import Grid
from .pseudoproduct import LL_FACTOR, BilinearSymbol, _check_separation, leibnitz_check

# decay, kernels, solver and testing (through kernels) import this module, so
# the commands import them where they run them

DEFAULT_OUTDIR_ENV = "BOLAB_OUTDIR"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file ``path``; a file that is missing or
    unreadable, or holds no JSON or another JSON value, raises ConfigError
    naming ``what``."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return config


def is_number(value) -> bool:
    """An integer or a finite float (a bool is neither)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _kind(default, value) -> tuple[bool, str, str]:
    """Whether ``value`` is of the kind of ``default``, and that kind's name
    and description."""
    if isinstance(default, dict):
        return isinstance(value, dict), "dict", "an object"
    if isinstance(default, list):
        ok = isinstance(value, list) and bool(value) and all(map(is_number, value))
        return ok, "list", "a non-empty list of numbers"
    if isinstance(default, bool):
        return isinstance(value, bool), "bool", "true or false"
    if isinstance(default, str):
        return isinstance(value, str), "str", "a string"
    if isinstance(default, int):
        return is_number(value) and isinstance(value, int), "int", "an integer"
    if default is None:
        return value is None or is_number(value), "float | None", "null or a number"
    return is_number(value), "float", "a number"


def merge_config(defaults: dict, config: dict, where: str = "") -> dict:
    """``config`` merged over ``defaults``, which also serve as the schema:
    an unknown key, or a value not of its default's kind (object, non-empty
    list of numbers, bool, string, integer, finite number, or for a null
    default null or a finite number), raises ConfigError."""
    out = json.loads(json.dumps(defaults))
    for key, value in config.items():
        name = where + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        ok, kind, description = _kind(defaults[key], value)
        if not ok:
            raise ConfigError(f"{name} must be {description}, got {value!r} "
                              f"({name} must be of kind {kind})")
        if isinstance(defaults[key], dict):
            value = merge_config(defaults[key], value, name + ".")
        out[key] = value
    return out


def check_distinct(name: str, values: list) -> None:
    """Raise ConfigError when two of the numbers ``values`` of the list ``name``
    are equal."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{name} must be distinct, got {values!r}")


def check_distinct_integers(name: str, values: list) -> None:
    """Raise ConfigError unless the numbers ``values`` of the list ``name`` are
    integers (2.0 is one) and no two are equal."""
    if not all(float(v).is_integer() for v in values) or len(set(values)) < len(values):
        raise ConfigError(f"{name} must be distinct integers, got {values!r}")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def atomic_write_text(path: str, text: str | bytes) -> None:
    """Write text (or bytes) to a temp file beside ``path``, then rename it
    over ``path``: every artifact is either its old or its new content.  The
    file gets the permissions ``open`` would give it (0666 less the umask)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".bolab-tmp-{os.getpid()}-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: str, rows) -> None:
    """Write the line ``header``, then one line per row of ``rows``, each
    value as itself if it is a string and as its ``repr`` otherwise, as the
    CSV ``path``: the one writer of every CSV artifact (LF line ends, written
    atomically)."""
    lines = [header, *(",".join(v if isinstance(v, str) else repr(v) for v in row)
                       for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def json_text(data) -> str:
    """``data`` as indented, key-sorted JSON; a NaN or infinity raises AcceptanceFailure."""
    try:
        return json.dumps(data, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise AcceptanceFailure(f"non-finite value in a JSON artifact: {exc}") from exc


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
    from .testing import commutator_constants, operator_identity_errors, random_band_limited

    rng = np.random.default_rng(config["seed"])
    grid = Grid(config["n_points"], config["box_length"])
    one = BilinearSymbol(fn=lambda xi, eta: np.ones(np.broadcast(xi, eta).shape))
    ccfg = config["commutator"]
    errors = operator_identity_errors(grid, rng, config["n_fields"])
    g2 = random_band_limited(grid, rng, 0.25)
    f2 = random_band_limited(grid, rng, 0.25)
    leibnitz = leibnitz_check(one, f2, g2) / max(f2.sup_norm() * g2.sup_norm(), 1e-300)
    cgrid = Grid(ccfg["n_points"], ccfg["box_length"])
    consts = commutator_constants(cgrid, rng, ccfg["n_fields"])

    spread = {n: max(c.values()) / min(c.values()) for n, c in consts.items()}
    rows = [(f"{name}_rel", value, 1e-10) for name, value in errors.items()]
    rows += [
        ("leibnitz_rel", leibnitz, 1e-10),
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
    "threshold": 1e-8,
    "seed": 0,
}


def run_verify_normal_form(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    from .testing import nf_cancellation_sweep

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
        cases = nf_cancellation_sweep(grid, rng, config["bands"], config["orders"],
                                      config["trials_per_case"], config["ll_factor"])
    finally:
        pseudoproduct._branches = original

    # a case whose every generator term is zero (a band with no mode below
    # the grid's Nyquist) has nothing to cancel, and fails rather than pass
    rows = []
    for k, order, trial, resid, scale in cases:
        rel = resid / max(scale, 1e-300)
        rows.append((k, order, trial, resid, scale, rel,
                     int(scale > 0 and rel <= config["threshold"])))
    path = os.path.join(outdir, "normal_form_residuals.csv")
    write_csv(path, "k,N,trial,residual,scale,relative,pass", rows)
    empty = sorted({(k, order) for k, order, _, _, scale in cases if scale == 0})
    if empty:
        raise AcceptanceFailure(f"nothing to cancel at (k, N) = {', '.join(map(str, empty))}: "
                                "every generator term is zero on this grid")
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
    from .kernels import rows_to_csv
    from .testing import kernel_exponents

    rows, exponents = kernel_exponents(config["epsilon"], config["t_sweep"], config["j_sweep"],
                                       config["right_sweep"], config["schro_points"])
    limits = {
        "lowfreq_left_t_slope": config["t_sweep"]["slope_max"],
        "lowfreq_left_j_slope": config["j_sweep"]["slope_max"],
        "dyadic_right_t_slope": config["right_sweep"]["slope_max"],
        "schro_reduction_max_diff": config["schro_tol"],
    }
    sweep_path = os.path.join(outdir, "kernel_sweeps.csv")
    rows_to_csv(rows, sweep_path)
    summary_path = os.path.join(outdir, "kernel_summary.csv")
    if not _write_checks(summary_path, [(n, v, limits[n]) for n, v in exponents.items()]):
        raise AcceptanceFailure("kernel exponent check failed; see summary CSV")
    return [sweep_path, summary_path]


# ---------------------------------------------------------------------------
# evolve / measure-decay / report
# ---------------------------------------------------------------------------


def run_evolve(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    from .decay import ExperimentConfig
    from .solver import dump_snapshot, ledger_to_csv, stream

    cfg = ExperimentConfig.from_dict(config)
    state = cfg.solver_state()
    outputs = []
    # each snapshot is written as the solver's process sends it
    for i, snap in enumerate(stream(state, cfg.t_final, cfg.snapshot_stride)):
        path = os.path.join(outdir, f"snapshot_{i:04d}.bosnap")
        dump_snapshot(snap, path)
        outputs.append(path)
    ledger_path = os.path.join(outdir, "ledger.csv")
    ledger_to_csv(snap.ledger, ledger_path)
    outputs.append(ledger_path)
    return outputs


def run_measure_decay(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    from .decay import ExperimentConfig, run

    cfg = ExperimentConfig.from_dict(config)
    report = run(cfg)
    json_path = os.path.join(outdir, "decay_report.json")
    csv_path = os.path.join(outdir, "decay_report.csv")
    report.to_json(json_path)
    report.to_csv(csv_path)
    return [json_path, csv_path]


def run_report(config: dict, outdir: str, args: argparse.Namespace) -> list[str]:
    from .decay import DecayReport, lowfreq_decay_check

    if not config["input"]:
        raise ConfigError("report needs --input")
    report = DecayReport.from_json(config["input"])
    csv_path = os.path.join(outdir, "decay_report.csv")
    report.to_csv(csv_path)
    print(f"report over t in [{report.times[0]}, {report.times[-1]}], "
          f"shells {report.shells}")
    print(f"epsilon_measured = {report.epsilon_measured:.4f}, "
          f"predicted exponent = {report.predicted_exponent:.4f}")
    try:
        check = lowfreq_decay_check(report)
        print(f"low-frequency bound: slope {check.slope:.3f}, target {check.target:.3f}, "
              f"{'pass' if check.passed else 'FAIL'}")
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


def _experiment_defaults() -> dict:
    from .decay import EXPERIMENT_DEFAULTS  # bolab.decay imports this module

    return EXPERIMENT_DEFAULTS


def _check_counts(config: dict, *names: str) -> None:
    """Each named count of the merged config (a dotted path) is at least 1:
    none of zero fields, trials or points would pass vacuously."""
    for name in names:
        value = config
        for part in name.split("."):
            value = value[part]
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value!r}")


def _check_normal_form(config: dict) -> None:
    _check_counts(config, "trials_per_case")
    # measure-decay's rules for gauge.bands and for the gauge's separation
    check_distinct_integers("bands", config["bands"])
    check_distinct_integers("orders", config["orders"])
    for order in config["orders"]:
        _check_separation(order, config["ll_factor"])


def _check_kernels(config: dict) -> None:
    _check_counts(config, "schro_points")
    # each sweep is fitted against its parameter, at four or more points
    # (kernels.fit_decay's rule) no two of which may share it (measure-decay's
    # rule for its shells); checked here, before any quadrature
    for sweep, key in (("t_sweep", "times"), ("j_sweep", "shells"), ("right_sweep", "times")):
        values = config[sweep][key]
        if len(values) < 4:
            raise ConfigError(f"{sweep}.{key} must hold 4 or more entries, got {values!r}")
        check_distinct(f"{sweep}.{key}", values)
    # the t-sweep is fitted against log2 t
    if min(config["t_sweep"]["times"]) <= 0:
        raise ConfigError(f"t_sweep.times must be positive, got {config['t_sweep']['times']!r}")


#: per command: its defaults, which also serve as its schema (or a function
#: returning them), its runner and a further check of the merged config
COMMANDS = {
    "verify-operators": (OPERATOR_DEFAULTS, run_verify_operators,
                         lambda config: _check_counts(config, "n_fields", "commutator.n_fields")),
    "verify-normal-form": (NORMAL_FORM_DEFAULTS, run_verify_normal_form, _check_normal_form),
    "verify-kernels": (KERNEL_DEFAULTS, run_verify_kernels, _check_kernels),
    "evolve": (_experiment_defaults, run_evolve, None),
    "measure-decay": (_experiment_defaults, run_measure_decay, None),
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
        defaults = defaults() if callable(defaults) else defaults
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
        os.makedirs(outdir, exist_ok=True)

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
