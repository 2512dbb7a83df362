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
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .errors import AcceptanceFailure, BolabError, ConfigError

DEFAULT_OUTDIR_ENV = "BOLAB_OUTDIR"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def load_config(path: str | None, defaults: dict) -> dict:
    if path is None:
        return json.loads(json.dumps(defaults))
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
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


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def merge_config(defaults: dict, config: dict, where: str = "") -> dict:
    """``config`` merged over ``defaults``, which also serve as the schema:
    an unknown key, or a value not of its default's kind (object, non-empty
    list of numbers, integer, number), raises ConfigError."""
    out = json.loads(json.dumps(defaults))
    for key, value in config.items():
        name = where + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be an object, got {value!r}")
            value = merge_config(default, value, name + ".")
        elif isinstance(default, list):
            if not (isinstance(value, list) and value and all(map(_number, value))):
                raise ConfigError(f"{name} must be a non-empty list of numbers, got {value!r}")
        elif isinstance(default, int):
            if not (_number(value) and isinstance(value, int)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        elif not _number(value):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        out[key] = value
    return out


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bolab-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir: str, command: str, config: dict, seed: int, outputs: list[str]) -> str:
    import scipy

    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "bolab_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed": seed,
        "outputs": {os.path.basename(p): file_sha256(p) for p in outputs},
    }
    path = os.path.join(outdir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=1, sort_keys=True) + "\n")
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


def run_verify_operators(config: dict, outdir: str, seed: int) -> list[str]:
    from .grid import Grid
    from .pseudoproduct import BilinearSymbol, leibnitz_check
    from .spectral import (
        analyze,
        hilbert,
        lp_partition_bounds,
        lp_project,
        spatial_cutoff,
    )
    from .testing import random_band_limited, random_compact_bump

    rng = np.random.default_rng(seed)
    grid = Grid(config["n_points"], config["box_length"])
    rows = []
    worst = {"parseval": 0.0, "hh": 0.0, "partition": 0.0, "leibnitz": 0.0}
    k_min, k_max = lp_partition_bounds(grid)
    one = BilinearSymbol(fn=lambda xi, eta: np.ones(np.broadcast(xi, eta).shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(config["n_fields"]):
            f = random_band_limited(grid, rng, 0.45)
            s = analyze(f)
            worst["parseval"] = max(
                worst["parseval"], abs(f.l2_norm() - s.l2_norm()) / f.l2_norm()
            )
            hh = hilbert(hilbert(f))
            worst["hh"] = max(
                worst["hh"],
                float(np.max(np.abs(hh.samples + f.samples))) / f.sup_norm(),
            )
            total = lp_project(f, k_min, "leq").samples.copy()
            for k in range(k_min + 1, k_max + 1):
                total += lp_project(f, k, "full").samples
            worst["partition"] = max(
                worst["partition"],
                float(np.max(np.abs(total - f.samples))) / f.sup_norm(),
            )
        g2 = random_band_limited(grid, rng, 0.25)
        f2 = random_band_limited(grid, rng, 0.25)
        worst["leibnitz"] = leibnitz_check(one, f2, g2) / max(
            f2.sup_norm() * g2.sup_norm(), 1e-300
        )

        # Hilbert commutator constants over shells
        cgrid = Grid(config["commutator"]["n_points"], config["commutator"]["box_length"])
        comm_rows = []
        for j in range(3, 9):
            cj = 0.0
            for _ in range(config["commutator"]["n_fields"]):
                f = random_compact_bump(cgrid, rng)
                l1 = cgrid.dx * float(np.sum(np.abs(f.samples)))
                chi_f = spatial_cutoff(f, j, "+", "exact")
                comm = (
                    spatial_cutoff(hilbert(f), j, "+", "exact").samples
                    - hilbert(chi_f).samples
                )
                cj = max(cj, float(np.max(np.abs(comm))) * 2.0**j / l1)
            comm_rows.append((j, cj))

    rows.append(("parseval_rel", worst["parseval"], 1e-10))
    rows.append(("hilbert_squared_rel", worst["hh"], 1e-10))
    rows.append(("lp_partition_rel", worst["partition"], 1e-10))
    rows.append(("leibnitz_rel", worst["leibnitz"], 1e-10))
    cs = [c for _, c in comm_rows]
    rows.append(("commutator_constant_spread", max(cs) / min(cs), 3.0))

    path = os.path.join(outdir, "operator_suite.csv")
    lines = ["measurement,value,threshold,pass"]
    failed = False
    for name, value, thresh in rows:
        ok = value <= thresh
        failed = failed or not ok
        lines.append(f"{name},{value!r},{thresh!r},{int(ok)}")
    for j, c in comm_rows:
        lines.append(f"commutator_constant_j{j},{c!r},,")
    atomic_write_text(path, "\n".join(lines) + "\n")
    if failed:
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
    "ll_factor": 100.0,
    "threshold": 1e-8,
    "seed": 0,
}


def run_verify_normal_form(config: dict, outdir: str, seed: int,
                           inject_symbol_bug: bool = False) -> list[str]:
    from .grid import Grid
    from . import pseudoproduct
    from .pseudoproduct import nf_cancellation_scale, nf_generator_terms
    from .testing import random_band_limited

    rng = np.random.default_rng(seed)
    grid = Grid(config["n_points"], config["box_length"])
    lines = ["k,N,trial,residual,scale,relative,pass"]
    failed = False

    # test fixture: perturb one half of B_k by a relative 1e-3
    original = pseudoproduct._branches

    def buggy(*args):
        first, second = original(*args)
        return 1.001 * first, second

    try:
        if inject_symbol_bug:
            pseudoproduct._branches = buggy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in config["bands"]:
                for order in config["orders"]:
                    for trial in range(config["trials_per_case"]):
                        u = random_band_limited(grid, rng, 0.25)
                        terms = nf_generator_terms(u, k, order, config["ll_factor"])
                        total = sum(t.samples for t in terms.values())
                        resid = float(np.max(np.abs(total)))
                        scale = nf_cancellation_scale(terms)
                        rel = resid / max(scale, 1e-300)
                        ok = rel <= config["threshold"]
                        failed = failed or not ok
                        lines.append(
                            f"{k},{order},{trial},{resid!r},{scale!r},{rel!r},{int(ok)}"
                        )
    finally:
        pseudoproduct._branches = original

    path = os.path.join(outdir, "normal_form_residuals.csv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    if failed:
        raise AcceptanceFailure("normal-form cancellation residual above threshold")
    return [path]


# ---------------------------------------------------------------------------
# verify-kernels
# ---------------------------------------------------------------------------

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


def run_verify_kernels(config: dict, outdir: str, seed: int) -> list[str]:
    from .kernels import KernelSpec, fit_decay, phase_integral, rows_to_csv, sweep_j, sweep_t

    eps = config["epsilon"]
    all_rows = []
    results = []

    tcfg = config["t_sweep"]
    spec = KernelSpec(variant="lowfreq-left", j=tcfg["j"], t=tcfg["times"][0],
                      a=tcfg["a"], epsilon=eps, quad_tol=1e-12)
    rows = sweep_t(spec, tcfg["times"], nx=5, ny=5)
    all_rows += rows
    fit = fit_decay([(np.log2(r["t"]), r["sup"]) for r in rows])
    results.append(("lowfreq_left_t_slope", fit.slope, tcfg["slope_max"],
                    fit.slope <= tcfg["slope_max"]))

    jcfg = config["j_sweep"]
    spec = KernelSpec(variant="lowfreq-left", j=jcfg["shells"][0], t=jcfg["t"],
                      a=jcfg["a"], epsilon=eps, quad_tol=1e-12)
    rows = sweep_j(spec, jcfg["shells"], nx=5, ny=5)
    all_rows += rows
    fit = fit_decay([(r["j"], r["sup"]) for r in rows])
    results.append(("lowfreq_left_j_slope", fit.slope, jcfg["slope_max"],
                    fit.slope <= jcfg["slope_max"]))

    rcfg = config["right_sweep"]
    spec = KernelSpec(variant="dyadic-right", j=rcfg["j"], t=rcfg["times"][0],
                      a=rcfg["a"], k=rcfg["k"], ell=rcfg["ell"], M=rcfg["M"],
                      quad_tol=1e-12)
    rows = sweep_t(spec, rcfg["times"], nx=5, ny=5)
    all_rows += rows
    fit = fit_decay([(np.log2(r["t"]), r["sup"]) for r in rows])
    results.append(("dyadic_right_t_slope", fit.slope, rcfg["slope_max"],
                    fit.slope <= rcfg["slope_max"]))

    # Schroedinger reduction on the positive half-line band
    bo = KernelSpec(variant="dyadic-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12)
    sch = KernelSpec(variant="schro-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12)
    cut = lambda xi: bo.cutoffs.shell(1.0, xi)
    npts = config["schro_points"]
    xs, ys = np.meshgrid(np.linspace(4.0, 16.0, npts), np.linspace(-4.0, 2.0 ** (3 - 9), npts))
    v1 = phase_integral(bo, xs, ys, cutoff_override=cut, range_override=(0.5, 4.0)).value
    v2 = phase_integral(sch, xs, ys).value
    worst = float(np.max(np.abs(v1 - v2)))
    results.append(("schro_reduction_max_diff", worst, config["schro_tol"],
                    worst <= config["schro_tol"]))

    sweep_path = os.path.join(outdir, "kernel_sweeps.csv")
    rows_to_csv(all_rows, sweep_path + ".tmp")
    os.replace(sweep_path + ".tmp", sweep_path)
    summary_path = os.path.join(outdir, "kernel_summary.csv")
    lines = ["measurement,value,threshold,pass"]
    failed = False
    for name, value, thresh, ok in results:
        failed = failed or not ok
        lines.append(f"{name},{value!r},{thresh!r},{int(ok)}")
    atomic_write_text(summary_path, "\n".join(lines) + "\n")
    if failed:
        raise AcceptanceFailure("kernel exponent check failed; see summary CSV")
    return [sweep_path, summary_path]


# ---------------------------------------------------------------------------
# evolve / measure-decay / report
# ---------------------------------------------------------------------------


def run_evolve(config: dict, outdir: str) -> list[str]:
    from .decay import ExperimentConfig
    from .solver import SolverState, SpongeConfig, dump_snapshot, evolve, ledger_to_csv

    cfg = ExperimentConfig.from_dict(config)
    state = SolverState(
        w=cfg.initial_field(),
        frame="moving",
        speed=cfg.frame_speed,
        dt=cfg.dt,
        sponge=SpongeConfig(**cfg.sponge),
    )
    snaps = evolve(state, cfg.t_final, snapshot_stride=cfg.snapshot_stride)
    outputs = []
    for i, snap in enumerate(snaps):
        path = os.path.join(outdir, f"snapshot_{i:04d}.bosnap")
        dump_snapshot(snap, path)
        outputs.append(path)
    ledger_path = os.path.join(outdir, "ledger.csv")
    ledger_to_csv(snaps[-1].ledger, ledger_path)
    outputs.append(ledger_path)
    return outputs


def run_measure_decay(config: dict, outdir: str) -> list[str]:
    from .decay import ExperimentConfig, run

    cfg = ExperimentConfig.from_dict(config)
    report = run(cfg)
    json_path = os.path.join(outdir, "decay_report.json")
    csv_path = os.path.join(outdir, "decay_report.csv")
    report.to_json(json_path)
    report.to_csv(csv_path)
    return [json_path, csv_path]


def run_report(config: dict, outdir: str) -> list[str]:
    from .decay import DecayReport

    path = config.get("input")
    if not path or not os.path.exists(path):
        raise ConfigError(f"report input not found: {path}")
    report = DecayReport.from_json(path)
    csv_path = os.path.join(outdir, "decay_report.csv")
    report.to_csv(csv_path)
    print(f"report over t in [{report.times[0]}, {report.times[-1]}], "
          f"shells {report.shells}")
    print(f"epsilon_measured = {report.epsilon_measured:.4f}, "
          f"predicted exponent = {report.predicted_exponent:.4f}")
    for fit in report.fits:
        t = fit["time"]
        label = "aggregate" if t is None else f"t={t:g}"
        print(f"  {fit['kind']} {label}: slope {fit['slope']:.3f} "
              f"(R^2 {fit['r_squared']:.4f}, {fit['n_points']} shells)")
    return [csv_path]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "verify-operators": OPERATOR_DEFAULTS,
    "verify-normal-form": NORMAL_FORM_DEFAULTS,
    "verify-kernels": KERNEL_DEFAULTS,
    "evolve": {},
    "measure-decay": {},
    "report": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bolab",
        description="numerical laboratory for unidirectional dispersive decay",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DEFAULTS:
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
        defaults = _DEFAULTS[args.command]
        config = apply_overrides(load_config(args.config, defaults), args.override)
        if defaults:  # the verify-* commands; the others validate their own
            config = merge_config(defaults, config)
        if args.command == "verify-kernels" and config["schro_points"] < 1:
            raise ConfigError(f"schro_points must be at least 1, got {config['schro_points']!r}")
        if args.command == "report" and args.input is not None:
            config["input"] = args.input
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        if "seed" in config or args.seed is not None:
            config["seed"] = seed
        outdir = args.output_dir or os.environ.get(DEFAULT_OUTDIR_ENV) or "bolab-out"
        os.makedirs(outdir, exist_ok=True)

        if args.command == "verify-operators":
            outputs = run_verify_operators(config, outdir, seed)
        elif args.command == "verify-normal-form":
            outputs = run_verify_normal_form(
                config, outdir, seed, inject_symbol_bug=args.inject_symbol_bug
            )
        elif args.command == "verify-kernels":
            outputs = run_verify_kernels(config, outdir, seed)
        elif args.command == "evolve":
            outputs = run_evolve(config, outdir)
        elif args.command == "measure-decay":
            outputs = run_measure_decay(config, outdir)
        else:
            outputs = run_report(config, outdir)
        write_manifest(outdir, args.command, config, seed, outputs)
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
