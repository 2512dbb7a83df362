"""The benchmark's workloads: inputs made from the seed, the call into bolab,
and the output checks.

Every threshold below is the one pinned in tests/test_acceptance.py for the
criterion the workload reproduces; none is loosened.  Sizes are cut down from
the acceptance runs so that a run fits the benchmark's time budget; see
README.md for the reasons per workload.
"""

from __future__ import annotations

import csv
import json
import math
import os

SHELLS = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]
BUMP = {"kind": "soliton_bump", "c": 1.0, "x0": 0.0, "bump_amplitude": 0.05,
        "bump_width": 1.0, "bump_center": 2.0}

# thresholds pinned by tests/test_acceptance.py
PERTURBED_DECAY_MARGIN = 0.3      # criterion 12: late exponent >= predicted - 0.3
LEDGER_DRIFT_MAX = 1e-10          # criterion 9: mass and L2 drift
CANCELLATION_MAX = 1e-8           # criterion 6: relative cancellation residual
RESIDUAL_BOX_FACTOR = 1e-3        # criterion 7: residual_box_exact <= 1e-3 * term_scale
T_SLOPE_MAX = -2.8                # criterion 8: lowfreq-left t-sweep
J_SLOPE_MAX = -2.8                # criterion 8: lowfreq-left j-sweep
RIGHT_SLOPE_MAX = -2.7            # criterion 8: dyadic-right t-sweep
SCHRO_MAX = 1e-10                 # criterion 8: Schroedinger reduction

#: parameters per workload and size; "full" is what the benchmark measures,
#: "tiny" is for the smoke tests
PARAMS = {
    "decay-bump": {
        "full": {"n_points": 4096, "t_final": 3.0, "snapshot_stride": 1000},
        "tiny": {"n_points": 1024, "t_final": 0.2, "snapshot_stride": 100},
    },
    "decay-dense": {
        "full": {"n_points": 4096, "t_final": 0.4, "snapshot_stride": 5},
        "tiny": {"n_points": 4096, "t_final": 0.01, "snapshot_stride": 5},
    },
    "nf-residual": {
        # the cancellation runs verify-normal-form's defaults: 5 bands x 2
        # orders x 5 trials = 50 fields at n = 1024
        "full": {"cancellation": {}, "fields": 50, "n_points": 16384, "k": 3.0,
                 "order": 4, "ll_factor": 3.0, "steps": 2},
        "tiny": {"cancellation": {"n_points": 256, "box_length": 2 * math.pi,
                                  "bands": [0, 1], "orders": [2], "trials_per_case": 2},
                 "fields": 4, "n_points": 2048, "k": 1.0, "order": 4, "ll_factor": 3.0,
                 "steps": 2},
    },
    "kernel-sweep": {
        "full": {"t_times": [45.0, 64.0, 90.0, 128.0], "j_shells": [5, 6, 7, 8],
                 "right_j": 2.0, "right_ell": -4.0, "right_times": [46.0, 52.0, 58.0, 64.0],
                 "schro_points": 4},
        # too short for the slope bounds: the smoke test expects those to fail
        "tiny": {"t_times": [2.0, 3.0, 4.0, 5.0], "j_shells": [1, 2, 3, 4],
                 "right_j": 1.0, "right_ell": -8.0, "right_times": [3.0, 4.0, 5.0, 6.0],
                 "schro_points": 2},
    },
}

NAMES = tuple(PARAMS)


class Check:
    """One output check; a non-finite value fails it."""

    def __init__(self, name: str, value: float, limit: float, ok: bool):
        self.name = name
        self.value = value
        self.limit = limit
        self.ok = bool(ok) and math.isfinite(value)

    def as_dict(self) -> dict:
        return {"name": self.name, "value": _jsonable(self.value),
                "limit": _jsonable(self.limit), "ok": self.ok}


def _jsonable(x: float):
    return x if math.isfinite(x) else repr(x)


def _cli(args: list[str]) -> int:
    from bolab import cli

    return cli.main(args)


def _write_json(path: str, data: dict) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
    return path


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def _exit_check(code: int) -> Check:
    return Check("exit_code", float(code), 0.0, code == 0)


# ---------------------------------------------------------------------------
# decay-bump and decay-dense: bolab measure-decay
# ---------------------------------------------------------------------------


def _decay_config(name: str, p: dict, seed: int) -> dict:
    cfg = {"n_points": p["n_points"], "box_length": 400.0, "initial": dict(BUMP),
           "frame_speed": 1.0, "t_final": p["t_final"], "dt": 1e-3,
           "snapshot_stride": p["snapshot_stride"], "shells": SHELLS, "seed": seed}
    if name == "decay-bump":
        cfg["sponge"] = {"enabled": True, "width_fraction": 0.1, "strength": 1.0}
    else:
        # the whole gauge block is given: an override of gauge.enabled alone
        # replaces the default block and leaves no bands
        cfg["gauge"] = {"enabled": True, "order": 4, "ll_factor": 100.0, "bands": [0, 1]}
    return cfg


def run_decay(name: str, p: dict, seed: int, outdir: str) -> list[Check]:
    cfg_path = _write_json(os.path.join(outdir, "config.json"), _decay_config(name, p, seed))
    code = _cli(["measure-decay", "--config", cfg_path, "--output-dir", outdir])
    checks = [_exit_check(code)]
    with open(os.path.join(outdir, "decay_report.json")) as fh:
        report = json.load(fh)
    checks.append(Check("report_finite", 0.0, 0.0, _all_finite(report)))
    if name == "decay-bump":
        from bolab.decay import bootstrap_predict

        predicted = bootstrap_predict(report["epsilon_measured"])
        late = [f for f in report["fits"] if f["kind"] == "sup_plus"][-1]
        late_exponent = -late["slope"]
        checks.append(Check("late_exponent", late_exponent,
                            predicted - PERTURBED_DECAY_MARGIN,
                            late_exponent >= predicted - PERTURBED_DECAY_MARGIN
                            and report["predicted_exponent"] == predicted))
    else:
        ledger = report["ledger"]
        for col, label in ((1, "mass_drift"), (2, "l2_drift")):
            first = ledger[0][col]
            drift = max(abs(row[col] - first) for row in ledger) / abs(first)
            checks.append(Check(label, drift, LEDGER_DRIFT_MAX, drift <= LEDGER_DRIFT_MAX))
        aggregate = any(f["kind"] == "aggregate_sup_plus" for f in report["fits"])
        checks.append(Check("aggregate_fit", float(aggregate), 1.0, aggregate))
        n_times = len(report["times"])
        gauge = report["gauge_sup"]
        complete = sorted(gauge) == ["0", "1"] and all(
            len(series) == n_times for band in gauge.values() for series in band.values())
        checks.append(Check("gauge_bands", float(len(gauge)), 2.0, complete))
    return checks


# ---------------------------------------------------------------------------
# nf-residual: bolab verify-normal-form, then the transformed residual
# ---------------------------------------------------------------------------


def run_nf_residual(p: dict, seed: int, outdir: str) -> list[Check]:
    from bolab.grid import Grid
    from bolab.normal_form import residual_reports_to_csv, transformed_residual
    from bolab.solver import SolverState, evolve, soliton

    # the seed reaches the program as the config seed, from which
    # verify-normal-form draws its band-limited fields
    args = ["verify-normal-form", "--seed", str(seed), "--output-dir", outdir]
    for key, value in p["cancellation"].items():
        args += ["--override", f"{key}={json.dumps(value)}"]
    if p.get("inject_symbol_bug"):
        args.append("--inject-symbol-bug")
    code = _cli(args)
    checks = [_exit_check(code)]
    with open(os.path.join(outdir, "normal_form_residuals.csv")) as fh:
        rows = list(csv.DictReader(fh))
    checks.append(Check("cancellation_fields", float(len(rows)), float(p["fields"]),
                        len(rows) == p["fields"]))
    for row in rows:
        rel = float(row["relative"])
        checks.append(Check(f"cancellation_k{row['k']}_N{row['N']}_{row['trial']}",
                            rel, CANCELLATION_MAX, rel <= CANCELLATION_MAX))

    grid = Grid(p["n_points"], 400.0)
    dt = 1e-3
    state = SolverState(w=soliton(1.0, 0.0, grid), frame="lab", dt=dt)
    snaps = evolve(state, p["steps"] * dt, snapshot_stride=1, record_ledger=False)
    rep = transformed_residual([(s.t, s.w) for s in snaps], p["k"], p["order"], p["ll_factor"])
    residual_reports_to_csv([rep], os.path.join(outdir, "transformed_residual.csv"))
    limit = RESIDUAL_BOX_FACTOR * rep.term_scale
    checks.append(Check("residual_box_exact", rep.residual_box_exact, limit,
                        rep.residual_box_exact <= limit))
    budget = limit + rep.budget_massL + rep.budget_alias
    checks.append(Check("residual_within_budget", rep.residual_inf, budget,
                        rep.residual_inf <= budget))
    return checks


# ---------------------------------------------------------------------------
# kernel-sweep: bolab verify-kernels
# ---------------------------------------------------------------------------


def run_kernel_sweep(p: dict, seed: int, outdir: str) -> list[Check]:
    cfg = {
        "epsilon": 0.5,
        "t_sweep": {"j": 0.0, "a": 1, "times": p["t_times"], "slope_max": T_SLOPE_MAX},
        "j_sweep": {"t": 4.0, "a": 1, "shells": p["j_shells"], "slope_max": J_SLOPE_MAX},
        "right_sweep": {"j": p["right_j"], "k": 0.0, "ell": p["right_ell"], "a": 1, "M": 6,
                        "times": p["right_times"], "slope_max": RIGHT_SLOPE_MAX},
        "schro_points": p["schro_points"],
        "schro_tol": SCHRO_MAX,
        "seed": seed,
    }
    cfg_path = _write_json(os.path.join(outdir, "config.json"), cfg)
    code = _cli(["verify-kernels", "--config", cfg_path, "--output-dir", outdir])
    checks = [_exit_check(code)]
    limits = {"lowfreq_left_t_slope": T_SLOPE_MAX, "lowfreq_left_j_slope": J_SLOPE_MAX,
              "dyadic_right_t_slope": RIGHT_SLOPE_MAX, "schro_reduction_max_diff": SCHRO_MAX}
    with open(os.path.join(outdir, "kernel_summary.csv")) as fh:
        summary = {row["measurement"]: float(row["value"]) for row in csv.DictReader(fh)}
    for name, limit in limits.items():
        value = summary.get(name, math.nan)
        checks.append(Check(name, value, limit, value <= limit))
    with open(os.path.join(outdir, "kernel_sweeps.csv")) as fh:
        rows = list(csv.DictReader(fh))
    expected = len(p["t_times"]) + len(p["j_shells"]) + len(p["right_times"])
    checks.append(Check("sweep_rows", float(len(rows)), float(expected), len(rows) == expected))
    for i, row in enumerate(rows):
        flag = int(row["quad_flag"])
        checks.append(Check(f"quad_flag_{i}", float(flag), 0.0,
                            flag == 0 and float(row["sup"]) > 0.0))
    return checks


def run(name: str, p: dict, seed: int, outdir: str) -> list[Check]:
    """Run one workload into ``outdir`` and return its output checks."""
    if name in ("decay-bump", "decay-dense"):
        return run_decay(name, p, seed, outdir)
    if name == "nf-residual":
        return run_nf_residual(p, seed, outdir)
    if name == "kernel-sweep":
        return run_kernel_sweep(p, seed, outdir)
    raise ValueError(f"unknown workload {name!r}")
