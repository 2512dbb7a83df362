"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py '<spec json>'

The spec gives the repository root, the workload and its parameters, the
seed, the output directory, the result path, the parent's clock reading just
before it started this process (``t_spawn``) and the mode:

    rep     run the workload; time set-up and the work after it
    setup   stop at the first computing call; time set-up only
    trace   run the workload with every layer traced, then the probe suite

The result (a JSON object) is written to the result path.  The exit code is
0 when the workload ran to its checks, whatever they found, and 1 when it
raised.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

#: where each workload should spend its traced time (the acceptance claim
#: checked by trace.target_share)
TARGET_LAYERS = {
    "decay-bump": ("solver", "spectral"),
    "decay-dense": ("pseudoproduct", "normal_form"),
    "nf-residual": ("pseudoproduct",),
    "kernel-sweep": ("kernels", "cutoffs"),
}


def peak_rss_mb() -> float:
    """High-water resident set of this process image."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(table, tracer, workload: str) -> tuple[dict, dict]:
    """Per-layer counts and times over the traced process (workload and
    probes), plus the accounting of the workload root; also returns the
    workload's self seconds per layer."""
    import numpy as np

    snapshots = table.count("decay._fit_snapshot")
    sups = table.durations("kernels.kernel_sup")
    quad_calls = table.count("kernels.phase_integral")
    m = {
        "spectral.transform_calls": table.count("spectral.coeffs_of", "spectral.samples_of"),
        "spectral.self_s": table.layer_self("spectral"),
        "cutoffs.calls": table.layer_entries("cutoffs"),
        "cutoffs.self_s": table.layer_self("cutoffs"),
        "solver.steps": tracer.steps,
        "solver.advance_calls": table.count("solver._advance"),
        "solver.evolve_self_s": table.self_within("solver", "solver.evolve"),
        "solver.conserved_ms": table.median_ms("solver.conserved"),
        "decay.snapshots": snapshots,
        "decay.snapshot_ms": 1e3 * table.self_within("decay", "decay.run") / max(snapshots, 1),
        "pseudoproduct.assemble_B_calls": table.count("pseudoproduct.assemble_B"),
        "pseudoproduct.assemble_B_ms": table.median_ms("pseudoproduct.assemble_B"),
        "pseudoproduct.generator_ms": table.median_ms("pseudoproduct.nf_generator_terms"),
        "normal_form.transform_ms": table.median_ms("normal_form.transform"),
        "normal_form.gauge_context_calls": table.count("normal_form.make_gauge_context"),
        "normal_form.residual_self_s": table.self_within("normal_form",
                                                         "normal_form.transformed_residual"),
        "kernels.kernel_sup_s": float(np.median(sups)) if len(sups) else 0.0,
        "kernels.kernel_sup_max_s": float(np.max(sups)) if len(sups) else 0.0,
        "kernels.phase_integral_calls": quad_calls,
        "kernels.phase_integral_ms": table.median_ms("kernels.phase_integral"),
        "kernels.nonconverged_frac": tracer.nonconverged / max(quad_calls, 1),
        "cli.write_s": table.top_writes_s(),
        "trace.spans": len(table.dur),
    }
    breakdown = table.breakdown(run=0)
    wall = sum(breakdown.values())
    m["trace.unaccounted_s"] = breakdown.get("bench", 0.0)
    m["trace.target_share"] = sum(breakdown.get(l, 0.0) for l in TARGET_LAYERS[workload]) / wall
    return m, breakdown


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    mode = spec["mode"]
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    result: dict = {"mode": mode}

    # every layer is imported before the work starts, so imports count
    # towards set-up whichever module a workload reaches first
    t_import = time.perf_counter()
    import importlib

    import numpy
    import scipy

    import spans
    import workloads

    for name in spans.LAYERS:
        importlib.import_module(f"bolab.{name}")
    result["import_s"] = time.perf_counter() - t_import
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}

    if mode == "trace":
        hook = spans.Tracer()
    else:
        hook = spans.FirstCall(stop=mode == "setup")
    os.makedirs(spec["outdir"], exist_ok=True)
    try:
        t_start = time.perf_counter()
        with hook.root("workload") if mode == "trace" else contextlib.nullcontext():
            checks = workloads.run(spec["workload"], spec["params"], spec["seed"],
                                   spec["outdir"])
            with open(os.path.join(spec["outdir"], "checks.json"), "w") as fh:
                json.dump([c.as_dict() for c in checks], fh, indent=1)
        t_end = time.perf_counter()
        first = hook.first_call if mode == "trace" else hook.time
    except spans.SetupDone:
        result["setup_s"] = hook.time - spec["t_spawn"]
        _write(spec["result"], result)
        return 0
    except Exception:
        result["error"] = traceback.format_exc()
        _write(spec["result"], result)
        print(result["error"], file=sys.stderr)
        return 1

    result["setup_s"] = first - spec["t_spawn"]
    result["wall_s"] = t_end - first
    result["run_s"] = t_end - t_start
    result["peak_rss_mb"] = peak_rss_mb()
    result["checks"] = [c.as_dict() for c in checks]
    if mode == "trace":
        from probes import run_probes

        with hook.root("probes"):
            probe_metrics = run_probes(hook)
        table = spans.SpanTable(hook)
        metrics, breakdown = layer_metrics(table, hook, spec["workload"])
        metrics.update(probe_metrics)
        metrics["cli.import_s"] = result["import_s"]
        result["layer_metrics"] = metrics
        result["breakdown_s"] = breakdown
        hook.save(spec["trace_path"], run_id=os.path.basename(spec["outdir"]))
    _write(spec["result"], result)
    return 0


def _write(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
