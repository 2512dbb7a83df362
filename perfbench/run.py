"""bolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bolab checkout.  Every repetition of the workload is
a fresh interpreter (perfbench/child.py), so imports and the first-call
table builds are paid the way a user pays them.  With ``--trace 0`` the run
repeats the workload until ``--seconds`` are used and reports the median
end-to-end metrics; with ``--trace 1`` it makes one plain and one traced
repetition and reports the per-layer metrics.  ``--workload all`` runs every
workload in turn and prints one summary row each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names are
those listed in BENCHMARK.json.  Earlier lines describe the machine and each
repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NAMES, PARAMS  # noqa: E402

#: BLAS threads in every child; assemble_B's matrix products run on OpenBLAS,
#: and one thread is both the steadiest and, at these sizes, the fastest
BLAS_THREADS = 1
#: set-up is sampled at least this many times per run (repetitions plus
#: set-up-only processes), and the median reported
MIN_SETUP_SAMPLES = 5
#: a run stops starting processes this long after it began, so it ends
#: within 180 s
RUN_LIMIT_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def git_rev(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'none'
    outside a repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: str) -> str:
    """SHA-256 over src/bolab/*.py, which identifies the code outside git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "bolab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_rev": git_rev(root), "source_sha256": source_digest(root),
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "blas_threads": BLAS_THREADS}


class Runner:
    """Starts child processes for one workload run and collects their results."""

    def __init__(self, root: str, workload: str, params: dict, seed: int, outdir: str):
        self.root = root
        self.workload = workload
        self.params = params
        self.seed = seed
        self.outdir = outdir
        self.start = time.perf_counter()
        self.count = 0
        self.env = child_env()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, mode: str) -> tuple[dict | None, float]:
        """Run one child; return (result or None if it failed, its duration)."""
        self.count += 1
        rep_dir = os.path.join(self.outdir, f"{self.count:03d}-{mode}")
        os.makedirs(rep_dir)
        result_path = os.path.join(rep_dir, "result.json")
        spec = {"root": self.root, "mode": mode, "workload": self.workload,
                "params": self.params, "seed": self.seed, "outdir": rep_dir,
                "result": result_path,
                "trace_path": os.path.join(self.outdir, "spans.npz")}
        t0 = time.perf_counter()
        spec["t_spawn"] = t0
        with open(os.path.join(rep_dir, "stdout.txt"), "w") as out, \
                open(os.path.join(rep_dir, "stderr.txt"), "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                    cwd=self.root, env=self.env, stdout=out, stderr=err,
                    timeout=max(self.remaining(), 1.0))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
        elapsed = time.perf_counter() - t0
        result = None
        if code == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        return result, elapsed


def tally(results: list[dict | None]) -> tuple[int, int]:
    """(attempted, failed) output checks; a failed process counts as one
    attempted and failed check."""
    attempted = failed = 0
    for r in results:
        if r is None:
            attempted += 1
            failed += 1
        else:
            attempted += len(r["checks"])
            failed += sum(not c["ok"] for c in r["checks"])
    return attempted, failed


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, extra_params: dict | None = None) -> dict:
    """Measure one workload; return the result object printed last."""
    outdir = os.path.join(HERE, "out", workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    params = dict(PARAMS[workload][size], **(extra_params or {}))
    runner = Runner(root, workload, params, seed, outdir)

    if trace:
        plain, _ = runner.child("rep")
        traced, _ = runner.child("trace")
        results = [plain, traced]
        attempted, failed = tally(results)
        metrics = dict(traced["layer_metrics"]) if traced else {}
        if plain and traced:
            metrics["trace.wall_s"] = traced["run_s"]
            metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
            print(json.dumps({"workload": workload, "breakdown_s": traced["breakdown_s"]}))
        env_source = traced or plain
    else:
        results, durations, setups = [], [], []
        while True:
            result, elapsed = runner.child("rep")
            results.append(result)
            durations.append(elapsed)
            if result:
                setups.append(result["setup_s"])
                print(json.dumps({"workload": workload, "rep": len(results),
                                  "wall_s": result["wall_s"], "setup_s": result["setup_s"],
                                  "peak_rss_mb": result["peak_rss_mb"]}))
            used = time.perf_counter() - runner.start
            if used + 0.5 * median(durations) >= seconds or runner.remaining() < 2 * max(durations):
                break
        while len(setups) < MIN_SETUP_SAMPLES and runner.remaining() > 10.0:
            result, _ = runner.child("setup")
            if result is None:
                results.append(None)
            else:
                setups.append(result["setup_s"])
        good = [r for r in results if r]
        attempted, failed = tally(results)
        metrics = {
            "wall_s": median([r["wall_s"] for r in good]) or median(durations),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        }
        env_source = good[0] if good else None
    info = machine(root)
    if env_source:
        info.update(env_source["versions"])
    print(json.dumps({"workload": workload, "seed": seed, "size": size, "machine": info,
                      "processes": runner.count,
                      "fail_frac": failed / max(attempted, 1)}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def metric_specs(root: str, trace: bool) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at smoke-test size")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bolab", "__init__.py")):
        print("perfbench: no bolab sources under ./src/bolab; run from the root of a checkout",
              file=sys.stderr)
        return 2
    specs = metric_specs(root, bool(args.trace))

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.size)
        result["metrics"] = {spec["name"]: {"value": result["metrics"].get(spec["name"], 0.0),
                                            "unit": spec["unit"]} for spec in specs}
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(f"{'workload':14s} " + " ".join(f"{s['name']:>12s}" for s in specs[:3])
          + f" {'fail_frac':>9s}")
    for name, r in results.items():
        values = " ".join(f"{r['metrics'][s['name']]['value']:12.4g}" for s in specs[:3])
        print(f"{name:14s} {values} {r['failed'] / max(r['attempted'], 1):9.3f}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
