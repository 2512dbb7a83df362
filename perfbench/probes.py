"""Micro-probes of single layers, timed through bolab's public functions.

Each probe makes one call with the tracer recording (so every layer shows up
in the trace, whatever the workload) and then times further calls with the
tracer paused.  A timed probe reports its median, the highest percentile that
has at least ten samples beyond it, and its sample count.
"""

from __future__ import annotations

import time
import tracemalloc
import warnings

import numpy as np

#: samples per fast probe: with 100 samples the 90th percentile is the
#: highest with ten samples beyond it
SAMPLES = 100
TAIL_PERCENTILE = 90


def _timed(fn, samples: int) -> list[float]:
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _summary(prefix: str, seconds: list[float], scale: float) -> dict[str, float]:
    values = np.asarray(seconds) * scale
    out = {prefix: float(np.median(values)), f"{prefix}.n": len(values)}
    if len(values) >= SAMPLES:
        out[f"{prefix}.p{TAIL_PERCENTILE}"] = float(np.percentile(values, TAIL_PERCENTILE))
    return out


def run_probes(tracer) -> dict[str, float]:
    """Run every probe once traced and then timed; return the probe metrics."""
    from bolab.decay import ExperimentConfig, run
    from bolab.grid import Grid
    from bolab.kernels import KernelSpec, kernel_sup
    from bolab.normal_form import transformed_residual
    from bolab.pseudoproduct import assemble_B, nf_generator_terms
    from bolab.solver import SolverState, SpongeConfig, evolve, soliton, step
    from bolab.spectral import coeffs_of, samples_of
    from bolab.testing import random_band_limited

    metrics: dict[str, float] = {}
    rng = np.random.default_rng(0)

    # one FFT pair (coeffs_of + samples_of)
    for n, prefix in ((4096, "spectral.fft_pair_us"), (16384, "spectral.fft_pair_n16384_us")):
        grid = Grid(n, 400.0)
        x = rng.normal(size=n)
        pair = lambda: samples_of(coeffs_of(x, grid), grid)
        pair()
        with tracer.paused():
            metrics.update(_summary(prefix, _timed(pair, SAMPLES), 1e6))

    # one RK4 step at n = 4096, without and with the sponge
    grid = Grid(4096, 400.0)
    for sponge, prefix in ((False, "solver.step_ms"), (True, "solver.step_sponge_ms")):
        state = SolverState(w=soliton(1.0, 0.0, grid), frame="moving", speed=1.0, dt=1e-3,
                            sponge=SpongeConfig(enabled=sponge))
        one = lambda: step(state)
        one()
        with tracer.paused():
            metrics.update(_summary(prefix, _timed(one, SAMPLES), 1e3))
    # a short evolve with the ledger, so conserved() is traced
    evolve(SolverState(w=soliton(1.0, 0.0, grid), frame="moving", speed=1.0, dt=1e-3),
           2e-3, snapshot_stride=1)

    # one snapshot measurement: decay.run with no time steps
    cfg = ExperimentConfig(n_points=4096, box_length=400.0, t_final=0.0)
    snap = lambda: run(cfg)
    snap()
    with tracer.paused():
        metrics.update(_summary("decay.snapshot_probe_ms", _timed(snap, SAMPLES), 1e3))

    # assemble_B at n = 16384, k = 3: first call with its memory peak, then
    # steady state; order 2 keeps its tables apart from nf-residual's (order 4)
    big = Grid(16384, 400.0)
    u = soliton(1.0, 0.0, big)
    with tracer.paused():
        tracemalloc.start()
        t0 = time.perf_counter()
        assemble_B(3.0, 2, u, u, 3.0)
        metrics["pseudoproduct.assemble_B_first_s"] = time.perf_counter() - t0
        metrics["pseudoproduct.assemble_B_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    steady = lambda: assemble_B(3.0, 2, u, u, 3.0)
    steady()
    with tracer.paused():
        metrics["pseudoproduct.assemble_B_steady_ms"] = float(np.median(_timed(steady, 3))) * 1e3

    # one generator assembly and one transformed residual (traced only)
    small = Grid(256, 2 * np.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nf_generator_terms(random_band_limited(small, rng, 0.25), 0.0, 2)
        mid = Grid(2048, 400.0)
        snaps = evolve(SolverState(w=soliton(1.0, 0.0, mid), frame="lab", dt=1e-3),
                       2e-3, snapshot_stride=1, record_ledger=False)
        transformed_residual([(s.t, s.w) for s in snaps], 1.0, 4, 3.0)

    # one kernel_sup on the criterion-8 sampling grid
    spec = KernelSpec(variant="lowfreq-left", j=0.0, t=8.0, a=1, epsilon=0.5, quad_tol=1e-12)
    sup = lambda: kernel_sup(spec, nx=5, ny=5)
    sup()
    with tracer.paused():
        metrics.update(_summary("kernels.kernel_sup_probe_s", _timed(sup, 3), 1.0))
    return metrics
