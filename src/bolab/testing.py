"""Deterministic random-field builders and the verification measurements
shared by the acceptance tests and the CLI verification commands, each
measuring with the code that the commands run.  The oracles that only the
tests evaluate live beside them, in ``tests/oracles.py``.

All generators work in frequency space so fields are exactly band-limited,
mean-zero and Nyquist-free (the conventions every projector assumes), with
Hermitian coefficients so samples are real.  The measurements return plain
lists and dicts; callers keep their own sizes, seeds and thresholds.
"""

from __future__ import annotations

import numpy as np

from . import cutoffs
from .errors import ConfigError, KernelDomainError
from .grid import ComplexField, Field, Grid
from .kernels import KernelSpec, fit_decay, phase_integral, sweep
from .pseudoproduct import QUARTIC_MARGIN, SQRT_2PI, BandKernel, verify_nf_cancellation
from .spectral import (apply_multiplier, coeffs_of, derivative, derivative_values, hilbert,
                       lp_partition_bounds, lp_project, samples_of, spatial_cutoff)

#: dyadic shells j of the Hilbert commutator constants
COMMUTATOR_SHELLS = range(3, 9)


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    band_fraction: float = 0.5,
    rows: int | None = None,
) -> Field | list[Field]:
    """Real mean-zero field with spectrum supported in 0 < |xi| <= fraction * Nyquist,
    or a list of ``rows`` such fields, drawn in turn from ``rng`` as one at a time
    would be and inverted as one stack.  A band that holds no grid mode, or a box
    so large or so small that a field's L2 norm underflows to 0 or overflows,
    raises ConfigError."""
    n = grid.n_points
    half = np.arange(1, n // 2)  # positive modes, Nyquist excluded
    live = 2.0 * np.pi * half / grid.box_length <= band_fraction * grid.nyquist
    if not live.any():
        raise ConfigError(f"no grid mode lies in 0 < |xi| <= {band_fraction} * Nyquist: "
                          f"dxi = {grid.dxi:.3g}, Nyquist {grid.nyquist:.3g}")
    draws = rng.normal(size=(1 if rows is None else rows, 2, half.size))
    vals = (draws[:, 0] + 1j * draws[:, 1]) * live
    coeffs = np.zeros((len(vals), n), dtype=complex)
    coeffs[:, n // 2 + half] = vals
    coeffs[:, n // 2 - half] = np.conj(vals)
    fields = [Field(grid, samples) for samples in samples_of(coeffs, grid).real]
    for norm in map(Field.l2_norm, fields):
        if not 0.0 < norm < np.inf:
            raise ConfigError(f"a random field on {grid!r} has L2 norm {norm:.3g}: the box "
                              "is out of double precision's range")
    return fields[0] if rows is None else fields


#: support radius and number of the Gaussian bumps of ``random_compact_bump``
BUMP_SUPPORT_RADIUS = 8.0
BUMP_COUNT = 3


def random_compact_bump(grid: Grid, rng: np.random.Generator) -> Field:
    """Real field supported (numerically) within |x| <= BUMP_SUPPORT_RADIUS, a sum
    of BUMP_COUNT Gaussian bumps."""
    samples = np.zeros(grid.n_points)
    for _ in range(BUMP_COUNT):
        center = rng.uniform(-BUMP_SUPPORT_RADIUS / 2.0, BUMP_SUPPORT_RADIUS / 2.0)
        width = rng.uniform(0.5, BUMP_SUPPORT_RADIUS / 4.0)
        amp = rng.normal()
        samples += amp * np.exp(-(((grid.x - center) / width) ** 2))
    return Field(grid, samples)


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def operator_identity_errors(grid: Grid, rng: np.random.Generator, n_fields: int) -> dict:
    """Worst relative errors over ``n_fields`` random band-limited fields of
    four exact lattice identities: Parseval, the multiplier composition
    m1(D) m2(D) = (m1 m2)(D), H^2 = -1 and the Littlewood-Paley partition
    P_{<=k_min} + sum_k P_k = 1."""
    k_min, k_max = lp_partition_bounds(grid)
    m1 = lambda xi: np.exp(-(xi**2) / 50.0)
    m2 = lambda xi: 1j * np.tanh(xi) + np.cos(xi)
    worst = dict.fromkeys(("parseval", "composition", "hilbert_squared", "lp_partition"), 0.0)
    for _ in range(n_fields):
        f = random_band_limited(grid, rng, 0.45)
        once = apply_multiplier(lambda xi: m1(xi) * m2(xi), f)
        twice = apply_multiplier(m1, apply_multiplier(m2, f))
        total = lp_project(f, k_min, "leq").samples.copy()
        for k in range(k_min + 1, k_max + 1):
            total += lp_project(f, k, "full").samples
        spectral_l2 = float(np.sqrt(grid.dxi * np.sum(np.abs(coeffs_of(f.samples, grid)) ** 2)))
        errors = {
            "parseval": abs(f.l2_norm() - spectral_l2) / f.l2_norm(),
            "composition": _sup(once.samples - twice.samples) / once.sup_norm(),
            "hilbert_squared": _sup(hilbert(hilbert(f)).samples + f.samples) / f.sup_norm(),
            "lp_partition": _sup(total - f.samples) / f.sup_norm(),
        }
        for name, value in errors.items():
            worst[name] = max(worst[name], value)
    return worst


def convolution_identity_errors(grid: Grid, rng: np.random.Generator, n_pairs: int) -> dict:
    """Worst relative errors over ``n_pairs`` pairs (f, g) of random fields,
    band-limited to 1/4 of Nyquist, of two exact lattice identities of the
    normal form's one lattice convolution, the paraproduct
    p(f, g) = conv(P+f, Pg / (2 xi)) of ``BandKernel.paraproduct``: the product
    identity p = sqrt(2 pi) a b, a and b the samples of P+f and Pg / (2 xi),
    relative to the sup of the right side, and the Leibniz rule
    d/dx p(f, g) = p(f', g) + p(f, g'), relative to sup f * sup g.  p is a
    circular convolution of length n, exact on xi >= 0 only, but the band limit
    keeps its support below Nyquist, so both identities hold at every frequency.
    The paraproduct's masks are the grid's, so any band's kernel serves."""
    kernel = BandKernel(grid, 0.0, 1)
    d1 = derivative_values(grid, 1)
    worst = {"product": 0.0, "leibnitz": 0.0}
    for _ in range(n_pairs):
        f, g = random_band_limited(grid, rng, 0.25, 2)
        fc, gc = coeffs_of(f.samples, grid), coeffs_of(g.samples, grid)
        p = kernel.paraproduct(fc, gc)
        target = (SQRT_2PI * samples_of(kernel.plus * fc, grid)
                  * samples_of(kernel.inv2xi * gc, grid))
        rule = d1 * p - kernel.paraproduct(d1 * fc, gc) - kernel.paraproduct(fc, d1 * gc)
        worst["product"] = max(worst["product"], _sup(samples_of(p, grid) - target) / _sup(target))
        worst["leibnitz"] = max(worst["leibnitz"],
                                _sup(samples_of(rule, grid)) / (f.sup_norm() * g.sup_norm()))
    return worst


def commutator_constants(grid: Grid, rng: np.random.Generator, n_fields: int) -> dict:
    """``{n: {j: C}}`` for n = 0, 1, 2 and j in COMMUTATOR_SHELLS, where C is
    the worst over ``n_fields`` compact bumps f (drawn shell by shell) of
    2^((n+1) j) |d^n [chi_j^+, H] f|_sup / |f|_L1."""
    consts = {n: dict.fromkeys(COMMUTATOR_SHELLS, 0.0) for n in (0, 1, 2)}
    for j in COMMUTATOR_SHELLS:
        for _ in range(n_fields):
            f = random_compact_bump(grid, rng)
            l1 = grid.dx * float(np.sum(np.abs(f.samples)))
            comm = ComplexField(
                grid,
                spatial_cutoff(hilbert(f), j, "+").samples
                - hilbert(spatial_cutoff(f, j, "+")).samples,
            )
            for n, dn in ((0, comm), (1, derivative(comm, 1)), (2, derivative(comm, 2))):
                consts[n][j] = max(consts[n][j], dn.sup_norm() * 2.0 ** ((n + 1) * j) / l1)
    return consts


#: fields of one (k, N) case of ``nf_cancellation_sweep`` that go through the
#: generator as one stack: the 5 trials per case of verify-normal-form's defaults,
#: and a cap, so that the memory of a sweep does not grow with its trials
SWEEP_BLOCK = 8


def nf_cancellation_sweep(
    grid: Grid, rng: np.random.Generator, bands: list, orders: list, trials: int, ll_factor: float
) -> list[tuple]:
    """``(k, N, trial, residual, scale)`` of the normal-form cancellation for
    ``trials`` random fields per band k and order N, each band-limited to
    QUARTIC_MARGIN * Nyquist, so that their products stop at twice that.  The
    fields are drawn in order, each case's in stacks of at most SWEEP_BLOCK,
    each stack in one inverse transform and one ``BandKernel``."""
    rows = []
    for k in bands:
        for order in orders:
            for start in range(0, trials, SWEEP_BLOCK):
                fields = random_band_limited(grid, rng, QUARTIC_MARGIN,
                                             min(SWEEP_BLOCK, trials - start))
                residual, scale = verify_nf_cancellation(fields, k, order, ll_factor)
                rows += [(k, order, trial, *pair) for trial, pair in
                         enumerate(zip(residual.tolist(), scale.tolist()), start=start)]
    return rows


def _sweep_specs(name: str, field: str, values: list, **params) -> list[KernelSpec]:
    """The KernelSpec of ``params`` with ``field`` set to each of ``values``: the
    points of the verify-kernels sweep ``name``.  A point out of its variant's
    domain raises ConfigError naming the sweep and the point."""
    specs = []
    for value in values:
        try:
            specs.append(KernelSpec(**params, **{field: float(value)}, quad_tol=1e-12))
        except KernelDomainError as exc:
            raise ConfigError(f"{name} at {field} = {value!r}: {exc}") from exc
    return specs


def kernel_exponents(
    epsilon: float, t_sweep: dict, j_sweep: dict, right_sweep: dict, schro_points: int
) -> tuple[list[dict], dict]:
    """Sweep rows and exponents: the fitted slopes of the low-frequency left
    kernel in log2 t and in j and of the dyadic right kernel in log2 t, and the
    largest dyadic-left minus Schroedinger kernel difference on a
    schro_points^2 grid.  The sweep dicts are those of the verify-kernels
    config; their ``slope_max`` and the right sweep's ``M`` are not read.
    Every point of every sweep is checked before the first quadrature."""
    sweeps = (
        _sweep_specs("t_sweep", "t", t_sweep["times"], variant="lowfreq-left",
                     j=t_sweep["j"], a=t_sweep["a"], epsilon=epsilon),
        _sweep_specs("j_sweep", "j", j_sweep["shells"], variant="lowfreq-left",
                     t=j_sweep["t"], a=j_sweep["a"], epsilon=epsilon),
        _sweep_specs("right_sweep", "t", right_sweep["times"], variant="dyadic-right",
                     j=right_sweep["j"], a=right_sweep["a"], k=right_sweep["k"],
                     ell=right_sweep["ell"]),
    )
    t_rows, j_rows, r_rows = (sweep(specs, nx=5, ny=5) for specs in sweeps)

    # Schroedinger reduction on the positive half-line band
    bo = KernelSpec(variant="dyadic-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12)
    sch = KernelSpec(variant="schro-left", j=3.0, t=2.0, a=0, k=1.0, quad_tol=1e-12)
    cut = lambda xi: cutoffs.shell(1.0, xi)
    xs, ys = np.meshgrid(np.linspace(4.0, 16.0, schro_points),
                         np.linspace(-4.0, 2.0 ** (3 - 9), schro_points))
    v1 = phase_integral(bo, xs, ys, cutoff_override=cut, range_override=(0.5, 4.0)).value
    v2 = phase_integral(sch, xs, ys).value

    exponents = {
        "lowfreq_left_t_slope": fit_decay([(np.log2(r["t"]), r["sup"]) for r in t_rows]).slope,
        "lowfreq_left_j_slope": fit_decay([(r["j"], r["sup"]) for r in j_rows]).slope,
        "dyadic_right_t_slope": fit_decay([(np.log2(r["t"]), r["sup"]) for r in r_rows]).slope,
        "schro_reduction_max_diff": _sup(v1 - v2),
    }
    return t_rows + j_rows + r_rows, exponents
