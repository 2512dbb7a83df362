import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import bolab.solver
from bolab.errors import ConfigError, SolverInstabilityError
from bolab.grid import Field, Grid
from bolab.solver import (
    SolverState,
    SpongeConfig,
    _advance,
    conserved,
    dump_snapshot,
    evolve,
    ledger_to_csv,
    linear_symbol,
    load_snapshot,
    soliton,
    step,
    stream,
)
from bolab.spectral import coeffs_of, derivative, hilbert, samples_of
from bolab.testing import random_band_limited
from oracles import rhs


def shift(f, offset):
    """Exact spectral translation f(. - offset) on the periodic grid."""
    grid = f.grid
    c = coeffs_of(f.samples, grid)
    return Field(grid, samples_of(c * np.exp(-1j * grid.xi * offset), grid).real)


def reflect(f):
    """x -> -x on the grid (the x = -L/2 sample is its own image)."""
    return Field(f.grid, np.concatenate((f.samples[:1], f.samples[:0:-1])))


# ---------------------------------------------------------------------------
# the traveling-wave profile
# ---------------------------------------------------------------------------


def test_soliton_profile_values():
    g = Grid(1024, 100.0)
    for c in (0.5, 1.0, 2.0):
        s = soliton(c, 0.0, g)
        peak = np.argmin(np.abs(g.x))
        assert abs(s.samples[peak] - 2.0 * c) < 1e-12
        # value c at distance 1/c from the peak
        i = np.argmin(np.abs(g.x - 1.0 / c))
        exact = 2.0 * c / (c**2 * g.x[i] ** 2 + 1.0)
        assert abs(s.samples[i] - exact) < 1e-12
        assert abs(exact - c) < 2.0 * c * g.dx  # grid point nearest 1/c


def test_soliton_speed_positive():
    g = Grid(256, 50.0)
    with pytest.raises(ValueError):
        soliton(0.0, 0.0, g)


def test_soliton_speed_whose_square_overflows_raises():
    g = Grid(256, 50.0)
    with pytest.raises(ConfigError, match="c \\* c is not finite"):
        soliton(1e200, 0.0, g)
    assert soliton(1e150, 0.0, g).samples.max() == 2e150


def test_soliton_mass_any_speed():
    g = Grid(4096, 400.0)
    for c in (0.5, 2.0):
        s = soliton(c, 0.0, g)
        mass = g.dx * np.sum(s.samples)
        oracle, _ = quad(lambda y: 2.0 * c / (c**2 * y**2 + 1.0), -200.0, 200.0, limit=200)
        assert abs(mass - oracle) < 1e-8
        assert abs(mass - 2.0 * np.pi) < 40.0 / g.box_length


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


def test_rhs_zero_field():
    g = Grid(256, 50.0)
    st = SolverState(w=Field(g, np.zeros(g.n_points)), dt=1e-3)
    assert rhs(st).sup_norm() == 0.0


def test_rhs_single_mode_linear():
    g = Grid(256, 16 * np.pi)
    xi0 = 2 * np.pi * 5 / g.box_length
    st = SolverState(w=Field(g, np.cos(xi0 * g.x)), frame="lab", dt=1e-3, nonlinear=False)
    out = rhs(st)
    # i omega(xi) on each conjugate mode -> -omega(xi0) sin(xi0 x) for cosine data
    target = -np.abs(xi0) * xi0 * np.sin(xi0 * g.x)
    assert np.max(np.abs(out.samples - target)) < 1e-12


def test_rhs_traveling_wave_residual():
    # the exact traveling wave: rhs(S) + S_x = 0 up to box truncation + tail
    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    st = SolverState(w=s, frame="lab", dt=1e-3)
    resid = np.max(np.abs(rhs(st).samples + derivative(s).samples.real))
    assert resid < 20.0 * (g.box_length / 2.0) ** (-2.0) + 1e-4


def test_rhs_moving_frame_soliton_stationary():
    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    st = SolverState(w=s, frame="moving", speed=1.0, dt=1e-3)
    assert rhs(st).sup_norm() < 1e-4


@pytest.mark.parametrize("nonlinear", [False, True])
def test_rhs_matches_step_difference_with_sponge(nonlinear):
    # the soliton sits in the sponge layer, so rhs must carry -sigma w with
    # or without the quadratic term, as the stepper does
    g = Grid(1024, 100.0)
    st = SolverState(w=soliton(1.0, -45.0, g), frame="lab", dt=1e-5,
                     sponge=SpongeConfig(enabled=True), nonlinear=nonlinear)
    centred = (step(st).w.samples - step(replace(st, dt=-st.dt)).w.samples) / (2 * st.dt)
    assert np.max(np.abs(rhs(st).samples - centred)) < 1e-3


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_linear_phase_exact():
    g = Grid(256, 16 * np.pi)
    xi0 = 2 * np.pi * 5 / g.box_length
    w0 = Field(g, np.cos(xi0 * g.x))
    st = SolverState(w=w0, frame="lab", dt=0.01, nonlinear=False)
    out = evolve(st, 1.0, snapshot_stride=100, record_ledger=False)[-1].w
    phase = np.abs(xi0) * xi0 * 1.0
    target = np.real(
        0.5 * np.exp(1j * (xi0 * g.x + phase)) + 0.5 * np.exp(-1j * (xi0 * g.x + phase))
    )
    assert np.max(np.abs(out.samples - target)) < 1e-10


def test_soliton_stationary_in_comoving_frame():
    g = Grid(2048, 400.0)
    s = soliton(1.0, 0.0, g)
    st = SolverState(w=s, frame="moving", speed=1.0, dt=1e-3)
    out = evolve(st, 1.0, snapshot_stride=1000, record_ledger=False)[-1].w
    assert np.max(np.abs(out.samples - s.samples)) < 1e-3


def test_rk4_order_by_self_convergence():
    g = Grid(512, 50.0)
    s = soliton(1.0, 0.0, g)
    T = 0.5
    errs = []
    for dt in (0.02, 0.01):
        st = SolverState(w=s, frame="moving", speed=1.0, dt=dt)
        w = evolve(st, T, snapshot_stride=10**9, record_ledger=False)[-1].w
        ref = evolve(replace(st, dt=dt / 8), T, snapshot_stride=10**9,
                     record_ledger=False)[-1].w
        errs.append(np.max(np.abs(w.samples - ref.samples)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def _complex_fft_advance(state, n_steps):
    """Oracle: the IF-RK4 loop on the full complex spectrum v = fft(samples),
    in FFT order, as the solver ran before it moved to the half spectrum."""
    grid = state.w.grid
    dt = state.dt
    theta = np.fft.ifftshift(linear_symbol(grid, state.drift()))
    half = np.exp(1j * theta * dt / 2.0)
    full = half * half
    mask = (np.abs(grid.xi) <= (2.0 / 3.0) * grid.nyquist).astype(float)
    dxi = -(1j * grid.xi) * mask
    dxi[0] = 0.0  # unpaired Nyquist mode
    dxi = np.fft.ifftshift(dxi)
    sigma = state.sponge.profile(grid)

    def nl(c):
        w = np.fft.ifft(c)
        out = dxi * np.fft.fft(w * w) if state.nonlinear else np.zeros_like(c)
        return out - np.fft.fft(sigma * w)

    v = np.fft.fft(state.w.samples.astype(complex))
    for _ in range(n_steps):
        k1 = nl(v)
        k2 = nl(half * (v + 0.5 * dt * k1))
        k3 = nl(half * v + 0.5 * dt * k2)
        k4 = nl(full * v + dt * half * k3)
        v = full * v + dt / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4)
    w = np.fft.ifft(v)
    assert np.max(np.abs(w.imag)) <= 1e-10 * (1.0 + np.max(np.abs(w)))
    return Field(grid, w.real)


@pytest.mark.parametrize("sponge", [False, True])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_advance_matches_complex_fft_oracle(rng, sponge, nonlinear):
    g = Grid(1024, 100.0)
    w0 = Field(g, soliton(1.0, -40.0, g).samples + 0.3 * random_band_limited(g, rng, 0.3).samples)
    st = SolverState(w=w0, frame="moving", speed=1.0, dt=2e-3,
                     sponge=SpongeConfig(enabled=sponge, strength=2.0), nonlinear=nonlinear)
    out = _advance(st, 200)
    ref = _complex_fft_advance(st, 200)
    assert out.t == st.t + 200 * st.dt
    assert np.max(np.abs(out.w.samples - ref.samples)) <= 1e-13
    # the sponge and the quadratic term each move the field well beyond that
    assert np.max(np.abs(out.w.samples - w0.samples)) > 1e-3


def _counting(monkeypatch, name, calls):
    fn = getattr(np.fft, name)

    def counted(a, *args, **kwargs):
        calls.append(np.ndim(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, name, counted)


@pytest.mark.parametrize("sponge, rfft_rows", [(False, [1] * 41), (True, [1] + [2] * 40)])
def test_stage_transforms_share_one_call(monkeypatch, sponge, rfft_rows):
    # 10 steps of 4 stages, plus the first rfft and the last irfft: with the
    # sponge, w^2 and sigma w go through one two-row rfft per stage
    g = Grid(1024, 100.0)
    st = SolverState(w=soliton(1.0, 0.0, g), frame="moving", speed=1.0, dt=1e-3,
                     sponge=SpongeConfig(enabled=sponge))
    rfft, irfft = [], []
    _counting(monkeypatch, "rfft", rfft)
    _counting(monkeypatch, "irfft", irfft)
    _advance(st, 10)
    assert irfft == [1] * 41
    assert rfft == rfft_rows


def _two_call_nonlinearity(grid, sigma, nonlinear):
    """The stage nonlinearity with separate rffts of w^2 and sigma w."""
    n = grid.n_points
    mask = np.abs(grid.xi) <= (2.0 / 3.0) * grid.nyquist
    dxi = np.fft.ifftshift(-(1j * grid.xi) * mask)[: n // 2 + 1]
    w, prod, tmp = np.empty(n), np.empty(n), np.empty(n // 2 + 1, dtype=complex)

    def nl(v, out):
        np.fft.irfft(v, n, out=w)
        np.multiply(w, w, out=prod)
        np.fft.rfft(prod, out=out)
        out *= dxi
        np.multiply(sigma, w, out=prod)
        out -= np.fft.rfft(prod, out=tmp)
        return out

    return nl


def test_sponge_step_equals_two_call_stage_bitwise(monkeypatch, rng):
    g = Grid(1024, 100.0)
    w0 = Field(g, soliton(1.0, -40.0, g).samples + 0.3 * random_band_limited(g, rng, 0.3).samples)
    st = SolverState(w=w0, frame="moving", speed=1.0, dt=2e-3,
                     sponge=SpongeConfig(enabled=True, strength=2.0))
    out = _advance(st, 50)
    monkeypatch.setattr(bolab.solver, "_nonlinearity", _two_call_nonlinearity)
    assert np.array_equal(out.w.samples, _advance(st, 50).w.samples)


def _per_stride_snapshots(state, n_steps, stride):
    """The oracle of ``evolve``'s snapshots: one ``_advance``, so one integrator,
    per stride, from the previous snapshot."""
    snaps, done = [state], 0
    while done < n_steps:
        todo = min(stride, n_steps - done)
        snaps.append(_advance(snaps[-1], todo))
        done += todo
    return snaps


@pytest.mark.parametrize("sponge", [False, True])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_evolve_builds_one_integrator_per_run(monkeypatch, rng, sponge, nonlinear):
    # 23 steps in strides of 3 (the last one of 2): 8 strides, one stage
    # nonlinearity, and the snapshots of one integrator per stride bit for bit
    g = Grid(512, 100.0)
    w0 = Field(g, soliton(1.0, -20.0, g).samples + 0.3 * random_band_limited(g, rng, 0.3).samples)
    st = SolverState(w=w0, frame="moving", speed=1.0, dt=2e-3,
                     sponge=SpongeConfig(enabled=sponge, strength=2.0), nonlinear=nonlinear)
    expected = _per_stride_snapshots(st, 23, 3)
    built = []
    nonlinearity = bolab.solver._nonlinearity

    def counted(*args):
        built.append(args)
        return nonlinearity(*args)

    monkeypatch.setattr(bolab.solver, "_nonlinearity", counted)
    snaps = evolve(st, 23 * st.dt, snapshot_stride=3)
    assert len(built) == 1
    assert len(snaps) == len(expected) == 9
    for snap, ref in zip(snaps, expected):
        assert snap.t == ref.t
        assert np.array_equal(snap.w.samples, ref.w.samples)
    assert not np.array_equal(snaps[-1].w.samples, w0.samples)


@pytest.mark.parametrize("dt, t_final", [(0.0, 0.01), (-1e-3, 0.01), (1e-3, -0.01),
                                         (1e-320, 0.01)])
def test_evolve_rejects_steps_that_do_not_reach_t_final(dt, t_final):
    # backward evolution (dt and t_final both negative) stays allowed, see
    # test_time_reversal_symmetry; a stride below 1 is tested through the CLI
    # in a child process, since it looped forever before it was rejected
    st = SolverState(w=soliton(1.0, 0.0, Grid(256, 50.0)), dt=dt)
    with pytest.raises(ConfigError, match="do not reach t_final"):
        evolve(st, t_final, record_ledger=False)


def test_solver_import_leaves_out_scipy_fft():
    # numpy.fft drives the solver; importing scipy.fft would add to start-up
    code = ("import sys, bolab.cli, bolab.decay, bolab.solver; "
            "print('scipy.fft' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_conserved_zero_field():
    g = Grid(256, 50.0)
    st = SolverState(w=Field(g, np.zeros(g.n_points)), dt=1e-3)
    assert conserved(st) == (0.0, 0.0, 0.0)


def _oracle_conserved(w):
    """(mass, L2 norm, energy) with H w_x formed as the Hilbert transform of the
    spectral derivative, 4 complex transforms: the oracle of ``conserved``."""
    g = w.grid
    hw = hilbert(Field(g, derivative(w).samples.real))
    energy = g.dx * float(np.sum(0.5 * w.samples * hw.samples - w.samples**3 / 3.0))
    return g.dx * float(np.sum(w.samples)), w.l2_norm(), energy


def _ledger_fields():
    g = Grid(4096, 400.0)
    rng = np.random.default_rng(11)
    bump = soliton(1.0, 0.0, g).samples + 0.05 * np.exp(-((g.x - 2.0) ** 2))
    yield Field(g, bump)
    for cutoff in (0.05, 0.3, 0.6):
        yield random_band_limited(g, rng, cutoff)
    small = Grid(256, 50.0)
    yield random_band_limited(small, rng, 0.5)
    # white noise carries the unpaired Nyquist mode, which H w_x leaves out
    yield Field(small, rng.normal(size=small.n_points))


def test_conserved_matches_the_derivative_hilbert_energy():
    # one multiplier |xi| moves the energy only at roundoff; mass and L2 are the
    # same floats
    for w in _ledger_fields():
        mass, l2, energy = conserved(SolverState(w=w))
        ref_mass, ref_l2, ref_energy = _oracle_conserved(w)
        assert (mass, l2) == (ref_mass, ref_l2)
        assert abs(energy - ref_energy) <= 1e-12 * abs(ref_energy)


def test_conserved_takes_one_rfft_and_one_irfft(monkeypatch):
    st = SolverState(w=next(_ledger_fields()))
    calls = {name: [] for name in ("fft", "ifft", "rfft", "irfft")}
    for name, made in calls.items():
        _counting(monkeypatch, name, made)
    conserved(st)
    assert calls == {"fft": [], "ifft": [], "rfft": [1], "irfft": [1]}


def test_energy_functional_is_conserved():
    # calibration of the energy form: flat along a nonlinear evolution
    g = Grid(1024, 100.0)
    rng = np.random.default_rng(3)
    w0 = Field(g, 0.5 * random_band_limited(g, rng, 0.2).samples)
    st = SolverState(w=w0, frame="lab", dt=1e-3)
    snaps = evolve(st, 1.0, snapshot_stride=200)
    led = np.array(snaps[-1].ledger)
    e0 = led[0, 3]
    assert np.max(np.abs(led[:, 3] - e0)) < 1e-8 * max(abs(e0), 1.0)
    assert np.max(np.abs(led[:, 1] - led[0, 1])) < 1e-12
    rel_l2 = np.max(np.abs(led[:, 2] - led[0, 2])) / led[0, 2]
    assert rel_l2 < 1e-9


def test_reality_preserved(rng):
    g = Grid(512, 100.0)
    w0 = random_band_limited(g, rng, 0.3)
    st = SolverState(w=w0, frame="moving", speed=1.0, dt=1e-3)
    out = step(st)
    assert isinstance(out.w, Field)  # the half-spectrum state is real by construction


def test_instability_detector():
    g = Grid(256, 25.0)
    # huge amplitude and coarse step blow up the quadratic term
    w0 = Field(g, 50.0 * np.exp(-g.x**2))
    st = SolverState(w=w0, frame="lab", dt=0.5)
    with pytest.raises(SolverInstabilityError):
        evolve(st, 5.0, snapshot_stride=1, record_ledger=False)


def test_instability_detector_catches_nan():
    # NaN compares False against the growth bound, so it needs its own check
    g = Grid(256, 25.0)
    w0 = np.exp(-g.x**2)
    w0[100] = np.nan
    st = SolverState(w=Field(g, w0), frame="lab", dt=1e-3)
    with pytest.raises(SolverInstabilityError, match="nan"):
        evolve(st, 2e-3, snapshot_stride=1, record_ledger=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_state_raises_before_the_first_snapshot(bad):
    g = Grid(256, 25.0)
    w0 = np.exp(-g.x**2)
    w0[100] = bad
    st = SolverState(w=Field(g, w0), frame="lab", dt=1e-3)
    with pytest.raises(SolverInstabilityError, match=f"sup norm is {bad} at t = 0$"):
        evolve(st, 0.0)


def test_frame_equivalence():
    g = Grid(1024, 100.0)
    s = soliton(1.0, 0.0, g)
    T = 1.0
    lab = evolve(SolverState(w=s, frame="lab", dt=1e-3), T, 10**9, False)[-1].w
    mov = evolve(SolverState(w=s, frame="moving", speed=1.0, dt=1e-3), T, 10**9, False)[-1].w
    # w(x, t) = u(x + c t, t): sample the lab solution at shifted points
    assert np.max(np.abs(shift(lab, -T).samples - mov.samples)) < 2e-9


def test_time_reversal_symmetry(rng):
    g = Grid(1024, 100.0)
    w0 = Field(g, 0.3 * random_band_limited(g, rng, 0.2).samples)
    T = 0.2
    fwd = evolve(SolverState(w=w0, frame="moving", speed=1.0, dt=1e-3), T, 10**9, False)[-1].w
    back = evolve(
        SolverState(w=reflect(w0), frame="moving", speed=1.0, dt=-1e-3), -T, 10**9, False
    )[-1].w
    assert np.max(np.abs(reflect(fwd).samples - back.samples)) < 2e-9


# ---------------------------------------------------------------------------
# sponge layer
# ---------------------------------------------------------------------------


def test_sponge_profile_supported_on_left_edge():
    g = Grid(1024, 400.0)
    sponge = SpongeConfig(enabled=True, width_fraction=0.1, strength=2.0)
    sigma = sponge.profile(g)
    assert sigma[0] == 2.0
    assert np.all(sigma[g.x > -g.box_length / 2 + 0.1 * g.box_length] == 0.0)
    assert np.all(sigma >= 0.0)
    assert np.all(SpongeConfig(enabled=False).profile(g) == 0.0)


@pytest.mark.parametrize("values", [{"width_fraction": 0.0}, {"width_fraction": -0.1},
                                    {"width_fraction": 1.0}, {"strength": -50.0}])
def test_sponge_rejects_values_that_disable_or_invert_it(values):
    with pytest.raises(ConfigError):
        SpongeConfig(enabled=True, **values)


def test_sponge_neutrality_before_waves_reach_boundary(rng):
    g = Grid(1024, 200.0)
    w0 = Field(g, 0.2 * np.exp(-g.x**2))
    T = 1.0
    on = SolverState(w=w0, frame="moving", speed=1.0, dt=1e-3,
                     sponge=SpongeConfig(enabled=True))
    off = SolverState(w=w0, frame="moving", speed=1.0, dt=1e-3)
    w_on = evolve(on, T, 10**9, False)[-1].w
    w_off = evolve(off, T, 10**9, False)[-1].w
    clean = np.abs(g.x) <= g.box_length / 4.0
    assert np.max(np.abs(w_on.samples[clean] - w_off.samples[clean])) < 1e-10


def test_sponge_absorbs_leftgoing_radiation():
    # a non-soliton pulse sheds left-moving waves; the sponge removes their
    # energy while the free run conserves it
    g = Grid(1024, 200.0)
    w0 = Field(g, 0.8 * np.exp(-((g.x) ** 2)))
    T = 60.0
    on = SolverState(w=w0, frame="moving", speed=1.0, dt=5e-3,
                     sponge=SpongeConfig(enabled=True, strength=2.0))
    off = SolverState(w=w0, frame="moving", speed=1.0, dt=5e-3)
    w_on = evolve(on, T, 10**9, False)[-1].w
    w_off = evolve(off, T, 10**9, False)[-1].w
    assert abs(w_off.l2_norm() - w0.l2_norm()) < 1e-6 * w0.l2_norm()
    assert w_on.l2_norm() < 0.8 * w_off.l2_norm()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path, rng):
    g = Grid(512, 100.0)
    st = SolverState(w=random_band_limited(g, rng), t=2.5, frame="moving",
                     speed=1.5, dt=1e-3)
    path = os.path.join(tmp_path, "snap.bosnap")
    dump_snapshot(st, path)
    back = load_snapshot(path)
    assert back.t == st.t and back.frame == st.frame and back.speed == st.speed
    assert back.w.grid == g
    assert np.array_equal(back.w.samples, st.w.samples)


def test_snapshot_magic_rejected(tmp_path):
    path = os.path.join(tmp_path, "bad.bosnap")
    with open(path, "wb") as fh:
        fh.write(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_ledger_csv(tmp_path):
    g = Grid(256, 50.0)
    st = SolverState(w=soliton(1.0, 0.0, g), frame="moving", speed=1.0, dt=1e-2)
    snaps = evolve(st, 0.1, snapshot_stride=5)
    path = os.path.join(tmp_path, "ledger.csv")
    ledger_to_csv(snaps[-1].ledger, path)
    lines = (tmp_path / "ledger.csv").read_text().strip().split("\n")
    assert lines[0] == "t,mass,l2,hamiltonian"
    assert len(lines) == len(snaps[-1].ledger) + 1


def test_evolve_leaves_the_input_ledger_alone():
    # two runs from one state each record their own ledger, from t = 0
    g = Grid(256, 50.0)
    st = SolverState(w=soliton(1.0, 0.0, g), frame="lab", dt=1e-3)
    first, second = (evolve(st, 2e-3)[-1].ledger for _ in range(2))
    assert st.ledger == []
    assert [row[0] for row in second] == [0.0, 0.001, 0.002]
    assert second == first


def test_stream_checks_its_arguments_at_the_call():
    # the call itself raises, before any next(), and starts no process
    g = Grid(256, 50.0)
    st = SolverState(w=soliton(1.0, 0.0, g), frame="lab", dt=1e-3)
    for t_final, stride in ((2e-3, 0), (-2e-3, 1), (2.5e-3, 1)):
        with pytest.raises(ConfigError):
            stream(st, t_final, stride)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stream_yields_the_snapshots_of_evolve_and_stops_when_closed():
    g = Grid(256, 50.0)
    sponge = SpongeConfig(enabled=True)
    st = SolverState(w=soliton(1.0, 0.0, g), frame="moving", speed=1.0, dt=1e-2, sponge=sponge)
    ref = evolve(st, 0.5, snapshot_stride=5)
    streamed = list(stream(st, 0.5, 5))
    assert [s.t for s in streamed] == [s.t for s in ref]
    assert all(np.array_equal(s.w.samples, r.w.samples) for s, r in zip(streamed, ref))
    assert all(s.ledger is streamed[-1].ledger for s in streamed)
    assert streamed[-1].ledger == ref[-1].ledger and st.ledger == []
    assert all(s.sponge is sponge and s.dt == st.dt for s in streamed)
    # a consumer that stops after two snapshots leaves no process behind
    early = stream(st, 0.5, 5)
    assert [next(early).t, next(early).t] == [0.0, ref[1].t]
    early.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
