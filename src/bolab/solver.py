"""Time evolution of the quadratic nonlocal dispersive equation

    lab frame:     w_t - H w_xx           = -(w^2)_x
    moving frame:  w_t - c w_x - H w_xx   = -(w^2)_x        (speed c > 0)

on the periodic grid, by an integrating-factor RK4: the stiff linear symbol
theta(xi) = c xi + |xi| xi is solved exactly by phase multiplication and the
dealiased quadratic nonlinearity by classical four-stage Runge-Kutta in the
transformed variable, stored as the half spectrum rfft(w) of the real field.

An optional sponge multiplies the field by a smooth damping -sigma(x) w
supported on the leftmost fraction of the box, absorbing the strictly
left-moving linear radiation before it wraps.

The tracked invariants are mass, the physical L2 norm, and the energy
functional E[w] = integral( w H w_x / 2 - w^3 / 3 ) dx, whose sign and
coefficients were fixed by a discrete dE/dt ~ 0 calibration run.

``evolve`` returns a run's snapshots as a list; ``stream`` yields the same
snapshots one at a time, for a caller that writes or measures each in turn.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .cutoffs import smoothstep
from .errors import ConfigError, SolverInstabilityError
from .files import atomic_write_text, write_csv
from .grid import Field, Grid

SNAPSHOT_MAGIC = b"BOSNAP01"


def soliton(c: float, x0: float, grid: Grid) -> Field:
    """Traveling-wave profile 2c / (c^2 (x - x0)^2 + 1); peak value 2c at x0."""
    if c <= 0:
        raise ConfigError(f"soliton speed must be positive, got {c}")
    if not np.isfinite(c * c):
        raise ConfigError(f"soliton speed {c} is out of range: c * c is not finite")
    y = grid.x - x0
    return Field(grid, 2.0 * c / (c**2 * y**2 + 1.0))


@dataclass
class SpongeConfig:
    """Left-edge absorbing layer: damping -sigma(x) w on the leftmost
    width_fraction of the box, zero on the measurement region."""

    enabled: bool = False
    width_fraction: float = 0.1
    strength: float = 1.0

    def __post_init__(self):
        # a width of 0 divides by zero in ``profile``, one of 1 or more damps the
        # whole box, and a negative strength amplifies
        if not 0 < self.width_fraction < 1:
            raise ConfigError(f"sponge.width_fraction must lie in (0, 1), got {self.width_fraction}")
        if not self.strength >= 0:
            raise ConfigError(f"sponge.strength must be non-negative, got {self.strength}")

    def profile(self, grid: Grid) -> np.ndarray:
        if not self.enabled:
            return np.zeros(grid.n_points)
        width = self.width_fraction * grid.box_length
        x_lo = -grid.box_length / 2.0
        # smooth ramp from `strength` at the edge down to 0 at x_lo + width
        return self.strength * smoothstep((x_lo + width - grid.x) / width)


@dataclass
class SolverState:
    """Field snapshot plus frame, step size and the conserved-quantity ledger."""

    w: Field
    t: float = 0.0
    frame: str = "lab"  # "lab" or "moving"
    speed: float = 1.0
    dt: float = 1e-3
    sponge: SpongeConfig = field(default_factory=SpongeConfig)
    nonlinear: bool = True
    ledger: list[tuple[float, float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.frame not in ("lab", "moving"):
            raise ValueError(f"frame must be 'lab' or 'moving', got {self.frame!r}")

    def drift(self) -> float:
        return self.speed if self.frame == "moving" else 0.0


def linear_symbol(grid: Grid, drift: float) -> np.ndarray:
    """theta(xi) = drift * xi + |xi| xi, with the unpaired Nyquist zeroed."""
    theta = drift * grid.xi + np.abs(grid.xi) * grid.xi
    theta = theta.astype(float)
    theta[0] = 0.0
    return theta


def conserved(state: SolverState) -> tuple[float, float, float]:
    """(mass, L2 norm, energy) of the current field.  H w_x, the energy's
    nonlocal factor, is the multiplier |xi| (Nyquist zeroed) on the half
    spectrum: one rfft and one irfft.  The mass and L2 norm need no transform."""
    w = state.w
    grid = w.grid
    mass = grid.dx * float(np.sum(w.samples))
    l2 = w.l2_norm()
    abs_xi = np.abs(grid.xi)
    abs_xi[0] = 0.0  # the unpaired Nyquist mode
    hw = np.fft.irfft(_half_spectrum(abs_xi) * np.fft.rfft(w.samples), grid.n_points)
    energy = grid.dx * float(np.sum(0.5 * w.samples * hw - w.samples**3 / 3.0))
    return mass, l2, energy


def _half_spectrum(a: np.ndarray) -> np.ndarray:
    """A math-order multiplier on the rfft entries m = 0 .. n/2 (FFT order)."""
    return np.fft.ifftshift(a)[: a.size // 2 + 1]


def _nonlinearity(grid: Grid, sigma: np.ndarray, nonlinear: bool):
    """The stage nonlinearity on half spectra v = rfft(w): nl(v, out) writes
    the rfft of -(w^2)_x, with 2/3-rule masking, minus sigma w into out, using
    work buffers allocated once here.  With both terms, w^2 and sigma w are
    the two rows of one rfft call, which pays pocketfft's per-call cost once;
    each row equals its single-row transform bit for bit."""
    n = grid.n_points
    mask = np.abs(grid.xi) <= (2.0 / 3.0) * grid.nyquist  # also drops Nyquist
    dxi = _half_spectrum(-(1j * grid.xi) * mask)
    sponge = bool(np.any(sigma))
    w, rows, spec = np.empty(n), np.empty((2, n)), np.empty((2, n // 2 + 1), dtype=complex)

    def nl(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        if nonlinear or sponge:
            np.fft.irfft(v, n, out=w)
        if nonlinear and sponge:
            np.multiply(w, w, out=rows[0])
            np.multiply(sigma, w, out=rows[1])
            np.fft.rfft(rows, axis=-1, out=spec)
            np.multiply(spec[0], dxi, out=out)
            out -= spec[1]
        elif nonlinear:
            np.multiply(w, w, out=rows[0])
            np.fft.rfft(rows[0], out=out)
            out *= dxi
        else:
            out.fill(0.0)
            if sponge:
                np.multiply(sigma, w, out=rows[0])
                out -= np.fft.rfft(rows[0], out=spec[0])
        return out

    return nl


def step(state: SolverState) -> SolverState:
    """One integrating-factor RK4 step of size state.dt."""
    return _advance(state, 1)


def _advance(state: SolverState, n_steps: int) -> SolverState:
    """n_steps RK4 steps from ``state``, by an ``_Integrator`` built for this
    call; the new state shares the input's ledger list.  A non-finite sup
    norm raises SolverInstabilityError."""
    return _Integrator(state).advance(state, n_steps)[0]


class _Integrator:
    """The RK4 stepper of one run, built once from its first state: the phase
    factors of theta, the stage nonlinearity with its buffers (see
    ``_nonlinearity``) and the stage arrays.  The grid, frame, dt, sponge and
    nonlinearity of every state it advances are those of that first state.

    It works on the half spectrum v = rfft(samples), m = 0 .. n/2.
    ``coeffs_of`` gives c = scale * (-1)^m * fftshift(fft(w)), so each stage
    in v is the stage in c without the shifts, the scale and the phase, and
    stays real by construction.  A stage is one irfft and one rfft (of two
    rows with the sponge), so n_steps steps make 4 n_steps + 1 calls of each,
    all in the held arrays but the last irfft, whose samples are the new
    state's.  Each stride starts from rfft of the state's samples, so strides
    of one integrator give the same samples, bit for bit, as one integrator
    per stride."""

    def __init__(self, state: SolverState):
        grid = state.w.grid
        theta = _half_spectrum(linear_symbol(grid, state.drift()))
        self.half = np.exp(1j * theta * state.dt / 2.0)
        self.full = self.half * self.half
        self.dt_half = state.dt * self.half
        self.two_half = 2.0 * self.half
        self.nl = _nonlinearity(grid, state.sponge.profile(grid), state.nonlinear)
        # v, k1 .. k4, the stage input and a temporary
        self.work = np.empty((7, grid.n_points // 2 + 1), dtype=complex)
        self.mags = np.empty(grid.n_points)

    def advance(self, state: SolverState, n_steps: int) -> tuple[SolverState, float]:
        """The state n_steps steps on from ``state`` and its sup norm, computed
        once; a non-finite sup norm raises SolverInstabilityError."""
        half, full, dt_half, two_half, nl = (self.half, self.full, self.dt_half,
                                             self.two_half, self.nl)
        v, k1, k2, k3, k4, stage, tmp = self.work
        dt = state.dt
        np.fft.rfft(state.w.samples, out=v)
        for _ in range(n_steps):
            nl(v, k1)
            np.multiply(k1, dt / 2.0, out=stage)
            stage += v
            stage *= half
            nl(stage, k2)
            np.multiply(half, v, out=stage)
            stage += np.multiply(k2, dt / 2.0, out=tmp)
            nl(stage, k3)
            np.multiply(dt_half, k3, out=stage)
            stage += np.multiply(full, v, out=tmp)
            nl(stage, k4)
            k2 += k3
            k2 *= two_half
            k1 *= full
            k1 += k2
            k1 += k4
            k1 *= dt / 6.0
            v *= full
            v += k1
        t = state.t + n_steps * dt
        samples = np.fft.irfft(v, state.w.grid.n_points)
        sup = float(np.max(np.abs(samples, out=self.mags)))
        if not np.isfinite(sup):
            raise SolverInstabilityError(f"sup norm is {sup} at t = {t:.4g}")
        return replace(state, w=Field(state.w.grid, samples), t=t), sup


def _step_count(state: SolverState, t_final: float, snapshot_stride: int) -> int:
    """The steps of size state.dt from state.t to t_final.  dt = 0, dt and
    t_final of opposite signs, a dt so small that the count overflows, a
    t_final off the dt lattice and snapshot_stride < 1 raise ConfigError."""
    if state.dt == 0 or not 0 <= t_final / state.dt < np.inf:
        raise ConfigError(f"steps of dt {state.dt} do not reach t_final {t_final}")
    if snapshot_stride < 1:
        raise ConfigError(f"snapshot_stride must be at least 1, got {snapshot_stride}")
    n_steps = int(round(t_final / state.dt))
    if abs(n_steps * state.dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigError(f"t_final {t_final} must be an integer multiple of dt {state.dt}")
    return n_steps


def _snapshots(state: SolverState, n_steps: int, snapshot_stride: int,
               record_ledger: bool) -> Iterator[SolverState]:
    """The stepping loop of ``evolve`` and ``stream``: yields the initial state, as a
    copy, then the state every ``snapshot_stride`` of ``n_steps`` steps, all
    strides by one ``_Integrator``.  A non-finite initial state raises before the
    first yield."""
    current = replace(state, ledger=list(state.ledger))
    prev_sup = current.w.sup_norm()
    if not np.isfinite(prev_sup):
        raise SolverInstabilityError(f"sup norm is {prev_sup} at t = {current.t:.4g}")
    if record_ledger:
        current.ledger.append((current.t, *conserved(current)))
    yield current
    prev_sup = max(prev_sup, 1e-300)
    integrator = _Integrator(current)
    done = 0
    while done < n_steps:
        todo = min(snapshot_stride, n_steps - done)
        current, sup = integrator.advance(current, todo)
        done += todo
        if sup > 10.0 * prev_sup and sup > 1e-8:
            raise SolverInstabilityError(
                f"sup norm grew from {prev_sup:.3e} to {sup:.3e} at t = {current.t:.4g}"
            )
        prev_sup = max(sup, 1e-300)
        if record_ledger:
            current.ledger.append((current.t, *conserved(current)))
        yield current


def evolve(
    state: SolverState,
    t_final: float,
    snapshot_stride: int = 1,
    record_ledger: bool = True,
) -> list[SolverState]:
    """Advance to t_final, returning snapshots every ``snapshot_stride`` steps.

    The initial state is included, as a copy.  The snapshots share one ledger,
    copied once from the input's, which ``state`` keeps unchanged; the last
    snapshot's is the run's full ledger.  Aborts with SolverInstabilityError when
    the sup norm grows tenfold between consecutive snapshots or is not finite.
    Negative dt and t_final run backward in time; dt = 0, dt and t_final of
    opposite signs and snapshot_stride < 1 raise ConfigError.
    """
    n_steps = _step_count(state, t_final, snapshot_stride)
    return list(_snapshots(state, n_steps, snapshot_stride, record_ledger))


def stream(state: SolverState, t_final: float, snapshot_stride: int) -> Iterator[SolverState]:
    """The snapshots of ``evolve(state, t_final, snapshot_stride)``, each
    computed when the caller asks for the next, so that the caller holds one at
    a time.  The arguments are checked at the call, before the first ``next``."""
    n_steps = _step_count(state, t_final, snapshot_stride)
    return _snapshots(state, n_steps, snapshot_stride, True)


# ---------------------------------------------------------------------------
# snapshot and ledger persistence
# ---------------------------------------------------------------------------


def dump_snapshot(state: SolverState, path: str) -> None:
    """Binary snapshot: magic, n (i64), L, t, frame flag (i64), speed, dt,
    then n little-endian float64 samples."""
    grid = state.w.grid
    frame_flag = 0 if state.frame == "lab" else 1
    header = struct.pack("<qddqdd", grid.n_points, grid.box_length, state.t, frame_flag,
                         state.speed, state.dt)
    atomic_write_text(path, SNAPSHOT_MAGIC + header + state.w.samples.astype("<f8").tobytes())


def load_snapshot(path: str) -> SolverState:
    """Read a ``dump_snapshot`` file; a missing, foreign or malformed file raises ConfigError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot file {path!r}: {exc.strerror}") from exc
    if data[:8] != SNAPSHOT_MAGIC:
        raise ConfigError(f"not a snapshot file (magic {data[:8]!r}): {path}")
    if len(data) < 56:
        raise ConfigError(f"snapshot header truncated: {path}")
    n, box, t, frame_flag, speed, dt = struct.unpack("<qddqdd", data[8:56])
    if n <= 0 or n % 2:
        raise ConfigError(f"snapshot header gives n = {n}, not a positive even number: {path}")
    if len(data) != 56 + 8 * n:
        raise ConfigError(f"snapshot body holds {len(data) - 56} bytes, not 8 * {n}: {path}")
    if frame_flag not in (0, 1):
        raise ConfigError(f"snapshot header gives frame flag {frame_flag}, not 0 (lab) or "
                          f"1 (moving): {path}")
    samples = np.frombuffer(data, dtype="<f8", count=n, offset=56).copy()
    grid = Grid(n, box)
    return SolverState(
        w=Field(grid, samples),
        t=t,
        frame=("lab", "moving")[frame_flag],
        speed=speed,
        dt=dt,
    )


def ledger_to_csv(ledger: list[tuple[float, float, float, float]], path: str) -> None:
    write_csv(path, "t,mass,l2,hamiltonian", ledger)
