"""End-to-end decay experiments: evolve localized data in the moving frame,
measure weighted dyadic-shell sup norms over time, fit spatial decay
exponents and compare against the bootstrap-improvement prediction
new_exponent = min(1 + 3/2 * eps, 2).

Per snapshot the harness records, for each shell j,

  * the weighted sups  sup |chi_j^{+-} w|  of the full field,
  * the sup of the low-pass piece  P_{<= k0(j)} w  with k0 = -(1-eps)/2 * j,
  * the sup of the positive-band sum  sum_{k > k0(j)} |w_k^+|,
  * optionally the gauge-transformed band sups  sup |chi_j^+ vtilde_k|.

Shells are excluded from fits once a signal-front estimate predicts wrapped
radiation could have re-entered them (group speed >= max(1, c) leftward in
the moving frame); the box-wrap and sponge budgets are reported with every
fit rather than assumed away.
"""

from __future__ import annotations

import reprlib
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import cutoffs
from .errors import ConfigError, DegenerateSeriesError
from .files import (atomic_write_text, check_distinct, check_distinct_integers, is_number,
                    json_text, merge_config, read_json_object, write_csv)
from .grid import Field, Grid
from .kernels import FitResult, fit_decay, low_frequency_index
from .normal_form import Bundle
from .pseudoproduct import LL_FACTOR, BandKernel
from .solver import SolverState, SpongeConfig, load_snapshot, soliton, stream
from .spectral import (
    coeffs_of,
    fft_ordered,
    lp_partition_bounds,
    lp_values,
    shell_weight,
    spatial_cutoff_values,
)

#: defaults of the nested config objects, which also serve as their schemas
#: (see files.merge_config); each object is merged over its defaults
INITIAL_DEFAULTS = {"kind": "soliton", "c": 1.0, "x0": 0.0, "bump_amplitude": 0.05,
                    "bump_width": 1.0, "bump_center": 2.0, "path": ""}
GAUGE_DEFAULTS = {"enabled": False, "order": 4, "ll_factor": LL_FACTOR, "bands": [0, 1]}
SPONGE_DEFAULTS = asdict(SpongeConfig())


@dataclass
class ExperimentConfig:
    n_points: int = 4096
    box_length: float = 400.0
    initial: dict = field(default_factory=INITIAL_DEFAULTS.copy)
    frame_speed: float = 1.0
    t_final: float = 10.0
    dt: float = 1e-3
    snapshot_stride: int = 1000
    shells: list = field(default_factory=lambda: [2.5 + 0.5 * i for i in range(7)])
    epsilon_assumed: float = 0.5
    gauge: dict = field(default_factory=GAUGE_DEFAULTS.copy)
    sponge: dict = field(default_factory=SPONGE_DEFAULTS.copy)
    front_speed: float | None = None
    seed: int = 0

    def __post_init__(self):
        # a decay experiment runs forward in time (``evolve`` alone also runs backward)
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_final >= 0:
            raise ConfigError(f"t_final must be non-negative, got {self.t_final}")
        check_distinct("shells", self.shells)
        if self.front_speed is not None and not self.front_speed > 0:
            raise ConfigError(f"front_speed must be null or positive, got {self.front_speed}")
        # the range measure_epsilon clamps the measured value to
        if not 0 < self.epsilon_assumed <= 1:
            raise ConfigError(f"epsilon_assumed must lie in (0, 1], got {self.epsilon_assumed}")
        self.initial = merge_config(INITIAL_DEFAULTS, self.initial, "initial.")
        # the bump divides by its width, whose sign it squares away
        if not self.initial["bump_width"] > 0:
            raise ConfigError(
                f"initial.bump_width must be positive, got {self.initial['bump_width']}")
        self.gauge = merge_config(GAUGE_DEFAULTS, self.gauge, "gauge.")
        check_distinct_integers("gauge.bands", self.gauge["bands"])
        self.sponge = merge_config(SPONGE_DEFAULTS, self.sponge, "sponge.")
        SpongeConfig(**self.sponge)  # its value checks, before any run
        self._check_scales(self.grid())

    def _check_scales(self, grid: Grid) -> None:
        """Each shell is one that ``spatial_cutoff_values`` admits, and each gauge
        band keeps some grid mode: no series is measured as all zeros.  Decided
        in log2 where 2^k would over- or underflow (``cutoffs.shell_holds``)."""
        for j in self.shells:
            spatial_cutoff_values(grid, j, "+")
        bands = self.gauge["bands"] if self.gauge["enabled"] else []
        empty = [k for k in bands if not cutoffs.shell_holds(k, grid.xi)]
        if empty:
            raise ConfigError(f"gauge.bands {empty} keep no grid mode: chi_k^+ vanishes at "
                              f"every grid frequency (dxi = {grid.dxi:.3g}, "
                              f"Nyquist {grid.nyquist:.3g})")

    def grid(self) -> Grid:
        return Grid(self.n_points, self.box_length)

    def solver_state(self) -> SolverState:
        """The moving-frame solver state of the run at t = 0."""
        return SolverState(w=self.initial_field(), frame="moving", speed=self.frame_speed,
                           dt=self.dt, sponge=SpongeConfig(**self.sponge))

    def initial_field(self) -> Field:
        grid = self.grid()
        init = self.initial
        kind = init["kind"]
        if kind == "zero":
            return Field(grid, np.zeros(grid.n_points))
        if kind in ("soliton", "soliton_bump"):
            w = soliton(init["c"], init["x0"], grid)
            if kind == "soliton_bump":
                bump = np.exp(-(((grid.x - init["bump_center"]) / init["bump_width"]) ** 2))
                w = Field(grid, w.samples + init["bump_amplitude"] * bump)
            return w
        if kind == "file":
            state = load_snapshot(init["path"])
            if state.w.grid != grid:
                raise ConfigError("snapshot grid does not match the configured grid")
            return state.w
        raise ConfigError(f"unknown initial-data kind {kind!r}")


#: the defaults of an experiment config, which also serve as its schema; read
#: off the fields, since an instance checks its scales on a grid
EXPERIMENT_DEFAULTS = {f.name: f.default_factory() if f.default is MISSING else f.default
                       for f in fields(ExperimentConfig)}


def bootstrap_predict(epsilon: float) -> float:
    """Improved decay exponent min(1 + 1.5 * eps, 2) from a measured 1 + eps."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return min(1.0 + 1.5 * epsilon, 2.0)


def measure_epsilon(fit: dict | None) -> float:
    """Excess over 1 of a ``sup_plus`` fit row's decay exponent, clamped to [0.05, 1];
    0.05 without a row (fewer than four positive shells)."""
    if fit is None:
        return 0.05
    return float(np.clip(-fit["slope"] - 1.0, 0.05, 1.0))


def _list_of(value, leaf) -> bool:
    """Whether ``value`` is a JSON list whose items pass ``leaf``."""
    return isinstance(value, list) and all(map(leaf, value))


def _fit_entry(value) -> bool:
    """Whether ``value`` is a ``fits`` entry as ``_fit_row`` writes it."""
    return (isinstance(value, dict) and value.keys() == set(FIT_KEYS)
            and (value["time"] is None or is_number(value["time"]))
            and isinstance(value["kind"], str) and isinstance(value["n_points"], int)
            and all(is_number(value[key]) for key in FIT_KEYS[2:]))


#: the test of each value of a per-shell series, and the kind it accepts
NUMBER, FLAG = (is_number, "number"), (lambda x: isinstance(x, bool), "true or false")
#: the keys of a ``fits`` entry
FIT_KEYS = ("time", "kind", *(f.name for f in fields(FitResult)))
#: per report field: a test of its value and the kind the test accepts; the per-shell
#: series of ``_blocks`` and ``clean`` are checked against ``shells`` and ``times``
REPORT_KINDS = {
    "config": (lambda v: isinstance(v, dict), "an object"),
    "times": (lambda v: bool(v) and _list_of(v, is_number), "a non-empty list of numbers"),
    "shells": (lambda v: bool(v) and _list_of(v, is_number), "a non-empty list of numbers"),
    "sup": (lambda v: isinstance(v, dict) and v.keys() == {"+", "-"},
            'an object with exactly the keys "+" and "-"'),
    "gauge_sup": (lambda v: isinstance(v, dict)
                  and all(k.removeprefix("-").isdecimal() for k in v),
                  "an object keyed by integer bands"),
    "fits": (lambda v: _list_of(v, _fit_entry), f"a list of objects with the keys {FIT_KEYS}"),
    "epsilon_measured": (lambda v: is_number(v) and v > 0, "a positive number"),
    "predicted_exponent": (is_number, "a number"),
    "budgets": (lambda v: isinstance(v, dict) and is_number(v.get("mass_over_L")),
                "an object with a number mass_over_L"),
    "ledger": (lambda v: isinstance(v, list), "a list"),
}


@dataclass
class DecayReport:
    """Shell measurements over time plus fitted exponents and budgets."""

    config: dict
    times: list[float]
    shells: list[float]
    sup: dict            # sign -> shell(str) -> [value per time]
    lowpass_sup: dict    # shell(str) -> [value per time]
    bandsum_sup: dict    # shell(str) -> [value per time]
    gauge_sup: dict      # band k(str) -> shell(str) -> [value per time]
    clean: dict          # shell(str) -> [bool per time]
    fits: list[dict]     # per-time and aggregate fits
    epsilon_measured: float
    predicted_exponent: float
    budgets: dict
    ledger: list

    def to_json(self, path: str) -> None:
        atomic_write_text(path, json_text(vars(self)))

    @staticmethod
    def from_json(path: str) -> "DecayReport":
        """The report in ``path``; a file that does not hold a JSON object with
        exactly the report's fields, each of its kind in ``REPORT_KINDS``, in which
        each series of ``_blocks`` maps exactly the report's shells to one number
        per time and ``clean`` maps them to one true or false per time, raises
        ConfigError."""
        data = read_json_object(path, "report input")
        names = {f.name for f in fields(DecayReport)}
        if data.keys() != names:
            raise ConfigError(f"report input {path!r} lacks fields {sorted(names - data.keys())} "
                              f"or has unknown fields {sorted(data.keys() - names)}")
        for name, (ok, kind) in REPORT_KINDS.items():
            if not ok(data[name]):
                raise ConfigError(f"report input {path!r}: field {name} must be {kind}, "
                                  f"got {reprlib.repr(data[name])}")
        shells, n_times = sorted(f"{j}" for j in data["shells"]), len(data["times"])
        blocks = _blocks(data["sup"], data["lowpass_sup"], data["bandsum_sup"], data["gauge_sup"])
        for quantity, sign, by_shell in (*blocks, ("clean", "+", data["clean"])):
            leaf, kind = FLAG if quantity == "clean" else NUMBER
            if not (isinstance(by_shell, dict) and sorted(by_shell) == shells and all(
                    _list_of(s, leaf) and len(s) == n_times for s in by_shell.values())):
                raise ConfigError(f"report input {path!r}: the {quantity} series of sign {sign} "
                                  f"must map exactly the shells {data['shells']} to one {kind} "
                                  f"per time ({n_times}), got {reprlib.repr(by_shell)}")
        return DecayReport(**data)

    def to_csv(self, path: str) -> None:
        """Flat long-format CSV: time, quantity, sign, shell, value; the blocks in
        ``_blocks`` order, the shells of each in the order of ``shells``."""
        write_csv(path, "time,quantity,sign,shell,value",
                  ((t, quantity, sign, f"{j}", v)
                   for quantity, sign, by_shell in _blocks(self.sup, self.lowpass_sup,
                                                           self.bandsum_sup, self.gauge_sup)
                   for j in self.shells
                   for t, v in zip(self.times, by_shell[f"{j}"])))


def _blocks(sup: dict, lowpass_sup: dict, bandsum_sup: dict, gauge_sup: dict):
    """(quantity, sign, shell(str) -> series) of each measured series, in the one order
    of the CSV's blocks, of ``run``'s columns and of ``SnapshotTables.measure``'s values:
    sup of sign + then -, the low-pass and band-sum sups, then the gauge bands in
    increasing k.  Each caller takes a block's series in the order of the shells."""
    yield from (("sup", sign, sup[sign]) for sign in "+-")
    yield from (("lowpass_sup", "+", lowpass_sup), ("bandsum_sup", "+", bandsum_sup))
    yield from ((f"gauge_sup_k{k}", "+", gauge_sup[k]) for k in sorted(gauge_sup, key=int))


def contamination_time(config: ExperimentConfig, j: float) -> float:
    """Earliest time wrapped radiation could re-enter shell j.

    The front leaves the data region, reaches the left edge, wraps and
    travels left again into +x ~ 2^{j+1}; speed is the configured front
    speed, by default max(1, frame speed) (the group-velocity floor; faster
    components of smooth data carry exponentially small energy).
    """
    speed = config.front_speed or max(1.0, config.frame_speed)
    path = config.box_length - 2.0 ** (j + 1)
    return path / speed


#: rows of the one preallocated work buffer in which ``SnapshotTables.measure``
#: inverts band and low-pass projections: enough to pay pocketfft's per-call
#: cost once per block, few enough that the buffer stays small beside the field
BLOCK_ROWS = 4


def _fft_order_table(grid: Grid, specs: list[tuple[float, str]], scale: float) -> np.ndarray:
    """The ``lp_values`` multipliers of (k, variant) in ``specs``, times ``scale``, as the
    FFT-order rows of one table, filled row by row."""
    table = np.empty((len(specs), grid.n_points))
    for row, (k, variant) in zip(table, specs):
        np.multiply(np.fft.ifftshift(lp_values(grid, k, variant)), scale, out=row)
    return table


class SnapshotTables:
    """The snapshot-invariant tables of a run: per sign, ``weights[sign]``, the cutoffs
    chi_j^{sign} of the shells as the rows of one array on ``windows[sign]``, the
    smallest window that holds all of that sign's supports; the multipliers of the
    positive bands that some shell sums and each shell's low-pass multiplier as two
    stacked tables in FFT order; and one ``BandKernel`` per gauge band, in increasing k.

    Each table row carries the factor sqrt(2 pi) / dx of ``samples_of``.  A low-pass
    multiplier is real, even and zero at the Nyquist mode, so the low-pass of the real
    field is real: its rows keep only xi = 0, dxi, .., (n/2 - 1) dxi, which ``irfft``
    inverts, and their xi = 0 entry is zeroed, so that they act on the mean-removed field
    (the box zero mode is a constant 2pi/L background absent on the line; its size is in
    budgets.mass_over_L).  The band rows are one-sided and stay whole.

    The work arrays of ``measure`` are held with the tables: the inverse blocks, one
    magnitude row per sign (the field's, then each gauge band's |v|), the magnitudes of
    the band rows and one row per shell (the low-pass rows', then the band totals) on the
    + window (every projection is weighted only there), and the weighted products of
    either sign; the first gauge band's kernel holds the workspace of the
    shared paraproduct."""

    def __init__(self, config: ExperimentConfig):
        grid = self.grid = config.grid()
        n = grid.n_points
        self.shells = [float(j) for j in config.shells]
        self.windows, self.weights = {}, {}
        for sign in "+-":
            supports = [shell_weight(grid, j, sign) for j in self.shells]
            lo, hi = min(s.start for s, _ in supports), max(s.stop for s, _ in supports)
            self.windows[sign] = slice(lo, hi)
            self.weights[sign] = np.zeros((len(self.shells), hi - lo))
            for row, (s, values) in zip(self.weights[sign], supports):
                row[s.start - lo:s.stop - lo] = values
        self.k0 = {j: low_frequency_index(j, config.epsilon_assumed) for j in self.shells}
        k_min, k_max = lp_partition_bounds(grid)
        # a shell sums only the bands k > k0(j): the bands no shell sums are not inverted
        self.band_ks = [k for k in range(k_min + 1, k_max + 1) if k > min(self.k0.values())]
        # the bands above k0(j) are the suffix of band_ks from this index on
        self._first_band = [sum(k <= self.k0[j] for k in self.band_ks) for j in self.shells]
        scale = np.sqrt(2.0 * np.pi) / grid.dx
        self.band_table = _fft_order_table(grid, [(k, "plus") for k in self.band_ks], scale)
        low = _fft_order_table(grid, [(self.k0[j], "leq") for j in self.shells], scale)
        self.low_table = low[:, :n // 2].copy()
        self.low_table[:, 0] = 0.0
        # one work buffer: a block of complex band rows, or a block of half spectra
        # followed by their real inverses
        self._work = np.empty((BLOCK_ROWS, n), dtype=complex)
        flat = self._work.reshape(-1)
        self._half = flat[:BLOCK_ROWS * n // 2].reshape(BLOCK_ROWS, n // 2)
        self._real = flat[BLOCK_ROWS * n // 2:].view(float).reshape(BLOCK_ROWS, n)
        self._row = {sign: np.empty(w.shape[1]) for sign, w in self.weights.items()}
        self._products = np.empty((len(self.shells), max(r.size for r in self._row.values())))
        self._shell_mags = np.empty_like(self.weights["+"])
        self._band_mags = np.empty((len(self.band_ks), self._row["+"].size))
        gauge = config.gauge
        self.gauge = {int(k): BandKernel(grid, int(k), gauge["order"], gauge["ll_factor"])
                      for k in (sorted(gauge["bands"]) if gauge["enabled"] else [])}

    def _projected(self, table: np.ndarray, cf: np.ndarray):
        """samples_of(row * c) for each row of ``table``, in turn, from cf =
        ``fft_ordered(c)``: each block of rows is inverted in one call, by ``irfft`` for
        the half rows of ``low_table`` and by ``ifft`` for whole rows.  The row view
        yielded is overwritten by the next block."""
        n = self.grid.n_points
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS]
            if block.shape[1] < n:
                spectrum, out = self._half[:len(block)], self._real[:len(block)]
                np.multiply(block, cf[:n // 2], out=spectrum)
                np.fft.irfft(spectrum, n, axis=-1, out=out)
            else:
                spectrum = out = self._work[:len(block)]
                np.multiply(block, cf, out=spectrum)
                np.fft.ifft(spectrum, axis=-1, out=out)
            yield from out

    def _sups(self, sign: str, mags: np.ndarray) -> list[float]:
        """sup_x chi_j^{sign}(x) mags(x) of each shell j, for ``mags`` >= 0 on the window
        of ``sign``: one row for every shell, or one row per shell."""
        weights = self.weights[sign]
        products = np.multiply(weights, mags, out=self._products[:, :weights.shape[1]])
        return np.max(products, axis=1).tolist()

    def measure(self, w: Field) -> list[float]:
        """The values of one snapshot in ``_blocks`` order, shell by shell within each
        series, from one forward transform of the field: the low-pass and band rows are
        inverted in blocks, and each gauge band takes one inverse (see
        ``normal_form.Bundle``).  Each series is one ``_sups``: the field's of its
        magnitude per sign, the low-pass rows' of theirs, the band sums' of each shell's
        total of the bands above k0(j), and each gauge band's of |v|; every sup is the
        same float as the maximum of the shell's weights times the row on its support
        alone."""
        values = [sup for sign in "+-"
                  for sup in self._sups(sign, np.abs(w.samples[self.windows[sign]],
                                                     out=self._row[sign]))]
        c = coeffs_of(w.samples, self.grid)
        cf = fft_ordered(c, self.grid)
        for table, mags in ((self.low_table, self._shell_mags), (self.band_table, self._band_mags)):
            for row, out in zip(self._projected(table, cf), mags):
                np.abs(row[self.windows["+"]], out=out)
        values += self._sups("+", self._shell_mags)
        # the low-pass rows are measured: their array takes each shell's band total
        for total, first in zip(self._shell_mags, self._first_band):
            np.sum(self._band_mags[first:], axis=0, out=total)
        values += self._sups("+", self._shell_mags)
        if self.gauge:
            # the first paraproduct of B_k(u, u) does not depend on k: one per snapshot
            shared = next(iter(self.gauge.values())).paraproduct(c, c)
            for kernel in self.gauge.values():
                # |v| only: a v held while the next band's is formed costs a heap trim
                mags = np.abs(Bundle(kernel, c, shared).v[self.windows["+"]],
                              out=self._row["+"])
                values += self._sups("+", mags)
        return values


def run(config: ExperimentConfig) -> DecayReport:
    """Evolve the configured data and measure shell decay over time, each
    snapshot as ``solver.stream`` yields it; the clean flags and the fits are
    formed from the measured series after the last snapshot."""
    state = config.solver_state()
    tables = SnapshotTables(config)
    shells = tables.shells
    times: list[float] = []
    sup = {sign: {f"{j}": [] for j in shells} for sign in "+-"}
    lowpass_sup = {f"{j}": [] for j in shells}
    bandsum_sup = {f"{j}": [] for j in shells}
    gauge_sup = {f"{k}": {f"{j}": [] for j in shells} for k in tables.gauge}
    columns = [by_shell[f"{j}"] for _, _, by_shell in _blocks(sup, lowpass_sup, bandsum_sup,
                                                              gauge_sup) for j in shells]
    # each snapshot is measured as the solver yields it, and dropped
    for snap in stream(state, config.t_final, config.snapshot_stride):
        times.append(snap.t)
        for column, value in zip(columns, tables.measure(snap.w)):
            column.append(value)

    horizon = {f"{j}": contamination_time(config, j) for j in shells}
    clean = {j: [t <= h for t in times] for j, h in horizon.items()}
    fits = [fit for i, t in enumerate(times)
            if (fit := _fit_snapshot(shells, sup["+"], clean, i, t)) is not None]
    # aggregate (uniform-in-time) fit over the max of each shell series
    agg = _fit_row(_clean_peaks(shells, sup["+"], clean), None, "aggregate_sup_plus")
    if agg is not None:
        fits.append(agg)

    # the first snapshot is t = 0: its fit measures epsilon, its ledger row the mass
    eps_meas = measure_epsilon(fits[0] if fits and fits[0]["time"] == times[0] else None)
    c0 = config.initial["c"]
    budgets = {
        "box_wrap_tail": 2.0 * c0 / (c0**2 * (config.box_length / 2.0) ** 2 + 1.0),
        "contamination_time": horizon,
        "sponge": asdict(state.sponge),
        "mass_over_L": snap.ledger[0][1] / config.box_length,
    }
    return DecayReport(
        config=asdict(config), times=times, shells=shells, sup=sup, lowpass_sup=lowpass_sup,
        bandsum_sup=bandsum_sup, gauge_sup=gauge_sup, clean=clean, fits=fits,
        epsilon_measured=eps_meas, predicted_exponent=bootstrap_predict(eps_meas),
        budgets=budgets, ledger=[list(row) for row in snap.ledger])


def _clean_peaks(shells: list[float], series: dict, clean: dict,
                 times: slice = slice(None)) -> list[tuple[float, float]]:
    """(j, largest clean positive value of series[j][times]) for each shell
    that has one, series and clean mapping shell(str) -> [value per time]."""
    pairs = []
    for j in shells:
        values = [v for v, ok in zip(series[f"{j}"][times], clean[f"{j}"][times])
                  if ok and v > 0.0]
        if values:
            pairs.append((j, max(values)))
    return pairs


def _fit_row(pairs: list[tuple[float, float]], time: float | None, kind: str) -> dict | None:
    """The ``fits`` entry of a shell fit of ``pairs``, or None where ``fit_decay`` refuses them."""
    try:
        fit = fit_decay(pairs)
    except DegenerateSeriesError:
        return None
    return {"time": time, "kind": kind, **asdict(fit)}


def _fit_snapshot(shells: list[float], sup_plus: dict, clean: dict, i: int, t: float) -> dict | None:
    """The shell fit of the clean positive sups of snapshot i, at time t."""
    return _fit_row(_clean_peaks(shells, sup_plus, clean, slice(i, i + 1)), t, "sup_plus")


@dataclass
class LowFreqCheck:
    slope: float
    target: float
    passed: bool
    #: the smallest fitted sup, to hold against ``budgets.mass_over_L``: the low-pass
    #: acts on the mean-removed field, about -mass/L wherever the field is smaller
    smallest_sup: float


#: slack of ``lowfreq_decay_check`` on the target slope
LOWFREQ_MARGIN = 0.3


def lowfreq_decay_check(report: DecayReport) -> LowFreqCheck:
    """Fit the shell slope of the low-pass sups (max over clean times) and
    check it against -min(1 + 1.5 * eps_measured, 2) + LOWFREQ_MARGIN.

    The low-frequency piece is bounded by the sum of a left-waves 2^(-2j)
    term and a right-waves 2^(-(1+1.5 eps)j) term, so the testable exponent
    is their minimum (the bootstrap-improved one).  ``fit_decay`` raises
    DegenerateSeriesError when fewer than four clean shells carry signal.
    """
    eps = report.epsilon_measured
    target = -bootstrap_predict(eps)
    all_values = [v for j in report.shells for v in report.lowpass_sup[f"{j}"]]
    if all_values and max(all_values) == 0.0:
        # nothing to bound: vacuous pass
        return LowFreqCheck(slope=0.0, target=target, passed=True, smallest_sup=0.0)
    pairs = _clean_peaks(report.shells, report.lowpass_sup, report.clean)
    fit = fit_decay(pairs)
    return LowFreqCheck(slope=fit.slope, target=target,
                        passed=bool(fit.slope <= target + LOWFREQ_MARGIN),
                        smallest_sup=min(v for _, v in pairs))
