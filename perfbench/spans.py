"""Layer instrumentation installed from outside the package.

Each module of ``bolab`` is a layer.  ``Instrumentation`` replaces the layer's
public functions and public class methods with wrappers, everywhere the
package holds a reference to them (``from .spectral import coeffs_of`` binds
the function in the importing module too), so nothing under ``src/`` is
edited.  Two hooks use the wrappers:

* ``FirstCall`` notes the time of the first call into a computing layer and
  then puts every original function back, so an untimed run pays nothing
  after that point.
* ``Tracer`` records a span each time a call crosses from one layer into
  another, plus a span for every call of the functions in ``ALWAYS`` (the
  calls the per-layer metrics count, even when they come from the same
  layer).  Spans live in compact arrays in memory and are written out once,
  at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from array import array

import numpy as np

#: the layers, one per module of src/bolab; grid and errors do no measurable
#: work and are left unwrapped, so their cost lands in the calling layer
LAYERS = ("spectral", "cutoffs", "solver", "decay", "pseudoproduct",
          "normal_form", "kernels", "testing", "cli")

#: the benchmark's own code (workload driving, output checks, probes)
BENCH = "bench"

#: calls that do not end set-up: command-line plumbing, config parsing and
#: test-input generation
SETUP_LAYERS = ("cli", "testing")
SETUP_CALLS = ("decay.ExperimentConfig.from_dict",)

#: functions that get a span on every call, not only at layer crossings;
#: private names are included only where a per-layer metric counts them
ALWAYS = (
    "spectral.coeffs_of", "spectral.samples_of",
    "solver.evolve", "solver._advance", "solver.conserved", "solver.step",
    "decay.run", "decay._fit_snapshot",
    "decay.DecayReport.to_json", "decay.DecayReport.to_csv",
    "pseudoproduct.assemble_B", "pseudoproduct.nf_generator_terms",
    "normal_form.transform", "normal_form.make_gauge_context",
    "normal_form.transformed_residual", "normal_form.residual_reports_to_csv",
    "kernels.kernel_sup", "kernels.phase_integral", "kernels.rows_to_csv",
    "cli.write_manifest", "cli.atomic_write_text",
)

#: spans that write artifacts or hash them for the manifest
WRITES = (
    "cli.write_manifest", "cli.atomic_write_text",
    "decay.DecayReport.to_json", "decay.DecayReport.to_csv",
    "kernels.rows_to_csv", "normal_form.residual_reports_to_csv",
)


def _plain(raw):
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def _targets():
    """(qualified name, layer, holders) for every function to wrap, where
    holders lists each (namespace, attribute, original) that refers to it."""
    modules = {name: importlib.import_module(f"bolab.{name}") for name in LAYERS}
    sites = []
    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            qual = f"{layer}.{attr}"
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                if not attr.startswith("_") or qual in ALWAYS:
                    holders = [(m, a, value) for m in modules.values()
                               for a, v in vars(m).items() if v is value]
                    sites.append((qual, layer, holders))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for mattr, raw in list(vars(value).items()):
                    if not mattr.startswith("_") and inspect.isfunction(_plain(raw)):
                        sites.append((f"{qual}.{mattr}", layer, [(value, mattr, raw)]))
    return sites


def _rewrap(raw, wrapper):
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    return wrapper


class Instrumentation:
    """Installed wrappers and the originals needed to take them out again."""

    def __init__(self, make_wrapper):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._installed = []
        for qual, layer, holders in _targets():
            nid = len(self.names)
            self.names.append(qual)
            self.layers.append(layer)
            fn = _plain(holders[0][2])
            wrapper = make_wrapper(fn, nid, qual, layer)
            for owner, attr, raw in holders:
                installed = _rewrap(raw, wrapper)
                setattr(owner, attr, installed)
                self._installed.append((owner, attr, raw, installed))

    def remove(self) -> None:
        """Put the originals back, except where the program itself has since
        replaced a wrapper (a fault injection, say), which must stand."""
        for owner, attr, raw, installed in self._installed:
            if vars(owner).get(attr) is installed:
                setattr(owner, attr, raw)
        self._installed = []


def _ends_setup(qual: str, layer: str) -> bool:
    return layer not in SETUP_LAYERS and qual not in SETUP_CALLS


class SetupDone(BaseException):
    """Raised at the first computing call when only set-up is measured."""


class FirstCall:
    """Records when the first computing call starts, then uninstalls itself.

    With ``stop=True`` the call is not made: ``SetupDone`` is raised instead,
    which ends a set-up-only run at the same point a full run starts work.
    """

    def __init__(self, stop: bool = False):
        self.time: float | None = None
        self.stop = stop
        self.inst = Instrumentation(self._wrap)

    def _wrap(self, fn, nid, qual, layer):
        if not _ends_setup(qual, layer):
            return fn

        def wrapper(*args, **kwargs):
            if self.time is None:
                self.time = time.perf_counter()
                self.inst.remove()
                if self.stop:
                    raise SetupDone()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent, run); ``run`` numbers the root spans
    opened by ``root`` (the workload, then the probe suite), so every span of
    one root shares its run id.
    """

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.run = array("l")
        self.roots: list[str] = []
        self.first_call: float | None = None
        self.steps = 0
        self.nonconverged = 0
        self.active = True
        self._stack = [-1]
        self._layer = BENCH
        self.inst = Instrumentation(self._wrap)
        self.names = self.inst.names + [f"{BENCH}.{r}" for r in ("workload", "probes")]
        self.layers = self.inst.layers + [BENCH, BENCH]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.run.append(len(self.roots) - 1)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid, qual, layer):
        always = qual in ALWAYS
        ends_setup = _ends_setup(qual, layer)
        count_steps = qual == "solver._advance"
        count_quad = qual == "kernels.phase_integral"

        def wrapper(*args, **kwargs):
            if not self.active or (layer == self._layer and not always):
                return fn(*args, **kwargs)
            i = self._open(nid)
            if ends_setup and self.first_call is None:
                self.first_call = self.start[i]
            outer, self._layer = self._layer, layer
            try:
                out = fn(*args, **kwargs)
            finally:
                self._layer = outer
                self._close(i)
            if count_steps:
                self.steps += int(kwargs.get("n_steps", args[1] if len(args) > 1 else 1))
            elif count_quad and not getattr(out, "converged", True):
                self.nonconverged += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self, label: str):
        """A root span: 'workload' or 'probes'."""
        self.roots.append(label)
        i = self._open(self.names.index(f"{BENCH}.{label}"))
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def paused(self):
        """Turn span recording off (probe timing loops)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- results --

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.dtype("l")).astype(np.int64),
            "run": np.frombuffer(self.run, dtype=np.dtype("l")).astype(np.int64),
        }

    def save(self, path: str, run_id: str) -> None:
        np.savez_compressed(path, run_id=np.array(run_id), names=np.array(self.names),
                            layers=np.array(self.layers), roots=np.array(self.roots),
                            **self.arrays())


class SpanTable:
    """Self times and per-name statistics computed from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.run = a["run"]
        self.start = a["start"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.layer_index = {l: i for i, l in enumerate(sorted(set(tracer.layers)))}
        layer_of_name = np.array([self.layer_index[l] for l in tracer.layers], dtype=np.int64)
        self.layer = layer_of_name[self.name]

    def _ids(self, qual: str) -> np.ndarray:
        return np.nonzero(self.name == self.names.index(qual))[0] if qual in self.names \
            else np.zeros(0, dtype=np.int64)

    def count(self, *quals: str) -> int:
        return int(sum(len(self._ids(q)) for q in quals))

    def durations(self, qual: str) -> np.ndarray:
        return self.dur[self._ids(qual)]

    def median_ms(self, qual: str) -> float:
        d = self.durations(qual)
        return float(np.median(d)) * 1e3 if len(d) else 0.0

    def layer_self(self, layer: str, run: int | None = None) -> float:
        mask = self.layer == self.layer_index.get(layer, -1)
        if run is not None:
            mask &= self.run == run
        return float(np.sum(self.self_time[mask]))

    def layer_entries(self, layer: str) -> int:
        lid = self.layer_index.get(layer, -1)
        mine = self.layer == lid
        has_parent = self.parent >= 0
        outer = np.ones(len(mine), dtype=bool)
        outer[has_parent] = self.layer[self.parent[has_parent]] != lid
        return int(np.sum(mine & outer))

    def self_within(self, layer: str, qual: str) -> float:
        """Self time of ``layer``'s spans inside spans named ``qual``.

        Spans nest as intervals, so a span lies inside another exactly when
        its interval does.
        """
        mask = self.layer == self.layer_index.get(layer, -1)
        inside = np.zeros(len(self.dur), dtype=bool)
        for i in self._ids(qual):
            inside |= (self.start >= self.start[i]) & (self.start + self.dur <= self.start[i] + self.dur[i])
        return float(np.sum(self.self_time[mask & inside]))

    def top_writes_s(self) -> float:
        """Total time in artifact writes, counting nested writes once."""
        ids = [self.names.index(q) for q in WRITES if q in self.names]
        is_write = np.isin(self.name, ids)
        total = 0.0
        for i in np.nonzero(is_write)[0]:
            p = self.parent[i]
            nested = False
            while p >= 0:
                if is_write[p]:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                total += self.dur[i]
        return float(total)

    def breakdown(self, run: int) -> dict[str, float]:
        """Self seconds per layer (and the benchmark's own) within one root."""
        return {layer: self.layer_self(layer, run) for layer in self.layer_index}
