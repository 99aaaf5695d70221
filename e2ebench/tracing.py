"""Call tracing installed from the benchmark: spans around layer calls.

:class:`Tracer` replaces a fixed list of public functions and methods of
the ``repro`` package with wrappers that record one span per call: name,
stage, thread, parent span, start and end, plus work counts read from
the call's arguments and result.  Spans stay in memory.  The wrappers
are removed by :meth:`Tracer.uninstall`, which puts back the exact
objects it replaced, so an untraced job runs the unmodified program.

Span names are ``<layer>.<what>`` where ``<layer>`` is the ``repro``
sub-package the time belongs to.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "TRACE_TARGETS",
    "LAYER_UNITS",
    "WORK_KINDS",
    "layer_metrics",
]


@dataclass
class Span:
    """One recorded call."""

    id: int
    name: str
    stage: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# work counts read from a call's arguments and result
# ----------------------------------------------------------------------
def _positions_count(args, kwargs, result) -> dict:
    pos = kwargs.get("positions", args[0] if args else None)
    return {"particles": int(np.shape(pos)[0])}


def _gather_count(args, kwargs, result) -> dict:
    # cic_interpolate(grid, positions, box_size, ...)
    return {"particles": int(np.shape(args[1])[0])}


def _fft_points(args, kwargs, result) -> dict:
    # one forward transform plus one inverse per force component
    delta = args[1]
    return {"points": int(np.size(delta)) * (1 + len(result))}


def _cloud_counts(args, kwargs, result) -> dict:
    # accelerations_cloud(self, positions, masses, n_targets)
    return {"targets": int(args[3]), "cloud": int(np.shape(args[1])[0])}


def _domain_counts(args, kwargs, result) -> dict:
    return {
        "active": sum(d.n_active for d in result),
        "passive": sum(d.n_passive for d in result),
    }


def _halo_count(args, kwargs, result) -> dict:
    return {"halos": int(result.n_halos)}


#: (owner, attribute, span name, counts) — owner is a module path or
#: ``module:Class``.  Module-level names are patched in the namespace
#: that calls them.
TRACE_TARGETS: tuple = (
    ("repro.core.simulation", "make_initial_conditions", "cosmology.ics",
     None),
    ("repro.core.simulation:HACCSimulation", "step", "core.step", None),
    ("repro.core.particles:Particles", "wrap", "core.wrap", None),
    ("repro.grid.poisson:SpectralPoissonSolver", "accelerations",
     "grid.pm_force", None),
    ("repro.grid.poisson", "ParticleGridCoords", "grid.coords", None),
    ("repro.grid.poisson", "cic_deposit", "grid.cic_deposit",
     _positions_count),
    ("repro.grid.threaded_cic", "cic_deposit", "grid.cic_deposit",
     _positions_count),
    ("repro.grid.poisson", "cic_interpolate", "grid.cic_gather",
     _gather_count),
    ("repro.grid.poisson:SpectralPoissonSolver", "force_grids",
     "fft.force_grids", _fft_points),
    ("repro.shortrange.solvers:ShortRangeSolver", "accelerations",
     "shortrange.ghosts", None),
    ("repro.shortrange.solvers:TreePMShortRange", "accelerations_cloud",
     "shortrange.solve", _cloud_counts),
    ("repro.shortrange.solvers", "RCBTree", "shortrange.tree_build", None),
    ("repro.shortrange.solvers", "pack_tree", "shortrange.walk", None),
    ("repro.shortrange.batch:BatchedPairEngine", "evaluate",
     "shortrange.pp", None),
    ("repro.parallel.overload:OverloadExchange", "distribute",
     "parallel.overload", _domain_counts),
    ("repro.parallel.executor:RankExecutor", "map", "parallel.map", None),
    ("repro.io.checkpoint", "save_checkpoint", "io.write", None),
    ("repro.io.checkpoint", "load_checkpoint", "io.read", None),
    ("repro.io.checkpoint", "crc32c", "io.crc", None),
    ("repro.analysis.power", "power_from_delta", "analysis.power", None),
    ("repro.analysis.halos", "fof_halos", "analysis.fof", _halo_count),
    ("repro.analysis.mass_function", "sheth_tormen",
     "cosmology.mass_function", None),
)


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Records spans around the calls named in ``TRACE_TARGETS``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stage_name = "none"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner_path, attr, name, counts in TRACE_TARGETS:
                owner = _resolve_owner(owner_path)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, counts))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every replaced object (in reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.uninstall()
        return False

    @contextlib.contextmanager
    def stage(self, name: str):
        """Tag spans opened inside the block with a job stage."""
        previous, self.stage_name = self.stage_name, name
        try:
            yield
        finally:
            self.stage_name = previous

    # -- recording ------------------------------------------------------
    def _wrap(self, fn, name: str, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            span = Span(
                id=span_id,
                name=name,
                stage=tracer.stage_name,
                thread=threading.get_ident(),
                parent=stack[-1] if stack else None,
                start=time.perf_counter(),
            )
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as Chrome ``trace_event`` JSON (microseconds)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        return {
            "traceEvents": [
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 0,
                    "tid": s.thread,
                    "args": {
                        "id": s.id,
                        "parent": s.parent,
                        "stage": s.stage,
                        **s.counts,
                    },
                }
                for s in sorted(self.spans, key=lambda s: s.start)
            ]
        }


# ----------------------------------------------------------------------
# per-layer metrics from one traced job
# ----------------------------------------------------------------------
#: every per-layer metric and its unit.  ``ns/pair``, ``ns/particle``,
#: ``ns/point`` and ``MB/s`` are rates over the named work count.
LAYER_UNITS: dict[str, str] = {
    "cosmology.ics_s": "s",
    "cosmology.mass_function_s": "s",
    "core.step_s": "s",
    "core.wrap_s": "s",
    "core.unattributed_s": "s",
    "core.attributed_share": "ratio",
    "grid.pm_force_s": "s",
    "grid.coords_s": "s",
    "grid.cic_deposit_s": "s",
    "grid.cic_gather_s": "s",
    "grid.particles": "count",
    "grid.cic_ns_per_particle": "ns/particle",
    "fft.force_grids_s": "s",
    "fft.points": "count",
    "fft.ns_per_point": "ns/point",
    "shortrange.ghosts_s": "s",
    "shortrange.solve_s": "s",
    "shortrange.tree_build_s": "s",
    "shortrange.walk_s": "s",
    "shortrange.pp_s": "s",
    "shortrange.pairs": "count",
    "shortrange.ns_per_pair": "ns/pair",
    "shortrange.target_fraction": "ratio",
    "parallel.overload_s": "s",
    "parallel.ghost_ratio": "ratio",
    "parallel.map_s": "s",
    "parallel.efficiency": "ratio",
    "io.write_s": "s",
    "io.write_bytes": "bytes",
    "io.write_mb_per_s": "MB/s",
    "io.read_s": "s",
    "io.crc_s": "s",
    "analysis.power_s": "s",
    "analysis.fof_s": "s",
    "analysis.halos": "count",
    "instrument.trace_overhead_s": "s",
}


#: how each work count among the metrics is obtained.  A rate divides a
#: layer's time by the count its unit names: ns/pair by
#: ``shortrange.pairs``, ns/particle by ``grid.particles``, ns/point by
#: ``fft.points`` and MB/s by ``io.write_bytes``.
WORK_KINDS: dict[str, str] = {
    "shortrange.pairs": "counted by the short-range kernel",
    "grid.particles": "counted: particles passed to CIC deposit and gather",
    "fft.points": "counted: grid points of each force_grids call times "
                  "its transforms (one forward, one inverse per component)",
    "io.write_bytes": "computed from the checkpointed array sizes, "
                      "not measured",
    "analysis.halos": "counted: FOF halos found",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    run_s: float,
    pairs: int,
    checkpoint_bytes: int,
    workers: int,
) -> dict[str, float]:
    """Per-layer times, work counts and rates of one traced job.

    ``run_s`` is the job's wall time over its steps, ``pairs`` its
    counted short-range pair interactions and ``checkpoint_bytes`` the
    bytes of the state it checkpointed (computed from array sizes).  A
    time is the inclusive duration of every span of that name in the
    job stage the metric belongs to, summed over threads (busy time).
    ``shortrange.ghosts_s`` is a self time: the periodic-image
    construction around the solve.
    ``core.unattributed_s`` is ``run_s`` minus the spans the steps call
    directly, i.e. what the step does outside every traced call.
    """

    def total(name: str, stages=("run",)) -> float:
        return sum(
            s.duration for s in spans if s.name == name and s.stage in stages
        )

    def count(name: str, key: str, stages=("run",)) -> int:
        return sum(
            s.counts.get(key, 0)
            for s in spans
            if s.name == name and s.stage in stages
        )

    def self_time(name: str) -> float:
        ids = {s.id for s in spans if s.name == name and s.stage == "run"}
        inner = sum(s.duration for s in spans if s.parent in ids)
        return total(name) - inner

    step_ids = {s.id for s in spans if s.name == "core.step"}
    attributed = sum(s.duration for s in spans if s.parent in step_ids)
    unattributed = run_s - attributed

    deposit_s = total("grid.cic_deposit")
    gather_s = total("grid.cic_gather")
    cic_particles = count("grid.cic_deposit", "particles") + count(
        "grid.cic_gather", "particles"
    )
    fft_s = total("fft.force_grids")
    fft_points = count("fft.force_grids", "points")
    solve_s = total("shortrange.solve")
    pp_s = total("shortrange.pp")
    map_s = total("parallel.map")
    write_s = total("io.write", ("checkpoint",))
    return {
        "cosmology.ics_s": total("cosmology.ics", ("setup",)),
        "cosmology.mass_function_s": total(
            "cosmology.mass_function", ("analysis",)
        ),
        "core.step_s": total("core.step"),
        "core.wrap_s": total("core.wrap"),
        "core.unattributed_s": unattributed,
        "core.attributed_share": _ratio(attributed, run_s),
        "grid.pm_force_s": total("grid.pm_force"),
        "grid.coords_s": total("grid.coords"),
        "grid.cic_deposit_s": deposit_s,
        "grid.cic_gather_s": gather_s,
        "grid.particles": cic_particles,
        "grid.cic_ns_per_particle": 1e9
        * _ratio(deposit_s + gather_s, cic_particles),
        "fft.force_grids_s": fft_s,
        "fft.points": fft_points,
        "fft.ns_per_point": 1e9 * _ratio(fft_s, fft_points),
        "shortrange.ghosts_s": self_time("shortrange.ghosts"),
        "shortrange.solve_s": solve_s,
        "shortrange.tree_build_s": total("shortrange.tree_build"),
        "shortrange.walk_s": total("shortrange.walk"),
        "shortrange.pp_s": pp_s,
        "shortrange.pairs": int(pairs),
        "shortrange.ns_per_pair": 1e9 * _ratio(pp_s, pairs),
        "shortrange.target_fraction": _ratio(
            count("shortrange.solve", "targets"),
            count("shortrange.solve", "cloud"),
        ),
        "parallel.overload_s": total("parallel.overload"),
        "parallel.ghost_ratio": _ratio(
            count("parallel.overload", "passive"),
            count("parallel.overload", "active"),
        ),
        "parallel.map_s": map_s,
        "parallel.efficiency": _ratio(solve_s, workers * map_s),
        "io.write_s": write_s,
        "io.write_bytes": checkpoint_bytes,
        "io.write_mb_per_s": 1e-6 * _ratio(checkpoint_bytes, write_s),
        "io.read_s": total("io.read", ("restart",)),
        "io.crc_s": total("io.crc", ("checkpoint", "restart")),
        "analysis.power_s": total("analysis.power", ("analysis",)),
        "analysis.fof_s": total("analysis.fof", ("analysis",)),
        "analysis.halos": count("analysis.fof", "halos", ("analysis",)),
    }
