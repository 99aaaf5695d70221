"""Job runner and measurement loop of the benchmark.

A *job* is what a cosmologist runs: set up a simulation from the
workload's config and seed, evolve it to z=0, write checkpoints, read
every checkpoint back, and analyse the final state.  A benchmark run
repeats jobs of one workload and seed until its time budget is spent
and reports the fastest sample of each stage time (see
:func:`end_to_end`).
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import halos, mass_function, power
from repro.constants import particle_mass
from repro.core.diagnostics import total_momentum
from repro.core.simulation import HACCSimulation
from repro.cosmology.power_spectrum import LinearPower
from repro.io import checkpoint
from repro.shortrange.grid_force import default_grid_force_fit

from e2ebench.checks import Check, physics_checks
from e2ebench.tracing import WORK_KINDS, Tracer, layer_metrics
from e2ebench.workloads import Workload

__all__ = [
    "END_TO_END_UNITS",
    "JobResult",
    "Measurement",
    "end_to_end",
    "measure",
    "median",
    "per_layer",
    "run_job",
    "state_digest",
    "time_setup",
    "work",
]

#: setup-only samples before every job, on top of the job's own setup
SETUP_SAMPLES_PER_JOB = 8
#: restart and analysis only read the final state, so an untraced job
#: repeats each until it has been timed this long (at most
#: ``MAX_STAGE_REPEATS`` times) and keeps the fastest
MIN_STAGE_SAMPLE_S = 1.0
MAX_STAGE_REPEATS = 9


def state_digest(particles) -> str:
    """SHA-256 of the phase-space state's bytes (bit identity)."""
    h = hashlib.sha256()
    for arr in (particles.positions, particles.momenta, particles.ids):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def _state(sim) -> dict:
    """The arrays a checkpoint stores (views, not copies)."""
    p = sim.particles
    return {
        "positions": p.positions,
        "momenta": p.momenta,
        "masses": p.masses,
        "ids": p.ids,
        "a": np.float64(sim.a),
    }


def _build(workload: Workload, seed: int) -> HACCSimulation:
    # a batch job fits the short-range kernel once per process: drop the
    # in-process cache so every setup pays it, as a fresh job would
    default_grid_force_fit.cache_clear()
    return HACCSimulation(
        workload.simulation_config(seed),
        decomposition_dims=workload.decomposition,
    )


def time_setup(workload: Workload, seed: int) -> float:
    """Wall time of ICs plus simulation construction (then closed)."""
    t0 = time.perf_counter()
    sim = _build(workload, seed)
    elapsed = time.perf_counter() - t0
    sim.close()
    return elapsed


@dataclass
class JobResult:
    """Stage times and outputs of one job (``sim`` is the final state)."""

    setup_s: float
    run_s: float
    checkpoint_s: float
    restart_s: float
    analysis_s: float
    pairs: int
    digest: str
    restarts_equal: list[bool]
    n_halos: int
    sim: HACCSimulation
    momentum0: np.ndarray
    power: object
    mass_function_ratio: float = math.nan
    checkpoint_bytes: int = 0
    layers: dict = field(default_factory=dict)


def run_job(
    workload: Workload,
    seed: int,
    workdir: Path,
    tracer: Tracer | None = None,
) -> JobResult:
    """One job: setup, steps to z=0, checkpoints, restart, analysis.

    With a ``tracer``, its wrappers are installed for the whole job and
    removed before returning, the job's per-layer metrics are attached,
    and restart and analysis run once each.
    The returned ``sim`` is still open (the checks evaluate forces with
    it); the caller closes it.
    """
    stage = tracer.stage if tracer is not None else (lambda _: nullcontext())
    first_span = len(tracer.spans) if tracer is not None else 0
    with tracer if tracer is not None else nullcontext():
        with stage("setup"):
            t0 = time.perf_counter()
            sim = _build(workload, seed)
            setup_s = time.perf_counter() - t0
        try:
            result = _evolve_and_analyse(workload, sim, setup_s, workdir,
                                         stage, repeat=tracer is None)
        except BaseException:
            sim.close()
            raise
    if tracer is not None:
        result.layers = layer_metrics(
            tracer.spans[first_span:], result.run_s, result.pairs,
            result.checkpoint_bytes, sim.executor.n_workers,
        )
    return result


def _timed(fn, repeat: bool):
    """``(seconds, result)`` of ``fn``: the fastest of repeats if asked."""
    times = []
    while True:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        if (not repeat or sum(times) >= MIN_STAGE_SAMPLE_S
                or len(times) >= MAX_STAGE_REPEATS):
            return min(times), result


def _evolve_and_analyse(workload, sim, setup_s, workdir, stage, repeat):
    cfg = sim.config
    momentum0 = total_momentum(sim.particles)
    run_s = checkpoint_s = 0.0
    saved: list[tuple[Path, dict]] = []
    ckpt_bytes = 0
    for k in range(cfg.n_steps):
        with stage("run"):
            t0 = time.perf_counter()
            sim.step()
            run_s += time.perf_counter() - t0
        if workload.checkpoint_every_step or k == cfg.n_steps - 1:
            with stage("checkpoint"):
                t0 = time.perf_counter()
                path = checkpoint.save_checkpoint(
                    workdir / f"step{k + 1:03d}", sim
                )
                checkpoint_s += time.perf_counter() - t0
            snap = {k: np.copy(v) for k, v in _state(sim).items()}
            ckpt_bytes += sum(v.nbytes for v in snap.values())
            saved.append((path, snap))
    pairs = sim.interaction_count()
    digest = state_digest(sim.particles)

    def restart():
        equal = []
        for path, snap in saved:
            restored = checkpoint.load_checkpoint(
                path, decomposition_dims=workload.decomposition
            )
            equal.append(all(
                _same_bits(v, snap[k]) for k, v in _state(restored).items()
            ))
            restored.close()
        return equal

    def analyse():
        delta = sim.density_contrast()
        pk = power.power_from_delta(delta, cfg.box_size, deconvolve_cic=True)
        cat = halos.fof_halos(
            sim.particles.positions, cfg.box_size, b=0.2, min_members=10
        )
        mf_ratio = math.nan
        if workload.mass_function:
            mp = particle_mass(
                cfg.cosmology.omega_m, cfg.box_size, cfg.n_particles
            )
            mf = mass_function.measured_mass_function(cat, mp, n_bins=6)
            st = mass_function.sheth_tormen(
                LinearPower(cfg.cosmology), mf.mass, a=1.0
            )
            # halos found over halos predicted, over all mass bins
            volume_dlnm = cfg.box_size**3 * np.diff(np.log(mf.mass))[0]
            mf_ratio = float(mf.counts.sum() / (st.sum() * volume_dlnm))
        return pk, cat, mf_ratio

    with stage("restart"):
        restart_s, restarts_equal = _timed(restart, repeat)
    with stage("analysis"):
        analysis_s, (pk, cat, mf_ratio) = _timed(analyse, repeat)

    result = JobResult(
        setup_s=setup_s,
        run_s=run_s,
        checkpoint_s=checkpoint_s,
        restart_s=restart_s,
        analysis_s=analysis_s,
        pairs=pairs,
        digest=digest,
        restarts_equal=restarts_equal,
        n_halos=cat.n_halos,
        sim=sim,
        momentum0=momentum0,
        power=pk,
        mass_function_ratio=mf_ratio,
        checkpoint_bytes=ckpt_bytes,
    )
    for path, _ in saved:
        path.unlink()
    return result


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """Everything one benchmark run measured and checked."""

    setup_samples: list[float]
    jobs: list[JobResult]
    traced: list[JobResult]
    checks: list[Check]
    peak_rss_mb: float
    tracer: Tracer | None
    errors: list[str]

    @property
    def attempted(self) -> int:
        return len(self.jobs) + len(self.traced) + len(self.errors) + len(
            self.checks
        )

    @property
    def failed(self) -> int:
        return len(self.errors) + sum(not c.ok for c in self.checks)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
) -> Measurement:
    """Repeat jobs until ``seconds`` are spent, then check the outputs.

    Each round times ``SETUP_SAMPLES_PER_JOB`` setup-only samples and one
    job, so setup is sampled across the whole run.  Untraced, every job
    is timed.  Traced, untraced and traced jobs alternate (untraced
    first), so the tracing overhead is measured in the same run.  A new
    round starts only if at least half of it, judged by the last round,
    would fall inside the budget, so a run lasts ``seconds`` on average;
    at least one job of each kind runs.  Garbage is collected
    between timed regions, so a collection of an earlier job's cycles
    neither lands in a timing nor moves the peak memory.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + seconds
    setup_samples: list[float] = []
    jobs: list[JobResult] = []
    traced: list[JobResult] = []
    tracer = Tracer() if trace else None
    errors: list[str] = []
    physics: list[Check] = []
    peak = 0.0
    try:
        while True:
            use_tracer = trace and len(jobs) > len(traced)
            t0 = time.perf_counter()
            for _ in range(SETUP_SAMPLES_PER_JOB):
                setup_samples.append(time_setup(workload, seed))
                gc.collect()
            try:
                job = run_job(workload, seed, workdir,
                              tracer if use_tracer else None)
            except Exception as exc:  # a failed job is a failed operation
                errors.append(f"{type(exc).__name__}: {exc}")
                break
            last = time.perf_counter() - t0
            try:
                if not use_tracer and not jobs:
                    # the first job sets the peak memory and has its
                    # physics checked (outside the time budget); every
                    # later job must end in its exact state
                    peak = _peak_rss_mb()
                    try:
                        physics = physics_checks(
                            job.sim, job.momentum0, job.power
                        )
                    except Exception as exc:  # a check that cannot run
                        errors.append(f"checks: {type(exc).__name__}: {exc}")
                    deadline += time.perf_counter() - t0 - last
            finally:
                job.sim.close()
            (traced if use_tracer else jobs).append(job)
            gc.collect()
            done = bool(jobs) and (bool(traced) or not trace)
            if done and time.perf_counter() + 0.5 * last > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = _checks(jobs, traced, physics) if jobs else []
    return Measurement(setup_samples, jobs, traced, checks, peak, tracer,
                       errors)


def _checks(jobs, traced, physics) -> list[Check]:
    everyone = jobs + traced
    digests = {j.digest for j in everyone}
    return [
        Check("restart_bit_equal",
              all(all(j.restarts_equal) for j in everyone),
              float(sum(len(j.restarts_equal) for j in everyone)), 1.0),
        # every job of a seed, traced or not, ends in the same state
        Check("final_state_repeatable", len(digests) == 1,
              float(len(digests)), 1.0),
        Check("halos_found", jobs[0].n_halos > 0, float(jobs[0].n_halos),
              1.0),
    ] + physics


def median(values) -> float:
    return float(statistics.median(values))


#: end-to-end metrics (reported untraced) and their units
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "checkpoint_s": "s",
    "restart_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(m: Measurement) -> dict[str, float]:
    """The fastest sample of each stage over the untraced jobs.

    Other tenants of the host slow it by a third or more for periods of
    several seconds, so the median of a stage moves with the share of
    the run that fell in such periods.  The fastest sample is the one
    the host slowed least; it is steadier from run to run, and a change
    to the program still moves it.  Setup is sampled dozens of times
    through the run, restart and analysis a few times per job, and the
    steps and checkpoints once per job.
    """
    jobs = m.jobs
    return {
        "setup_s": min(m.setup_samples + [j.setup_s for j in jobs]),
        "run_s": min(j.run_s for j in jobs),
        "checkpoint_s": min(j.checkpoint_s for j in jobs),
        "restart_s": min(j.restart_s for j in jobs),
        "analysis_s": min(j.analysis_s for j in jobs),
        "peak_rss_mb": m.peak_rss_mb,
    }


def per_layer(m: Measurement) -> dict[str, float]:
    """Medians over the traced jobs, plus the tracing overhead."""
    out = {
        name: median(j.layers[name] for j in m.traced)
        for name in m.traced[0].layers
    }
    out["instrument.trace_overhead_s"] = median(
        j.run_s for j in m.traced
    ) - median(j.run_s for j in m.jobs)
    return out


def work(m: Measurement) -> dict:
    """The last job's work counts, each labelled with how it was obtained.

    A traced job has every count of ``WORK_KINDS`` (from the same
    per-layer metrics the run reports); an untraced one only those the
    job records itself.
    """
    job = (m.traced or m.jobs)[-1]
    counts = job.layers or {
        "shortrange.pairs": job.pairs,
        "io.write_bytes": job.checkpoint_bytes,
        "analysis.halos": job.n_halos,
    }
    out = {
        name: {"value": counts[name], "kind": kind}
        for name, kind in WORK_KINDS.items()
        if name in counts
    }
    if not math.isnan(job.mass_function_ratio):
        out["mass_function_over_sheth_tormen"] = job.mass_function_ratio
    return out
