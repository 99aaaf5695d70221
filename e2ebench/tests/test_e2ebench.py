"""Tests of the benchmark itself: tracing, checks and names.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.particles import Particles  # noqa: E402
from repro.core.simulation import HACCSimulation  # noqa: E402
from repro.shortrange.batch import BatchedPairEngine  # noqa: E402

from e2ebench import checks, run  # noqa: E402
from e2ebench.harness import END_TO_END_UNITS, run_job  # noqa: E402
from e2ebench.tracing import (  # noqa: E402
    LAYER_UNITS,
    TRACE_TARGETS,
    Span,
    Tracer,
    _resolve_owner,
    layer_metrics,
)
from e2ebench.workloads import WORKLOADS, Workload  # noqa: E402

#: small stand-ins for the real workloads (same code paths, ~1 s each)
TINY_TREEPM = Workload(
    name="tiny-treepm",
    why="test",
    config=dict(box_size=32.0, n_per_dim=10, n_steps=2, n_subcycles=2,
                backend="treepm", dtype="f32"),
)
TINY_PM = Workload(
    name="tiny-pm",
    why="test",
    config=dict(box_size=64.0, n_per_dim=8, grid_size=16, n_steps=2,
                backend="pm", dtype="f32"),
)
TINY_OVERLOADED = Workload(
    name="tiny-overloaded",
    why="test",
    config=dict(box_size=72.0, n_per_dim=18, n_steps=2, n_subcycles=1,
                backend="treepm", dtype="f32", executor="thread",
                workers=2),
    decomposition=(2, 2, 2),
    checkpoint_every_step=True,
)

# names as the benchmark's specification gives them
SPEC_WORKLOADS = {"pm-mesh", "production-overloaded"}
SPEC_END_TO_END = {
    "setup_s", "run_s", "peak_rss_mb", "checkpoint_s", "restart_s",
    "analysis_s",
}
SPEC_PER_LAYER = {
    "cosmology.ics_s", "cosmology.mass_function_s",
    "core.step_s", "core.wrap_s", "core.unattributed_s",
    "grid.pm_force_s", "grid.coords_s", "grid.cic_deposit_s",
    "grid.cic_gather_s", "grid.particles", "grid.cic_ns_per_particle",
    "fft.force_grids_s", "fft.points", "fft.ns_per_point",
    "shortrange.solve_s", "shortrange.tree_build_s", "shortrange.walk_s",
    "shortrange.pp_s", "shortrange.pairs", "shortrange.ns_per_pair",
    "shortrange.target_fraction",
    "parallel.overload_s", "parallel.ghost_ratio", "parallel.map_s",
    "parallel.efficiency",
    "io.write_s", "io.write_bytes", "io.write_mb_per_s", "io.read_s",
    "io.crc_s",
    "analysis.power_s", "analysis.fof_s", "analysis.halos",
    "instrument.trace_overhead_s",
}
#: added for attribution: coverage share and periodic-ghost self time
EXTRA_PER_LAYER = {"core.attributed_share", "shortrange.ghosts_s"}


def test_uninstall_restores_every_original():
    originals = {
        (owner, attr): vars(_resolve_owner(owner))[attr]
        for owner, attr, _, _ in TRACE_TARGETS
    }
    tracer = Tracer()
    with tracer:
        for (owner, attr), original in originals.items():
            assert vars(_resolve_owner(owner))[attr] is not original
    for (owner, attr), original in originals.items():
        assert vars(_resolve_owner(owner))[attr] is original


@pytest.mark.parametrize(
    "workload", [TINY_TREEPM, TINY_PM, TINY_OVERLOADED],
    ids=lambda w: w.name,
)
def test_traced_and_untraced_jobs_end_in_the_same_state(workload, tmp_path):
    plain = run_job(workload, 3, tmp_path)
    tracer = Tracer()
    traced = run_job(workload, 3, tmp_path, tracer)
    try:
        assert np.array_equal(
            plain.sim.particles.positions, traced.sim.particles.positions
        )
        assert plain.digest == traced.digest
    finally:
        plain.sim.close()
        traced.sim.close()
    assert not tracer.installed
    assert all(plain.restarts_equal) and all(traced.restarts_equal)
    assert {s.stage for s in tracer.spans} >= {"setup", "run", "analysis"}
    layers = traced.layers
    assert set(layers) | {"instrument.trace_overhead_s"} == set(LAYER_UNITS)
    assert 0 < layers["core.attributed_share"] <= 1
    if workload.config["backend"] != "pm":
        assert layers["shortrange.pairs"] == traced.pairs > 0
        assert layers["shortrange.pp_s"] > 0
    else:
        assert layers["shortrange.solve_s"] == 0
        assert layers["fft.points"] > 0
    if workload.decomposition:
        assert layers["parallel.overload_s"] > 0
        assert layers["parallel.ghost_ratio"] > 0


def test_checks_pass_on_the_unbroken_force(tmp_path):
    job = run_job(TINY_TREEPM, 3, tmp_path)
    try:
        results = checks.physics_checks(job.sim, job.momentum0, job.power)
        assert all(c.ok for c in results), results
        # an f32 kernel that only reorders its sums: permute the particle
        # order, which rebuilds the tree and reorders every pair sum
        p = job.sim.particles
        perm = np.random.default_rng(0).permutation(p.n)
        job.sim.particles = Particles(
            positions=p.positions[perm].copy(),
            momenta=p.momenta[perm].copy(),
            masses=p.masses[perm].copy(),
            ids=p.ids[perm].copy(),
            box_size=p.box_size,
        )
        assert checks.force_error(job.sim) < checks.FORCE_RTOL / 100
    finally:
        job.sim.close()


@pytest.mark.parametrize("factor", [0.0, -1.0], ids=["zeroed", "flipped"])
def test_checks_fail_on_a_broken_force(tmp_path, monkeypatch, factor):
    job = run_job(TINY_TREEPM, 3, tmp_path)
    original = BatchedPairEngine.evaluate

    def broken(self, batch, positions, masses):
        return original(self, batch, positions, masses) * factor

    monkeypatch.setattr(BatchedPairEngine, "evaluate", broken)
    try:
        results = {
            c.name: c
            for c in checks.physics_checks(job.sim, job.momentum0, job.power)
        }
    finally:
        job.sim.close()
    force = results["shortrange_force_rel_l2"]
    assert not force.ok
    assert force.value > 0.5


def test_a_job_that_raises_is_a_failed_operation(
    tmp_path, monkeypatch, capsys
):
    def broken(self):
        raise RuntimeError("broken step")

    monkeypatch.setitem(WORKLOADS, TINY_PM.name, TINY_PM)
    monkeypatch.setattr(HACCSimulation, "step", broken)
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", TINY_PM.name, "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
    }


def test_self_time_and_unattributed_time():
    spans = [
        Span(0, "core.step", "run", 1, None, 0.0, 10.0),
        Span(1, "grid.pm_force", "run", 1, 0, 1.0, 4.0),
        Span(2, "fft.force_grids", "run", 1, 1, 2.0, 3.0),
        Span(3, "shortrange.ghosts", "run", 1, 0, 5.0, 9.0),
        Span(4, "shortrange.solve", "run", 1, 3, 6.0, 9.0),
        # worker-thread span: busy time, not part of the step's tree
        Span(5, "shortrange.solve", "run", 2, None, 6.0, 8.0),
        # the kernel fit in setup also runs the PM solver
        Span(6, "fft.force_grids", "setup", 1, None, 20.0, 25.0),
    ]
    out = layer_metrics(spans, run_s=10.5, pairs=100, checkpoint_bytes=0,
                        workers=2)
    assert out["core.step_s"] == 10.0
    assert out["core.unattributed_s"] == pytest.approx(10.5 - 3.0 - 4.0)
    assert out["core.attributed_share"] == pytest.approx(7.0 / 10.5)
    assert out["fft.force_grids_s"] == 1.0
    assert out["shortrange.ghosts_s"] == pytest.approx(1.0)
    assert out["shortrange.solve_s"] == pytest.approx(5.0)


def test_names_match_the_specification():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == SPEC_WORKLOADS
    assert set(WORKLOADS) == SPEC_WORKLOADS
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert set(END_TO_END_UNITS) == SPEC_END_TO_END
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        END_TO_END_UNITS
    )
    assert set(LAYER_UNITS) == SPEC_PER_LAYER | EXTRA_PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
