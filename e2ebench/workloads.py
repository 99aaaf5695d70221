"""The benchmark's workloads: one closed-loop batch job each.

Every ``SimulationConfig`` field a workload sets is in its ``config``
mapping and nowhere else; the seed comes from the command line.  Only
fields that describe the problem or its execution are set (box,
particles, grid, redshift range, steps, sub-cycles, backend, dtype,
executor, workers); everything else keeps its default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SimulationConfig

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name, why:
        The name used on the command line and the reason it exists.
    config:
        ``SimulationConfig`` keyword arguments (``seed`` excluded).
    decomposition:
        Overloaded rank decomposition passed to ``HACCSimulation``, or
        ``None`` for a single periodic rank.
    checkpoint_every_step:
        Write a checkpoint after every step; otherwise only the final
        state is written.
    mass_function:
        Compare the FOF mass function with Sheth-Tormen at a=1 in the
        z=0 analysis.
    """

    name: str
    why: str
    config: dict = field(default_factory=dict)
    decomposition: tuple[int, int, int] | None = None
    checkpoint_every_step: bool = False
    mass_function: bool = False

    def simulation_config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(**self.config, seed=int(seed))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pm-mesh",
            why=(
                "serial PM-only run on a 2x-refined mesh: no short range, so "
                "CIC, FFT and drift changes show here and PP changes do not"
            ),
            config=dict(
                box_size=192.0,
                n_per_dim=48,
                grid_size=96,
                z_initial=25.0,
                z_final=0.0,
                n_steps=10,
                backend="pm",
                dtype="f32",
            ),
        ),
        Workload(
            name="production-overloaded",
            why=(
                "2x2x2 overloaded TreePM on 2 threads with per-step "
                "checkpoints, restart and in-situ halo analysis: PP-kernel, "
                "tree, overload, io and analysis changes show here"
            ),
            config=dict(
                box_size=128.0,
                n_per_dim=24,
                z_initial=25.0,
                z_final=0.0,
                n_steps=5,
                n_subcycles=2,
                backend="treepm",
                dtype="f32",
                executor="thread",
                workers=2,
            ),
            decomposition=(2, 2, 2),
            checkpoint_every_step=True,
            mass_function=True,
        ),
    )
}
