"""Output checks run after the timed region of a job.

Every bound here is fixed in advance and independent of the seed.  Each
check is one operation of the benchmark; a check that fails is a failed
operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.diagnostics import cic_mass_error, momentum_drift
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import DirectShortRange, periodic_ghosts

__all__ = [
    "Check",
    "FORCE_RTOL",
    "MOMENTUM_DRIFT_MAX",
    "CIC_MASS_ERROR_MAX",
    "FORCE_SAMPLE",
    "force_error",
    "physics_checks",
]

#: relative L2 error of the program's short-range force on the sample
#: against float64 direct summation: the trajectory tolerance.  The
#: float32 kernel reads 4e-8 to 1.3e-6 on the workloads, and one that
#: only reorders its sums stays in that range; a zeroed force reads 1, a
#: sign-flipped one 2.
FORCE_RTOL = 1e-4
#: ``|P - P0| / sum m|p|`` at z=0 (the trajectory tolerance).  The
#: workloads read 1e-8 to 1e-6: pairwise short-range forces conserve
#: momentum, the PM force conserves it to interpolation error.
MOMENTUM_DRIFT_MAX = 1e-4
#: relative mass defect of a CIC deposit of the final state
CIC_MASS_ERROR_MAX = 1e-6
#: particles whose short-range force is checked: a fixed stride over
#: the particle index, the same set for every seed
FORCE_SAMPLE = 256
#: targets per direct-summation block (bounds the pair temporaries)
_DIRECT_BLOCK = 16


@dataclass(frozen=True)
class Check:
    """One check result: ``ok`` is ``value <= bound`` unless stated."""

    name: str
    ok: bool
    value: float
    bound: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": bool(self.ok),
            "value": float(self.value),
            "bound": float(self.bound),
        }


def _upper(name: str, value: float, bound: float) -> Check:
    value = float(value)
    return Check(name, bool(np.isfinite(value) and value <= bound), value,
                 bound)


def _sample_indices(n: int) -> np.ndarray:
    size = min(FORCE_SAMPLE, n)
    return np.unique(np.linspace(0, n - 1, size).astype(np.int64))


def force_error(sim) -> float:
    """Relative L2 error of the program's short-range force on a sample.

    The program's force is the stepper's own short-range callback at
    the final positions (overloaded domains and executor included).  The
    reference is :class:`DirectShortRange` in float64 over the same
    periodic cloud, with the same kernel fit and the same scale.
    """
    particles = sim.particles
    program = np.asarray(
        sim.stepper.short_range(particles.positions), dtype=np.float64
    )
    ref_kernel = ShortRangeKernel(
        sim.kernel.fit,
        sim.config.spacing(),
        eps_cells=sim.config.eps_cells,
        dtype=np.float64,
    )
    direct = DirectShortRange(ref_kernel)
    cloud, cloud_m = periodic_ghosts(
        particles.positions.astype(np.float64),
        particles.masses.astype(np.float64),
        sim.config.box_size,
        ref_kernel.rcut,
    )
    sample = _sample_indices(particles.n)
    everyone = np.arange(cloud.shape[0])
    reference = np.empty((sample.size, 3))
    for lo in range(0, sample.size, _DIRECT_BLOCK):
        block = sample[lo:lo + _DIRECT_BLOCK]
        order = np.concatenate([block, np.setdiff1d(everyone, block)])
        reference[lo:lo + block.size] = direct.accelerations_cloud(
            cloud[order], cloud_m[order], block.size
        )
    reference *= sim.prefactor * sim.pair_norm
    scale = np.linalg.norm(reference)
    return float(np.linalg.norm(program[sample] - reference) / scale)


def power_ok(pk) -> bool:
    p = np.asarray(pk.power)
    return bool(p.size and np.all(np.isfinite(p)) and np.all(p > 0))


def physics_checks(sim, momentum0, power) -> list[Check]:
    """Checks on the final state of a job (short-range force if any)."""
    grid = sim.config.grid()
    checks = [
        _upper(
            "momentum_drift",
            momentum_drift(sim.particles, momentum0),
            MOMENTUM_DRIFT_MAX,
        ),
        _upper(
            "cic_mass_error",
            cic_mass_error(sim.particles, grid),
            CIC_MASS_ERROR_MAX,
        ),
        Check("power_finite_positive", power_ok(power),
              float(len(power.power)), 1.0),
    ]
    if sim.short_solver is not None:
        checks.append(
            _upper("shortrange_force_rel_l2", force_error(sim), FORCE_RTOL)
        )
    return checks
