"""Standalone micro-timings of single layer functions at three sizes.

Sizes are the ROADMAP's: 256 cells in 1D, 64x64 and 256x256 cells in 2D.
Bytes are *computed* from array sizes (nodal input plus per-cell output of
``gradient_values``), not measured: the largest array here is 1 MiB, far
below the last-level cache of any current server CPU (105 MiB on the
machine the benchmark was defined on), so every array is cache-resident and
no bandwidth claim is made.

A function missing, or called with a signature it no longer accepts, is
reported as absent.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from doublephase import convexity, mesh, modular
from doublephase.mesh import ScalarField, build_grid
from doublephase.phase import PhasePair, PhaseStructure

SIZES = {"n256": (1, [256]), "64x64": (2, [64, 64]), "256x256": (2, [256, 256])}
BATCH_SECONDS = 0.02
BATCHES = 5
SWEEP_SAMPLES = 1_000_000


def _per_call_seconds(fn) -> float:
    """Median over batches of the mean call time; batches last ~BATCH_SECONDS."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    n = max(1, int(BATCH_SECONDS / max(first, 1e-9)))
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times)


def _inputs(size: str, seed: int):
    dim, resolution = SIZES[size]
    grid = build_grid(dim, [(0.0, 1.0)] * dim, resolution)
    centers = grid.cell_centers()
    n = grid.n_cells
    p = 1.5 + 0.3 * centers[:, 1] if dim == 2 else np.full(n, 1.5)
    phase = PhaseStructure(grid, p, (PhasePair(np.full(n, 3.0), centers[:, 0].copy()),))
    u = np.random.default_rng(seed).normal(size=grid.n_nodes)
    return grid, phase, u


def micro_metrics(seed: int) -> tuple[dict, list[str]]:
    """Returns ``({metric: (value, unit)}, absent)``."""
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def timed(name, unit, fn, scale):
        try:
            metrics[name] = (_per_call_seconds(fn) * scale, unit)
        except Exception as err:  # a later signature change must not stop the run
            metrics[name] = (0.0, unit)
            absent.append(f"{name}: {type(err).__name__}: {err}")

    for size in SIZES:
        grid, phase, u = _inputs(size, seed)
        vectors = mesh.gradient_values(grid, u)
        t = np.sqrt(np.sum(vectors**2, axis=1))
        field = ScalarField(grid, u)
        calls = {
            "mesh.gradient_values": lambda: mesh.gradient_values(grid, u),
            "mesh.gradient_adjoint": lambda: mesh.gradient_adjoint(grid, vectors),
            "phase.flux_coefficient": lambda: phase.flux_coefficient(t),
            "phase.h_of": lambda: phase.h_of(t),
            "modular.modular_value": lambda: modular.modular_value(u, grid, phase, "gradient"),
            "modular.luxemburg_norm": lambda: modular.luxemburg_norm(field, phase, "gradient"),
        }
        for fn_name, fn in calls.items():
            timed(f"micro.{fn_name}.us.{size}", "us", fn, 1e6)
        metrics[f"micro.mesh.gradient_values.bytes_computed.{size}"] = (
            float(8 * (grid.n_nodes + grid.dim * grid.n_cells)),
            "B",
        )
    timed(
        "micro.convexity.sweep_two_point.s.1e6",
        "s",
        lambda: convexity.sweep_two_point(SWEEP_SAMPLES, seed),
        1.0,
    )
    return metrics, absent
