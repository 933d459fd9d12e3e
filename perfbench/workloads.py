"""Benchmark workloads: the sweep configs each one runs, and the seeded grids.

Every workload is a list of sweep configs that the CLI runs back to back.
Inputs whose default depends on the machine or is scheduled to change are
pinned in every config: one worker thread, zero temperature, an explicit
Landau-index cap, and an explicit ``dynamic_hall`` broadening.

The seed shifts each E and Omega grid that has more than one point by its
own seeded fraction of one grid step, drawn from [-SHIFT, SHIFT), leaving
range width and point count unchanged, so every seed evaluates points no
other seed does. Single-point grids and B are not shifted.

SHIFT is small on purpose. The SCBA cost of a row is heavy-tailed in its
distance to the slowly converging points near Landau band edges. Over six
seeds, shifts of up to 0.1 step spread landau_10T's SCBA iterations over
82k-132k, and shifts of up to 0.5 step spread b0_window's over 0.86M-1.45M;
that would swamp any timing bound. At 1e-3 of a step both repeat within 1%,
and the rows that take the secant rescue stay in the workload on every seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# hbar*omega_c / 50 at B = 10 T with the default hbar*v_F: the dynamic_hall
# broadening the sweep falls back to today when none is given.
BROADENING_10T = 0.0022946686790335656

SHIFT = 1e-3  # largest grid shift, in grid steps


def _grid(start: float, stop: float, count: int) -> dict:
    return {"start": start, "stop": stop, "count": count, "scale": "linear"}


def _config(quantity: str, *, A: list[float], E, B=None, Omega=None,
            hard_limit: int = 20_000, **fixed) -> dict:
    return {"quantity": quantity, "E": E, "B": B, "Omega": Omega, "A": A,
            "fixed": {"temperature": 0.0, "hard_limit": hard_limit, **fixed},
            "threads": 1}


@dataclass(frozen=True)
class Workload:
    why: str
    # layer self-time shares measured by a traced run at seed 1 (2-vCPU
    # x86-64 VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), copied by hand
    # from the "layer_shares" entry of its results file
    shares: dict
    # call sites ("module.attr", see tracer.SITES) that the workload's
    # sweeps run; a traced pass in which one records no call fails
    sites: tuple
    # calibration kernels (calibrate.KERNELS) that do the kind of work the
    # sweeps spend their time on; they scale the sweeps' wall times
    kernels: tuple
    configs: dict  # sweep name -> sweep config


WORKLOADS = {
    "b0_window": Workload(
        why="B = 0 only: scalar SCBA inside the radial kernel and the "
            "frequency window, no Landau ladder",
        shares={"scba": 0.960, "kubo_dynamic": 0.037, "sweep": 0.0016,
                "cli": 0.0015, "kubo_static": 0.0008, "model": 0.0},
        sites=("cli.run_sweep", "cli.result_to_csv", "sweep._eval_point",
               "sweep.shear_b0_numeric", "sweep.shear_dynamic_b0",
               "kubo_static.solve_self_energy_b0",
               "kubo_dynamic.solve_self_energy_b0"),
        # the scalar SCBA loop (Python complex arithmetic, numpy scalar
        # calls); the interpreter kernel alone followed it less well than
        # all three over ten seeds
        kernels=("interpreter", "memory", "page_faults"),
        configs={
            "fig1": _config("static_shear", A=[10.0, 15.0, 20.0, 35.0],
                            E=_grid(-2.0, 2.0, 81)),
            # Omega in 0.05-1.2 (16 points, step 1.15/15) at A = 10 and 35,
            # run as one sweep per A and half of the Omega grid: sweeps of
            # 1-2 s, so that the calibration rounds between them follow the
            # host's speed
            **{f"dynamic_shear_b0_A{A:.0f}_{half}": _config(
                "dynamic_shear", A=[A], E=_grid(0.0, 1.5, 2),
                Omega=_grid(0.05 + first * 1.15 / 15,
                            0.05 + (first + 7) * 1.15 / 15, 8))
               for A in (10.0, 35.0)
               for half, first in (("lo", 0), ("hi", 8))},
        }),
    "landau_10T": Workload(
        why="many cheap rows on a 3.9e3-level ladder: Landau SCBA, direct "
            "Hall sums and the sweep and CLI layers",
        shares={"scba": 0.779, "kubo_static": 0.149, "kubo_dynamic": 0.062,
                "sweep": 0.0066, "model": 0.0020, "cli": 0.0012},
        sites=("cli.run_sweep", "cli.result_to_csv", "sweep._eval_point",
               "sweep.build_spectrum", "sweep.shear_bfield_numeric",
               "sweep.hall_static_numeric", "sweep.hall_dynamic",
               "kubo_static.solve_self_energy_landau"),
        # SCBA steps over 3.9e3-level arrays and per-row Python overhead
        kernels=("interpreter", "memory", "page_faults"),
        configs={
            "fig3": _config("static_hall", A=[50.0, 100.0, 500.0],
                            E=_grid(-0.3, 0.3, 121), B=10.0),
            "fig2a": _config("static_shear", A=[20.0, 500.0],
                             E=_grid(-0.3, 0.3, 121), B=10.0),
            "fig5": _config("dynamic_hall", A=[500.0], E=_grid(0.05, 0.22, 4),
                            B=10.0, Omega=_grid(0.02, 0.45, 87),
                            broadening=BROADENING_10T),
        }),
    "landau_0p1T": Workload(
        why="few rows on a 3.9e5-level ladder: the Landau SCBA sum's "
            "arithmetic and memory traffic",
        shares={"scba": 0.970, "kubo_static": 0.030, "cli": 0.0005,
                "sweep": 0.0002, "kubo_dynamic": 0.0, "model": 0.0},
        sites=("cli.run_sweep", "cli.result_to_csv", "sweep._eval_point",
               "sweep.build_spectrum", "sweep.shear_bfield_numeric",
               "kubo_static.solve_self_energy_landau"),
        # array arithmetic over 3.9e5 levels (user time) and the page faults
        # of its temporaries (about 40% of the wall time is system time)
        kernels=("memory", "page_faults"),
        configs={
            "fig2b_0p1T": _config("static_shear", A=[15.0],
                                  E=_grid(-0.15, 0.15, 5), B=0.1,
                                  hard_limit=400_000),
        }),
    "landau_window": Workload(
        why="B = 10 T frequency window: a warm-started Landau SCBA solve at "
            "every quadrature node",
        shares={"scba": 0.995, "kubo_dynamic": 0.0040, "cli": 0.0006,
                "sweep": 0.0001, "kubo_static": 0.0, "model": 0.0},
        sites=("cli.run_sweep", "cli.result_to_csv", "sweep._eval_point",
               "sweep.build_spectrum", "sweep.shear_dynamic_bfield",
               "kubo_dynamic.solve_self_energy_landau"),
        # warm-started SCBA steps over 3.9e3-level arrays, node by node
        kernels=("interpreter", "memory", "page_faults"),
        configs={
            "window_A20": _config("dynamic_shear", A=[20.0], E=0.1, B=10.0,
                                  Omega=_grid(0.05, 0.1, 2)),
            "window_A30": _config("dynamic_shear", A=[30.0], E=0.1, B=10.0,
                                  Omega=0.05),
        }),
}


def _shift(grid, rng: random.Random):
    if not isinstance(grid, dict) or grid["count"] < 2:
        return grid
    step = (grid["stop"] - grid["start"]) / (grid["count"] - 1)
    delta = rng.uniform(-SHIFT, SHIFT) * step
    return {**grid, "start": grid["start"] + delta,
            "stop": grid["stop"] + delta}


def seeded_configs(workload: str, seed: int) -> dict:
    """Sweep configs of one workload for one seed (same seed, same inputs)."""
    configs = json.loads(json.dumps(WORKLOADS[workload].configs))
    rng = random.Random(f"{workload}:{seed}")
    for cfg in configs.values():
        for key in ("E", "Omega"):
            cfg[key] = _shift(cfg[key], rng)
    return configs


def row_count(cfg: dict) -> int:
    """Rows a sweep config produces: the product of its grid sizes."""
    n = len(cfg["A"])
    for key in ("E", "B", "Omega"):
        if isinstance(cfg[key], dict):
            n *= cfg[key]["count"]
    return n


def write_configs(workload: str, seed: int, workdir: Path) -> dict:
    """Write one JSON config per sweep into workdir; name -> config path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in seeded_configs(workload, seed).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        paths[name] = path
    return paths
