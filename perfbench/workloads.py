"""Workloads of the ircrates benchmark.

Each workload builds its inputs from a seed, then runs one *pass* over them
through the public API the command line uses (``scenario.dominance_map`` or
``sl_vs_bl_map``, then CSV emission; ``discrete.load_factorization`` plus
the ``*_level_bounds``).  A pass covers a fixed number of items (map cells
or factorizations), so pass times are comparable across seeds and commits.

Run as a script, ``python perfbench/workloads.py NAME SEED DIR [smoke]``
only builds the inputs of one workload; the benchmark times that in a fresh
interpreter as its set-up metric.

Seeds: seed 0 is the paper default.  For the maps another seed shifts the
sweep window by a seeded offset smaller than one grid step, which keeps the
cell count.  For ``discrete_bounds`` the seed draws the probabilities of a
fixed list of alphabet shapes, which keeps the table sizes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from ircrates import discrete, scenario

# -- relay-placement maps -----------------------------------------------------


def _map_config(seed: int, resolution: float, pa_policy: str) -> scenario.ScenarioConfig:
    config = replace(scenario.default_config(), resolution=resolution,
                     pa_policy=pa_policy)
    if seed == 0:
        return config
    dx, dy = (float(v) for v in np.random.default_rng(seed).uniform(0.0, resolution, 2))
    return replace(config, x_min=config.x_min + dx, x_max=config.x_max + dx,
                   y_min=config.y_min + dy, y_max=config.y_max + dy)


def _map_items(config: scenario.ScenarioConfig) -> int:
    return len(config.grid_x()) * len(config.grid_y())


def run_dominance_map(config: scenario.ScenarioConfig):
    cells = scenario.dominance_map(config)
    return cells, scenario.map_to_csv(cells)


def run_sl_vs_bl_map(config: scenario.ScenarioConfig):
    cells = scenario.sl_vs_bl_map(config)
    return cells, scenario.slmap_to_csv(cells)


# -- finite-alphabet bounds ---------------------------------------------------

# Alphabet shapes (nx, nu, nxr, ny, nyh) of bi-level and (nx, nxr, ny, nyh) of
# single-level factorizations.  The large ones put the joint table near the
# 10**6-entry cap of ``discrete.JointPmf`` (995,328 and 829,440 entries, so at
# most 8 MB of float64); the tiny ones have 2-3 letter alphabets.
_LARGE_BI = (3, 3, 3, 4, 8)
_LARGE_SINGLE = (4, 4, 6, 60)
_TINY_BI = ((2, 2, 2, 2, 2), (3, 2, 2, 2, 2), (2, 3, 2, 3, 2))
_TINY_SINGLE = ((2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 2))


def _discrete_shapes(smoke: bool) -> List[Tuple[str, tuple]]:
    shapes = []
    for _ in range(1 if smoke else 8):
        shapes += [("bi", _LARGE_BI), ("single", _LARGE_SINGLE)]
        for k in range(1 if smoke else 12):
            shapes.append(("bi", _TINY_BI[k % len(_TINY_BI)]))
            shapes.append(("single", _TINY_SINGLE[k % len(_TINY_SINGLE)]))
    return shapes


def _conditional(rng, shape, cond_rank: int) -> np.ndarray:
    """Random table whose trailing ``len(shape) - cond_rank`` axes sum to 1."""
    table = rng.gamma(1.0, size=shape)
    return table / table.sum(axis=tuple(range(cond_rank, len(shape))), keepdims=True)


def _bi_factors(rng, nx, nu, nxr, ny, nyh):
    """(outputs, conditions, table) of a bi-level factorization, file order."""
    return [
        (("x1",), (), _conditional(rng, (nx,), 0)),
        (("x2",), (), _conditional(rng, (nx,), 0)),
        (("u1",), (), _conditional(rng, (nu,), 0)),
        (("u2",), (), _conditional(rng, (nu,), 0)),
        (("xr",), ("u1", "u2"), _conditional(rng, (nu, nu, nxr), 2)),
        (("y1", "y2", "yr"), ("x1", "x2", "xr"),
         _conditional(rng, (nx, nx, nxr, ny, ny, ny), 3)),
        (("yh1",), ("yr", "u1"), _conditional(rng, (ny, nu, nyh), 2)),
        (("yh2",), ("yr", "u2"), _conditional(rng, (ny, nu, nyh), 2)),
    ]


def _single_factors(rng, nx, nxr, ny, nyh):
    return [
        (("x1",), (), _conditional(rng, (nx,), 0)),
        (("x2",), (), _conditional(rng, (nx,), 0)),
        (("xr",), (), _conditional(rng, (nxr,), 0)),
        (("y1", "y2", "yr"), ("x1", "x2", "xr"),
         _conditional(rng, (nx, nx, nxr, ny, ny, ny), 3)),
        (("yh",), ("yr", "xr"), _conditional(rng, (ny, nxr, nyh), 2)),
    ]


def _factorization_text(mode: str, factors) -> str:
    """The factorization file format read by ``discrete.load_factorization``."""
    lines = [f"mode {mode}"]
    for outs, conds, table in factors:
        head = "factor " + ",".join(outs)
        if conds:
            head += " | " + ",".join(conds)
        out_sizes = table.shape[len(conds):]
        lines.append(head + " : " + " ".join(str(n) for n in out_sizes))
        lines.append(" ".join(repr(float(v)) for v in table.ravel()))
    return "\n".join(lines) + "\n"


def _discrete_inputs(seed: int, workdir: Path, smoke: bool) -> List[Path]:
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, (mode, shape) in enumerate(_discrete_shapes(smoke)):
        maker = _bi_factors if mode == "bi" else _single_factors
        path = workdir / f"{k:04d}_{mode}.fact"
        path.write_text(_factorization_text(mode, maker(rng, *shape)))
        paths.append(path)
    return paths


def run_discrete_bounds(paths: List[Path]):
    out = []
    for path in paths:
        fact = discrete.load_factorization(path)
        if isinstance(fact, discrete.BiLevelFactorization):
            out.append(discrete.bi_level_bounds(fact))
        else:
            out.append(discrete.single_level_bounds(fact))
    return out


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "map", "slmap" or "discrete": selects the output checks
    item: str  # what one item of a pass is
    build: Callable[[int, Path, bool], object]  # (seed, workdir, smoke) -> inputs
    run: Callable[[object], object]  # inputs -> output
    items: Callable[[object], int]


def _map_workload(name, kind, run, resolution, smoke_resolution, pa_policy):
    def build(seed, workdir, smoke):
        return _map_config(seed, smoke_resolution if smoke else resolution, pa_policy)
    return Workload(name, kind, "cells", build, run, _map_items)


# Resolutions in units of d0 over the default window (-4..4) x (-3..4).
# map_uniform is the default 33 x 29 map; map_optimal is 3 x 3 because one
# optimal-policy cell costs about 0.3 s; slmap_fine is 41 x 36, a pass of
# under a second.  A 7 d0 step gives the 2 x 2 smoke maps.
WORKLOADS = {
    w.name: w
    for w in (
        _map_workload("map_uniform", "map", run_dominance_map, 0.25, 7.0, "uniform"),
        _map_workload("map_optimal", "map", run_dominance_map, 3.5, 7.0, "optimal"),
        _map_workload("slmap_fine", "slmap", run_sl_vs_bl_map, 0.2, 7.0, "uniform"),
        Workload("discrete_bounds", "discrete", "factorizations",
                 _discrete_inputs, run_discrete_bounds, len),
    )
}


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name].build(seed, workdir, sys.argv[4:] == ["smoke"])
