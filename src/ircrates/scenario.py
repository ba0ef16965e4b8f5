"""Relay-placement experiments: configs, dominance maps, slices, CSV output.

A scenario config bundles the node geometry, powers/noises, the sweep grid
(in units of the reference distance d0) and the per-protocol optimizer
settings.  Map runners recompute the channel for every relay position on the
grid and compare protocol sum rates, a block of positions at a time; all
output is deterministic and rows are emitted in row-major grid order (y
outer, x inner, both ascending).
"""

from __future__ import annotations

import io
import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import af, df, ef
from .channel import ChannelBatch, ChannelInstance, NodeLayout, layout_to_batch, layout_to_channel
from .errors import InfeasibleError

__all__ = [
    "ScenarioConfig",
    "MapCell",
    "SlCell",
    "default_config",
    "load_config",
    "dominance_map",
    "sum_rate_slice",
    "sl_vs_bl_map",
    "map_to_csv",
    "slmap_to_csv",
]

PROTOCOL_ORDER = ("af", "df", "ef_bl", "ef_sl")

# Frozen default geometry.  The published distances d'_11 = 11.5, d'_22 = 10,
# d'_12 = 11, d'_21 = 14 leave the embedding underdetermined; it is frozen by
# placing S1 at the origin, D1 on the positive x-axis, and picking the
# minimal source separation compatible with the constraints.  The triangle
# inequality pins d(S1, S2) >= 14 - 11.5 = 2.5 with equality only for S2
# collinear at (-2.5, 0); D2 then solves |D2| = 11, |D2 - S2| = 10 in the
# upper half-plane: x = -5.45, y = sqrt(121 - 5.45^2).
_D2_Y = math.sqrt(121.0 - 5.45**2)
DEFAULT_NODES = {
    "s1": (0.0, 0.0),
    "s2": (-2.5, 0.0),
    "d1": (11.5, 0.0),
    "d2": (-5.45, _D2_Y),
}


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the field."""


_MAX_AXIS_POINTS = 10**6
# The largest optimizer grid G: DF's per-cell table of split bounds has
# G * G(G+1)/2 entries, and 125 keeps it within 10**6.
_MAX_GRID = 125

UNIFORM_NU = (0.5, 0.5)
# The relay power split each pa_policy fixes; None searches the nu simplex.
PA_SPLITS = {"uniform": UNIFORM_NU, "optimal": None}
R0_EXPONENTS = (1, 2)  # EF-SL constraint denominators 2^(e R_0) - 1

# Field checks as (test, message) rows; a value fails with the message of
# its first failed row.  A real is finite (NaN fails): a bool is not one,
# nor is an integer beyond float range.
_REAL = ((lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
          and abs(v) <= sys.float_info.max, "must be a finite number"),)
_POSITIVE = _REAL + ((lambda v: v > 0, "must be > 0"),)
_GRID = ((lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
          and 2 <= v <= _MAX_GRID, f"must be an integer from 2 to {_MAX_GRID}"),)
_PROTOCOLS = ((lambda v: isinstance(v, (list, tuple)), "must be a list"),
              (lambda v: v and all(p in PROTOCOL_ORDER for p in v),
               f"must be a non-empty subset of {PROTOCOL_ORDER}"))


def _one_of(choices) -> tuple:
    return ((lambda v: not isinstance(v, bool) and v in choices,
             "must be " + " or ".join(map(repr, choices))),)


def _check(name: str, v, rows) -> None:
    for test, message in rows:
        if not test(v):
            raise ConfigError(f"{name} {message}, got {v!r}")


# The config's fields as its JSON holds them, in key order after "layout":
# (section, required, {field: check rows}), section None for top-level
# keys.  A required section must hold all its fields; elsewhere an absent
# key takes the field default.
_SECTIONS = (
    ("powers", True, {"P1": _POSITIVE, "P2": _POSITIVE, "Pr": _POSITIVE}),
    ("noises", True, {"N1": _POSITIVE, "N2": _POSITIVE, "Nr": _POSITIVE}),
    ("sweep", False, {"x_min": _REAL, "x_max": _REAL, "y_min": _REAL, "y_max": _REAL,
                      "resolution": _POSITIVE}),
    (None, False, {"pa_policy": _one_of(tuple(PA_SPLITS))}),
    ("optimizer", False, {"df_grid": _GRID, "ef_grid": _GRID}),
    (None, False, {"protocols": _PROTOCOLS, "r0_exponent": _one_of(R0_EXPONENTS)}),
)
# NodeLayout's points with their coordinate counts, then its scalars.
_LAYOUT_POINTS = (("s1", 2), ("s2", 2), ("d1", 2), ("d2", 2), ("relay", 3))
_LAYOUT_SCALARS = ("d0", "gamma", "epsilon")


@dataclass(frozen=True)
class ScenarioConfig:
    layout: NodeLayout
    P1: float = 10.0
    P2: float = 10.0
    Pr: float = 10.0
    N1: float = 1.0
    N2: float = 1.0
    Nr: float = 1.0
    # Sweep bounds and resolution in units of d0.
    x_min: float = -4.0
    x_max: float = 4.0
    y_min: float = -3.0
    y_max: float = 4.0
    resolution: float = 0.25
    pa_policy: str = "uniform"
    df_grid: int = 41
    ef_grid: int = 41
    protocols: Tuple[str, ...] = PROTOCOL_ORDER
    r0_exponent: int = 2

    def __post_init__(self):
        for name, dim in _LAYOUT_POINTS:
            point = getattr(self.layout, name)
            if len(point) != dim:
                raise ConfigError(f"layout.{name} must have {dim} coordinates, got {point!r}")
            for v in point:
                _check(f"layout.{name}", v, _REAL)
        for name in _LAYOUT_SCALARS:
            _check(f"layout.{name}", getattr(self.layout, name), _REAL)
        for _, _, checks in _SECTIONS:
            for name, rows in checks.items():
                _check(name, getattr(self, name), rows)
        if isinstance(self.protocols, list):  # a JSON array
            object.__setattr__(self, "protocols", tuple(self.protocols))
        for lo, hi in ((self.x_min, self.x_max), (self.y_min, self.y_max)):
            if hi <= lo or self._axis_points(lo, hi) < 2:
                raise ConfigError("sweep grid must have at least 2 points per axis")

    def _axis_points(self, lo: float, hi: float) -> int:
        """Points on the sweep axis [lo, hi], refused over the cap before any
        array is allocated."""
        steps = (hi - lo) / self.resolution  # inf when the span overflows
        n = int(round(steps)) + 1 if math.isfinite(steps) else math.inf
        if n > _MAX_AXIS_POINTS:
            raise ConfigError(f"sweep axis [{lo}, {hi}] at resolution {self.resolution} "
                              f"has {n:.7g} points, cap is {_MAX_AXIS_POINTS}")
        return n

    def grid_x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self._axis_points(self.x_min, self.x_max))

    def grid_y(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self._axis_points(self.y_min, self.y_max))

    def channel_at(self, xr_d0: float, yr_d0: float) -> ChannelInstance:
        """Channel with the relay at (xr, yr) expressed in units of d0."""
        layout = self.layout.with_relay_at(xr_d0 * self.layout.d0, yr_d0 * self.layout.d0)
        return layout_to_channel(
            layout, self.P1, self.P2, self.Pr, self.N1, self.N2, self.Nr
        )

    def channel_batch(self, positions) -> ChannelBatch:
        """``channel_at`` of every (xr, yr) of ``positions``, as one batch."""
        d0 = self.layout.d0
        return layout_to_batch(self.layout, [(x * d0, y * d0) for x, y in positions],
                               self.P1, self.P2, self.Pr, self.N1, self.N2, self.Nr)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {"layout": {**{name: list(getattr(self.layout, name)) for name, _ in _LAYOUT_POINTS},
                          **{name: getattr(self.layout, name) for name in _LAYOUT_SCALARS}}}
        for section, _, checks in _SECTIONS:
            values = {name: getattr(self, name) for name in checks}
            values = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
            out.update(values if section is None else {section: values})
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        def section(name, default=None) -> dict:
            value = data.get(name, default) if isinstance(data, dict) else None
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{name}' is missing or not an object")
            return value

        lay = section("layout")
        try:
            for name in _LAYOUT_SCALARS:  # compared by NodeLayout
                _check(f"layout.{name}", lay[name], _REAL)
            for name, _ in _LAYOUT_POINTS:  # the relay's z is compared with epsilon
                for v in lay[name]:
                    _check(f"layout.{name}", v, _REAL)
            layout = NodeLayout(**{name: tuple(lay[name]) for name, _ in _LAYOUT_POINTS},
                                **{name: lay[name] for name in _LAYOUT_SCALARS})
        except KeyError as exc:
            raise ConfigError(f"layout: missing field {exc}") from None
        except ConfigError:  # _check names the field already
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"layout: {exc}") from None
        fields = {}  # retired keys are not read
        for name, required, checks in _SECTIONS:
            source = data if name is None else section(name, None if required else {})
            missing = [key for key in checks if key not in source]
            if required and missing:
                raise ConfigError(f"missing config field {missing[0]!r}")
            fields.update((key, source[key]) for key in checks if key in source)
        return cls(layout=layout, **fields)


def default_config() -> ScenarioConfig:
    """The frozen default setup: d0 = 5, gamma = 2, unit noises, all powers 10."""
    layout = NodeLayout(relay=(0.0, 0.0, 0.1), d0=5.0, gamma=2.0, epsilon=0.1,
                        **DEFAULT_NODES)
    return ScenarioConfig(layout=layout)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return ScenarioConfig.from_dict(data)


# -- per-cell protocol evaluation ---------------------------------------------


@dataclass(frozen=True)
class MapCell:
    xr: float  # units of d0
    yr: float
    rates: Dict[str, float]  # sum rate per protocol (0.0 when infeasible)
    winner: str
    bl_scenario: str
    af_gain: float
    infeasible: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SlCell:
    xr: float
    yr: float
    sl_sum: float
    bl_sum: float
    bl_scenario: str
    winner: str
    frontier: bool = False


def df_point(params: df.DfParams) -> dict:
    return {"tau": (params.tau1, params.tau2), "nu": (params.nu1, params.nu2)}


def ef_bl_point(params: ef.EfBiParams, scenario: ef.BiScenario) -> dict:
    return {"nu": (params.nu1, params.nu2), "nwz": (params.nwz1, params.nwz2),
            "scenario": scenario.value}


# Per-protocol optimisers.  An entry takes a ChannelBatch (a block of at most
# _MAX_CELLS positions) and returns one (RatePair, point) per cell, the point
# being the chosen operating point in display order.  The kernels build their
# coefficients and tables once per block, elementwise by the float operations
# of one channel, with squares and powers in Python floats (libm pow), so a
# cell's result does not depend on its block.  Kernels are looked up on their
# modules at call time, so a swapped-in kernel takes effect.


def _optimize_af(batch: ChannelBatch, config: ScenarioConfig):
    return [(pair, {"gain": gain}) for gain, pair in af.af_sum_rate_gain_batch(batch)]


def _optimize_df(batch: ChannelBatch, config: ScenarioConfig):
    found = df.df_sum_rate_search_batch(batch, config.df_grid, PA_SPLITS[config.pa_policy])
    return [(pair, df_point(params)) for params, pair in found]


def _optimize_ef_bl(batch: ChannelBatch, config: ScenarioConfig):
    found = ef.ef_bi_sum_rate_search_batch(batch, config.ef_grid, PA_SPLITS[config.pa_policy])
    return [(pair, ef_bl_point(params, scenario)) for params, scenario, pair in found]


def _optimize_ef_sl(batch: ChannelBatch, config: ScenarioConfig):
    return [(pair, {"nwz": nwz}) for nwz, pair in ef.ef_sl_batch(batch, config.r0_exponent)]


OPTIMIZERS = {"af": _optimize_af, "df": _optimize_df,
              "ef_bl": _optimize_ef_bl, "ef_sl": _optimize_ef_sl}

# Relay positions evaluated at once.  It sets the size of the per-cell
# arrays and how widely the per-call overhead is shared; the DF scan bounds
# its (cells, G, G) grid itself (``df._MAX_SCAN``).
_MAX_CELLS = 64


def _run(protocol: str, batch: ChannelBatch, config: ScenarioConfig) -> list:
    """The entry's result for each cell of ``batch``, None where it is
    infeasible: a block that raises InfeasibleError runs again cell by cell."""
    try:
        return OPTIMIZERS[protocol](batch, config)
    except InfeasibleError:
        if len(batch) == 1:
            return [None]
        return [_run(protocol, batch[k:k + 1], config)[0] for k in range(len(batch))]


def _block_cells(config: ScenarioConfig, positions, batch: ChannelBatch) -> List[MapCell]:
    """The cell of each (xr, yr) of ``positions``, whose channels ``batch``
    holds: each enabled protocol's entry runs once on the whole batch, and
    only the cells where it is infeasible score 0.0."""
    results = {p: _run(p, batch, config) for p in PROTOCOL_ORDER if p in config.protocols}
    cells = []
    for k, (xr, yr) in enumerate(positions):
        found = {p: out[k] for p, out in results.items()}
        points = {p: r[1] for p, r in found.items() if r is not None}
        rates = {p: 0.0 if r is None else r[0].sum for p, r in found.items()}
        # rates follows PROTOCOL_ORDER, and max keeps the first of equal maxima.
        cells.append(MapCell(
            xr=xr, yr=yr, rates=rates, winner=max(rates, key=rates.get),
            bl_scenario=points.get("ef_bl", {}).get("scenario", ""),
            af_gain=points.get("af", {}).get("gain", 0.0),
            infeasible=tuple(p for p, r in found.items() if r is None),
        ))
    return cells


def _cells(config: ScenarioConfig, positions) -> List[MapCell]:
    return [cell for s in range(0, len(positions), _MAX_CELLS)
            for cell in _block_cells(config, positions[s:s + _MAX_CELLS],
                                     config.channel_batch(positions[s:s + _MAX_CELLS]))]


def evaluate_cell(config: ScenarioConfig, xr: float, yr: float) -> MapCell:
    """Sum rate of every enabled protocol with the relay at (xr, yr)*d0: a
    block of one.

    An infeasible protocol scores 0.0 and is listed in ``infeasible``.
    """
    return _cells(config, [(xr, yr)])[0]


def dominance_map(config: ScenarioConfig) -> List[MapCell]:
    """Protocol comparison over the whole relay-position grid, row-major.

    Positions are evaluated in blocks of at most ``_MAX_CELLS`` (64) cells,
    each protocol once per block on a ``ChannelBatch``.  Squares and powers
    of a cell's values are formed in Python floats, as for one channel, and
    all else elementwise, so the map has the same bytes as cell by cell.
    """
    return _cells(config, [(float(x), float(y))
                           for y in config.grid_y() for x in config.grid_x()])


def sum_rate_slice(config: ScenarioConfig, y_fixed: float) -> List[MapCell]:
    """One-dimensional sweep along x_r at fixed y_r (both in units of d0)."""
    return _cells(config, [(float(x), y_fixed) for x in config.grid_x()])


def sl_vs_bl_map(config: ScenarioConfig) -> List[SlCell]:
    """Single- vs bi-level EF comparison per cell, with scenario frontier flags.

    The EF-BL/EF-SL dominance map, so ties go to bi-level.  A cell is on the
    frontier when its scenario tag differs from the cell to its left or the
    cell below.
    """
    cells = dominance_map(replace(config, protocols=("ef_bl", "ef_sl")))
    nx = len(config.grid_x())
    out: List[SlCell] = []
    for k, c in enumerate(cells):
        frontier = (k % nx > 0 and cells[k - 1].bl_scenario != c.bl_scenario) or (
            k >= nx and cells[k - nx].bl_scenario != c.bl_scenario
        )
        out.append(SlCell(c.xr, c.yr, c.rates["ef_sl"], c.rates["ef_bl"],
                          c.bl_scenario, "bl" if c.winner == "ef_bl" else "sl",
                          frontier))
    return out


# -- CSV emission -------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


MAP_HEADER = "xr,yr,af,df,ef_bl,ef_sl,winner,bl_scenario"


def map_to_csv(cells: Sequence[MapCell]) -> str:
    buf = io.StringIO()
    buf.write(MAP_HEADER + "\n")
    for c in cells:
        fields = [_fmt(c.xr), _fmt(c.yr)]
        fields += [_fmt(c.rates.get(p, 0.0)) for p in PROTOCOL_ORDER]
        fields += [c.winner, c.bl_scenario]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()


SLMAP_HEADER = "xr,yr,ef_sl,ef_bl,bl_scenario,winner,frontier"


def slmap_to_csv(cells: Sequence[SlCell]) -> str:
    buf = io.StringIO()
    buf.write(SLMAP_HEADER + "\n")
    for c in cells:
        fields = [_fmt(c.xr), _fmt(c.yr), _fmt(c.sl_sum), _fmt(c.bl_sum),
                  c.bl_scenario, c.winner, "1" if c.frontier else "0"]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()
