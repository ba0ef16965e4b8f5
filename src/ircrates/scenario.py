"""Relay-placement experiments: configs, dominance maps, slices, CSV output.

A scenario config bundles the node geometry, powers/noises, the sweep grid
(in units of the reference distance d0) and the per-protocol optimizer
settings.  Map runners recompute the channel for every relay position on the
grid and compare protocol sum rates, a block of positions at a time; all
output is deterministic and rows are emitted in row-major grid order (y
outer, x inner, both ascending).
"""

from __future__ import annotations

import contextvars
import json
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Tuple

import numpy as np

from . import af, df, ef
from .channel import (_LAYOUT_FIELDS, _POSITIVE, _REAL, ChannelBatch, ChannelInstance, NodeLayout,
                      _check_fields, layout_to_batch, layout_to_channel, nu_simplex)
from .errors import ConfigError, InfeasibleError

__all__ = [
    "ScenarioConfig",
    "MapCell",
    "SlCell",
    "CellTable",
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


_MAX_AXIS_POINTS = 10**6
# The largest optimizer grid G.  A map block stays within ``_BLOCK_ENTRIES``
# at any G, so G bounds one cell's work: at 125, EF-BL's 7,875 relay splits
# and the optimal DF scan's 7,875 splits by 15,625 tau points.
_MAX_GRID = 125

UNIFORM_NU = (0.5, 0.5)
_SCENARIO_TAGS = np.array([tag.value for tag in ef.BiScenario])  # by BiScenario index
# The relay power split each pa_policy fixes; None searches the nu simplex.
PA_SPLITS = {"uniform": UNIFORM_NU, "optimal": None}

_GRID = ((lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
          and 2 <= v <= _MAX_GRID, f"must be an integer from 2 to {_MAX_GRID}"),)
_PROTOCOLS = ((lambda v: isinstance(v, (list, tuple)), "must be a list"),
              (lambda v: v and all(p in PROTOCOL_ORDER for p in v),
               f"must be a non-empty subset of {PROTOCOL_ORDER}"))


def _one_of(choices) -> tuple:
    return ((lambda v: not isinstance(v, bool) and v in choices,
             "must be " + " or ".join(map(repr, choices))),)


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
    (None, False, {"protocols": _PROTOCOLS, "r0_exponent": _one_of(ef.R0_EXPONENTS)}),
)


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
        for _, _, checks in _SECTIONS:
            _check_fields(self, checks)
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
        """``channel_at`` of every (xr, yr) row of the (n, 2) array ``positions``, as one batch."""
        with np.errstate(over="ignore"):  # an inf coordinate is refused as by ``channel_at``
            relays = np.asarray(positions, dtype=float) * self.layout.d0
        return layout_to_batch(self.layout, relays, self.P1, self.P2, self.Pr, self.N1, self.N2,
                               self.Nr)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        def values(obj, names) -> dict:
            return {name: list(v) if isinstance(v, tuple) else v
                    for name in names for v in [getattr(obj, name)]}

        out = {"layout": values(self.layout, _LAYOUT_FIELDS)}
        for section, _, checks in _SECTIONS:
            row = values(self, checks)
            out.update(row if section is None else {section: row})
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
            given = {name: lay[name] for name in _LAYOUT_FIELDS}
        except KeyError as exc:
            raise ConfigError(f"missing config field 'layout.{exc.args[0]}'") from None
        layout = NodeLayout(**given)
        fields = {}  # retired keys are not read
        for name, required, checks in _SECTIONS:
            source = data if name is None else section(name, None if required else {})
            missing = [key for key in checks if key not in source]
            if required and missing:
                raise ConfigError(f"missing config field '{name}.{missing[0]}'")
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


class MapCell(NamedTuple):
    """One ``dominance_map`` or ``sum_rate_slice`` cell, as its ``CellTable`` builds it."""
    xr: float  # units of d0
    yr: float
    rates: Dict[str, float]  # sum rate per protocol (0.0 when infeasible)
    winner: str
    bl_scenario: str
    af_gain: float
    infeasible: Tuple[str, ...] = ()


class SlCell(NamedTuple):
    """One ``sl_vs_bl_map`` cell, built by its ``CellTable``: SLMAP_HEADER's columns, in order."""
    xr: float
    yr: float
    sl_sum: float
    bl_sum: float
    bl_scenario: str
    winner: str
    frontier: bool = False


class CellTable(Sequence):
    """A map's cells as a read-only sequence of rows, kept as ``columns``: by field name (a
    CSV column's as in its header), a list of one entry per cell.  ``t[k]`` builds cell k,
    ``row(*entries)``; ``t[i:j]`` is a table, and ``t == s`` compares rows with any sequence."""

    def __init__(self, row, columns: dict):
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(self.columns["xr"])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return CellTable(self.row, {name: c[k] for name, c in self.columns.items()})
        return self.row(*(c[k] for c in self.columns.values()))

    def __iter__(self):
        return map(self.row, *self.columns.values())

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


# Per-protocol optimisers.  An entry takes a ChannelBatch (a block of at most
# _block_size positions) and returns columns over its cells: (R1, R2, point),
# the point giving each field of the chosen operating point, in display order,
# a column (a pair, a tuple of two).  The kernels build their coefficients and
# tables once per block, elementwise by the float operations of one channel
# (|h|^2 as ``channel._square``), so a cell's result does not depend on its
# block.  Kernels are looked up on their modules at call time, so a swapped-in
# kernel takes effect.  A kernel marks a cell it refuses with NaN rates
# (``_refusal`` says why); a map scores EF-SL's 0, refuses others.


def _optimize_af(batch: ChannelBatch, config: ScenarioConfig):
    gain, r1, r2 = af.af_sum_rate_gain_batch(batch)
    return r1, r2, {"gain": gain}


def _optimize_df(batch: ChannelBatch, config: ScenarioConfig):
    t1, t2, n1, n2, r1, r2 = df.df_sum_rate_search_batch(
        batch, config.df_grid, PA_SPLITS[config.pa_policy])
    return r1, r2, {"tau": (t1, t2), "nu": (n1, n2)}


def _optimize_ef_bl(batch: ChannelBatch, config: ScenarioConfig):
    n1, n2, scenario, w1, w2, r1, r2 = ef.ef_bi_sum_rate_search_batch(
        batch, config.ef_grid, PA_SPLITS[config.pa_policy])
    return r1, r2, {"nu": (n1, n2), "nwz": (w1, w2), "scenario": _SCENARIO_TAGS[scenario]}


def _optimize_ef_sl(batch: ChannelBatch, config: ScenarioConfig):
    nwz, r1, r2 = ef.ef_sl_batch(batch, config.r0_exponent)
    return r1, r2, {"nwz": nwz}


OPTIMIZERS = {"af": _optimize_af, "df": _optimize_df,
              "ef_bl": _optimize_ef_bl, "ef_sl": _optimize_ef_sl}

# Array entries per block: EF-BL's (cells, splits) array at 64 cells of the
# default optimal policy's 861 splits (G = 41); DF's tau tables (cells, G,
# relay split values) are held to it too.
_BLOCK_ENTRIES = 64 * 861


def _block_size(config: ScenarioConfig) -> int:
    """Relay positions evaluated at once: ``_BLOCK_ENTRIES`` over the widest row
    one cell adds in the protocols that run, DF's tau tables (G by the relay
    split values) or EF-BL's splits, but at least AF's 6 x 6 companion matrix."""
    split = PA_SPLITS[config.pa_policy]
    rows = {"df": config.df_grid * len(nu_simplex(config.df_grid, split)[0]),
            "ef_bl": len(nu_simplex(config.ef_grid, split)[1])}
    return _BLOCK_ENTRIES // max(36, *(rows.get(p, 0) for p in config.protocols))


# A block of at least this many cells, with AF enabled, runs AF's entry on a
# one-worker executor, beside DF and EF in the calling thread, when the process
# may use more than one CPU.  AF's time is mostly ``np.linalg.eigvals``, LAPACK work
# that releases the GIL.  Measured on 2 vCPUs, uniform blocks of the default
# map: the thread paid in 21 of 120 runs at 128 cells, 83 of 120 at 256 (2-6 %
# faster) and 119 of 120 at 384; a 9-cell optimal block ran 1.4 ms slower with
# it, and the 957-cell block 4 % slower when pinned to one CPU.
_OVERLAP_CELLS = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _entry_runs(config: ScenarioConfig, protocols, batch: ChannelBatch) -> dict:
    """``OPTIMIZERS[p](batch, config)`` of each of ``protocols``, by protocol.  AF runs
    on a one-worker executor when the block is large enough (``_OVERLAP_CELLS``) and more
    than one CPU is usable, inside a copy of the caller's context (numpy's ``errstate``
    is a context variable); an exception AF's entry raises there is raised here."""
    if not ("af" in protocols and len(batch) >= _OVERLAP_CELLS and _usable_cpus() > 1):
        return {p: OPTIMIZERS[p](batch, config) for p in protocols}
    from concurrent.futures import ThreadPoolExecutor  # lazily: it imports logging, ~5 ms

    with ThreadPoolExecutor(1) as pool:
        af_run = pool.submit(contextvars.copy_context().run, OPTIMIZERS["af"], batch, config)
        try:
            runs = {p: OPTIMIZERS[p](batch, config) for p in protocols if p != "af"}
        finally:
            af_result = af_run.result()
    return {**runs, "af": af_result}


def _refusal(protocol: str, point: dict, k: int) -> Exception:
    """Why cell ``k`` of ``protocol``'s columns (``point``) has a NaN rate, as one channel's
    call says: EF-SL's zero bottleneck, EF-BL's refused bound, AF's overflow, or the NaN."""
    if protocol == "ef_bl":
        try:
            ef.EfBiParams(*(c[k].item() for c in (*point["nu"], *point["nwz"])))
        except ValueError as exc:
            return exc
    return {"ef_sl": InfeasibleError(ef.ZERO_BOTTLENECK), "af": ValueError(af._OVERFLOW)}.get(
        protocol, ValueError(f"{protocol} rate is NaN"))


def _block_columns(config: ScenarioConfig, positions, batch: ChannelBatch):
    """Each enabled protocol's entry run once on ``batch``, the channels of ``positions``
    (``_entry_runs``): the protocols in order, their sum rates (protocols by cells, EF-SL's
    NaN scored 0.0), where EF-SL is infeasible, and each cell's AF gain and EF-BL scenario
    tag (0.0 and "" when not run).  Another protocol's NaN rate is refused at the first
    such cell in map order, naming the relay position and the ``_refusal``."""
    protocols, n = [p for p in PROTOCOL_ORDER if p in config.protocols], len(positions)
    runs = _entry_runs(config, protocols, batch)  # (R1, R2, point) each
    sums = np.array([runs[p][0] + runs[p][1] for p in protocols])
    nan = np.isnan(sums)
    fault = nan & (np.array(protocols) != "ef_sl")[:, None]  # EF-SL's zero bottleneck aside
    if fault.any():
        k = fault.any(axis=0).argmax()
        p = protocols[fault[:, k].argmax()]
        raise ValueError(f"{p} rate is NaN with the relay at {tuple(positions[k].tolist())} d0: "
                         f"{_refusal(p, runs[p][2], k)}")
    sums[nan] = 0.0
    gains = runs["af"][2]["gain"] if "af" in runs else np.zeros(n)
    tags = runs["ef_bl"][2]["scenario"] if "ef_bl" in runs else np.full(n, "")
    return protocols, sums, nan.any(axis=0), gains, tags


def _columns(config: ScenarioConfig, positions):
    """``positions``, then the ``_block_columns`` of its ``_block_size`` slices, joined."""
    size = _block_size(config)
    parts = (positions[s:s + size] for s in range(0, len(positions), size))
    protocols, *blocks = zip(*(_block_columns(config, p, config.channel_batch(p)) for p in parts))
    return (positions, protocols[0], *(np.concatenate(c, axis=-1) for c in blocks))


def _map_table(positions, protocols, sums, infeasible, gains, tags) -> CellTable:
    """The table of ``_columns``: a protocol not run sums to 0.0, the first largest sum wins."""
    def row(xr, yr, af_sum, df_sum, bl_sum, sl_sum, winner, tag, gain, infeasible):
        rates = dict(zip(PROTOCOL_ORDER, (af_sum, df_sum, bl_sum, sl_sum)))
        return MapCell(xr, yr, {p: rates[p] for p in protocols}, winner, tag, gain,
                       ("ef_sl",) if infeasible else ())

    run, zeros = dict(zip(protocols, sums.tolist())), [0.0] * len(positions)
    winners = list(map(protocols.__getitem__, sums.argmax(axis=0).tolist()))
    return CellTable(row, dict(zip((*MAP_HEADER.split(","), "af_gain", "infeasible"), (
        *positions.T.tolist(), *(run.get(p, zeros) for p in PROTOCOL_ORDER), winners,
        tags.tolist(), gains.tolist(), infeasible.tolist()))))


def evaluate_cell(config: ScenarioConfig, xr: float, yr: float) -> MapCell:
    """Sum rate of every enabled protocol with the relay at (xr, yr)*d0: a block of
    one.  An infeasible protocol scores 0.0 and is listed in ``infeasible``."""
    return _map_table(*_columns(config, np.array([(xr, yr)], dtype=float)))[0]


def _grid(config: ScenarioConfig) -> np.ndarray:
    """The map's relay positions (xr, yr) as rows, row-major: x varies fastest."""
    return np.stack(np.meshgrid(config.grid_x(), config.grid_y()), axis=-1).reshape(-1, 2)


def dominance_map(config: ScenarioConfig) -> CellTable:
    """Protocol comparison over the whole relay-position grid, row-major: a
    ``CellTable`` of ``MapCell`` rows backed by the blocks' joined columns.

    Positions are evaluated in blocks of ``_block_size`` cells (at the default
    grids 1,344, or 1,530 for EF alone; 32 and 64 under the optimal policy),
    each protocol once per block on a ``ChannelBatch``.  A block of at least
    ``_OVERLAP_CELLS`` cells runs AF on a one-worker executor beside the other
    protocols when more than one CPU is usable (``_entry_runs``), with the
    columns of running them in turn; a refusal names the first refused cell in
    map order.  Squares and path-loss gains are formed as for one channel
    (``channel._square``, ``_path_losses``), and all else is elementwise, so
    the map has the same bytes as cell by cell.
    """
    return _map_table(*_columns(config, _grid(config)))


def sum_rate_slice(config: ScenarioConfig, y_fixed: float) -> CellTable:
    """``dominance_map``'s table along x_r at fixed y_r (both in units of d0)."""
    positions = np.column_stack(np.broadcast_arrays(config.grid_x(), y_fixed))
    return _map_table(*_columns(config, positions))


def sl_vs_bl_map(config: ScenarioConfig) -> CellTable:
    """Single- vs bi-level EF comparison per cell, with scenario frontier flags:
    a ``CellTable`` of ``SlCell`` rows, read from the EF-BL and EF-SL block
    columns as in the EF-only dominance map.  Ties go to bi-level.  A cell is on
    the frontier when its scenario tag differs from the cell to its left or below.
    """
    config = replace(config, protocols=("ef_bl", "ef_sl"))
    positions, _, (bl, sl), _, _, tags = _columns(config, _grid(config))
    grid = tags.reshape(len(config.grid_y()), -1)
    frontier = np.zeros(grid.shape, dtype=bool)
    frontier[:, 1:] = grid[:, 1:] != grid[:, :-1]
    frontier[1:] |= grid[1:] != grid[:-1]
    return CellTable(SlCell, dict(zip(SLMAP_HEADER.split(","), (
        *positions.T.tolist(), sl.tolist(), bl.tolist(), tags.tolist(),
        np.where(bl >= sl, "bl", "sl").tolist(), frontier.ravel().tolist()))))


# -- CSV emission -------------------------------------------------------------


MAP_HEADER = "xr,yr,af,df,ef_bl,ef_sl,winner,bl_scenario"
SLMAP_HEADER = "xr,yr,ef_sl,ef_bl,bl_scenario,winner,frontier"


def _to_csv(header: str, row: str, cells: CellTable) -> str:
    """``header``, then the line ``row % v`` for each cell's values ``v`` in the columns of
    ``cells`` that ``header`` names, in one pass.  A ``%.12g`` field writes a float as
    ``format(x, ".12g")`` does, byte for byte, -0.0, subnormals, inf and nan included."""
    columns = map(cells.columns.__getitem__, header.split(","))
    return header + "\n" + "".join(map(row.__mod__, zip(*columns)))


def map_to_csv(cells: CellTable) -> str:
    return _to_csv(MAP_HEADER, "%.12g," * 6 + "%s,%s\n", cells)


def slmap_to_csv(cells: CellTable) -> str:
    return _to_csv(SLMAP_HEADER, "%.12g,%.12g,%.12g,%.12g,%s,%s,%d\n", cells)
