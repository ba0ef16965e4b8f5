"""Relay-placement experiments: configs, dominance maps, slices, CSV output.

A scenario config bundles the node geometry, powers/noises, the sweep grid
(in units of the reference distance d0) and the per-protocol optimizer
settings.  Map runners recompute the channel for every relay position on the
grid and compare protocol sum rates; all output is deterministic and rows
are emitted in row-major grid order (y outer, x inner, both ascending).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import af, df, ef
from .channel import ChannelInstance, NodeLayout, layout_to_channel
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
    "parse_map_csv",
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
        if self.pa_policy not in ("uniform", "optimal"):
            raise ConfigError(f"pa_policy must be 'uniform' or 'optimal', got {self.pa_policy!r}")
        if self.r0_exponent not in (1, 2):
            raise ConfigError(f"r0_exponent must be 1 or 2, got {self.r0_exponent!r}")
        for name in ("x_min", "x_max", "y_min", "y_max", "resolution"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if self.resolution <= 0:
            raise ConfigError(f"resolution must be > 0, got {self.resolution!r}")
        if len(self.grid_x()) < 2 or len(self.grid_y()) < 2:
            raise ConfigError("sweep grid must have at least 2 points per axis")
        bad = [p for p in self.protocols if p not in PROTOCOL_ORDER]
        if bad:
            raise ConfigError(f"protocols: unknown entries {bad}")
        for name in ("P1", "P2", "Pr", "N1", "N2", "Nr"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")

    def grid_x(self) -> np.ndarray:
        n = int(round((self.x_max - self.x_min) / self.resolution)) + 1
        return np.linspace(self.x_min, self.x_max, n)

    def grid_y(self) -> np.ndarray:
        n = int(round((self.y_max - self.y_min) / self.resolution)) + 1
        return np.linspace(self.y_min, self.y_max, n)

    def channel_at(self, xr_d0: float, yr_d0: float) -> ChannelInstance:
        """Channel with the relay at (xr, yr) expressed in units of d0."""
        layout = self.layout.with_relay_at(xr_d0 * self.layout.d0, yr_d0 * self.layout.d0)
        return layout_to_channel(
            layout, self.P1, self.P2, self.Pr, self.N1, self.N2, self.Nr
        )

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        lay = self.layout
        return {
            "layout": {
                "s1": list(lay.s1), "s2": list(lay.s2),
                "d1": list(lay.d1), "d2": list(lay.d2),
                "relay": list(lay.relay),
                "d0": lay.d0, "gamma": lay.gamma, "epsilon": lay.epsilon,
            },
            "powers": {"P1": self.P1, "P2": self.P2, "Pr": self.Pr},
            "noises": {"N1": self.N1, "N2": self.N2, "Nr": self.Nr},
            "sweep": {
                "x_min": self.x_min, "x_max": self.x_max,
                "y_min": self.y_min, "y_max": self.y_max,
                "resolution": self.resolution,
            },
            "pa_policy": self.pa_policy,
            "optimizer": {"df_grid": self.df_grid, "ef_grid": self.ef_grid},
            "protocols": list(self.protocols),
            "r0_exponent": self.r0_exponent,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        def section(name) -> dict:
            try:
                return data[name]
            except KeyError:
                raise ConfigError(f"missing config section '{name}'") from None

        lay = section("layout")
        try:
            layout = NodeLayout(
                s1=tuple(lay["s1"]), s2=tuple(lay["s2"]),
                d1=tuple(lay["d1"]), d2=tuple(lay["d2"]),
                relay=tuple(lay["relay"]),
                d0=lay["d0"], gamma=lay["gamma"], epsilon=lay["epsilon"],
            )
        except KeyError as exc:
            raise ConfigError(f"layout: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"layout: {exc}") from None
        powers, noises = section("powers"), section("noises")
        sweep = data.get("sweep", {})
        opt = data.get("optimizer", {})
        try:
            return cls(
                layout=layout,
                P1=powers["P1"], P2=powers["P2"], Pr=powers["Pr"],
                N1=noises["N1"], N2=noises["N2"], Nr=noises["Nr"],
                x_min=sweep.get("x_min", -4.0), x_max=sweep.get("x_max", 4.0),
                y_min=sweep.get("y_min", -3.0), y_max=sweep.get("y_max", 4.0),
                resolution=sweep.get("resolution", 0.25),
                pa_policy=data.get("pa_policy", "uniform"),
                df_grid=opt.get("df_grid", 41),
                ef_grid=opt.get("ef_grid", 41),
                protocols=tuple(data.get("protocols", PROTOCOL_ORDER)),
                r0_exponent=data.get("r0_exponent", 2),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field {exc}") from None


def default_config(symmetric: bool = True) -> ScenarioConfig:
    """The frozen default setup: d0 = 5, gamma = 2, unit noises, Pr = 10.

    ``symmetric`` selects P1 = P2 = 10; otherwise P1 = 3, P2 = 10.
    """
    layout = NodeLayout(relay=(0.0, 0.0, 0.1), d0=5.0, gamma=2.0, epsilon=0.1,
                        **DEFAULT_NODES)
    return ScenarioConfig(layout=layout, P1=10.0 if symmetric else 3.0)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return ScenarioConfig.from_dict(data)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


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


def _uniform_nu() -> Tuple[float, float]:
    return (0.5, 0.5)


def evaluate_cell(config: ScenarioConfig, xr: float, yr: float) -> MapCell:
    """Sum rate of every enabled protocol with the relay at (xr, yr)*d0."""
    channel = config.channel_at(xr, yr)
    rates: Dict[str, float] = {}
    infeasible: List[str] = []
    af_gain = 0.0
    bl_tag = ""

    if "af" in config.protocols:
        af_gain, pair = af.af_sum_rate_gain(channel)
        rates["af"] = pair.sum
    if "df" in config.protocols:
        nu = _uniform_nu() if config.pa_policy == "uniform" else None
        _, pair = df.df_sum_rate_search(channel, grid_points=config.df_grid, nu=nu)
        rates["df"] = pair.sum
    if "ef_bl" in config.protocols:
        try:
            if config.pa_policy == "uniform":
                _, scenario, pair = ef.ef_bi_eval(channel, *_uniform_nu())
            else:
                _, scenario, pair = ef.ef_bi_sum_rate_search(
                    channel, grid_points=config.ef_grid
                )
            rates["ef_bl"] = pair.sum
            bl_tag = scenario.value
        except InfeasibleError:
            rates["ef_bl"] = 0.0
            infeasible.append("ef_bl")
    if "ef_sl" in config.protocols:
        try:
            nwz = ef.ef_sl_min_noise(channel, config.r0_exponent)
            rates["ef_sl"] = ef.ef_sl_rate(channel, nwz, config.r0_exponent).sum
        except InfeasibleError:
            rates["ef_sl"] = 0.0
            infeasible.append("ef_sl")

    winner = max(
        (p for p in PROTOCOL_ORDER if p in rates),
        key=lambda p: (rates[p], -PROTOCOL_ORDER.index(p)),
    )
    return MapCell(
        xr=xr, yr=yr, rates=rates, winner=winner,
        bl_scenario=bl_tag, af_gain=af_gain, infeasible=tuple(infeasible),
    )


def dominance_map(config: ScenarioConfig) -> List[MapCell]:
    """Protocol comparison over the whole relay-position grid, row-major."""
    return [
        evaluate_cell(config, float(x), float(y))
        for y in config.grid_y()
        for x in config.grid_x()
    ]


def sum_rate_slice(config: ScenarioConfig, y_fixed: float) -> List[MapCell]:
    """One-dimensional sweep along x_r at fixed y_r (both in units of d0)."""
    return [evaluate_cell(config, float(x), y_fixed) for x in config.grid_x()]


def sl_vs_bl_map(config: ScenarioConfig) -> List[SlCell]:
    """Single- vs bi-level EF comparison per cell, with scenario frontier flags.

    A cell is on the frontier when its scenario tag differs from the cell to
    its left or the cell below.
    """
    xs, ys = config.grid_x(), config.grid_y()
    grid: List[List[SlCell]] = []
    for y in ys:
        row = []
        for x in xs:
            channel = config.channel_at(float(x), float(y))
            try:
                nwz = ef.ef_sl_min_noise(channel, config.r0_exponent)
                sl_sum = ef.ef_sl_rate(channel, nwz, config.r0_exponent).sum
            except InfeasibleError:
                sl_sum = 0.0
            if config.pa_policy == "uniform":
                _, scenario, pair = ef.ef_bi_eval(channel, *_uniform_nu())
            else:
                _, scenario, pair = ef.ef_bi_sum_rate_search(
                    channel, grid_points=config.ef_grid
                )
            # Tie-break follows the fixed protocol order (EF-BL before EF-SL).
            winner = "bl" if pair.sum >= sl_sum else "sl"
            row.append(SlCell(float(x), float(y), sl_sum, pair.sum,
                              scenario.value, winner))
        grid.append(row)
    out: List[SlCell] = []
    for iy, row in enumerate(grid):
        for ix, cell in enumerate(row):
            frontier = (ix > 0 and row[ix - 1].bl_scenario != cell.bl_scenario) or (
                iy > 0 and grid[iy - 1][ix].bl_scenario != cell.bl_scenario
            )
            out.append(replace(cell, frontier=frontier))
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


def parse_map_csv(text: str) -> List[MapCell]:
    lines = text.strip().split("\n")
    if not lines or lines[0] != MAP_HEADER:
        raise ValueError(f"unexpected CSV header {lines[0] if lines else ''!r}")
    cells = []
    for line in lines[1:]:
        parts = line.split(",")
        xr, yr = float(parts[0]), float(parts[1])
        rates = {p: float(v) for p, v in zip(PROTOCOL_ORDER, parts[2:6])}
        cells.append(MapCell(xr=xr, yr=yr, rates=rates, winner=parts[6],
                             bl_scenario=parts[7], af_gain=float("nan")))
    return cells


SLMAP_HEADER = "xr,yr,ef_sl,ef_bl,bl_scenario,winner,frontier"


def slmap_to_csv(cells: Sequence[SlCell]) -> str:
    buf = io.StringIO()
    buf.write(SLMAP_HEADER + "\n")
    for c in cells:
        buf.write(
            ",".join(
                [_fmt(c.xr), _fmt(c.yr), _fmt(c.sl_sum), _fmt(c.bl_sum),
                 c.bl_scenario, c.winner, "1" if c.frontier else "0"]
            )
            + "\n"
        )
    return buf.getvalue()
