"""Output checks and outcome histograms of the benchmark, run untimed.

Each check returns ``{check name: (attempted, failed)}``.  The oracles are
written here, apart from the code under test, except where a check
recomputes a value through the documented public route (EF-SL from
``ef_sl_min_noise``).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ircrates import af, discrete, ef, scenario
from ircrates.errors import InfeasibleError

SAMPLE_CELLS = 12  # seeded sample for the per-cell oracles
AF_GRID = 20_001  # brute-force points over [0, a_sat]
AF_TOL = 1e-9  # bits the optimum may fall below the brute-force maximum
ENTROPY_TOL = 1e-12  # bits, as in acceptance criterion 7


def _tally(results) -> tuple:
    results = list(results)
    return len(results), sum(1 for ok in results if not ok)


def _grid_positions(config):
    """Relay positions in the row-major order every map must follow."""
    return [(float(x), float(y)) for y in config.grid_y() for x in config.grid_x()]


def _sample(n: int, seed: int):
    k = min(SAMPLE_CELLS, n)
    return np.random.default_rng(seed).choice(n, size=k, replace=False).tolist()


def _af_brute_force(ch) -> float:
    """Best AF sum rate on a dense gain grid, from the SINR formula itself."""
    relay_rx = abs(ch.h1r) ** 2 * ch.P1 + abs(ch.h2r) ** 2 * ch.P2 + ch.Nr
    a = np.linspace(0.0, math.sqrt(ch.Pr / relay_rx), AF_GRID)
    total = np.zeros_like(a)
    for h_d, h_c, h_u, h_w, h_down, p_i, p_j, n_i in (
        (ch.h11, ch.h21, ch.h1r, ch.h2r, ch.hr1, ch.P1, ch.P2, ch.N1),
        (ch.h22, ch.h12, ch.h2r, ch.h1r, ch.hr2, ch.P2, ch.P1, ch.N2),
    ):
        signal = np.abs(a * h_u * h_down + h_d) ** 2 * p_i
        interference = (np.abs(a * h_w * h_down + h_c) ** 2 * p_j
                        + a**2 * abs(h_down) ** 2 * ch.Nr + n_i)
        total += np.log2(1.0 + signal / interference)
    return float(total.max())


def _ef_sl_sum(config, ch) -> float:
    try:
        nwz = ef.ef_sl_min_noise(ch, config.r0_exponent)
        return ef.ef_sl_rate(ch, nwz, config.r0_exponent).sum
    except InfeasibleError:
        return 0.0


def _csv_rows(csv: str, header: str, n: int):
    lines = csv.split("\n")
    ok = lines[0] == header and lines[-1] == "" and len(lines) == n + 2
    return ok, [line.split(",") for line in lines[1:-1]]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def check_map(config, output, seed: int) -> dict:
    cells, csv = output
    positions = _grid_positions(config)
    order = scenario.PROTOCOL_ORDER

    def cell_ok(cell, position):
        rates = cell.rates
        winner = max((p for p in order if p in rates),
                     key=lambda p: (rates[p], -order.index(p)))
        return ((cell.xr, cell.yr) == position
                and set(rates) == set(config.protocols)
                and all(math.isfinite(r) and r >= 0.0 for r in rates.values())
                and cell.winner == winner)

    csv_ok, rows = _csv_rows(csv, scenario.MAP_HEADER, len(cells))
    csv_ok = csv_ok and all(
        row == [_fmt(c.xr), _fmt(c.yr)] + [_fmt(c.rates.get(p, 0.0)) for p in order]
        + [c.winner, c.bl_scenario]
        for row, c in zip(rows, cells))
    sample = _sample(len(cells), seed) if len(cells) == len(positions) else []
    channels = {k: config.channel_at(*positions[k]) for k in sample}
    return {
        "map.row_count": _tally([len(cells) == len(positions)]),
        "map.cell_order_and_winner": _tally(
            cell_ok(c, p) for c, p in zip(cells, positions)),
        "map.csv": _tally([csv_ok]),
        "map.af_vs_brute_force": _tally(
            cells[k].rates["af"] >= _af_brute_force(channels[k]) - AF_TOL
            for k in sample if "af" in config.protocols),
        "map.ef_sl_recomputed": _tally(
            cells[k].rates["ef_sl"] == _ef_sl_sum(config, channels[k])
            for k in sample if "ef_sl" in config.protocols),
    }


def check_slmap(config, output, seed: int) -> dict:
    cells, csv = output
    positions = _grid_positions(config)
    nx = len(config.grid_x())

    def cell_ok(k):
        cell = cells[k]
        left = cells[k - 1] if k % nx else None
        below = cells[k - nx] if k >= nx else None
        frontier = any(n is not None and n.bl_scenario != cell.bl_scenario
                       for n in (left, below))
        return ((cell.xr, cell.yr) == positions[k]
                and cell.winner == ("bl" if cell.bl_sum >= cell.sl_sum else "sl")
                and cell.frontier == frontier)

    csv_ok, rows = _csv_rows(csv, scenario.SLMAP_HEADER, len(cells))
    csv_ok = csv_ok and all(
        row == [_fmt(c.xr), _fmt(c.yr), _fmt(c.sl_sum), _fmt(c.bl_sum),
                c.bl_scenario, c.winner, "1" if c.frontier else "0"]
        for row, c in zip(rows, cells))
    count_ok = len(cells) == len(positions)
    return {
        "slmap.row_count": _tally([count_ok]),
        "slmap.cell_order_winner_frontier": _tally(
            cell_ok(k) for k in range(len(cells)) if count_ok),
        "slmap.csv": _tally([csv_ok]),
        "slmap.ef_sl_recomputed": _tally(
            cells[k].sl_sum == _ef_sl_sum(config, config.channel_at(*positions[k]))
            for k in (_sample(len(cells), seed) if count_ok else [])),
    }


def _entropy(table: np.ndarray, axes) -> float:
    drop = tuple(i for i in range(table.ndim) if i not in axes)
    p = table.sum(axis=drop).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def check_discrete(paths, output) -> dict:
    """Rate caps against the entropy sums of acceptance criterion 7:
    R_i = H(X_i, C) + H(Y_i, Yh, C) - H(X_i, Y_i, Yh, C) - H(C), with
    C = U_i, Yh = Yh_i (bi level) or C = Xr, Yh = Yh (single level)."""

    def ok(path, bounds):
        fact = discrete.load_factorization(path)
        pmf = fact.joint()
        bi = isinstance(fact, discrete.BiLevelFactorization)
        for user, rate in ((1, bounds[0]), (2, bounds[1])):
            x, y = f"x{user}", f"y{user}"
            cond, yh = (f"u{user}", f"yh{user}") if bi else ("xr", "yh")
            h = [_entropy(pmf.table, pmf.axes(g))
                 for g in ((x, cond), (y, yh, cond), (x, y, yh, cond), (cond,))]
            if not abs(rate - (h[0] + h[1] - h[2] - h[3])) <= ENTROPY_TOL:
                return False
        return True

    return {
        "discrete.count": _tally([len(output) == len(paths)]),
        "discrete.entropy_identity": _tally(
            ok(p, b) for p, b in zip(paths, output)),
    }


def check(kind: str, inputs, output, seed: int) -> dict:
    if kind == "map":
        return check_map(inputs, output, seed)
    if kind == "slmap":
        return check_slmap(inputs, output, seed)
    return check_discrete(inputs, output)


def outcomes(kind: str, inputs, output) -> dict:
    """Outcome histograms from the returned cells; all 0 without cells."""
    cells = [] if kind == "discrete" else output[0]
    tags = Counter(c.bl_scenario for c in cells)
    winners = Counter(c.winner for c in cells)
    if kind == "slmap":
        winners = Counter({"ef_bl": winners["bl"], "ef_sl": winners["sl"]})
    out = {f"ef.scenario.{t}": tags[t] for t in ("d1_better", "d2_better", "neither")}
    out.update({f"scenario.winner.{p}": winners[p] for p in scenario.PROTOCOL_ORDER})
    interior = 0
    if kind == "map" and "af" in inputs.protocols:
        interior = sum(
            0.0 < c.af_gain < af.saturation_gain(inputs.channel_at(c.xr, c.yr))
            for c in cells)
    out["af.interior_frac"] = interior / len(cells) if interior else 0.0
    return out
