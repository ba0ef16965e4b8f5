import hashlib
import json
import math
import sys
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from ircrates import af, df, ef, scenario
from ircrates.channel import ChannelBatch, NodeLayout, RatePair, capacity
from ircrates.df import DfParams
from ircrates.ef import EfBiParams
from ircrates.cli import main
from ircrates.scenario import (
    DEFAULT_NODES,
    MAP_HEADER,
    OPTIMIZERS,
    PROTOCOL_ORDER,
    SLMAP_HEADER,
    ConfigError,
    MapCell,
    ScenarioConfig,
    SlCell,
    default_config,
    dominance_map,
    evaluate_cell,
    load_config,
    map_to_csv,
    sl_vs_bl_map,
    slmap_to_csv,
    sum_rate_slice,
)


def small_config(**overrides):
    base = dict(x_min=-0.5, x_max=0.5, y_min=0.25, y_max=0.75, resolution=0.5)
    base.update(overrides)
    return replace(default_config(), **base)


class TestConfig:
    def test_default_values(self):
        cfg = default_config()
        assert cfg.layout.d0 == 5.0
        assert cfg.layout.gamma == 2.0
        assert (cfg.P1, cfg.P2, cfg.Pr) == (10.0, 10.0, 10.0)
        assert (cfg.N1, cfg.N2, cfg.Nr) == (1.0, 1.0, 1.0)
        assert cfg.pa_policy == "uniform"
        assert cfg.protocols == PROTOCOL_ORDER

    def test_default_geometry_distances(self):
        lay = default_config().layout
        d = lay.distances()
        assert d["h11"] == pytest.approx(11.5)
        assert d["h22"] == pytest.approx(10.0)
        assert d["h12"] == pytest.approx(11.0)  # S1 -> D2
        assert d["h21"] == pytest.approx(14.0)  # S2 -> D1

    def test_round_trip(self, tmp_path):
        cfg = small_config(resolution=0.25, r0_exponent=1,
                           protocols=("af", "ef_sl"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_config(path)
        assert loaded == cfg

    def test_round_trip_with_every_field_off_default(self):
        layout = NodeLayout(s1=(0.5, -1.0), s2=(-3.0, 0.25), d1=(9.0, 1.0), d2=(-4.0, 8.0),
                            relay=(1.0, 2.0, 0.2), d0=4.0, gamma=3.0, epsilon=0.2)
        cfg = ScenarioConfig(
            layout=layout, P1=3.0, P2=4.0, Pr=5.0, N1=0.5, N2=0.25, Nr=2.0,
            x_min=-2.0, x_max=3.0, y_min=-1.0, y_max=2.0, resolution=0.5,
            pa_policy="optimal", df_grid=101, ef_grid=101, protocols=("df", "ef_sl"),
            r0_exponent=1)
        default = default_config()
        for f in fields(ScenarioConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for f in fields(NodeLayout):
            assert getattr(layout, f.name) != getattr(default.layout, f.name), f.name
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_to_dict_key_order(self):
        data = default_config().to_dict()
        assert list(data) == ["layout", "powers", "noises", "sweep", "pa_policy",
                              "optimizer", "protocols", "r0_exponent"]
        assert list(data["layout"]) == ["s1", "s2", "d1", "d2", "relay",
                                        "d0", "gamma", "epsilon"]
        assert list(data["powers"]) == ["P1", "P2", "Pr"]
        assert list(data["noises"]) == ["N1", "N2", "Nr"]
        assert list(data["sweep"]) == ["x_min", "x_max", "y_min", "y_max", "resolution"]
        assert list(data["optimizer"]) == ["df_grid", "ef_grid"]
        assert data["protocols"] == list(PROTOCOL_ORDER)

    def test_retired_af_options_ignored(self):
        data = default_config().to_dict()
        assert set(data["optimizer"]) == {"df_grid", "ef_grid"}
        data["optimizer"].update(af_grid=500, af_tolerance=1e-6)
        assert ScenarioConfig.from_dict(data) == default_config()

    def test_absent_optional_keys_take_field_defaults(self):
        cfg = replace(default_config(), P1=3.0)
        data = cfg.to_dict()
        minimal = {k: data[k] for k in ("layout", "powers", "noises")}
        assert ScenarioConfig.from_dict(minimal) == ScenarioConfig(
            layout=cfg.layout, P1=cfg.P1, P2=cfg.P2, Pr=cfg.Pr,
            N1=cfg.N1, N2=cfg.N2, Nr=cfg.Nr,
        )

    def test_rejects_bad_fields(self, tmp_path):
        with pytest.raises(ConfigError, match="pa_policy"):
            small_config(pa_policy="greedy")
        with pytest.raises(ConfigError, match="resolution"):
            small_config(resolution=-1.0)
        with pytest.raises(ConfigError, match="r0_exponent"):
            small_config(r0_exponent=3)
        with pytest.raises(ConfigError, match="protocols"):
            small_config(protocols=("af", "cf"))
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)
        path.write_text(json.dumps({"powers": {}}))
        with pytest.raises(ConfigError, match="layout"):
            load_config(path)

    @pytest.mark.parametrize("field, value", [
        ("P1", "ten"), ("Nr", None), ("x_min", [1.0]), ("resolution", True),
        ("y_max", float("nan")), ("Pr", float("inf")),
        pytest.param("P1", 10**400, id="P1-10**400"),
        pytest.param("resolution", 10**400, id="resolution-10**400"),
    ])
    def test_rejects_non_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    def test_rejects_bad_layout_values(self):
        data = small_config().to_dict()
        for key, value in (("d0", "five"), ("gamma", None), ("epsilon", float("nan")),
                           ("d0", 10**400), ("relay", [0.0, 0.0, 10**400]),
                           ("relay", [10**400, 0.0, 0.1]), ("s2", [0.0, 10**400])):
            bad = json.loads(json.dumps(data))
            bad["layout"][key] = value
            with pytest.raises(ConfigError, match=f"layout.{key}"):
                ScenarioConfig.from_dict(bad)
        bad = json.loads(json.dumps(data))
        bad["layout"]["s1"] = [0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match="layout.s1"):
            ScenarioConfig.from_dict(bad)
        bad["layout"]["s1"] = ["x", 0.0]
        with pytest.raises(ConfigError, match="layout.s1"):
            ScenarioConfig.from_dict(bad)

    @pytest.mark.parametrize("field", ["df_grid", "ef_grid"])
    @pytest.mark.parametrize("value", [1, 0, 2.5, True, "41", 126, 10**6])
    def test_rejects_bad_optimizer_grids(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["df_grid", "ef_grid"])
    def test_largest_optimizer_grid_accepted(self, field):
        # DF's per-cell split-bound table has G * G(G+1)/2 entries: 984,375
        # at G = 125, the largest grid within 10**6.
        for value in (41, 101, 125):
            assert getattr(small_config(**{field: value}), field) == value

    def test_rejects_malformed_sections(self):
        data = small_config().to_dict()
        for section, value in (("powers", [10.0]), ("sweep", 5), ("protocols", 5)):
            bad = dict(data, **{section: value})
            with pytest.raises(ConfigError, match=section):
                ScenarioConfig.from_dict(bad)
        # A string is not read as the list of its characters.
        with pytest.raises(ConfigError, match="protocols must be a list, got 'af'"):
            ScenarioConfig.from_dict(dict(data, protocols="af"))
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict([data])
        with pytest.raises(ConfigError, match="protocols"):
            small_config(protocols=())

    @pytest.mark.parametrize("overrides", [
        dict(x_max=1e9), dict(y_min=-1e9), dict(resolution=1e-9),
        dict(x_min=-1e308, x_max=1e308),  # the step count overflows to inf
        dict(x_min=0.0, x_max=1e6, y_min=0.0, y_max=1.0, resolution=1.0),
    ])
    def test_rejects_oversized_sweep_before_allocating(self, monkeypatch, overrides):
        def no_linspace(*args, **kwargs):
            raise AssertionError("a sweep axis was allocated")

        monkeypatch.setattr(np, "linspace", no_linspace)
        with pytest.raises(ConfigError, match="cap is 1000000"):
            small_config(**overrides)

    def test_largest_sweep_axis_accepted(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", lambda lo, hi, n: n)
        cfg = small_config(x_min=0.0, x_max=999_999.0, y_min=0.0, y_max=1.0,
                           resolution=1.0)
        assert (cfg.grid_x(), cfg.grid_y()) == (10**6, 2)

    def test_grid_endpoints(self):
        cfg = default_config()
        gx, gy = cfg.grid_x(), cfg.grid_y()
        assert gx[0] == -4.0 and gx[-1] == 4.0
        assert gy[0] == -3.0 and gy[-1] == 4.0
        assert len(gx) == 33 and len(gy) == 29
        assert np.allclose(np.diff(gx), 0.25)

    def test_path_loss_underflow_refused_alike(self):
        # d / d0 = 1e-20 / 1e305 underflows to 0, so the gain overflows; at
        # gamma = 3 and d0 = 1e305 a planar d / d0 underflows; at gamma = 400,
        # the relay 0.1 above s1 has (0.1 / 5)^-200, beyond the floats.
        base = default_config().layout
        for layout, named in (
                (replace(base, d0=1e305, epsilon=1e-20, relay=(0.0, 0.0, 1e-20)), "d0 = 1e+305"),
                (replace(base, d0=1e305, gamma=3.0), "d0 = 1e+305, gamma = 3"),
                (replace(base, gamma=400.0), "at d = 0.1, d0 = 5, gamma = 400")):
            cfg = replace(default_config(), layout=layout)
            with pytest.raises(ValueError, match="overflows a float") as one:
                cfg.channel_at(0.0, 0.0)
            assert named in str(one.value)
            for call in (lambda: cfg.channel_batch([(0.0, 0.0)]),
                         lambda: cfg.channel_batch(np.zeros((1, 2))),
                         lambda: evaluate_cell(cfg, 0.0, 0.0)):
                with pytest.raises(ValueError) as block:
                    call()
                assert str(block.value) == str(one.value)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf),
                                      (0.0, 1e308)])  # 1e308 d0 overflows
    def test_non_finite_relay_refused_alike(self, x, y):
        # Also where a planar link is bad as well (d1 on s1, so h11 has zero
        # length, and every cell is bad): the relay is refused first, as for
        # one channel.
        base = default_config()
        for cfg, cells in ((base, [(0.5, 0.5), (x, y)]),
                           (replace(base, layout=replace(base.layout, d1=base.layout.s1)),
                            [(x, y)])):
            with pytest.raises(ConfigError, match="layout.relay must be a finite number") as one:
                cfg.channel_at(x, y)
            for call in (lambda: cfg.channel_batch(cells),
                         lambda: cfg.channel_batch(np.array(cells)),
                         lambda: evaluate_cell(cfg, x, y)):
                with pytest.raises(ConfigError) as block:
                    call()
                assert str(block.value) == str(one.value)
            if math.isfinite(x):  # the slice's first cell is at x_min
                with pytest.raises(ConfigError) as first:
                    cfg.channel_at(cfg.x_min, y)
                with pytest.raises(ConfigError) as block:
                    sum_rate_slice(cfg, y)
                assert str(block.value) == str(first.value)

    def test_finite_relay_whose_length_overflows_keeps_the_overflow_message(self):
        cfg = default_config()  # 3e307 * d0 is finite; its squared length is not
        with pytest.raises(ValueError, match="the length of link h1r overflows a float") as one:
            cfg.channel_at(3e307, 0.0)
        for positions in ([(3e307, 0.0)], np.array([(3e307, 0.0)])):
            with pytest.raises(ValueError) as block:
                cfg.channel_batch(positions)
            assert str(block.value) == str(one.value)

    def test_channel_at_gain_oracle(self):
        cfg = default_config()
        ch = cfg.channel_at(1.0, 0.5)
        relay = (1.0 * 5.0, 0.5 * 5.0)
        eps = cfg.layout.epsilon
        for name, (node, h) in {
            "h1r": (DEFAULT_NODES["s1"], ch.h1r),
            "h2r": (DEFAULT_NODES["s2"], ch.h2r),
        }.items():
            dist = math.hypot(relay[0] - node[0], relay[1] - node[1], eps)
            assert abs(h) == pytest.approx((dist / 5.0) ** -1.0, rel=1e-12)
        for name, (node, h) in {
            "hr1": (DEFAULT_NODES["d1"], ch.hr1),
            "hr2": (DEFAULT_NODES["d2"], ch.hr2),
        }.items():
            dist = math.hypot(relay[0] - node[0], relay[1] - node[1], eps)
            assert abs(h) == pytest.approx((dist / 5.0) ** -1.0, rel=1e-12)


class TestEvaluateCell:
    def test_rates_consistent_with_modules(self):
        cfg = small_config()
        cell = evaluate_cell(cfg, 0.5, 0.75)
        ch = cfg.channel_at(0.5, 0.75)
        _, af_pair = af.af_sum_rate_gain(ch)
        assert cell.rates["af"] == pytest.approx(af_pair.sum, abs=1e-12)
        _, df_pair = df.df_sum_rate_search(ch, grid_points=cfg.df_grid,
                                           nu=(0.5, 0.5))
        assert cell.rates["df"] == pytest.approx(df_pair.sum, abs=1e-12)
        _, scenario, bl_pair = ef.ef_bi_eval(ch, 0.5, 0.5)
        assert cell.rates["ef_bl"] == pytest.approx(bl_pair.sum, abs=1e-12)
        assert cell.bl_scenario == scenario.value
        sl_pair = ef.ef_sl_rate(ch, ef.ef_sl_min_noise(ch))
        assert cell.rates["ef_sl"] == pytest.approx(sl_pair.sum, abs=1e-12)

    def test_winner_is_argmax(self):
        cfg = small_config()
        for x, y in ((-0.5, 0.25), (0.5, 0.75)):
            cell = evaluate_cell(cfg, x, y)
            best = max(cell.rates.values())
            assert cell.rates[cell.winner] == pytest.approx(best, abs=0)
            # Among ties the earliest protocol in the fixed order wins.
            for p in PROTOCOL_ORDER:
                if cell.rates[p] == best:
                    assert cell.winner == p
                    break

    def test_af_gain_in_range(self):
        from ircrates.af import saturation_gain

        cfg = small_config()
        cell = evaluate_cell(cfg, 0.0, 0.5)
        ch = cfg.channel_at(0.0, 0.5)
        assert 0.0 <= cell.af_gain <= saturation_gain(ch) * (1 + 1e-12)

    def test_far_relay_approaches_no_relay_baseline(self):
        # A relay 500 reference distances away contributes (and hears)
        # essentially nothing; every protocol should sit at the plain
        # interference-channel sum rate.
        cfg = small_config(protocols=("af", "ef_sl"))
        cell = evaluate_cell(cfg, 500.0, 0.75)
        ch = cfg.channel_at(500.0, 0.75)
        base = sum(
            capacity(abs(ch.h_direct(i)) ** 2 * ch.P(i)
                     / (abs(ch.h_cross(i)) ** 2 * ch.P(3 - i) + ch.N(i)))
            for i in (1, 2)
        )
        assert cell.rates["af"] == pytest.approx(base, abs=1e-4)
        assert cell.rates["ef_sl"] == pytest.approx(base, abs=1e-4)

    def test_protocol_subset(self):
        cfg = small_config(protocols=("df",))
        cell = evaluate_cell(cfg, 0.0, 0.5)
        assert set(cell.rates) == {"df"}
        assert cell.winner == "df"


class TestOptimizerTable:
    def test_one_entry_per_protocol_in_order(self):
        assert tuple(OPTIMIZERS) == PROTOCOL_ORDER

    @pytest.mark.parametrize("policy", ["uniform", "optimal"])
    @pytest.mark.parametrize("protocol", PROTOCOL_ORDER)
    def test_evaluate_cell_is_the_table(self, protocol, policy):
        cfg = small_config(pa_policy=policy, df_grid=11, ef_grid=11)
        cell = evaluate_cell(cfg, 0.5, 0.75)
        r1, r2, point = OPTIMIZERS[protocol](ChannelBatch.of([cfg.channel_at(0.5, 0.75)]), cfg)
        assert cell.rates[protocol] == r1.item() + r2.item()
        if protocol == "af":
            assert cell.af_gain == point["gain"].item()
        if protocol == "ef_bl":
            assert cell.bl_scenario == point["scenario"].item()

    def test_uniform_policy_fixes_nu(self):
        cfg = small_config()
        batch = ChannelBatch.of([cfg.channel_at(0.5, 0.75)])
        for protocol in ("df", "ef_bl"):
            nu1, nu2 = OPTIMIZERS[protocol](batch, cfg)[2]["nu"]
            assert (nu1.item(), nu2.item()) == (0.5, 0.5)

    @pytest.mark.parametrize("policy", ["uniform", "optimal"])
    def test_slmap_is_the_ef_dominance_map(self, policy):
        cfg = small_config(pa_policy=policy, ef_grid=11)
        cells = dominance_map(cfg)
        sl_cells = sl_vs_bl_map(cfg)
        assert [(c.xr, c.yr, c.rates["ef_sl"], c.rates["ef_bl"], c.bl_scenario)
                for c in cells] == [(c.xr, c.yr, c.sl_sum, c.bl_sum, c.bl_scenario)
                                    for c in sl_cells]

    def test_maps_dispatch_through_the_table(self, monkeypatch):
        # Stub every entry with a distinct fixed result: a caller with its
        # own per-protocol dispatch would not see the stubs.
        for k, protocol in enumerate(PROTOCOL_ORDER):
            monkeypatch.setitem(OPTIMIZERS, protocol, lambda batch, cfg, k=k: (
                np.full(len(batch), k + 1.0), np.zeros(len(batch)),
                {"gain": np.full(len(batch), 0.25), "scenario": np.full(len(batch), f"tag{k}")}))
        cfg = small_config()
        cell = evaluate_cell(cfg, 0.0, 0.5)
        assert cell.rates == {"af": 1.0, "df": 2.0, "ef_bl": 3.0, "ef_sl": 4.0}
        assert (cell.winner, cell.bl_scenario, cell.af_gain) == ("ef_sl", "tag2", 0.25)
        sl = sl_vs_bl_map(cfg)[0]
        assert (sl.bl_sum, sl.sl_sum, sl.bl_scenario, sl.winner) == (3.0, 4.0, "tag2", "sl")

    def test_infeasible_protocol_scores_zero(self, monkeypatch):
        # EF-SL, whose zero-bottleneck cells are NaN, is the one protocol a
        # cell may list as infeasible.
        def infeasible(batch, config):
            nan = np.full(len(batch), np.nan)
            return nan, nan, {"nwz": nan}

        monkeypatch.setitem(OPTIMIZERS, "ef_sl", infeasible)
        cfg = small_config()
        cell = evaluate_cell(cfg, 0.0, 0.5)
        assert cell.rates["ef_sl"] == 0.0 and cell.infeasible == ("ef_sl",)
        assert cell.winner != "ef_sl"

    @pytest.mark.parametrize("protocol", ["af", "df", "ef_bl"])
    def test_nan_rate_of_another_protocol_raises(self, monkeypatch, protocol):
        # A kernel (here a patched one) that returns NaN rates in cells 1 and
        # 4 of the map's one block stops the map at cell 1, the first in map
        # order, named with its protocol and then the reason: AF's is its
        # overflowing polynomial, and EF-BL's noise bounds here are > 0, so
        # EF-BL, like DF, gives the bare NaN.  EF-SL's NaN in cells 0 and 1 is
        # the infeasibility a map scores 0, and raises nothing.  The slmap
        # reads the same EF-BL column and refuses its NaN alike.
        def with_nan(name, cells):
            entry = OPTIMIZERS[name]

            def run(batch, config):
                r1, r2, point = entry(batch, config)
                r1 = r1.copy()
                r1[cells] = np.nan
                return r1, r2, point

            monkeypatch.setitem(OPTIMIZERS, name, run)

        with_nan("ef_sl", [0, 1])
        cfg = small_config()  # 3 x 2 cells
        assert [c.infeasible for c in dominance_map(cfg)] == [("ef_sl",)] * 2 + [()] * 4
        with_nan(protocol, [4, 1])
        for run in [dominance_map] + [sl_vs_bl_map] * (protocol == "ef_bl"):
            with pytest.raises(ValueError) as raised:
                run(cfg)
            reason = af._OVERFLOW if protocol == "af" else f"{protocol} rate is NaN"
            assert str(raised.value) == (f"{protocol} rate is NaN with the relay at "
                                         f"(0.0, 0.25) d0: {reason}")

    def test_infeasible_entry_runs_once_per_block(self, monkeypatch):
        # At Pr = 1e-15 EF-SL is infeasible in every cell of the default map.
        # Its entry marks those cells with NaN rates and, like AF, DF and
        # EF-BL, runs once per block; each cell is the cell evaluated alone.
        # The map is one block at the default budget, and 15 blocks of at
        # most 64 cells at a budget of 64 x 41 entries.
        config = replace(default_config(), Pr=1e-15)
        calls = Counter()
        for protocol, entry in list(OPTIMIZERS.items()):
            monkeypatch.setitem(OPTIMIZERS, protocol, lambda batch, cfg, p=protocol, run=entry:
                                calls.update([p]) or run(batch, cfg))
        maps = []
        for entries, blocks in ((scenario._BLOCK_ENTRIES, 1), (64 * 41, 15)):
            monkeypatch.setattr(scenario, "_BLOCK_ENTRIES", entries)
            assert -(-957 // scenario._block_size(config)) == blocks
            calls.clear()
            maps.append(dominance_map(config))
            assert len(maps[-1]) == 957
            assert calls == {"af": blocks, "df": blocks, "ef_bl": blocks, "ef_sl": blocks}
        cells = maps[0]
        assert maps[1] == cells
        assert {(c.infeasible, c.rates["ef_sl"]) for c in cells} == {(("ef_sl",), 0.0)}
        assert cells == [evaluate_cell(config, c.xr, c.yr) for c in cells]


    @pytest.mark.parametrize("run", [dominance_map, sl_vs_bl_map], ids=lambda f: f.__name__)
    def test_maps_build_no_per_cell_objects(self, monkeypatch, run):
        # The kernels hand the maps columns; the validated objects belong to
        # the one-channel API.  The slmap reads its rows from the columns,
        # with no MapCell and no dominance map in between.
        built = Counter()
        for cls in (DfParams, EfBiParams, RatePair):
            monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__:
                                built.update([type(self).__name__]) or check(self))
        if run is sl_vs_bl_map:
            for name in ("MapCell", "dominance_map"):
                monkeypatch.setattr(scenario, name, lambda *a, name=name: built.update([name]))
        run(default_config())
        assert built == Counter()


class TestMaps:
    def test_row_major_order(self):
        cfg = small_config()
        cells = dominance_map(cfg)
        coords = [(c.xr, c.yr) for c in cells]
        expected = [(float(x), float(y)) for y in cfg.grid_y() for x in cfg.grid_x()]
        assert coords == expected

    def test_deterministic(self):
        cfg = small_config()
        a = map_to_csv(dominance_map(cfg))
        b = map_to_csv(dominance_map(cfg))
        assert a == b

    def test_slice_matches_map_row(self):
        cfg = small_config()
        cells = dominance_map(cfg)
        row = [c for c in cells if c.yr == 0.75]
        sl = sum_rate_slice(cfg, 0.75)
        assert map_to_csv(row) == map_to_csv(sl)

    def test_csv_round_trip(self):
        cfg = small_config()
        cells = dominance_map(cfg)
        header, *rows = map_to_csv(cells).strip().split("\n")
        assert header == MAP_HEADER
        assert len(rows) == len(cells)
        for orig, row in zip(cells, rows):
            xr, yr, *rates, winner, bl_scenario = row.split(",")
            assert float(xr) == orig.xr and float(yr) == orig.yr
            assert winner == orig.winner
            assert bl_scenario == orig.bl_scenario
            for p, v in zip(PROTOCOL_ORDER, rates, strict=True):
                assert float(v) == pytest.approx(orig.rates[p], rel=1e-11)

    def test_rows_are_the_12_digit_format(self):
        # Each float field is format(x, ".12g"), fields joined by commas, on
        # edge values: signed zero, the least subnormal, a float past 2**53,
        # repeating decimals, values that round at the 12th digit, inf and nan.
        # Each map cell lacks one protocol, which writes 0.
        edge = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, 1.23456789012549, 9.99999999999951,
                math.inf, math.nan]
        n = len(edge)
        maps = [MapCell(edge[k], edge[k - 1], {p: edge[(k + j) % n] for j, p in
                                               enumerate(PROTOCOL_ORDER) if j != k % 4},
                        "af", "d1_better", 0.0) for k in range(n)]
        sls = [SlCell(edge[k], edge[k - 1], edge[k - 2], edge[k - 3], "neither",
                      "bl", k % 2 == 1) for k in range(n)]

        def csv(header, rows):
            return "".join(",".join(format(f, ".12g") if isinstance(f, float) else f
                                    for f in row) + "\n" for row in [[header], *rows])

        assert map_to_csv(maps) == csv(MAP_HEADER, (
            [c.xr, c.yr, *(c.rates.get(p, 0.0) for p in PROTOCOL_ORDER), c.winner,
             c.bl_scenario] for c in maps))
        assert slmap_to_csv(sls) == csv(SLMAP_HEADER, (
            [c.xr, c.yr, c.sl_sum, c.bl_sum, c.bl_scenario, c.winner, "01"[c.frontier]]
            for c in sls))

    def test_mirrored_layout_symmetry(self):
        # Reflect the whole node set across the x-axis: rates at (x, y) in
        # the original geometry must equal rates at (x, -y) in the mirror.
        cfg = small_config(protocols=("af", "ef_sl"))
        lay = cfg.layout
        mirrored = replace(
            lay,
            s1=(lay.s1[0], -lay.s1[1]), s2=(lay.s2[0], -lay.s2[1]),
            d1=(lay.d1[0], -lay.d1[1]), d2=(lay.d2[0], -lay.d2[1]),
        )
        mcfg = replace(cfg, layout=mirrored)
        for x, y in ((0.5, 0.75), (-0.5, 0.25)):
            orig = evaluate_cell(cfg, x, y)
            mirr = evaluate_cell(mcfg, x, -y)
            for p in orig.rates:
                assert mirr.rates[p] == pytest.approx(orig.rates[p], rel=1e-10)


class TestBlocks:
    @pytest.mark.parametrize("overrides, size", [
        ({}, 1344),  # 55,104 entries over the 41-point DF tau column
        ({"pa_policy": "optimal"}, 32),  # over DF's 41 x 41 tau by nu tables
        ({"pa_policy": "optimal", "ef_grid": 125, "df_grid": 125}, 3),  # 125 x 125
        ({"df_grid": 125}, 440),  # over the 125-point DF tau column
        ({"df_grid": 2, "ef_grid": 2}, 1530),  # over AF's 6 x 6 companion matrix
        ({"pa_policy": "optimal", "df_grid": 2, "ef_grid": 2}, 1530),  # 3 splits < 36
        # Only the protocols that run count: the slmap's EF-BL split pairs
        # (1 under 36, or 861), and AF alone.
        ({"protocols": ("ef_bl", "ef_sl")}, 1530),
        ({"protocols": ("ef_bl", "ef_sl"), "pa_policy": "optimal"}, 64),
        ({"protocols": ("af",), "pa_policy": "optimal"}, 1530),
    ], ids=["uniform-41", "optimal-41", "optimal-125", "uniform-125", "uniform-2", "optimal-2",
            "uniform-ef", "optimal-ef", "optimal-af"])
    def test_block_size(self, overrides, size):
        assert scenario._block_size(replace(default_config(), **overrides)) == size

    @pytest.mark.parametrize("policy, widest", [("uniform", 41), ("optimal", 41 ** 2)])
    def test_csv_bytes_do_not_depend_on_the_block_size(self, monkeypatch, policy, widest):
        # 66 cells, 11 per row: blocks of 1, 7 and 64 cells split the map,
        # its rows and the slice differently from one block of all 66.  The
        # widest row is DF's tau tables: 41 tau points by 1 or 41 nu values;
        # the slmap's is the 36 floor or EF-BL's 45 splits at G = 9.
        config = small_config(resolution=0.1, pa_policy=policy, ef_grid=9)
        sl_widest = {"uniform": 36, "optimal": 45}[policy]

        def blocks_of(cells, widest, protocols):
            monkeypatch.setattr(scenario, "_BLOCK_ENTRIES", cells * widest)
            assert scenario._block_size(replace(config, protocols=protocols)) == cells

        got = []
        for cells in (66, 1, 7, 64):
            blocks_of(cells, widest, config.protocols)
            csvs = (map_to_csv(dominance_map(config)), map_to_csv(sum_rate_slice(config, 0.5)))
            blocks_of(cells, sl_widest, ("ef_bl", "ef_sl"))
            got.append(csvs + (slmap_to_csv(sl_vs_bl_map(config)),))
        assert got[1:] == got[:1] * 3


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(scenario.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def af_thread(monkeypatch):
    """Patch AF's kernel to record the thread it runs on; returns that list."""
    seen, kernel = [], af.af_sum_rate_gain_batch
    monkeypatch.setattr(af, "af_sum_rate_gain_batch",
                        lambda batch: seen.append(threading.current_thread()) or kernel(batch))
    return seen


def block(name):
    """The default map's one block (957 cells), or the 257-cell tail block of
    criterion 8's slice (y = 0.5 d0 at 0.005 d0, blocks of 1344 and 257)."""
    config = default_config()
    if name == "map":
        return config, np.array([(x, y) for y in config.grid_y() for x in config.grid_x()])
    config = replace(config, resolution=0.005)
    return config, np.array([(x, 0.5) for x in config.grid_x()][scenario._block_size(config):])


class TestAfOnASecondThread:
    # A block of at least _OVERLAP_CELLS cells runs AF's entry on a second
    # thread, beside DF and EF in the calling thread, when the process may
    # use more than one CPU; a smaller block runs it inline.

    @pytest.mark.parametrize("name", ["map", "slice-tail"])
    def test_both_paths_give_the_same_columns(self, monkeypatch, name):
        config, positions = block(name)
        assert len(positions) == {"map": 957, "slice-tail": 257}[name] >= scenario._OVERLAP_CELLS
        usable_cpus(monkeypatch, 2)
        seen = af_thread(monkeypatch)
        columns = []
        for cells in (scenario._OVERLAP_CELLS, len(positions) + 1):  # overlapped, then inline
            monkeypatch.setattr(scenario, "_OVERLAP_CELLS", cells)
            columns.append([np.asarray(c).tobytes() for c in scenario._block_columns(
                config, positions, config.channel_batch(positions))])
        assert seen[0] is not threading.main_thread() and seen[1] is threading.main_thread()
        assert columns[0] == columns[1]

    def test_small_blocks_run_inline(self, monkeypatch):
        # A 9-cell optimal-policy block, as in map_optimal, and a single
        # cell take the inline path.
        usable_cpus(monkeypatch, 2)
        seen = af_thread(monkeypatch)
        dominance_map(replace(default_config(), x_min=-1, x_max=1, y_min=-1, y_max=1,
                              resolution=1.0, pa_policy="optimal"))
        evaluate_cell(default_config(), 0.5, 0.5)
        assert seen == [threading.main_thread()] * 2

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch):
        usable_cpus(monkeypatch, 1)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        seen = af_thread(monkeypatch)
        config, positions = block("map")
        scenario._block_columns(config, positions, config.channel_batch(positions))
        assert started == [] and seen == [threading.main_thread()]

    @pytest.mark.parametrize("raising", [("af", "df"), ("df",), ("af",), ("df", "ef_bl"),
                                         ("ef_bl", "ef_sl")], ids="+".join)
    def test_refusal_is_the_first_protocol_that_raises(self, monkeypatch, raising):
        # DF's kernel raises before AF's does, and AF's still wins.  Each
        # kernel that does not raise runs as it is; no thread outlives a call.
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenario, "_OVERLAP_CELLS", 1)
        df_done = threading.Event()
        kernels = {"af": (af, "af_sum_rate_gain_batch"), "df": (df, "df_sum_rate_search_batch"),
                   "ef_bl": (ef, "ef_bi_sum_rate_search_batch"), "ef_sl": (ef, "ef_sl_batch")}

        def refuse(protocol):
            def kernel(*args):
                if protocol == "af":
                    assert threading.current_thread() is not threading.main_thread()
                    assert "df" not in raising or df_done.wait(timeout=10)
                df_done.set()
                raise ValueError(f"{protocol} refuses")
            return kernel

        for protocol in raising:
            monkeypatch.setattr(*kernels[protocol], refuse(protocol))
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"^{raising[0]} refuses$"):
            dominance_map(small_config())
        assert threading.active_count() == threads

    def test_swapped_in_kernel_takes_effect(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenario, "_OVERLAP_CELLS", 1)
        config = small_config()
        cells = dominance_map(config)
        seen = af_thread(monkeypatch)
        threads = threading.active_count()
        kernel = af.af_sum_rate_gain_batch
        monkeypatch.setattr(af, "af_sum_rate_gain_batch", lambda batch: (
            lambda gain, r1, r2: (gain + 1.0, r1, r2 + 1.0))(*kernel(batch)))
        swapped = dominance_map(config)
        assert threading.active_count() == threads
        assert len(seen) == 1 and seen[0] is not threading.main_thread()
        assert [(c.af_gain + 1.0, c.rates["af"] + 1.0) for c in cells] == [
            (c.af_gain, c.rates["af"]) for c in swapped]

    def test_concurrent_maps_under_fast_switching(self, monkeypatch):
        # Four callers, each with its own AF thread, on 2 CPUs or fewer, with
        # the interpreter switching threads every microsecond: every map is
        # the one map computed alone, and no thread is left running.
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenario, "_OVERLAP_CELLS", 1)
        config = small_config(resolution=0.25)
        expected, threads = map_to_csv(dominance_map(config)), threading.active_count()
        got = []
        callers = [threading.Thread(target=lambda: got.extend(
            map_to_csv(dominance_map(config)) for _ in range(5))) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [expected] * 20 and threading.active_count() == threads

    def test_the_thread_runs_in_the_callers_context(self, monkeypatch):
        # numpy's errstate is a context variable: AF's kernel sees the caller's.
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenario, "_OVERLAP_CELLS", 1)
        seen, kernel = [], af.af_sum_rate_gain_batch
        monkeypatch.setattr(af, "af_sum_rate_gain_batch", lambda batch: (
            seen.append((threading.current_thread(), np.geterr()["under"])) or kernel(batch)))
        with np.errstate(under="warn"):
            evaluate_cell(default_config(), 0.5, 0.5)
        assert seen[0][0] is not threading.main_thread() and seen[0][1] == "warn"


class TestSlMap:
    def test_cells_and_winner(self):
        cfg = small_config()
        cells = sl_vs_bl_map(cfg)
        assert len(cells) == len(cfg.grid_x()) * len(cfg.grid_y())
        for c in cells:
            if c.bl_sum >= c.sl_sum:
                assert c.winner == "bl"
            else:
                assert c.winner == "sl"

    @pytest.mark.parametrize("case", ["two-blocks", "zero-bottleneck", "ties"])
    def test_equals_the_ef_only_dominance_map(self, monkeypatch, case):
        # Cell by cell, the slmap is the EF-only dominance map: its sums and
        # tag, "bl" where EF-BL's sum is at least EF-SL's, and a frontier
        # where the tag differs from the cell to the left or below.  At
        # 0.175 d0 (47 x 41 = 1927 cells, EF-only blocks of 1530 and 397) a
        # cell is on the frontier only through its neighbour in the other
        # block; at Pr = 1e-15 EF-SL is infeasible and scores 0.0; with
        # EF-SL's entry swapped for EF-BL's, every cell ties and goes to "bl".
        config = {"two-blocks": replace(default_config(), resolution=0.175),
                  "zero-bottleneck": small_config(Pr=1e-15), "ties": small_config()}[case]
        if case == "ties":
            monkeypatch.setitem(OPTIMIZERS, "ef_sl", OPTIMIZERS["ef_bl"])
        cells = dominance_map(replace(config, protocols=("ef_bl", "ef_sl")))
        nx, tags = len(config.grid_x()), [c.bl_scenario for c in cells]
        differ = [[j for j in (k - 1 if k % nx else -1, k - nx) if j >= 0 and tags[j] != tag]
                  for k, tag in enumerate(tags)]
        got = sl_vs_bl_map(config)
        assert got == [SlCell(c.xr, c.yr, c.rates["ef_sl"], c.rates["ef_bl"], c.bl_scenario,
                              "bl" if c.winner == "ef_bl" else "sl", bool(d))
                       for c, d in zip(cells, differ)]
        assert all((c.winner == "bl") == (c.bl_sum >= c.sl_sum) for c in got)
        if case == "two-blocks":
            size = scenario._block_size(replace(config, protocols=("ef_bl", "ef_sl")))
            assert size == 1530 < len(cells)
            assert any(d and max(d) < size for d in differ[size:])
        elif case == "zero-bottleneck":
            assert {(c.infeasible, c.rates["ef_sl"]) for c in cells} == {(("ef_sl",), 0.0)}
        else:
            assert {c.winner for c in got} == {"bl"}

    def test_frontier_flags(self):
        cfg = small_config(x_min=-1.0, x_max=1.0, y_min=0.25, y_max=1.25,
                           resolution=0.25)
        cells = sl_vs_bl_map(cfg)
        nx = len(cfg.grid_x())
        tags = [c.bl_scenario for c in cells]
        for idx, c in enumerate(cells):
            ix, iy = idx % nx, idx // nx
            expect = (ix > 0 and tags[idx - 1] != c.bl_scenario) or (
                iy > 0 and tags[idx - nx] != c.bl_scenario)
            assert c.frontier == expect

    def test_csv_shape(self):
        cfg = small_config()
        text = slmap_to_csv(sl_vs_bl_map(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "xr,yr,ef_sl,ef_bl,bl_scenario,winner,frontier"
        assert len(lines) == 1 + len(cfg.grid_x()) * len(cfg.grid_y())
        for line in lines[1:]:
            assert line.split(",")[6] in ("0", "1")


# The sha256 of the CSVs that every change to the kernels is held to: the
# default dominance map, the criterion-8 slice at y = 0.5 d0 and 0.005 d0
# (1601 cells, blocks of 1344 and 257), the default EF single- vs
# bi-level map, the optimal-policy map at 1.0 d0 (72 cells) and the default
# optimal-policy map (957 cells, about 630 of them through the pruned DF scan).
GATED_CSV_SHA256 = {
    "map": "e821e03db6a76d67c4f902aa401a21bd1d477e272050d2b7d9c198546e2f387e",
    "slice_0.005": "df7a758958c37b6c906cd61748ebc0805fc806ca92d03bc150666dc6857cc5a2",
    "slmap": "ff7a02740e1dcf3d62af96dabb25e0cc74313787932dc096b4976261ee835e7f",
    "map_optimal_1.0": "798fa83b440c2cf0fb02941ff030d75d1b593e860add59666070f6efb76ca306",
    "map_optimal": "9bdae57c0c21ddff182820e0e15afe38162dec825a28ccd3c0c065d30a427e7b",
}


def test_gated_csv_digests():
    config = default_config()
    optimal = replace(config, pa_policy="optimal", resolution=1.0)
    texts = {"map": map_to_csv(dominance_map(config)),
             "slice_0.005": map_to_csv(sum_rate_slice(replace(config, resolution=0.005), 0.5)),
             "slmap": slmap_to_csv(sl_vs_bl_map(config)),
             "map_optimal_1.0": map_to_csv(dominance_map(optimal)),
             "map_optimal": map_to_csv(dominance_map(replace(config, pa_policy="optimal")))}
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == GATED_CSV_SHA256


# The sha256 of the command outputs the relay-split searches feed, beyond the
# gated maps: the optimal-policy EF map, every protocol's optimize under both
# policies, and EF-BL rates at the uniform split, at two equal shares and at
# a zero share.
GATED_COMMAND_SHA256 = {
    ("slmap", "--pa", "optimal"):
        "5fcda461113ad726c47053d95c86efa0b8db559915433b223da98b87afc9f667",
    ("optimize", "--pa", "uniform", "--protocol", "af"):
        "7115c9005bd23c6dae8d4ecc0600640075dd3ae6650ca2b31595400a72618272",
    ("optimize", "--pa", "uniform", "--protocol", "df"):
        "436dd1817aae5e002044dc537b9ad13e65071ac462dd88242db1168a9fd289cd",
    ("optimize", "--pa", "uniform", "--protocol", "ef_bl"):
        "4f58d47e948f772fdadeba8a8fb06bbe9327d95ef746d7ec8372bf236377a265",
    ("optimize", "--pa", "uniform", "--protocol", "ef_sl"):
        "a037282e7d34f5e0afa94e4e9f0631d797aac434082ba57a9a5b3b5fd96e9b24",
    ("optimize", "--pa", "optimal", "--protocol", "af"):
        "7115c9005bd23c6dae8d4ecc0600640075dd3ae6650ca2b31595400a72618272",
    ("optimize", "--pa", "optimal", "--protocol", "df"):
        "fa8d81d142df60cb8e836bc6c3ce0f4ed5e50842798ccd22d196e5b587226fce",
    ("optimize", "--pa", "optimal", "--protocol", "ef_bl"):
        "001ae5ab66c654f6e17e5588a3cfddf80188597811317ef4c37ffed3bf9085ab",
    ("optimize", "--pa", "optimal", "--protocol", "ef_sl"):
        "a037282e7d34f5e0afa94e4e9f0631d797aac434082ba57a9a5b3b5fd96e9b24",
    ("rate", "--protocol", "ef_bl"):
        "da1380be514d9a1588cbd34206cd0600887b09f6a8c77961b660cbc12c87aee3",
    ("rate", "--protocol", "ef_bl", "--nu1", "0.3", "--nu2", "0.3"):
        "5681dcdd391b6cc0547d5371183446000af1d985950f4b6773f1bbd017ed4bcf",
    ("rate", "--protocol", "ef_bl", "--nu1", "0", "--nu2", "1"):
        "53f575d11c4074c17ce73e76cfce432b0f0a45d1fe5a9e6ef6adee9ec7d3c62f",
}


def test_gated_command_digests(capsys):
    digests = {}
    for argv in GATED_COMMAND_SHA256:
        assert main(list(argv)) == 0
        digests[argv] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == GATED_COMMAND_SHA256
