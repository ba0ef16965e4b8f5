import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ircrates.channel import ChannelBatch, NodeLayout, RatePair, capacity
from ircrates.errors import InfeasibleError
from ircrates.scenario import (
    DEFAULT_NODES,
    MAP_HEADER,
    OPTIMIZERS,
    PROTOCOL_ORDER,
    ConfigError,
    ScenarioConfig,
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
        # d / d0 = 1e-20 / 1e305 underflows to 0, so the gain overflows.
        layout = replace(default_config().layout, d0=1e305, epsilon=1e-20,
                         relay=(0.0, 0.0, 1e-20))
        cfg = replace(default_config(), layout=layout)
        with pytest.raises(ValueError, match="overflows a float") as one:
            cfg.channel_at(0.0, 0.0)
        with pytest.raises(ValueError) as block:
            cfg.channel_batch([(0.0, 0.0)])
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
        from ircrates import af, df, ef

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
        [(pair, point)] = OPTIMIZERS[protocol](ChannelBatch.of([cfg.channel_at(0.5, 0.75)]), cfg)
        assert cell.rates[protocol] == pair.sum
        if protocol == "af":
            assert cell.af_gain == point["gain"]
        if protocol == "ef_bl":
            assert cell.bl_scenario == point["scenario"]

    def test_uniform_policy_fixes_nu(self):
        cfg = small_config()
        batch = ChannelBatch.of([cfg.channel_at(0.5, 0.75)])
        for protocol in ("df", "ef_bl"):
            assert OPTIMIZERS[protocol](batch, cfg)[0][1]["nu"] == (0.5, 0.5)

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
            result = (RatePair(k + 1.0, 0.0), {"gain": 0.25, "scenario": f"tag{k}"})
            monkeypatch.setitem(OPTIMIZERS, protocol,
                                lambda batch, cfg, r=result: [r] * len(batch))
        cfg = small_config()
        cell = evaluate_cell(cfg, 0.0, 0.5)
        assert cell.rates == {"af": 1.0, "df": 2.0, "ef_bl": 3.0, "ef_sl": 4.0}
        assert (cell.winner, cell.bl_scenario, cell.af_gain) == ("ef_sl", "tag2", 0.25)
        sl = sl_vs_bl_map(cfg)[0]
        assert (sl.bl_sum, sl.sl_sum, sl.bl_scenario, sl.winner) == (3.0, 4.0, "tag2", "sl")

    def test_infeasible_protocol_scores_zero(self, monkeypatch):
        def infeasible(batch, config):
            raise InfeasibleError("no rate")

        monkeypatch.setitem(OPTIMIZERS, "ef_bl", infeasible)
        cfg = small_config()
        cell = evaluate_cell(cfg, 0.0, 0.5)
        assert cell.rates["ef_bl"] == 0.0 and cell.infeasible == ("ef_bl",)
        assert cell.bl_scenario == ""


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
# (1601 cells, 25 blocks of 64 and one of 1), the default EF single- vs
# bi-level map, and the optimal-policy map at 1.0 d0 (72 cells).
GATED_CSV_SHA256 = {
    "map": "e821e03db6a76d67c4f902aa401a21bd1d477e272050d2b7d9c198546e2f387e",
    "slice_0.005": "df7a758958c37b6c906cd61748ebc0805fc806ca92d03bc150666dc6857cc5a2",
    "slmap": "ff7a02740e1dcf3d62af96dabb25e0cc74313787932dc096b4976261ee835e7f",
    "map_optimal_1.0": "798fa83b440c2cf0fb02941ff030d75d1b593e860add59666070f6efb76ca306",
}


def test_gated_csv_digests():
    config = default_config()
    optimal = replace(config, pa_policy="optimal", resolution=1.0)
    texts = {"map": map_to_csv(dominance_map(config)),
             "slice_0.005": map_to_csv(sum_rate_slice(replace(config, resolution=0.005), 0.5)),
             "slmap": slmap_to_csv(sl_vs_bl_map(config)),
             "map_optimal_1.0": map_to_csv(dominance_map(optimal))}
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == GATED_CSV_SHA256
