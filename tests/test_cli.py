import argparse
import ast
import contextlib
import io
import itertools
import json
import math
import random
import re
import shlex
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ircrates.channel import _LAYOUT_FIELDS, check_nu_split, layout_to_channel
from ircrates import cli
from ircrates.cli import main
from ircrates.ef import BiScenario
from ircrates.scenario import _SECTIONS, OPTIMIZERS, default_config

from conftest import cancelling_config
from reference_kernels import ef_exact

README = Path(__file__).resolve().parents[1] / "README.md"


# A sweep whose map commands finish in well under a second.
FAST_SWEEP = dict(x_min=-0.5, x_max=0.5, y_min=0.25, y_max=0.75, resolution=0.5)


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(replace(default_config(), **FAST_SWEEP).to_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def single_level_text() -> str:
    """A small single-level factorization file with seeded random factors."""
    rng = np.random.default_rng(7)
    p_y = rng.random((2, 2, 2, 2, 2, 2))
    p_y /= p_y.sum(axis=(3, 4, 5), keepdims=True)
    p_yh = rng.random((2, 2, 2))
    p_yh /= p_yh.sum(axis=2, keepdims=True)
    body = "mode single\nfactor x1 : 2\n0.5 0.5\nfactor x2 : 2\n0.5 0.5\n"
    body += "factor xr : 2\n0.5 0.5\n"
    body += "factor y1,y2,yr | x1,x2,xr : 2 2 2\n"
    body += " ".join(f"{v:.17g}" for v in p_y.ravel()) + "\n"
    body += "factor yh | yr,xr : 2\n"
    body += " ".join(f"{v:.17g}" for v in p_yh.ravel()) + "\n"
    return body


def bi_level_text() -> str:
    """A small bi-level factorization file with seeded random factors."""
    rng = np.random.default_rng(8)
    lines = ["mode bi"]
    for outs, conds in [("x1", ""), ("x2", ""), ("u1", ""), ("u2", ""),
                        ("xr", "u1,u2"), ("y1,y2,yr", "x1,x2,xr"),
                        ("yh1", "yr,u1"), ("yh2", "yr,u2")]:
        n_out, n_cond = len(outs.split(",")), len(conds.split(",")) if conds else 0
        table = rng.random((2,) * (n_cond + n_out))
        table /= table.sum(axis=tuple(range(n_cond, n_cond + n_out)), keepdims=True)
        lines.append(f"factor {outs}" + (f" | {conds}" if conds else "") + " : "
                     + " ".join(["2"] * n_out))
        lines.append(" ".join(f"{v:.17g}" for v in table.ravel()))
    return "\n".join(lines) + "\n"


class TestDefaults:
    def test_emits_valid_json(self, capsys):
        code, out, err = run(capsys, "defaults")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["powers"] == {"P1": 10.0, "P2": 10.0, "Pr": 10.0}
        assert data["noises"] == {"N1": 1.0, "N2": 1.0, "Nr": 1.0}
        assert data["layout"]["d0"] == 5.0
        assert data["layout"]["gamma"] == 2.0
        assert data["pa_policy"] == "uniform"
        assert data["r0_exponent"] == 2

    def test_defaults_reload_as_config(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "defaults", "--out", str(path))
        assert code == 0
        from ircrates.scenario import load_config

        assert load_config(path) == default_config()


# The protocols whose operating point each flag of ``rate`` sets.
RATE_FLAG_OWNERS = {
    "--gain": ("af",), "--tau1": ("df",), "--tau2": ("df",),
    "--nu1": ("df", "ef_bl"), "--nu2": ("df", "ef_bl"),
    "--nwz1": ("ef_bl",), "--nwz2": ("ef_bl",), "--nwz": ("ef_sl",),
}


class TestRate:
    def test_af(self, capsys, fast_config):
        code, out, _ = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "af", "--gain", "0.01")
        assert code == 0
        assert out.startswith("protocol: af\n")
        assert "gain: 0.01\n" in out
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["R1"]) > 0 and float(fields["R2"]) > 0

    def test_af_gain_above_saturation_exits_1(self, capsys, fast_config):
        # 0.3 is 15x the default saturation gain; the printed saturation gain,
        # rounded to 12 digits, is still accepted.
        code, _, err = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "af", "--gain", "0.3")
        assert code == 1 and "exceeds the saturation gain" in err
        _, out, _ = run(capsys, "rate", "--config", fast_config, "--protocol", "af")
        a_sat = dict(line.split(": ") for line in out.strip().split("\n"))["gain"]
        code, again, _ = run(capsys, "rate", "--config", fast_config,
                             "--protocol", "af", "--gain", a_sat)
        assert code == 0 and again == out

    def test_df(self, capsys, fast_config):
        code, out, _ = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "df", "--tau1", "0.2", "--tau2", "0.2",
                           "--nu1", "0.4", "--nu2", "0.4")
        assert code == 0
        assert "tau: (0.2, 0.2)" in out

    def test_ef_sl_default_noise(self, capsys, fast_config):
        code, out, _ = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "ef-sl")
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["nwz"]) > 0

    def test_ef_bl_scenario_reported(self, capsys, fast_config):
        code, out, _ = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "ef-bl")
        assert code == 0
        assert "scenario: " in out

    def test_infeasible_noise_exits_1(self, capsys, fast_config):
        code, out, err = run(capsys, "rate", "--config", fast_config,
                             "--protocol", "ef-sl", "--nwz", "1e-15")
        assert code == 1
        assert "infeasible" in err

    def test_bad_df_params_exit_2(self, capsys, fast_config):
        code, _, err = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "df", "--tau1", "2.0")
        assert code == 2 and "error" in err

    def test_df_without_nu_uses_uniform_split(self, capsys, fast_config):
        code, out, err = run(capsys, "rate", "--config", fast_config,
                             "--protocol", "df", "--tau1", "0.2")
        assert code == 0 and "Traceback" not in err
        assert "nu: (0.5, 0.5)\n" in out
        _, explicit, _ = run(capsys, "rate", "--config", fast_config, "--protocol", "df",
                             "--tau1", "0.2", "--nu1", "0.5", "--nu2", "0.5")
        assert out == explicit

    @pytest.mark.parametrize("protocol, flag, value", [
        ("df", "--nu1", "0.3"), ("df", "--nu2", "0.3"),
        ("ef_bl", "--nu1", "0.3"), ("ef_bl", "--nu2", "0.3"),
        ("ef_bl", "--nwz1", "0.5"), ("ef_bl", "--nwz2", "0.5"),
    ])
    def test_pair_flag_alone_exits_2(self, capsys, fast_config, protocol, flag, value):
        code, out, err = run(capsys, "rate", "--config", fast_config,
                             "--protocol", protocol, flag, value)
        assert code == 2 and out == "" and "Traceback" not in err
        first = flag.rstrip("12")
        assert f"{first}1" in err and f"{first}2" in err

    @pytest.mark.parametrize("protocol, flag", [
        (protocol, flag) for flag, owners in RATE_FLAG_OWNERS.items()
        for protocol in ("af", "df", "ef_bl", "ef_sl") if protocol not in owners
    ])
    def test_foreign_flag_exits_2(self, capsys, fast_config, protocol, flag):
        code, out, err = run(capsys, "rate", "--config", fast_config,
                             "--protocol", protocol, flag, "0.3")
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"{flag} does not apply" in err

    @pytest.mark.parametrize("protocol, flags", [("ef_sl", ["--nwz"]),
                                                 ("ef_bl", ["--nwz1", "--nwz2"])])
    def test_largest_noise_rate_is_the_infinite_noise_rate(self, capsys, fast_config,
                                                           protocol, flags):
        rates = []
        for noise in ("1e308", "inf"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, "rate", "--config", fast_config,
                                     "--protocol", protocol, *(f"{f}={noise}" for f in flags))
            assert (code, err, caught) == (0, "", [])
            rates.append([float(line.split(": ")[1]) for line in out.splitlines()
                          if line.startswith(("R1:", "R2:"))])
        assert rates[0] == pytest.approx(rates[1], abs=1e-12)
        assert min(rates[0]) > 0.5

    def test_tiny_relay_share_prints_no_warning(self, capsys, fast_config):
        # nu1 = 1e-320 makes the stream's noise bound overflow to +inf.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "rate", "--config", fast_config, "--protocol",
                                 "ef_bl", "--nu1", "1e-320", "--nu2", "0")
        assert (code, err, caught) == (0, "", [])
        assert "nwz: (inf, inf)" in out

    def test_ef_bl_given_noises_are_used(self, capsys, fast_config):
        code, out, _ = run(capsys, "rate", "--config", fast_config, "--protocol", "ef_bl",
                           "--nu1", "0.3", "--nu2", "0.6", "--nwz1", "1e6", "--nwz2", "2e6")
        assert code == 0
        assert "nwz: (1000000, 2000000)\n" in out


class TestOptimize:
    @pytest.mark.parametrize("protocol", ["af", "df", "ef-sl", "ef-bl", "ef_sl", "ef_bl"])
    def test_each_protocol(self, capsys, fast_config, protocol):
        code, out, _ = run(capsys, "optimize", "--config", fast_config,
                           "--protocol", protocol)
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["sum"]) == pytest.approx(
            float(fields["R1"]) + float(fields["R2"]), rel=1e-10)

    @pytest.mark.parametrize("command", ["rate", "optimize"])
    @pytest.mark.parametrize("alias, name", [("ef-bl", "ef_bl"), ("ef-sl", "ef_sl")])
    def test_old_spelling_is_an_alias(self, capsys, fast_config, command, alias, name):
        code, out, _ = run(capsys, command, "--config", fast_config, "--protocol", alias)
        assert code == 0 and out.startswith(f"protocol: {name}\n")
        assert run(capsys, command, "--config", fast_config, "--protocol", name)[1] == out

    def test_optimize_is_a_table_lookup(self, capsys, fast_config, monkeypatch):
        stub = (np.array([1.0]), np.array([2.0]), {"tau": (np.array([0.25]), np.array([0.75]))})
        monkeypatch.setitem(OPTIMIZERS, "df", lambda batch, config: stub)
        code, out, _ = run(capsys, "optimize", "--config", fast_config, "--protocol", "df")
        assert code == 0
        assert out == "protocol: df\ntau: (0.25, 0.75)\nR1: 1\nR2: 2\nsum: 3\n"

    def test_relay_taken_from_the_layout(self, capsys, tmp_path, monkeypatch):
        # 13.1 / d0 * d0 != 13.1 in floating point: the channel must come from
        # layout.relay itself, not from a round trip through units of d0.
        config = default_config()
        config = replace(config, layout=replace(config.layout, relay=(13.1, 0.0, 0.1)))
        path = tmp_path / "relay.json"
        path.write_text(json.dumps(config.to_dict()))
        seen = []
        stub = (np.array([1.0]), np.array([2.0]), {})
        monkeypatch.setitem(OPTIMIZERS, "af",
                            lambda batch, config: seen.append(batch.cell(0)) or stub)
        assert run(capsys, "optimize", "--config", str(path), "--protocol", "af")[0] == 0
        assert seen == [layout_to_channel(config.layout, config.P1, config.P2, config.Pr,
                                          config.N1, config.N2, config.Nr)]

    def test_unknown_protocol_exits_2(self, capsys, fast_config):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", fast_config, "--protocol", "cf"])
        assert exc.value.code == 2

    def test_af_optimum_beats_saturation_gain(self, capsys, fast_config):
        # `rate` without --gain evaluates at the saturation gain, which is
        # always inside the optimizer's feasible interval.
        code, opt_out, _ = run(capsys, "optimize", "--config", fast_config,
                               "--protocol", "af")
        _, fix_out, _ = run(capsys, "rate", "--config", fast_config,
                            "--protocol", "af")
        opt = dict(line.split(": ") for line in opt_out.strip().split("\n"))
        fix = dict(line.split(": ") for line in fix_out.strip().split("\n"))
        fixed_sum = float(fix["R1"]) + float(fix["R2"])
        assert float(opt["sum"]) >= fixed_sum - 1e-9


class TestNoiseBoundsAndBottleneck:
    """The cancelling config, whose noise bounds the subtraction A - |A_i|^2 /
    V_i took below zero (exit 2), gives the bounds mpmath gives, in every
    command; a bound that underflows to 0 exits 2 for EF-BL (a map names its
    first such cell), and a zero relay broadcast rate exits 1 for EF-SL alone."""

    @pytest.fixture
    def cancelling(self, tmp_path):
        path = tmp_path / "cancelling.json"
        path.write_text(json.dumps(cancelling_config().to_dict()))
        return str(path)

    @pytest.fixture
    def zero_bottleneck(self, tmp_path):
        path = tmp_path / "zero_bottleneck.json"
        path.write_text(json.dumps(replace(default_config(), **FAST_SWEEP, Pr=1e-15).to_dict()))
        return str(path)

    @staticmethod
    def printed(out: str) -> dict:
        return dict(line.split(": ") for line in out.strip().split("\n"))

    @staticmethod
    def cancelling_channel():
        c = cancelling_config()
        return layout_to_channel(c.layout, c.P1, c.P2, c.Pr, c.N1, c.N2, c.Nr)

    @pytest.mark.parametrize("command", ["rate", "optimize"])
    def test_single_level_bound_below_zero_exits_2(self, capsys, cancelling, command):
        # Named for the exit the subtraction gave: now 0, at mpmath's bound.
        code, out, err = run(capsys, command, "--config", cancelling, "--protocol", "ef_sl")
        assert code == 0 and err == ""
        exact = ef_exact(self.cancelling_channel(), 0.5, 0.5)["sl"][cancelling_config().r0_exponent]
        assert float(self.printed(out)["nwz"]) == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("argv", [["rate"], ["optimize"], ["optimize", "--pa", "optimal"]])
    def test_bi_level_bound_below_zero_exits_2(self, capsys, cancelling, argv):
        # Named for the exit the subtraction gave: now 0, at mpmath's bounds.
        code, out, err = run(capsys, *argv, "--config", cancelling, "--protocol", "ef_bl")
        assert code == 0 and err == ""
        fields = self.printed(out)
        nu, nwz = (ast.literal_eval(fields[k]) for k in ("nu", "nwz"))
        exact = ef_exact(self.cancelling_channel(), *nu)["bl"][BiScenario(fields["scenario"])]
        assert nwz == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("argv", [["map"], ["map", "--pa", "optimal"], ["slmap"]])
    def test_cancelling_sweep_gives_every_cell(self, capsys, tmp_path, argv):
        # The sweep x 0.2 to 0.6, y 0.2 to 0.4 at 0.2 d0 holds the cancelling
        # relay position (0.4, 0.2); every map refused all 6 cells.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(replace(cancelling_config(), x_min=0.2, x_max=0.6, y_min=0.2,
                                           y_max=0.4, resolution=0.2).to_dict()))
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 0 and err == "" and len(out.strip().split("\n")) == 1 + 6

    @pytest.fixture
    def tiny(self, tmp_path):
        # Every power and noise 1e-300: V_1 sigma_1^2 underflows, and so does
        # nwz1's bound where D1 cancels.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(replace(default_config(), P1=1e-300, P2=1e-300, Pr=1e-300,
                                           N1=1e-300, N2=1e-300, Nr=1e-300).to_dict()))
        return str(path)

    @pytest.mark.parametrize("command", ["rate", "optimize"])
    def test_bi_level_bound_underflowing_to_zero_exits_2(self, capsys, tiny, command):
        code, out, err = run(capsys, command, "--config", tiny, "--protocol", "ef_bl")
        assert (code, out, err) == (2, "", "error: nwz1 must be positive, got 0.0\n")

    @pytest.mark.parametrize("argv, bound", [(["map"], "nwz1"), (["slmap"], "nwz1"),
                                             (["map", "--pa", "optimal"], "nwz2")])
    def test_map_names_the_cell_of_a_bound_underflowing_to_zero(self, capsys, tiny, argv, bound):
        # The first cell in map order is refused, at its first refused split.
        code, out, err = run(capsys, *argv, "--config", tiny)
        assert (code, out, err) == (2, "", "error: ef_bl rate is NaN with the relay at "
                                           f"(-4.0, -3.0) d0: {bound} must be positive, got 0.0\n")

    @pytest.mark.parametrize("command", ["rate", "optimize"])
    def test_zero_bottleneck_exits_1(self, capsys, zero_bottleneck, command):
        code, out, err = run(capsys, command, "--config", zero_bottleneck, "--protocol", "ef_sl")
        assert (code, out, err) == (1, "", "infeasible: relay broadcast bottleneck rate is zero\n")

    def test_zero_bottleneck_slmap_scores_zero(self, capsys, zero_bottleneck):
        code, out, err = run(capsys, "slmap", "--config", zero_bottleneck, "--resolution", "0.5")
        rows = out.strip().split("\n")
        assert code == 0 and err == ""
        assert rows[0].split(",")[:3] == ["xr", "yr", "ef_sl"] and len(rows) == 1 + 3 * 2
        assert {row.split(",")[2] for row in rows[1:]} == {"0"}


class TestMaps:
    def test_map_schema_and_determinism(self, capsys, fast_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "map", "--config", fast_config, "--out", str(a))[0] == 0
        assert run(capsys, "map", "--config", fast_config, "--out", str(b))[0] == 0
        text = a.read_text()
        assert text == b.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "xr,yr,af,df,ef_bl,ef_sl,winner,bl_scenario"
        assert len(lines) == 1 + 3 * 2  # 3 x-points, 2 y-points

    @pytest.mark.parametrize("target", ["missing/x.csv", ".", "cfg.json/x.csv"])
    def test_unwritable_out_exits_2_before_computing(self, capsys, fast_config, tmp_path,
                                                     monkeypatch, target):
        def no_map(config):
            raise AssertionError("the map was computed")

        monkeypatch.setattr(cli, "dominance_map", no_map)
        path = str(tmp_path / target)
        with pytest.raises(OSError) as opened:
            open(path, "w")
        code, out, err = run(capsys, "map", "--pa", "optimal", "--out", path)
        assert code == 2 and out == ""
        assert err == f"error: {opened.value}\n"

    def test_failed_run_keeps_existing_out(self, capsys, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_text("kept\n")
        code, _, err = run(capsys, "map", "--resolution", "0", "--out", str(path))
        assert code == 2 and "resolution" in err
        assert path.read_text() == "kept\n"

    def test_slice_default_y(self, capsys, fast_config):
        code, out, _ = run(capsys, "slice", "--config", fast_config)
        lines = out.strip().split("\n")
        assert code == 0
        assert all(line.split(",")[1] == "0.5" for line in lines[1:])

    def test_slmap(self, capsys, fast_config):
        code, out, _ = run(capsys, "slmap", "--config", fast_config)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "xr,yr,ef_sl,ef_bl,bl_scenario,winner,frontier"
        assert {line.split(",")[5] for line in lines[1:]} <= {"sl", "bl"}

    def test_resolution_override(self, capsys, fast_config):
        code, out, _ = run(capsys, "map", "--config", fast_config,
                           "--resolution", "0.25")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 5 * 3

    def test_zero_resolution_exits_2(self, capsys, fast_config):
        code, out, err = run(capsys, "map", "--config", fast_config,
                             "--resolution", "0")
        assert code == 2 and out == ""
        assert "resolution" in err and "Traceback" not in err


    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_oversized_sweep_exits_2(self, capsys, tmp_path, monkeypatch, via):
        argv = ["--resolution", "1e-9"]
        if via == "config":
            data = default_config().to_dict()
            data["sweep"]["x_max"] = 1e9
            path = tmp_path / "wide.json"
            path.write_text(json.dumps(data))
            argv = ["--config", str(path)]

        def no_linspace(*args, **kwargs):
            raise AssertionError("a sweep axis was allocated")

        monkeypatch.setattr(np, "linspace", no_linspace)
        code, out, err = run(capsys, "map", *argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "cap is 1000000" in err

    def test_huge_point_count_is_printed_compactly(self, capsys):
        code, out, err = run(capsys, "map", "--resolution", "1e-300")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "cap is 1000000" in err and len(err) < 200, err


    @pytest.mark.parametrize("field", ["df_grid", "ef_grid"])
    def test_oversized_optimizer_grid_exits_2(self, capsys, tmp_path, monkeypatch, field):
        data = default_config().to_dict()
        data["pa_policy"] = "optimal"
        data["optimizer"][field] = 10**6
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(data))

        def no_linspace(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(np, "linspace", no_linspace)
        code, out, err = run(capsys, "map", "--config", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"{field} must be an integer from 2 to 125" in err


class TestDiscrete:
    def test_single_level_file(self, capsys, tmp_path):
        path = tmp_path / "single.fact"
        path.write_text(single_level_text())
        code, out, _ = run(capsys, "discrete", "--pmf", str(path))
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert fields["mode"] == "single"
        assert float(fields["R1_cap"]) >= 0
        assert fields["feasible"] in ("yes", "no")

    def test_bad_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.fact"
        path.write_text("mode single\n")
        code, _, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and "error" in err

    def test_truncated_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cut.fact"
        path.write_text("mode bi\nfactor x1\n")
        code, _, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and "unexpected end of file" in err
        assert "Traceback" not in err

    def test_truncated_probabilities_name_the_factor(self, capsys, tmp_path):
        path = tmp_path / "cut.fact"
        path.write_text("mode single\nfactor x1 : 3\n0.5 0.5\n")
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: factor 'x1': unexpected end of file\n"

    def test_oversized_joint_table_exits_2(self, capsys, tmp_path, monkeypatch):
        # A file of about 100 kB whose joint table would have 1.6e9 entries.
        size = dict(x1=2, x2=2, u1=100, u2=100, xr=2, y1=2, y2=2, yr=2, yh1=100, yh2=100)
        lines = ["mode bi"]
        for outs, conds in [("x1", ""), ("x2", ""), ("u1", ""), ("u2", ""),
                            ("xr", "u1,u2"), ("y1,y2,yr", "x1,x2,xr"),
                            ("yh1", "yr,u1"), ("yh2", "yr,u2")]:
            n_out = math.prod(size[v] for v in outs.split(","))
            n_cond = math.prod(size[v] for v in conds.split(",") if v)
            lines.append(f"factor {outs}" + (f" | {conds}" if conds else "") + " : "
                         + " ".join(str(size[v]) for v in outs.split(",")))
            lines.append(" ".join([repr(1 / n_out)] * (n_out * n_cond)))
        path = tmp_path / "huge.fact"
        path.write_text("\n".join(lines) + "\n")

        def no_einsum(*args, **kwargs):
            raise AssertionError("the joint table was built")

        monkeypatch.setattr(np, "einsum", no_einsum)
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "cap is 1000000" in err

    @pytest.mark.parametrize("text, factor, entries", [
        ("mode single\nfactor x1 : 100000000000000000000\n0.5 0.5\n", "x1", 10**20),
        # x2's numbers hold a word, so parsing them would fail another way.
        ("mode single\nfactor x1 : 1001\n" + "0.000999000999000999 " * 1001
         + "\nfactor x2 : 1000\nabc" + " 0.001" * 999 + "\n", "x2", 1001000),
    ])
    def test_oversized_header_refused_before_its_numbers(self, capsys, tmp_path,
                                                         text, factor, entries):
        path = tmp_path / "huge.fact"
        path.write_text(text)
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: factor '{factor}': table has {entries} entries, "
                       "cap is 1000000\n")

    def test_non_utf8_file_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "binary.fact"
        path.write_bytes(b"mode single\nfactor x1 : 2\n0.5 \xff0.5\n")
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 30\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "discrete", "--pmf", str(tmp_path / "nope"))
        assert code == 2

    @pytest.mark.parametrize("factor", ["x2", "y1,y2,yr | x1,x2,xr"])
    def test_nan_probability_exits_2(self, capsys, tmp_path, factor):
        lines = single_level_text().split("\n")
        row = next(i for i, line in enumerate(lines) if line.startswith(f"factor {factor} :"))
        lines[row + 1] = "nan " + lines[row + 1].split(" ", 1)[1]
        path = tmp_path / "nan.fact"
        path.write_text("\n".join(lines))
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "sum to 1" in err

    @pytest.mark.parametrize("size, probs, word", [("two", "0.5 0.5", "two"),
                                                   ("2", "0.5 abc", "abc")])
    def test_non_numeric_token_names_file_and_factor(self, capsys, tmp_path,
                                                     size, probs, word):
        path = tmp_path / "word.fact"
        path.write_text(f"mode single\nfactor x1 : {size}\n{probs}\n")
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"{path}: factor 'x1': " in err and f"'{word}'" in err

    def test_factor_declared_twice_exits_2(self, capsys, tmp_path):
        path = tmp_path / "twice.fact"
        path.write_text(single_level_text() + "factor x1 : 2\n0.9 0.1\n")
        code, out, err = run(capsys, "discrete", "--pmf", str(path))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "'x1' declared twice" in err


class TestErrors:
    def test_bad_config_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "map", "--config", str(path))
        assert code == 2 and "error" in err

    def test_seed_flag_removed(self, capsys, fast_config):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--config", fast_config, "--seed", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("discrete", "--config=cfg.json"), ("discrete", "--pa=optimal"),
        ("discrete", "--r0-exponent=1"), ("discrete", "--resolution=0.5"),
        ("rate", "--pa=optimal"), ("rate", "--resolution=0.5"),
        ("optimize", "--resolution=0.5"),
    ])
    def test_option_the_command_does_not_read_exits_2(self, capsys, command, flag):
        required = {"discrete": ["--pmf", "f.txt"]}.get(command, ["--protocol", "af"])
        with pytest.raises(SystemExit) as exc:
            main([command, *required, flag])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("flag", ["--nwz", "--nwz1", "--nwz2"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_non_positive_noise_exits_2(self, capsys, fast_config, flag, value):
        protocol = "ef_sl" if flag == "--nwz" else "ef_bl"
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--config", fast_config, "--protocol", protocol, f"{flag}={value}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: must be > 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, edits, named", [
        pytest.param("map", {("layout", "gamma"): 1000.0}, "at the relay, |h1r|^2 P1",
                     id="map-layout-gamma-1000.0"),
        pytest.param("map", {("layout", "gamma"): 1e308}, "gamma = 1e+308",
                     id="map-layout-gamma-1e+308"),
        pytest.param("map", {("layout", "d0"): 1e308}, "link h1r",
                     id="map-layout-d0-1e+308"),
        pytest.param("slmap", {("powers", "Pr"): 1e308}, "Pr = 1e+308",
                     id="slmap-powers-Pr-1e+308"),
        pytest.param("map", {("powers", "P1"): 1e308, ("powers", "Pr"): 1e308},
                     "P1 = 1e+308", id="map-powers-P1-Pr-1e+308"),
        # The channel is accepted, but the AF sum-rate polynomial overflows.
        pytest.param("map", {("noises", "Nr"): 1e154}, "Nr/N1", id="map-noises-Nr-1e+154"),
        pytest.param("map", {("noises", "N1"): 1e-300, ("noises", "N2"): 1e-300}, "P1/N1",
                     id="map-noises-N1-N2-1e-300"),
        pytest.param("optimize --protocol af", {("noises", "N1"): 1e-300,
                                                ("noises", "N2"): 1e-300}, "P1/N1",
                     id="optimize-af-noises-N1-N2-1e-300"),
        # Every power is in range, but a power-to-noise ratio is not: the
        # channel is refused before any protocol runs.
        *(pytest.param(command, {**{("powers", f): 1e-300 for f in ("P1", "P2")},
                                 ("powers", "Pr"): 1e153,
                                 **{("noises", f): 1e-300 for f in ("N1", "N2", "Nr")}},
                       "(|h11|^2 P1 + |h21|^2 P2 + |hr1|^2 Pr) / N1",
                       id=f"{command.replace(' --protocol ', '-')}-P-N-1e-300-Pr-1e+153")
          for command in ("optimize --protocol ef_sl", "optimize --protocol af", "map")),
        *(pytest.param(command, {**{("powers", f): 1e150 for f in ("P1", "P2")},
                                 ("powers", "Pr"): 1e-300,
                                 **{("noises", f): 1e-300 for f in ("N1", "N2", "Nr")}},
                       "(|h11|^2 P1 + |h21|^2 P2 + |hr1|^2 Pr) / N1",
                       id=f"{command.replace(' --protocol ', '-')}-P-1e+150-N-Pr-1e-300")
          for command in ("optimize --protocol df", "optimize --protocol ef_bl", "map")),
        pytest.param("optimize --protocol df", {("powers", "P1"): 1e150, ("powers", "P2"): 1e150,
                                                ("noises", "Nr"): 1e-300},
                     "at the relay, (|h1r|^2 P1 + |h2r|^2 P2) / Nr",
                     id="optimize-df-P-1e+150-Nr-1e-300"),
        pytest.param("map", {("powers", "P1"): 1e-300, ("powers", "P2"): 1e-300,
                             ("powers", "Pr"): 1e20, ("noises", "Nr"): 1e-300},
                     "saturation gain squared, Pr / (|h1r|^2 P1 + |h2r|^2 P2 + Nr)",
                     id="map-P-Nr-1e-300-Pr-1e+20"),
        # A relay 1e-100 above a source at gamma = 4 gives |h| = 2.5e201:
        # |h|^2 P = 6.25e102 passes every receiver row, but |h|^2 overflows.
        # The maps' sweep starts at y = 0, so its first cell sits over S2.
        *(pytest.param(command, {("layout", "epsilon"): 1e-100, ("layout", "gamma"): 4.0,
                                 ("layout", "relay"): [0.0, 0.0, 1e-100],
                                 **{("powers", f): 1e-300 for f in ("P1", "P2", "Pr")},
                                 **({("sweep", "y_min"): 0.0} if gain == "h2r" else {})},
                       f"{gain} = 2.5e+201+0j overflows a float in the rate formulas",
                       id=f"{command.replace(' --', '-').replace(' ', '-')}-{gain}-2.5e+201")
          for command, gain in (("rate --protocol af", "h1r"), ("rate --protocol df", "h1r"),
                                ("optimize --protocol af", "h1r"),
                                ("optimize --protocol df", "h1r"),
                                ("optimize --protocol df --pa optimal", "h1r"),
                                ("optimize --protocol ef_bl", "h1r"), ("map", "h2r"),
                                ("slmap", "h2r"))),
    ])
    def test_overflowing_config_exits_2(self, capsys, fast_config, command, edits, named):
        data = json.loads(Path(fast_config).read_text())
        for (section, field), value in edits.items():
            data[section][field] = value
        Path(fast_config).write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *command.split(), "--config", fast_config)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "overflows a float" in err and named in err, err
        # The checks run before any kernel divides, so numpy warns of nothing.
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["optimize --protocol ef_sl", "slmap"],
                             ids=["optimize-ef_sl-P-1e-290-N-1e-300", "slmap-P-1e-290-N-1e-300"])
    def test_tiny_source_powers_give_finite_rates(self, capsys, fast_config, command):
        # R_0 is about 1000 bits, so 2^(e R_0) overflows a float; the noise
        # bound max_i sigma_i^2 / (x (2 + x)), x = min_i |h_ri|^2 Pr / V_i near
        # 1e290, is about 1e-600 and rounds to 0, which is admissible.
        data = json.loads(Path(fast_config).read_text())
        data["powers"].update(P1=1e-290, P2=1e-290)
        data["noises"].update(N1=1e-300, N2=1e-300)
        Path(fast_config).write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *command.split(), "--config", fast_config)
        assert (code, err) == (0, "") and [str(w.message) for w in caught] == []
        if command == "slmap":
            rows = [row.split(",") for row in out.strip().split("\n")[1:]]
            assert len(rows) == 6 and all(math.isfinite(float(r[k])) for r in rows for k in (2, 3))
        else:
            fields = dict(line.split(": ") for line in out.strip().split("\n"))
            assert fields["nwz"] == "0" and math.isfinite(float(fields["sum"]))

    @pytest.mark.parametrize("field, value", [("relay", [0.0, 0.0, 10**400]), ("d0", "five")])
    def test_layout_field_error_keeps_its_message(self, capsys, fast_config, field, value):
        data = json.loads(Path(fast_config).read_text())
        data["layout"][field] = value
        Path(fast_config).write_text(json.dumps(data))
        code, out, err = run(capsys, "map", "--config", fast_config)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: layout.{field} must be a finite number, got "), err

    def test_af_overflow_leaves_other_protocols(self, capsys, fast_config):
        data = json.loads(Path(fast_config).read_text())
        data["noises"].update(N1=1e-300, N2=1e-300)
        Path(fast_config).write_text(json.dumps(data))
        code, out, err = run(capsys, "optimize", "--protocol", "df", "--config", fast_config)
        assert code == 0 and err == "" and "sum:" in out

    def test_large_af_gain_gives_a_result(self, capsys, fast_config):
        # The saturation gain is about 2e153, so AF's squares overflow unless
        # the powers go inside them.  DF and both EF variants run here too.
        data = json.loads(Path(fast_config).read_text())
        data["powers"].update(P1=1e-300, P2=1e-300, Pr=1e10)
        data["noises"]["Nr"] = 1e-300
        Path(fast_config).write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "optimize", "--protocol", "af", "--config", fast_config)
        assert (code, err) == (0, "") and [str(w.message) for w in caught] == []
        assert out.startswith("protocol: af\ngain: 1.99800554328e+153\nR1: 8.97050760986\n"), out

    @pytest.mark.parametrize("argv", [
        ("slice", "--y=inf"),
        ("slice", "--y=nan"),
        ("rate", "--protocol", "af", "--gain=inf"),
        ("rate", "--protocol", "df", "--tau2", "0.5", "--tau1=-inf"),
        ("rate", "--protocol", "ef_bl", "--nu2", "0.1", "--nu1=nan"),
    ])
    def test_non_finite_number_exits_2(self, capsys, fast_config, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", fast_config])
        flag = argv[-1].split("=")[0]
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [("optimize", "--protocol", "af"),
                                      ("rate", "--protocol", "df")])
    def test_path_loss_underflow_exits_2(self, capsys, fast_config, argv):
        # d / d0 = 1e-20 / 1e305 underflows to 0, so the relay gain overflows.
        data = json.loads(Path(fast_config).read_text())
        data["layout"].update(d0=1e305, epsilon=1e-20, relay=[0.0, 0.0, 1e-20])
        Path(fast_config).write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, "--config", fast_config)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "overflows a float" in err, err

    def test_slice_at_an_overflowing_y_exits_2_unwarned(self, capsys, fast_config):
        # y = 1e308 times d0 overflows; the relay is refused as channel_at refuses it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "slice", "--y", "1e308", "--config", fast_config)
        assert code == 2 and out == "" and "RuntimeWarning" not in err
        assert err == "error: layout.relay must be a finite number, got (-2.5, inf, 0.1)\n", err
        assert [str(w.message) for w in caught] == []

    def test_non_numeric_config_field_exits_2(self, capsys, fast_config):
        data = json.loads(Path(fast_config).read_text())
        data["powers"]["P1"] = "ten"
        Path(fast_config).write_text(json.dumps(data))
        code, out, err = run(capsys, "map", "--config", fast_config)
        assert code == 2 and out == ""
        assert "P1" in err and "Traceback" not in err


def _numeric_paths(node, path=()):
    """Paths to every number in a config dict, lists included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) else []
    return [p for key, child in items for p in _numeric_paths(child, path + (key,))]


def _fast_config_dict():
    return replace(default_config(), **FAST_SWEEP).to_dict()


FAST_PATHS = _numeric_paths(_fast_config_dict())


def _map_with(path, value):
    """(exit code, stderr) of ``map`` on the fast config with the key at
    ``path`` set to ``value``; numpy must warn of nothing."""
    data = _fast_config_dict()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "map.csv"
        cfg.write_text(json.dumps(data))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["map", "--config", str(cfg), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    path=st.sampled_from(FAST_PATHS),
    value=st.one_of(
        st.sampled_from(["ten", None, [1.0], True, False, math.nan, -math.inf, 1e308]),
        st.floats(min_value=-3.0, max_value=-1e-3),
        st.integers(min_value=-3, max_value=-1),
    ),
)
def test_fuzzed_config_never_raises(path, value):
    code, err = _map_with(path, value)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# Every whole layout point, section and top-level key of a config, each set
# to a value of the wrong kind.  An empty optional section is valid (its
# fields take their defaults), so it is left out.
_POINTS = [name for name in _LAYOUT_FIELDS
           if isinstance(getattr(default_config().layout, name), tuple)]
_TOP_KEYS = ["layout"] + [key for section, _, checks in _SECTIONS
                          for key in ([section] if section else checks)]
STRUCTURAL_PATHS = [("layout", point) for point in _POINTS] + [(key,) for key in _TOP_KEYS]
_OPTIONAL = {section for section, required, _ in _SECTIONS if section and not required}
STRUCTURAL_CASES = [(path, value) for path in STRUCTURAL_PATHS
                    for value in (5, None, True, "xy", [1.0], {})
                    if not (value == {} and path[-1] in _OPTIONAL)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(STRUCTURAL_CASES))
def test_fuzzed_config_structure_exits_2_naming_the_key(case):
    path, value = case
    code, err = _map_with(path, value)
    assert code == 2 and "Traceback" not in err, (path, value, err)
    if path[0] == "layout" and len(path) == 2:
        assert err.startswith(f"error: layout.{path[1]} "), (path, value, err)
    else:
        assert path[0] in err, (path, value, err)


# The values each ``rate`` flag is fuzzed with.  For every protocol, each
# subset of the flags that apply to it takes a fixed sample of them: all
# values of a lone flag, all (nu1, nu2) pairs, and 12 draws for the other
# subsets.  Two commands a split used to fail on come first.
RATE_VALUES = ["0", "0.5", "1", "-1", "2", "1e-320", "1e308", "-0", "inf", "nan"]


def _rate_cases(draws=12, seed=20):
    rng = random.Random(seed)
    cases = [("ef_bl", {"nu1": "-1", "nu2": "0.5"}), ("ef_bl", {"nu1": "1e308", "nu2": "0"})]
    for protocol in OPTIMIZERS:
        flags = [f for f, (protocols, _, _) in cli._RATE_FLAGS.items() if protocol in protocols]
        for subset in itertools.chain.from_iterable(
                itertools.combinations(flags, n) for n in range(len(flags) + 1)):
            if len(subset) < 2 or subset == ("nu1", "nu2"):
                values = itertools.product(RATE_VALUES, repeat=len(subset))
            else:
                values = dict.fromkeys(tuple(rng.choice(RATE_VALUES) for _ in subset)
                                       for _ in range(draws))
            cases += [(protocol, dict(zip(subset, v))) for v in values]
    return cases


def _split_error(protocol, flags):
    """The ``check_nu_split`` error a ``rate`` call must exit 2 with, or None:
    a given split outside [0, 1] or off the simplex, where every flag parses,
    no pair flag is alone, and (for DF) the cooperation degrees are valid."""
    try:
        given = {f: cli._RATE_FLAGS[f][1](v) for f, v in flags.items()}
    except (argparse.ArgumentTypeError, ValueError):
        return None
    alone = any((a in given) != (b in given) for a, b in (("nu1", "nu2"), ("nwz1", "nwz2")))
    if alone or "nu1" not in given or not all(0.0 <= given.get(t, 0.0) <= 1.0
                                              for t in ("tau1", "tau2")):
        return None
    try:
        check_nu_split(given["nu1"], given["nu2"])
    except ValueError as exc:
        return f"error: {exc}\n"
    return None


def test_fuzzed_rate_flags_exit_cleanly_naming_the_split():
    cases = _rate_cases()
    assert len(cases) > 300
    for protocol, flags in cases:
        argv = ["rate", "--protocol", protocol, *(f"--{f}={v}" for f, v in flags.items())]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse refuses a flag's value
                code = stop.code
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
        assert [str(w.message) for w in caught] == [], argv
        want = _split_error(protocol, flags)
        assert want is None or (code, err.getvalue()) == (2, want), (argv, err.getvalue())


FACTORIZATION_TOKENS = ["nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "1e400",
                        "|", ":", ",", "#", "factor", "mode", "single", "bi",
                        "x1", "x2", "xr", "u1", "yr", "yh", "yh1", "y1,y2,yr", "x1,x2,xr"]


@settings(max_examples=200, deadline=None)
@given(
    text=st.sampled_from([single_level_text(), bi_level_text()]),
    edits=st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert"]),
                             st.integers(min_value=0),
                             st.sampled_from(FACTORIZATION_TOKENS)),
                   min_size=1, max_size=4),
)
def test_fuzzed_factorization_never_raises(text, edits):
    tokens = text.split()
    for kind, index, token in edits:
        at = index % (len(tokens) + (kind == "insert"))
        if kind == "insert":
            tokens.insert(at, token)
        elif kind == "delete":
            del tokens[at]
        else:
            tokens[at] = token
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.fact"
        path.write_text(" ".join(tokens) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["discrete", "--pmf", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        fields = dict(line.split(": ") for line in out.getvalue().strip().split("\n"))
        for cap in ("R1_cap", "R2_cap"):
            assert math.isfinite(float(fields[cap])) and float(fields[cap]) >= 0, fields


def _readme_commands():
    """(argv, exit code) for every ``ircrates`` line of the README's command
    block; the exit code is the ``exit N`` of the line's comment, else 0."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "ircrates", line
        code = re.search(r"exit (\d)", comment)
        commands.append((argv[1:], int(code.group(1)) if code else 0))
    return commands


def test_readme_commands_run(capsys, fast_config, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "factorization.txt").write_text(single_level_text())
    for argv, expected in commands:
        if "--config" not in argv and argv[0] != "discrete":  # discrete reads no config
            argv = argv + ["--config", fast_config]
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, "Traceback" in err) == (expected, False), (argv, err)
