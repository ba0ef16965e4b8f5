import contextlib
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ircrates.channel import RatePair, layout_to_channel
from ircrates import cli
from ircrates.cli import main
from ircrates.scenario import OPTIMIZERS, default_config

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
        stub = (RatePair(1.0, 2.0), {"tau": (0.25, 0.75)})
        monkeypatch.setitem(OPTIMIZERS, "df", lambda batch, config: [stub])
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
        stub = (RatePair(1.0, 2.0), {})
        monkeypatch.setitem(OPTIMIZERS, "af",
                            lambda batch, config: seen.append(batch.cell(0)) or [stub])
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
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []


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
