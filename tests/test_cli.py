import json

import numpy as np
import pytest

from ircrates.cli import main
from ircrates.scenario import default_config, save_config


@pytest.fixture
def fast_config(tmp_path):
    """A config whose map commands finish in well under a second."""
    from dataclasses import replace

    cfg = replace(default_config(), x_min=-0.5, x_max=0.5,
                  y_min=0.25, y_max=0.75, resolution=0.5)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestRate:
    def test_af(self, capsys, fast_config):
        code, out, _ = run(capsys, "rate", "--config", fast_config,
                           "--protocol", "af", "--gain", "0.3")
        assert code == 0
        assert out.startswith("protocol: af\n")
        assert "gain: 0.3\n" in out
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["R1"]) > 0 and float(fields["R2"]) > 0

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


class TestOptimize:
    @pytest.mark.parametrize("protocol", ["af", "df", "ef-sl", "ef-bl"])
    def test_each_protocol(self, capsys, fast_config, protocol):
        code, out, _ = run(capsys, "optimize", "--config", fast_config,
                           "--protocol", protocol)
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["sum"]) == pytest.approx(
            float(fields["R1"]) + float(fields["R2"]), rel=1e-10)

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


class TestDiscrete:
    def test_single_level_file(self, capsys, tmp_path):
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
        path = tmp_path / "single.fact"
        path.write_text(body)
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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "discrete", "--pmf", str(tmp_path / "nope"))
        assert code == 2


class TestErrors:
    def test_bad_config_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "map", "--config", str(path))
        assert code == 2 and "error" in err
