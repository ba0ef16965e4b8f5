"""The scripts in demos/ run, and the committed placement map is current."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ircrates
from ircrates.scenario import default_config, dominance_map, map_to_csv

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_placement_map_csv_is_current():
    cells = dominance_map(replace(default_config(), resolution=0.5))
    assert (DEMOS / "placement_map.csv").read_text() == map_to_csv(cells)


@pytest.mark.parametrize("script", ["relay_gain_story.py", "compression_tradeoff.py"])
def test_demo_runs(script):
    src = str(Path(ircrates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    assert out.stdout
