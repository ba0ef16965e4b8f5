"""Where should the relay stand?  A coarse protocol dominance map.

Evaluates amplify-, decode- and estimate-and-forward sum rates on a grid of
relay positions around the default node geometry and prints which protocol
wins each cell.  The map's CSV, at 0.5 d0 resolution (`ircrates map
--resolution 0.5`), is written next to this script as `placement_map.csv`.
"""

from dataclasses import replace
from pathlib import Path

from ircrates.scenario import default_config, dominance_map, map_to_csv

SYMBOL = {"af": "a", "df": "d", "ef_bl": "B", "ef_sl": "S"}

cfg = replace(default_config(), resolution=0.5)
cells = dominance_map(cfg)

nx = len(cfg.grid_x())
print("winner per cell (a = AF, d = DF, B = EF bi-level, S = EF single-level)")
print(f"x from {cfg.x_min} to {cfg.x_max} d0, y from {cfg.y_min} to "
      f"{cfg.y_max} d0, top row = largest y\n")
rows = [cells[i:i + nx] for i in range(0, len(cells), nx)]
for row in reversed(rows):
    print("  " + "".join(SYMBOL[c.winner] for c in row))

best = max(cells, key=lambda c: c.rates[c.winner])
print(f"\nbest cell: ({best.xr:+.2f}, {best.yr:+.2f}) d0, "
      f"{best.winner} at {best.rates[best.winner]:.4f} bits")

out = Path(__file__).with_name("placement_map.csv")
out.write_text(map_to_csv(cells))
print(f"CSV written to {out}")
