"""The maps on random configs equal their per-cell references.

The other map tests hold the default geometry and a few fixed ones; here a
seeded Hypothesis draw varies the layout, d0, gamma and epsilon, the powers
and noises over many decades (down to where every rate is 0.0, so protocols
tie), both optimizer grids, the r0 exponent, the policy and the protocol
subset, each on a small sweep.  Every comparison is ``==``.
"""

from dataclasses import replace

from hypothesis import assume, given, settings, strategies as st

from ircrates import df, ef
from ircrates.channel import NodeLayout
from ircrates.scenario import PROTOCOL_ORDER, ScenarioConfig, dominance_map, sl_vs_bl_map

from reference_kernels import (
    df_sum_rate_search_reference,
    ef_bi_sum_rate_search_loop,
    evaluate_cell_scalar,
)

_POINT = st.tuples(*[st.floats(-15.0, 15.0)] * 2)


@st.composite
def configs(draw) -> ScenarioConfig:
    s1, s2, d1, d2 = (draw(_POINT) for _ in range(4))
    assume(s1 not in (d1, d2) and s2 not in (d1, d2))  # no zero-length direct link
    epsilon = draw(st.floats(0.01, 2.0))
    layout = NodeLayout(s1=s1, s2=s2, d1=d1, d2=d2, relay=(0.0, 0.0, epsilon),
                        d0=draw(st.floats(0.5, 20.0)), gamma=draw(st.floats(1.5, 4.0)),
                        epsilon=epsilon)
    # A common power scale from 1e-20 to 1e3 over unit-scale noises, and
    # each power and noise within two decades of its scale.
    scale = draw(st.floats(-20.0, 3.0))
    powers = {k: 10.0 ** (scale + draw(st.floats(-1.0, 1.0))) for k in ("P1", "P2", "Pr")}
    noises = {k: 10.0 ** draw(st.floats(-1.0, 1.0)) for k in ("N1", "N2", "Nr")}
    resolution = draw(st.floats(0.1, 1.5))
    x_min, y_min = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    protocols = draw(st.lists(st.sampled_from(PROTOCOL_ORDER), min_size=1, unique=True))
    config = ScenarioConfig(
        layout=layout, **powers, **noises, resolution=resolution,
        x_min=x_min, x_max=x_min + (nx - 1) * resolution,
        y_min=y_min, y_max=y_min + (ny - 1) * resolution,
        pa_policy=draw(st.sampled_from(("uniform", "optimal"))),
        df_grid=draw(st.integers(2, 30)), ef_grid=draw(st.integers(2, 30)),
        protocols=tuple(protocols), r0_exponent=draw(st.sampled_from((1, 2))))
    try:
        config.channel_batch([(x, y) for y in config.grid_y() for x in config.grid_x()])
    except ValueError:  # a relay link the path loss cannot represent
        assume(False)
    return config


def positions(config):
    return [(float(x), float(y)) for y in config.grid_y() for x in config.grid_x()]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=configs())
def test_maps_equal_their_cell_references(config):
    cells = positions(config)
    uniform = replace(config, pa_policy="uniform")
    assert dominance_map(uniform) == [evaluate_cell_scalar(uniform, x, y) for x, y in cells]

    optimal = replace(config, pa_policy="optimal", protocols=("df", "ef_bl"))
    for cell, (x, y) in zip(dominance_map(optimal), cells):
        ch = config.channel_at(x, y)
        params, pair = df_sum_rate_search_reference(ch, config.df_grid)
        assert df.df_sum_rate_search(ch, config.df_grid) == (params, pair)
        assert cell.rates["df"] == pair.sum
        found = ef_bi_sum_rate_search_loop(ch, config.ef_grid)
        assert ef.ef_bi_sum_rate_search(ch, config.ef_grid) == found
        assert (cell.rates["ef_bl"], cell.bl_scenario) == (found[2].sum, found[1].value)

    nx = len(config.grid_x())
    sl = sl_vs_bl_map(config)
    tags = [c.bl_scenario for c in sl]
    assert [c.frontier for c in sl] == [
        (k % nx > 0 and tags[k - 1] != tags[k]) or (k >= nx and tags[k - nx] != tags[k])
        for k in range(len(sl))]
