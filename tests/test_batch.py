"""The maps' batched kernels give every cell exactly what the one-channel
kernels gave it.

``reference_kernels`` keeps the AF, DF, EF-BL and EF-SL kernels of one
channel, and the per-cell map evaluation, as they were before the maps
evaluated blocks of relay positions.  Every comparison here is ``==``.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from ircrates import af, df, ef, scenario
from ircrates.channel import ChannelBatch
from ircrates.scenario import UNIFORM_NU, default_config, dominance_map

from conftest import random_channel
from reference_kernels import (
    af_sum_rate_gain_scalar,
    df_sum_rate_search_scalar,
    ef_bi_eval_scalar,
    ef_sl_min_noise_scalar,
    ef_sl_rate_scalar,
    evaluate_cell_scalar,
)

DEFAULT = default_config()
SLICE = replace(DEFAULT, resolution=0.005)  # criterion 8's slice, at y = 0.5 d0


def positions(config, y=None):
    ys = config.grid_y() if y is None else [y]
    return [(float(x), float(y)) for y in ys for x in config.grid_x()]


def batched(batch: ChannelBatch) -> dict:
    """Each uniform-policy kernel's operating points and rates, per cell."""
    return {"af": af.af_sum_rate_gain_batch(batch),
            "df": df.df_sum_rate_search_batch(batch, 41, UNIFORM_NU),
            "ef_bl": ef.ef_bi_sum_rate_search_batch(batch, nu=UNIFORM_NU),
            "ef_sl": ef.ef_sl_batch(batch)}


def scalar(channels) -> dict:
    def sl(ch):
        nwz = ef_sl_min_noise_scalar(ch)
        return nwz, ef_sl_rate_scalar(ch, nwz)

    return {"af": [af_sum_rate_gain_scalar(ch) for ch in channels],
            "df": [df_sum_rate_search_scalar(ch, 41, UNIFORM_NU) for ch in channels],
            "ef_bl": [ef_bi_eval_scalar(ch, *UNIFORM_NU) for ch in channels],
            "ef_sl": [sl(ch) for ch in channels]}


def assert_cells_match(got: dict, want: dict):
    for protocol in want:
        bad = [k for k, (g, w) in enumerate(zip(got[protocol], want[protocol])) if g != w]
        assert len(got[protocol]) == len(want[protocol]) and bad == [], (protocol, bad[:5])


def test_default_map_cells_in_one_batch():
    cells = positions(DEFAULT)
    assert len(cells) == 957
    channels = [DEFAULT.channel_at(x, y) for x, y in cells]
    assert_cells_match(batched(DEFAULT.channel_batch(cells)), scalar(channels))
    assert dominance_map(DEFAULT) == [evaluate_cell_scalar(DEFAULT, x, y) for x, y in cells]


def test_slice_cells_in_one_batch():
    cells = positions(SLICE, y=0.5)
    assert len(cells) == 1601
    channels = [SLICE.channel_at(x, y) for x, y in cells]
    assert_cells_match(batched(SLICE.channel_batch(cells)), scalar(channels))


def test_random_channels_in_one_batch():
    rng = np.random.default_rng(10)
    channels = [random_channel(rng, real_gains=k % 2 == 1) for k in range(300)]
    assert_cells_match(batched(ChannelBatch.of(channels)), scalar(channels))


def test_batch_composition_does_not_matter():
    def kernels(batch):  # the uniform kernels and the optimal EF-BL search
        return {**batched(batch), "ef_bl_optimal": ef.ef_bi_sum_rate_search_batch(batch, 11)}

    rng = np.random.default_rng(11)
    channels = [random_channel(rng, real_gains=k % 2 == 1) for k in range(20)]
    channels += [DEFAULT.channel_at(x, y) for x, y in positions(DEFAULT)[::50]]
    whole = kernels(ChannelBatch.of(channels))
    ones = [kernels(ChannelBatch.of([ch])) for ch in channels]
    assert_cells_match(whole, {p: [one[p][0] for one in ones] for p in whole})
    order = list(range(len(channels)))
    random.Random(12).shuffle(order)
    shuffled = kernels(ChannelBatch.of([channels[k] for k in order]))
    assert_cells_match({p: [shuffled[p][order.index(k)] for k in range(len(order))]
                        for p in shuffled}, whole)


@pytest.mark.parametrize("gamma", [2.0, 3.7])
def test_batch_gains_are_channel_at_gains(gamma):
    config = replace(DEFAULT, layout=replace(DEFAULT.layout, gamma=gamma))
    cells = positions(config)
    batch = config.channel_batch(cells)
    pow_not_square = 0
    for k, (x, y) in enumerate(cells):
        ch = config.channel_at(x, y)
        for name in ("P1", "P2", "Pr", "N1", "N2", "Nr"):
            assert getattr(batch, name)[k] == getattr(ch, name)
        for name in ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2"):
            h = complex(getattr(ch, name))
            assert getattr(batch, name)[k] == h
            # |h|^2 is Python's abs(h) ** 2 (libm pow), not |h| * |h|.
            assert batch._g(name)[k] == abs(h) ** 2
            pow_not_square += abs(h) ** 2 != abs(h) * abs(h)
    if gamma == 2.0:
        assert pow_not_square > 0  # the default map has such a gain


def test_infeasible_cell_scores_zero_alone():
    cells = [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5)]
    channels = [DEFAULT.channel_at(x, y) for x, y in cells]
    channels[1] = replace(channels[1], hr1=0.0)  # no relay broadcast to D1
    got = scenario._block_cells(DEFAULT, cells, ChannelBatch.of(channels))
    assert [c.infeasible for c in got] == [(), ("ef_sl",), ()]
    assert got[1].rates["ef_sl"] == 0.0 and got[0].rates["ef_sl"] > 0.0
    assert got == [evaluate_cell_scalar(DEFAULT, x, y, ch) for (x, y), ch in zip(cells, channels)]
