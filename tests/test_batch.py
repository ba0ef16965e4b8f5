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
from ircrates.channel import ChannelBatch, nu_simplex
from ircrates.scenario import UNIFORM_NU, default_config, dominance_map

from conftest import anti_phase_channel, random_channel
from reference_kernels import (
    af_sum_rate_gain_scalar,
    af_sum_rate_polynomial_scalar,
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
    # The uniform kernels and the optimal DF and EF-BL searches.  The DF
    # search scores the split the previous cell chose first, so a cell's
    # work depends on its neighbour, but not its result.
    def kernels(batch):
        return {**batched(batch), "df_optimal": df.df_sum_rate_search_batch(batch, 11),
                "ef_bl_optimal": ef.ef_bi_sum_rate_search_batch(batch, 11)}

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


def test_df_block_tables_are_the_cell_tables():
    # The optimal DF search builds each user's tau tables for a chunk of
    # cells at once, from a (cells, 1, 1) view of the batch.
    rng = np.random.default_rng(17)
    channels = [make(rng) for _ in range(8) for make in (random_channel, anti_phase_channel)]
    taus, _, _ = nu_simplex(21)
    for user in (1, 2):
        block = df._user_tables(ChannelBatch.of(channels).column(2), user, taus, taus)
        for k, ch in enumerate(channels):
            cell = df._user_tables(ch, user, taus, taus)
            assert [x.shape[1:] for x in block] == [x.shape for x in cell]
            assert all((x[k] == y).all() for x, y in zip(block, cell))


@pytest.mark.parametrize("gamma", [2.0, 3.0, 3.7])
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
    if gamma in (2.0, 3.0):
        assert pow_not_square > 0  # these maps have such a gain


def test_infeasible_cell_scores_zero_alone():
    cells = [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5)]
    channels = [DEFAULT.channel_at(x, y) for x, y in cells]
    channels[1] = replace(channels[1], hr1=0.0)  # no relay broadcast to D1
    got = scenario._block_cells(DEFAULT, cells, ChannelBatch.of(channels))
    assert [c.infeasible for c in got] == [(), ("ef_sl",), ()]
    assert got[1].rates["ef_sl"] == 0.0 and got[0].rates["ef_sl"] > 0.0
    assert got == [evaluate_cell_scalar(DEFAULT, x, y, ch) for (x, y), ch in zip(cells, channels)]


def test_zero_length_relay_link_is_refused_as_for_its_cell():
    layout = replace(DEFAULT.layout, epsilon=0.0, relay=(0.0, 0.0, 0.0))
    config = replace(DEFAULT, layout=layout)
    s1, s2 = (0.0, 0.0), (-0.5, 0.0)  # the relay on S1, on S2 (units of d0)
    for cells in ([(1.0, 0.5), s1, s2], [(1.0, 0.5), s2, s1]):
        with pytest.raises(ValueError) as one:
            config.channel_at(*cells[1])
        with pytest.raises(ValueError) as block:
            config.channel_batch(cells)
        assert str(block.value) == str(one.value)
        assert "zero length" in str(one.value)


def mixed_af_channels(rng):
    """Random complex and anti-phase channels, and channels with h_r1 = 0,
    h_r2 = 0 or both: that user's m = p = s = 0, and the sum-rate
    polynomial's leading coefficient is 0."""
    channels = [make(rng) for _ in range(20) for make in (random_channel, anti_phase_channel)]
    silent = random_channel(rng)
    return channels + [replace(silent, hr1=0.0), replace(silent, hr2=0.0),
                       replace(silent, hr1=0.0, hr2=0.0)]


def assert_block_polynomials_are_per_cell(batch: ChannelBatch) -> np.ndarray:
    polys = af._sum_rate_polynomials(batch)
    want = [af_sum_rate_polynomial_scalar(batch.cell(k)) for k in range(len(batch))]
    assert polys.tobytes() == np.array(want).tobytes()  # every bit, zeros' signs too
    return polys


def test_af_block_coefficients_are_the_per_cell_polynomials():
    channels = mixed_af_channels(np.random.default_rng(14))
    polys = assert_block_polynomials_are_per_cell(ChannelBatch.of(channels))
    assert (polys[:, 0] == 0.0).sum() == 3  # the np.roots branch is taken
    assert af.af_sum_rate_gain_batch(ChannelBatch.of(channels)) == [
        af_sum_rate_gain_scalar(ch) for ch in channels]
    cells = positions(DEFAULT)
    for s in range(0, len(cells), scenario._MAX_CELLS):
        block = cells[s:s + scenario._MAX_CELLS]
        assert_block_polynomials_are_per_cell(DEFAULT.channel_batch(block))


def test_af_block_overflow_in_one_cell_raises():
    rng = np.random.default_rng(15)
    channels = [random_channel(rng) for _ in range(3)]
    channels[1] = replace(channels[1], N1=1e-300, N2=1e-300)
    with pytest.raises(ValueError) as raised:
        af.af_sum_rate_gain_batch(ChannelBatch.of(channels))
    assert str(raised.value) == af._OVERFLOW


@pytest.mark.parametrize("grid_points, nu", [
    *(pytest.param(g, UNIFORM_NU, id=str(g)) for g in (2, 3, 41, 125)),
    # Splits of one and two distinct values, a zero share, and values off
    # the tau grid.
    *(pytest.param(g, nu, id=f"{g}-{nu[0]}-{nu[1]}") for g in (2, 3, 41, 125)
      for nu in ((0.3, 0.6), (0.4, 0.4), (0.0, 1.0), (1.0, 0.0), (0.25, 0.75)))])
def test_df_fixed_split_chunks_are_the_scalar_search(grid_points, nu):
    # Blocks of 1, 7, 9 and 64 cells start, end and cross the edges of the
    # scan's chunks of df._MAX_SCAN points.
    rng = np.random.default_rng(16)
    channels = [make(rng) for _ in range(32) for make in (random_channel, anti_phase_channel)]
    want = [df_sum_rate_search_scalar(ch, grid_points, nu) for ch in channels]
    for size in (1, 7, 9, 64):
        got = df.df_sum_rate_search_batch(ChannelBatch.of(channels[:size]), grid_points, nu)
        assert got == want[:size]
