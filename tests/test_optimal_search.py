"""The pruned DF scan and the broadcast EF-BL search return exactly what the
loops over every relay split return.

The references in ``reference_kernels`` score the splits one at a time; the
package bounds the DF splits and their tau rectangles and skips those that
cannot win, and evaluates the EF-BL simplex as arrays.  Every comparison of
results here is ``==``; the bounds are checked against the grid with ``>=``.
"""

from dataclasses import replace

import numpy as np
import pytest

from ircrates import df, ef
from ircrates.df import _sum_rate_grid
from ircrates.channel import ChannelBatch, ChannelInstance, nu_simplex
from ircrates.scenario import default_config

from conftest import anti_phase_channel, random_channel, symmetric_channel
from reference_kernels import (
    _df_scan_loop,
    df_sum_rate_search_reference,
    df_user_bound_reference,
    ef_bi_sum_rate_search_loop,
)


def assert_searches_match(ch: ChannelInstance, grid_points: int):
    assert (df.df_sum_rate_search(ch, grid_points)
            == df_sum_rate_search_reference(ch, grid_points))
    assert (ef.ef_bi_sum_rate_search(ch, grid_points)
            == ef_bi_sum_rate_search_loop(ch, grid_points))


@pytest.mark.parametrize("grid_points", [11, 21, 41])
def test_ef_matches_loop_on_refinement_grids(rng, grid_points):
    # TestRefinementMatchesLoop's channels, where the DF search is held to
    # its loop: the default relay at (0.5, 0.5) d0 and three random draws.
    edge = default_config().channel_at(0.5, 0.5)
    for ch in [edge] + [random_channel(rng) for _ in range(3)]:
        assert (ef.ef_bi_sum_rate_search(ch, grid_points)
                == ef_bi_sum_rate_search_loop(ch, grid_points))


def test_matches_loops_on_default_map_cells():
    config = default_config()
    cells = [(float(x), float(y)) for y in config.grid_y() for x in config.grid_x()]
    assert len(cells) == 957
    for x, y in cells:
        assert_searches_match(config.channel_at(x, y), 11)


def test_matches_loops_on_random_channels():
    rng = np.random.default_rng(8)
    for k in range(300):
        assert_searches_match(random_channel(rng, real_gains=k % 2 == 1), 11)


def test_fixed_split_matches_loop(rng):
    for _ in range(20):
        ch = random_channel(rng)
        for nu in [(0.5, 0.5), (0.3, 0.6), (1.0, 0.0)]:
            assert (df.df_sum_rate_search(ch, 21, nu=nu)
                    == df_sum_rate_search_reference(ch, 21, nu=nu))


def test_silent_relay_keeps_first_split(rng):
    # With no relay-to-destination gain every split scores the same, and
    # both searches keep the first one, nu = (0, 0).
    for _ in range(5):
        ch = replace(random_channel(rng), hr1=0.0, hr2=0.0)
        assert_searches_match(ch, 11)
        params, _, _ = ef.ef_bi_sum_rate_search(ch, 11)
        assert (params.nu1, params.nu2) == (0.0, 0.0)


def test_zero_noise_bound_raises_like_the_loop():
    # The relay hears what D1 hears (h1r = h11, h2r = h21, Nr = N1), and the
    # noise is lost in round-off: nwz1's bound is 0 wherever D1 sees no relay
    # interference, which EfBiParams refuses at the first such split.
    ch = ChannelInstance(h11=1.0, h21=0.5, h1r=1.0, h2r=0.5, h12=0.3, h22=0.8,
                         hr1=0.7, hr2=0.6, P1=1.0, P2=1.0, Pr=1.0,
                         N1=1e-20, N2=1.0, Nr=1e-20)
    errors = []
    for search in (ef_bi_sum_rate_search_loop, ef.ef_bi_sum_rate_search):
        with pytest.raises(ValueError, match="nwz1 must be positive") as exc:
            search(ch, 11)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    # In a block, the good cell before it does not hide the error.
    good = default_config().channel_at(0.5, 0.5)
    with pytest.raises(ValueError, match="nwz1 must be positive") as exc:
        ef.ef_bi_sum_rate_search_batch(ChannelBatch.of([good, ch]), 11)
    assert str(exc.value) == errors[0]


def test_eval_equals_broadcast_at_every_split(rng):
    grid, i1, i2 = nu_simplex(21)
    for _ in range(50):
        ch = random_channel(rng)
        scenario, nwz1, nwz2, r1, r2 = ef._bi_eval(ch, grid[i1], grid[i2])
        for k, (nu1, nu2) in enumerate(zip(grid[i1].tolist(), grid[i2].tolist())):
            params, sc, pair = ef.ef_bi_eval(ch, nu1, nu2)
            assert (params.nwz1, params.nwz2, sc, pair.r1, pair.r2) == (
                nwz1[k], nwz2[k], list(ef.BiScenario)[scenario[k]], r1[k], r2[k])


def tau_blocks(grid_points: int):
    """Blocks of unequal widths on the 21- and 41-point tau grids (6/5/5/5,
    11/10/10/10), and the index each begins at."""
    blocks = np.array_split(np.arange(grid_points), df._TAU_BLOCKS)
    return blocks, [int(block[0]) for block in blocks]


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_bound_covers_every_split(rng, draw):
    # Each split's bound covers its tau grid, and each (split, rectangle)
    # bound covers the grid points of that rectangle.
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        nus = taus
        # The simplex edges nu1 = 0, nu2 = 0 and nu1 + nu2 = 1 are all scored.
        assert (k1 == 0).any() and (k2 == 0).any() and (k1 + k2 == grid_points - 1).any()
        blocks, starts = tau_blocks(grid_points)
        assert len({len(block) for block in blocks}) == 2
        t1g, t2g = np.meshgrid(taus, taus, indexing="ij")
        for _ in range(15):
            ch = make(rng)
            tables = [df._user_tables(ch, i, taus, nus) for i in (1, 2)]
            bounds = (df._user_bound(tables[0], k1, k2, [0])
                      + df._user_bound(tables[1], k2, k1, [0]))[:, 0, 0]
            rects = (df._user_bound(tables[0], k1, k2, starts)
                     + df._user_bound(tables[1], k2, k1, starts).swapaxes(1, 2))
            for p in range(len(k1)):
                grid = _sum_rate_grid(ch, t1g, t2g, nus[k1[p]], nus[k2[p]])
                best = grid.max()
                assert bounds[p] >= best, (p, bounds[p], best)
                rect_best = np.maximum.reduceat(np.maximum.reduceat(grid, starts), starts, axis=1)
                assert (rects[p] >= rect_best).all(), (p, rects[p], rect_best)


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_bound_takes_the_max_before_capacity(rng, draw):
    # C is monotone, so the max over tau_i taken before C gives the floats of
    # C at every tau_i and then the max: over the whole grid, and over each
    # rectangle (the reference on the tables cut to the rectangle's blocks).
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        blocks, starts = tau_blocks(grid_points)
        for _ in range(5):
            ch = make(rng)
            for user, ki, kj in ((1, k1, k2), (2, k2, k1)):
                relay, signal, interference = tables = df._user_tables(ch, user, taus, taus)
                whole = df._user_bound(tables, ki, kj, [0])[:, 0, 0]
                assert (whole == df_user_bound_reference(tables, ki, kj)).all()
                rects = df._user_bound(tables, ki, kj, starts)
                for a, rows_i in enumerate(blocks):
                    for b, rows_j in enumerate(blocks):
                        cut = relay[rows_i], signal[rows_i], interference[rows_j]
                        assert (rects[:, a, b] == df_user_bound_reference(cut, ki, kj)).all()


def test_symmetric_tie_keeps_first_split(rng):
    # On a symmetric channel the splits (a, b) and (b, a) score exactly the
    # same; both the scan and the loop keep the one first in simplex order.
    taus, k1, k2 = nu_simplex(21)
    t1g, t2g = np.meshgrid(taus, taus, indexing="ij")
    ties = 0
    for _ in range(20):
        ch = symmetric_channel(rng)
        cell = ChannelBatch.of([ch]).column()
        p, a, b, _ = (x[0] for x in df._best_grid_point(cell, taus, taus, k1, k2))
        point, _ = _df_scan_loop(ch, 21, None)
        assert [taus[a], taus[b], taus[k1[p]], taus[k2[p]]] == point
        n1, n2 = point[2:]
        if n1 != n2:
            best = _sum_rate_grid(ch, t1g, t2g, n1, n2).max()
            assert _sum_rate_grid(ch, t1g, t2g, n2, n1).max() == best
            assert n1 < n2  # (n2, n1) comes later: nu1 varies slowest
            ties += 1
        assert df.df_sum_rate_search(ch, 21) == df_sum_rate_search_reference(ch, 21)
    assert ties > 0


def tie_across_rectangles_channel() -> ChannelInstance:
    """A silent relay (h_r1 = h_r2 = 0) with strong source-relay links: each
    user's rate is its destination rate, the same float at every tau_i up to
    about 0.9, where the relay constraint starts to bind.  So every split
    reaches its maximum on a square of tau points over several rectangles."""
    return ChannelInstance(h11=1.0, h21=0.3, h1r=3.0, h2r=3.0, h12=0.3, h22=1.0,
                           hr1=0.0, hr2=0.0, P1=1.0, P2=1.0, Pr=1.0,
                           N1=1.0, N2=1.0, Nr=1.0)


@pytest.mark.parametrize("grid_points", [11, 21, 41])
def test_tie_across_rectangles_keeps_first_point(grid_points):
    # The relay-limited corner cells tie across splits, but each split there
    # peaks at one point, tau = (0, 0).  Here one split's maximum spans the
    # tau blocks, and the first point in row-major order still wins.
    ch = tie_across_rectangles_channel()
    taus, k1, k2 = nu_simplex(grid_points)
    t1g, t2g = np.meshgrid(taus, taus, indexing="ij")
    grid = _sum_rate_grid(ch, t1g, t2g, taus[k1[0]], taus[k2[0]])
    a, b = np.nonzero(grid == grid.max())
    assert min(a.max(), b.max()) > grid_points // 2  # over the middle of both axes
    cell = ChannelBatch.of([ch]).column()
    assert tuple(x[0] for x in df._best_grid_point(cell, taus, taus, k1, k2)[:3]) == (0, 0, 0)
    assert df.df_sum_rate_search(ch, grid_points) == df_sum_rate_search_reference(ch, grid_points)


@pytest.mark.parametrize("loosen", ["late_splits", "odd_splits",
                                    "late_rectangles", "odd_rectangles"])
def test_any_valid_bound_keeps_the_point(rng, monkeypatch, loosen):
    # A looser bound is still a bound: it changes the order the splits and
    # rectangles are scored in, never the result.  Raising the bound of later
    # splits makes the scan meet a tie's larger index first, as in the
    # relay-limited corner cells, where every split scores the same.  The
    # rectangle variants raise the later splits too, so that tied channels
    # reach the rectangles, and then the later (or odd) rectangles, so that a
    # tie within one split meets its later rectangle first.
    tight = df._user_bound

    def loose(tables, ki, kj, starts):
        k = ki if loosen == "odd_splits" else ki + kj
        pairs = np.where(k % 2 == 1 if loosen == "odd_splits" else k > 5, 1.0, 0.0)
        a, b = np.indices((len(starts), len(starts)))
        rects = np.where(b % 2 == 1 if loosen == "odd_rectangles" else a + b > 2, 1.0, 0.0)
        return (tight(tables, ki, kj, starts) + pairs[:, None, None]
                + (rects if loosen.endswith("rectangles") else 0.0))

    monkeypatch.setattr(df, "_user_bound", loose)
    config = default_config()
    corners = [config.channel_at(-4.0, -3.0), config.channel_at(4.0, 4.0)]
    draws = [symmetric_channel(rng) for _ in range(5)] + [random_channel(rng) for _ in range(5)]
    for ch in corners + [tie_across_rectangles_channel()] + draws:
        assert df.df_sum_rate_search(ch, 11) == df_sum_rate_search_reference(ch, 11)


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_free_bound_covers_the_split_bound(rng, draw):
    # The tau-free bound of each split, which prunes first, is at least the
    # per-split bound (C at every tau_i, then the max), user by user.
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        for _ in range(15):
            ch = make(rng)
            for user, ki, kj in ((1, k1, k2), (2, k2, k1)):
                tables = df._user_tables(ch, user, taus, taus)
                free = df._free_bound(tables, ki, kj)
                assert (free >= df_user_bound_reference(tables, ki, kj)).all()


@pytest.mark.parametrize("loosen", ["late_splits", "odd_splits"])
def test_any_valid_free_bound_keeps_the_point(rng, monkeypatch, loosen):
    # The tau-free bound picks the first incumbent and prunes before the
    # per-split bound.  Raising it on later (or odd) splits makes such a
    # split the first incumbent, so the scan meets a tie's larger index
    # first; in a block, the previous cell's split is scored next if it could
    # beat it.  Neither changes a result.
    tight = df._free_bound

    def loose(tables, ki, kj):
        k = ki if loosen == "odd_splits" else ki + kj
        return tight(tables, ki, kj) + np.where(k % 2 == 1 if loosen == "odd_splits" else k > 5,
                                                1.0, 0.0)

    monkeypatch.setattr(df, "_free_bound", loose)
    config = default_config()
    corners = [config.channel_at(-4.0, -3.0), config.channel_at(4.0, 4.0)]
    draws = [symmetric_channel(rng) for _ in range(5)] + [random_channel(rng) for _ in range(5)]
    channels = corners + [tie_across_rectangles_channel()] + draws
    want = [df_sum_rate_search_reference(ch, 11) for ch in channels]
    assert [df.df_sum_rate_search(ch, 11) for ch in channels] == want
    assert df.df_sum_rate_search_batch(ChannelBatch.of(channels), 11) == want
