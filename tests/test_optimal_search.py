"""The pruned DF scan and the broadcast EF-BL search return exactly what the
loops over every relay split return.

The references in ``reference_kernels`` score the splits one at a time; the
package bounds the DF splits and their tau rectangles and skips those that
cannot win, and evaluates the EF-BL simplex as arrays.  Every comparison of
results here is ``==``; the bounds are checked against the grid with ``>=``.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ircrates import af, df, ef, scenario
from ircrates.df import _sum_rate_grid
from ircrates.channel import ChannelBatch, ChannelInstance, capacity, nu_simplex
from ircrates.ef import EfBiParams
from ircrates.scenario import default_config

from conftest import anti_phase_channel, random_channel, symmetric_channel
from reference_kernels import (
    _df_scan_loop,
    df_rect_bound_reference,
    df_sum_rate_search_reference,
    df_user_bound_reference,
    ef_bi_eval_scalar,
    ef_bi_sum_rate_search_loop,
    ef_exact,
    per_cell,
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


def zero_noise_bound_channel() -> ChannelInstance:
    """The relay hears what D1 hears (h1r = h11, h2r = h21, Nr = N1), so
    h1r h21 - h2r h11 = 0 and sigma_1^2 = Nr + (A - Nr) N1 / V1 = 2e-20: the
    subtraction A - |A_1|^2 / V_1 rounded it, and with it nwz1's bound
    wherever D1 sees no relay interference, to 0."""
    return ChannelInstance(h11=1.0, h21=0.5, h1r=1.0, h2r=0.5, h12=0.3, h22=0.8,
                           hr1=0.7, hr2=0.6, P1=1.0, P2=1.0, Pr=1.0,
                           N1=1e-20, N2=1.0, Nr=1e-20)


def test_zero_noise_bound_raises_like_the_loop():
    # The search and the loop both stopped at the first zero bound; now they
    # return the same point, at mpmath's bounds, alone and after a good cell.
    ch = zero_noise_bound_channel()
    found = ef.ef_bi_sum_rate_search(ch, 11)
    assert found == ef_bi_sum_rate_search_loop(ch, 11)
    params, scenario_tag, _ = found
    exact = ef_exact(ch, params.nu1, params.nu2)
    assert ef.ef_derived(ch).sigma1_sq == pytest.approx(2e-20, rel=1e-15)
    assert (params.nwz1, params.nwz2) == pytest.approx(exact["bl"][scenario_tag], rel=1e-12, abs=0.0)
    good = default_config().channel_at(0.5, 0.5)
    columns = ef.ef_bi_sum_rate_search_batch(ChannelBatch.of([good, ch]), 11)
    assert per_cell("ef_bl", columns)[1] == found


@pytest.mark.parametrize("policy", ["uniform", "optimal"])
def test_zero_noise_bound_raises_on_the_map_path(policy):
    # After a good cell in the same block, under either policy, the map
    # scores the cell as the one-channel search does, which the map refused
    # when its bound rounded to 0.  Its rate is the rate at mpmath's bounds.
    config = replace(default_config(), pa_policy=policy, ef_grid=11)
    ch = zero_noise_bound_channel()
    batch = ChannelBatch.of([config.channel_at(0.5, 0.5), ch])
    cell = scenario._block_cells(config, np.array([(0.5, 0.5), (0.0, 0.0)]), batch)[1]
    params, tag, pair = (ef.ef_bi_eval(ch, *scenario.UNIFORM_NU) if policy == "uniform"
                         else ef.ef_bi_sum_rate_search(ch, 11))
    assert (cell.rates["ef_bl"], cell.bl_scenario) == (pair.sum, tag.value)
    exact = ef_exact(ch, params.nu1, params.nu2)["bl"][tag]
    at_exact = ef.ef_bi_rate(ch, EfBiParams(params.nu1, params.nu2, *exact), tag)
    assert pair.sum == pytest.approx(at_exact.sum, rel=1e-12)


def test_block_refuses_its_first_bad_cell():
    # zero_noise_bound_channel() beside the default channel at noises of
    # 1e-300, whose AF sum-rate polynomial overflows.  The first cell's EF-BL
    # bound no longer rounds to 0, so the block refuses the second cell, with
    # the error AF gives it alone, after the protocol and relay position.
    bad = overflowing_af_channel()
    with pytest.raises(ValueError) as alone:
        af.af_sum_rate_gain(bad)
    with pytest.raises(ValueError) as block:
        scenario._block_columns(default_config(), np.array([(0.0, 0.0), (0.5, 0.5)]),
                                ChannelBatch.of([zero_noise_bound_channel(), bad]))
    assert str(alone.value) == af._OVERFLOW
    assert str(block.value) == f"af rate is NaN with the relay at (0.5, 0.5) d0: {af._OVERFLOW}"


def overflowing_af_channel() -> ChannelInstance:
    """The default channel at (0.5, 0.5) d0 with every noise 1e-300: its AF
    sum-rate polynomial overflows, and every other protocol gives rates."""
    return replace(default_config().channel_at(0.5, 0.5), N1=1e-300, N2=1e-300, Nr=1e-300)


def underflowing_bound_channel() -> ChannelInstance:
    """Every power and noise 1e-300: V_1 sigma_1^2, about 4.5e-600, underflows
    to 0, so nwz1's bound, 9e-300 exactly, rounds to 0 where D1 cancels, as at
    the uniform split."""
    return ChannelInstance(h11=1.0, h12=0.5, h21=0.5, h22=1.0, h1r=1.0, h2r=1.0, hr1=1.0,
                           hr2=1.0, P1=1e-300, P2=1e-300, Pr=1e-300, N1=1e-300, N2=1e-300,
                           Nr=1e-300)


def test_bound_that_underflows_is_refused():
    # EfBiParams refuses a bound that is not > 0, as the loop does.
    ch = underflowing_bound_channel()
    assert ef.ef_bi_scenario(ch, 0.5, 0.5) is ef.BiScenario.D1_BETTER
    assert ef_exact(ch, 0.5, 0.5)["bl"][ef.BiScenario.D1_BETTER][0] == pytest.approx(9e-300)
    for run in (ef.ef_bi_eval, ef_bi_eval_scalar):
        with pytest.raises(ValueError, match=r"^nwz1 must be positive, got 0\.0$"):
            run(ch, 0.5, 0.5)


def test_refused_bound_marks_only_its_cell():
    # The search marks the refused cell with NaN rates and keeps the bounds
    # of its first refused split in simplex order, the split the loop
    # refuses; the cells around it are their batches of one.
    ch, good = underflowing_bound_channel(), default_config().channel_at(0.5, 0.5)
    with pytest.raises(ValueError, match=r"^nwz2 must be positive, got 0\.0$"):
        ef_bi_sum_rate_search_loop(ch, 11)
    columns = ef.ef_bi_sum_rate_search_batch(ChannelBatch.of([good, ch, good]), 11)
    n1, n2, _, w1, w2, r1, r2 = (c[1].item() for c in columns)
    assert np.isnan(r1) and np.isnan(r2) and w1 > 0.0 and w2 == 0.0
    with pytest.raises(ValueError, match=r"^nwz2 must be positive, got 0\.0$"):
        EfBiParams(n1, n2, w1, w2)
    grid, i1, i2 = nu_simplex(11)
    nwz = ef._bi_eval(ch, grid[i1], grid[i2])[1:3]
    first = np.flatnonzero(~((nwz[0] > 0) & (nwz[1] > 0)))[0]
    assert (n1, n2, w1, w2) == (grid[i1[first]], grid[i2[first]], nwz[0][first], nwz[1][first])
    alone = ef.ef_bi_sum_rate_search_batch(ChannelBatch.of([good]), 11)
    for k in (0, 2):
        assert [c[k].tobytes() for c in columns] == [c[0].tobytes() for c in alone]


@pytest.mark.parametrize("worker", [False, True], ids=["inline", "af-thread"])
@pytest.mark.parametrize("policy", ["uniform", "optimal"])
def test_block_refuses_in_map_order(monkeypatch, policy, worker):
    # An EF-BL bound refused in one cell and an AF overflow in the other: the
    # block raises the error of the first cell in map order, either way round,
    # whether AF runs inline or on its own thread, and after 300 good cells.
    if worker:
        monkeypatch.setattr(scenario, "_OVERLAP_CELLS", 1)
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
    config = replace(default_config(), pa_policy=policy)
    tiny, bad, good = underflowing_bound_channel(), overflowing_af_channel(), config.channel_at(0, 0)
    ef_bl = f"ef_bl: nwz{1 if policy == 'uniform' else 2} must be positive, got 0.0"
    for channels, (cell, error) in (([tiny, bad], (0, ef_bl)),
                                    ([bad, tiny], (0, f"af: {af._OVERFLOW}")),
                                    ([good] * 300 + [tiny, bad], (300, ef_bl))):
        protocol, reason = error.split(": ", 1)
        positions = np.array([(0, k) for k in range(len(channels))])
        with pytest.raises(ValueError) as raised:
            scenario._block_columns(config, positions, ChannelBatch.of(channels))
        assert str(raised.value) == (f"{protocol} rate is NaN with the relay at (0, {cell}) d0: "
                                     f"{reason}")


def test_eval_equals_broadcast_at_every_split(rng):
    grid, i1, i2 = nu_simplex(21)
    for _ in range(50):
        ch = random_channel(rng)
        scenario, nwz1, nwz2, r1, r2 = ef._bi_eval(ch, grid[i1], grid[i2])
        for k, (nu1, nu2) in enumerate(zip(grid[i1].tolist(), grid[i2].tolist())):
            params, sc, pair = ef.ef_bi_eval(ch, nu1, nu2)
            assert (params.nwz1, params.nwz2, sc, pair.r1, pair.r2) == (
                nwz1[k], nwz2[k], list(ef.BiScenario)[scenario[k]], r1[k], r2[k])


def tau_blocks(grid_points: int, level: int):
    """The scan's tau blocks at ``level`` on a grid (``df._block_starts``),
    and the index each begins at."""
    starts = df._block_starts(grid_points)[level]
    return np.split(np.arange(grid_points), starts[1:]), [int(k) for k in starts]


def rect_bounds(tables, ki, kj, starts):
    """User i's ``_rect_bound`` on every rectangle of the blocks at
    ``starts``, for every split, shaped (pairs, tau_i block, tau_j block)."""
    a = np.arange(len(starts))
    return df._rect_bound(tables, starts, ki[:, None, None], kj[:, None, None], a[:, None], a)


def split_bounds(tables, ki, kj):
    """User i's ``_rect_bound`` of each split on one block, the whole grid."""
    return df._rect_bound(tables, [0], ki, kj, [0], [0])


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_bound_covers_every_split(rng, draw):
    # Each split's bound covers its tau grid, and at every level each (split,
    # rectangle) bound covers the grid points of that rectangle.
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        nus = taus
        # The simplex edges nu1 = 0, nu2 = 0 and nu1 + nu2 = 1 are all scored.
        assert (k1 == 0).any() and (k2 == 0).any() and (k1 + k2 == grid_points - 1).any()
        levels = [tau_blocks(grid_points, level) for level in (0, 1)]
        assert [len(starts) for _, starts in levels] == [4, 8]
        assert all(len({len(block) for block in blocks}) == 2 for blocks, _ in levels)
        t1g, t2g = np.meshgrid(taus, taus, indexing="ij")
        for _ in range(15):
            ch = make(rng)
            tables = [df._user_tables(ch, i, taus, nus) for i in (1, 2)]
            bounds = split_bounds(tables[0], k1, k2) + split_bounds(tables[1], k2, k1)
            rects = [rect_bounds(tables[0], k1, k2, starts)
                     + rect_bounds(tables[1], k2, k1, starts).swapaxes(1, 2)
                     for _, starts in levels]
            for p in range(len(k1)):
                grid = _sum_rate_grid(ch, t1g, t2g, nus[k1[p]], nus[k2[p]])
                best = grid.max()
                assert bounds[p] >= best, (p, bounds[p], best)
                for (_, starts), rect in zip(levels, rects):
                    rect_best = np.maximum.reduceat(np.maximum.reduceat(grid, starts), starts,
                                                    axis=1)
                    assert (rect[p] >= rect_best).all(), (p, rect[p], rect_best)


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_bound_takes_the_max_before_capacity(rng, draw):
    # The bound is C of the largest quotient on the rectangle, at the least
    # interference over tau_j: division rounds monotonically, so dividing the
    # largest signal gives the floats of the largest quotient.  It is no
    # tighter than the bound that takes C at every tau_i before the max, over
    # the whole grid and over each rectangle of each level.
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        levels = [tau_blocks(grid_points, level) for level in (0, 1)]
        for _ in range(5):
            ch = make(rng)
            for user, ki, kj in ((1, k1, k2), (2, k2, k1)):
                relay, signal, interference = tables = df._user_tables(ch, user, taus, taus)
                whole = df_rect_bound_reference(tables, ki, kj, [0])[:, 0, 0]
                assert (whole == df_user_bound_reference(tables, ki, kj)).all()
                quotient = (signal[:, ki] / interference.min(axis=0)[kj]).max(axis=0)
                free = split_bounds(tables, ki, kj)
                assert (free == capacity(np.minimum(relay.max(), quotient))).all()
                assert (free >= whole).all()
                for blocks, starts in levels:
                    rects = rect_bounds(tables, ki, kj, starts)
                    tight = df_rect_bound_reference(tables, ki, kj, starts)
                    assert (rects >= tight).all()
                    for a, rows_i in enumerate(blocks):
                        for b, rows_j in enumerate(blocks):
                            floor = interference[rows_j].min(axis=0)[kj]
                            quotient = (signal[rows_i][:, ki] / floor).max(axis=0)
                            want = capacity(np.minimum(relay[rows_i].max(), quotient))
                            assert (rects[:, a, b] == want).all()


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_block_bound_covers_the_scan_children(rng, draw):
    # On every grid size, each level's block bound is at least the bound it
    # replaced (C at every tau_i, then the max), and the bound of each 2 x 2
    # child the scan forms is at least the grid maximum over that child.
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (2, 3, 5, 11, 21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        levels = df._block_starts(grid_points)
        assert len(levels) == 1 + (grid_points >= 8)
        for starts, child in zip(levels, levels[1:]):
            assert (child[::2] == starts).all()  # two children per block, nested
        t1g, t2g = np.meshgrid(taus, taus, indexing="ij")
        for _ in range(3):
            ch = make(rng)
            tables = [df._user_tables(ch, i, taus, taus) for i in (1, 2)]
            for starts in levels:
                for user, ki, kj in ((1, k1, k2), (2, k2, k1)):
                    bound = rect_bounds(tables[user - 1], ki, kj, starts)
                    assert (bound >= df_rect_bound_reference(tables[user - 1], ki, kj,
                                                             starts)).all()
            # At a floor of -inf every child is left: each rectangle of the
            # last level once per split.
            pair, a, b, bound = df._live_rects(*tables, k1, k2, np.arange(len(k1)), -np.inf,
                                               levels)
            starts = levels[-1]
            assert len(pair) == len(k1) * len(starts) ** 2
            for p in range(len(k1)):
                grid = _sum_rate_grid(ch, t1g, t2g, taus[k1[p]], taus[k2[p]])
                rect_best = np.maximum.reduceat(np.maximum.reduceat(grid, starts), starts, axis=1)
                mine = pair == p
                assert (bound[mine] >= rect_best[a[mine], b[mine]]).all()
                assert sorted(zip(a[mine], b[mine])) == [(i, j) for i in range(len(starts))
                                                         for j in range(len(starts))]


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


def test_scored_tie_keeps_smallest_pair_then_first_point(rng):
    # Items of different splits reach equal maxima in one _scored call: the
    # smallest pair wins, then its smallest flat tau index, wherever the
    # items stand in the call; an incumbent keeps its place in that order.
    ch = tie_across_rectangles_channel()  # every split's grid peaks on [0, 8]^2
    g = 11
    taus, k1, k2 = nu_simplex(g)
    tables = [df._user_tables(ch, user, taus, taus) for user in (1, 2)]
    t1g, t2g = np.meshgrid(taus, taus, indexing="ij")
    v = _sum_rate_grid(ch, t1g, t2g, taus[k1[0]], taus[k2[0]]).max()
    pairs = np.array([7, 3, 9, 3, 0])
    rows1 = np.array([[3, 4, 5], [4, 5, 6], [0, 1, 2], [2, 3, 4], [9, 10, 10]])
    rows2 = np.array([[3, 4, 5], [0, 1, 2], [0, 1, 2], [5, 6, 7], [9, 10, 10]])
    peaks = [_sum_rate_grid(ch, t1g, t2g, taus[k1[p]], taus[k2[p]])[np.ix_(r1, r2)].max()
             for p, r1, r2 in zip(pairs, rows1, rows2)]
    assert peaks[:4] == [v] * 4 and peaks[4] < v  # pair 0's item is off the peak

    def scored(best, items=slice(None)):
        return df._scored(*tables, k1, k2, pairs[items], rows1[items], rows2[items], best)

    win = (v, 3, 2 * g + 5)  # pair 3's second item, at (2, 5), before (4, 0)
    assert scored((-np.inf, 0, 0)) == win
    assert scored((-np.inf, 0, 0), slice(None, None, -1)) == win
    for best in [(v, 2, 120), (v, 3, 2 * g + 4), (np.nextafter(v, np.inf), 9, 0)]:
        assert scored(best) == best
    for best in [(v, 3, 2 * g + 6), (v, 4, 0), (np.nextafter(v, -np.inf), 0, 0)]:
        assert scored(best) == win
    # A smaller pair's peak wins at any flat index; in random draws the
    # winner is the largest (sum rate, -pair, -flat) of the items' points.
    pairs[0], rows1[0], rows2[0] = 1, [6, 7, 8], [8, 9, 10]
    assert scored((-np.inf, 0, 0)) == (v, 1, 6 * g + 8)
    for _ in range(20):
        ch = random_channel(rng)
        tables = [df._user_tables(ch, user, taus, taus) for user in (1, 2)]
        pairs = rng.integers(0, len(k1), 6)
        rows1, rows2 = (np.sort(rng.integers(0, g, (6, 3)), axis=1) for _ in range(2))
        points = [(_sum_rate_grid(ch, taus[i], taus[j], taus[k1[p]], taus[k2[p]]), p, i * g + j)
                  for p, r1, r2 in zip(pairs.tolist(), rows1.tolist(), rows2.tolist())
                  for i in r1 for j in r2]
        want = max(points, key=lambda x: (x[0], -x[1], -x[2]))
        assert scored((-np.inf, 0, 0)) == want


def loosen_bound(monkeypatch, pattern, splits, rects):
    """Patch ``df._rect_bound`` to add 1.0 on the later (or odd) splits at the
    levels ``splits``, and on the later (or odd) rectangles at the level
    ``rects``, a level named by its blocks per axis (1: the whole grid).
    Returns the patched function's calls per level, and the top-split
    stage's (of a block's tables, for all cells at once) as "top"."""
    tight, calls = df._rect_bound, Counter()

    def loose(tables, starts, ki, kj, a, b, cell=Ellipsis):
        level = len(starts)
        calls[level] += 1
        calls["top"] += cell is not Ellipsis
        bound = tight(tables, starts, ki, kj, a, b, cell)
        k = ki if pattern == "odd" else ki + kj
        if level in splits:
            bound = bound + np.where(k % 2 == 1 if pattern == "odd" else k > 5, 1.0, 0.0)
        if level == rects:
            bound = bound + np.where(b % 2 == 1 if pattern == "odd" else a + b > 2, 1.0, 0.0)
        return bound

    monkeypatch.setattr(df, "_rect_bound", loose)
    return calls


def assert_loosened_keeps_the_point(rng, monkeypatch):
    # One channel at a time, and the channels as one block under both
    # policies, at the top-split stage's own run size (where the block's
    # grids fit one run) and at runs of one grid (where it bounds them).
    config = default_config()
    corners = [config.channel_at(-4.0, -3.0), config.channel_at(4.0, 4.0)]
    draws = [symmetric_channel(rng) for _ in range(5)] + [random_channel(rng) for _ in range(5)]
    channels = corners + [tie_across_rectangles_channel()] + draws
    want = {nu: [df_sum_rate_search_reference(ch, 11, nu=nu) for ch in channels]
            for nu in (None, (0.5, 0.5))}
    assert [df.df_sum_rate_search(ch, 11) for ch in channels] == want[None]
    for scan in (df._MAX_SCAN, 11 ** 2):
        monkeypatch.setattr(df, "_MAX_SCAN", scan)
        for nu in want:
            got = df.df_sum_rate_search_batch(ChannelBatch.of(channels), 11, nu)
            assert per_cell("df", got) == want[nu]


@pytest.mark.parametrize("loosen", ["late_splits", "odd_splits", "late_rectangles",
                                    "odd_rectangles", "late_children", "odd_children"])
def test_any_valid_bound_keeps_the_point(rng, monkeypatch, loosen):
    # A looser bound is still a bound: it changes the order the splits and
    # rectangles are scored in, never the result.  Raising the bound of later
    # splits makes the scan meet a tie's larger index first, as in the
    # relay-limited corner cells, where every split scores the same.  Each
    # variant raises the later (or odd) splits at every level, so that tied
    # channels reach the rectangles, and the rectangle variants raise the
    # later (or odd) rectangles of the 4 x 4 parents or of their 8 x 8
    # children too, so that a tie within one split meets its later
    # rectangle first; the 4 x 4 variants loosen the top-split stage's
    # rectangles too, which then scores a later one as a cell's incumbent.
    # Each loosened level is read (the calls are counted).
    pattern, level = loosen.split("_")
    rects = {"splits": None, "rectangles": 4, "children": 8}[level]
    calls = loosen_bound(monkeypatch, pattern, (1, 4, 8), rects)
    assert_loosened_keeps_the_point(rng, monkeypatch)
    assert all(calls[level] > 0 for level in (1, 4, 8, "top")), calls


@pytest.mark.parametrize("draw", ["anti_phase", "random"])
def test_free_bound_covers_the_split_bound(rng, draw):
    # The tau-free bound of each split, which prunes first (the one-block
    # bound, for all the cells of a block at once), is the bound of each cell
    # alone and at least the per-split bound (C at every tau_i, then the max),
    # user by user.
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    for grid_points in (21, 41):
        taus, k1, k2 = nu_simplex(grid_points)
        channels = [make(rng) for _ in range(15)]
        cells = ChannelBatch.of(channels).column(2)
        for user, ki, kj in ((1, k1, k2), (2, k2, k1)):
            free = split_bounds(df._user_tables(cells, user, taus, taus), ki, kj)
            assert free.shape == (len(channels), len(ki))
            for ch, row in zip(channels, free):
                tables = df._user_tables(ch, user, taus, taus)
                assert (row == split_bounds(tables, ki, kj)).all()
                assert (row >= df_user_bound_reference(tables, ki, kj)).all()


@pytest.mark.parametrize("loosen", ["late_splits", "odd_splits"])
def test_any_valid_free_bound_keeps_the_point(rng, monkeypatch, loosen):
    # The tau-free bound picks the first incumbent and prunes before the
    # rectangles.  Raising it on later (or odd) splits makes such a split the
    # first incumbent, so the scan meets a tie's larger index first; in a
    # block, the previous cell's split is scored next if it could beat it.
    # Neither changes a result.
    calls = loosen_bound(monkeypatch, loosen.split("_")[0], (1,), None)
    assert_loosened_keeps_the_point(rng, monkeypatch)
    assert calls[1] > 0, calls


@pytest.mark.parametrize("grid_points, scan, most", [
    # The 8 x 8 tau blocks are 1 or 2 points wide at G = 11 and 2 or 3 at
    # G = 21, so a scan of 4 (9) scores one item per _scored call and 12
    # (27) three; at 3 G^2 the top-split stage scores a block of up to
    # three cells whole.
    (11, 4, 1), (11, 12, 3), (11, 3 * 11 ** 2, 90),
    (21, 9, 1), (21, 27, 3), (21, 3 * 21 ** 2, 147),
])
def test_any_chunk_size_keeps_the_point(rng, monkeypatch, grid_points, scan, most):
    # _MAX_SCAN sets every chunk of the search: the runs of rectangles of
    # the top-split stage (the 4 x 4 tau blocks, 2 to 6 points wide) and the
    # items per _scored call, where the first run with none that can win
    # ends the scan of those splits.  No run holds more than _MAX_SCAN
    # points, or one rectangle if it is wider.  No chunk size changes a
    # result, alone or in a block (12 default-map cells, a tie across
    # rectangles, 8 random draws).
    monkeypatch.setattr(df, "_MAX_SCAN", scan)
    runs, scored, first_max, kernel = [], df._scored, df._first_max, []

    def counted(t1, t2, k1, k2, pairs, rows1, rows2, best):
        runs.append(len(pairs))
        return scored(t1, t2, k1, k2, pairs, rows1, rows2, best)

    def points(t1, t2, n1, n2, rows1, rows2, cell=Ellipsis):
        kernel.append((len(rows1), rows1.shape[1] * rows2.shape[1], cell is not Ellipsis))
        return first_max(t1, t2, n1, n2, rows1, rows2, cell)

    monkeypatch.setattr(df, "_scored", counted)
    monkeypatch.setattr(df, "_first_max", points)
    config = default_config()
    cells = [(float(x), float(y)) for y in config.grid_y() for x in config.grid_x()]
    channels = ([config.channel_at(x, y) for x, y in cells[::80]]
                + [tie_across_rectangles_channel()] + [random_channel(rng) for _ in range(8)])
    want = [df_sum_rate_search_reference(ch, grid_points) for ch in channels]
    assert [df.df_sum_rate_search(ch, grid_points) for ch in channels] == want
    block = df.df_sum_rate_search_batch(ChannelBatch.of(channels), grid_points)
    assert per_cell("df", block) == want
    assert runs and max(runs) <= most, (len(runs), max(runs, default=0))
    assert all(items == 1 or items * each <= scan for items, each, _ in kernel)
    assert any(top for *_, top in kernel)  # the stage's runs are among them
