"""Each DF and AF search quantity has one form, held here to the code it
replaced with ``==``.

The DF rate of user i is C(min(relay SNR, SINR)) in one helper, ``df._rate``,
whose floats the search kernels form without its domain check; the top-split
stage ``df._top_scan`` reads the tau tables of ``df._user_tables`` for a fixed
split as for the optimal one, through the sum kernel it shares with
``_scored``; and ``af._best_gain`` scores every root as a column, set to 0
outside the box.  ``reference_kernels`` keeps the full scan that built its
tables from the channel and the scoring that compacted the roots.
"""

from dataclasses import replace

import numpy as np
import pytest

from ircrates import af, df
from ircrates.channel import ChannelBatch, capacity, nu_simplex
from ircrates.scenario import default_config

from conftest import anti_phase_channel, random_channel
from reference_kernels import af_best_gain_reference, df_full_scan_reference
from test_optimal_search import tie_across_rectangles_channel

GRIDS = [2, 3, 5, 11, 41, 125]


def default_map_channels(every: int = 61):
    config = default_config()
    cells = [(float(x), float(y)) for y in config.grid_y() for x in config.grid_x()]
    return [config.channel_at(x, y) for x, y in cells[::every]]


def channels(draw: str):
    rng = np.random.default_rng(25)
    if draw == "default_map":
        return default_map_channels()
    make = anti_phase_channel if draw == "anti_phase" else random_channel
    return [make(rng) for _ in range(14)]


def top_split(tables, k1, k2):
    """Each cell's top split, as ``_best_grid_point`` takes it: the first
    largest one-block (whole-grid) bound."""
    return (df._rect_bound(tables[0], [0], k1, k2, [0], [0])
            + df._rect_bound(tables[1], [0], k2, k1, [0], [0])).argmax(axis=1)


def assert_full_scan_matches(monkeypatch, batch, taus, nus, n1, n2):
    # The top-split stage at its own run size (a block whose grids fit one
    # run is scored whole) and at runs of one cell's grid, so that it
    # bounds the rectangles of every block of two cells or more.
    tables = [df._user_tables(batch.column(2), user, taus, nus) for user in (1, 2)]
    want = df_full_scan_reference(batch.column(), taus, nus[n1][:, None], nus[n2][:, None])
    for scan in (df._MAX_SCAN, len(taus) ** 2):
        monkeypatch.setattr(df, "_MAX_SCAN", scan)
        got = df._top_scan(tables, n1, n2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert (g == w).all()


@pytest.mark.parametrize("draw", ["anti_phase", "random", "default_map"])
@pytest.mark.parametrize("grid_points", GRIDS)
def test_full_scan_is_the_channel_scan(monkeypatch, draw, grid_points):
    batch = ChannelBatch.of(channels(draw) + [tie_across_rectangles_channel()])
    taus = np.linspace(0.0, 1.0, grid_points)
    zero = np.zeros(len(batch), dtype=int)
    for nu in [(0.5, 0.5), (0.3, 0.6), (0.0, 1.0), (1.0, 0.0)]:  # a fixed split: one pair
        nus, k1, k2 = nu_simplex(grid_points, nu)
        assert_full_scan_matches(monkeypatch, batch, taus, nus, k1[zero], k2[zero])
    # The optimal policy: each cell's top split by the one-block bound, as
    # _best_grid_point takes it, then a random split per cell.
    nus, k1, k2 = nu_simplex(grid_points)
    tables = [df._user_tables(batch.column(2), user, taus, nus) for user in (1, 2)]
    rng = np.random.default_rng(grid_points)
    for top in (top_split(tables, k1, k2), rng.integers(len(k1), size=len(batch))):
        assert_full_scan_matches(monkeypatch, batch, taus, nus, k1[top], k2[top])


@pytest.mark.parametrize("nu", [(0.5, 0.5), None], ids=["uniform", "optimal"])
def test_top_scan_on_the_default_map_and_the_fine_slice(monkeypatch, nu):
    # All 957 default cells and the 1,601 cells of criterion 8's slice (y =
    # 0.5 d0 at 0.005 d0), at the uniform split and at the optimal policy's
    # top split.  Many rectangles are never scored: the stage scores 21-57 %
    # of the full scan's points, counted with each rectangle's padding.
    config = default_config()
    fine = replace(config, resolution=0.005)
    taus = np.linspace(0.0, 1.0, 41)
    nus, k1, k2 = nu_simplex(41, nu)
    points, first_max = [], df._first_max
    monkeypatch.setattr(df, "_first_max", lambda *args: points.append(args[4].size
                                                                      * args[5].shape[1])
                        or first_max(*args))
    for positions in ([(float(x), float(y)) for y in config.grid_y() for x in config.grid_x()],
                      [(float(x), 0.5) for x in fine.grid_x()]):
        batch = config.channel_batch(positions)
        tables = [df._user_tables(batch.column(2), user, taus, nus) for user in (1, 2)]
        top = top_split(tables, k1, k2)
        points.clear()
        got = df._top_scan(tables, k1[top], k2[top])
        want = df_full_scan_reference(batch.column(), taus, nus[k1[top]][:, None],
                                      nus[k2[top]][:, None])
        assert all((g == w).all() for g, w in zip(got, want))
        assert 0 < sum(points) < 0.6 * len(batch) * 41 ** 2


def test_cells_of_a_block_keep_their_own_incumbents(monkeypatch):
    # Relay at (-1, 2) d0: the best-bound rectangle is tau blocks (1, 0),
    # and it holds the best point.  Relay at (-0.75, -2.75) d0: the
    # best-bound rectangle is (0, 0), below the other cell's sum rate, and
    # the best point lies in another rectangle.  Pruned against the other
    # cell's incumbent, that cell would keep its own; in one block, in
    # either order and beside a tie across rectangles, each cell gets what
    # it gets alone, the full scan's point.
    config = default_config()
    channels = [config.channel_at(-1.0, 2.0), config.channel_at(-0.75, -2.75)]
    taus = np.linspace(0.0, 1.0, 41)
    nus, k1, k2 = nu_simplex(41, (0.5, 0.5))
    starts, a = df._block_starts(41)[0], np.arange(4)
    monkeypatch.setattr(df, "_MAX_SCAN", 41 ** 2)  # a block of two is bounded
    for cells in (channels, channels[::-1], channels + [tie_across_rectangles_channel()]):
        zero, c = np.zeros(len(cells), dtype=int), np.arange(len(cells))[:, None, None]
        tables = [df._user_tables(ChannelBatch.of(cells).column(2), user, taus, nus)
                  for user in (1, 2)]
        bound = (df._rect_bound(tables[0], starts, zero[c], zero[c], a[:, None], a, c)
                 + df._rect_bound(tables[1], starts, zero[c], zero[c], a, a[:, None], c))
        incumbent = bound.reshape(len(cells), -1).argmax(axis=1)
        block = df._top_scan(tables, k1[zero], k2[zero])
        want = df_full_scan_reference(ChannelBatch.of(cells).column(), taus,
                                      nus[k1[zero]][:, None], nus[k2[zero]][:, None])
        for k in range(len(cells)):
            alone = df._top_scan([[x[k:k + 1] for x in t] for t in tables], k1[:1], k2[:1])
            assert block[0][k] == alone[0][0] == want[0][k]
            assert block[1][k] == alone[1][0] == want[1][k]
    # The last block begins with the two cells: (tau1 block, tau2 block) of
    # each incumbent and of each best point.
    value, flat = block
    best = [tuple(np.searchsorted(starts, np.divmod(f, 41), side="right") - 1) for f in flat[:2]]
    assert list(zip(*np.divmod(incumbent[:2], 4))) == [(1, 0), (0, 0)] and best == [(1, 0), (1, 1)]
    assert value[1] < value[0]


@pytest.mark.parametrize("grid_points", [3, 11])
def test_scored_is_the_full_scan_on_the_whole_grid(grid_points):
    # One _scored item over every tau point of a split reads the floats of
    # the top-split stage at that split: the same sum kernel forms both.
    batch = ChannelBatch.of(channels("random")[:6])
    taus = np.linspace(0.0, 1.0, grid_points)
    nus, k1, k2 = nu_simplex(grid_points)
    tables = [df._user_tables(batch.column(2), user, taus, nus) for user in (1, 2)]
    every = np.arange(grid_points)[None]
    for p in range(len(k1)):
        value, flat = df._top_scan(tables, np.full(len(batch), k1[p]), np.full(len(batch), k2[p]))
        for cell in range(len(batch)):
            t1, t2 = ([x[cell] for x in table] for table in tables)
            best = df._scored(t1, t2, k1, k2, np.array([p]), every, every, (-np.inf, 0, 0))
            assert best == (value[cell], p, flat[cell])


def candidate_roots(batch):
    """NaN-padded rows of six roots per cell, set against the cell's a_sat:
    0, 1, 2 and 6 inside (0, a_sat), a root equal to a_sat, repeated roots,
    roots at 0, below 0 and beyond a_sat, and the best point of a fine grid
    (so that an interior root wins in some cells)."""
    a_bar = af.saturation_gain(batch)
    grid = np.linspace(0.0, 1.0, 2001)[1:-1]
    scan = sum(af.af_rate(batch.column(), a_bar[:, None] * grid, user) for user in (1, 2))
    peak = a_bar * grid[scan.argmax(axis=1)]
    nan = np.nan
    fractions = [
        [nan] * 6,                               # padding only: 0 inside
        [-0.5, 0.0, 1.5, nan, nan, nan],         # 0 inside
        [0.25, nan, nan, nan, nan, nan],         # 1 inside
        [1.0, 0.5, nan, nan, nan, nan],          # a_sat itself, then 1 inside
        [-1.0, 0.3, 2.0, 0.7, nan, nan],         # 2 inside
        [0.1, 0.2, 0.4, 0.6, 0.8, 0.9],          # 6 inside
        [0.5, 0.5, 0.5, nan, nan, nan],          # repeated roots
    ]
    rows = []
    for k in range(len(batch)):
        row = a_bar[k] * np.array(fractions[k % len(fractions)])
        if k % 3 == 0:  # the grid's peak in the first free column
            free = np.flatnonzero(np.isnan(row))
            row[free[0] if len(free) else 5] = peak[k]
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("draw", ["anti_phase", "random", "default_map"])
def test_best_gain_is_the_compacting_scoring(draw):
    batch = ChannelBatch.of(channels(draw) * 2)  # each cell with two root rows
    roots = candidate_roots(batch)
    a_bar = af.saturation_gain(batch)
    assert ((roots == a_bar[:, None]).any(axis=1)).any()
    picked_root = False
    for width in (6, 2, 0):  # the sum rate's 6 roots, one user's 2, none
        for users in ((1, 2), (1,), (2,)):
            got = af._best_gain(batch, roots[:, :width], users)
            want = af_best_gain_reference(batch, roots[:, :width], users)
            assert len(got) == len(want) == 1 + len(users)
            for g, w in zip(got, want):
                assert g.shape == w.shape and (g == w).all()
            picked_root |= bool(((got[0] > 0.0) & (got[0] < a_bar)).any())
    assert picked_root  # some cell's best gain is a root inside the box


def test_best_gain_on_the_sum_rate_roots(monkeypatch):
    # The roots af_sum_rate_gain_batch finds (NaN-padded where a polynomial
    # has a lower degree) give what the compacting scoring gives.
    batch = ChannelBatch.of(default_map_channels(every=5) + channels("random"))
    real, seen = af._best_gain, []

    def spy(b, roots, users):
        seen.append(roots)
        return real(b, roots, users)

    monkeypatch.setattr(af, "_best_gain", spy)
    got = af.af_sum_rate_gain_batch(batch)
    inside = ((seen[0] > 0.0) & (seen[0] < af.saturation_gain(batch)[:, None])).sum(axis=1)
    assert set(inside.tolist()) >= {0, 1}
    for g, w in zip(got, af_best_gain_reference(batch, seen[0], (1, 2))):
        assert (g == w).all()


def rate_arrays():
    rng = np.random.default_rng(7)
    x = rng.exponential(size=(2, 200)) * 10.0 ** rng.integers(-3, 4, size=(2, 200))
    tied = np.repeat(rng.exponential(size=50), 2).reshape(2, 50)
    tiny = np.array([[0.0, 5e-324, 1e-310, 2.2e-308, 0.0], [5e-324, 0.0, 3e-310, 0.0, 1.0]])
    huge = np.array([[1e300, 3e300, 1.7e308, 1e-300], [2e300, 1e300, 1e308, 1e300]])
    return [x, tied, tiny, huge]


@pytest.mark.parametrize("case", range(4))
def test_rate_is_the_smaller_capacity(case):
    relay, sinr = rate_arrays()[case]
    want = np.minimum(capacity(relay), capacity(sinr))
    for got in (df._rate(relay, sinr), df._rate(relay[:, None], sinr[None, :]).diagonal()):
        assert got.tobytes() == want.tobytes()
    out = sinr.copy()
    assert df._rate(relay, out, out=out) is out and out.tobytes() == want.tobytes()
    out = sinr.copy()  # the search kernels' form, without capacity's domain check
    assert df._search_rate(relay, out, out) is out and out.tobytes() == want.tobytes()
    for a, b in zip(relay[:5], sinr[:5]):  # numpy scalars, as df_rate passes them
        got = df._rate(np.float64(a), np.float64(b))
        assert type(got) is float and got == min(capacity(a), capacity(b))


def test_rate_refuses_a_bad_sinr(monkeypatch):
    # The public df_rate keeps capacity's refusal of the SINR terms it forms.
    ch, params = default_config().channel_at(0.5, 0.5), df.DfParams(0.5, 0.5, 0.5, 0.5)
    for relay, sinr in [(1.0, -1e-300), (1.0, np.nan), (np.inf, np.inf), (-1.0, 2.0)]:
        monkeypatch.setattr(df, "_df_sinr_terms", lambda *args, r=relay, s=sinr: (r, s))
        with pytest.raises(ValueError, match="SINR must be finite and >= 0"):
            df.df_rate(ch, params, 1)
