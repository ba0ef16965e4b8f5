"""The maps' batched kernels give every cell exactly what the one-channel
kernels gave it.

``reference_kernels`` keeps the AF, DF, EF-BL and EF-SL kernels of one
channel, and the per-cell map evaluation, as they were before the maps
evaluated blocks of relay positions.  Every comparison with them here is
``==``; EF's noise terms are also held to their mpmath definitions
(``reference_kernels.ef_exact``).
"""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ircrates import af, df, ef, scenario
from ircrates.channel import (_GAINS, _MAX_POWER, _POWERS, ChannelBatch, ChannelInstance,
                              _path_losses, _square, layout_to_channel, nu_simplex, path_loss_gain)
from ircrates.scenario import UNIFORM_NU, default_config, dominance_map, sl_vs_bl_map

from conftest import anti_phase_channel, cancelling_config, random_channel, refusal_order_config
from reference_kernels import (
    af_sum_rate_gain_scalar,
    af_sum_rate_polynomial_scalar,
    df_sum_rate_search_scalar,
    ef_bi_eval_scalar,
    ef_exact,
    ef_noise_terms,
    ef_sl_min_noise_scalar,
    ef_sl_rate_scalar,
    evaluate_cell_scalar,
    per_cell,
    poly_product,
)

DEFAULT = default_config()
SLICE = replace(DEFAULT, resolution=0.005)  # criterion 8's slice, at y = 0.5 d0


def positions(config, y=None):
    ys = config.grid_y() if y is None else [y]
    return [(float(x), float(y)) for y in ys for x in config.grid_x()]


def batched(batch: ChannelBatch) -> dict:
    """Each uniform-policy kernel's operating points and rates, per cell."""
    return {"af": per_cell("af", af.af_sum_rate_gain_batch(batch)),
            "df": per_cell("df", df.df_sum_rate_search_batch(batch, 41, UNIFORM_NU)),
            "ef_bl": per_cell("ef_bl", ef.ef_bi_sum_rate_search_batch(batch, nu=UNIFORM_NU)),
            "ef_sl": per_cell("ef_sl", ef.ef_sl_batch(batch))}


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
        return {**batched(batch),
                "df_optimal": per_cell("df", df.df_sum_rate_search_batch(batch, 11)),
                "ef_bl_optimal": per_cell("ef_bl", ef.ef_bi_sum_rate_search_batch(batch, 11))}

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


@pytest.mark.parametrize("gamma", [2.0, 2.5, 3.0, 3.7, 4.0])
def test_batch_gains_are_channel_at_gains(gamma):
    # numpy's power gives a relay gain the same bits on the block's (4, n)
    # array as on layout_to_channel's array of eight.
    config = replace(DEFAULT, layout=replace(DEFAULT.layout, gamma=gamma))
    cells = positions(config)
    batch = config.channel_batch(cells)
    # The map's (n, 2) array of positions gives the same bytes as the pairs.
    from_array = config.channel_batch(scenario._grid(config))
    assert batch.__dict__.keys() == from_array.__dict__.keys()
    assert all(v.tobytes() == from_array.__dict__[k].tobytes() for k, v in batch.__dict__.items())
    # The block keeps each shared field once: the powers, noises and planar
    # gains with their squares; the relay gains and squares are per cell.
    relay = ("h1r", "h2r", "hr1", "hr2")
    sizes = {k: v.size for k, v in batch.__dict__.items()}
    assert len(sizes) == 22 and len(batch) == len(cells)
    assert sizes == {k: len(cells) if k.removeprefix("_g") in relay else 1 for k in sizes}
    fields = {k: np.broadcast_to(v, len(batch)) for k, v in batch.__dict__.items()}
    for k, (x, y) in enumerate(cells):
        ch = config.channel_at(x, y)
        assert batch.cell(k) == ch
        for name in _POWERS:
            assert fields[name][k] == getattr(ch, name)
        for name in _GAINS:
            h = complex(getattr(ch, name))
            assert fields[name][k] == h
            assert fields["_g" + name][k] == ch._g(name) == abs(h) * abs(h)


def block_columns(batch: ChannelBatch) -> list:
    """The bytes of every column of each kernel over ``batch``: AF, DF and EF-BL
    at the uniform and the optimal split, and EF-SL."""
    runs = (af.af_sum_rate_gain_batch(batch), ef.ef_sl_batch(batch),
            df.df_sum_rate_search_batch(batch, 41, UNIFORM_NU),
            df.df_sum_rate_search_batch(batch, 11),
            ef.ef_bi_sum_rate_search_batch(batch, nu=UNIFORM_NU),
            ef.ef_bi_sum_rate_search_batch(batch, 11))
    return [[c.tobytes() for c in columns] for columns in runs]


@pytest.mark.parametrize("name", _GAINS + _POWERS)
def test_one_field_per_cell(name):
    # A block whose one field varies over its cells, every other field shared
    # as one element, gives the bytes of the same channels given per cell, and
    # refuses the same first bad cell.
    base = DEFAULT.channel_at(0.5, 0.5)
    shared = {n: getattr(base, n) for n in _GAINS + _POWERS}
    factors = [0.5, 1.0, 2.0, 1j, -0.75 + 0.25j] if name in _GAINS else [0.5, 1.0, 2.0, 4.0, 0.25]
    values = [shared[name] * f for f in factors]
    batch = ChannelBatch(**{**shared, name: values})
    assert len(batch) == 5 and batch.P1.size == (5 if name == "P1" else 1)
    assert block_columns(batch) == block_columns(
        ChannelBatch.of([replace(base, **{name: v}) for v in values]))
    bad = values[:2] + [math.inf, values[3], math.nan]  # cells 2 and 4 are bad
    other = "Nr" if name == "Pr" else "Pr"
    for cells in ({**shared, name: bad}, {**shared, other: math.inf, name: values}):
        with pytest.raises(ValueError) as one_each:
            ChannelBatch(**{n: np.broadcast_to(v, 5) for n, v in cells.items()}).validate()
        with pytest.raises(ValueError) as got:
            ChannelBatch(**cells).validate()
        assert str(got.value) == str(one_each.value)
    # A bad shared value refuses cell 0.
    with pytest.raises(ValueError) as first:
        replace(base, **{name: values[0], other: math.inf})
    assert str(got.value) == str(first.value)


def test_infeasible_cell_scores_zero_alone():
    cells = [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5)]
    channels = [DEFAULT.channel_at(x, y) for x, y in cells]
    channels[1] = replace(channels[1], hr1=0.0)  # no relay broadcast to D1
    positions = np.array(cells)
    got = scenario._map_table(positions, *scenario._block_columns(
        DEFAULT, positions, ChannelBatch.of(channels)))
    assert [c.infeasible for c in got] == [(), ("ef_sl",), ()]
    assert got[1].rates["ef_sl"] == 0.0 and got[0].rates["ef_sl"] > 0.0
    assert got == [evaluate_cell_scalar(DEFAULT, x, y, ch) for (x, y), ch in zip(cells, channels)]


def test_single_level_marks_zero_bottleneck_cells_nan():
    # R_0 = 0 wherever the relay cannot reach D1; those cells alone are NaN,
    # and every other cell keeps the columns of its batch of one.
    channels = [DEFAULT.channel_at(x, 0.5) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    for k in (0, 3):
        channels[k] = replace(channels[k], hr1=0.0)
    r0 = ef._sl_min_noise(ChannelBatch.of(channels), 2)[0]
    columns = ef.ef_sl_batch(ChannelBatch.of(channels))
    for c in columns:
        assert np.isnan(c).tolist() == (r0 == 0.0).tolist() == [True, False, False, True, False]
    for k, ch in enumerate(channels):
        if r0[k] > 0.0:
            alone = ef.ef_sl_batch(ChannelBatch.of([ch]))
            assert [c[k] for c in columns] == [c[0] for c in alone]


def test_single_level_refuses_a_bound_below_zero_beside_a_zero_bottleneck():
    # The cancelling relay's bound, which the subtraction form took below
    # zero and refused, is its mpmath value beside a zero-bottleneck cell.
    c = cancelling_config()
    below = layout_to_channel(c.layout, c.P1, c.P2, c.Pr, c.N1, c.N2, c.Nr)
    columns = ef.ef_sl_batch(ChannelBatch.of([replace(DEFAULT.channel_at(0.0, 0.5), hr1=0.0), below]))
    assert np.isnan([col[0] for col in columns]).all()
    assert [col[1] for col in columns] == [col[0] for col in ef.ef_sl_batch(ChannelBatch.of([below]))]
    assert columns[0][1] == pytest.approx(ef_exact(below, 0.5, 0.5)["sl"][2], rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("y_min, first", [(-0.5, "received at D1"), (0.0, "zero length")],
                         ids=["overflow-first", "zero-length-first"])
@pytest.mark.parametrize("run", [dominance_map, sl_vs_bl_map])
def test_map_refuses_its_first_bad_position(run, y_min, first):
    # A channel check at (2.0, -0.5) before the zero-length links on the
    # y = 0 row, or, from y = 0, a zero-length link before an overflow.
    config = replace(refusal_order_config(), y_min=y_min, y_max=y_min + 0.5)
    refusals = []
    for x, y in positions(config):
        try:
            config.channel_at(x, y)
        except ValueError as exc:
            refusals.append(str(exc))
    assert first in refusals[0] and any(first not in r for r in refusals)
    with pytest.raises(ValueError) as block:
        run(config)
    assert str(block.value) == refusals[0]


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
    assert per_cell("af", af.af_sum_rate_gain_batch(ChannelBatch.of(channels))) == [
        af_sum_rate_gain_scalar(ch) for ch in channels]
    cells = positions(DEFAULT)
    size = scenario._block_size(DEFAULT)
    for s in range(0, len(cells), size):
        block = cells[s:s + size]
        assert_block_polynomials_are_per_cell(DEFAULT.channel_batch(block))


def test_af_block_with_a_cell_outside_the_products_range():
    # A relay gain of 1e-80 puts that cell's D_1 near 1e-160, so its products
    # multiply terms some 2^500 apart; they keep every bit.
    channels = mixed_af_channels(np.random.default_rng(19))
    channels[7] = replace(channels[7], hr1=1e-80)
    batch = ChannelBatch.of(channels)
    assert_block_polynomials_are_per_cell(batch)
    assert per_cell("af", af.af_sum_rate_gain_batch(batch)) == [
        af_sum_rate_gain_scalar(ch) for ch in channels]


def assert_products_are_poly_product(a, v):
    """af._products on the rows of ``a`` and ``v`` has the bytes of poly_product per row."""
    with np.errstate(all="ignore"):
        got = af._products(a.T, v.T).T
    want = np.array([poly_product(x, y) for x, y in zip(a.tolist(), v.tolist())])
    assert got.tobytes() == want.tobytes()


def spread_rows(rng, rows, width):
    """Normal draws times 2^e, e a row exponent in [-400, 400] plus up to
    +-100 per entry, so the terms of one coefficient lie up to 2^400 apart."""
    scale = rng.integers(-400, 401, (rows, 1)) + rng.integers(-100, 101, (rows, width))
    return rng.standard_normal((rows, width)) * 2.0 ** scale


@pytest.mark.parametrize("width", [3, 5])
def test_products_are_poly_product_on_random_rows(width):
    rng = np.random.default_rng(20 + width)
    a, v = spread_rows(rng, 100_000, width), spread_rows(rng, 100_000, 3)
    assert_products_are_poly_product(a, v)


@pytest.mark.parametrize("width", [3, 5])
def test_products_are_poly_product_on_extreme_rows(width):
    rng = np.random.default_rng(22 + width)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan])
    a, v = rng.standard_normal((20_000, width)), rng.standard_normal((20_000, 3))
    for x in (a, v):
        hit = rng.random(x.shape) < 0.3
        x[hit] = rng.choice(special, hit.sum())
    # Entries near 2^1000 times entries near 2^-1000: the products are near 1.
    scale = 2.0 ** rng.choice([-1000, 1000], (2_000, 1))
    a = np.concatenate((a, rng.standard_normal((2_000, width)) * scale))
    v = np.concatenate((v, rng.standard_normal((2_000, 3)) / scale))
    assert_products_are_poly_product(a, v)


def block_squares(x) -> np.ndarray:
    """|h|^2 of each element of ``x`` as a ``ChannelBatch`` forms it, ``x`` as its h11;
    ``_square`` on ``x`` in any shape gives the same."""
    fields = {n: 1.0 for n in _GAINS + _POWERS}
    squares = ChannelBatch(**{**fields, "h11": x})._g("h11")
    with np.errstate(over="ignore"):
        assert _square(x).tobytes() == squares.tobytes()
    return squares


def one_channel_squares(values) -> np.ndarray:
    """abs(v) * abs(v) of each value, as one channel forms |h|^2."""
    return np.array([abs(v) * abs(v) for v in values])


def test_squares_are_abs_squared_on_random_complex():
    rng = np.random.default_rng(32)
    scale = 2.0 ** (rng.integers(-520, 521, 200_000) + rng.integers(-30, 31, (2, 200_000)))
    re, im = rng.standard_normal((2, 200_000)) * scale
    z = re + 1j * im
    assert block_squares(z).tobytes() == one_channel_squares(z.tolist()).tobytes()


def test_squares_are_abs_squared_on_special_values():
    powers = [2.0 ** k for k in (*range(-60, 61), -1022, -600, -481, -480, 480, 481, 511, 600)]
    near = [np.nextafter(v, d).item() for v in powers for d in (0.0, math.inf)]
    tiny = [0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1.4916681462400413e-154]
    wide = [_MAX_POWER, np.nextafter(_MAX_POWER, math.inf).item(), 1e300, math.inf, math.nan]
    reals = [s * v for v in powers + near + tiny + wide for s in (1.0, -1.0)]
    x = np.array(reals)
    assert block_squares(x).tobytes() == one_channel_squares(reals).tobytes()
    assert block_squares(x.reshape(2, -1)).tobytes() == one_channel_squares(reals).tobytes()
    # Python's abs of a complex NaN with no infinite part leaves errno as it
    # was, and raises OverflowError after an overflow: no such value here.
    finite_or_inf = [v for v in reals if not math.isnan(v)]
    z = np.array(finite_or_inf, dtype=complex)
    z.imag = finite_or_inf[::-1]
    parts = [complex(a, b) for a in (0.0, -0.0, 3.0, 2.0 ** 600, math.inf, -math.inf)
             for b in (0.0, -0.0, 4.0, math.inf, -math.inf)]
    parts += [complex(math.inf, math.nan), complex(math.nan, -math.inf)]
    z = np.concatenate((z, parts))
    assert block_squares(z).tobytes() == one_channel_squares(z.tolist()).tobytes()


def test_path_losses_are_path_loss_gains_on_special_values():
    powers = [2.0 ** k for k in (*range(-60, 61), -1022, -600, -481, -480, 480, 481, 600, 1023)]
    near = [np.nextafter(v, d).item() for v in powers for d in (0.0, math.inf)]
    subnormal = [5.6e-309, 1.5e-308, np.nextafter(2.0 ** -1022, 0.0).item()]  # 1/v is finite
    wide = [_MAX_POWER, 1e300, np.finfo(float).max.item()]
    v = powers + near + subnormal + wide
    for gamma in (2.0, 3.0, 3.7):
        refused = 0
        for x, got in zip(v, _path_losses(np.array(v), gamma).tolist()):
            try:
                assert got == path_loss_gain(x, 1.0, gamma)
            except ValueError:  # the gain overflows
                assert not math.isfinite(got)
                refused += 1
        assert (refused == 0) == (gamma == 2.0)
    # A gain that overflows, also where d / d0 underflows to 0, is refused.
    for d, d0 in ((5e-324, 1.0), (2.5e-310, 1.0), (5e-324, 2.0)):
        assert not np.isfinite(_path_losses(np.array([1.5, d / d0]), 2.0)[1])
        with pytest.raises(ValueError) as one:
            path_loss_gain(d, d0, 2.0)
        assert str(one.value) == ("path-loss gain (d / d0)^(-gamma/2) overflows a float at "
                                  f"d = {d:g}, d0 = {d0:g}, gamma = 2")


def largest_passing(fields, name, below):
    """The largest float under ``below`` that field ``name`` takes in a channel
    ChannelInstance accepts (1.0 passes), by bisection on the bit patterns."""
    def passes(bits):
        try:
            ChannelInstance(**{**fields, name: float(np.int64(bits).view(np.float64))})
            return True
        except ValueError:
            return False
    lo, hi = (int(np.float64(v).view(np.int64)) for v in (1.0, below))
    while hi - lo > 1:
        lo, hi = ((lo + hi) // 2, hi) if passes((lo + hi) // 2) else (lo, (lo + hi) // 2)
    return float(np.int64(lo).view(np.float64))


def limit_channels():
    """Channels at the extremes the channel checks pass: the largest P1 for
    each of 101 gains g = h11 = h1r; 50 with every gain's modulus within a
    factor 2 of sqrt(float max), random phases and powers of 1e-300; and 50
    with P1 = P2 = Pr = sqrt(float max)."""
    rng = np.random.default_rng(34)
    out = []
    for g in (1.0, *rng.uniform(0.25, 4.0, 100).tolist()):
        fields = dict(h11=g, h12=0.0, h21=0.0, h22=1.0, h1r=g, h2r=0.0, hr1=0.5, hr2=0.5,
                      P1=1.0, P2=1.0, Pr=1e150, N1=1.0, N2=1.0, Nr=1.0)
        out.append(ChannelInstance(**{**fields, "P1": largest_passing(fields, "P1", 1e160)}))
    names = ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2")
    for _ in range(50):
        gains = _MAX_POWER * rng.uniform(0.5, 1.0, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
        out.append(ChannelInstance(**dict(zip(names, gains.tolist())), P1=1e-300, P2=1e-300,
                                   Pr=1e-300, N1=1e-290, N2=1e-290, Nr=1e-290))
    for _ in range(50):
        gains = 0.2 * (rng.uniform(-1.0, 1.0, 8) + 1j * rng.uniform(-1.0, 1.0, 8))
        out.append(ChannelInstance(**dict(zip(names, gains.tolist())), P1=_MAX_POWER,
                                   P2=_MAX_POWER, Pr=_MAX_POWER, N1=1.0, N2=1.0, Nr=1.0))
    return out


def test_ef_at_the_channel_limits():
    # Every EF column is finite and no numpy warning is raised, and each
    # noise term is within 1e-12 of its definition (at 400 digits, which the
    # subtraction there needs: sigma_1^2 is about 2 beside A near 1e154 in
    # the first group).
    channels = limit_channels()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = ChannelBatch.of(channels)
        columns = [*ef.ef_sl_batch(batch, 1), *ef.ef_sl_batch(batch, 2),
                   *ef.ef_bi_sum_rate_search_batch(batch, nu=UNIFORM_NU)]
        for ch in channels:
            got, want = ef_noise_terms(ch, UNIFORM_NU, digits=400)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), ch
    assert [str(w.message) for w in caught] == []
    assert all(np.isfinite(c).all() for c in columns)


def test_af_block_overflow_in_one_cell_raises():
    # Cell 1's sum-rate polynomial overflows: alone it raises, and in the
    # block its three columns are NaN, while cells 0 and 2 are their
    # batches of one, bit for bit.
    rng = np.random.default_rng(15)
    channels = [random_channel(rng) for _ in range(3)]
    channels[1] = replace(channels[1], N1=1e-300, N2=1e-300)
    with pytest.raises(ValueError) as raised:
        af.af_sum_rate_gain(channels[1])
    assert str(raised.value) == af._OVERFLOW
    columns = af.af_sum_rate_gain_batch(ChannelBatch.of(channels))
    assert np.isnan([c[1] for c in columns]).all()
    for k in (0, 2):
        alone = af.af_sum_rate_gain_batch(ChannelBatch.of([channels[k]]))
        assert [c[k].tobytes() for c in columns] == [c[0].tobytes() for c in alone]


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
        assert per_cell("df", got) == want[:size]


def test_uniform_block_never_scans_cell_by_cell(monkeypatch):
    # A fixed split is a table of one pair, so no other pair can beat the
    # one the top-split stage searches for all cells of a block at once: a
    # default uniform block of 1,344 cells (of the 1,476 at 0.2 d0) never
    # reaches the per-cell stage, _pruned_scan.
    calls, sizes, top, run, stage = [], [], [], df._pruned_scan, df._top_scan
    monkeypatch.setattr(df, "_pruned_scan", lambda *args: calls.append(args) or run(*args))
    monkeypatch.setattr(df, "_top_scan", lambda tables, n1, n2: top.append(len(n1))
                        or stage(tables, n1, n2))
    search = df.df_sum_rate_search_batch
    monkeypatch.setattr(df, "df_sum_rate_search_batch",
                        lambda batch, *args: sizes.append(len(batch)) or search(batch, *args))
    dominance_map(replace(DEFAULT, resolution=0.2, protocols=("df",)))
    assert sizes == top == [1344, 132] and calls == []


@pytest.mark.parametrize("nu", [UNIFORM_NU, (0.3, 0.6), (0.4, 0.4), (0.0, 1.0), (1.0, 0.0),
                                (0.0, 0.0)], ids=str)
def test_ef_bl_fixed_split_is_the_scalar_eval(nu):
    # A fixed split is the search's one-pair table: default-map blocks of 64
    # cells, and random and anti-phase channels in one batch.
    rng = np.random.default_rng(20)
    channels = [make(rng) for _ in range(32) for make in (random_channel, anti_phase_channel)]
    cells = positions(DEFAULT)[:128]
    blocks = [(DEFAULT.channel_batch(cells[s:s + 64]),
               [DEFAULT.channel_at(x, y) for x, y in cells[s:s + 64]]) for s in (0, 64)]
    for batch, chs in blocks + [(ChannelBatch.of(channels), channels)]:
        got = ef.ef_bi_sum_rate_search_batch(batch, nu=nu)
        assert per_cell("ef_bl", got) == [ef_bi_eval_scalar(ch, *nu) for ch in chs]


@pytest.mark.parametrize("search", [df.df_sum_rate_search_batch, ef.ef_bi_sum_rate_search_batch])
def test_searches_refuse_a_bad_split_before_any_kernel(search):
    # A kernel run on the split would warn (DF's sqrt) or refuse an SINR
    # (EF-BL) before the split's own check.
    batch = DEFAULT.channel_batch(positions(DEFAULT)[:3])
    with pytest.raises(ValueError, match=r"^nu1 must lie in \[0, 1\], got -1.0$"):
        search(batch, 41, (-1.0, 0.5))
    with pytest.raises(ValueError, match=r"^grid_points must be >= 2, got 1$"):
        search(batch, 1, UNIFORM_NU)
