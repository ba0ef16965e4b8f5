"""Decode-and-forward rates and exhaustive parameter search.

Each source splits its power between a fresh message and a cooperation
signal (fraction tau_i), and the relay splits its power between the two
users (fractions nu_1 + nu_2 <= 1).  User i's rate is the minimum of the
relay decoding constraint and the destination decoding rate:

    R_i = min{ C(|h_ir|^2 (1 - tau_i) P_i / N_r),
               C( (|h_ii|^2 P_i + |h_ri|^2 nu_i P_r
                   + 2 Re(h_ii h_ri^*) sqrt(tau_i P_i nu_i P_r))
                  / (|h_ji|^2 P_j + |h_ri|^2 nu_j P_r
                     + 2 Re(h_ji h_ri^*) sqrt(tau_j P_j nu_j P_r) + N_i) ) }

The coherent-combining numerator and the interference denominator are both
provably nonnegative/positive by AM-GM, for arbitrary complex gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channel import (
    ChannelBatch, ChannelInstance, RatePair, _conj_product, capacity, check_nu_split,
    nu_simplex, other,
)

__all__ = ["DfParams", "df_rate", "df_sum_rate_search", "df_sum_rate_search_batch"]


@dataclass(frozen=True)
class DfParams:
    """Cooperation degrees and relay power split for the DF protocol."""

    tau1: float
    tau2: float
    nu1: float
    nu2: float

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        check_nu_split(self.nu1, self.nu2)

    def tau(self, i: int) -> float:
        return (self.tau1, self.tau2)[i - 1]

    def nu(self, i: int) -> float:
        return (self.nu1, self.nu2)[i - 1]


# User i's rate reads three factors: its relay term depends on tau_i alone,
# its destination signal on (tau_i, nu_i) and its interference-plus-noise on
# the other user's (tau_j, nu_j).  df_rate, the refinement pass and the search
# tables all evaluate these, so every path forms the same floats.  Each takes
# a ChannelInstance or a ChannelBatch shaped to broadcast against the
# parameters, and works elementwise.


def _relay_snr(channel, user: int, t_i):
    """SNR of user i's fresh message at the relay."""
    return channel.g_to_relay(user) * (1.0 - t_i) * channel.P(user) / channel.Nr


def _dest_signal(channel, user: int, t_i, n_i):
    """Coherent source-plus-relay signal power of user i at D_i.

    AM-GM keeps it nonnegative; float round-off is clipped at zero.
    """
    Pi, Pr = channel.P(user), channel.Pr
    re, _ = _conj_product(channel.h_direct(user), channel.h_from_relay(user))
    num = (
        channel.g_direct(user) * Pi
        + channel.g_from_relay(user) * n_i * Pr
        + 2.0 * re * np.sqrt(t_i * Pi * n_i * Pr)
    )
    return np.maximum(num, 0.0)


def _dest_interference(channel, user: int, t_j, n_j):
    """Interference plus noise at D_i from the other user's coherent signal."""
    Pj, Pr = channel.P(other(user)), channel.Pr
    re, _ = _conj_product(channel.h_cross(user), channel.h_from_relay(user))
    return (
        channel.g_cross(user) * Pj
        + channel.g_from_relay(user) * n_j * Pr
        + 2.0 * re * np.sqrt(t_j * Pj * n_j * Pr)
        + channel.N(user)
    )


def _df_sinr_terms(channel, t1, t2, n1, n2, user: int):
    """Relay-constraint SNR and destination SINR for arrays of parameters."""
    ti, tj = (t1, t2) if user == 1 else (t2, t1)
    ni_, nj_ = (n1, n2) if user == 1 else (n2, n1)
    return (_relay_snr(channel, user, ti),
            _dest_signal(channel, user, ti, ni_) / _dest_interference(channel, user, tj, nj_))


def _rate(relay, sinr, out=None):
    """User i's DF rate C(min(relay SNR, destination SINR)), elementwise (into
    ``out`` if given): min(C(relay), C(sinr)) to the bit, as C is monotone."""
    return capacity(np.minimum(relay, sinr, out=out), out=out)


def _search_rate(relay, sinr, out):
    """``_rate``'s floats into ``out``, without ``capacity``'s domain check: a
    search table's SINR is a clipped signal over interference above noise."""
    return np.log2(np.add(1.0, np.minimum(relay, sinr, out=out), out=out), out=out)


def df_rate(channel: ChannelInstance, params: DfParams, user: int) -> float:
    """Achievable DF rate of user ``user`` in bits per channel use."""
    return float(_rate(*_df_sinr_terms(
        channel, params.tau1, params.tau2, params.nu1, params.nu2, user)))


def _sum_rate_grid(channel, t1, t2, n1, n2):
    """Vectorized R_1 + R_2 over broadcastable parameter arrays."""
    total = 0.0
    for user in (1, 2):
        total = total + _rate(*_df_sinr_terms(channel, t1, t2, n1, n2, user))
    return total


def _user_tables(channel, user: int, taus, nus):
    """User i's relay SNR over tau_i (..., G), signal over (tau_i, nu_i) and
    interference over (tau_j, nu_j) (..., G, K): ... is () for one channel,
    (cells,) for a batch shaped (cells, 1, 1)."""
    t, n = taus[:, None], nus[None, :]
    return (_relay_snr(channel, user, t)[..., 0], _dest_signal(channel, user, t, n),
            _dest_interference(channel, user, t, n))


# Tau grid points per temporary of a scan (8 cells of a 41-point grid, about
# 100 kB): ``_top_scan`` and ``_pruned_scan`` score their rectangles in runs
# of at most this many points (or of one rectangle, if it is wider).
_MAX_SCAN = 8 * 41 * 41

# Tau blocks per axis at each level of the rectangle bounds, each twice the
# last: every rectangle of the first, then the 2 x 2 children of those left.
_LEVELS = (4, 8)


def _block_starts(g: int):
    """Each block's first tau index per level of at most g blocks (or g blocks
    of one point): a child level's starts nest in its parent's, two per block."""
    return [np.arange(n) * g // n for n in _LEVELS if n <= g] or [np.arange(g)]


def _block_rows(g: int, starts):
    """Each block's tau indices from ``starts`` as a row (a shorter one repeats
    its last, never a first maximum), and the rows squared per scoring run."""
    ends = np.append(starts[1:], g)
    rows = np.minimum(starts[:, None] + np.arange((ends - starts).max()), ends[:, None] - 1)
    return rows, max(1, _MAX_SCAN // rows.shape[1] ** 2)


def _rect_bound(tables, starts, ki, kj, a, b, cell=Ellipsis):
    """C(min(max_A relay, max_A signal / min_B interference)) of user i per
    relay split (ki, kj), tau_i block A = a and tau_j block B = b of those at
    ``starts`` (of ``cell``, if given), broadcast together: a bound on user
    i's rate over (A, B), as C, min and rounded division are monotone."""
    relay, signal, interference = tables
    x = (np.maximum.reduceat(signal, starts, axis=-2)[cell, a, ki]
         / np.minimum.reduceat(interference, starts, axis=-2)[cell, b, kj])
    return _search_rate(np.maximum.reduceat(relay, starts, axis=-1)[cell, a], x, x)


def _first_max(t1, t2, n1, n2, rows1, rows2, cell=Ellipsis):
    """(sum rate, flat tau index) of each item m's first largest R_1 + R_2 at
    the relay split (n1[m], n2[m]) over tau1 rows1[m] by tau2 rows2[m], read
    in place from user 1's and 2's tables (of cell[m], for a block's)."""
    r1, s1, i1 = t1[0][cell, rows1], t1[1][cell, rows1, n1], t1[2][cell, rows2, n2]
    r2, s2, i2 = t2[0][cell, rows2], t2[1][cell, rows2, n2], t2[2][cell, rows1, n1]
    f, c = s1[:, :, None] / i1[:, None, :], s2[:, None, :] / i2[:, :, None]
    f = np.add(_search_rate(r1[:, :, None], f, f), _search_rate(r2[:, None, :], c, c), out=f)
    (i, j), m = np.divmod(f.reshape(len(f), -1).argmax(axis=1), f.shape[2]), np.arange(len(f))
    return f[m, i, j], rows1[m, i] * t1[0].shape[-1] + rows2[m, j]


def _scored(t1, t2, k1, k2, pairs, rows1, rows2, best):
    """``best`` (sum rate, pair, flat tau index) after R_1 + R_2 of each item
    m: relay split pairs[m], over tau1 rows1[m] by tau2 rows2[m] of one
    cell's tables, by ``_first_max``."""
    value, flat = _first_max(t1, t2, k1[pairs][:, None], k2[pairs][:, None], rows1, rows2)
    w = np.lexsort((flat, pairs, -value))[0]  # the largest, then the smallest (pair, flat)
    return (value[w], pairs[w], flat[w]) if _can_win(value[w], pairs[w], flat[w], best) else best


def _can_win(bound, pair, first, best):
    """Items (bound, pair, first flat tau index) that may beat ``best``: a
    bound above its sum rate, or equal to it at a smaller (pair, flat index)."""
    v, p, k = best
    return (bound > v) | ((bound == v) & ((pair < p) | ((pair == p) & (first < k))))


def _best_grid_point(batch, taus, nus, k1, k2):
    """(pair, tau1 index, tau2 index, sum rate) of the largest R_1 + R_2 over
    the tau grid and the relay splits (nus[k1[p]], nus[k2[p]]), as arrays over
    the cells of ``batch``; ties keep the smallest pair p, then the first tau
    point in row-major order.  From the cells' ``_user_tables``, each cell's
    pair with the largest ``_rect_bound`` (one block: the whole grid) goes to
    ``_top_scan``, all cells at once.  Only the cells where another pair's
    bound could beat that go on, one at a time: the previous cell's pair if
    it could, then ``_pruned_scan`` of the others.  A fixed split is a table
    of one pair, each cell's top unbounded, so it leaves no such cell."""
    g, pairs, every = len(taus), np.arange(len(k1)), np.arange(len(taus))[None]
    tables = [[np.broadcast_to(x, (len(batch), *x.shape[1:]))  # one row for a user of shared fields
               for x in _user_tables(batch.column(2), user, taus, nus)] for user in (1, 2)]
    bound = np.zeros((len(batch), 1)) if len(k1) == 1 else (
        _rect_bound(tables[0], [0], k1, k2, [0], [0]) + _rect_bound(tables[1], [0], k2, k1, [0], [0]))
    top = bound.argmax(axis=1)  # the first of the largest
    value, flat = _top_scan(tables, k1[top], k2[top])
    bound[np.arange(len(top)), top] = -np.inf  # scored; cell 0 takes it as its previous
    found = value[:, None], top[:, None], flat[:, None]
    for cell in np.flatnonzero(_can_win(bound, pairs, 0, found).any(axis=1)):
        t1, t2 = ([x[cell] for x in table] for table in tables)
        best, previous = (value[cell], top[cell], flat[cell]), top[cell - 1] if cell else top[0]
        if _can_win(bound[cell, previous], previous, 0, best):
            best = _scored(t1, t2, k1, k2, previous[None], every, every, best)
            bound[cell, previous] = -np.inf
        left = pairs[_can_win(bound[cell], pairs, 0, best)]
        best = _pruned_scan(t1, t2, k1, k2, left, best) if len(left) else best
        value[cell], top[cell], flat[cell] = best
    return (top, *np.divmod(flat, g), value)


def _top_scan(tables, n1, n2):
    """(sum rate, flat tau index) of each cell's first largest R_1 + R_2 over
    the tau grid at its split (n1, n2) of the cells' ``_user_tables``: each
    grid whole, if all fit one run, else by branch and bound on the first
    ``_block_starts`` level's rectangles of all cells at once, each cell's
    best-bound one first, then all that can beat it."""
    g, cells = tables[0][0].shape[-1], np.arange(len(n1))
    if len(cells) * g * g <= _MAX_SCAN:  # no bound saves a run
        every = np.tile(np.arange(g), (len(cells), 1))
        return _first_max(*tables, n1[:, None], n2[:, None], every, every, cells[:, None])
    starts = _block_starts(g)[0]
    (rows, most), a, c = _block_rows(g, starts), np.arange(len(starts)), cells[:, None, None]
    bound = (_rect_bound(tables[0], starts, n1[c], n2[c], a[:, None], a, c)
             + _rect_bound(tables[1], starts, n2[c], n1[c], a, a[:, None], c)).reshape(len(c), -1)
    top = bound.argmax(axis=1)
    bound[cells, top] = -np.inf

    def scored(cell, rect):  # in runs of at most _MAX_SCAN points
        runs = ((cell[s:s + most, None], *np.divmod(rect[s:s + most], len(a)))
                for s in range(0, len(cell), most))
        found = [_first_max(*tables, n1[c], n2[c], rows[i], rows[j], c) for c, i, j in runs]
        return map(np.concatenate, zip(*found, (np.empty(0), np.empty(0, dtype=int))))

    value, flat = scored(cells, top)  # each cell's incumbent
    first = (starts[:, None] * g + starts).ravel()
    cell, rect = np.nonzero(_can_win(bound, 0, first, (value[:, None], 0, flat[:, None])))
    cell, value, flat = map(np.concatenate, zip((cells, value, flat), (cell, *scored(cell, rect))))
    keep = np.lexsort((flat, -value, cell))  # each cell's largest, then its smallest flat
    keep = keep[np.searchsorted(cell[keep], cells)]
    return value[keep], flat[keep]


def _live_rects(t1, t2, k1, k2, pairs, floor, levels):
    """(pair, tau1 block, tau2 block, bound) of the rectangles of the last of
    ``levels`` (``_block_starts``) bounded at ``floor`` or above: all of the
    first level for each of ``pairs``, then the 2 x 2 children of those left."""
    n = len(levels[0])
    pair, a, b = pairs[:, None, None], np.arange(n)[:, None], np.arange(n)
    for level, starts in enumerate(levels):
        if level:
            pair, a = np.repeat(pair, 4), (2 * a[:, None] + [0, 0, 1, 1]).ravel()
            b = (2 * b[:, None] + [0, 1, 0, 1]).ravel()
        n1, n2 = k1[pair], k2[pair]
        bound = _rect_bound(t1, starts, n1, n2, a, b)
        bound += _rect_bound(t2, starts, n2, n1, b, a)
        live = np.nonzero(bound >= floor)  # the items that may win, and a few tied ones
        pair, a, b, bound = (np.broadcast_to(x, bound.shape)[live] for x in (pair, a, b, bound))
    return pair, a, b, bound


def _pruned_scan(t1, t2, k1, k2, left, best):
    """``best`` after the pairs ``left`` of one cell: their ``_live_rects`` by
    descending bound, then (pair, first flat index), scored in runs of
    ``_MAX_SCAN`` grid points until a run has none that can win: those lead
    that order, and ``best`` only improves."""
    g, levels = len(t1[0]), _block_starts(len(t1[0]))
    starts, (rows, most) = levels[-1], _block_rows(g, levels[-1])
    pair, a, b, bound = _live_rects(t1, t2, k1, k2, left, best[0], levels)
    first = starts[a] * g + starts[b]
    order = np.lexsort((first, pair, -bound))
    for run in (order[r:r + most] for r in range(0, len(order), most)):
        run = run[_can_win(bound[run], pair[run], first[run], best)]
        if not len(run):
            break
        best = _scored(t1, t2, k1, k2, pair[run], rows[a[run]], rows[b[run]], best)
    return best


def df_sum_rate_search(
    channel: ChannelInstance,
    grid_points: int = 41,
    nu: Optional[Tuple[float, float]] = None,
) -> Tuple[DfParams, RatePair]:
    """Maximize R_1 + R_2 over the DF parameter set by grid search.

    With ``nu`` supplied (e.g. the uniform split (1/2, 1/2)) only the two
    cooperation degrees are searched, as the one-pair case of the search over
    the relay split simplex.  A single coordinate-descent refinement pass at a
    tenth of the grid step follows the scan.  This is
    ``df_sum_rate_search_batch`` on a batch of one.

    The scan is exact: it returns the grid point a full scan would, and
    scores no split or 4 x 4 tau rectangle (then, but at a cell's top split,
    their 2 x 2 children) whose bound cannot beat the best sum rate found
    (``_best_grid_point``).  Deterministic: ties keep the first relay split in
    simplex order (nu1 varying slowest), then the earliest (tau1, tau2) grid
    point in row-major order.
    """
    *params, r1, r2 = (c.item() for c in df_sum_rate_search_batch(
        ChannelBatch.of([channel]), grid_points, nu))
    return DfParams(*params), RatePair(r1, r2)


def df_sum_rate_search_batch(
    batch: ChannelBatch, grid_points: int, nu: Optional[Tuple[float, float]] = None
) -> Tuple[np.ndarray, ...]:
    """The columns (tau1, tau2, nu1, nu2, R1, R2) of ``df_sum_rate_search``
    over the cells of ``batch``, from one build of tau tables (by which the
    maps size their blocks) and one refinement pass over all at once.

    The relay splits are ``nu_simplex``'s table, which checks them first: a
    fixed split ``nu`` is one pair of its distinct values.  All is
    elementwise in the operand order of one channel, with |h|^2 from the
    batch (Python floats), so each cell gets what a batch of one gives it."""
    nus, k1, k2 = nu_simplex(grid_points, nu)
    taus, axes = np.linspace(0.0, 1.0, grid_points), range(4 if nu is None else 2)
    p, a, b, value = _best_grid_point(batch, taus, nus, k1, k2)
    point = [taus[a], taus[b], nus[k1[p]], nus[k2[p]]]
    return _refined(batch.column(), point, value, taus[1] - taus[0], axes)


def _refined(channel, point, value, step, axes) -> Tuple[np.ndarray, ...]:
    """One coordinate-descent pass from ``point`` (tau1, tau2, nu1, nu2 as
    arrays over the cells of ``channel``, a batch's ``column()``), whose sum
    rates the scan gave as ``value``: each axis in ``axes`` in turn is
    scanned at a tenth of ``step`` within one step, for all cells at once,
    and the best value is carried to the next axis, not recomputed.  Then
    the columns of the parameters and of both users' rates."""
    rows = np.arange(len(value))
    for axis in axes:
        vals = np.linspace(np.maximum(0.0, point[axis] - step),
                           np.minimum(1.0, point[axis] + step), 21, axis=-1)
        trial = [x[:, None] for x in point]
        trial[axis] = vals
        # Points off the nu simplex are skipped; a cell moves only to a
        # strictly better point, and the first of equal maxima wins.
        f = np.where(trial[2] + trial[3] > 1.0, -np.inf, _sum_rate_grid(channel, *trial))
        k = f.argmax(axis=1)
        better = f[rows, k] > value
        point[axis] = np.where(better, vals[rows, k], point[axis])
        value = np.where(better, f[rows, k], value)
    cells = [x[:, None] for x in point]
    rates = [_rate(*_df_sinr_terms(channel, *cells, user))[:, 0] for user in (1, 2)]
    return (*point, *rates)
