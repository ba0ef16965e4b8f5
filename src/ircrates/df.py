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
from typing import List, Optional, Tuple

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


def df_rate(channel: ChannelInstance, params: DfParams, user: int) -> float:
    """Achievable DF rate of user ``user`` in bits per channel use."""
    relay_snr, dest_sinr = _df_sinr_terms(
        channel, params.tau1, params.tau2, params.nu1, params.nu2, user
    )
    return float(min(capacity(relay_snr), capacity(dest_sinr)))


def _sum_rate_grid(channel, t1, t2, n1, n2):
    """Vectorized R_1 + R_2 over broadcastable parameter arrays."""
    total = 0.0
    for user in (1, 2):
        relay_snr, dest_sinr = _df_sinr_terms(channel, t1, t2, n1, n2, user)
        total = total + np.minimum(capacity(relay_snr), capacity(dest_sinr))
    return total


def _user_tables(channel, user: int, taus, nus):
    """User i's relay SNR over tau_i (..., G), signal over (tau_i, nu_i) and
    interference over (tau_j, nu_j) (..., G, K): ... is () for one channel,
    (cells,) for a batch shaped (cells, 1, 1)."""
    t, n = taus[:, None], nus[None, :]
    return (_relay_snr(channel, user, t)[..., 0], _dest_signal(channel, user, t, n),
            _dest_interference(channel, user, t, n))


def _user_sinr(relay, signal, interference):
    """min(relay SNR, destination SINR) of user i over (..., tau_i, tau_j),
    from its relay SNR and signal over tau_i and interference over tau_j."""
    sinr = signal[..., :, None] / interference[..., None, :]
    return np.minimum(relay[..., :, None], sinr, out=sinr)


# Floats per temporary of the search (8 cells, or 8 relay splits, of a
# 41-point tau grid): cells go in chunks of this many tau table points, and
# scans and bounds in chunks of this many grid points, about 100 kB each.
_MAX_SCAN = 8 * 41 * 41

_TAU_BLOCKS = 4  # blocks per tau axis of the rectangle bounds: 10/10/10/11 of 41


def _user_bound(tables, ki, kj, starts):
    """C(max_{tau_i in A} min(relay, signal / min_{tau_j in B} interference))
    per pair and rectangle (A, B) of the tau blocks that begin at ``starts``,
    shaped (pairs, A, B), in chunks of pairs: an upper bound on user i's rate
    there, since C, min, max and division are monotone."""
    relay, signal, interference = tables
    floor = np.minimum.reduceat(interference, starts)  # (B, nu_j)
    out = np.empty((len(ki), len(starts), len(starts)))
    step = max(1, _MAX_SCAN // (len(relay) * len(starts)))
    for s in range(0, len(ki), step):
        part = slice(s, s + step)
        x = signal[:, ki[part]] / floor[:, None, kj[part]]  # (B, tau_i, pairs)
        np.minimum(x, relay[:, None], out=x)
        out[part] = np.maximum.reduceat(x, starts, axis=1).transpose(2, 1, 0)
    return capacity(out, out=out)


def _scored(t1, t2, k1, k2, pairs, rows1, rows2, best):
    """``best`` (sum rate, pair, flat tau index) after R_1 + R_2 of each item
    m: relay split pairs[m], over tau1 rows1[m] by tau2 rows2[m].  These are
    a full scan's floats, and each item offers its first maximum."""
    n1, n2 = k1[pairs][:, None], k2[pairs][:, None]
    c1 = _user_sinr(t1[0][rows1], t1[1][rows1, n1], t1[2][rows2, n2])
    c2 = _user_sinr(t2[0][rows2], t2[1][rows2, n2], t2[2][rows1, n1])
    f = (capacity(c1, out=c1) + capacity(c2, out=c2).swapaxes(1, 2)).reshape(len(pairs), -1)
    m, k = np.arange(len(pairs)), f.argmax(axis=1)
    i, j = np.divmod(k, rows2.shape[1])
    found = zip(f[m, k].tolist(), pairs.tolist(), (rows1[m, i] * len(t1[0]) + rows2[m, j]).tolist())
    return max(best, *found, key=lambda x: (x[0], -x[1], -x[2]))


def _can_win(bound, pair, first, best):
    """Items (bound, pair, first flat tau index) that may beat ``best``: a
    bound above its sum rate, or equal to it at a smaller (pair, flat index)."""
    v, p, k = best
    return (bound > v) | ((bound == v) & ((pair < p) | ((pair == p) & (first < k))))


def _free_bound(tables, ki, kj):
    """C(min(max relay, max signal / min interference)) per pair of (..., tau)
    tables, all over tau: O(1) per pair, no lower than ``_user_bound(..., [0])``."""
    relay, signal, interference = tables
    x = signal.max(axis=-2)[..., ki] / interference.min(axis=-2)[..., kj]
    return capacity(np.minimum(x, relay.max(axis=-1, keepdims=True), out=x), out=x)


def _best_grid_point(channel, taus, nus, k1, k2):
    """(pair, tau1 index, tau2 index, sum rate) of the largest R_1 + R_2 over
    the tau grid and the relay splits (nus[k1[p]], nus[k2[p]]), as arrays over
    the cells of ``channel``, a batch's ``column()``; ties keep the smallest
    pair p, then the first tau point in row-major order.  Each cell's pair with
    the largest ``_free_bound`` is scanned in full, all cells at once (with one
    pair, the whole search); then per cell, the previous cell's pair if it
    could beat that, and ``_pruned_scan`` the pairs that still could."""
    g, pairs, every = len(taus), np.arange(len(k1)), np.arange(len(taus))[None]
    top = np.zeros(len(channel), dtype=int)
    if len(pairs) > 1:  # the tau tables of all the cells at once
        cells = channel.column(2)
        tables = _user_tables(cells, 1, taus, nus), _user_tables(cells, 2, taus, nus)
        bound = _free_bound(tables[0], k1, k2) + _free_bound(tables[1], k2, k1)
        top = bound.argmax(axis=1)  # the first of the largest
    value, flat = _full_scan(channel, taus, nus[k1[top], None], nus[k2[top], None])
    for cell in range(len(top)) if len(pairs) > 1 else ():
        t1, t2 = ([x[cell] for x in table] for table in tables)
        best, previous = (value[cell], top[cell], flat[cell]), top[cell - 1] if cell else top[0]
        bound[cell, top[cell]] = -np.inf  # scored; cell 0 takes it as its previous
        if _can_win(bound[cell, previous], previous, 0, best):
            best = _scored(t1, t2, k1, k2, previous[None], every, every, best)
            bound[cell, previous] = -np.inf
        left = pairs[_can_win(bound[cell], pairs, 0, best)]
        best = _pruned_scan(t1, t2, k1, k2, left, best) if len(left) else best
        value[cell], top[cell], flat[cell] = best
    return (top, *np.divmod(flat, g), value)


def _full_scan(channel, taus, n1, n2):
    """(sum rate, flat tau index) of each cell's first largest R_1 + R_2 over
    the tau grid at its split (n1, n2), in chunks of ``_MAX_SCAN`` points;
    user 2's SINR is formed over (tau1, tau2), so the sum reads both in order."""
    tables = [(_relay_snr(channel, user, taus), _dest_signal(channel, user, taus, ni),
               _dest_interference(channel, user, taus, nj))
              for user, ni, nj in ((1, n1, n2), (2, n2, n1))]
    flat, value = [], []
    step = max(1, _MAX_SCAN // len(taus) ** 2)
    for s in range(0, len(n1), step):
        (r1, num1, den1), (r2, num2, den2) = ([x[s:s + step] for x in t] for t in tables)
        f = _user_sinr(r1, num1, den1)
        c = np.divide(num2[:, None], den2[:, :, None])  # user 2's, over (cells, tau1, tau2)
        f = np.add(capacity(f, out=f), capacity(np.minimum(r2[:, None], c, out=c), out=c), out=f)
        f = f.reshape(len(f), -1)
        k = f.argmax(axis=1)
        flat.append(k)
        value.append(f[np.arange(len(f)), k])
    return np.concatenate(value), np.concatenate(flat)


def _pruned_scan(t1, t2, k1, k2, left, best):
    """``best`` after the pairs ``left`` of one cell: the one with the largest
    ``_user_bound`` over the tau grid is scored in full, and those that could
    beat it are bounded on each rectangle of tau blocks; these items go by
    descending bound, then (pair, first flat index), in blocks of 1, 2, 4, ..."""
    g, every = len(t1[0]), np.arange(len(t1[0]))[None]
    bound = _user_bound(t1, k1[left], k2[left], [0]) + _user_bound(t2, k2[left], k1[left], [0])
    top = bound.argmax()  # bound is (pairs, 1, 1): the first of the largest
    best = _scored(t1, t2, k1, k2, left[[top]], every, every, best)
    bound[top] = -np.inf
    left = left[_can_win(bound[:, 0, 0], left, 0, best)]
    starts = np.arange(min(_TAU_BLOCKS, g)) * g // min(_TAU_BLOCKS, g)
    ends = np.append(starts[1:], g)
    # Each block's tau indices as a row; a shorter row repeats its last
    # index after it, so a repeat is never the first maximum.
    rows = np.minimum(starts[:, None] + np.arange((ends - starts).max()), ends[:, None] - 1)
    bound = _user_bound(t1, k1[left], k2[left], starts)
    bound += _user_bound(t2, k2[left], k1[left], starts).swapaxes(1, 2)
    live = bound >= best[0]  # the (pair, rectangle) items that may win
    pair, a, b = np.nonzero(live)
    bound, pair, first = bound[live], left[pair], starts[a] * g + starts[b]
    order = np.lexsort((first, pair, -bound))
    start, size, most = 0, 1, max(1, _MAX_SCAN // rows.shape[1] ** 2)
    while start < len(order):
        block = order[start:start + size]
        # In visiting order, the items that can still win come first.
        block = block[_can_win(bound[block], pair[block], first[block], best)]
        if not len(block):
            break
        best = _scored(t1, t2, k1, k2, pair[block], rows[a[block]], rows[b[block]], best)
        start, size = start + size, min(2 * size, most)
    return best


def df_sum_rate_search(
    channel: ChannelInstance,
    grid_points: int = 101,
    nu: Optional[Tuple[float, float]] = None,
) -> Tuple[DfParams, RatePair]:
    """Maximize R_1 + R_2 over the DF parameter set by grid search.

    With ``nu`` supplied (e.g. the uniform split (1/2, 1/2)) only the two
    cooperation degrees are searched, as the one-pair case of the search over
    the relay split simplex.  A single coordinate-descent refinement pass at a
    tenth of the grid step follows the scan.  This is
    ``df_sum_rate_search_batch`` on a batch of one.

    The scan is exact: it returns the grid point a full scan would, and
    scores no split or (split, tau rectangle) whose bound cannot beat the best
    sum rate found (``_best_grid_point``).  Deterministic: ties keep the first
    relay split in simplex order (nu1 varying slowest), then the earliest
    (tau1, tau2) grid point in row-major order.
    """
    return df_sum_rate_search_batch(ChannelBatch.of([channel]), grid_points, nu)[0]


def df_sum_rate_search_batch(
    batch: ChannelBatch, grid_points: int, nu: Optional[Tuple[float, float]] = None
) -> List[Tuple[DfParams, RatePair]]:
    """``df_sum_rate_search`` for every cell of ``batch``, then one
    refinement pass over all cells at once, axis by axis.

    A fixed split ``nu`` is a one-pair table of its distinct values.  All is
    elementwise in the operand order of one channel, with |h|^2 from the
    batch (Python floats), so each cell gets what a batch of one gives it."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    taus = np.linspace(0.0, 1.0, grid_points)
    if nu is None:
        nus, (_, k1, k2), axes = taus, nu_simplex(grid_points), range(4)
    else:  # one pair: the split's distinct values, indexed by k1 and k2
        nus = np.array(nu[:1] if nu[0] == nu[1] else nu, dtype=float)
        k1, k2, axes = np.array([0]), np.array([len(nus) - 1]), range(2)
    col, step = batch.column(), max(1, _MAX_SCAN // (grid_points * len(nus)))
    found = [_best_grid_point(col[s:s + step] if step < len(batch) else col, taus, nus, k1, k2)
             for s in range(0, len(batch), step)]
    p, a, b, value = map(np.concatenate, zip(*found))
    point = [taus[a], taus[b], nus[k1[p]], nus[k2[p]]]
    return _refined(col, point, value, taus[1] - taus[0], axes)


def _refined(channel, point, value, step, axes) -> List[Tuple[DfParams, RatePair]]:
    """One coordinate-descent pass from ``point`` (tau1, tau2, nu1, nu2 as
    arrays over the cells of ``channel``, a batch's ``column()``), whose sum
    rates the scan gave as ``value``: each axis in ``axes`` in turn is
    scanned at a tenth of ``step`` within one step, for all cells at once,
    and the best value is carried to the next axis, not recomputed.  Then
    each cell's parameters and rates."""
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
    point = [x[:, None] for x in point]
    rates = [np.minimum(*map(capacity, _df_sinr_terms(channel, *point, user))) for user in (1, 2)]
    return [(DfParams(tau1=t1, tau2=t2, nu1=n1, nu2=n2), RatePair(r1, r2))
            for t1, t2, n1, n2, r1, r2 in zip(*(x[:, 0].tolist() for x in point + rates))]
