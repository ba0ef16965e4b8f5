"""Reference versions of kernels the package computes another way.

The package's AF optima score a candidate set, its DF search prunes the
relay splits and tau rectangles by a bound taken before C and refines with
one vectorized call per axis, its EF-BL search evaluates the whole simplex
at once, and its factorizations derive their joint product from a table of
factors and read their bounds from per-user marginals; these are the
per-user case analysis and the scan-and-refine sum-rate optimizer, the DF
and EF-BL loops over every relay split, the DF bounds with C at every tau
point, the scalar DF refinement loop, the hand-written einsum products,
the bounds read off the full joint table, and the marginal that re-derives
its elimination order on every call with the conditional mutual information
taken through broadcast views, that they replaced.  Tests compare
the two.  So are the DF full scan that built its own tau tables from the
channel and the AF candidate scoring that compacted the roots inside the box
with an argsort, for ``test_shared_kernels.py``.

The maps evaluate blocks of relay positions at once; the one-channel AF, DF,
EF-BL and EF-SL kernels they replaced, and the per-cell map evaluation, are
kept below as they were (``*_scalar``), for ``test_batch.py`` and
``test_ef_terms.py``; their EF noise terms take ``ef._terms``' cancellation-free
form, in its operand order.  ``ef_exact`` gives those terms from their
definitions in mpmath, the oracle both are held to.

The maps hand back their cells as column tables, and the CSV writers format
the columns; ``map_to_csv_rows`` and ``slmap_to_csv_rows`` are the writers
they replaced, which formatted each cell's row from its fields.
"""

import math
from typing import Dict, List, Optional, Tuple

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar

from ircrates import ef
from ircrates.af import (
    _COEFF_ZERO_RTOL,
    _solve_stationary,
    af_rate,
    auxiliaries,
    critical_points,
    quadratic_coefficients,
    saturation_gain,
)
from ircrates.channel import ChannelInstance, RatePair, capacity, nu_simplex, other
from ircrates.df import DfParams, _dest_interference, _dest_signal, _relay_snr
from ircrates.ef import BiScenario, EfBiParams
from ircrates.errors import ConstraintViolationError, InfeasibleError
from ircrates.discrete import (
    _SUM_TOL,
    JointPmf,
    _check_table_size,
    conditional_mutual_information,
)
from ircrates.scenario import MAP_HEADER, PROTOCOL_ORDER, SLMAP_HEADER, UNIFORM_NU, MapCell


def optimal_gain_cases(channel: ChannelInstance, user: int) -> Tuple[float, float]:
    """(gain, rate) maximizing R_user(a_r) over [0, saturation_gain].

    Branches on the discriminant sign, the leading-coefficient sign and the
    positions of the two stationary points relative to the box, with endpoint
    rate comparisons resolving the ambiguous branches by exact evaluation.
    """
    a_bar = saturation_gain(channel)
    c2, c1, c0 = quadratic_coefficients(auxiliaries(channel, user))
    disc = c1 * c1 - 4.0 * c2 * c0

    def rate(a: float) -> float:
        return float(af_rate(channel, a, user))

    degenerate = False
    try:
        roots = _solve_stationary(c2, c1, c0)
    except ValueError:
        # Constant rate in a_r cannot happen for nonzero m; flag and saturate.
        degenerate = True
        roots = []

    scale = max(abs(c2), abs(c1), abs(c0))
    quadratic = scale > 0 and abs(c2) >= _COEFF_ZERO_RTOL * scale

    if degenerate:
        a_star = a_bar
    elif not quadratic or (quadratic and disc < 0.0):
        if quadratic:
            # No real stationary point: the derivative keeps the sign of c2.
            a_star = a_bar if c2 > 0 else 0.0
        else:
            # Linear (or constant-sign) derivative numerator: the only
            # candidates are the endpoints and an interior root, if any.
            cands = [0.0, a_bar] + [r for r in roots if 0.0 < r < a_bar]
            a_star = max(cands, key=rate)
    else:
        r_lo, r_hi = roots
        if c2 > 0:
            # Rate rises to r_lo, falls to r_hi, rises again.
            if r_hi <= 0.0:
                a_star = a_bar
            elif r_lo <= 0.0:
                a_star = 0.0 if rate(0.0) >= rate(a_bar) else a_bar
            elif r_lo == r_hi:
                a_star = a_bar
            elif a_bar <= r_lo:
                a_star = a_bar
            elif a_bar <= r_hi:
                a_star = r_lo
            else:
                a_star = r_lo if rate(r_lo) >= rate(a_bar) else a_bar
        else:
            # Rate falls to r_lo, rises to r_hi, falls again.
            if r_hi <= 0.0:
                a_star = 0.0
            elif r_lo <= 0.0:
                a_star = min(r_hi, a_bar)
            elif r_lo == r_hi:
                a_star = 0.0
            elif a_bar <= r_lo:
                a_star = 0.0
            elif a_bar <= r_hi:
                a_star = 0.0 if rate(0.0) >= rate(a_bar) else a_bar
            else:
                a_star = r_hi if rate(r_hi) >= rate(0.0) else 0.0

    return a_star, rate(a_star)


def af_sum_rate_gain_scan(
    channel: ChannelInstance,
    tolerance: float = 1e-10,
    grid_points: int = 10_000,
) -> Tuple[float, RatePair]:
    """Maximize R_1 + R_2 over [0, saturation_gain] by scan and refinement.

    Every local maximum of a dense scan, and every per-user stationary point
    inside the box, is refined by a bounded 1-D search.
    """
    a_bar = saturation_gain(channel)
    grid = np.linspace(0.0, a_bar, max(int(grid_points), 2))
    f = af_rate(channel, grid, 1) + af_rate(channel, grid, 2)

    def sum_rate(a: float) -> float:
        return float(af_rate(channel, a, 1) + af_rate(channel, a, 2))

    brackets = []
    interior = np.nonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]))[0] + 1
    step = grid[1] - grid[0] if len(grid) > 1 else a_bar
    for i in interior:
        brackets.append((grid[i - 1], grid[i + 1]))
    for user in (1, 2):
        try:
            roots = critical_points(channel, user)
        except ValueError:
            roots = []
        for r in roots:
            if 0.0 < r < a_bar:
                brackets.append((max(0.0, r - step), min(a_bar, r + step)))

    best_a, best_f = 0.0, sum_rate(0.0)
    if sum_rate(a_bar) > best_f:
        best_a, best_f = a_bar, sum_rate(a_bar)
    for lo, hi in brackets:
        if hi <= lo:
            continue
        res = minimize_scalar(
            lambda a: -sum_rate(a),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": tolerance},
        )
        if -res.fun > best_f:
            best_a, best_f = float(res.x), float(-res.fun)

    return best_a, RatePair(
        float(af_rate(channel, best_a, 1)), float(af_rate(channel, best_a, 2))
    )


def df_user_bound_reference(tables, ki, kj):
    """Per relay split, the largest rate user i reaches at any tau_i when the
    interference is its least over tau_j, with C taken at every tau_i before
    the max: the DF search's per-split bound as it was first written."""
    relay, signal, interference = tables
    floor = interference.min(axis=0)
    return capacity(np.minimum(relay, signal[:, ki].T / floor[kj][:, None])).max(axis=1)


def df_rect_bound_reference(tables, ki, kj, starts):
    """C(max_{tau_i in A} min(relay, signal / min_{tau_j in B} interference))
    per pair and rectangle (A, B) of the tau blocks that begin at ``starts``,
    shaped (pairs, A, B): the DF search's rectangle bound with C at every
    tau_i before the max, as it was before the block-maximum bound."""
    relay, signal, interference = tables
    floor = np.minimum.reduceat(interference, starts)  # (B, nu_j)
    x = signal[:, ki] / floor[:, None, kj]  # (B, tau_i, pairs)
    np.minimum(x, relay[:, None], out=x)
    return capacity(np.maximum.reduceat(x, starts, axis=1).transpose(2, 1, 0))


def df_full_scan_reference(channel, taus, n1, n2):
    """(sum rate, flat tau index) of each cell's first largest R_1 + R_2 over
    the tau grid at its split (n1, n2), the nu values shaped (cells, 1): the
    DF full scan as it was when it built its own tables from the channel (a
    batch's ``column()``), with C taken of each user's min(relay, SINR)."""
    def user_sinr(relay, signal, interference):
        sinr = signal[..., :, None] / interference[..., None, :]
        return np.minimum(relay[..., :, None], sinr, out=sinr)

    tables = [(_relay_snr(channel, user, taus), _dest_signal(channel, user, taus, ni),
               _dest_interference(channel, user, taus, nj))
              for user, ni, nj in ((1, n1, n2), (2, n2, n1))]
    flat, value = [], []
    step = max(1, 8 * 41 * 41 // len(taus) ** 2)
    for s in range(0, len(n1), step):
        (r1, num1, den1), (r2, num2, den2) = ([x[s:s + step] for x in t] for t in tables)
        f = user_sinr(r1, num1, den1)
        c = np.divide(num2[:, None], den2[:, :, None])  # user 2's, over (cells, tau1, tau2)
        f = np.add(capacity(f, out=f), capacity(np.minimum(r2[:, None], c, out=c), out=c), out=f)
        f = f.reshape(len(f), -1)
        k = f.argmax(axis=1)
        flat.append(k)
        value.append(f[np.arange(len(f)), k])
    return np.concatenate(value), np.concatenate(flat)


def _df_scan_loop(channel: ChannelInstance, grid_points: int, nu):
    """The DF relay-split loop: the full tau grid of every split, the first
    of equal maxima kept.  Returns the best grid point and the grid step."""
    taus = np.linspace(0.0, 1.0, grid_points)
    t1g, t2g = np.meshgrid(taus, taus, indexing="ij")

    best = None  # (sum_rate, t1, t2, n1, n2)
    nu_pairs = [tuple(nu)] if nu is not None else _simplex_pairs(grid_points)
    for n1, n2 in nu_pairs:
        f = _sum_rate_grid(channel, t1g, t2g, n1, n2)
        k = int(np.argmax(f))
        cand = (float(f.flat[k]), float(t1g.flat[k]), float(t2g.flat[k]), n1, n2)
        if best is None or cand[0] > best[0]:
            best = cand
    return list(best[1:]), taus[1] - taus[0]


def _simplex_pairs(grid_points: int):
    grid, i1, i2 = nu_simplex(grid_points)
    return list(zip(grid[i1].tolist(), grid[i2].tolist()))


def df_sum_rate_search_reference(
    channel: ChannelInstance,
    grid_points: int = 101,
    nu: Optional[Tuple[float, float]] = None,
) -> Tuple[DfParams, RatePair]:
    """DF search that scores every relay split in a loop, then refines."""
    point, step = _df_scan_loop(channel, grid_points, nu)
    point = _refine(channel, point, step, free_nu=nu is None)
    params = DfParams(tau1=point[0], tau2=point[1], nu1=point[2], nu2=point[3])
    return params, RatePair(df_rate_scalar(channel, params, 1),
                            df_rate_scalar(channel, params, 2))


def df_sum_rate_search_loop(
    channel: ChannelInstance,
    grid_points: int = 101,
    nu: Optional[Tuple[float, float]] = None,
) -> Tuple[DfParams, RatePair]:
    """DF search with the relay-split loop and a refinement pass that
    evaluates one point per call."""
    point, step = _df_scan_loop(channel, grid_points, nu)
    free = [True, True, nu is None, nu is None]
    for axis in range(4):
        if not free[axis]:
            continue
        lo = max(0.0, point[axis] - step)
        hi = min(1.0, point[axis] + step)
        vals = np.linspace(lo, hi, 21)
        best_v, best_f = point[axis], _sum_rate_grid(channel, *point)
        for v in vals:
            trial = list(point)
            trial[axis] = float(v)
            if trial[2] + trial[3] > 1.0:
                continue
            f = float(_sum_rate_grid(channel, *trial))
            if f > best_f:
                best_v, best_f = float(v), f
        point[axis] = best_v

    params = DfParams(tau1=point[0], tau2=point[1], nu1=point[2], nu2=point[3])
    return params, RatePair(df_rate_scalar(channel, params, 1),
                            df_rate_scalar(channel, params, 2))


def ef_bi_sum_rate_search_loop(
    channel: ChannelInstance, grid_points: int = 41
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """EF-BL search that evaluates the relay splits one at a time."""
    best = None
    for nu1, nu2 in _simplex_pairs(grid_points):
        params, scenario, rates = ef_bi_eval_scalar(channel, nu1, nu2)
        if best is None or rates.sum > best[2].sum:
            best = (params, scenario, rates)
    return best


# -- the one-channel kernels the batched maps replaced --------------------------
#
# Copied from the package as they were, operand order included: the batched
# kernels are held to these with ``==``.  Every |z|^2 is ``_square``'s m * m
# and every polynomial product ``poly_product``'s left-to-right sums, the one
# rounding rule of the package.


def _square(z) -> float:
    """|z|^2 as m * m, m = abs(z) (hypot for a complex z)."""
    m = abs(z)
    return m * m


def poly_product(a, v) -> np.ndarray:
    """The coefficients of the product of the polynomials ``a`` and ``v`` (highest power
    first, or lowest: the order is kept), in Python floats: each sums its terms a[i] v[j]
    from 0.0 in increasing i of the longer operand, taken as ``a``."""
    a, v = (a, v) if len(a) >= len(v) else (v, a)
    out = [0.0] * (len(a) + len(v) - 1)
    for i, x in enumerate(map(float, a)):
        for j, y in enumerate(map(float, v)):
            out[i + j] += x * y
    return np.array(out)


def _af_rate_scalar(channel: ChannelInstance, gain, user: int):
    a = np.asarray(gain, dtype=float)
    if np.any(a < 0):
        raise ValueError(f"relay gain must be >= 0, got {gain!r}")
    j = other(user)
    h_ri = channel.h_from_relay(user)
    num = np.abs(a * channel.h_to_relay(user) * h_ri + channel.h_direct(user)) ** 2
    num = num * channel.P(user)
    den = (
        np.abs(a * channel.h_to_relay(j) * h_ri + channel.h_cross(user)) ** 2
        * channel.P(j)
        + a**2 * _square(h_ri) * channel.Nr
        + channel.N(user)
    )
    return capacity(num / den)


def _saturation_gain_scalar(channel: ChannelInstance) -> float:
    received = (
        _square(channel.h1r) * channel.P1
        + _square(channel.h2r) * channel.P2
        + channel.Nr
    )
    return math.sqrt(channel.Pr / received)


def _auxiliaries_scalar(channel: ChannelInstance, user: int):
    """(m, n, p, q, s) of ``af.auxiliaries``."""
    j = other(user)
    sqrt_rho_i = math.sqrt(channel.rho(user))
    sqrt_pj_ni = math.sqrt(channel.P(j) / channel.N(user))
    h_ri = channel.h_from_relay(user)
    return (channel.h_to_relay(user) * h_ri * sqrt_rho_i,
            channel.h_direct(user) * sqrt_rho_i,
            channel.h_to_relay(j) * h_ri * sqrt_pj_ni,
            channel.h_cross(user) * sqrt_pj_ni,
            _square(h_ri) * channel.Nr / channel.N(user))


def _quadratic_scalar(m, n, p, q, s):
    re_pq = (p * q.conjugate()).real
    re_mn = (m * n.conjugate()).real
    c2 = _square(m) * re_pq - (_square(p) + s) * re_mn
    c1 = _square(m) * (_square(q) + 1.0) - _square(n) * (_square(p) + s)
    c0 = (_square(q) + 1.0) * re_mn - _square(n) * re_pq
    return c2, c1, c0


def af_sum_rate_polynomial_scalar(channel: ChannelInstance) -> np.ndarray:
    """Q_1 T_2 D_2 + Q_2 T_1 D_1 of one channel, highest power first, in
    Python complex arithmetic and floats, as ``af`` formed it cell by cell."""
    q, td = [], []
    for user in (1, 2):
        m, n, p, qq, s = _auxiliaries_scalar(channel, user)
        d = np.array([_square(p) + s, 2.0 * (p * qq.conjugate()).real, _square(qq) + 1.0])
        t = d + np.array([_square(m), 2.0 * (m * n.conjugate()).real, _square(n)])
        q.append(_quadratic_scalar(m, n, p, qq, s))
        td.append(poly_product(t, d))
    return poly_product(q[0], td[1]) + poly_product(q[1], td[0])


def af_best_gain_reference(batch, roots: np.ndarray, users):
    """``af._best_gain`` as it was: the roots strictly inside (0, a_sat) are
    moved to the front of each row, in their order, by a stable argsort, the
    columns no cell needs are dropped, and the padding is scored at -inf."""
    a_bar = saturation_gain(batch)
    inside = (roots > 0.0) & (roots < a_bar[:, None])
    order = np.argsort(~inside, axis=1, kind="stable")[:, :inside.sum(axis=1).max(initial=0)]
    inside = np.take_along_axis(inside, order, axis=1)
    roots = np.where(inside, np.take_along_axis(roots, order, axis=1), 0.0)
    cands = np.concatenate((np.zeros_like(a_bar)[:, None], a_bar[:, None], roots), axis=1)
    rates = [af_rate(batch.column(), cands, user) for user in users]
    valid = np.concatenate((np.ones((len(batch), 2), dtype=bool), inside), axis=1)
    k = np.where(valid, sum(rates), -np.inf).argmax(axis=1)[:, None]
    return tuple(np.take_along_axis(x, k, axis=1)[:, 0] for x in [cands] + rates)


def af_sum_rate_gain_scalar(channel: ChannelInstance) -> Tuple[float, RatePair]:
    """``af.af_sum_rate_gain`` on one channel, with ``np.roots``."""
    a_bar = _saturation_gain_scalar(channel)
    roots = np.asarray(np.roots(af_sum_rate_polynomial_scalar(channel))).real
    cands = np.concatenate(([0.0, a_bar], roots[(roots > 0.0) & (roots < a_bar)]))
    rates = [_af_rate_scalar(channel, cands, user) for user in (1, 2)]
    k = int(np.argmax(sum(rates)))
    return float(cands[k]), RatePair(float(rates[0][k]), float(rates[1][k]))


def _df_sinr_terms(channel: ChannelInstance, t1, t2, n1, n2, user: int):
    ti, tj = (t1, t2) if user == 1 else (t2, t1)
    ni_, nj_ = (n1, n2) if user == 1 else (n2, n1)
    Pi, Pj, Pr = channel.P(user), channel.P(other(user)), channel.Pr
    h_ii, h_ri = channel.h_direct(user), channel.h_from_relay(user)
    h_ji = channel.h_cross(user)
    relay = _square(channel.h_to_relay(user)) * (1.0 - ti) * Pi / channel.Nr
    num = np.maximum(
        _square(h_ii) * Pi
        + _square(h_ri) * ni_ * Pr
        + 2.0 * (h_ii * h_ri.conjugate()).real * np.sqrt(ti * Pi * ni_ * Pr), 0.0)
    den = (
        _square(h_ji) * Pj
        + _square(h_ri) * nj_ * Pr
        + 2.0 * (h_ji * h_ri.conjugate()).real * np.sqrt(tj * Pj * nj_ * Pr)
        + channel.N(user)
    )
    return relay, num / den


def df_rate_scalar(channel: ChannelInstance, params: DfParams, user: int) -> float:
    relay_snr, dest_sinr = _df_sinr_terms(
        channel, params.tau1, params.tau2, params.nu1, params.nu2, user)
    return float(min(capacity(relay_snr), capacity(dest_sinr)))


def _sum_rate_grid(channel: ChannelInstance, t1, t2, n1, n2):
    total = 0.0
    for user in (1, 2):
        relay_snr, dest_sinr = _df_sinr_terms(channel, t1, t2, n1, n2, user)
        total = total + np.minimum(capacity(relay_snr), capacity(dest_sinr))
    return total


def _refine(channel: ChannelInstance, point, step: float, free_nu: bool):
    """The refinement pass, recomputing the current point's sum rate per axis."""
    point = list(point)
    for axis in range(4 if free_nu else 2):
        lo = max(0.0, point[axis] - step)
        hi = min(1.0, point[axis] + step)
        vals = np.linspace(lo, hi, 21)
        trial = list(point)
        trial[axis] = vals
        f = np.where(trial[2] + trial[3] > 1.0, -np.inf,
                     _sum_rate_grid(channel, *trial))
        k = int(np.argmax(f))
        if f[k] > _sum_rate_grid(channel, *point):
            point[axis] = float(vals[k])
    return point


def df_sum_rate_search_scalar(channel: ChannelInstance, grid_points: int,
                              nu: Tuple[float, float]) -> Tuple[DfParams, RatePair]:
    """The fixed-split DF search on one channel: the full tau grid, then
    ``_refine``."""
    return df_sum_rate_search_reference(channel, grid_points, nu)


def _receive_power(channel: ChannelInstance, i: int) -> float:
    j = other(i)
    return (_square(channel.h_direct(i)) * channel.P(i)
            + _square(channel.h_cross(i)) * channel.P(j) + channel.N(i))


def _ef_derived(channel: ChannelInstance):
    """(A, {i: cross_i}, {i: sigma_i^2}) of ``ef.ef_derived``, each sigma_i^2
    from Lagrange's identity in ``ef._terms``' operand order."""
    rest = _square(channel.h1r) * channel.P1 + _square(channel.h2r) * channel.P2
    A = rest + channel.Nr
    amp1, amp2 = math.sqrt(channel.P1), math.sqrt(channel.P2)
    cross, sigma = {}, {}
    for i in (1, 2):
        j = other(i)
        cov = (channel.h_direct(i) * channel.h_to_relay(i).conjugate() * channel.P(i)
               + channel.h_cross(i) * channel.h_to_relay(j).conjugate() * channel.P(j))
        cross[i] = abs(cov)
        v = _receive_power(channel, i)
        # sqrt(P1 P2) (h1r d_i - h2r c_i), with c_i = h1i and d_i = h2i
        det = (complex(getattr(channel, f"h2{i}")) * amp2 * (channel.h_to_relay(1) * amp1)
               - complex(getattr(channel, f"h1{i}")) * amp1 * (channel.h_to_relay(2) * amp2))
        sigma[i] = (channel.Nr + rest * (channel.N(i) / v)
                    + (det.real * (det.real / v) + det.imag * (det.imag / v)))
    return A, cross, sigma


def _ef_bi_scenario(channel: ChannelInstance, nu1: float, nu2: float) -> BiScenario:
    g1, g2, Pr = _square(channel.hr1), _square(channel.hr2), channel.Pr
    v1, v2 = _receive_power(channel, 1), _receive_power(channel, 2)
    if capacity(g1 * nu2 * Pr / (v1 + g1 * nu1 * Pr)) >= capacity(
            g2 * nu2 * Pr / (v2 + g2 * nu1 * Pr)):
        return BiScenario.D1_BETTER
    if capacity(g2 * nu1 * Pr / (v2 + g2 * nu2 * Pr)) >= capacity(
            g1 * nu1 * Pr / (v1 + g1 * nu2 * Pr)):
        return BiScenario.D2_BETTER
    return BiScenario.NEITHER


def _relay_interference(channel, nu1, nu2, scenario, i):
    if i == 1:
        return 0.0 if scenario is BiScenario.D1_BETTER else _square(channel.hr1) * nu2 * channel.Pr
    return 0.0 if scenario is BiScenario.D2_BETTER else _square(channel.hr2) * nu1 * channel.Pr


def _ef_bi_min_noise(channel, nu1, nu2, scenario):
    A, _, sigma = _ef_derived(channel)
    bounds = []
    for i, nu_i in ((1, nu1), (2, nu2)):
        denom = _square(channel.h_from_relay(i)) * nu_i * channel.Pr
        if denom <= 0.0:
            bounds.append(math.inf)
            continue
        # ((V_i + I_i) A - |A_i|^2) / q_ii, as (V_i sigma_i^2 + I_i A) / q_ii
        interference = _relay_interference(channel, nu1, nu2, scenario, i)
        bounds.append((_receive_power(channel, i) * sigma[i] + interference * A) / denom)
    return bounds[0], bounds[1]


def _two_branch_sinr(channel, i, relay_interf, nwz):
    j = other(i)
    Pi, Pj = channel.P(i), channel.P(j)
    gd = _square(channel.h_direct(i))
    gc = _square(channel.h_cross(i))
    gu = _square(channel.h_to_relay(i))
    gw = _square(channel.h_to_relay(j))
    Ni, Nr = channel.N(i), channel.Nr
    if math.isinf(nwz):
        return gd * Pi / (Ni + relay_interf + gc * Pj)
    direct = gd * Pi / (Ni + relay_interf + gc * Pj * (Nr + nwz) / (gw * Pj + Nr + nwz))
    noise_floor = relay_interf + Ni
    relayed = gu * Pi / (Nr + nwz + gw * Pj * noise_floor / (gc * Pj + noise_floor))
    return direct + relayed


def ef_bi_rate_scalar(channel: ChannelInstance, params: EfBiParams,
                      scenario: BiScenario) -> RatePair:
    """``ef.ef_bi_rate`` on one channel, ``scenario`` imposed as given."""
    nu1, nu2 = params.nu1, params.nu2
    bounds = _ef_bi_min_noise(channel, nu1, nu2, scenario)
    noises = (params.nwz1, params.nwz2)
    for i, (nwz, bound) in enumerate(zip(noises, bounds), start=1):
        if nwz < bound * (1.0 - 1e-9):
            raise ConstraintViolationError(f"nwz{i} lower bound", nwz, bound)
    return RatePair(*(capacity(_two_branch_sinr(
        channel, i, _relay_interference(channel, nu1, nu2, scenario, i), noises[i - 1]))
        for i in (1, 2)))


def ef_bi_eval_scalar(channel: ChannelInstance, nu1: float, nu2: float
                      ) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """``ef.ef_bi_eval`` on one channel and one split."""
    scenario = _ef_bi_scenario(channel, nu1, nu2)
    nwz1, nwz2 = _ef_bi_min_noise(channel, nu1, nu2, scenario)
    params = EfBiParams(nu1=nu1, nu2=nu2, nwz1=nwz1, nwz2=nwz2)
    rates = [capacity(_two_branch_sinr(
        channel, i, _relay_interference(channel, nu1, nu2, scenario, i), nwz))
        for i, nwz in ((1, nwz1), (2, nwz2))]
    return params, scenario, RatePair(rates[0], rates[1])


def ef_sl_min_noise_scalar(channel: ChannelInstance, r0_exponent: int = 2) -> float:
    """max_i sigma_i^2 / (2^(e R_0) - 1), with R_0 = C(x): 2^(e R_0) - 1 is
    x for e = 1 and x (2 + x) for e = 2, divided out one factor at a time."""
    x = min(_square(channel.h_from_relay(i)) * channel.Pr / _receive_power(channel, i)
            for i in (1, 2))
    if capacity(x) <= 0.0:
        raise InfeasibleError("relay broadcast bottleneck rate is zero")
    _, _, sigma = _ef_derived(channel)
    noise = max(sigma[1], sigma[2]) / x
    return noise if r0_exponent == 1 else noise / (2.0 + x)


def ef_sl_rate_scalar(channel: ChannelInstance, nwz: float, r0_exponent: int = 2) -> RatePair:
    bound = ef_sl_min_noise_scalar(channel, r0_exponent)
    if nwz < bound * (1.0 - 1e-9):
        raise ConstraintViolationError("nwz lower bound", nwz, bound)
    return RatePair(capacity(_two_branch_sinr(channel, 1, 0.0, nwz)),
                    capacity(_two_branch_sinr(channel, 2, 0.0, nwz)))


def ef_exact(channel: ChannelInstance, nu1: float, nu2: float, digits: int = 60) -> dict:
    """EF's noise terms from their definitions, in mpmath at ``digits``
    digits, as floats: "sigma", (sigma_1^2, sigma_2^2) with sigma_i^2 = A -
    |A_i|^2 / V_i; "bl", the bounds ((V_i + I_i) A - |A_i|^2) / q_ii at
    (nu1, nu2) under each ``BiScenario``; "sl", the single-level noise
    max_i sigma_i^2 / ((1 + x)^e - 1) by e, x = min_i |h_ri|^2 Pr / V_i.  The
    subtractions cancel at most the digits A V_i / (A V_i - |A_i|^2) takes."""
    with mp.workdps(digits):
        h = {n: mp.mpc(complex(getattr(channel, n))) for n in
             ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2")}
        P1, P2, Pr, N1, N2, Nr = (mp.mpf(getattr(channel, n))
                                  for n in ("P1", "P2", "Pr", "N1", "N2", "Nr"))
        A = abs(h["h1r"]) ** 2 * P1 + abs(h["h2r"]) ** 2 * P2 + Nr
        v, cov_sq, q = {}, {}, {}
        for i, Ni in ((1, N1), (2, N2)):
            c, d = h[f"h1{i}"], h[f"h2{i}"]
            v[i] = abs(c) ** 2 * P1 + abs(d) ** 2 * P2 + Ni
            cov_sq[i] = abs(c * mp.conj(h["h1r"]) * P1 + d * mp.conj(h["h2r"]) * P2) ** 2
            q[i] = [abs(h[f"hr{i}"]) ** 2 * mp.mpf(nu) * Pr for nu in (nu1, nu2)]
        sigma = {i: A - cov_sq[i] / v[i] for i in (1, 2)}
        bl = {}
        for scenario in BiScenario:
            cancels = {1: scenario is BiScenario.D1_BETTER, 2: scenario is BiScenario.D2_BETTER}
            interference = {i: 0 if cancels[i] else q[i][2 - i] for i in (1, 2)}
            bl[scenario] = tuple(
                float(((v[i] + interference[i]) * A - cov_sq[i]) / q[i][i - 1])
                if q[i][i - 1] else math.inf
                for i in (1, 2))
        x = min(abs(h[f"hr{i}"]) ** 2 * Pr / v[i] for i in (1, 2))
        sl = {e: float(max(sigma.values()) / ((1 + x) ** e - 1)) for e in (1, 2)}
        return {"sigma": (float(sigma[1]), float(sigma[2])), "bl": bl, "sl": sl}


def ef_noise_terms(channel: ChannelInstance, nu, digits: int = 60):
    """sigma_1^2, sigma_2^2, the EF-BL bounds at ``nu`` under each scenario and
    the EF-SL noise for e = 1 and 2, as a list from ``ef`` and as one from
    ``ef_exact`` at ``digits`` digits."""
    d, exact = ef.ef_derived(channel), ef_exact(channel, *nu, digits)
    got = [d.sigma1_sq, d.sigma2_sq,
           *(b for sc in BiScenario for b in ef.ef_bi_min_noise(channel, *nu, sc)),
           *(ef.ef_sl_min_noise(channel, e) for e in (1, 2))]
    return got, [*exact["sigma"], *(b for sc in BiScenario for b in exact["bl"][sc]),
                 *(exact["sl"][e] for e in (1, 2))]


def per_cell(protocol: str, columns) -> list:
    """The columns a protocol's ``*_batch`` kernel returns, as the per-cell
    tuples of the scalar kernels here: (gain, RatePair) for AF, (DfParams,
    RatePair) for DF, (EfBiParams, BiScenario, RatePair) for EF-BL and
    (nwz, RatePair) for EF-SL."""
    rows = zip(*(c.tolist() for c in columns))
    if protocol in ("af", "ef_sl"):
        return [(x, RatePair(r1, r2)) for x, r1, r2 in rows]
    if protocol == "df":
        return [(DfParams(t1, t2, n1, n2), RatePair(r1, r2)) for t1, t2, n1, n2, r1, r2 in rows]
    tags = list(BiScenario)
    return [(EfBiParams(n1, n2, w1, w2), tags[k], RatePair(r1, r2))
            for n1, n2, k, w1, w2, r1, r2 in rows]


def optimize_scalar(protocol: str, channel: ChannelInstance, config):
    """(RatePair, point) of one uniform-policy protocol on one channel: cell
    0 of what the ``scenario.OPTIMIZERS`` entry returns as columns, with the
    rates as a RatePair and each point field as a float (a pair of floats)."""
    if protocol == "af":
        gain, pair = af_sum_rate_gain_scalar(channel)
        return pair, {"gain": gain}
    if protocol == "df":
        params, pair = df_sum_rate_search_scalar(channel, config.df_grid, UNIFORM_NU)
        return pair, {"tau": (params.tau1, params.tau2), "nu": (params.nu1, params.nu2)}
    if protocol == "ef_bl":
        params, scenario, pair = ef_bi_eval_scalar(channel, *UNIFORM_NU)
        return pair, {"nu": (params.nu1, params.nu2), "nwz": (params.nwz1, params.nwz2),
                      "scenario": scenario.value}
    nwz = ef_sl_min_noise_scalar(channel, config.r0_exponent)
    return ef_sl_rate_scalar(channel, nwz, config.r0_exponent), {"nwz": nwz}


def evaluate_cell_scalar(config, xr: float, yr: float, channel=None) -> MapCell:
    """``scenario.evaluate_cell`` for the uniform policy, one protocol at a
    time on one channel (``config.channel_at(xr, yr)`` unless given)."""
    channel = config.channel_at(xr, yr) if channel is None else channel
    rates: Dict[str, float] = {}
    points: Dict[str, dict] = {}
    infeasible: List[str] = []
    for p in [p for p in PROTOCOL_ORDER if p in config.protocols]:
        try:
            pair, points[p] = optimize_scalar(p, channel, config)
            rates[p] = pair.sum
        except InfeasibleError:
            rates[p] = 0.0
            infeasible.append(p)
    return MapCell(
        xr=xr, yr=yr, rates=rates, winner=max(rates, key=rates.get),
        bl_scenario=points.get("ef_bl", {}).get("scenario", ""),
        af_gain=points.get("af", {}).get("gain", 0.0), infeasible=tuple(infeasible),
    )


def _csv_rows(header: str, row: str, values) -> str:
    return header + "\n" + "".join([row % v for v in values])


def map_to_csv_rows(cells) -> str:
    """``scenario.map_to_csv`` row by row, from each ``MapCell``'s fields: a
    protocol the cell lacks writes 0."""
    return _csv_rows(MAP_HEADER, "%.12g," * 6 + "%s,%s\n",
                     ((c.xr, c.yr, *map(c.rates.get, PROTOCOL_ORDER, (0.0,) * 4), c.winner,
                       c.bl_scenario) for c in cells))


def slmap_to_csv_rows(cells) -> str:
    """``scenario.slmap_to_csv`` row by row, each ``SlCell`` in its field order."""
    return _csv_rows(SLMAP_HEADER, "%.12g,%.12g,%.12g,%.12g,%s,%s,%d\n", cells)


def bi_level_joint(fact) -> JointPmf:
    """p(x1, x2, u1, u2, xr, y1, y2, yr, yh1, yh2) of a bi-level factorization."""
    table = np.einsum(
        "a,b,c,d,cde,abefgh,hci,hdj->abcdefghij",
        fact.p_x1, fact.p_x2, fact.p_u1, fact.p_u2,
        fact.p_xr_given_u, fact.p_y_given_x,
        fact.p_yh1_given, fact.p_yh2_given,
        optimize=True,
    )
    names = ("x1", "x2", "u1", "u2", "xr", "y1", "y2", "yr", "yh1", "yh2")
    return JointPmf(names, table)


def single_level_joint(fact) -> JointPmf:
    """p(x1, x2, xr, y1, y2, yr, yh) of a single-level factorization."""
    table = np.einsum(
        "a,b,e,abefgh,heI->abefghI",
        fact.p_x1, fact.p_x2, fact.p_xr, fact.p_y_given_x, fact.p_yh_given,
        optimize=True,
    )
    names = ("x1", "x2", "xr", "y1", "y2", "yr", "yh")
    return JointPmf(names, table)


def bi_level_bounds_joint(fact) -> Tuple[float, float, bool]:
    """``discrete.bi_level_bounds`` read off the full joint table."""
    pmf = fact.joint()
    r1 = conditional_mutual_information(pmf, ("x1",), ("y1", "yh1"), ("u1",))
    r2 = conditional_mutual_information(pmf, ("x2",), ("y2", "yh2"), ("u2",))
    feasible = (
        conditional_mutual_information(pmf, ("yr",), ("yh1",), ("u1", "y1"))
        <= conditional_mutual_information(pmf, ("u1",), ("y1",)) + _SUM_TOL
    ) and (
        conditional_mutual_information(pmf, ("yr",), ("yh2",), ("u2", "y2"))
        <= conditional_mutual_information(pmf, ("u2",), ("y2",)) + _SUM_TOL
    )
    return r1, r2, feasible


def single_level_bounds_joint(fact) -> Tuple[float, float, bool]:
    """``discrete.single_level_bounds`` read off the full joint table."""
    pmf = fact.joint()
    r1 = conditional_mutual_information(pmf, ("x1",), ("y1", "yh"), ("xr",))
    r2 = conditional_mutual_information(pmf, ("x2",), ("y2", "yh"), ("xr",))
    lhs = max(
        conditional_mutual_information(pmf, ("yr",), ("yh",), ("xr", "y1")),
        conditional_mutual_information(pmf, ("yr",), ("yh",), ("xr", "y2")),
    )
    rhs = min(
        conditional_mutual_information(pmf, ("xr",), ("y1",)),
        conditional_mutual_information(pmf, ("xr",), ("y2",)),
    )
    return r1, r2, lhs <= rhs + _SUM_TOL


def marginal_reference(fact, keep: Tuple[str, ...]) -> np.ndarray:
    """p(keep), axes in ``keep`` order, by variable elimination whose order is
    worked out again on each call from the factorization's ``FACTORS``."""
    factors = [(conds + outs, getattr(fact, field)) for field, outs, conds in fact.FACTORS]
    sizes = {v: n for axes, table in factors for v, n in zip(axes, table.shape)}
    _check_table_size(math.prod(sizes.values()))
    ids = {v: i for i, v in enumerate(sizes)}

    def contract(terms, out):
        args = [x for axes, table in terms for x in (table, [ids[v] for v in axes])]
        return np.einsum(*args, [ids[v] for v in out])

    for var in (v for v in sizes if v not in keep):
        hit = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        out = tuple(dict.fromkeys(v for axes, _ in hit for v in axes if v != var))
        factors.append((out, contract(hit, out)))
    return contract(factors, keep)


def cmi_reference(p_abc: np.ndarray, ax_a: Tuple[int, ...], ax_b: Tuple[int, ...]) -> float:
    """I(A; B | C) in bits, the marginals read through masked broadcast views."""
    p_ac = p_abc.sum(axis=ax_b, keepdims=True)
    p_bc = p_abc.sum(axis=ax_a, keepdims=True)
    p_c = p_ac.sum(axis=ax_a, keepdims=True)

    mask = p_abc > 0
    num = p_abc[mask] * np.broadcast_to(p_c, p_abc.shape)[mask]
    den = (
        np.broadcast_to(p_ac, p_abc.shape)[mask]
        * np.broadcast_to(p_bc, p_abc.shape)[mask]
    )
    total = float(np.sum(p_abc[mask] * np.log2(num / den)))
    return max(total, 0.0)

