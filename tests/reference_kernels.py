"""Reference versions of kernels the package computes another way.

The package's AF optima score a candidate set, its DF search prunes the
relay splits by a bound and refines with one vectorized call per axis, its
EF-BL search evaluates the whole simplex at once, and its factorizations
derive their joint product from a table of factors; these are the per-user
case analysis and the scan-and-refine sum-rate optimizer, the DF and EF-BL
loops over every relay split, the scalar DF refinement loop, and the
hand-written einsum products, that they replaced.  Tests compare the two.
"""

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from ircrates.af import (
    _COEFF_ZERO_RTOL,
    _solve_stationary,
    af_rate,
    auxiliaries,
    critical_points,
    quadratic_coefficients,
    saturation_gain,
)
from ircrates.channel import ChannelInstance, RatePair, nu_simplex
from ircrates.df import DfParams, _refine, _sum_rate_grid, df_rate
from ircrates.ef import BiScenario, EfBiParams, ef_bi_eval
from ircrates.discrete import JointPmf


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
    return params, RatePair(df_rate(channel, params, 1), df_rate(channel, params, 2))


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
    return params, RatePair(df_rate(channel, params, 1), df_rate(channel, params, 2))


def ef_bi_sum_rate_search_loop(
    channel: ChannelInstance, grid_points: int = 41
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """EF-BL search that evaluates the relay splits one at a time."""
    best = None
    for nu1, nu2 in _simplex_pairs(grid_points):
        params, scenario, rates = ef_bi_eval(channel, nu1, nu2)
        if best is None or rates.sum > best[2].sum:
            best = (params, scenario, rates)
    return best


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
