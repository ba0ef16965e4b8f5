"""Zero-delay scalar amplify-and-forward: rates and optimal relay gain.

The relay transmits X_r = a_r * Y_r.  With single-user decoding, user i sees

    SINR_i(a_r) = |a_r h_ir h_ri + h_ii|^2 P_i
                  / (|a_r h_jr h_ri + h_ji|^2 P_j + a_r^2 |h_ri|^2 N_r + N_i)

and R_i(a_r) = C(SINR_i).  Dividing through by N_i puts the SINR in the
scalar form |m a + n|^2 / (|p a + q|^2 + s a^2 + 1) whose stationary points
solve a quadratic, so the box-constrained maximizer over [0, a_sat] is the
best of the two endpoints and the roots inside the box.  Full relay power is
therefore not always optimal.

The sum rate R_1 + R_2 is maximized by the same rule: its stationary points
are the roots of a degree-6 polynomial built from the two per-user
quadratics (see ``af_sum_rate_gain``).

Note the composite auxiliaries: m and n carry sqrt(P_i/N_i), while p, q and
s are normalized by the *receiver* noise N_i (p, q carry sqrt(P_j/N_i) and
s = |h_ri|^2 N_r/N_i).  With all noise variances equal this collapses to the
symmetric sqrt(rho) form; for unequal noises only this normalization makes
the stationary points of the scalar form coincide with those of SINR_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .channel import (ChannelBatch, ChannelInstance, RatePair, _conj_product, _relay_received,
                      _square, capacity, other)

__all__ = [
    "AfAuxiliaries",
    "AfAnalysis",
    "auxiliaries",
    "af_rate",
    "saturation_gain",
    "quadratic_coefficients",
    "critical_points",
    "real_gain_critical_points",
    "optimal_gain",
    "af_sum_rate_gain",
    "af_sum_rate_gain_batch",
]

# Relative threshold below which the quadratic's leading coefficient is
# treated as zero and the stationary-point equation solved as linear.
_COEFF_ZERO_RTOL = 1e-14


@dataclass(frozen=True)
class AfAuxiliaries:
    """Composite channel parameters of user ``user`` for the scalar SINR form."""

    user: int
    m: complex
    n: complex
    p: complex
    q: complex
    s: float


def auxiliaries(channel: ChannelInstance, user: int) -> AfAuxiliaries:
    with np.errstate(all="ignore"):
        values = _aux_values(ChannelBatch.of([channel]), user)
    return AfAuxiliaries(user, *(v.item() for v in values))


def _aux_values(batch: ChannelBatch, user: int) -> tuple:
    """m, n, p, q and s of user ``user``, each over the cells of ``batch`` (n and q, of shared
    fields alone in a map, broadcast); cross and relay-noise terms are normalized by N_i."""
    j, h_ri, N_i = other(user), batch.h_from_relay(user), batch.N(user)
    sqrt_rho_i, sqrt_pj_ni = np.sqrt(batch.P(user) / N_i), np.sqrt(batch.P(j) / N_i)
    values = (_times(_times(batch.h_to_relay(user), h_ri), sqrt_rho_i),
              _times(batch.h_direct(user), sqrt_rho_i),
              _times(_times(batch.h_to_relay(j), h_ri), sqrt_pj_ni),
              _times(batch.h_cross(user), sqrt_pj_ni), batch.g_from_relay(user) * batch.Nr / N_i)
    return tuple(np.broadcast_to(v, len(batch)) for v in values)


def _times(a, b) -> np.ndarray:
    """a * b elementwise as Python multiplies complex numbers (unfused, a float b as b + 0j)."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def af_rate(channel, gain, user: int):
    """Rate of user ``user`` in bits per channel use, for relay gain(s) >= 0.

    ``gain`` may be a scalar or a numpy array; ``channel`` may be a
    ``ChannelBatch`` whose arrays broadcast against it.
    """
    a = np.asarray(gain, dtype=float)
    if np.any(a < 0):
        raise ValueError(f"relay gain must be >= 0, got {gain!r}")
    j, h_ri = other(user), channel.h_from_relay(user)
    Pi, Pj = channel.P(user), channel.P(j)
    z_i = a * channel.h_to_relay(user) * h_ri + channel.h_direct(user)
    z_j = a * channel.h_to_relay(j) * h_ri + channel.h_cross(user)
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.abs(z_i) ** 2 * Pi
        den = (np.abs(z_j) ** 2 * Pj + a**2 * channel.g_from_relay(user) * channel.Nr
               + channel.N(user))
        kept = np.isfinite(num + den)
        if not kept.all():  # a square overflows at a large gain: take the powers inside it
            relay_noise = np.sqrt(channel.g_from_relay(user) * channel.Nr)
            num = np.where(kept, num, np.abs(z_i * np.sqrt(Pi)) ** 2)
            den = np.where(kept, den, np.abs(z_j * np.sqrt(Pj)) ** 2 + (a * relay_noise) ** 2
                           + channel.N(user))
    return capacity(num / den)


def saturation_gain(channel):
    """Amplification sqrt(P_r / A), A the relay's receive power, that makes
    the relay transmit at exactly its power budget (an array over the cells
    of a ``ChannelBatch``)."""
    gain = np.sqrt(channel.Pr / _relay_received(channel))
    return float(gain) if np.ndim(gain) == 0 else gain


def quadratic_coefficients(aux: AfAuxiliaries) -> Tuple[float, float, float]:
    """(c2, c1, c0) of the stationary-point quadratic c2 a^2 + c1 a + c0 = 0."""
    squares = (_square(z) for z in (aux.m, aux.n, aux.p, aux.q))
    coefficients = _coefficients(aux.m, aux.n, aux.p, aux.q, aux.s, *squares)[0]
    if not all(map(math.isfinite, coefficients)):
        raise ValueError(f"the AF stationary-point quadratic of user {aux.user} overflows a "
                         f"float: lower P1, P2 or Nr, or raise N{aux.user}")
    return coefficients


def _coefficients(m, n, p, q, s, mm, nn, pp, qq):
    """One user's Q = (c2, c1, c0), T and D (see ``af_sum_rate_gain``), highest
    power first, from its auxiliaries and mm = |m|^2, nn, pp, qq, elementwise."""
    re_pq, re_mn = _conj_product(p, q)[0], _conj_product(m, n)[0]
    d = (pp + s, 2.0 * re_pq, qq + 1.0)
    quadratic = (mm * re_pq - d[0] * re_mn, mm * d[2] - nn * d[0], d[2] * re_mn - nn * re_pq)
    return quadratic, (d[0] + mm, d[1] + 2.0 * re_mn, d[2] + nn), d


def _solve_stationary(c2: float, c1: float, c0: float) -> List[float]:
    """Real roots of the stationary-point polynomial, degenerate case raising."""
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise ValueError("degenerate stationary-point equation: all coefficients zero")
    if abs(c2) < _COEFF_ZERO_RTOL * scale:
        if abs(c1) < _COEFF_ZERO_RTOL * scale:
            return []  # constant-sign derivative, no stationary point
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    # Citardauq pairing avoids cancellation for the small-magnitude root.
    u = -0.5 * (c1 + math.copysign(sq, c1))
    r1 = u / c2
    r2 = c0 / u if u != 0.0 else -c1 / c2 - r1
    return sorted((r1, r2))


def critical_points(channel: ChannelInstance, user: int) -> List[float]:
    """All real stationary points of R_user(a_r), in increasing order."""
    return _solve_stationary(*quadratic_coefficients(auxiliaries(channel, user)))


def real_gain_critical_points(aux: AfAuxiliaries) -> Tuple[float, float]:
    """Closed-form stationary points for real-valued auxiliaries.

    Valid only when m, n, p, q are all real; both denominators assumed
    nonzero.
    """
    m, n, p, q = aux.m.real, aux.n.real, aux.p.real, aux.q.real
    s = aux.s
    a1 = -n / m
    a2 = -(m * q * q + m - p * q * n) / (m * q * p - p * p * n - n * s)
    return a1, a2


@dataclass(frozen=True)
class AfAnalysis:
    """Box-constrained optimum of one user's rate over the relay gain."""

    user: int
    saturation_gain: float
    asymptote: float
    optimal_gain: float
    optimal_rate: float


def _best_gain(batch: ChannelBatch, roots: np.ndarray, users):
    """Per cell, the best gain for the summed rate of ``users``, then each
    user's rate there, as arrays.  ``roots`` has a row per cell, NaN-padded.

    The candidates are 0, the saturation gain and every root strictly inside
    (0, saturation gain); the first argmax wins, in that order.  They are
    scored as one (cells, 2 + roots) array, each root outside the box (or
    padding) set to 0, where it ties with the first column and never wins.
    """
    a_bar = np.broadcast_to(saturation_gain(batch), len(roots))  # one element if shared
    inside = np.where((roots > 0.0) & (roots < a_bar[:, None]), roots, 0.0)
    cands = np.concatenate((np.zeros_like(a_bar)[:, None], a_bar[:, None], inside), axis=1)
    rates = [af_rate(batch.column(), cands, user) for user in users]
    k = sum(rates).argmax(axis=1)
    return tuple(x[np.arange(len(k)), k] for x in [cands] + rates)


def optimal_gain(channel: ChannelInstance, user: int) -> AfAnalysis:
    """Maximize R_user(a_r) over the box [0, saturation_gain].

    R_user is stationary only at the roots of its quadratic (those that
    ``critical_points`` reports), so the optimum is the best of the two
    endpoints and the roots inside the box; ties keep the first of 0, the
    saturation gain and the roots in increasing order.  When every
    coefficient of the quadratic vanishes, only the endpoints are scored.
    """
    aux = auxiliaries(channel, user)
    coefficients = quadratic_coefficients(aux)
    try:
        roots = _solve_stationary(*coefficients)
    except ValueError:
        roots = []
    gain, rate = (x.item() for x in _best_gain(
        ChannelBatch.of([channel]), np.array([roots], dtype=float).reshape(1, -1), (user,)))
    # h_ri = 0 gives m = p = s = 0: the rate is then the same at every gain.
    relayed = _square(aux.p) + aux.s
    return AfAnalysis(
        user=user,
        saturation_gain=saturation_gain(channel),
        asymptote=capacity(_square(aux.m) / relayed) if relayed > 0 else rate,
        optimal_gain=gain,
        optimal_rate=rate,
    )


def af_sum_rate_gain(
    channel: ChannelInstance, grid_points: int = 10_000
) -> Tuple[float, RatePair]:
    """Maximize R_1(a_r) + R_2(a_r) over [0, saturation_gain] in closed form.

    Per user, 1 + SINR_i = T_i / D_i with real quadratics D_i and
    T_i = D_i + M_i, where M_i = |m a + n|^2, so d/da log(T_i / D_i) =
    2 Q_i / (T_i D_i) with Q_i the per-user stationary-point quadratic.  The
    sum rate is therefore stationary where the degree-6 polynomial

        Q_1 T_2 D_2 + Q_2 T_1 D_1

    vanishes.  The candidates are both endpoints and the real part of every
    root of that polynomial inside (0, saturation_gain); roots are not
    filtered by their imaginary part, since an extra feasible candidate can
    only raise the maximum.  Ties keep the first candidate, in the order 0,
    saturation gain, roots, as in ``optimal_gain``.  This is
    ``af_sum_rate_gain_batch`` on a batch of one; ``grid_points`` is ignored.
    """
    gain, r1, r2 = (c.item() for c in af_sum_rate_gain_batch(ChannelBatch.of([channel])))
    if math.isnan(gain):
        raise ValueError(_OVERFLOW)
    return gain, RatePair(r1, r2)


# Why a cell's columns are NaN: its sum-rate polynomial leaves the floats.
_OVERFLOW = ("the AF sum-rate polynomial overflows a float: its coefficients multiply "
             "the ratios P1/N1, P2/N1, Nr/N1 and P2/N2, P1/N2, Nr/N2; lower P1, P2 "
             "or Nr, or raise N1 or N2")


def _sum_rate_polynomials(batch: ChannelBatch) -> np.ndarray:
    """Q_1 T_2 D_2 + Q_2 T_1 D_1 of each cell, highest power first, as ``np.roots``
    takes it: Q_i, T_i and D_i for the whole block, then T_i D_i of both users
    in one ``_products`` call and Q_i times the other user's T D in another."""
    aux = [np.concatenate(z) for z in zip(_aux_values(batch, 1), _aux_values(batch, 2))]
    squares = _square(np.array(aux[:4]))  # |m|^2, |n|^2, |p|^2, |q|^2
    q, t, d = (np.array(r) for r in _coefficients(*aux, *squares))  # cells of user 1, then 2
    n, td = len(batch), _products(t, d)
    products = _products(np.concatenate((td[:, n:], td[:, :n]), axis=1), q)
    return (products[:, :n] + products[:, n:]).T


def _products(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The polynomial product of columns a[:, k] and v[:, k] (a of w >= 3 rows, v of 3), each
    coefficient summing its terms a[i] v[j] from 0.0 in increasing i, left to right."""
    out = np.zeros((len(a) + 2, a.shape[1]))
    for j in (2, 1, 0):
        out[j:j + len(a)] += a * v[j]
    return out


def af_sum_rate_gain_batch(batch: ChannelBatch) -> Tuple[np.ndarray, ...]:
    """``af_sum_rate_gain`` of every cell of ``batch``: the columns (gain, R1, R2).

    The polynomials are formed for the whole block at once, by the float
    operations of one channel's Python arithmetic (unfused complex products,
    |z| as hypot, |z|^2 as ``channel._square``) and plain left-to-right
    polynomial products (``_products``).  One
    ``np.linalg.eigvals`` call on the stacked companion matrices then roots
    them all, as ``np.roots`` roots one (Edelman & Murakami, Math. Comp.
    1995).  A polynomial with a zero leading or trailing coefficient has a
    lower degree and goes through ``np.roots``.  A cell whose polynomial or
    companion row overflows (``_OVERFLOW``) is rooted by neither and has NaN
    columns.  The maps pass blocks of at most ``scenario._block_size`` cells.
    """
    with np.errstate(all="ignore"):
        polys = _sum_rate_polynomials(batch)
        top = -polys[:, 1:] / polys[:, :1]  # np.roots' companion row
    full = (polys[:, 0] != 0.0) & (polys[:, -1] != 0.0)
    fits = np.isfinite(polys).all(axis=1) & (~full | np.isfinite(top).all(axis=1))
    roots, full = np.full((len(batch), 6), np.nan), full & fits
    companion = np.zeros((np.count_nonzero(full), 6, 6))
    companion[:, np.arange(1, 6), np.arange(5)] = 1.0
    companion[:, 0, :] = top[full]
    roots[full] = np.linalg.eigvals(companion).real
    for k in np.flatnonzero(fits & ~full):
        r = np.roots(polys[k]).real
        roots[k, :len(r)] = r
    return tuple(np.where(fits, x, math.nan) for x in _best_gain(batch, roots, (1, 2)))
