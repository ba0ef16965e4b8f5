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

from .channel import ChannelInstance, RatePair, capacity, other

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
    j = other(user)
    sqrt_rho_i = math.sqrt(channel.rho(user))
    # Cross and relay-noise terms normalized by the receiver noise N_i.
    sqrt_pj_ni = math.sqrt(channel.P(j) / channel.N(user))
    h_ri = channel.h_from_relay(user)
    return AfAuxiliaries(
        user=user,
        m=channel.h_to_relay(user) * h_ri * sqrt_rho_i,
        n=channel.h_direct(user) * sqrt_rho_i,
        p=channel.h_to_relay(j) * h_ri * sqrt_pj_ni,
        q=channel.h_cross(user) * sqrt_pj_ni,
        s=abs(h_ri) ** 2 * channel.Nr / channel.N(user),
    )


def af_rate(channel: ChannelInstance, gain, user: int):
    """Rate of user ``user`` in bits per channel use, for relay gain(s) >= 0.

    ``gain`` may be a scalar or a numpy array.
    """
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
        + a**2 * abs(h_ri) ** 2 * channel.Nr
        + channel.N(user)
    )
    return capacity(num / den)


def saturation_gain(channel: ChannelInstance) -> float:
    """Amplification that makes the relay transmit at exactly its power budget."""
    received = (
        abs(channel.h1r) ** 2 * channel.P1
        + abs(channel.h2r) ** 2 * channel.P2
        + channel.Nr
    )
    return math.sqrt(channel.Pr / received)


def quadratic_coefficients(aux: AfAuxiliaries) -> Tuple[float, float, float]:
    """(c2, c1, c0) of the stationary-point quadratic c2 a^2 + c1 a + c0 = 0."""
    m, n, p, q, s = aux.m, aux.n, aux.p, aux.q, aux.s
    re_pq = (p * q.conjugate()).real
    re_mn = (m * n.conjugate()).real
    c2 = abs(m) ** 2 * re_pq - (abs(p) ** 2 + s) * re_mn
    c1 = abs(m) ** 2 * (abs(q) ** 2 + 1.0) - abs(n) ** 2 * (abs(p) ** 2 + s)
    c0 = (abs(q) ** 2 + 1.0) * re_mn - abs(n) ** 2 * re_pq
    return c2, c1, c0


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


def _best_gain(channel: ChannelInstance, roots, users) -> Tuple[float, List[float]]:
    """Best gain for the summed rate of ``users``, and each user's rate there.

    The candidates are 0, the saturation gain and the real part of every
    root strictly inside (0, saturation gain); the first argmax wins, in
    that order.
    """
    a_bar = saturation_gain(channel)
    roots = np.asarray(roots).real
    cands = np.concatenate(([0.0, a_bar], roots[(roots > 0.0) & (roots < a_bar)]))
    rates = [af_rate(channel, cands, user) for user in users]
    k = int(np.argmax(sum(rates)))
    return float(cands[k]), [float(r[k]) for r in rates]


def optimal_gain(channel: ChannelInstance, user: int) -> AfAnalysis:
    """Maximize R_user(a_r) over the box [0, saturation_gain].

    R_user is stationary only at the roots of its quadratic (those that
    ``critical_points`` reports), so the optimum is the best of the two
    endpoints and the roots inside the box; ties keep the first of 0, the
    saturation gain and the roots in increasing order.  When every
    coefficient of the quadratic vanishes, only the endpoints are scored.
    """
    aux = auxiliaries(channel, user)
    try:
        roots = _solve_stationary(*quadratic_coefficients(aux))
    except ValueError:
        roots = []
    gain, (rate,) = _best_gain(channel, roots, (user,))
    # h_ri = 0 gives m = p = s = 0: the rate is then the same at every gain.
    relayed = abs(aux.p) ** 2 + aux.s
    return AfAnalysis(
        user=user,
        saturation_gain=saturation_gain(channel),
        asymptote=capacity(abs(aux.m) ** 2 / relayed) if relayed > 0 else rate,
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
    saturation gain, roots, as in ``optimal_gain``.

    ``grid_points`` is ignored; it is accepted for callers of the former
    numerical search.
    """
    a_bar = saturation_gain(channel)
    q, td = [], []  # per user: Q_i, and the quartic T_i D_i
    for user in (1, 2):
        aux = auxiliaries(channel, user)
        d = np.array([
            abs(aux.p) ** 2 + aux.s,
            2.0 * (aux.p * aux.q.conjugate()).real,
            abs(aux.q) ** 2 + 1.0,
        ])
        t = d + np.array([
            abs(aux.m) ** 2,
            2.0 * (aux.m * aux.n.conjugate()).real,
            abs(aux.n) ** 2,
        ])
        q.append(quadratic_coefficients(aux))
        td.append(np.convolve(t, d))
    # Coefficient arrays run from the highest power down, as np.roots takes.
    roots = np.roots(np.convolve(q[0], td[1]) + np.convolve(q[1], td[0]))
    gain, (r1, r2) = _best_gain(channel, roots, (1, 2))
    return gain, RatePair(r1, r2)
