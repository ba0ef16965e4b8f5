"""Zero-delay scalar amplify-and-forward: rates and optimal relay gain.

The relay transmits X_r = a_r * Y_r.  With single-user decoding, user i sees

    SINR_i(a_r) = |a_r h_ir h_ri + h_ii|^2 P_i
                  / (|a_r h_jr h_ri + h_ji|^2 P_j + a_r^2 |h_ri|^2 N_r + N_i)

and R_i(a_r) = C(SINR_i).  Dividing through by N_i puts the SINR in the
scalar form |m a + n|^2 / (|p a + q|^2 + s a^2 + 1) whose stationary points
solve a quadratic; the box-constrained maximizer over [0, a_sat] follows
from a sign/position case analysis on the two roots.  Full relay power is
therefore not always optimal.

The sum rate R_1 + R_2 is maximized in closed form as well: its stationary
points are the roots of a degree-6 polynomial built from the two per-user
quadratics, and the optimum is the best of those roots inside (0, a_sat)
and the two endpoints (see ``af_sum_rate_gain``).

Note the composite auxiliaries: m and n carry sqrt(P_i/N_i), while p, q and
s are normalized by the *receiver* noise N_i (p, q carry sqrt(P_j/N_i) and
s = |h_ri|^2 N_r/N_i).  With all noise variances equal this collapses to the
symmetric sqrt(rho) form; for unequal noises only this normalization makes
the stationary points of the scalar form coincide with those of SINR_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    """Full stationary-point analysis and box-constrained optimum for one user."""

    user: int
    saturation_gain: float
    quadratic_coeffs: Tuple[float, float, float]
    discriminant: float
    critical_points: Tuple[float, ...]
    asymptote: float
    optimal_gain: float
    optimal_rate: float
    degenerate: bool = False


def optimal_gain(channel: ChannelInstance, user: int) -> AfAnalysis:
    """Maximize R_user(a_r) over the box [0, saturation_gain].

    Branches on the discriminant sign, the leading-coefficient sign and the
    positions of the two stationary points relative to the box, with endpoint
    rate comparisons resolving the ambiguous branches by exact evaluation.
    """
    aux = auxiliaries(channel, user)
    a_bar = saturation_gain(channel)
    c2, c1, c0 = quadratic_coefficients(aux)
    disc = c1 * c1 - 4.0 * c2 * c0
    asymptote = capacity(abs(aux.m) ** 2 / (abs(aux.p) ** 2 + aux.s))

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

    return AfAnalysis(
        user=user,
        saturation_gain=a_bar,
        quadratic_coeffs=(c2, c1, c0),
        discriminant=disc,
        critical_points=tuple(roots),
        asymptote=asymptote,
        optimal_gain=a_star,
        optimal_rate=rate(a_star),
        degenerate=degenerate,
    )


def af_sum_rate_gain(
    channel: ChannelInstance,
    tolerance: float = 1e-10,
    grid_points: int = 10_000,
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
    saturation gain, roots.

    ``tolerance`` and ``grid_points`` are ignored; they are accepted for
    compatibility with callers of the former numerical search.
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
    roots = np.roots(np.convolve(q[0], td[1]) + np.convolve(q[1], td[0])).real
    cands = np.concatenate(([0.0, a_bar], roots[(roots > 0.0) & (roots < a_bar)]))
    r1, r2 = af_rate(channel, cands, 1), af_rate(channel, cands, 2)
    k = int(np.argmax(r1 + r2))
    return float(cands[k]), RatePair(float(r1[k]), float(r2[k]))
