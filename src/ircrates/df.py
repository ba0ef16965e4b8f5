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
    ChannelInstance, RatePair, capacity, check_nu_split, nu_simplex, other,
)

__all__ = ["DfParams", "df_rate", "df_sum_rate_search"]


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


def _df_sinr_terms(channel: ChannelInstance, t1, t2, n1, n2, user: int):
    """Relay-constraint SNR and destination SINR for arrays of parameters."""
    j = other(user)
    ti, tj = (t1, t2) if user == 1 else (t2, t1)
    ni_, nj_ = (n1, n2) if user == 1 else (n2, n1)
    Pi, Pj, Pr = channel.P(user), channel.P(j), channel.Pr
    h_ii, h_ji = channel.h_direct(user), channel.h_cross(user)
    h_ri = channel.h_from_relay(user)

    relay_snr = abs(channel.h_to_relay(user)) ** 2 * (1.0 - ti) * Pi / channel.Nr
    num = (
        abs(h_ii) ** 2 * Pi
        + abs(h_ri) ** 2 * ni_ * Pr
        + 2.0 * (h_ii * h_ri.conjugate()).real * np.sqrt(ti * Pi * ni_ * Pr)
    )
    den = (
        abs(h_ji) ** 2 * Pj
        + abs(h_ri) ** 2 * nj_ * Pr
        + 2.0 * (h_ji * h_ri.conjugate()).real * np.sqrt(tj * Pj * nj_ * Pr)
        + channel.N(user)
    )
    # AM-GM keeps both nonnegative; clip float round-off at zero.
    return relay_snr, np.maximum(num, 0.0) / den


def df_rate(channel: ChannelInstance, params: DfParams, user: int) -> float:
    """Achievable DF rate of user ``user`` in bits per channel use."""
    relay_snr, dest_sinr = _df_sinr_terms(
        channel, params.tau1, params.tau2, params.nu1, params.nu2, user
    )
    return float(min(capacity(relay_snr), capacity(dest_sinr)))


def _sum_rate_grid(channel: ChannelInstance, t1, t2, n1, n2):
    """Vectorized R_1 + R_2 over broadcastable parameter arrays."""
    total = 0.0
    for user in (1, 2):
        relay_snr, dest_sinr = _df_sinr_terms(channel, t1, t2, n1, n2, user)
        total = total + np.minimum(capacity(relay_snr), capacity(dest_sinr))
    return total


def df_sum_rate_search(
    channel: ChannelInstance,
    grid_points: int = 101,
    nu: Optional[Tuple[float, float]] = None,
) -> Tuple[DfParams, RatePair]:
    """Maximize R_1 + R_2 over the DF parameter set by grid search.

    With ``nu`` supplied (e.g. the uniform split (1/2, 1/2)) only the two
    cooperation degrees are searched; otherwise the relay split sweeps the
    simplex as well.  A single coordinate-descent refinement pass at a tenth
    of the grid step follows the scan.  Deterministic: ties keep the earliest
    grid point in row-major order.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    taus = np.linspace(0.0, 1.0, grid_points)
    t1g, t2g = np.meshgrid(taus, taus, indexing="ij")

    best = None  # (sum_rate, t1, t2, n1, n2)
    nu_pairs = [tuple(nu)] if nu is not None else nu_simplex(grid_points)
    for n1, n2 in nu_pairs:
        f = _sum_rate_grid(channel, t1g, t2g, n1, n2)
        k = int(np.argmax(f))
        cand = (float(f.flat[k]), float(t1g.flat[k]), float(t2g.flat[k]), n1, n2)
        if best is None or cand[0] > best[0]:
            best = cand

    _, t1, t2, n1, n2 = best
    point = [t1, t2, n1, n2]
    step = taus[1] - taus[0]
    free = [True, True, nu is None, nu is None]
    for axis in range(4):
        if not free[axis]:
            continue
        lo = max(0.0, point[axis] - step)
        hi = min(1.0, point[axis] + step)
        vals = np.linspace(lo, hi, 21)  # step/10 refinement
        trial = list(point)
        trial[axis] = vals
        # Points off the nu simplex are skipped; a point replaces the current
        # one only if strictly better, and the first of equal maxima wins.
        f = np.where(trial[2] + trial[3] > 1.0, -np.inf,
                     _sum_rate_grid(channel, *trial))
        k = int(np.argmax(f))
        if f[k] > _sum_rate_grid(channel, *point):
            point[axis] = float(vals[k])

    params = DfParams(tau1=point[0], tau2=point[1], nu1=point[2], nu2=point[3])
    return params, RatePair(df_rate(channel, params, 1), df_rate(channel, params, 2))

