"""Estimate-and-forward for the Gaussian channel: single- and bi-level compression.

The relay Wyner-Ziv compresses its observation Y_r against each
destination's direct signal.  In the bi-level variant it superposes two
independent compression codewords with power split (nu_1, nu_2); three
scenarios arise depending on which destination (if either) can decode the
other's relay codeword and cancel the relay-induced interference.  In the
single-level variant one codeword at full relay power serves both
destinations, at the resolution the worse one can handle.

Every destination rate has the same two-branch structure: a direct branch
plus a compressed-relay branch,

    R = C( |h_d|^2 P / (N + I + J_dir)  +  |h_u|^2 P / (N_r + N_wz + J_rel) )

where I is uncancelled relay interference power and the J terms are the
residual interference of the other user after each branch's side
information.  Compression noises are strictly rate-decreasing, so minimal
admissible values are always optimal; callers who do not specify them get
the lower bounds with equality.

Second-order statistics (the conditional variances behind the compression
constraints) use circular complex conventions: the cross term between Y_r
and a destination signal is the modulus of the complex covariance
sum_k h_kd h_kr^* P_k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .channel import (
    ChannelInstance, RatePair, capacity, check_nu_split, nu_simplex, other,
)
from .errors import ConstraintViolationError, InfeasibleError

__all__ = [
    "BiScenario",
    "EfDerived",
    "EfBiParams",
    "ef_derived",
    "ef_bi_scenario",
    "ef_bi_min_noise",
    "ef_bi_rate",
    "ef_bi_eval",
    "ef_sl_bottleneck",
    "ef_sl_min_noise",
    "ef_sl_rate",
    "ef_bi_sum_rate_search",
]

# Relative slack for compression-noise feasibility checks, so that bounds
# passed back in at exact equality never trip on round-off.
_FEAS_RTOL = 1e-9


class BiScenario(enum.Enum):
    """Which destination can decode and cancel the other's relay codeword."""

    D1_BETTER = "d1_better"
    D2_BETTER = "d2_better"
    NEITHER = "neither"


@dataclass(frozen=True)
class EfDerived:
    """Second-order quantities shared by both compression variants.

    ``A`` is the relay receive power, ``A1``/``A2`` the magnitudes of the
    complex covariances between Y_r and each destination's direct signal,
    and ``sigma1_sq``/``sigma2_sq`` the per-destination conditional
    variances of Y_r given the direct observation (linear-MMSE residuals).
    """

    A: float
    A1: float
    A2: float
    sigma1_sq: float
    sigma2_sq: float

    def sigma_sq(self, i: int) -> float:
        return (self.sigma1_sq, self.sigma2_sq)[i - 1]

    def cross(self, i: int) -> float:
        return (self.A1, self.A2)[i - 1]


def _receive_power(channel: ChannelInstance, i: int) -> float:
    """Total receive power at D_i excluding any relay contribution."""
    j = other(i)
    return (
        abs(channel.h_direct(i)) ** 2 * channel.P(i)
        + abs(channel.h_cross(i)) ** 2 * channel.P(j)
        + channel.N(i)
    )


def ef_derived(channel: ChannelInstance) -> EfDerived:
    A = (
        abs(channel.h1r) ** 2 * channel.P1
        + abs(channel.h2r) ** 2 * channel.P2
        + channel.Nr
    )
    cross = {}
    sigma = {}
    for i in (1, 2):
        j = other(i)
        cov = (
            channel.h_direct(i) * channel.h_to_relay(i).conjugate() * channel.P(i)
            + channel.h_cross(i) * channel.h_to_relay(j).conjugate() * channel.P(j)
        )
        cross[i] = abs(cov)
        sigma[i] = A - cross[i] ** 2 / _receive_power(channel, i)
    return EfDerived(
        A=A, A1=cross[1], A2=cross[2], sigma1_sq=sigma[1], sigma2_sq=sigma[2]
    )


@dataclass(frozen=True)
class EfBiParams:
    """Relay power split and per-destination compression noises (bi-level)."""

    nu1: float
    nu2: float
    nwz1: float
    nwz2: float

    def __post_init__(self):
        check_nu_split(self.nu1, self.nu2)
        for name in ("nwz1", "nwz2"):
            v = getattr(self, name)
            if not v > 0:  # +inf allowed: degenerate (useless) compression
                raise ValueError(f"{name} must be positive, got {v}")


def ef_bi_scenario(channel: ChannelInstance, nu1: float, nu2: float) -> BiScenario:
    """Decide which destination can decode the other's relay codeword.

    Conditions are checked in printed order; equality in the first condition
    selects D1_BETTER.
    """
    g1 = abs(channel.hr1) ** 2
    g2 = abs(channel.hr2) ** 2
    Pr = channel.Pr
    v1, v2 = _receive_power(channel, 1), _receive_power(channel, 2)
    # D1 decoding the codeword intended for D2, vs D2 decoding its own.
    if capacity(g1 * nu2 * Pr / (v1 + g1 * nu1 * Pr)) >= capacity(
        g2 * nu2 * Pr / (v2 + g2 * nu1 * Pr)
    ):
        return BiScenario.D1_BETTER
    if capacity(g2 * nu1 * Pr / (v2 + g2 * nu2 * Pr)) >= capacity(
        g1 * nu1 * Pr / (v1 + g1 * nu2 * Pr)
    ):
        return BiScenario.D2_BETTER
    return BiScenario.NEITHER


def _relay_interference(
    channel: ChannelInstance, nu1: float, nu2: float, scenario: BiScenario, i: int
) -> float:
    """Uncancelled relay codeword power seen at D_i under ``scenario``."""
    if i == 1:
        cancelled = scenario in (BiScenario.D1_BETTER,)
        return 0.0 if cancelled else abs(channel.hr1) ** 2 * nu2 * channel.Pr
    cancelled = scenario in (BiScenario.D2_BETTER,)
    return 0.0 if cancelled else abs(channel.hr2) ** 2 * nu1 * channel.Pr


def ef_bi_min_noise(
    channel: ChannelInstance, nu1: float, nu2: float, scenario: BiScenario
) -> Tuple[float, float]:
    """Scenario-appropriate compression-noise lower bounds, met with equality.

    A stream with zero relay power (|h_ri|^2 nu_i P_r = 0) gets the bound
    +inf: only infinite noise, which drops that relay branch, is admissible.
    """
    derived = ef_derived(channel)
    bounds = []
    for i, nu_i in ((1, nu1), (2, nu2)):
        denom = abs(channel.h_from_relay(i)) ** 2 * nu_i * channel.Pr
        if denom <= 0.0:
            bounds.append(math.inf)
            continue
        side_power = _receive_power(channel, i) + _relay_interference(
            channel, nu1, nu2, scenario, i
        )
        bounds.append((side_power * derived.A - derived.cross(i) ** 2) / denom)
    return bounds[0], bounds[1]


def _two_branch_sinr(
    channel: ChannelInstance, i: int, relay_interf: float, nwz: float
) -> float:
    """Direct-plus-compressed-branch SINR of destination i.

    ``nwz`` may be +inf, in which case the compressed branch vanishes and
    the direct branch sees the full interferer power.
    """
    j = other(i)
    Pi, Pj = channel.P(i), channel.P(j)
    gd = abs(channel.h_direct(i)) ** 2
    gc = abs(channel.h_cross(i)) ** 2
    gu = abs(channel.h_to_relay(i)) ** 2
    gw = abs(channel.h_to_relay(j)) ** 2
    Ni, Nr = channel.N(i), channel.Nr

    if math.isinf(nwz):
        direct = gd * Pi / (Ni + relay_interf + gc * Pj)
        return direct
    direct = gd * Pi / (
        Ni + relay_interf + gc * Pj * (Nr + nwz) / (gw * Pj + Nr + nwz)
    )
    noise_floor = relay_interf + Ni
    relayed = gu * Pi / (
        Nr + nwz + gw * Pj * noise_floor / (gc * Pj + noise_floor)
    )
    return direct + relayed


def ef_bi_rate(
    channel: ChannelInstance, params: EfBiParams, scenario: BiScenario
) -> RatePair:
    """Achievable (R1, R2) for the bi-level scheme under ``scenario``.

    Parameters must satisfy the scenario's compression-noise lower bounds
    (+inf for a zero-power stream); a violation raises
    ConstraintViolationError naming the bound.
    """
    bounds = ef_bi_min_noise(channel, params.nu1, params.nu2, scenario)
    for i, (nwz, bound) in enumerate(zip((params.nwz1, params.nwz2), bounds), start=1):
        if nwz < bound * (1.0 - _FEAS_RTOL):
            raise ConstraintViolationError(f"nwz{i} lower bound", nwz, bound)
    return _bi_rates(channel, params, scenario)


def _bi_rates(
    channel: ChannelInstance, params: EfBiParams, scenario: BiScenario
) -> RatePair:
    """``ef_bi_rate`` without the compression-noise check."""
    rates = []
    for i, nwz in ((1, params.nwz1), (2, params.nwz2)):
        interf = _relay_interference(channel, params.nu1, params.nu2, scenario, i)
        rates.append(capacity(_two_branch_sinr(channel, i, interf, nwz)))
    return RatePair(rates[0], rates[1])


def ef_sl_bottleneck(channel: ChannelInstance) -> float:
    """Common broadcast rate both destinations can decode from the relay."""
    return min(
        capacity(
            abs(channel.h_from_relay(i)) ** 2 * channel.Pr / _receive_power(channel, i)
        )
        for i in (1, 2)
    )


def ef_sl_min_noise(channel: ChannelInstance, r0_exponent: int = 2) -> float:
    """Smallest admissible single-level compression noise.

    ``r0_exponent`` selects the constraint denominator 2^(e R_0) - 1; the
    default e = 2 follows the source formula, e = 1 is the complex-signal
    variant.
    """
    if r0_exponent not in (1, 2):
        raise ValueError(f"r0_exponent must be 1 or 2, got {r0_exponent}")
    r0 = ef_sl_bottleneck(channel)
    if r0 <= 0.0:
        raise InfeasibleError("relay broadcast bottleneck rate is zero")
    derived = ef_derived(channel)
    return max(derived.sigma1_sq, derived.sigma2_sq) / (
        2.0 ** (r0_exponent * r0) - 1.0
    )


def ef_sl_rate(
    channel: ChannelInstance,
    nwz: float,
    r0_exponent: int = 2,
) -> RatePair:
    """Achievable (R1, R2) for the single-level scheme at compression noise ``nwz``."""
    bound = ef_sl_min_noise(channel, r0_exponent)  # raises if bottleneck is zero
    if nwz < bound * (1.0 - _FEAS_RTOL):
        raise ConstraintViolationError("nwz lower bound", nwz, bound)
    return RatePair(
        capacity(_two_branch_sinr(channel, 1, 0.0, nwz)),
        capacity(_two_branch_sinr(channel, 2, 0.0, nwz)),
    )


def ef_bi_eval(
    channel: ChannelInstance, nu1: float, nu2: float
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """Scenario, minimal-noise parameters and rates for a given power split.

    A zero-power compression stream gets infinite noise, so only its own
    relay branch contributes nothing.  The noises are the bounds themselves,
    so the rates skip ``ef_bi_rate``'s check.
    """
    scenario = ef_bi_scenario(channel, nu1, nu2)
    nwz1, nwz2 = ef_bi_min_noise(channel, nu1, nu2, scenario)
    params = EfBiParams(nu1=nu1, nu2=nu2, nwz1=nwz1, nwz2=nwz2)
    return params, scenario, _bi_rates(channel, params, scenario)


def _bi_eval_simplex(channel: ChannelInstance, nu1, nu2):
    """``ef_bi_eval`` over arrays of relay splits, elementwise and in its
    operand order: (scenario index into ``BiScenario``, nwz1, nwz2, R1, R2).

    ``ef_bi_eval`` stays the scalar path of single splits; tests hold the
    two equal at every simplex point.
    """
    g1, g2 = abs(channel.hr1) ** 2, abs(channel.hr2) ** 2
    Pr = channel.Pr
    v = {1: _receive_power(channel, 1), 2: _receive_power(channel, 2)}
    # ef_bi_scenario's two tests; the first wins a tie.
    d1 = capacity(g1 * nu2 * Pr / (v[1] + g1 * nu1 * Pr)) >= capacity(
        g2 * nu2 * Pr / (v[2] + g2 * nu1 * Pr))
    d2 = ~d1 & (capacity(g2 * nu1 * Pr / (v[2] + g2 * nu2 * Pr)) >= capacity(
        g1 * nu1 * Pr / (v[1] + g1 * nu2 * Pr)))
    derived = ef_derived(channel)
    nwz, sinr = {}, {}
    for i, cancels, nu_i, nu_j in ((1, d1, nu1, nu2), (2, d2, nu2, nu1)):
        g = abs(channel.h_from_relay(i)) ** 2
        interf = np.where(cancels, 0.0, g * nu_j * Pr)  # _relay_interference
        # ef_bi_min_noise: +inf for a stream with no relay power.
        denom = g * nu_i * Pr
        nwz[i] = np.divide((v[i] + interf) * derived.A - derived.cross(i) ** 2, denom,
                           out=np.full(np.shape(denom), math.inf), where=denom > 0.0)
        # _two_branch_sinr; a zero-power stream keeps the direct branch only.
        j = other(i)
        Pi, Pj = channel.P(i), channel.P(j)
        gd = abs(channel.h_direct(i)) ** 2
        gc = abs(channel.h_cross(i)) ** 2
        gu = abs(channel.h_to_relay(i)) ** 2
        gw = abs(channel.h_to_relay(j)) ** 2
        Ni, Nr = channel.N(i), channel.Nr
        finite = np.isfinite(nwz[i])
        w = np.where(finite, nwz[i], 0.0)
        direct = gd * Pi / (Ni + interf + gc * Pj * (Nr + w) / (gw * Pj + Nr + w))
        noise_floor = interf + Ni
        relayed = gu * Pi / (Nr + w + gw * Pj * noise_floor / (gc * Pj + noise_floor))
        sinr[i] = np.where(finite, direct + relayed, gd * Pi / (Ni + interf + gc * Pj))
    scenario = np.where(d1, 0, np.where(d2, 1, 2))
    return scenario, nwz[1], nwz[2], capacity(sinr[1]), capacity(sinr[2])


def ef_bi_sum_rate_search(
    channel: ChannelInstance, grid_points: int = 41
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """Best sum rate over a uniform (nu1, nu2) simplex grid at minimal noises.

    Every simplex point is evaluated at once, with the formulas of
    ``ef_bi_eval``, and none is pruned, so the result is that of evaluating
    the points one by one.  Deterministic: ties keep the smallest simplex
    index, i.e. the earliest grid cell in row-major order (nu1 varying
    slowest).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    grid, i1, i2 = nu_simplex(grid_points)
    nu1, nu2 = grid[i1], grid[i2]
    scenario, nwz1, nwz2, r1, r2 = _bi_eval_simplex(channel, nu1, nu2)
    # EfBiParams refuses a non-positive noise: the first such split raises,
    # as in a loop over the splits.
    bad = np.flatnonzero(~((nwz1 > 0) & (nwz2 > 0)))
    k = bad[0] if len(bad) else int(np.argmax(r1 + r2))
    params = EfBiParams(nu1=float(nu1[k]), nu2=float(nu2[k]),
                        nwz1=float(nwz1[k]), nwz2=float(nwz2[k]))
    return params, list(BiScenario)[scenario[k]], RatePair(float(r1[k]), float(r2[k]))
