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
from typing import List, Optional, Tuple

import numpy as np

from .channel import (
    ChannelBatch, ChannelInstance, RatePair, _conj_product, capacity, check_nu_split,
    nu_simplex, other,
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
    "ef_sl_batch",
    "ef_bi_sum_rate_search",
    "ef_bi_sum_rate_search_batch",
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


# The formulas below take a ChannelInstance or a ChannelBatch and work
# elementwise, over the cells of a batch or over arrays of relay splits.


def _receive_power(channel, i: int):
    """Total receive power at D_i excluding any relay contribution."""
    j = other(i)
    return channel.g_direct(i) * channel.P(i) + channel.g_cross(i) * channel.P(j) + channel.N(i)


def _pow(f, x):
    """``f`` of each element of ``x`` in Python floats: the libm pow that a
    single channel's formulas use, which numpy's ``**`` does not reproduce."""
    x = np.asarray(x)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _derived(channel):
    """(A, (A1, A2), (sigma1_sq, sigma2_sq), (A1 ** 2, A2 ** 2))."""
    A = channel.g_to_relay(1) * channel.P1 + channel.g_to_relay(2) * channel.P2 + channel.Nr
    cross, sq, sigma = [], [], []
    for i in (1, 2):
        j = other(i)
        re_i, im_i = _conj_product(channel.h_direct(i), channel.h_to_relay(i))
        re_j, im_j = _conj_product(channel.h_cross(i), channel.h_to_relay(j))
        # |h_ii h_ir^* P_i + h_ji h_jr^* P_j|
        cross.append(np.hypot(re_i * channel.P(i) + re_j * channel.P(j),
                              im_i * channel.P(i) + im_j * channel.P(j)))
        sq.append(_pow(lambda v: v ** 2, cross[-1]))
        sigma.append(A - sq[-1] / _receive_power(channel, i))
    return A, cross, sigma, sq


def ef_derived(channel: ChannelInstance) -> EfDerived:
    A, (A1, A2), (s1, s2), _ = _derived(channel)
    return EfDerived(A=float(A), A1=float(A1), A2=float(A2),
                     sigma1_sq=float(s1), sigma2_sq=float(s2))


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


def _scenario_flags(channel, nu1, nu2):
    """Masks (D1_BETTER, D2_BETTER) of ``ef_bi_scenario``; neither is NEITHER."""
    g1, g2, Pr = channel.g_from_relay(1), channel.g_from_relay(2), channel.Pr
    v1, v2 = _receive_power(channel, 1), _receive_power(channel, 2)
    # D1 decoding the codeword intended for D2, vs D2 decoding its own; the
    # first test wins a tie.
    d1 = np.asarray(capacity(g1 * nu2 * Pr / (v1 + g1 * nu1 * Pr))
                    >= capacity(g2 * nu2 * Pr / (v2 + g2 * nu1 * Pr)))
    d2 = ~d1 & (capacity(g2 * nu1 * Pr / (v2 + g2 * nu2 * Pr))
                >= capacity(g1 * nu1 * Pr / (v1 + g1 * nu2 * Pr)))
    return d1, d2


def ef_bi_scenario(channel: ChannelInstance, nu1: float, nu2: float) -> BiScenario:
    """Decide which destination can decode the other's relay codeword.

    Conditions are checked in printed order; equality in the first condition
    selects D1_BETTER.
    """
    d1, d2 = _scenario_flags(channel, nu1, nu2)
    return BiScenario.D1_BETTER if d1 else BiScenario.D2_BETTER if d2 else BiScenario.NEITHER


def _interference(channel, nu1, nu2, d1, d2):
    """Uncancelled relay codeword power seen at D1 and at D2: 0 at D_i where
    ``d_i`` holds, i.e. where D_i decodes and cancels the other's codeword."""
    return [np.where(d1, 0.0, channel.g_from_relay(1) * nu2 * channel.Pr),
            np.where(d2, 0.0, channel.g_from_relay(2) * nu1 * channel.Pr)]


def _min_noise(channel, nu1, nu2, interference):
    """Both compression-noise lower bounds, given the relay interference at
    each destination; +inf for a stream with no relay power."""
    A, _, _, cross_sq = _derived(channel)
    bounds = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, nu_i in ((1, nu1), (2, nu2)):
            denom = channel.g_from_relay(i) * nu_i * channel.Pr
            num = (_receive_power(channel, i) + interference[i - 1]) * A - cross_sq[i - 1]
            bounds.append(np.where(denom > 0.0, num / denom, math.inf))
    return bounds


def ef_bi_min_noise(
    channel: ChannelInstance, nu1: float, nu2: float, scenario: BiScenario
) -> Tuple[float, float]:
    """Scenario-appropriate compression-noise lower bounds, met with equality.

    A stream with zero relay power (|h_ri|^2 nu_i P_r = 0) gets the bound
    +inf: only infinite noise, which drops that relay branch, is admissible.
    """
    cancels = (scenario is BiScenario.D1_BETTER, scenario is BiScenario.D2_BETTER)
    b1, b2 = _min_noise(channel, nu1, nu2, _interference(channel, nu1, nu2, *cancels))
    return float(b1), float(b2)


def _two_branch_sinr(channel, i: int, relay_interf, nwz):
    """Direct-plus-compressed-branch SINR of destination i.

    Where ``nwz`` is +inf the compressed branch vanishes and the direct
    branch sees the full interferer power.
    """
    j = other(i)
    Pi, Pj = channel.P(i), channel.P(j)
    gd, gc = channel.g_direct(i), channel.g_cross(i)
    gu, gw = channel.g_to_relay(i), channel.g_to_relay(j)
    Ni, Nr = channel.N(i), channel.Nr
    dropped = np.isinf(nwz)
    w = np.where(dropped, 0.0, nwz)
    with np.errstate(over="ignore"):
        leak = gc * Pj * (Nr + w) / (gw * Pj + Nr + w)
    if np.isinf(leak).any():  # gc Pj (Nr + w) overflows: divide before multiplying
        leak = np.where(np.isinf(leak), gc * Pj * ((Nr + w) / (gw * Pj + Nr + w)), leak)
    direct = gd * Pi / (Ni + relay_interf + leak)
    noise_floor = relay_interf + Ni
    relayed = gu * Pi / (Nr + w + gw * Pj * noise_floor / (gc * Pj + noise_floor))
    return np.where(dropped, gd * Pi / (Ni + relay_interf + gc * Pj), direct + relayed)


def ef_bi_rate(
    channel: ChannelInstance, params: EfBiParams, scenario: BiScenario
) -> RatePair:
    """Achievable (R1, R2) for the bi-level scheme under ``scenario``.

    Parameters must satisfy the scenario's compression-noise lower bounds
    (+inf for a zero-power stream); a violation raises
    ConstraintViolationError naming the bound.
    """
    cancels = (scenario is BiScenario.D1_BETTER, scenario is BiScenario.D2_BETTER)
    interference = _interference(channel, params.nu1, params.nu2, *cancels)
    bounds = _min_noise(channel, params.nu1, params.nu2, interference)
    noises = (params.nwz1, params.nwz2)
    for i, (nwz, bound) in enumerate(zip(noises, map(float, bounds)), start=1):
        if nwz < bound * (1.0 - _FEAS_RTOL):
            raise ConstraintViolationError(f"nwz{i} lower bound", nwz, bound)
    return RatePair(*(capacity(_two_branch_sinr(channel, i, interference[i - 1], noises[i - 1]))
                      for i in (1, 2)))


def _bi_eval(channel, nu1, nu2):
    """``ef_bi_eval`` elementwise, over the cells of a batch or over arrays
    of relay splits: (scenario index into ``BiScenario``, nwz1, nwz2, R1, R2)."""
    d1, d2 = _scenario_flags(channel, nu1, nu2)
    interference = _interference(channel, nu1, nu2, d1, d2)
    nwz = _min_noise(channel, nu1, nu2, interference)
    r1, r2 = (capacity(_two_branch_sinr(channel, i, interference[i - 1], nwz[i - 1]))
              for i in (1, 2))
    return np.where(d1, 0, np.where(d2, 1, 2)), nwz[0], nwz[1], r1, r2


def ef_bi_eval(
    channel: ChannelInstance, nu1: float, nu2: float
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """Scenario, minimal-noise parameters and rates for a given power split.

    A zero-power compression stream gets infinite noise, so only its own
    relay branch contributes nothing.  The noises are the bounds themselves,
    so the rates skip ``ef_bi_rate``'s check.  This is
    ``ef_bi_sum_rate_search_batch`` at ``nu`` on a batch of one.
    """
    return ef_bi_sum_rate_search_batch(ChannelBatch.of([channel]), nu=(nu1, nu2))[0]


def _sl_min_noise(channel, r0_exponent: int):
    """(R_0, smallest admissible noise) of the single-level scheme,
    elementwise; the noise means nothing where R_0 <= 0."""
    if r0_exponent not in (1, 2):
        raise ValueError(f"r0_exponent must be 1 or 2, got {r0_exponent}")
    r0 = np.minimum(*(capacity(channel.g_from_relay(i) * channel.Pr / _receive_power(channel, i))
                      for i in (1, 2)))
    _, _, (s1, s2), _ = _derived(channel)
    with np.errstate(divide="ignore", invalid="ignore"):  # R_0 = 0
        return r0, np.maximum(s1, s2) / (_pow(lambda r: 2.0 ** (r0_exponent * r), r0) - 1.0)


def ef_sl_bottleneck(channel: ChannelInstance) -> float:
    """Common broadcast rate both destinations can decode from the relay."""
    return float(_sl_min_noise(channel, 2)[0])


def ef_sl_min_noise(channel: ChannelInstance, r0_exponent: int = 2) -> float:
    """Smallest admissible single-level compression noise.

    ``r0_exponent`` selects the constraint denominator 2^(e R_0) - 1; the
    default e = 2 follows the source formula, e = 1 is the complex-signal
    variant.
    """
    return ef_sl_batch(ChannelBatch.of([channel]), r0_exponent)[0][0]


def ef_sl_rate(
    channel: ChannelInstance,
    nwz: float,
    r0_exponent: int = 2,
) -> RatePair:
    """Achievable (R1, R2) for the single-level scheme at compression noise ``nwz``."""
    bound = ef_sl_min_noise(channel, r0_exponent)  # raises if bottleneck is zero
    if nwz < bound * (1.0 - _FEAS_RTOL):
        raise ConstraintViolationError("nwz lower bound", nwz, bound)
    return RatePair(*(capacity(_two_branch_sinr(channel, i, 0.0, nwz)) for i in (1, 2)))


def ef_sl_batch(batch: ChannelBatch, r0_exponent: int = 2) -> List[Tuple[float, RatePair]]:
    """(minimal noise, rates at it) of the single-level scheme for every cell
    of ``batch``, elementwise; squares and 2 ** (e R_0) are formed in Python
    floats, as for one channel.  The maps pass blocks of at most 64 cells.
    Raises InfeasibleError if any cell's bottleneck rate is zero."""
    r0, nwz = _sl_min_noise(batch, r0_exponent)
    if (r0 <= 0.0).any():
        raise InfeasibleError("relay broadcast bottleneck rate is zero")
    for k in np.flatnonzero(nwz < nwz * (1.0 - _FEAS_RTOL)):  # a negative bound
        raise ConstraintViolationError("nwz lower bound", float(nwz[k]), float(nwz[k]))
    r1, r2 = (capacity(_two_branch_sinr(batch, i, 0.0, nwz)) for i in (1, 2))
    return [(n, RatePair(a, b)) for n, a, b in zip(nwz.tolist(), r1.tolist(), r2.tolist())]


def ef_bi_sum_rate_search(
    channel: ChannelInstance, grid_points: int = 41
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """Best sum rate over a uniform (nu1, nu2) simplex grid at minimal noises.

    Every simplex point is evaluated at once, with the formulas of
    ``ef_bi_eval``, and none is pruned, so the result is that of evaluating
    the points one by one.  Deterministic: ties keep the smallest simplex
    index, i.e. the earliest grid cell in row-major order (nu1 varying
    slowest).  This is ``ef_bi_sum_rate_search_batch`` on a batch of one.
    """
    return ef_bi_sum_rate_search_batch(ChannelBatch.of([channel]), grid_points)[0]


def ef_bi_sum_rate_search_batch(
    batch: ChannelBatch, grid_points: int = 41, nu: Optional[Tuple[float, float]] = None
) -> List[Tuple[EfBiParams, BiScenario, RatePair]]:
    """``ef_bi_sum_rate_search`` for every cell of ``batch``, as one (cells,
    splits) array, each cell keeping its first argmax; given ``nu``,
    ``ef_bi_eval`` at that one split.  EfBiParams refuses a non-positive
    noise: the first such split, in cell-then-split order, raises, as in a
    loop.  Squares are formed in Python floats and all else elementwise, so
    each cell gets what a batch of one gives it.  The maps pass blocks of
    at most 64 cells."""
    if nu is None:
        if grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {grid_points}")
        grid, i1, i2 = nu_simplex(grid_points)
        found = _bi_eval(batch.column(), grid[i1], grid[i2])
        _, nwz1, nwz2, r1, r2 = found
        # A cell with a bad split takes its first one, which EfBiParams refuses.
        bad = ~((nwz1 > 0) & (nwz2 > 0))
        k = np.where(bad.any(axis=1), bad.argmax(axis=1), (r1 + r2).argmax(axis=1))
        cells = np.arange(len(batch))
        found = [grid[i1[k]], grid[i2[k]], *(v[cells, k] for v in found)]
    else:
        found = [np.full(len(batch), nu[0]), np.full(len(batch), nu[1]), *_bi_eval(batch, *nu)]
    tags = list(BiScenario)
    return [(EfBiParams(nu1=a, nu2=b, nwz1=n1, nwz2=n2), tags[t], RatePair(x, y))
            for a, b, t, n1, n2, x, y in zip(*(v.tolist() for v in found))]
