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

Every formula reads a few second-order terms, each formed once per call:
V_i, the receive power at D_i without the relay; A, the relay's; q_dk =
|h_rd|^2 nu_k P_r, the power at D_d of the relay codeword for D_k; and
sigma_i^2, the variance of Y_r given D_i's direct signal.  That is A -
|A_i|^2 / V_i, with A_i = sum_k h_ki h_kr^* P_k, but the difference cancels
where the relay hears nearly what D_i hears.  Lagrange's identity gives it
as a sum of terms >= 0 instead (c_i, d_i the S1 -> D_i and S2 -> D_i gains):

    sigma_i^2 = Nr + (A - Nr) N_i / V_i + |h1r d_i - h2r c_i|^2 P1 P2 / V_i
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channel import (
    ChannelBatch, ChannelInstance, RatePair, _FEAS_RTOL, _conj_product, capacity,
    check_nu_split, nu_simplex, other,
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

R0_EXPONENTS = (1, 2)  # the e of the single-level constraint 2^(e R_0) - 1
ZERO_BOTTLENECK = "relay broadcast bottleneck rate is zero"  # single-level EF's infeasibility


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


def _terms(channel):
    """((V1, V2), A, (sigma_1^2, sigma_2^2)), the channel terms of the module
    docstring.  The determinant's operands are scaled by sqrt(P_k) first, so
    no product leaves the channel checks' range: it is at most sqrt(V_i A)."""
    amp = [np.sqrt(channel.P(k)) for k in (1, 2)]
    up = [channel.h_to_relay(k).conjugate() * amp[k - 1] for k in (1, 2)]  # h_kr^* sqrt(P_k)
    rest = channel.g_to_relay(1) * channel.P1 + channel.g_to_relay(2) * channel.P2  # A - Nr
    v = [channel.g_direct(i) * channel.P(i) + channel.g_cross(i) * channel.P(other(i))
         + channel.N(i) for i in (1, 2)]
    sigma_sq = []
    for i, vi in zip((1, 2), v):  # sqrt(P1 P2) (h1r d_i - h2r c_i), c_i = h1i and d_i = h2i
        re_1, im_1 = _conj_product(channel._h(f"h2{i}") * amp[1], up[0])
        re_2, im_2 = _conj_product(channel._h(f"h1{i}") * amp[0], up[1])
        re, im = re_1 - re_2, im_1 - im_2
        sigma_sq.append(channel.Nr + rest * (channel.N(i) / vi) + (re * (re / vi) + im * (im / vi)))
    return v, rest + channel.Nr, sigma_sq


def ef_derived(channel: ChannelInstance) -> EfDerived:
    """A, |A1|, |A2| and each sigma_i^2 of ``channel``."""
    _, A, (s1, s2) = _terms(channel)
    cross = []
    for i in (1, 2):  # |h1i h1r^* P1 + h2i h2r^* P2|
        (re_1, im_1), (re_2, im_2) = (_conj_product(channel._h(f"h{k}{i}"), channel.h_to_relay(k))
                                      for k in (1, 2))
        cross.append(np.hypot(re_1 * channel.P1 + re_2 * channel.P2,
                              im_1 * channel.P1 + im_2 * channel.P2))
    return EfDerived(A=float(A), A1=float(cross[0]), A2=float(cross[1]),
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


def _codeword_powers(channel, nu1, nu2):
    """[[q_11, q_12], [q_21, q_22]], each q_dk = |h_rd|^2 nu_k P_r."""
    return [[channel.g_from_relay(d) * nu * channel.Pr for nu in (nu1, nu2)] for d in (1, 2)]


def _scenario_flags(v, q):
    """Masks (D1_BETTER, D2_BETTER) of ``ef_bi_scenario`` from the receive
    powers V_d and the codeword powers q; neither is NEITHER."""
    (q11, q12), (q21, q22) = q
    # D1 decoding the codeword intended for D2, vs D2 decoding its own; the
    # first test wins a tie.
    d1 = np.asarray(capacity(q12 / (v[0] + q11)) >= capacity(q22 / (v[1] + q21)))
    d2 = ~d1 & (capacity(q21 / (v[1] + q22)) >= capacity(q11 / (v[0] + q12)))
    return d1, d2


def ef_bi_scenario(channel: ChannelInstance, nu1: float, nu2: float) -> BiScenario:
    """Decide which destination can decode the other's relay codeword.

    Conditions are checked in printed order; equality in the first condition
    selects D1_BETTER.
    """
    d1, d2 = _scenario_flags(_terms(channel)[0], _codeword_powers(channel, nu1, nu2))
    return BiScenario.D1_BETTER if d1 else BiScenario.D2_BETTER if d2 else BiScenario.NEITHER


def _min_noise(terms, q, d1, d2):
    """([I_1, I_2], [b_1, b_2]) at the destinations D_i: I_i is the relay
    codeword power D_i does not cancel (q_12 at D1 and q_21 at D2, or 0
    where ``d_i`` holds: D_i decodes the other's codeword), and b_i the
    compression-noise lower bound ((V_i + I_i) A - |A_i|^2) / q_ii = (V_i
    sigma_i^2 + I_i A) / q_ii, +inf for a stream with no relay power (q_ii = 0)."""
    v, A, sigma_sq = terms
    interference = [np.where(d1, 0.0, q[0][1]), np.where(d2, 0.0, q[1][0])]
    bounds = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in (0, 1):
            num = v[i] * sigma_sq[i] + interference[i] * A
            bounds.append(np.where(q[i][i] > 0.0, num / q[i][i], math.inf))
    return interference, bounds


def ef_bi_min_noise(
    channel: ChannelInstance, nu1: float, nu2: float, scenario: BiScenario
) -> Tuple[float, float]:
    """Scenario-appropriate compression-noise lower bounds, met with equality.

    A stream with zero relay power (|h_ri|^2 nu_i P_r = 0) gets the bound
    +inf: only infinite noise, which drops that relay branch, is admissible.
    """
    cancels = (scenario is BiScenario.D1_BETTER, scenario is BiScenario.D2_BETTER)
    _, (b1, b2) = _min_noise(_terms(channel), _codeword_powers(channel, nu1, nu2), *cancels)
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
    q = _codeword_powers(channel, params.nu1, params.nu2)
    interference, bounds = _min_noise(_terms(channel), q, *cancels)
    noises = (params.nwz1, params.nwz2)
    for i, (nwz, bound) in enumerate(zip(noises, map(float, bounds)), start=1):
        if nwz < bound * (1.0 - _FEAS_RTOL):
            raise ConstraintViolationError(f"nwz{i} lower bound", nwz, bound)
    return RatePair(*(capacity(_two_branch_sinr(channel, i, interference[i - 1], noises[i - 1]))
                      for i in (1, 2)))


def _bi_eval(channel, nu1, nu2):
    """``ef_bi_eval`` elementwise, over the cells of a batch or over arrays
    of relay splits: (scenario index into ``BiScenario``, nwz1, nwz2, R1, R2).
    Where a bound is not > 0 (it underflows to 0 at powers and noises near
    1e-300), both rates are NaN and the bounds stay for ``EfBiParams`` to refuse."""
    terms, q = _terms(channel), _codeword_powers(channel, nu1, nu2)
    d1, d2 = _scenario_flags(terms[0], q)
    interference, nwz = _min_noise(terms, q, d1, d2)
    refused = ~((nwz[0] > 0) & (nwz[1] > 0))  # their rates are formed with no relay branch
    noises = [np.where(refused, math.inf, w) for w in nwz] if refused.any() else nwz
    rates = [capacity(_two_branch_sinr(channel, i, interference[i - 1], noises[i - 1]))
             for i in (1, 2)]
    rates = [np.where(refused, math.nan, r) for r in rates] if refused.any() else rates
    return np.where(d1, 0, np.where(d2, 1, 2)), nwz[0], nwz[1], *rates


def ef_bi_eval(
    channel: ChannelInstance, nu1: float, nu2: float
) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """Scenario, minimal-noise parameters and rates for a given power split.

    A zero-power compression stream gets infinite noise, so only its own
    relay branch contributes nothing.  The noises are the bounds themselves,
    so the rates skip ``ef_bi_rate``'s check.  This is
    ``ef_bi_sum_rate_search_batch`` at ``nu`` on a batch of one, which
    checks the split before any formula runs.
    """
    return _bi_found(ef_bi_sum_rate_search_batch(ChannelBatch.of([channel]), nu=(nu1, nu2)))


def _bi_found(columns) -> Tuple[EfBiParams, BiScenario, RatePair]:
    """The objects of cell 0 of an ``ef_bi_sum_rate_search_batch`` result."""
    nu1, nu2, scenario, nwz1, nwz2, r1, r2 = (c.item() for c in columns)
    return EfBiParams(nu1, nu2, nwz1, nwz2), list(BiScenario)[scenario], RatePair(r1, r2)


def _sl_min_noise(channel, r0_exponent: int):
    """(R_0, smallest admissible noise) of the single-level scheme,
    elementwise: R_0 = C(x), x = min_i |h_ri|^2 P_r / V_i, and the noise
    max_i sigma_i^2 / (2^(e R_0) - 1), with 2^(e R_0) - 1 = x for e = 1 and
    x (2 + x) for e = 2, divided out one factor at a time; nothing where R_0 = 0."""
    if r0_exponent not in R0_EXPONENTS:
        raise ValueError(f"r0_exponent must be {' or '.join(map(str, R0_EXPONENTS))}, got {r0_exponent}")
    (v1, v2), _, (s1, s2) = _terms(channel)
    x = np.minimum(channel.g_from_relay(1) * channel.Pr / v1,
                   channel.g_from_relay(2) * channel.Pr / v2)
    with np.errstate(divide="ignore", over="ignore"):  # x = 0, or too small for R_0 > 0
        noise = np.maximum(s1, s2) / x
        return capacity(x), noise if r0_exponent == 1 else noise / (2.0 + x)


def ef_sl_bottleneck(channel: ChannelInstance) -> float:
    """Common broadcast rate both destinations can decode from the relay."""
    return float(_sl_min_noise(channel, 2)[0])


def ef_sl_min_noise(channel: ChannelInstance, r0_exponent: int = 2) -> float:
    """Smallest admissible single-level compression noise.

    ``r0_exponent`` selects the constraint denominator 2^(e R_0) - 1; the
    default e = 2 follows the source formula, e = 1 is the complex-signal
    variant.  Raises InfeasibleError where the bottleneck rate is zero.
    """
    noise = ef_sl_batch(ChannelBatch.of([channel]), r0_exponent)[0].item()
    if math.isnan(noise):
        raise InfeasibleError(ZERO_BOTTLENECK)
    return noise


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


def ef_sl_batch(batch: ChannelBatch, r0_exponent: int = 2) -> Tuple[np.ndarray, ...]:
    """The columns (minimal noise, R1, R2 at it) of the single-level scheme
    over the cells of ``batch``, elementwise, as for one channel (maps pass
    blocks of ``scenario._block_size``).  Every column is NaN where the bottleneck rate is zero."""
    r0, nwz = _sl_min_noise(batch, r0_exponent)
    feasible = r0 > 0.0
    nwz = np.where(feasible, nwz, math.inf)  # an infeasible cell's rates drop the relay branch
    return tuple(np.where(feasible, x, math.nan) for x in
                 (nwz, *(capacity(_two_branch_sinr(batch, i, 0.0, nwz)) for i in (1, 2))))


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
    return _bi_found(ef_bi_sum_rate_search_batch(ChannelBatch.of([channel]), grid_points))


def ef_bi_sum_rate_search_batch(
    batch: ChannelBatch, grid_points: int = 41, nu: Optional[Tuple[float, float]] = None
) -> Tuple[np.ndarray, ...]:
    """The columns (nu1, nu2, index into ``BiScenario``, nwz1, nwz2, R1, R2)
    of ``ef_bi_sum_rate_search`` over the cells of ``batch``, from one (cells,
    splits) array over the splits ``nu_simplex`` gives (given ``nu``,
    ``ef_bi_eval`` at that one split), each cell keeping its first argmax.
    A refused bound's NaN rates (``_bi_eval``) are the argmax.  Squares are
    ``channel._square``'s and all else is elementwise, so each cell gets
    what a batch of one gives it.  Maps pass blocks of ``scenario._block_size`` cells."""
    grid, i1, i2 = nu_simplex(grid_points, nu)
    found = [np.broadcast_to(v, (len(batch), len(i1)))  # a column of shared fields has one row
             for v in _bi_eval(batch.column(), grid[i1], grid[i2])]
    k, cells = (found[3] + found[4]).argmax(axis=1), np.arange(len(batch))  # R1 + R2
    return (grid[i1[k]], grid[i2[k]], *(v[cells, k] for v in found))
