"""EF's one-channel functions give exactly what the reference kernels give,
both are held to mpmath, and each EF entry point forms its terms once.

``reference_kernels`` forms every EF term again in Python floats and
complex arithmetic: the receive powers V_i, the relay receive power A, the
covariance moduli |A_i|, the conditional variances sigma_i^2 (by Lagrange's
identity, in the kernel's operand order) and the relay codeword powers
|h_rd|^2 nu_k P_r.  Each function here is held to it with ``==``, the
bi-level bounds and rates under every scenario, not only the one
``ef_bi_scenario`` picks.  ``reference_kernels.ef_exact`` gives the noise
terms from their definitions at 60 digits.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from ircrates import ef
from ircrates.channel import ChannelBatch
from ircrates.ef import BiScenario, EfBiParams
from ircrates.errors import InfeasibleError
from ircrates.scenario import UNIFORM_NU, default_config

from conftest import anti_phase_channel, near_cancelling_channel, random_channel
from reference_kernels import (
    _ef_bi_min_noise,
    _ef_bi_scenario,
    _ef_derived,
    _receive_power,
    ef_bi_rate_scalar,
    ef_noise_terms,
    ef_sl_min_noise_scalar,
)

SPLITS = [(0.5, 0.5), (0.3, 0.6), (0.2, 0.2), (0.0, 1.0), (1.0, 0.0)]
NOISE_FACTORS = (1.0, 1.5, math.inf)  # times each bound


def channels():
    """Random complex, anti-phase, hr1 = 0 and hr2 = 0 channels, and every
    20th cell of the default map."""
    rng = np.random.default_rng(23)
    out = [random_channel(rng) for _ in range(40)]
    out += [anti_phase_channel(rng) for _ in range(40)]
    out += [replace(random_channel(rng), **{dead: 0.0})
            for dead in ("hr1", "hr2") for _ in range(20)]
    config = default_config()
    cells = [(x, y) for y in config.grid_y() for x in config.grid_x()]
    out += [config.channel_at(float(x), float(y)) for x, y in cells[::20]]
    return out


CHANNELS = channels()


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type of what it raises."""
    try:
        return f(*args)
    except (InfeasibleError, ValueError) as exc:
        return type(exc)


def test_derived_is_the_reference():
    for ch in CHANNELS:
        d = ef.ef_derived(ch)
        A, cross, sigma = _ef_derived(ch)
        assert (d.A, d.A1, d.A2, d.sigma1_sq, d.sigma2_sq) == (
            A, cross[1], cross[2], sigma[1], sigma[2])


def test_scenario_is_the_reference():
    for ch in CHANNELS:
        for nu in SPLITS:
            assert ef.ef_bi_scenario(ch, *nu) is _ef_bi_scenario(ch, *nu)


@pytest.mark.parametrize("r0_exponent", [1, 2])
def test_sl_min_noise_is_the_reference(r0_exponent):
    for ch in CHANNELS:
        assert (outcome(ef.ef_sl_min_noise, ch, r0_exponent)
                == outcome(ef_sl_min_noise_scalar, ch, r0_exponent))


@pytest.mark.parametrize("scenario", list(BiScenario))
def test_bi_bounds_and_rates_are_the_reference_under_each_scenario(scenario):
    cases = 0
    for ch in CHANNELS:
        for nu in SPLITS:
            bounds = ef.ef_bi_min_noise(ch, *nu, scenario)
            assert bounds == _ef_bi_min_noise(ch, *nu, scenario)
            for factor in NOISE_FACTORS:
                params = EfBiParams(*nu, *(factor * b for b in bounds))
                assert (ef.ef_bi_rate(ch, params, scenario)
                        == ef_bi_rate_scalar(ch, params, scenario)), (ch, params)
                cases += 1
    assert cases == len(CHANNELS) * len(SPLITS) * len(NOISE_FACTORS)


def subtraction_misses(ch, exact_sigma) -> bool:
    """Whether A - |A_i|^2 / V_i, formed in floats, misses either sigma_i^2 by
    more than 1e-6 of it."""
    d = ef.ef_derived(ch)
    return any(abs(d.A - a * a / _receive_power(ch, i) - want) > 1e-6 * want
               for i, a, want in ((1, d.A1, exact_sigma[0]), (2, d.A2, exact_sigma[1])))


def test_noise_terms_match_mpmath():
    # 500 channels whose relay hears a multiple of what D_i hears, with
    # noises 1e-8 to 1e-18 of the powers, and 2,000 random ones, each at a
    # random split: every term within 1e-12 of its definition.  The
    # subtraction A - |A_i|^2 / V_i misses by more than 1e-6 on most of the
    # 500.  (The rounding of h1r d_i - h2r c_i leaves about 1e-32 of the
    # powers in sigma_i^2, so at noises of 1e-20 it nears 1e-12 of it: the
    # next test bounds that error.)
    rng = np.random.default_rng(37)
    near = [near_cancelling_channel(rng) for _ in range(500)]
    missed = 0
    for k, ch in enumerate(near + [random_channel(rng) for _ in range(2000)]):
        nu = tuple(rng.dirichlet((1.0, 1.0, 1.0))[:2].tolist())
        got, want = ef_noise_terms(ch, nu)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (k, ch, nu)
        missed += k < len(near) and subtraction_misses(ch, want[:2])
    assert missed > 250


def test_sigma_error_is_the_determinants_rounding():
    # Off a multiple of D_i's gains by 1e-4 to 1e-12, with noises 1e-10 to
    # 1e-20 of the powers, D_i = sqrt(P1 P2) (h1r d_i - h2r c_i) cancels too.
    # Its two products round, so sigma_i^2 is that of gains an ulp or so off
    # (the problem's own sensitivity to its gains): within (2 |D_i| delta +
    # delta^2) / V_i of mpmath's, delta = 4 eps sqrt(P1 P2) (|h1r d_i| +
    # |h2r c_i|), and each bound in proportion.  That is up to about 1e-7 of
    # sigma_i^2 here, where the subtraction misses by more than 1e-6 on most.
    rng = np.random.default_rng(38)
    missed = 0
    for ch in [near_cancelling_channel(rng, (10.0, 20.0), (4.0, 12.0)) for _ in range(500)]:
        got, want = ef_noise_terms(ch, (0.5, 0.5))
        slack = []
        with mp.workdps(60):
            h = {n: mp.mpc(complex(getattr(ch, n))) for n in ("h1r", "h2r", "h11", "h21", "h12", "h22")}
            root = mp.sqrt(mp.mpf(ch.P1) * ch.P2)
            for i, sigma_sq in ((1, want[0]), (2, want[1])):
                c, d = h[f"h1{i}"], h[f"h2{i}"]
                delta = 4 * 2.0 ** -53 * root * (abs(h["h1r"] * d) + abs(h["h2r"] * c))
                det = root * abs(h["h1r"] * d - h["h2r"] * c)
                slack.append(1e-12 + float((2 * det * delta + delta ** 2) / _receive_power(ch, i)) / sigma_sq)
        rel = [slack[0], slack[1]] + [slack[0], slack[1]] * 3 + [max(slack)] * 2
        assert all(abs(g - w) <= r * w for g, w, r in zip(got, want, rel)), ch
        missed += subtraction_misses(ch, want[:2])
    assert missed > 400


def counted(monkeypatch, name: str) -> list:
    """Wrap ``ef.<name>``; the list returned gets one entry per call."""
    calls, f = [], getattr(ef, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(ef, name, wrapped)
    return calls


RANDOM = CHANNELS[:8]  # complex gains, all nonzero: EF-SL is feasible
BATCH = ChannelBatch.of(RANDOM)
RATE_PARAMS = EfBiParams(0.3, 0.6, *ef.ef_bi_min_noise(RANDOM[0], 0.3, 0.6, BiScenario.NEITHER))

ENTRIES = {
    "ef_bi_sum_rate_search_batch-uniform":
        lambda: ef.ef_bi_sum_rate_search_batch(BATCH, nu=UNIFORM_NU),
    "ef_bi_sum_rate_search_batch-optimal": lambda: ef.ef_bi_sum_rate_search_batch(BATCH, 11),
    "ef_sl_batch": lambda: ef.ef_sl_batch(BATCH),
    "ef_bi_rate": lambda: ef.ef_bi_rate(RANDOM[0], RATE_PARAMS, BiScenario.NEITHER),
    "ef_bi_min_noise": lambda: ef.ef_bi_min_noise(RANDOM[1], 0.5, 0.5, BiScenario.D1_BETTER),
    "ef_bi_scenario": lambda: ef.ef_bi_scenario(RANDOM[2], 0.2, 0.2),
    "ef_derived": lambda: ef.ef_derived(RANDOM[3]),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_forms_the_channel_terms_once(monkeypatch, entry):
    terms = counted(monkeypatch, "_terms")
    ENTRIES[entry]()
    assert len(terms) == 1


def test_each_bi_eval_forms_the_codeword_powers_once(monkeypatch):
    evals, powers = counted(monkeypatch, "_bi_eval"), counted(monkeypatch, "_codeword_powers")
    ENTRIES["ef_bi_sum_rate_search_batch-uniform"]()
    ENTRIES["ef_bi_sum_rate_search_batch-optimal"]()
    ef.ef_bi_eval(RANDOM[4], 0.3, 0.6)
    assert len(evals) == 3 and len(powers) == 3
