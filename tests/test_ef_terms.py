"""EF's one-channel functions give exactly what the reference kernels give,
and each EF entry point forms its terms once.

``reference_kernels`` forms every EF term again in Python floats and
complex arithmetic: the receive powers V_i, the relay receive power A, the
covariance moduli |A_i|, the conditional variances sigma_i^2 and the relay
codeword powers |h_rd|^2 nu_k P_r.  Each function here is held to it with
``==``, the bi-level bounds and rates under every scenario, not only the
one ``ef_bi_scenario`` picks.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ircrates import ef
from ircrates.channel import ChannelBatch
from ircrates.ef import BiScenario, EfBiParams
from ircrates.errors import InfeasibleError
from ircrates.scenario import UNIFORM_NU, default_config

from conftest import anti_phase_channel, random_channel
from reference_kernels import (
    _ef_bi_min_noise,
    _ef_bi_scenario,
    _ef_derived,
    ef_bi_rate_scalar,
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
