import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ircrates import ef
from ircrates.channel import ChannelBatch, ChannelInstance, capacity, layout_to_channel, nu_simplex
from ircrates.ef import (
    BiScenario,
    EfBiParams,
    ef_bi_eval,
    ef_bi_min_noise,
    ef_bi_rate,
    ef_bi_scenario,
    ef_bi_sum_rate_search,
    ef_derived,
    ef_sl_bottleneck,
    ef_sl_min_noise,
    ef_sl_rate,
)
from ircrates.errors import ConstraintViolationError, InfeasibleError

from conftest import cancelling_config, random_channel, symmetric_channel
from reference_kernels import ef_exact


def schur_sigma_sq(ch: ChannelInstance, i: int):
    """Conditional variance of Y_r given Y_i via an explicit 2x2 covariance."""
    j = 2 if i == 1 else 1
    hir, hjr = ch.h_to_relay(i), ch.h_to_relay(j)
    hii, hji = ch.h_direct(i), ch.h_cross(i)
    Pi, Pj = ch.P(i), ch.P(j)
    cov = np.array(
        [
            [abs(hir) ** 2 * Pi + abs(hjr) ** 2 * Pj + ch.Nr,
             hir * np.conj(hii) * Pi + hjr * np.conj(hji) * Pj],
            [np.conj(hir) * hii * Pi + np.conj(hjr) * hji * Pj,
             abs(hii) ** 2 * Pi + abs(hji) ** 2 * Pj + ch.N(i)],
        ],
        dtype=complex,
    )
    # Schur complement of the Y_i block.
    return float((cov[0, 0] - cov[0, 1] * cov[1, 0] / cov[1, 1]).real)


class TestDerived:
    def test_receive_power_components(self, rng):
        ch = random_channel(rng)
        d = ef_derived(ch)
        expected_a = abs(ch.h1r) ** 2 * ch.P1 + abs(ch.h2r) ** 2 * ch.P2 + ch.Nr
        assert d.A == pytest.approx(expected_a, rel=1e-14)

    def test_sigma_matches_schur_complement(self, rng):
        for _ in range(200):
            ch = random_channel(rng)
            d = ef_derived(ch)
            for i in (1, 2):
                assert d.sigma_sq(i) == pytest.approx(
                    schur_sigma_sq(ch, i), rel=1e-10, abs=1e-12)

    def test_sigma_nonnegative(self, rng):
        for _ in range(200):
            ch = random_channel(rng)
            d = ef_derived(ch)
            assert d.sigma1_sq >= ch.Nr
            assert d.sigma2_sq >= ch.Nr

    def test_independent_observation_full_variance(self, rng):
        # If the relay hears nothing from the sources, Y_r is pure noise,
        # independent of both destinations: sigma^2 = A = N_r.
        ch = replace(random_channel(rng), h1r=0.0, h2r=0.0)
        d = ef_derived(ch)
        assert d.A == pytest.approx(ch.Nr)
        assert d.sigma1_sq == pytest.approx(ch.Nr)
        assert d.sigma2_sq == pytest.approx(ch.Nr)


class TestScenario:
    def test_symmetric_tie_is_d1(self, rng):
        for _ in range(20):
            ch = symmetric_channel(rng)
            assert ef_bi_scenario(ch, 0.5, 0.5) is BiScenario.D1_BETTER

    def test_deaf_d2_makes_d1_better(self, rng):
        ch = replace(random_channel(rng), N2=1e9)
        assert ef_bi_scenario(ch, 0.5, 0.5) is BiScenario.D1_BETTER

    def test_deaf_d1_makes_d2_better(self, rng):
        ch = replace(random_channel(rng), N1=1e9)
        assert ef_bi_scenario(ch, 0.5, 0.5) is not BiScenario.D1_BETTER

    def test_gaussian_collapse(self, rng):
        # For Gaussian codewords both decodability comparisons reduce to the
        # sign of |h_r1|^2 V_2 - |h_r2|^2 V_1, independent of the power
        # split, so the third scenario never fires and the choice does not
        # depend on (nu1, nu2).
        from reference_kernels import _receive_power

        for _ in range(300):
            ch = random_channel(rng)
            nu1 = float(rng.uniform(0.05, 0.95))
            nu2 = float(rng.uniform(0.01, 1.0 - nu1))
            sc = ef_bi_scenario(ch, nu1, nu2)
            assert sc is not BiScenario.NEITHER
            disc = (abs(ch.hr1) ** 2 * _receive_power(ch, 2)
                    - abs(ch.hr2) ** 2 * _receive_power(ch, 1))
            expected = BiScenario.D1_BETTER if disc >= 0 else BiScenario.D2_BETTER
            assert sc is expected


class TestBiLevel:
    def test_min_noise_scaling(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            lam = float(np.exp(rng.uniform(-2, 2)))
            sc = ef_bi_scenario(ch, 0.4, 0.4)
            b = ef_bi_min_noise(ch, 0.4, 0.4, sc)
            scaled = ch.scaled(lam)
            assert ef_bi_scenario(scaled, 0.4, 0.4) is sc
            bs = ef_bi_min_noise(scaled, 0.4, 0.4, sc)
            assert bs[0] == pytest.approx(lam * b[0], rel=1e-11)
            assert bs[1] == pytest.approx(lam * b[1], rel=1e-11)

    def test_rate_invariant_under_scaling(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            lam = float(np.exp(rng.uniform(-2, 2)))
            _, _, rates = ef_bi_eval(ch, 0.3, 0.5)
            _, _, scaled_rates = ef_bi_eval(ch.scaled(lam), 0.3, 0.5)
            assert scaled_rates.r1 == pytest.approx(rates.r1, abs=1e-10)
            assert scaled_rates.r2 == pytest.approx(rates.r2, abs=1e-10)

    def test_rejects_noise_below_bound(self, rng):
        ch = random_channel(rng)
        sc = ef_bi_scenario(ch, 0.5, 0.5)
        n1, n2 = ef_bi_min_noise(ch, 0.5, 0.5, sc)
        bad = EfBiParams(nu1=0.5, nu2=0.5, nwz1=0.5 * n1, nwz2=n2)
        with pytest.raises(ConstraintViolationError) as exc:
            ef_bi_rate(ch, bad, sc)
        assert "nwz1" in str(exc.value.bound_name)

    def test_accepts_bound_with_equality(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            sc = ef_bi_scenario(ch, 0.6, 0.3)
            n1, n2 = ef_bi_min_noise(ch, 0.6, 0.3, sc)
            pair = ef_bi_rate(ch, EfBiParams(0.6, 0.3, n1, n2), sc)
            assert pair.r1 >= 0 and pair.r2 >= 0

    def test_eval_equals_checked_rate(self, rng):
        # ef_bi_eval skips ef_bi_rate's noise check; the rates must not move.
        for _ in range(20):
            ch = random_channel(rng)
            grid, i1, i2 = nu_simplex(11)
            for nu1, nu2 in zip(grid[i1].tolist(), grid[i2].tolist()):
                params, sc, pair = ef_bi_eval(ch, nu1, nu2)
                assert ef_bi_rate(ch, params, sc) == pair

    def test_rate_decreasing_in_noise(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            sc = ef_bi_scenario(ch, 0.5, 0.4)
            n1, n2 = ef_bi_min_noise(ch, 0.5, 0.4, sc)
            prev = None
            for f in (1.0, 2.0, 10.0, 1e4):
                pair = ef_bi_rate(ch, EfBiParams(0.5, 0.4, f * n1, f * n2), sc)
                if prev is not None:
                    assert pair.r1 <= prev.r1 + 1e-12
                    assert pair.r2 <= prev.r2 + 1e-12
                prev = pair

    def test_cancellation_helps(self, rng):
        # Evaluating the D1-cancels scenario can only raise R1 relative to
        # the no-cancellation scenario at the same power split and each
        # scenario's own minimal noises.
        for _ in range(100):
            ch = random_channel(rng)
            nu1, nu2 = 0.4, 0.4
            try:
                b_can = ef_bi_min_noise(ch, nu1, nu2, BiScenario.D1_BETTER)
                b_not = ef_bi_min_noise(ch, nu1, nu2, BiScenario.NEITHER)
            except InfeasibleError:
                continue
            r_can = ef_bi_rate(ch, EfBiParams(nu1, nu2, *b_can), BiScenario.D1_BETTER)
            r_not = ef_bi_rate(ch, EfBiParams(nu1, nu2, *b_not), BiScenario.NEITHER)
            assert r_can.r1 >= r_not.r1 - 1e-12

    def test_zero_power_stream_degrades_to_baseline(self, rng):
        # nu1 = nu2 = 0: the relay sends nothing; rates fall back to the
        # plain interference channel.
        for _ in range(20):
            ch = random_channel(rng)
            _, _, rates = ef_bi_eval(ch, 0.0, 0.0)
            for i, r in ((1, rates.r1), (2, rates.r2)):
                j = 2 if i == 1 else 1
                base = capacity(abs(ch.h_direct(i)) ** 2 * ch.P(i)
                                / (abs(ch.h_cross(i)) ** 2 * ch.P(j) + ch.N(i)))
                assert r == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("dead, nu", [("nu", (0.0, 1.0)), ("hr1", (0.5, 0.5))])
    def test_zero_power_stream_loses_only_its_own_branch(self, rng, dead, nu):
        # A stream with |h_r1|^2 nu1 P_r = 0 has the bound +inf; D2 keeps its
        # compressed branch, so R2 beats its value with both branches gone.
        for _ in range(20):
            ch = random_channel(rng)
            if dead == "hr1":
                ch = replace(ch, hr1=0.0)
            sc = ef_bi_scenario(ch, *nu)
            b1, b2 = ef_bi_min_noise(ch, *nu, sc)
            assert b1 == math.inf and math.isfinite(b2)
            params, scenario, pair = ef_bi_eval(ch, *nu)
            assert (params.nwz1, params.nwz2, scenario) == (math.inf, b2, sc)
            assert ef_bi_rate(ch, EfBiParams(*nu, math.inf, b2), sc) == pair
            both_off = ef_bi_rate(ch, EfBiParams(*nu, math.inf, math.inf), sc)
            assert pair.r1 == both_off.r1 and pair.r2 > both_off.r2
            with pytest.raises(ConstraintViolationError, match="nwz1"):
                ef_bi_rate(ch, EfBiParams(*nu, 1e300, b2), sc)

    def test_search_beats_interior_splits(self, rng):
        for _ in range(5):
            ch = random_channel(rng)
            params, scenario, rates = ef_bi_sum_rate_search(ch, grid_points=21)
            for _ in range(50):
                nu1 = float(rng.uniform(0, 1))
                nu2 = float(rng.uniform(0, 1 - nu1))
                _, _, cand = ef_bi_eval(ch, nu1, nu2)
                assert rates.sum >= cand.sum - 5e-2


class TestSingleLevel:
    def test_bottleneck_formula(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            vals = []
            for i in (1, 2):
                j = 2 if i == 1 else 1
                v = (abs(ch.h_direct(i)) ** 2 * ch.P(i)
                     + abs(ch.h_cross(i)) ** 2 * ch.P(j) + ch.N(i))
                vals.append(capacity(abs(ch.h_from_relay(i)) ** 2 * ch.Pr / v))
            assert ef_sl_bottleneck(ch) == pytest.approx(min(vals), rel=1e-13)

    def test_min_noise_uses_worse_variance(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            d = ef_derived(ch)
            r0 = ef_sl_bottleneck(ch)
            for e in (1, 2):
                expected = max(d.sigma1_sq, d.sigma2_sq) / (2.0 ** (e * r0) - 1.0)
                assert ef_sl_min_noise(ch, r0_exponent=e) == pytest.approx(
                    expected, rel=1e-12)

    def test_exponent_two_gives_smaller_noise(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            assert ef_sl_min_noise(ch, 2) <= ef_sl_min_noise(ch, 1)

    def test_rejects_bad_exponent(self, rng):
        with pytest.raises(ValueError):
            ef_sl_min_noise(random_channel(rng), r0_exponent=3)

    def test_dead_relay_output_infeasible(self, rng):
        ch = replace(random_channel(rng), hr1=0.0, hr2=0.0)
        with pytest.raises(InfeasibleError):
            ef_sl_min_noise(ch)

    def test_huge_noise_approaches_baseline(self, rng):
        for _ in range(30):
            ch = random_channel(rng)
            pair = ef_sl_rate(ch, nwz=1e12)
            for i, r in ((1, pair.r1), (2, pair.r2)):
                j = 2 if i == 1 else 1
                base = capacity(abs(ch.h_direct(i)) ** 2 * ch.P(i)
                                / (abs(ch.h_cross(i)) ** 2 * ch.P(j) + ch.N(i)))
                assert r == pytest.approx(base, abs=1e-6)
                assert r >= base - 1e-12

    def test_largest_noise_rate_is_the_infinite_noise_rate(self, rng):
        # At nwz = 1e308 the term |h_ji|^2 P_j (N_r + nwz) overflows unless
        # it is divided first.
        overflowed = False
        for _ in range(30):
            ch = random_channel(rng)
            overflowed |= max(abs(ch.h12) ** 2 * ch.P1, abs(ch.h21) ** 2 * ch.P2) > 1.8
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pairs = [ef_sl_rate(ch, nwz) for nwz in (1e308, math.inf)]
                scenario = ef_bi_scenario(ch, 0.5, 0.5)
                pairs += [ef_bi_rate(ch, EfBiParams(0.5, 0.5, nwz, nwz), scenario)
                          for nwz in (1e308, math.inf)]
            for big, limit in (pairs[:2], pairs[2:]):
                assert big.r1 == pytest.approx(limit.r1, abs=1e-12)
                assert big.r2 == pytest.approx(limit.r2, abs=1e-12)
        assert overflowed

    def test_rejects_noise_below_bound(self, rng):
        ch = random_channel(rng)
        bound = ef_sl_min_noise(ch)
        with pytest.raises(ConstraintViolationError):
            ef_sl_rate(ch, nwz=0.5 * bound)

    def test_relay_channel_reduction(self):
        # Single active source and no cross links: each branch is clean, so
        # R1 = C(|h11|^2 P1/N1 + |h1r|^2 P1/(Nr + Nwz)).
        ch = ChannelInstance(h11=0.8, h12=0.0, h21=0.0, h22=1.0,
                             h1r=0.6, h2r=0.0, hr1=0.9, hr2=0.9,
                             P1=5.0, P2=1.0, Pr=4.0, N1=1.0, N2=1.0, Nr=1.0)
        nwz = ef_sl_min_noise(ch)
        pair = ef_sl_rate(ch, nwz)
        expected = capacity(abs(ch.h11) ** 2 * ch.P1 / ch.N1
                            + abs(ch.h1r) ** 2 * ch.P1 / (ch.Nr + nwz))
        assert pair.r1 == pytest.approx(expected, rel=1e-12)

    def test_symmetric_noise_below_bi_level_bounds(self, rng):
        # On a fully symmetric channel the shared codeword needs no more
        # compression noise than either dedicated half-power stream.
        for e in (1, 2):
            for _ in range(100):
                ch = symmetric_channel(rng)
                n_sl = ef_sl_min_noise(ch, r0_exponent=e)
                sc = ef_bi_scenario(ch, 0.5, 0.5)
                n1, n2 = ef_bi_min_noise(ch, 0.5, 0.5, sc)
                assert n_sl <= min(n1, n2) * (1 + 1e-12)


class TestAsymmetricLimit:
    def test_d2_shutdown(self, rng):
        # With destination 2 drowned in noise the scheme serves only user 1.
        for _ in range(20):
            ch = replace(random_channel(rng), N2=1e12)
            assert ef_bi_scenario(ch, 0.5, 0.5) is BiScenario.D1_BETTER
            _, _, bi = ef_bi_eval(ch, 0.5, 0.5)
            sl = ef_sl_rate(ch, ef_sl_min_noise(ch))
            assert bi.r2 <= 1e-3
            assert sl.r2 <= 1e-3
            assert bi.r1 >= sl.r1 - 1e-12


class TestNoiseBoundBelowZero:
    """At ``cancelling_config``'s relay, where A - |A_i|^2 / V_i cancelled
    below zero in round-off, sigma_1^2 is 3.6e-20 (mpmath): EF-BL and EF-SL
    give the bounds their definitions give, and refuse a noise below them
    with a ConstraintViolationError that states the bound."""

    @staticmethod
    def channel() -> ChannelInstance:
        c = cancelling_config()
        return layout_to_channel(c.layout, c.P1, c.P2, c.Pr, c.N1, c.N2, c.Nr)

    def test_bi_level_refuses_the_bound(self):
        ch = self.channel()
        exact = ef_exact(ch, 0.5, 0.5)
        d = ef_derived(ch)
        assert (d.sigma1_sq, d.sigma2_sq) == pytest.approx(exact["sigma"], rel=1e-12, abs=0.0)
        assert exact["sigma"][0] == pytest.approx(3.6e-20, rel=1e-12)
        params, scenario, pair = ef_bi_eval(ch, 0.5, 0.5)
        assert (params.nwz1, params.nwz2) == pytest.approx(exact["bl"][scenario], rel=1e-12, abs=0.0)
        assert 0.0 < pair.r1 < math.inf and 0.0 < pair.r2 < math.inf
        with pytest.raises(ConstraintViolationError, match=r"^nwz1 lower bound: "):
            ef_bi_rate(ch, EfBiParams(0.5, 0.5, params.nwz1 / 2, params.nwz2), scenario)
        found, _, _ = ef_bi_sum_rate_search(ch, 11)
        assert found.nwz1 > 0.0 and found.nwz2 > 0.0

    def test_single_level_states_the_bound_once(self):
        ch = self.channel()
        bound = ef_sl_min_noise(ch)
        assert bound == pytest.approx(ef_exact(ch, 0.5, 0.5)["sl"][2], rel=1e-12, abs=0.0)
        pair = ef_sl_rate(ch, bound)
        assert [c.item() for c in ef.ef_sl_batch(ChannelBatch.of([ch]))] == [bound, pair.r1, pair.r2]
        with pytest.raises(ConstraintViolationError) as exc:
            ef_sl_rate(ch, bound / 2)
        assert str(exc.value).count(repr(bound)) == 1

    def test_single_level_zero_bound_is_accepted(self):
        # Each destination hears what the relay hears, so h1r d_i - h2r c_i
        # is 0 and sigma_i^2 = Nr + (A - Nr) N_i / V_i, about 2e-20: the
        # bound the subtraction rounded to 0 is positive, and it is accepted.
        ch = ChannelInstance(h11=1.0, h12=1.0, h1r=1.0, h21=0.5, h22=0.5, h2r=0.5,
                             hr1=0.7, hr2=0.6, P1=1.0, P2=1.0, Pr=1.0,
                             N1=1e-20, N2=1e-20, Nr=1e-20)
        exact = ef_exact(ch, 0.5, 0.5)
        assert min(exact["sigma"]) > ch.Nr
        assert ef_sl_min_noise(ch) == pytest.approx(exact["sl"][2], rel=1e-12, abs=0.0)
        pair = ef_sl_rate(ch, ef_sl_min_noise(ch))
        assert 0.0 < pair.r1 < math.inf and 0.0 < pair.r2 < math.inf
