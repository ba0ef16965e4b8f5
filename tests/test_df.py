import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from ircrates.channel import capacity
from ircrates.df import DfParams, df_rate, df_sum_rate_search

from conftest import random_channel, symmetric_channel
from reference_kernels import df_sum_rate_search_loop


def mp_df_rate(ch, params: DfParams, user: int):
    """High-precision re-derivation of the two-constraint decoded rate."""
    with mp.workdps(60):
        i, j = (1, 2) if user == 1 else (2, 1)
        hii = mp.mpc(ch.h_direct(i))
        hji = mp.mpc(ch.h_cross(i))
        hir = mp.mpc(ch.h_to_relay(i))
        hri = mp.mpc(ch.h_from_relay(i))
        Pi, Pj, Pr = map(mp.mpf, (ch.P(i), ch.P(j), ch.Pr))
        Ni, Nr = mp.mpf(ch.N(i)), mp.mpf(ch.Nr)
        ti, tj = mp.mpf(params.tau(i)), mp.mpf(params.tau(j))
        vi, vj = mp.mpf(params.nu(i)), mp.mpf(params.nu(j))
        relay_cap = mp.log(1 + abs(hir) ** 2 * (1 - ti) * Pi / Nr) / mp.log(2)
        num = (abs(hii) ** 2 * Pi + abs(hri) ** 2 * vi * Pr
               + 2 * mp.re(hii * mp.conj(hri)) * mp.sqrt(ti * Pi * vi * Pr))
        den = (abs(hji) ** 2 * Pj + abs(hri) ** 2 * vj * Pr
               + 2 * mp.re(hji * mp.conj(hri)) * mp.sqrt(tj * Pj * vj * Pr) + Ni)
        dest = mp.log(1 + num / den) / mp.log(2)
        return float(min(relay_cap, dest))


class TestDfParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DfParams(tau1=-0.1, tau2=0.0, nu1=0.5, nu2=0.5)
        with pytest.raises(ValueError):
            DfParams(tau1=0.0, tau2=1.1, nu1=0.5, nu2=0.5)
        with pytest.raises(ValueError):
            DfParams(tau1=0.0, tau2=0.0, nu1=0.6, nu2=0.6)

    def test_accessors(self):
        p = DfParams(tau1=0.2, tau2=0.3, nu1=0.4, nu2=0.5)
        assert p.tau(1) == 0.2 and p.tau(2) == 0.3
        assert p.nu(1) == 0.4 and p.nu(2) == 0.5


class TestDfRate:
    def test_full_correlation_kills_relay_branch(self, rng):
        # tau_i = 1 leaves nothing fresh for the relay to decode.
        for _ in range(20):
            ch = random_channel(rng)
            p = DfParams(tau1=1.0, tau2=0.0, nu1=0.5, nu2=0.5)
            assert df_rate(ch, p, 1) == 0.0

    def test_no_relay_power_reduces_to_interference_channel(self, rng):
        for _ in range(20):
            ch = random_channel(rng)
            p = DfParams(tau1=0.0, tau2=0.0, nu1=0.0, nu2=0.0)
            for user in (1, 2):
                j = 2 if user == 1 else 1
                baseline = capacity(
                    abs(ch.h_direct(user)) ** 2 * ch.P(user)
                    / (abs(ch.h_cross(user)) ** 2 * ch.P(j) + ch.N(user))
                )
                relay_cap = capacity(abs(ch.h_to_relay(user)) ** 2
                                     * ch.P(user) / ch.Nr)
                assert df_rate(ch, p, user) == pytest.approx(
                    min(baseline, relay_cap), rel=1e-13)

    def test_matches_high_precision_oracle(self, rng):
        for _ in range(100):
            ch = random_channel(rng)
            p = DfParams(tau1=float(rng.uniform(0, 1)), tau2=float(rng.uniform(0, 1)),
                         nu1=float(rng.uniform(0, 0.5)), nu2=float(rng.uniform(0, 0.5)))
            for user in (1, 2):
                assert df_rate(ch, p, user) == pytest.approx(
                    mp_df_rate(ch, p, user), rel=1e-11, abs=1e-12)

    def test_bounded_by_relay_decoding(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            p = DfParams(tau1=float(rng.uniform(0, 1)), tau2=float(rng.uniform(0, 1)),
                         nu1=float(rng.uniform(0, 0.5)), nu2=float(rng.uniform(0, 0.5)))
            for user in (1, 2):
                cap = capacity(abs(ch.h_to_relay(user)) ** 2
                               * (1 - p.tau(user)) * ch.P(user) / ch.Nr)
                assert df_rate(ch, p, user) <= cap + 1e-12

    def test_dead_relay_links(self, rng):
        # With no source-to-relay links the relay can never decode.
        for _ in range(20):
            ch = replace(random_channel(rng), h1r=0.0, h2r=0.0)
            p = DfParams(tau1=0.3, tau2=0.3, nu1=0.4, nu2=0.4)
            assert df_rate(ch, p, 1) == 0.0
            assert df_rate(ch, p, 2) == 0.0

    def test_continuity_in_tau(self, rng):
        ch = random_channel(rng)
        taus = np.linspace(0, 1, 201)
        rates = [df_rate(ch, DfParams(t, 0.2, 0.4, 0.4), 1) for t in taus]
        diffs = np.abs(np.diff(rates))
        assert diffs.max() < 0.1


class TestDfSearch:
    def test_beats_random_parameters(self, rng):
        for _ in range(10):
            ch = random_channel(rng)
            params, pair = df_sum_rate_search(ch, grid_points=41)
            for _ in range(200):
                t1, t2 = rng.uniform(0, 1, 2)
                v1 = float(rng.uniform(0, 1))
                v2 = float(rng.uniform(0, 1 - v1))
                q = DfParams(float(t1), float(t2), v1, v2)
                rand_sum = df_rate(ch, q, 1) + df_rate(ch, q, 2)
                assert pair.sum >= rand_sum - 5e-3

    def test_achieved_pair_consistent(self, rng):
        for _ in range(10):
            ch = random_channel(rng)
            params, pair = df_sum_rate_search(ch, grid_points=21)
            assert pair.r1 == pytest.approx(df_rate(ch, params, 1), abs=1e-12)
            assert pair.r2 == pytest.approx(df_rate(ch, params, 2), abs=1e-12)

    def test_symmetric_channel_swap_invariance(self, rng):
        # The sum-rate optimum of a symmetric channel need not be balanced,
        # but swapping the roles of the users must give the same sum.
        for _ in range(5):
            ch = symmetric_channel(rng)
            params, pair = df_sum_rate_search(ch, grid_points=21)
            swapped = DfParams(params.tau2, params.tau1, params.nu2, params.nu1)
            swap_sum = df_rate(ch, swapped, 1) + df_rate(ch, swapped, 2)
            assert swap_sum == pytest.approx(pair.sum, abs=1e-9)

    def test_fixed_nu_search(self, rng):
        ch = random_channel(rng)
        params, pair = df_sum_rate_search(ch, grid_points=21, nu=(0.3, 0.3))
        assert params.nu1 == 0.3 and params.nu2 == 0.3
        free, free_pair = df_sum_rate_search(ch, grid_points=21)
        assert free_pair.sum >= pair.sum - 5e-3


class TestRefinementMatchesLoop:
    """The one-call-per-axis refinement equals the scalar loop exactly."""

    @pytest.mark.parametrize("nu", [(0.5, 0.5), (0.3, 0.3)])
    def test_fixed_nu(self, rng, nu):
        for _ in range(20):
            ch = random_channel(rng)
            assert (df_sum_rate_search(ch, grid_points=41, nu=nu)
                    == df_sum_rate_search_loop(ch, grid_points=41, nu=nu))

    @pytest.mark.parametrize("grid_points", [11, 21, 41])
    def test_free_nu(self, rng, grid_points):
        from ircrates.scenario import default_config

        # The relay at (0.5, 0.5) d0 of the default geometry serves user 1
        # alone, nu = (1, 0), so refining nu2 meets points with nu1 + nu2 > 1.
        edge = default_config().channel_at(0.5, 0.5)
        for ch in [edge] + [random_channel(rng) for _ in range(3)]:
            got = df_sum_rate_search(ch, grid_points=grid_points)
            assert got == df_sum_rate_search_loop(ch, grid_points=grid_points)
            if ch is edge:
                assert got[0].nu1 + got[0].nu2 == 1.0
