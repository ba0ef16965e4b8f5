import math
import subprocess
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from ircrates.af import (
    af_rate,
    af_sum_rate_gain,
    auxiliaries,
    critical_points,
    optimal_gain,
    quadratic_coefficients,
    real_gain_critical_points,
    saturation_gain,
)
from ircrates.channel import ChannelInstance, capacity, layout_to_channel
from ircrates.scenario import default_config

from conftest import random_channel
from reference_kernels import af_sum_rate_gain_scan, optimal_gain_cases


def mp_af_rate(ch: ChannelInstance, a, user: int):
    """Arbitrary-precision evaluation of the per-user rate."""
    with mp.workdps(60):
        i, j = (1, 2) if user == 1 else (2, 1)
        h = {k: mp.mpc(getattr(ch, k)) for k in
             ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2")}
        Pi, Pj = mp.mpf(ch.P(i)), mp.mpf(ch.P(j))
        Ni, Nr = mp.mpf(ch.N(i)), mp.mpf(ch.Nr)
        hri = h[f"hr{i}"]
        num = abs(a * h[f"h{i}r"] * hri + h[f"h{i}{i}"]) ** 2 * Pi
        den = (abs(a * h[f"h{j}r"] * hri + h[f"h{j}{i}"]) ** 2 * Pj
               + a**2 * abs(hri) ** 2 * Nr + Ni)
        return float(mp.log(1 + num / den) / mp.log(2))


class TestAfRate:
    def test_silent_relay_no_interference(self):
        ch = ChannelInstance(h11=0.8, h12=0.1, h21=0.0, h22=0.5,
                             h1r=0.3, h2r=0.4, hr1=0.2, hr2=0.6,
                             P1=4.0, P2=2.0, Pr=3.0, N1=0.5, N2=1.0, Nr=1.0)
        expected = capacity(abs(ch.h11) ** 2 * ch.P1 / ch.N1)
        assert af_rate(ch, 0.0, 1) == pytest.approx(expected, rel=1e-14)

    def test_silent_relay_general(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            for user in (1, 2):
                j = 2 if user == 1 else 1
                expected = capacity(
                    abs(ch.h_direct(user)) ** 2 * ch.P(user)
                    / (abs(ch.h_cross(user)) ** 2 * ch.P(j) + ch.N(user))
                )
                assert af_rate(ch, 0.0, user) == pytest.approx(expected, rel=1e-13)

    def test_matches_high_precision_oracle(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            for user in (1, 2):
                got = af_rate(ch, 0.7, user)
                assert got == pytest.approx(mp_af_rate(ch, 0.7, user), rel=1e-12)

    def test_rejects_negative_gain(self, rng):
        ch = random_channel(rng)
        with pytest.raises(ValueError):
            af_rate(ch, -0.1, 1)

    def test_decoupled_network_constant_in_gain(self, rng):
        for _ in range(20):
            ch = random_channel(rng)
            from dataclasses import replace
            dec = replace(ch, h12=0, h21=0, h1r=0, h2r=0, hr1=0, hr2=0)
            for user in (1, 2):
                expected = capacity(dec.rho(user) * abs(dec.h_direct(user)) ** 2)
                for a in (0.0, 0.5, 3.0):
                    assert af_rate(dec, a, user) == pytest.approx(expected, rel=1e-13)


    def test_overflowing_square_takes_the_powers_inside(self):
        # P1 = P2 = Nr = 1e-300 and Pr = 1e10: the saturation gain is about
        # 2e153, so |a h_ir h_ri + h_ii|^2 (user 1) and |a h_jr h_ri + h_ji|^2
        # (user 2) overflow before they meet the powers.
        c = replace(default_config(), P1=1e-300, P2=1e-300, Nr=1e-300, Pr=1e10)
        ch = layout_to_channel(c.layout, c.P1, c.P2, c.Pr, c.N1, c.N2, c.Nr)
        a_sat = saturation_gain(ch)
        assert a_sat > 1e153
        for gain in (0.0, a_sat):
            for user in (1, 2):
                assert af_rate(ch, gain, user) == pytest.approx(
                    mp_af_rate(ch, gain, user), rel=1e-12, abs=1e-300)
        assert af_rate(ch, a_sat, 2) > 0.002


class TestSaturationGain:
    def test_zero_relay_input(self):
        ch = ChannelInstance(1, 0, 0, 1, h1r=0, h2r=0, hr1=1, hr2=1,
                             P1=1, P2=1, Pr=4.0, N1=1, N2=1, Nr=1.0)
        assert saturation_gain(ch) == pytest.approx(2.0)

    def test_unit_ratio(self):
        # |h1r|^2 P1 + |h2r|^2 P2 + Nr = 4 + 4 + 2 = 10 = Pr.
        ch = ChannelInstance(1, 0, 0, 1, h1r=2.0, h2r=2.0, hr1=1, hr2=1,
                             P1=1.0, P2=1.0, Pr=10.0, N1=1, N2=1, Nr=2.0)
        assert saturation_gain(ch) == pytest.approx(1.0)

    def test_from_geometry(self):
        from ircrates.scenario import default_config

        cfg = default_config()
        ch = cfg.channel_at(0.0, 0.5)
        lay = cfg.layout.with_relay_at(0.0, 0.5 * cfg.layout.d0)
        d = lay.distances()
        g1r = (d["h1r"] / cfg.layout.d0) ** -1.0
        g2r = (d["h2r"] / cfg.layout.d0) ** -1.0
        expected = math.sqrt(cfg.Pr / (g1r**2 * cfg.P1 + g2r**2 * cfg.P2 + cfg.Nr))
        assert saturation_gain(ch) == pytest.approx(expected, rel=1e-12)


class TestCriticalPoints:
    def test_no_cross_terms_single_negative_root(self):
        # p = q = s = 0 requires h2r = h21 = hr1 = 0... s = 0 forces hr1 = 0,
        # which kills m too; instead pick the limit via tiny cross links and
        # check the closed form against coefficients reduced by inspection.
        ch = ChannelInstance(h11=0.9, h12=0.0, h21=0.0, h22=0.9,
                             h1r=0.7, h2r=0.0, hr1=0.5, hr2=0.5,
                             P1=2.0, P2=1.0, Pr=1.0, N1=1.0, N2=1.0, Nr=1.0)
        # For user 1: p = q = 0, s > 0.  Coefficients reduce to
        # c2 = -s·mn, c1 = m^2 - n^2 s, c0 = mn; roots are -n/m and m/(ns).
        aux = auxiliaries(ch, 1)
        roots = critical_points(ch, 1)
        m, n, s = aux.m.real, aux.n.real, aux.s
        assert sorted(roots) == pytest.approx(sorted([-n / m, m / (n * s)]), rel=1e-10)
        assert min(roots) < 0

    def test_roots_are_stationary(self, rng):
        checked = 0
        for _ in range(200):
            ch = random_channel(rng)
            for user in (1, 2):
                try:
                    roots = critical_points(ch, user)
                except ValueError:
                    continue
                for r in roots:
                    if r <= 1e-3:  # derivative check needs a positive-gain window
                        continue
                    h = 1e-6 * max(1.0, abs(r))
                    deriv = (af_rate(ch, r + h, user) - af_rate(ch, r - h, user)) / (2 * h)
                    assert abs(deriv) < 1e-6
                    checked += 1
        assert checked > 50

    def test_closed_form_matches_solver_real_gains(self, rng):
        matched = 0
        for _ in range(300):
            ch = random_channel(rng, real_gains=True)
            for user in (1, 2):
                aux = auxiliaries(ch, user)
                c2, c1, c0 = quadratic_coefficients(aux)
                scale = max(abs(c2), abs(c1), abs(c0))
                if scale == 0 or abs(c2) < 1e-9 * scale:
                    continue
                try:
                    a1, a2 = real_gain_critical_points(aux)
                except ZeroDivisionError:
                    continue
                roots = critical_points(ch, user)
                if len(roots) != 2:
                    continue
                assert sorted(roots) == pytest.approx(sorted([a1, a2]), rel=1e-10)
                matched += 1
        assert matched > 100


class TestOptimalGain:
    def test_aligned_links_saturate(self):
        # Interference-free aligned case: rate strictly increasing in the gain.
        ch = ChannelInstance(h11=0.9, h12=0.0, h21=0.0, h22=0.9,
                             h1r=0.7, h2r=0.0, hr1=0.5, hr2=0.0,
                             P1=2.0, P2=1.0, Pr=1.0, N1=1.0, N2=1.0, Nr=1.0)
        res = optimal_gain(ch, 1)
        # s > 0 here means relay noise still caps the rate; verify optimum
        # against a dense grid rather than assuming saturation.
        grid = np.linspace(0, res.saturation_gain, 100_001)
        rates = af_rate(ch, grid, 1)
        assert res.optimal_rate >= rates.max() - 1e-10

    def test_matches_grid_argmax(self, rng):
        for _ in range(300):
            ch = random_channel(rng)
            for user in (1, 2):
                res = optimal_gain(ch, user)
                assert 0.0 <= res.optimal_gain <= res.saturation_gain * (1 + 1e-12)
                grid = np.linspace(0.0, res.saturation_gain, 20_001)
                best = float(np.max(af_rate(ch, grid, user)))
                assert res.optimal_rate >= best - 1e-8
                assert res.optimal_rate == pytest.approx(
                    float(af_rate(ch, res.optimal_gain, user)), abs=1e-12
                )

    def test_non_saturating_instance_exists(self, rng):
        found = False
        for _ in range(2000):
            ch = random_channel(rng)
            res = optimal_gain(ch, 1)
            if (res.optimal_gain < res.saturation_gain and
                    res.optimal_rate > float(af_rate(ch, res.saturation_gain, 1)) + 1e-6):
                found = True
                break
        assert found

    def test_asymptote(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            res = optimal_gain(ch, 1)
            far = float(af_rate(ch, 1e8 * res.saturation_gain, 1))
            assert far == pytest.approx(res.asymptote, abs=1e-6)

    def test_scaling_invariance(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            lam = float(np.exp(rng.uniform(-2, 2)))
            scaled = ch.scaled(lam)
            r0, r1 = optimal_gain(ch, 1), optimal_gain(scaled, 1)
            assert r1.optimal_rate == pytest.approx(r0.optimal_rate, abs=1e-9)
            ratio0 = r0.optimal_gain / r0.saturation_gain
            ratio1 = r1.optimal_gain / r1.saturation_gain
            assert ratio1 == pytest.approx(ratio0, abs=1e-9)
            # Rate at matched relative gain position is also unchanged.
            t = 0.37
            assert float(af_rate(scaled, t * r1.saturation_gain, 1)) == pytest.approx(
                float(af_rate(ch, t * r0.saturation_gain, 1)), abs=1e-9
            )

    def test_constant_rate_keeps_first_endpoint(self):
        # h11 = h1r = 0: user 1's signal reaches D1 by no path, every
        # stationary-point coefficient vanishes and only the endpoints are
        # scored; they tie at rate 0 and the first, gain 0, is kept.
        ch = ChannelInstance(h11=0.0, h12=0.3, h21=0.4, h22=0.9,
                             h1r=0.0, h2r=0.5, hr1=0.6, hr2=0.7,
                             P1=2.0, P2=1.0, Pr=1.0, N1=1.0, N2=1.0, Nr=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            critical_points(ch, 1)
        res = optimal_gain(ch, 1)
        assert (res.optimal_gain, res.optimal_rate) == (0.0, 0.0)

    @pytest.mark.parametrize("user", [1, 2])
    def test_unreachable_relay_gives_constant_rate(self, user):
        # h_ri = 0: nothing the relay sends reaches D_i, so the rate does not
        # depend on the gain and the asymptote is that rate.
        gains = dict(h11=0.9, h12=0.2, h21=0.3, h22=0.8, h1r=0.7, h2r=0.4,
                     hr1=0.5, hr2=0.6)
        gains[f"hr{user}"] = 0.0
        ch = ChannelInstance(**gains, P1=2.0, P2=1.0, Pr=1.0, N1=1.0, N2=1.0, Nr=1.0)
        res = optimal_gain(ch, user)
        assert res.optimal_gain == 0.0
        assert res.asymptote == res.optimal_rate
        assert res.optimal_rate == float(af_rate(ch, res.saturation_gain, user))

    def test_dominates_all_gains(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            for user in (1, 2):
                res = optimal_gain(ch, user)
                samples = rng.uniform(0, res.saturation_gain, 200)
                assert np.all(res.optimal_rate >= af_rate(ch, samples, user) - 1e-9)


class TestOptimalGainMatchesCases:
    """The candidate-scoring per-user optimum against the case analysis."""

    @pytest.mark.parametrize("real_gains", [False, True])
    def test_random_users(self, rng, real_gains):
        # 5,000 channels x 2 users per gain type: 20,000 user instances.
        for _ in range(5_000):
            ch = random_channel(rng, real_gains=real_gains)
            for user in (1, 2):
                res = optimal_gain(ch, user)
                gain, rate = optimal_gain_cases(ch, user)
                assert res.optimal_gain == gain
                assert res.optimal_rate == pytest.approx(rate, abs=1e-12)


class TestSumRateGain:
    def test_symmetric_channel_common_optimum(self, rng):
        from conftest import symmetric_channel

        for _ in range(20):
            ch = symmetric_channel(rng)
            r1, r2 = optimal_gain(ch, 1), optimal_gain(ch, 2)
            assert r1.optimal_gain == pytest.approx(r2.optimal_gain, abs=1e-12)
            g, pair = af_sum_rate_gain(ch)
            assert pair.sum >= r1.optimal_rate + r2.optimal_rate - 1e-8

    def test_beats_candidate_set(self, rng):
        tol = 1e-10
        for _ in range(30):
            ch = random_channel(rng)
            g, pair = af_sum_rate_gain(ch)
            a_bar = saturation_gain(ch)
            cands = [0.0, a_bar]
            for user in (1, 2):
                try:
                    cands += [r for r in critical_points(ch, user) if 0 < r < a_bar]
                except ValueError:
                    pass
            for c in cands:
                cand_sum = float(af_rate(ch, c, 1) + af_rate(ch, c, 2))
                assert pair.sum >= cand_sum - tol

    def test_matches_brute_force_grid(self, rng):
        tol = 1e-8
        for _ in range(5):
            ch = random_channel(rng)
            g, pair = af_sum_rate_gain(ch)
            grid = np.linspace(0, saturation_gain(ch), 1_000_001)
            brute = float(np.max(af_rate(ch, grid, 1) + af_rate(ch, grid, 2)))
            assert pair.sum >= brute - 2 * tol


class TestSumRateMatchesScan:
    """The closed-form sum-rate optimum against the scan-and-refine search."""

    # A few ulps of a sum rate of a few bits: the closed form may not fall
    # below the search's optimum by more.
    TOL = 1e-12

    def test_random_channels(self, rng):
        for _ in range(300):
            ch = random_channel(rng)
            _, pair = af_sum_rate_gain(ch)
            _, ref = af_sum_rate_gain_scan(ch)
            assert pair.sum >= ref.sum - self.TOL

    def test_default_map_channels(self):
        from ircrates.scenario import default_config

        cfg = default_config()
        for y in cfg.grid_y():
            for x in cfg.grid_x():
                ch = cfg.channel_at(float(x), float(y))
                _, pair = af_sum_rate_gain(ch)
                _, ref = af_sum_rate_gain_scan(ch)
                assert pair.sum >= ref.sum - self.TOL
                # The map CSV prints sum rates with 12 significant digits.
                assert f"{pair.sum:.12g}" == f"{ref.sum:.12g}"


@pytest.mark.parametrize("run", [
    lambda ch: quadratic_coefficients(auxiliaries(ch, 1)),
    lambda ch: critical_points(ch, 1),
    lambda ch: optimal_gain(ch, 1),
], ids=["quadratic_coefficients", "critical_points", "optimal_gain"])
def test_user_overflow_raises_a_value_error(run):
    # A channel that ChannelInstance accepts: user 1's |m|^2 is 1e450, which
    # Python's abs(z) ** 2 turned into a bare OverflowError.
    ch = ChannelInstance(h11=1e-80, h12=1e-80, h21=1e-80, h22=1e-80, h1r=1e75, h2r=1.0,
                         hr1=1e75, hr2=1.0, P1=1.0, P2=1.0, Pr=1.0, N1=1e-150, N2=1.0, Nr=1.0)
    with pytest.raises(ValueError, match="quadratic of user 1 overflows a float"):
        run(ch)


def test_import_does_not_load_scipy():
    code = "import sys, ircrates; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
