"""Acceptance gate: the ten release criteria, one pass/fail line each.

Each test prints its verdict straight to the real stdout (bypassing pytest
capture) so the line survives in piped logs, then asserts.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from ircrates.af import (
    auxiliaries,
    critical_points,
    optimal_gain,
    quadratic_coefficients,
    real_gain_critical_points,
    saturation_gain,
)
from ircrates.channel import ChannelInstance, capacity
from ircrates import af, df, ef
from ircrates.df import _df_sinr_terms
from ircrates.discrete import (
    bi_level_bounds,
    conditional_mutual_information,
    entropy,
    single_level_bounds,
)
from ircrates.scenario import (
    PROTOCOL_ORDER,
    default_config,
    dominance_map,
    evaluate_cell,
    map_to_csv,
    sum_rate_slice,
)

from conftest import symmetric_channel
from test_discrete import random_bi_fact, random_single_fact


@pytest.fixture(autouse=True)
def _live_report(request):
    """Route the per-criterion verdict past pytest's output capture."""
    _report.capman = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _report.capman = None


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num:2d}: {verdict} -- {detail}"
    capman = getattr(_report, "capman", None)
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _draw_gains(rng, n):
    r = np.sqrt(rng.random(n))
    return r * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def _draw_powers(rng, n):
    return 10.0 ** rng.uniform(-1, 1, n)


def _draw_channels(rng, n):
    g = {k: _draw_gains(rng, n)
         for k in ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2")}
    p = {k: _draw_powers(rng, n) for k in ("P1", "P2", "Pr", "N1", "N2", "Nr")}
    return g, p


def _channel_k(g, p, k) -> ChannelInstance:
    return ChannelInstance(
        **{name: complex(arr[k]) for name, arr in g.items()},
        **{name: float(arr[k]) for name, arr in p.items()},
    )


@pytest.fixture(scope="module")
def af_sweep():
    """Shared 10,000-channel AF sweep: grid-argmax rates and analytic optima."""
    rng = np.random.default_rng(20240501)
    n, grid_points = 10_000, 100_000
    g, p = _draw_channels(rng, n)
    start = time.monotonic()

    a_bar = np.sqrt(p["Pr"] / (np.abs(g["h1r"]) ** 2 * p["P1"]
                               + np.abs(g["h2r"]) ** 2 * p["P2"] + p["Nr"]))
    u = np.linspace(0.0, 1.0, grid_points)
    u2 = u * u

    def grid_max_sinr(i):
        # SINR(a) is a ratio of quadratics in a; evaluate on a = u * a_bar.
        j = 3 - i
        m = g[f"h{i}r"] * g[f"hr{i}"]
        n_ = g[f"h{i}{i}"]
        pp = g[f"h{j}r"] * g[f"hr{i}"]
        q = g[f"h{j}{i}"]
        Pi, Pj, Ni, Nr = p[f"P{i}"], p[f"P{j}"], p[f"N{i}"], p["Nr"]
        A2 = Pi * np.abs(m) ** 2 * a_bar**2
        A1 = Pi * 2 * (m * np.conj(n_)).real * a_bar
        A0 = Pi * np.abs(n_) ** 2
        B2 = (Pj * np.abs(pp) ** 2 + np.abs(g[f"hr{i}"]) ** 2 * Nr) * a_bar**2
        B1 = Pj * 2 * (pp * np.conj(q)).real * a_bar
        B0 = Pj * np.abs(q) ** 2 + Ni
        # A2 u^2 + A1 u + A0 in place, in that operand order, into buffers
        # reused across chunks of `rows` channels (small enough to stay in cache).
        rows = 2
        num, den, tmp = (np.empty((rows, grid_points)) for _ in range(3))
        out = np.empty(n)
        for s in range(0, n, rows):
            e = s + rows
            for buf, (c2, c1, c0) in ((num, (A2, A1, A0)), (den, (B2, B1, B0))):
                np.multiply(c2[s:e, None], u2, out=buf)
                np.multiply(c1[s:e, None], u, out=tmp)
                buf += tmp
                buf += c0[s:e, None]
            np.divide(num, den, out=num)
            out[s:e] = num.max(axis=1)
        return out

    grid_rates = {i: np.log2(1.0 + grid_max_sinr(i)) for i in (1, 2)}

    worst = 0.0
    non_saturating = 0
    for k in range(n):
        ch = _channel_k(g, p, k)
        for i in (1, 2):
            res = optimal_gain(ch, i)
            worst = max(worst, abs(res.optimal_rate - grid_rates[i][k]))
            if (res.optimal_gain < res.saturation_gain
                    and res.optimal_rate
                    > float(af.af_rate(ch, res.saturation_gain, i)) + 1e-6):
                non_saturating += 1
    elapsed = time.monotonic() - start
    return {"worst": worst, "non_saturating": non_saturating, "elapsed": elapsed}


def test_criterion_01_gain_optimizer_oracle(af_sweep):
    ok = af_sweep["worst"] <= 1e-8 and af_sweep["elapsed"] < 60.0
    _report(1, ok,
            f"optimal gain vs 1e5-point grid on 10,000 channels: "
            f"max rate gap {af_sweep['worst']:.3g} (tol 1e-8), "
            f"{af_sweep['elapsed']:.1f}s (limit 60s)")


def test_criterion_02_non_saturation_exists(af_sweep):
    count = af_sweep["non_saturating"]
    _report(2, count >= 1,
            f"{count} user-rate instances strictly better below the "
            f"saturation gain (need >= 1, margin 1e-6)")


def test_criterion_03_baseline_reductions():
    rng = np.random.default_rng(20240502)
    g, p = _draw_channels(rng, 1000)
    worst = 0.0
    for k in range(1000):
        ch = _channel_k(g, p, k)
        for i in (1, 2):
            j = 3 - i
            base = capacity(abs(ch.h_direct(i)) ** 2 * ch.P(i)
                            / (abs(ch.h_cross(i)) ** 2 * ch.P(j) + ch.N(i)))
            worst = max(worst, abs(float(af.af_rate(ch, 0.0, i)) - base))
            _, dest_term = _df_sinr_terms(ch, 0.0, 0.0, 0.0, 0.0, i)
            worst = max(worst, abs(capacity(float(dest_term)) - base))
        sl = ef.ef_sl_rate(ch, 1e12)
        _, _, bl = ef.ef_bi_eval(ch, 1e-9, 1e-9)
        for pair in (sl, bl):
            for i, r in ((1, pair.r1), (2, pair.r2)):
                j = 3 - i
                base = capacity(abs(ch.h_direct(i)) ** 2 * ch.P(i)
                                / (abs(ch.h_cross(i)) ** 2 * ch.P(j) + ch.N(i)))
                worst = max(worst, abs(r - base))
    _report(3, worst <= 1e-6,
            f"AF/DF/EF-SL/EF-BL degenerate parameters vs interference-channel "
            f"baseline on 1,000 channels: max gap {worst:.3g} (tol 1e-6)")


def test_criterion_04_asymmetric_ef_limits():
    rng = np.random.default_rng(20240503)
    g, p = _draw_channels(rng, 1000)
    worst_sl = worst_bl = worst_r2 = 0.0
    ordering = True
    for k in range(1000):
        ch = replace(_channel_k(g, p, k), N2=float(1e6 * p["N1"][k]))
        gd, gc = abs(ch.h11) ** 2, abs(ch.h21) ** 2
        gu, gw = abs(ch.h1r) ** 2, abs(ch.h2r) ** 2
        limit_sl = capacity(gd * ch.P1 / (gc * ch.P2 + ch.N1))
        sl = ef.ef_sl_rate(ch, ef.ef_sl_min_noise(ch))
        _, scenario, bl = ef.ef_bi_eval(ch, 0.5, 0.5)
        nwz1, _ = ef.ef_bi_min_noise(ch, 0.5, 0.5, scenario)
        limit_bl = capacity(
            gd * ch.P1 / (ch.N1 + gc * ch.P2 * (ch.Nr + nwz1)
                          / (gw * ch.P2 + ch.Nr + nwz1))
            + gu * ch.P1 / (ch.Nr + nwz1 + gw * ch.P2 * ch.N1
                            / (gc * ch.P2 + ch.N1))
        )
        worst_sl = max(worst_sl, abs(sl.r1 - limit_sl))
        worst_bl = max(worst_bl, abs(bl.r1 - limit_bl))
        worst_r2 = max(worst_r2, sl.r2, bl.r2)
        ordering = ordering and bl.r1 >= sl.r1 - 1e-12
    ok = worst_sl <= 1e-3 and worst_bl <= 1e-3 and worst_r2 <= 1e-3 and ordering
    _report(4, ok,
            f"N2 = 1e6*N1 limits: |R1_SL - closed form| {worst_sl:.3g}, "
            f"|R1_BL - closed form| {worst_bl:.3g}, max R2 {worst_r2:.3g} "
            f"(tol 1e-3), bi-level >= single-level in every draw: {ordering}")


def test_criterion_05_symmetric_noise_ordering():
    rng = np.random.default_rng(20240504)
    ok = True
    worst_ratio = 0.0
    for _ in range(1000):
        ch = symmetric_channel(rng)
        n_sl = ef.ef_sl_min_noise(ch)
        scenario = ef.ef_bi_scenario(ch, 0.5, 0.5)
        n1, n2 = ef.ef_bi_min_noise(ch, 0.5, 0.5, scenario)
        worst_ratio = max(worst_ratio, n_sl / min(n1, n2))
        ok = ok and n_sl <= min(n1, n2) * (1 + 1e-12)
    _report(5, ok,
            f"symmetric instances, nu = (1/2, 1/2): single-level noise <= both "
            f"bi-level noises in 1,000 draws (max ratio {worst_ratio:.4f})")


def test_criterion_06_sigma_schur_oracle():
    rng = np.random.default_rng(20240505)
    g, p = _draw_channels(rng, 1000)
    worst = 0.0
    for k in range(1000):
        ch = _channel_k(g, p, k)
        derived = ef.ef_derived(ch)
        for i in (1, 2):
            j = 3 - i
            hir, hjr = ch.h_to_relay(i), ch.h_to_relay(j)
            hii, hji = ch.h_direct(i), ch.h_cross(i)
            cov = np.array(
                [[abs(hir) ** 2 * ch.P(i) + abs(hjr) ** 2 * ch.P(j) + ch.Nr,
                  hir * np.conj(hii) * ch.P(i) + hjr * np.conj(hji) * ch.P(j)],
                 [np.conj(hir) * hii * ch.P(i) + np.conj(hjr) * hji * ch.P(j),
                  abs(hii) ** 2 * ch.P(i) + abs(hji) ** 2 * ch.P(j) + ch.N(i)]],
                dtype=complex)
            schur = float((cov[0, 0] - cov[0, 1] * cov[1, 0] / cov[1, 1]).real)
            worst = max(worst, abs(derived.sigma_sq(i) - schur))
    _report(6, worst <= 1e-10,
            f"conditional variances vs 2x2 Schur-complement oracle on 1,000 "
            f"channels: max gap {worst:.3g} (tol 1e-10)")


def test_criterion_07_discrete_bound_oracles():
    rng = np.random.default_rng(20240506)
    worst_bound = worst_ident = 0.0
    for _ in range(25):
        sizes = dict(nx=int(rng.integers(2, 4)), nu=int(rng.integers(2, 4)),
                     nxr=int(rng.integers(2, 4)), ny=int(rng.integers(2, 4)),
                     nyh=int(rng.integers(2, 4)))
        bi = random_bi_fact(rng, **sizes)
        pmf = bi.joint()
        r1, r2, _ = bi_level_bounds(bi)
        for r, x, y, yh, u in ((r1, "x1", "y1", "yh1", "u1"),
                               (r2, "x2", "y2", "yh2", "u2")):
            oracle = (entropy(pmf, (x, u)) + entropy(pmf, (y, yh, u))
                      - entropy(pmf, (x, y, yh, u)) - entropy(pmf, (u,)))
            worst_bound = max(worst_bound, abs(r - oracle))

        del sizes["nu"]
        single = random_single_fact(rng, **sizes)
        pmf = single.joint()
        r1, r2, _ = single_level_bounds(single)
        for r, x, y in ((r1, "x1", "y1"), (r2, "x2", "y2")):
            oracle = (entropy(pmf, (x, "xr")) + entropy(pmf, (y, "yh", "xr"))
                      - entropy(pmf, (x, y, "yh", "xr")) - entropy(pmf, ("xr",)))
            worst_bound = max(worst_bound, abs(r - oracle))
        # Markov rewrite of the description-rate constraint term.
        for y in ("y1", "y2"):
            lhs = conditional_mutual_information(pmf, ("yr",), ("yh",), ("xr", y))
            rhs = (conditional_mutual_information(pmf, ("yh",), ("yr", y), ("xr",))
                   - conditional_mutual_information(pmf, ("yh",), (y,), ("xr",)))
            worst_ident = max(worst_ident, abs(lhs - rhs))
    ok = worst_bound <= 1e-12 and worst_ident <= 1e-10
    _report(7, ok,
            f"discrete bounds vs entropy-sum oracle: max gap {worst_bound:.3g} "
            f"(tol 1e-12); Markov rewrite identity gap {worst_ident:.3g} "
            f"(tol 1e-10)")


def test_criterion_08_slice_discontinuity():
    # The compressed-relay sum-rate discontinuity is ~0.017 bits, so the
    # slice resolution must be fine enough (0.005*d0) for the 10x-median
    # detection rule to resolve it; the budget is 30 s for the full slice.
    config = replace(default_config(), resolution=0.005)
    start = time.monotonic()
    cells = sum_rate_slice(config, 0.5)
    elapsed = time.monotonic() - start
    rates = np.array([c.rates["ef_bl"] for c in cells])
    tags = [c.bl_scenario for c in cells]
    diffs = np.abs(np.diff(rates))
    jumps = set(np.nonzero(diffs > 10 * np.median(diffs))[0].tolist())
    flips = {i for i in range(len(tags) - 1) if tags[i] != tags[i + 1]}
    ok = bool(jumps) and jumps == flips and elapsed < 30.0
    _report(8, ok,
            f"slice at y_r = 0.5 d0: jump indices {sorted(jumps)} == scenario "
            f"flip indices {sorted(flips)}, {elapsed:.1f}s (limit 30s)")


def test_criterion_09_map_consistency_and_determinism():
    config = default_config()
    start = time.monotonic()
    cells = dominance_map(config)
    csv_a = map_to_csv(cells)
    csv_b = map_to_csv(dominance_map(config))
    elapsed = time.monotonic() - start
    rng = np.random.default_rng(20240507)
    consistent = True
    for idx in rng.choice(len(cells), size=100, replace=False):
        cell = cells[int(idx)]
        redo = evaluate_cell(config, cell.xr, cell.yr)
        consistent = consistent and all(
            math.isclose(cell.rates[p], redo.rates[p], rel_tol=0, abs_tol=0)
            for p in PROTOCOL_ORDER
        )
        best = max(cell.rates.values())
        winner_ok = cell.rates[cell.winner] == best and all(
            cell.rates[p] < best or PROTOCOL_ORDER.index(p)
            >= PROTOCOL_ORDER.index(cell.winner)
            for p in PROTOCOL_ORDER
        )
        consistent = consistent and winner_ok
    distinct_winners = len({c.winner for c in cells})
    ok = (csv_a == csv_b and consistent and distinct_winners >= 2
          and elapsed < 600.0)
    _report(9, ok,
            f"dominance map: byte-identical CSV across runs {csv_a == csv_b}, "
            f"100-cell recompute + winner check {consistent}, "
            f"{distinct_winners} distinct winners, {elapsed:.1f}s (limit 600s)")


def test_criterion_10_closed_form_real_roots():
    rng = np.random.default_rng(20240508)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        gains = rng.uniform(-1, 1, 8) + 0j
        p = 10.0 ** rng.uniform(-1, 1, 6)
        ch = ChannelInstance(
            h11=gains[0], h12=gains[1], h21=gains[2], h22=gains[3],
            h1r=gains[4], h2r=gains[5], hr1=gains[6], hr2=gains[7],
            P1=p[0], P2=p[1], Pr=p[2], N1=p[3], N2=p[4], Nr=p[5])
        for i in (1, 2):
            aux = auxiliaries(ch, i)
            c2, c1, c0 = quadratic_coefficients(aux)
            scale = max(abs(c2), abs(c1), abs(c0))
            if scale == 0 or abs(c2) < 1e-12 * scale:
                continue
            closed = sorted(real_gain_critical_points(aux))
            solved = sorted(critical_points(ch, i))
            if len(solved) != 2:
                continue
            denom = max(1.0, abs(closed[0]), abs(closed[1]))
            worst = max(worst,
                        abs(closed[0] - solved[0]) / denom,
                        abs(closed[1] - solved[1]) / denom)
            checked += 1
    ok = worst <= 1e-10 and checked >= 1000
    _report(10, ok,
            f"closed-form real-gain stationary points vs quadratic solver on "
            f"{checked} user instances: max gap {worst:.3g} (tol 1e-10)")
