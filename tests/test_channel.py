import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ircrates.channel import (
    ChannelBatch,
    ChannelInstance,
    NodeLayout,
    RatePair,
    capacity,
    check_nu_split,
    layout_to_batch,
    layout_to_channel,
    nu_simplex,
    path_loss_gain,
)


class TestCapacity:
    def test_identity_cases(self):
        assert capacity(0) == 0.0
        assert capacity(1) == pytest.approx(1.0, abs=1e-15)
        assert capacity(3) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_negative_and_nonfinite(self):
        for bad in (-1e-9, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                capacity(bad)

    @given(st.floats(min_value=0, max_value=1e12), st.floats(min_value=1e-9, max_value=1e12))
    def test_increasing(self, x, dx):
        # Strict only when the increment survives double rounding of 1 + x.
        assert capacity(x + dx) >= capacity(x)
        if dx / (1.0 + x) > 1e-12:
            assert capacity(x + dx) > capacity(x)

    def test_concave_on_grid(self):
        x = np.linspace(0, 100, 501)
        y = capacity(x)
        # Midpoint value above the chord for every consecutive triple.
        assert np.all(y[1:-1] >= 0.5 * (y[:-2] + y[2:]) - 1e-12)

    def test_vectorized(self):
        np.testing.assert_allclose(capacity(np.array([0.0, 1.0, 3.0])), [0, 1, 2],
                                   atol=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1e-9])
    def test_rejects_bad_entry_anywhere_in_array(self, bad):
        for shape in ((5,), (3, 4)):
            for index in (0, -1):
                x = np.ones(shape)
                x.flat[index] = bad
                with pytest.raises(ValueError):
                    capacity(x)
        with pytest.raises(ValueError):
            capacity(np.array(bad))

    def test_error_names_the_first_bad_value_and_the_count(self):
        x = np.ones((40, 40))
        x[3, 5], x[7, 1], x[20, 20] = -2.5, np.nan, np.inf
        with pytest.raises(ValueError) as exc:
            capacity(x)
        assert str(exc.value) == "SINR must be finite and >= 0, got -2.5 (3 of 1600 values fail)"
        with pytest.raises(ValueError) as exc:
            capacity(-1e-9)
        assert str(exc.value) == "SINR must be finite and >= 0, got -1e-09 (1 of 1 values fail)"

    def test_zero_dim_array_returns_float(self):
        assert capacity(np.array(3.0)) == 2.0
        assert type(capacity(np.array(3.0))) is float

    def test_empty_array(self):
        out = capacity(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestPathLoss:
    def test_reference_distance(self):
        for gamma in (1.0, 2.0, 3.7):
            assert path_loss_gain(5.0, 5.0, gamma) == pytest.approx(1.0)

    def test_double_distance(self):
        assert path_loss_gain(10.0, 5.0, 2.0) == pytest.approx(0.5)

    def test_published_direct_link(self):
        # d = 11.5 m at d0 = 5 m, gamma = 2: (11.5/5)^-1.
        assert path_loss_gain(11.5, 5.0, 2.0) == pytest.approx(5.0 / 11.5, rel=1e-12)
        assert path_loss_gain(11.5, 5.0, 2.0) == pytest.approx(0.43478, abs=5e-6)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_gain(0.0, 5.0, 2.0)

    def test_inverse_consistency(self, rng):
        for _ in range(200):
            d = float(rng.uniform(0.01, 100.0))
            d0 = float(rng.uniform(0.1, 20.0))
            gamma = float(rng.uniform(0.5, 6.0))
            g = path_loss_gain(d, d0, gamma)
            assert g ** (-2.0 / gamma) * d0 == pytest.approx(d, rel=1e-12)


def assert_batch_refuses_alike(good: dict, bad: dict):
    """A 3-cell ChannelBatch whose last cell is ``bad`` fails ``validate``
    with the message of ``ChannelInstance(**bad)``."""
    with pytest.raises(ValueError) as one:
        ChannelInstance(**bad)
    batch = ChannelBatch(**{name: [good[name], good[name], bad[name]] for name in good})
    with pytest.raises(ValueError) as block:
        batch.validate()
    assert str(block.value) == str(one.value)


class TestChannelInstance:
    def test_requires_positive_powers(self):
        with pytest.raises(ValueError):
            ChannelInstance(1, 0, 0, 1, 1, 1, 1, 1, P1=0.0, P2=1, Pr=1, N1=1, N2=1, Nr=1)
        with pytest.raises(ValueError):
            ChannelInstance(1, 0, 0, 1, 1, 1, 1, 1, P1=1, P2=1, Pr=1, N1=-1, N2=1, Nr=1)
        good = dict(h11=1, h12=0, h21=0, h22=1, h1r=1, h2r=1, hr1=1, hr2=1,
                    P1=1.0, P2=1.0, Pr=1.0, N1=1.0, N2=1.0, Nr=1.0)
        for bad in (dict(P1=0.0), dict(N1=-1.0)):
            assert_batch_refuses_alike(good, {**good, **bad})

    def test_rho_accessor(self):
        ch = ChannelInstance(1, 0, 0, 1, 1, 1, 1, 1,
                             P1=4.0, P2=9.0, Pr=1.0, N1=2.0, N2=3.0, Nr=1.0)
        assert ch.rho(1) == pytest.approx(2.0)
        assert ch.rho(2) == pytest.approx(3.0)
        assert math.isfinite(ch.rho(1)) and ch.rho(1) > 0

    @pytest.mark.parametrize("edits, named", [
        ({"P2": 2e154}, "P2 = 2e+154"),
        ({"hr1": 2e77}, "received at D1"),
        ({"h12": 2e77}, "received at D2"),
        ({"h2r": 2e77}, "received at the relay"),
        ({"h11": complex(1.7e308, 1.7e308)}, "received at D1"),
        ({"Nr": 1e300}, "received at the relay"),
        # |h1r|^2 P1 = 4e8 is in range, but |h1r|^2 is not.
        ({"h1r": 2e154, "P1": 1e-300}, "h1r = 2e+154+0j"),
    ], ids=lambda v: "-".join(f"{k}-{x:g}" for k, x in v.items()) if isinstance(v, dict) else None)
    def test_power_that_overflows_when_squared(self, edits, named):
        # The rate formulas multiply two powers; just under sqrt(float max)
        # passes, just over it names the field or the receiver.
        fields = dict(h11=1, h12=1, h21=1, h22=1, h1r=1, h2r=1, hr1=1, hr2=1,
                      P1=1, P2=1, Pr=1, N1=1, N2=1, Nr=1)
        ChannelInstance(**{**fields, "P1": 1e154})
        with pytest.raises(ValueError, match="overflows a float") as exc:
            ChannelInstance(**{**fields, **edits})
        assert named in str(exc.value)
        assert_batch_refuses_alike(fields, {**fields, **edits})

    def test_index_accessors(self):
        ch = ChannelInstance(h11=1, h12=2, h21=3, h22=4, h1r=5, h2r=6, hr1=7, hr2=8,
                             P1=1, P2=2, Pr=3, N1=4, N2=5, Nr=6)
        assert ch.h_direct(2) == 4
        assert ch.h_cross(1) == 3
        assert ch.h_cross(2) == 2
        assert ch.h_to_relay(2) == 6
        assert ch.h_from_relay(1) == 7


DEFAULT_LAYOUT = NodeLayout(
    s1=(0.0, 0.0), s2=(-2.5, 0.0), d1=(11.5, 0.0),
    d2=(-5.45, math.sqrt(121.0 - 5.45**2)),
    relay=(2.5, 2.5, 0.1), d0=5.0, gamma=2.0, epsilon=0.1,
)


class TestLayout:
    def test_relay_plane_offset_enforced(self):
        with pytest.raises(ValueError):
            NodeLayout(s1=(0, 0), s2=(1, 0), d1=(0, 1), d2=(1, 1),
                       relay=(0, 0, 0.5), epsilon=0.1)

    @pytest.mark.parametrize("field, value", [
        ("s1", (0, 0, 0)), ("s1", ("a", 0)), ("s1", 5), ("d0", "5")])
    def test_direct_layout_refuses_what_a_config_does(self, field, value):
        with pytest.raises(ValueError, match=rf"^layout\.{field} "):
            replace(DEFAULT_LAYOUT, **{field: value})

    def test_rhombus_gains(self):
        # Rhombus with side d0: three links sit at the reference distance
        # (unit gain) and the long diagonal s2-d1 spans sqrt(3)*d0.
        d0 = 5.0
        layout = NodeLayout(
            s1=(0.0, 0.0), d2=(d0, 0.0),
            s2=(d0 / 2, d0 * math.sqrt(3) / 2),
            d1=(d0 / 2, -d0 * math.sqrt(3) / 2),
            relay=(10.0, 10.0, 0.1), d0=d0, gamma=2.0, epsilon=0.1,
        )
        ch = layout_to_channel(layout, 1, 1, 1, 1, 1, 1)
        for g in (ch.h11, ch.h12, ch.h22):
            assert abs(g) == pytest.approx(1.0, rel=1e-12)
        assert abs(ch.h21) == pytest.approx(3.0 ** -0.5, rel=1e-12)

    def test_relay_above_destination(self):
        layout = NodeLayout(
            s1=(0, 0), s2=(0, 3), d1=(4, 0), d2=(4, 3),
            relay=(4.0, 0.0, 0.1), d0=5.0, gamma=2.0, epsilon=0.1,
        )
        ch = layout_to_channel(layout, 1, 1, 1, 1, 1, 1)
        # Relay directly above D1 at height 0.1: |h_r1| = (0.1/5)^-1 = 50.
        assert abs(ch.hr1) == pytest.approx(50.0, rel=1e-12)

    def test_coincident_relay_link_rejected(self):
        layout = NodeLayout(
            s1=(0, 0), s2=(0, 3), d1=(4, 0), d2=(4, 3),
            relay=(4.0, 0.0, 0.0), d0=5.0, gamma=2.0, epsilon=0.0,
        )
        with pytest.raises(ValueError):
            layout_to_channel(layout, 1, 1, 1, 1, 1, 1)

    def test_length_over_d0_overflowing_gives_a_zero_gain(self):
        # d / d0 = 1e150 / 1e-160 overflows to inf, unwarned (pytest makes a
        # RuntimeWarning an error), so every link of S2 has gain 0, as in a block.
        layout = replace(DEFAULT_LAYOUT, s2=(-1e150, 0.0), d0=1e-160)
        ch = layout_to_channel(layout, 1, 1, 1, 1, 1, 1)
        assert (ch.h21, ch.h22, ch.h2r) == (0, 0, 0) and abs(ch.h11) > 0
        block = layout_to_batch(layout, np.array([layout.relay[:2]]), 1, 1, 1, 1, 1, 1)
        assert block.cell(0) == ch

    def test_default_layout_distances(self):
        d = DEFAULT_LAYOUT.distances()
        assert d["h11"] == pytest.approx(11.5, rel=1e-12)
        assert d["h22"] == pytest.approx(10.0, rel=1e-12)
        assert d["h12"] == pytest.approx(11.0, rel=1e-12)
        assert d["h21"] == pytest.approx(14.0, rel=1e-12)

    def test_gains_match_independent_geometry(self):
        # Recompute every distance from the raw coordinates and compare.
        ch = layout_to_channel(DEFAULT_LAYOUT, 10, 10, 10, 1, 1, 1)
        nodes = {
            "s1": np.array([*DEFAULT_LAYOUT.s1, 0.0]),
            "s2": np.array([*DEFAULT_LAYOUT.s2, 0.0]),
            "d1": np.array([*DEFAULT_LAYOUT.d1, 0.0]),
            "d2": np.array([*DEFAULT_LAYOUT.d2, 0.0]),
            "r": np.array(DEFAULT_LAYOUT.relay),
        }
        links = {
            "h11": ("s1", "d1"), "h12": ("s1", "d2"),
            "h21": ("s2", "d1"), "h22": ("s2", "d2"),
            "h1r": ("s1", "r"), "h2r": ("s2", "r"),
            "hr1": ("r", "d1"), "hr2": ("r", "d2"),
        }
        for name, (a, b) in links.items():
            dist = np.linalg.norm(nodes[a] - nodes[b])
            expected = (dist / DEFAULT_LAYOUT.d0) ** -1.0
            assert abs(getattr(ch, name)) == pytest.approx(expected, rel=1e-12)

    def test_rigid_motion_invariance(self, rng):
        for _ in range(20):
            angle = rng.uniform(0, 2 * np.pi)
            shift = rng.uniform(-50, 50, 2)
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])

            def move(p):
                return tuple(rot @ np.asarray(p) + shift)

            rx, ry = move(DEFAULT_LAYOUT.relay[:2])
            moved = NodeLayout(
                s1=move(DEFAULT_LAYOUT.s1), s2=move(DEFAULT_LAYOUT.s2),
                d1=move(DEFAULT_LAYOUT.d1), d2=move(DEFAULT_LAYOUT.d2),
                relay=(rx, ry, DEFAULT_LAYOUT.epsilon),
                d0=DEFAULT_LAYOUT.d0, gamma=DEFAULT_LAYOUT.gamma,
                epsilon=DEFAULT_LAYOUT.epsilon,
            )
            a = layout_to_channel(DEFAULT_LAYOUT, 1, 1, 1, 1, 1, 1)
            b = layout_to_channel(moved, 1, 1, 1, 1, 1, 1)
            for name in ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2"):
                assert abs(getattr(b, name)) == pytest.approx(
                    abs(getattr(a, name)), rel=1e-12
                )


class TestRatePair:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 1.0)
        assert RatePair(1.0, 2.5).sum == pytest.approx(3.5)


class TestRelaySplit:
    @pytest.mark.parametrize("grid_points", [2, 11, 41, 101])
    def test_simplex_grid(self, grid_points):
        grid, i1, i2 = nu_simplex(grid_points)
        assert grid.tolist() == np.linspace(0.0, 1.0, grid_points).tolist()
        pairs = list(zip(grid[i1].tolist(), grid[i2].tolist()))
        # Every pair with nu1 + nu2 <= 1, including (0.3, 0.7)-like sums that
        # round above 1; nu1 in the outer loop.
        assert len(pairs) == grid_points * (grid_points + 1) // 2
        assert pairs == sorted(pairs)
        for nu1, nu2 in pairs:
            check_nu_split(nu1, nu2)

    @pytest.mark.parametrize("nu1, nu2", [(-0.1, 0.5), (0.5, 1.1), (0.6, 0.5),
                                          (float("nan"), 0.0)])
    def test_rejects_bad_split(self, nu1, nu2):
        with pytest.raises(ValueError, match="nu"):
            check_nu_split(nu1, nu2)

    @pytest.mark.parametrize("nu, values", [((0.5, 0.5), [0.5]), ((0.0, 0.0), [0.0]),
                                            ((0.3, 0.6), [0.3, 0.6]), ((1.0, 0.0), [1.0, 0.0])])
    def test_fixed_split_is_one_pair(self, nu, values):
        grid, i1, i2 = nu_simplex(41, nu)
        assert grid.tolist() == values
        assert list(zip(grid[i1].tolist(), grid[i2].tolist())) == [nu]

    @pytest.mark.parametrize("grid_points, nu, message", [
        (1, None, "grid_points must be >= 2, got 1"),
        (1, (0.5, 0.5), "grid_points must be >= 2, got 1"),
        (41, (-1.0, 0.5), r"nu1 must lie in \[0, 1\], got -1.0"),
        (41, (0.5, float("nan")), r"nu2 must lie in \[0, 1\], got nan"),
        (41, (0.6, 0.5), r"nu1 \+ nu2 must be <= 1")])
    def test_table_refuses_bad_grid_or_split(self, grid_points, nu, message):
        with pytest.raises(ValueError, match=message):
            nu_simplex(grid_points, nu)
