from dataclasses import replace

import numpy as np
import pytest

from ircrates.channel import ChannelInstance


def unit_disc(rng, n=1):
    """Complex samples uniform on the unit disc."""
    r = np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    z = r * np.exp(1j * phi)
    return z[0] if n == 1 else z


def log_uniform(rng, lo=0.1, hi=10.0, n=1):
    v = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return v[0] if n == 1 else v


def random_channel(rng, real_gains=False) -> ChannelInstance:
    """Gains from the unit disc (or its real slice), powers/noises log-uniform."""
    if real_gains:
        gains = rng.uniform(-1, 1, 8) + 0j
    else:
        gains = unit_disc(rng, 8)
    p = log_uniform(rng, n=6)
    return ChannelInstance(
        h11=gains[0], h12=gains[1], h21=gains[2], h22=gains[3],
        h1r=gains[4], h2r=gains[5], hr1=gains[6], hr2=gains[7],
        P1=p[0], P2=p[1], Pr=p[2], N1=p[3], N2=p[4], Nr=p[5],
    )


def symmetric_channel(rng) -> ChannelInstance:
    """Perfectly symmetric instance: equal powers, noises and gain magnitudes."""
    g_dir, g_cross, g_up, g_down = np.abs(unit_disc(rng, 4))
    P = log_uniform(rng)
    Pr = log_uniform(rng)
    N = log_uniform(rng)
    Nr = log_uniform(rng)
    return ChannelInstance(
        h11=g_dir, h22=g_dir, h12=g_cross, h21=g_cross,
        h1r=g_up, h2r=g_up, hr1=g_down, hr2=g_down,
        P1=P, P2=P, Pr=Pr, N1=N, N2=N, Nr=Nr,
    )


def anti_phase_channel(rng) -> ChannelInstance:
    """Complex gains with Re(h_ii h_ri^*) < 0 and Re(h_ji h_ri^*) < 0: the
    coherent terms of the DF numerator and denominator subtract."""
    ch = random_channel(rng)
    gains = {}
    for i, (direct, cross, down) in ((1, ("h11", "h21", "hr1")),
                                     (2, ("h22", "h12", "hr2"))):
        h_ri = getattr(ch, down)
        for name in (direct, cross):
            phase = np.exp(1j * rng.uniform(-1.0, 1.0))  # |angle| < pi / 2
            gains[name] = -rng.uniform(0.1, 1.0) * h_ri * phase
    new = ChannelInstance(**{**ch.__dict__, **gains})
    for i in (1, 2):
        h_ri = new.h_from_relay(i)
        assert (new.h_direct(i) * h_ri.conjugate()).real < 0
        assert (new.h_cross(i) * h_ri.conjugate()).real < 0
    return new


def near_cancelling_channel(rng, noise=(8.0, 18.0), off=None) -> ChannelInstance:
    """A random channel whose relay hears nearly what D_i hears, for a random
    i: (h1r, h2r) = k (h1i, h2i), rounded, for a complex k, and N_i and Nr are
    10^-u (u drawn from ``noise``) of the unit-scale powers, so A V_i -
    |A_i|^2 is about that part of A V_i.  With ``off``, each relay gain is
    then off its multiple by a relative 10^-u (u drawn from ``off``)."""
    ch = random_channel(rng)
    i = int(rng.integers(1, 3))
    k = unit_disc(rng) + 0.5
    wobble = np.zeros(2) if off is None else 10.0 ** -rng.uniform(*off) * unit_disc(rng, 2)
    gains = {f"h{s}r": k * complex(getattr(ch, f"h{s}{i}")) * (1.0 + wobble[s - 1]) for s in (1, 2)}
    n = 10.0 ** -rng.uniform(*noise, 2)
    return replace(ch, **gains, **{f"N{i}": n[0].item(), "Nr": n[1].item()})


def cancelling_config():
    """The default config with the sources (0, 0) and (4, 0) mirrored about
    the line x = 2, which holds both destinations and the relay (2, 1): the
    relay's gains are proportional to each destination's, so A - |A_i|^2 /
    V_i cancels down to round-off (below zero here), though sigma_1^2 is
    3.6e-20 (mpmath).  Unit powers, noises 1e-20, no lift."""
    from ircrates.scenario import default_config

    config = default_config()
    layout = replace(config.layout, s1=(0.0, 0.0), s2=(4.0, 0.0), d1=(2.0, 3.0),
                     d2=(2.0, -5.0), relay=(2.0, 1.0, 0.0), epsilon=0.0)
    return replace(config, layout=layout, P1=1.0, P2=1.0, Pr=1.0,
                   N1=1e-20, N2=1e-20, Nr=1e-20)


def refusal_order_config():
    """The default config with no lift, Pr = 1e154 and the sweep x -0.5 to
    2.0, y -0.5 to 0.0 at 0.5 d0.  In map order the first cell that
    ``channel_at`` refuses is (2.0, -0.5), near D1, where the power received
    at D1 overflows; the zero-length relay links, with the relay on S2 at
    (-0.5, 0.0) and then on S1, come after it."""
    from ircrates.scenario import default_config

    config = default_config()
    layout = replace(config.layout, epsilon=0.0, relay=(0.0, 0.0, 0.0))
    return replace(config, layout=layout, Pr=1e154,
                   x_min=-0.5, x_max=2.0, y_min=-0.5, y_max=0.0, resolution=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240416)
