"""Core data model for the two-user Gaussian interference relay channel.

A channel instance collects the eight complex link gains, the three transmit
powers and the three noise variances of the network

    Y_1 = h11 X_1 + h21 X_2 + hr1 X_r + Z_1
    Y_2 = h22 X_2 + h12 X_1 + hr2 X_r + Z_2
    Y_r = h1r X_1 + h2r X_2 + Z_r

(the relay never hears itself).  Gains produced from geometry are real and
nonnegative (pure path loss), but the type stores complex values so that
hand-specified instances with phases work everywhere: every formula in the
protocol modules only uses Re(.) and |.|.

All rates are in bits per channel use, matching capacity(x) = log2(1 + x).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

__all__ = [
    "ChannelBatch",
    "ChannelInstance",
    "NodeLayout",
    "RatePair",
    "capacity",
    "path_loss_gain",
    "layout_to_batch",
    "layout_to_channel",
]


def capacity(x, out=None):
    """Shannon capacity of a complex AWGN channel at SINR ``x``, in bits.

    Accepts a scalar or a numpy array; an array ``out`` (``x`` itself, say)
    receives the result.  Negative or non-finite input is a domain error (an
    SINR is a ratio of powers).
    """
    x = np.asarray(x, dtype=float)
    # NaN fails both comparisons, and min() and max() propagate it.
    if x.ndim == 0:
        bad = not 0.0 <= float(x) < math.inf
    else:
        bad = x.size > 0 and not (0.0 <= x.min() and x.max() < math.inf)
    if bad:
        raise ValueError(f"SINR must be finite and >= 0, got {x!r}")
    out = np.log2(np.add(1.0, x, out=out), out=out)
    return float(out) if out.ndim == 0 else out


def path_loss_gain(distance: float, d0: float, gamma: float) -> float:
    """Gain magnitude |h| = (d / d0)^(-gamma/2) of a link of length ``distance``."""
    if d0 <= 0:
        raise ValueError(f"reference distance must be positive, got {d0}")
    if distance <= 0:
        raise ValueError(f"link distance must be positive, got {distance}")
    try:
        return (distance / d0) ** (-gamma / 2.0)
    except (OverflowError, ZeroDivisionError):  # the latter where d / d0 underflows to 0
        raise ValueError(
            f"path-loss gain (d / d0)^(-gamma/2) overflows a float at d = {distance:g}, "
            f"d0 = {d0:g}, gamma = {gamma:g}"
        ) from None


_GAINS = ("h11", "h12", "h21", "h22", "h1r", "h2r", "hr1", "hr2")
_POWERS = ("P1", "P2", "Pr", "N1", "N2", "Nr")


class _Links:
    """Accessors by user i in {1, 2}: ``h_*`` link gains, ``g_*`` their |h|^2."""

    def P(self, i: int):
        return (self.P1, self.P2)[_idx(i)]

    def N(self, i: int):
        return (self.N1, self.N2)[_idx(i)]

    def rho(self, i: int):
        """Transmit SNR P_i / N_i of user i."""
        return self.P(i) / self.N(i)

    def h_direct(self, i: int):
        """Gain of the S_i -> D_i link."""
        return self._h(("h11", "h22")[_idx(i)])

    def h_cross(self, i: int):
        """Gain of the interfering S_j -> D_i link (j = other user)."""
        return self._h(("h21", "h12")[_idx(i)])

    def h_to_relay(self, i: int):
        """Gain of the S_i -> relay link."""
        return self._h(("h1r", "h2r")[_idx(i)])

    def h_from_relay(self, i: int):
        """Gain of the relay -> D_i link."""
        return self._h(("hr1", "hr2")[_idx(i)])

    def g_direct(self, i: int):
        return self._g(("h11", "h22")[_idx(i)])

    def g_cross(self, i: int):
        return self._g(("h21", "h12")[_idx(i)])

    def g_to_relay(self, i: int):
        return self._g(("h1r", "h2r")[_idx(i)])

    def g_from_relay(self, i: int):
        return self._g(("hr1", "hr2")[_idx(i)])


# Largest power whose square is a finite float.
_MAX_POWER = math.sqrt(sys.float_info.max)
_OVERFLOWS = f"overflows a float in the rate formulas; the limit is {_MAX_POWER:.6g}"


def _abs(h):
    """|h| as Python's abs gives it, also elementwise (unlike ``np.abs``)."""
    return np.hypot(h.real, h.imag) if isinstance(h, np.ndarray) else abs(h)


def _received(noise: str, *links):
    """Check that a receiver's coherent total of ``links`` ((gain, power)
    fields), squared, plus its ``noise`` is a finite float."""
    def test(c, m):
        amplitude = sum(_abs(getattr(c, h)) * m.sqrt(getattr(c, p)) for h, p in links)
        return amplitude * amplitude + getattr(c, noise) <= _MAX_POWER
    return test


# The channel checks in order, as (test, message) rows: ``test(channel, m)``
# holds where the channel passes, computed with ``math`` on one channel's
# floats or ``np`` elementwise on a batch; a channel fails with its first
# failed row's message, formatted with its fields.  The rate formulas
# multiply two powers (DF's sqrt(tau_i P_i nu_i P_r), EF-BL's receive power
# at D_i times the relay's), so each transmit power, and the coherent total
# of the links into each receiver (no combination of them delivers more),
# must square to a finite float.
_CHECKS = (
    *((lambda c, m, n=n: m.isfinite(getattr(c, n)) & (getattr(c, n) > 0),
       f"{n} must be finite and > 0, got {{{n}}}") for n in _POWERS),
    *((lambda c, m, n=n: m.isfinite(getattr(c, n).real) & m.isfinite(getattr(c, n).imag),
       f"{n} must be finite, got {{{n}}}") for n in _GAINS),
    *((lambda c, m, n=n: getattr(c, n) <= _MAX_POWER, f"{n} = {{{n}:g}} {_OVERFLOWS}")
      for n in ("P1", "P2", "Pr")),
    (_received("N1", ("h11", "P1"), ("h21", "P2"), ("hr1", "Pr")),
     "the power received at D1, |h11|^2 P1 + |h21|^2 P2 + |hr1|^2 Pr + N1, " + _OVERFLOWS),
    (_received("N2", ("h22", "P2"), ("h12", "P1"), ("hr2", "Pr")),
     "the power received at D2, |h22|^2 P2 + |h12|^2 P1 + |hr2|^2 Pr + N2, " + _OVERFLOWS),
    (_received("Nr", ("h1r", "P1"), ("h2r", "P2")),
     "the power received at the relay, |h1r|^2 P1 + |h2r|^2 P2 + Nr, " + _OVERFLOWS),
)


@dataclass(frozen=True)
class ChannelInstance(_Links):
    """One fixed realization of the Gaussian interference relay channel."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex
    h1r: complex
    h2r: complex
    hr1: complex
    hr2: complex
    P1: float
    P2: float
    Pr: float
    N1: float
    N2: float
    Nr: float

    def __post_init__(self):
        for test, message in _CHECKS:
            if not test(self, math):
                raise ValueError(message.format(
                    **{n: getattr(self, n) for n in _POWERS},
                    **{n: complex(getattr(self, n)) for n in _GAINS}))

    def _h(self, name: str) -> complex:
        return complex(getattr(self, name))

    def _g(self, name: str) -> float:
        return abs(self._h(name)) ** 2

    def scaled(self, factor: float) -> "ChannelInstance":
        """All powers and noise variances multiplied by ``factor``."""
        return replace(
            self,
            P1=self.P1 * factor, P2=self.P2 * factor, Pr=self.Pr * factor,
            N1=self.N1 * factor, N2=self.N2 * factor, Nr=self.Nr * factor,
        )


class ChannelBatch(_Links):
    """The channels of a block of cells as one array per field, with the
    accessors of ``ChannelInstance``, so the elementwise kernels take either.

    A field is a sequence over the cells or one value they all share, whose
    |h|^2 is formed once, as one channel forms it: ``abs(h) ** 2`` in Python
    floats (libm pow, which is not always x * x).  All else is elementwise,
    so a cell's results do not depend on its batch.  The maps build one per
    block of at most 64 relay positions (``scenario._MAX_CELLS``).
    """

    def __init__(self, **fields):
        given = {n: np.asarray(fields[n], complex if n in _GAINS else float).reshape(-1)
                 for n in _GAINS + _POWERS}
        given.update({"_g" + n: np.array([_square(abs(h)) for h in given[n].tolist()])
                      for n in _GAINS})  # each |h|^2, as _g reads it
        (cells,) = np.broadcast_shapes(*(v.shape for v in given.values()))
        self.__dict__ = {k: v if len(v) == cells else v.repeat(cells) for k, v in given.items()}

    @classmethod
    def of(cls, channels) -> "ChannelBatch":
        """The batch of a sequence of ``ChannelInstance``."""
        return cls(**{name: [getattr(c, name) for c in channels] for name in _GAINS + _POWERS})

    def __len__(self) -> int:
        return len(self.P1)

    def _h(self, name: str):
        return getattr(self, name)

    def _g(self, name: str):
        return getattr(self, "_g" + name)

    def _map(self, f) -> "ChannelBatch":
        out = object.__new__(ChannelBatch)
        out.__dict__ = {k: f(v) for k, v in self.__dict__.items()}
        return out

    def __getitem__(self, cells: slice) -> "ChannelBatch":
        return self._map(lambda v: v[cells])

    def column(self) -> "ChannelBatch":
        """Every array shaped (cells, 1), to broadcast along a parameter axis."""
        return self._map(lambda v: v.reshape(-1, 1))

    def cell(self, k: int) -> ChannelInstance:
        return ChannelInstance(**{n: getattr(self, n)[k].item() for n in _GAINS + _POWERS})

    def validate(self) -> None:
        """Refuse the batch as ``ChannelInstance`` refuses its first bad cell:
        with the message of that cell's first failed check."""
        with np.errstate(all="ignore"):
            ok = np.array([test(self, np) for test, _ in _CHECKS])
        if not ok.all():
            k = np.argmin(ok.all(axis=0))  # the first bad cell
            message = _CHECKS[np.argmin(ok[:, k])][1]  # its first failed row
            raise ValueError(message.format(**{n: getattr(self, n)[k].item()
                                               for n in _GAINS + _POWERS}))


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:  # a gain that ``validate`` refuses
        return math.inf


def _conj_product(a, b):
    """(Re, Im) of a * conj(b), equal to Python's complex product."""
    return a.real * b.real + a.imag * b.imag, a.imag * b.real - a.real * b.imag


def _idx(i: int) -> int:
    if i not in (1, 2):
        raise ValueError(f"user index must be 1 or 2, got {i}")
    return i - 1


def other(i: int) -> int:
    """The other user's index."""
    return 2 if _idx(i) == 0 else 1


# Slack on nu1 + nu2 <= 1, so that grid pairs such as (0.3, 0.7) stay on the
# simplex despite round-off.
_NU_SLACK = 1e-12


def check_nu_split(nu1: float, nu2: float) -> None:
    """Raise ValueError unless nu1, nu2 lie in [0, 1] with nu1 + nu2 <= 1."""
    for name, v in (("nu1", nu1), ("nu2", nu2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if nu1 + nu2 > 1.0 + _NU_SLACK:
        raise ValueError(f"nu1 + nu2 must be <= 1, got {nu1 + nu2}")


def nu_simplex(grid_points: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform grid g on [0, 1] and the indices (i1, i2) of its relay
    splits (nu1, nu2) = (g[i1], g[i2]) with nu1 + nu2 <= 1, nu1 varying
    slowest."""
    grid = np.linspace(0.0, 1.0, grid_points)
    i1, i2 = np.nonzero(grid[:, None] + grid[None, :] <= 1.0 + _NU_SLACK)
    return grid, i1, i2


@dataclass(frozen=True)
class NodeLayout:
    """Planar positions of the four terminals plus the 3-D relay position.

    The four terminals sit in the z = 0 plane; the relay is lifted to
    z = epsilon so that relay-link distances never vanish when the relay
    passes over a terminal.
    """

    s1: Tuple[float, float]
    s2: Tuple[float, float]
    d1: Tuple[float, float]
    d2: Tuple[float, float]
    relay: Tuple[float, float, float]
    d0: float = 5.0
    gamma: float = 2.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError(f"d0 must be > 0, got {self.d0}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if len(self.relay) != 3:
            raise ValueError("relay position must be (x, y, z)")
        if abs(self.relay[2] - self.epsilon) > 1e-12 * max(1.0, self.epsilon):
            raise ValueError(
                f"relay z-coordinate {self.relay[2]} must equal epsilon {self.epsilon}"
            )

    def with_relay_at(self, x: float, y: float) -> "NodeLayout":
        return replace(self, relay=(x, y, self.epsilon))

    def distances(self) -> dict:
        """All eight link distances, keyed like the corresponding gains.

        Worked in Python floats, so a length too large for a float comes out
        as inf, which ``layout_to_channel`` refuses, without a numpy warning.
        """
        lengths = self._relay_distances(*map(float, self.relay))
        return {**self._planar_distances(), **{k: float(d) for k, d in lengths.items()}}

    def _planar_distances(self) -> dict:
        def planar(a, b):
            return float(np.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1])))

        s1, s2, d1, d2 = self.s1, self.s2, self.d1, self.d2
        return {"h11": planar(s1, d1), "h12": planar(s1, d2),
                "h21": planar(s2, d1), "h22": planar(s2, d2)}

    def _relay_distances(self, x, y, z) -> dict:
        """Relay-link lengths, elementwise over x and y if they are arrays."""
        z = float(z)

        def to_relay(a):
            dx, dy = float(a[0]) - x, float(a[1]) - y
            return np.sqrt(dx * dx + dy * dy + z * z)

        return {"h1r": to_relay(self.s1), "h2r": to_relay(self.s2),
                "hr1": to_relay(self.d1), "hr2": to_relay(self.d2)}


def layout_to_channel(
    layout: NodeLayout,
    P1: float, P2: float, Pr: float,
    N1: float, N2: float, Nr: float,
) -> ChannelInstance:
    """Map geometry to a channel instance through the path-loss model.

    Every gain magnitude is (d / d0)^(-gamma/2) for the Euclidean distance of
    its link; relay links pick up the epsilon lift automatically because the
    relay lives off the terminal plane.  Phases are zero under this model.
    """
    gains = {key: _link_gain(layout, key, d) for key, d in layout.distances().items()}
    return ChannelInstance(P1=P1, P2=P2, Pr=Pr, N1=N1, N2=N2, Nr=Nr, **gains)


def layout_to_batch(layout: NodeLayout, relays, P1, P2, Pr, N1, N2, Nr) -> ChannelBatch:
    """``layout_to_channel`` for each relay position (x, y) of ``relays``
    (lifted to z = epsilon), as one ``ChannelBatch``, validated once: relay
    links elementwise, by the float operations of ``NodeLayout.distances``, and
    a bad one refused as ``layout_to_channel`` refuses the first bad cell."""
    planar = {key: _link_gain(layout, key, d) for key, d in layout._planar_distances().items()}
    x, y = np.array(relays, dtype=float).reshape(-1, 2).T
    with np.errstate(all="ignore"):
        lengths = layout._relay_distances(x, y, layout.epsilon)
        try:
            if not all(((d > 0) & (d < math.inf)).all() for d in lengths.values()):
                raise OverflowError  # a zero or overflowing length: refused below
            cols = {key: [v ** (-layout.gamma / 2.0) for v in (d / layout.d0).tolist()]
                    for key, d in lengths.items()}
        except (OverflowError, ZeroDivisionError):  # the latter where d / d0 underflows
            for k in range(len(x)):
                for key, d in lengths.items():
                    _link_gain(layout, key, d[k].item())
            raise
    batch = ChannelBatch(P1=P1, P2=P2, Pr=Pr, N1=N1, N2=N2, Nr=Nr, **planar, **cols)
    batch.validate()
    return batch


def _link_gain(layout: NodeLayout, key: str, d: float) -> complex:
    if d <= 0:
        raise ValueError(f"link {key} has zero length; separate the nodes or set epsilon > 0")
    if not d < math.inf:
        raise ValueError(f"the length of link {key} overflows a float")
    return complex(path_loss_gain(d, layout.d0, layout.gamma))


@dataclass(frozen=True)
class RatePair:
    """An achievable (R1, R2) point, in bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError(f"rates must be nonnegative, got {self}")

    @property
    def sum(self) -> float:
        return self.r1 + self.r2
