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
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .errors import ConfigError

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
        wrong = x[~((x >= 0.0) & (x < math.inf))]
        raise ValueError(f"SINR must be finite and >= 0, got {wrong[0].item()!r} "
                         f"({wrong.size} of {x.size} values fail)")
    out = np.log2(np.add(1.0, x, out=out), out=out)
    return float(out) if out.ndim == 0 else out


def path_loss_gain(distance: float, d0: float, gamma: float) -> float:
    """Gain magnitude |h| = (d / d0)^(-gamma/2) of a link of length ``distance``,
    as ``_path_losses`` forms a block's (on a one-element array, not a numpy scalar)."""
    if d0 <= 0:
        raise ValueError(f"reference distance must be positive, got {d0}")
    if distance <= 0:
        raise ValueError(f"link distance must be positive, got {distance}")
    gain = _path_losses(np.array([distance / d0]), gamma)[0].item()
    if not math.isfinite(gain):  # inf where d / d0 underflows to 0, say
        raise ValueError(
            f"path-loss gain (d / d0)^(-gamma/2) overflows a float at d = {distance:g}, "
            f"d0 = {d0:g}, gamma = {gamma:g}"
        )
    return gain


def _path_losses(v: np.ndarray, gamma: float) -> np.ndarray:
    """v^(-gamma/2) of each element of the array ``v`` by numpy's power (at gamma = 2, the
    correctly rounded 1 / v); inf or nan where that overflows, unwarned."""
    with np.errstate(all="ignore"):
        return v ** (-gamma / 2.0)


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
    """|h| as Python's abs gives it, also elementwise (unlike ``np.abs``); inf where
    it overflows, as ``np.hypot`` gives it, so the channel checks can refuse it."""
    if isinstance(h, np.ndarray):
        return np.hypot(h.real, h.imag)
    try:
        return abs(h)
    except OverflowError:  # abs of a complex past the float range raises
        return math.inf


def _square(h):
    """|h|^2 as m * m, m = ``_abs(h)``, elementwise on an array: the one rounding of
    every squared modulus, one channel's or a block's; inf where it overflows."""
    m = _abs(h)
    return m * m


# Each receiver's name, noise field and incoming (gain, power) links.
_RELAY_LINKS = (("h1r", "P1"), ("h2r", "P2"))
_RECEIVERS = (("D1", "N1", (("h11", "P1"), ("h21", "P2"), ("hr1", "Pr"))),
              ("D2", "N2", (("h22", "P2"), ("h12", "P1"), ("hr2", "Pr"))),
              ("the relay", "Nr", _RELAY_LINKS))


def _amplitudes(c, m, links):
    """|h| sqrt(P) of each (gain, power) field pair of ``links``."""
    return [_abs(getattr(c, h)) * m.sqrt(getattr(c, p)) for h, p in links]


def _received(noise: str, links, over_noise=False):
    """Check that a receiver's coherent total of ``links``, squared, plus its
    ``noise`` (or, ``over_noise``, divided by it) is a finite float."""
    def test(c, m):
        amplitude, n = sum(_amplitudes(c, m, links)), getattr(c, noise)
        power = amplitude * amplitude
        return power / n < math.inf if over_noise else power + n <= _MAX_POWER
    return test


def _saturation(c, m):
    """Check that Pr / A, A the relay's receive power, is a finite float."""
    return c.Pr / (sum(a * a for a in _amplitudes(c, m, _RELAY_LINKS)) + c.Nr) < math.inf


def _sums(links) -> str:
    return " + ".join(f"|{h}|^2 {p}" for h, p in links)


# The channel checks in order, as (test, message) rows: ``test(channel, m)``
# holds where the channel passes, computed with ``math`` on one channel's
# floats or ``np`` elementwise on a batch; a channel fails with its first
# failed row's message, formatted with its fields.  The rate formulas
# multiply two powers (DF's sqrt(tau_i P_i nu_i P_r), EF-BL's receive power
# at D_i times the relay's), so each transmit power, and the coherent total
# of the links into each receiver (no combination of them delivers more),
# must square to a finite float.  Every SINR at a receiver is at most that
# total over its noise, and AF's saturation gain squares to Pr over the
# relay's receive power, so these ratios must be finite floats too.  Every
# formula reads |h|^2, so each gain's modulus must square to a float as well.
_CHECKS = (
    *((lambda c, m, n=n: m.isfinite(getattr(c, n)) & (getattr(c, n) > 0),
       f"{n} must be finite and > 0, got {{{n}}}") for n in _POWERS),
    *((lambda c, m, n=n: m.isfinite(getattr(c, n).real) & m.isfinite(getattr(c, n).imag),
       f"{n} must be finite, got {{{n}}}") for n in _GAINS),
    *((lambda c, m, n=n: getattr(c, n) <= _MAX_POWER, f"{n} = {{{n}:g}} {_OVERFLOWS}")
      for n in ("P1", "P2", "Pr")),
    *((_received(noise, links), f"the power received at {name}, {_sums(links)} + {noise}, "
       + _OVERFLOWS) for name, noise, links in _RECEIVERS),
    *((_received(noise, links, over_noise=True), f"the signal-to-noise ratio at {name}, "
       f"({_sums(links)}) / {noise}, overflows a float") for name, noise, links in _RECEIVERS),
    (_saturation, f"the AF saturation gain squared, Pr / ({_sums(_RELAY_LINKS)} + Nr), "
     "overflows a float"),
    *((lambda c, m, n=n: _abs(getattr(c, n)) <= _MAX_POWER,
       f"{n} = {{{n}:g}} {_OVERFLOWS} for |{n}|") for n in _GAINS),
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
        return _square(self._h(name))

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

    A field is a sequence over the cells or one value they all share, kept as one element
    that broadcasts (in a map: the powers, noises and planar gains), with |h|^2 by ``_square``
    as for one channel.  All else is elementwise, so a cell's results do not depend on its
    batch.  The maps build one per block of relay positions (``scenario._block_size``).
    """

    def __init__(self, **fields):
        given = {n: np.asarray(fields[n], complex if n in _GAINS else float).reshape(-1)
                 for n in _GAINS + _POWERS}
        with np.errstate(over="ignore"):  # an inf square is refused by ``validate``
            given.update(("_g" + n, _square(given[n])) for n in _GAINS)
        np.broadcast_shapes(*(v.shape for v in given.values()))  # refuses unequal lengths
        self.__dict__ = given

    @classmethod
    def of(cls, channels) -> "ChannelBatch":
        """The batch of a sequence of ``ChannelInstance``."""
        return cls(**{name: [getattr(c, name) for c in channels] for name in _GAINS + _POWERS})

    def __len__(self) -> int:  # the longest field's, or 0 where one is empty (they broadcast)
        return min(lengths := [len(v) for v in self.__dict__.values()]) and max(lengths)

    def _h(self, name: str):
        return getattr(self, name)

    def _g(self, name: str):
        return getattr(self, "_g" + name)

    def column(self, axes: int = 1) -> "ChannelBatch":
        """Every array shaped (cells, 1, ...), to broadcast along ``axes`` parameter axes."""
        out = object.__new__(ChannelBatch)
        out.__dict__ = {k: v.reshape((-1,) + (1,) * axes) for k, v in self.__dict__.items()}
        return out

    def cell(self, k: int) -> ChannelInstance:  # a shared field is read at its one element
        return ChannelInstance(**{n: np.broadcast_to(getattr(self, n), len(self))[k].item()
                                  for n in _GAINS + _POWERS})

    def validate(self) -> None:
        """Refuse the batch by building its first bad cell, which ``ChannelInstance``
        refuses.  A row of shared fields alone runs once; the rows then broadcast."""
        with np.errstate(all="ignore"):
            ok = np.logical_and.reduce(np.broadcast_arrays(*[t(self, np) for t, _ in _CHECKS]))
        if not ok.all():
            self.cell(np.argmin(ok))


def _conj_product(a, b):
    """(Re, Im) of a * conj(b), equal to Python's complex product."""
    return a.real * b.real + a.imag * b.imag, a.imag * b.real - a.real * b.imag


def _relay_received(channel):
    """A = |h1r|^2 P1 + |h2r|^2 P2 + Nr, the relay's receive power (elementwise)."""
    return channel.g_to_relay(1) * channel.P1 + channel.g_to_relay(2) * channel.P2 + channel.Nr


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

# Relative slack of the checks against a printed bound given back (an EF
# noise's lower bound, the AF saturation gain), so round-off never trips them.
_FEAS_RTOL = 1e-9


def check_nu_split(nu1: float, nu2: float) -> None:
    """Raise ValueError unless nu1, nu2 lie in [0, 1] with nu1 + nu2 <= 1."""
    for name, v in (("nu1", nu1), ("nu2", nu2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if nu1 + nu2 > 1.0 + _NU_SLACK:
        raise ValueError(f"nu1 + nu2 must be <= 1, got {nu1 + nu2}")


def nu_simplex(grid_points: int, nu=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, i1, i2): the relay splits (nu1, nu2) = (v[i1], v[i2]) a search
    covers, checked before it runs.  With no ``nu``, v is the uniform grid of
    ``grid_points`` >= 2 points on [0, 1], paired where nu1 + nu2 <= 1, nu1
    varying slowest; a fixed split ``nu`` is one pair of its distinct values."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if nu is not None:
        check_nu_split(*nu)
        values = np.array(nu[:1] if nu[0] == nu[1] else nu, dtype=float)
        return values, np.array([0]), np.array([len(values) - 1])
    grid = np.linspace(0.0, 1.0, grid_points)
    i1, i2 = np.nonzero(grid[:, None] + grid[None, :] <= 1.0 + _NU_SLACK)
    return grid, i1, i2


def _finite(v) -> bool:
    """A finite real (NaN fails): not a bool, nor an integer beyond float
    range.  A float skips the ABC test, which costs about 1 us a value."""
    return (math.isfinite(v) if type(v) is float else isinstance(v, numbers.Real)
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


# Field checks as (test, message) rows; a value fails with the message of
# its first failed row.
_REAL = ((_finite, "must be a finite number"),)
_POSITIVE = _REAL + ((lambda v: v > 0, "must be > 0"),)


def _point(dim: int) -> tuple:
    return ((lambda v: isinstance(v, (list, tuple)) and len(v) == dim,
             f"must be a list of {dim} numbers"),
            (lambda v: all(map(_finite, v)), "must be a finite number"))


# NodeLayout's fields, in the key order of the config's "layout" object, with
# their check rows: each point with its coordinate count, then the scalars.
_LAYOUT_FIELDS = {"s1": _point(2), "s2": _point(2), "d1": _point(2), "d2": _point(2),
                  "relay": _point(3), "d0": _POSITIVE, "gamma": _POSITIVE,
                  "epsilon": _REAL + ((lambda v: v >= 0, "must be >= 0"),)}


def _check_fields(obj, table: dict, prefix: str = "") -> None:
    """Check each field of ``obj`` that ``table`` names against its rows,
    storing a list (a JSON array) as a tuple."""
    for name, rows in table.items():
        v = getattr(obj, name)
        for test, message in rows:
            if not test(v):
                raise ConfigError(f"{prefix}{name} {message}, got {v!r}")
        if isinstance(v, list):
            object.__setattr__(obj, name, tuple(v))


@dataclass(frozen=True)
class NodeLayout:
    """Planar positions of the four terminals plus the 3-D relay position.

    The four terminals sit in the z = 0 plane; the relay is lifted to
    z = epsilon so that relay-link distances never vanish when the relay
    passes over a terminal.  A bad field raises ConfigError naming it.
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
        _check_fields(self, _LAYOUT_FIELDS, "layout.")
        if abs(self.relay[2] - self.epsilon) > 1e-12 * max(1.0, self.epsilon):
            raise ConfigError(f"layout.relay z-coordinate {self.relay[2]} "
                              f"must equal layout.epsilon {self.epsilon}")

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

    Every gain magnitude is (d / d0)^(-gamma/2) for the Euclidean length of its link (a relay
    link's with the epsilon lift), all eight by one ``_path_losses`` call, as a block's; the
    first bad link in key order is refused.  Phases are zero under this model.
    """
    d = layout.distances()
    gains = _path_losses(np.array([v / layout.d0 for v in d.values()]), layout.gamma)
    if not np.isfinite([*d.values(), *gains]).all():
        for key, length in d.items():
            _link_gain(layout, key, length)
    return ChannelInstance(P1=P1, P2=P2, Pr=Pr, N1=N1, N2=N2, Nr=Nr,
                           **dict(zip(d, gains.astype(complex).tolist())))


def layout_to_batch(layout: NodeLayout, relays, P1, P2, Pr, N1, N2, Nr) -> ChannelBatch:
    """``layout_to_channel`` for each relay position (x, y), a row of the (n, 2) array ``relays``
    (lifted to z = epsilon), as one ``ChannelBatch``: relay links elementwise, by the float
    operations of ``NodeLayout.distances``, their gains by one ``_path_losses`` call on the
    (4, n) ratios d / d0.  A bad batch raises what ``layout_to_channel`` raises at its first bad
    position: where a relay length or gain is not finite, by building each in turn, and only
    then at a bad planar link or by ``ChannelBatch.validate``."""
    x, y = np.asarray(relays, dtype=float).reshape(-1, 2).T
    with np.errstate(all="ignore"):
        lengths = layout._relay_distances(x, y, layout.epsilon)
        d = np.array([*lengths.values()])
        gains = _path_losses(d / layout.d0, layout.gamma)
    if not (np.isfinite(d).all() and np.isfinite(gains).all()):
        for xk, yk in zip(x.tolist(), y.tolist()):
            layout_to_channel(layout.with_relay_at(xk, yk), P1, P2, Pr, N1, N2, Nr)
    planar = {key: _link_gain(layout, key, d) for key, d in layout._planar_distances().items()}
    batch = ChannelBatch(P1=P1, P2=P2, Pr=Pr, N1=N1, N2=N2, Nr=Nr, **planar,
                         **dict(zip(lengths, gains)))
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
