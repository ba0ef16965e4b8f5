"""Command-line front end.

Subcommands:
    defaults  -- emit the frozen default scenario config (JSON)
    rate      -- evaluate one protocol on one channel at given parameters
    optimize  -- per-protocol parameter search on one channel
    map       -- protocol dominance map over relay positions (CSV)
    slice     -- sum-rate slice along x_r at fixed y_r (CSV)
    slmap     -- single- vs bi-level EF comparison map (CSV)
    discrete  -- finite-alphabet rate bounds from a factorization file

All output is deterministic for a fixed config.  Exit status 0 on success,
2 on usage/config errors, 1 on infeasible protocol constraints.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import af, df, ef
from .channel import ChannelBatch, ChannelInstance, RatePair, layout_to_channel
from .discrete import (
    BiLevelFactorization,
    bi_level_bounds,
    load_factorization,
    single_level_bounds,
)
from .errors import ConstraintViolationError, InfeasibleError
from .scenario import (
    OPTIMIZERS,
    PA_SPLITS,
    PROTOCOL_ORDER,
    R0_EXPONENTS,
    UNIFORM_NU,
    ConfigError,
    ScenarioConfig,
    default_config,
    df_point,
    dominance_map,
    ef_bl_point,
    load_config,
    map_to_csv,
    sl_vs_bl_map,
    slmap_to_csv,
    sum_rate_slice,
)


def finite_float(text: str) -> float:
    """argparse type for operating-point numbers: inf and nan are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type for compression noises: > 0, with +inf allowed."""
    value = float(text)
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


# Config fields that a flag overrides: (flag, field, argparse keywords).
_OVERRIDES = (
    ("--pa", "pa_policy", dict(choices=tuple(PA_SPLITS), help="relay power-allocation policy")),
    ("--r0-exponent", "r0_exponent", dict(type=int, choices=R0_EXPONENTS, help="EF-SL bottleneck exponent")),
    ("--resolution", "resolution", dict(type=float, help="sweep resolution, in units of d0")),
)


def _add_config(parser: argparse.ArgumentParser, *flags: str) -> None:
    """``--config`` and the overrides in ``flags`` (all if none), each under its field."""
    parser.add_argument("--config", help="scenario config JSON (default: built-in)")
    for flag, field, kwargs in _OVERRIDES:
        if not flags or flag in flags:
            parser.add_argument(flag, dest=field, **kwargs)


def _add_protocol(parser: argparse.ArgumentParser) -> None:
    # ef-bl / ef-sl are accepted as aliases of ef_bl / ef_sl.
    parser.add_argument("--protocol", required=True, choices=PROTOCOL_ORDER,
                        type=lambda name: name.replace("-", "_"))


def _get_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else default_config()
    return replace(config, **{field: getattr(args, field) for _, field, _ in _OVERRIDES
                              if getattr(args, field, None) is not None})


def _channel_from(config: ScenarioConfig) -> ChannelInstance:
    """The channel with the relay at the config's own ``layout.relay``."""
    return layout_to_channel(config.layout, config.P1, config.P2, config.Pr,
                             config.N1, config.N2, config.Nr)


def _cmd_defaults(args) -> str:
    return json.dumps(_get_config(args).to_dict(), indent=2) + "\n"


def _pair(args, a: str, b: str):
    """The values of two flags that are given together or not at all."""
    x, y = getattr(args, a), getattr(args, b)
    if (x is None) != (y is None):
        raise ValueError(f"--{a} and --{b} must be given together")
    return None if x is None else (x, y)


def _report(protocol: str, pair, point: dict, with_sum: bool) -> str:
    def fmt(v):
        if isinstance(v, tuple):
            return "(" + ", ".join(f"{x:.12g}" for x in v) + ")"
        return v if isinstance(v, str) else f"{v:.12g}"

    lines = [f"protocol: {protocol}"] + [f"{k}: {fmt(v)}" for k, v in point.items()]
    lines += [f"R1: {pair.r1:.12g}", f"R2: {pair.r2:.12g}"]
    lines += [f"sum: {pair.sum:.12g}"] if with_sum else []
    return "\n".join(lines) + "\n"


# The operating-point flags of ``rate`` and the protocols each applies to.
_RATE_FLAGS = {"gain": ("af",), "tau1": ("df",), "tau2": ("df",),
               "nu1": ("df", "ef_bl"), "nu2": ("df", "ef_bl"),
               "nwz1": ("ef_bl",), "nwz2": ("ef_bl",), "nwz": ("ef_sl",)}


def _cmd_rate(args) -> str:
    for flag, protocols in _RATE_FLAGS.items():
        if getattr(args, flag) is not None and args.protocol not in protocols:
            raise ValueError(f"--{flag} does not apply to --protocol {args.protocol}")
    config = _get_config(args)
    channel = _channel_from(config)
    nu = _pair(args, "nu1", "nu2") or UNIFORM_NU
    nwz = _pair(args, "nwz1", "nwz2")
    if args.protocol == "af":
        a_sat = af.saturation_gain(channel)
        gain = a_sat if args.gain is None else args.gain
        # Above a_sat the relay exceeds its power budget; the slack matches
        # ef's noise-bound checks, so a printed a_sat passed back is accepted.
        if gain > a_sat * (1.0 + 1e-9):
            raise InfeasibleError(
                f"gain {gain:.12g} exceeds the saturation gain {a_sat:.12g}"
            )
        pair = RatePair(af.af_rate(channel, gain, 1), af.af_rate(channel, gain, 2))
        point = {"gain": gain}
    elif args.protocol == "df":
        tau = [0.0 if t is None else t for t in (args.tau1, args.tau2)]
        params = df.DfParams(*tau, *nu)
        pair = RatePair(df.df_rate(channel, params, 1), df.df_rate(channel, params, 2))
        point = df_point(params)
    elif args.protocol == "ef_sl":
        r0 = config.r0_exponent
        noise = ef.ef_sl_min_noise(channel, r0) if args.nwz is None else args.nwz
        pair, point = ef.ef_sl_rate(channel, noise, r0), {"nwz": noise}
    elif nwz is None:
        params, scenario, pair = ef.ef_bi_eval(channel, *nu)
        point = ef_bl_point(params, scenario)
    else:
        params = ef.EfBiParams(*nu, *nwz)
        scenario = ef.ef_bi_scenario(channel, *nu)
        pair, point = ef.ef_bi_rate(channel, params, scenario), ef_bl_point(params, scenario)
    return _report(args.protocol, pair, point, with_sum=False)


def _cmd_optimize(args) -> str:
    config = _get_config(args)
    [(pair, point)] = OPTIMIZERS[args.protocol](ChannelBatch.of([_channel_from(config)]), config)
    return _report(args.protocol, pair, point, with_sum=True)


def _cmd_map(args) -> str:
    return map_to_csv(dominance_map(_get_config(args)))


def _cmd_slice(args) -> str:
    return map_to_csv(sum_rate_slice(_get_config(args), args.y))


def _cmd_slmap(args) -> str:
    return slmap_to_csv(sl_vs_bl_map(_get_config(args)))


def _cmd_discrete(args) -> str:
    fact = load_factorization(args.pmf)
    if isinstance(fact, BiLevelFactorization):
        r1, r2, feasible = bi_level_bounds(fact)
        mode = "bi"
    else:
        r1, r2, feasible = single_level_bounds(fact)
        mode = "single"
    return (f"mode: {mode}\nR1_cap: {r1:.12g}\nR2_cap: {r2:.12g}\n"
            f"feasible: {'yes' if feasible else 'no'}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ircrates",
        description="Achievable rates and relay placement maps for the "
        "two-user Gaussian interference relay channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    _add_config(command("defaults", _cmd_defaults, "emit the frozen default config"))

    p = command("rate", _cmd_rate, "evaluate one protocol at fixed parameters")
    _add_config(p, "--r0-exponent")
    _add_protocol(p)
    p.add_argument("--gain", type=finite_float, help="AF relay gain (default: saturation)")
    p.add_argument("--tau1", type=finite_float, help="DF cooperation degree of user 1 (default 0)")
    p.add_argument("--tau2", type=finite_float, help="DF cooperation degree of user 2 (default 0)")
    p.add_argument("--nu1", type=finite_float, help="relay power share of user 1 (with --nu2; default 0.5)")
    p.add_argument("--nu2", type=finite_float, help="relay power share of user 2")
    p.add_argument("--nwz", type=positive_float, help="EF-SL compression noise")
    p.add_argument("--nwz1", type=positive_float,
                   help="EF-BL compression noise for D1 (with --nwz2; default minimal)")
    p.add_argument("--nwz2", type=positive_float, help="EF-BL compression noise for D2")

    p = command("optimize", _cmd_optimize, "per-protocol parameter search")
    _add_config(p, "--pa", "--r0-exponent")
    _add_protocol(p)

    _add_config(command("map", _cmd_map, "dominance map CSV over relay positions"))

    p = command("slice", _cmd_slice, "sum-rate slice CSV along x_r")
    _add_config(p)
    p.add_argument("--y", type=finite_float, default=0.5, help="fixed y_r in units of d0")

    _add_config(command("slmap", _cmd_slmap, "single- vs bi-level EF map CSV"))

    p = command("discrete", _cmd_discrete, "finite-alphabet bounds from a pmf file")
    p.add_argument("--pmf", required=True, help="factorization text file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out_dir = os.path.dirname(args.out or "") or "."
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(out_dir)):
            os.open(args.out, os.O_WRONLY)  # fails now, as open(args.out, "w") would later
        text = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (InfeasibleError, ConstraintViolationError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: the config's values overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
