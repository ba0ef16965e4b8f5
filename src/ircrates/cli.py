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
import sys
from dataclasses import replace

from . import af, df, ef
from .channel import RatePair
from .discrete import (
    BiLevelFactorization,
    bi_level_bounds,
    load_factorization,
    single_level_bounds,
)
from .errors import ConstraintViolationError, InfeasibleError
from .scenario import (
    OPTIMIZERS,
    PROTOCOL_ORDER,
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario config JSON (default: built-in)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--pa", choices=("uniform", "optimal"),
                        help="relay power-allocation policy override")
    parser.add_argument("--r0-exponent", type=int, choices=(1, 2), dest="r0_exponent",
                        help="single-level bottleneck constraint exponent")
    parser.add_argument("--resolution", type=float,
                        help="sweep resolution override, in units of d0")


def _add_protocol(parser: argparse.ArgumentParser) -> None:
    # ef-bl / ef-sl are accepted as aliases of ef_bl / ef_sl.
    parser.add_argument("--protocol", required=True, choices=PROTOCOL_ORDER,
                        type=lambda name: name.replace("-", "_"))


def _get_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else default_config()
    overrides = {field: getattr(args, flag) for field, flag in (
        ("pa_policy", "pa"), ("r0_exponent", "r0_exponent"), ("resolution", "resolution")
    ) if getattr(args, flag) is not None}
    return replace(config, **overrides) if overrides else config


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _channel_from(config: ScenarioConfig):
    relay = config.layout.relay
    return config.channel_at(relay[0] / config.layout.d0, relay[1] / config.layout.d0)


def _cmd_defaults(args) -> int:
    _emit(json.dumps(_get_config(args).to_dict(), indent=2) + "\n", args.out)
    return 0


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


def _cmd_rate(args) -> int:
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
    _emit(_report(args.protocol, pair, point, with_sum=False), args.out)
    return 0


def _cmd_optimize(args) -> int:
    config = _get_config(args)
    pair, point = OPTIMIZERS[args.protocol](_channel_from(config), config)
    _emit(_report(args.protocol, pair, point, with_sum=True), args.out)
    return 0


def _cmd_map(args) -> int:
    _emit(map_to_csv(dominance_map(_get_config(args))), args.out)
    return 0


def _cmd_slice(args) -> int:
    _emit(map_to_csv(sum_rate_slice(_get_config(args), args.y)), args.out)
    return 0


def _cmd_slmap(args) -> int:
    _emit(slmap_to_csv(sl_vs_bl_map(_get_config(args))), args.out)
    return 0


def _cmd_discrete(args) -> int:
    fact = load_factorization(args.pmf)
    if isinstance(fact, BiLevelFactorization):
        r1, r2, feasible = bi_level_bounds(fact)
        mode = "bi"
    else:
        r1, r2, feasible = single_level_bounds(fact)
        mode = "single"
    _emit(
        f"mode: {mode}\nR1_cap: {r1:.12g}\nR2_cap: {r2:.12g}\n"
        f"feasible: {'yes' if feasible else 'no'}\n",
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ircrates",
        description="Achievable rates and relay placement maps for the "
        "two-user Gaussian interference relay channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defaults", help="emit the frozen default config")
    _add_common(p)
    p.set_defaults(func=_cmd_defaults)

    p = sub.add_parser("rate", help="evaluate one protocol at fixed parameters")
    _add_common(p)
    _add_protocol(p)
    p.add_argument("--gain", type=finite_float, help="AF relay gain (default: saturation)")
    p.add_argument("--tau1", type=finite_float, help="DF cooperation degree of user 1 (default 0)")
    p.add_argument("--tau2", type=finite_float, help="DF cooperation degree of user 2 (default 0)")
    p.add_argument("--nu1", type=finite_float, help="relay power share of user 1 (with --nu2; default 0.5)")
    p.add_argument("--nu2", type=finite_float, help="relay power share of user 2")
    p.add_argument("--nwz", type=float, help="EF-SL compression noise")
    p.add_argument("--nwz1", type=float,
                   help="EF-BL compression noise for D1 (with --nwz2; default minimal)")
    p.add_argument("--nwz2", type=float, help="EF-BL compression noise for D2")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("optimize", help="per-protocol parameter search")
    _add_common(p)
    _add_protocol(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("map", help="dominance map CSV over relay positions")
    _add_common(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("slice", help="sum-rate slice CSV along x_r")
    _add_common(p)
    p.add_argument("--y", type=finite_float, default=0.5, help="fixed y_r in units of d0")
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("slmap", help="single- vs bi-level EF map CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_slmap)

    p = sub.add_parser("discrete", help="finite-alphabet bounds from a pmf file")
    _add_common(p)
    p.add_argument("--pmf", required=True, help="factorization text file")
    p.set_defaults(func=_cmd_discrete)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, ConstraintViolationError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
