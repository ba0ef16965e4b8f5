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
import sys

from . import af, df, ef
from .discrete import (
    BiLevelFactorization,
    bi_level_bounds,
    load_factorization,
    single_level_bounds,
)
from .errors import ConstraintViolationError, InfeasibleError
from .scenario import (
    ConfigError,
    ScenarioConfig,
    default_config,
    dominance_map,
    load_config,
    map_to_csv,
    sl_vs_bl_map,
    slmap_to_csv,
    sum_rate_slice,
)

PROTOCOL_CHOICES = ("af", "df", "ef-sl", "ef-bl")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario config JSON (default: built-in)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--pa", choices=("uniform", "optimal"),
                        help="relay power-allocation policy override")
    parser.add_argument("--r0-exponent", type=int, choices=(1, 2), dest="r0_exponent",
                        help="single-level bottleneck constraint exponent")
    parser.add_argument("--resolution", type=float,
                        help="sweep resolution override, in units of d0")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized utilities (unused by paper runs)")


def _get_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else default_config()
    overrides = {}
    if getattr(args, "pa", None) is not None:
        overrides["pa_policy"] = args.pa
    if getattr(args, "r0_exponent", None) is not None:
        overrides["r0_exponent"] = args.r0_exponent
    if getattr(args, "resolution", None) is not None:
        overrides["resolution"] = args.resolution
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


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


def _cmd_rate(args) -> int:
    config = _get_config(args)
    channel = _channel_from(config)
    lines = [f"protocol: {args.protocol}"]
    if args.protocol == "af":
        gain = args.gain if args.gain is not None else af.saturation_gain(channel)
        r1 = af.af_rate(channel, gain, 1)
        r2 = af.af_rate(channel, gain, 2)
        lines += [f"gain: {gain:.12g}", f"R1: {r1:.12g}", f"R2: {r2:.12g}"]
    elif args.protocol == "df":
        params = df.DfParams(tau1=args.tau1, tau2=args.tau2, nu1=args.nu1, nu2=args.nu2)
        r1, r2 = df.df_rate(channel, params, 1), df.df_rate(channel, params, 2)
        lines += [
            f"tau: ({params.tau1:.12g}, {params.tau2:.12g})",
            f"nu: ({params.nu1:.12g}, {params.nu2:.12g})",
            f"R1: {r1:.12g}", f"R2: {r2:.12g}",
        ]
    elif args.protocol == "ef-sl":
        nwz = args.nwz if args.nwz is not None else ef.ef_sl_min_noise(
            channel, config.r0_exponent
        )
        pair = ef.ef_sl_rate(channel, nwz, config.r0_exponent)
        lines += [f"nwz: {nwz:.12g}", f"R1: {pair.r1:.12g}", f"R2: {pair.r2:.12g}"]
    else:  # ef-bl
        nu1 = args.nu1 if args.nu1 is not None else 0.5
        nu2 = args.nu2 if args.nu2 is not None else 0.5
        scenario = ef.ef_bi_scenario(channel, nu1, nu2)
        if args.nwz1 is not None and args.nwz2 is not None:
            params = ef.EfBiParams(nu1=nu1, nu2=nu2, nwz1=args.nwz1, nwz2=args.nwz2)
            pair = ef.ef_bi_rate(channel, params, scenario)
        else:
            params, scenario, pair = ef.ef_bi_eval(channel, nu1, nu2)
        lines += [
            f"nu: ({params.nu1:.12g}, {params.nu2:.12g})",
            f"nwz: ({params.nwz1:.12g}, {params.nwz2:.12g})",
            f"scenario: {scenario.value}",
            f"R1: {pair.r1:.12g}", f"R2: {pair.r2:.12g}",
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_optimize(args) -> int:
    config = _get_config(args)
    channel = _channel_from(config)
    lines = [f"protocol: {args.protocol}"]
    if args.protocol == "af":
        gain, pair = af.af_sum_rate_gain(channel)
        lines += [f"gain: {gain:.12g}"]
    elif args.protocol == "df":
        nu = (0.5, 0.5) if config.pa_policy == "uniform" else None
        params, pair = df.df_sum_rate_search(channel, grid_points=config.df_grid, nu=nu)
        lines += [
            f"tau: ({params.tau1:.12g}, {params.tau2:.12g})",
            f"nu: ({params.nu1:.12g}, {params.nu2:.12g})",
        ]
    elif args.protocol == "ef-sl":
        nwz = ef.ef_sl_min_noise(channel, config.r0_exponent)
        pair = ef.ef_sl_rate(channel, nwz, config.r0_exponent)
        lines += [f"nwz: {nwz:.12g}"]
    else:
        if config.pa_policy == "uniform":
            params, scenario, pair = ef.ef_bi_eval(channel, 0.5, 0.5)
        else:
            params, scenario, pair = ef.ef_bi_sum_rate_search(
                channel, grid_points=config.ef_grid
            )
        lines += [
            f"nu: ({params.nu1:.12g}, {params.nu2:.12g})",
            f"nwz: ({params.nwz1:.12g}, {params.nwz2:.12g})",
            f"scenario: {scenario.value}",
        ]
    lines += [f"R1: {pair.r1:.12g}", f"R2: {pair.r2:.12g}",
              f"sum: {pair.sum:.12g}"]
    _emit("\n".join(lines) + "\n", args.out)
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
    p.add_argument("--protocol", choices=PROTOCOL_CHOICES, required=True)
    p.add_argument("--gain", type=float, help="AF relay gain (default: saturation)")
    p.add_argument("--tau1", type=float, default=0.0)
    p.add_argument("--tau2", type=float, default=0.0)
    p.add_argument("--nu1", type=float)
    p.add_argument("--nu2", type=float)
    p.add_argument("--nwz", type=float, help="EF-SL compression noise")
    p.add_argument("--nwz1", type=float, help="EF-BL compression noise for D1")
    p.add_argument("--nwz2", type=float, help="EF-BL compression noise for D2")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("optimize", help="per-protocol parameter search")
    _add_common(p)
    p.add_argument("--protocol", choices=PROTOCOL_CHOICES, required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("map", help="dominance map CSV over relay positions")
    _add_common(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("slice", help="sum-rate slice CSV along x_r")
    _add_common(p)
    p.add_argument("--y", type=float, default=0.5, help="fixed y_r in units of d0")
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
