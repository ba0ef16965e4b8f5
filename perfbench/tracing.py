"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public entry points of the ircrates modules from outside
the package: inside ``with tracer.installed():`` each registered attribute of
a module or class is replaced by a wrapper that records a span (name, start,
end, parent, exception), and the original is put back on exit.  Spans stay
in memory; ``summary`` derives per-name calls, busy time, call-time
percentiles and self time from them afterwards.  Spans are timed by
``clock``, which the benchmark sets to a clock that leaves out its own
reference-kernel samples.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        # One [name, start, end, parent index or -1, exception name or None]
        # per span, in call order.
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._names = {}  # registered span names, in order
        self._wrappers = []  # (owner, attribute, original, wrapper)
        self.clock = time.perf_counter

    def span(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span called ``name`` around every call of ``owner.attr``.

        A call made while a span of the same name is open (``ef_sl_rate``
        calling ``ef_sl_min_noise``) is folded into that span, so busy time
        is never counted twice.  ``count(arguments, result)`` returns computed
        counts to add, from the bound call arguments and the return value.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if count else None
        self._names[name] = None
        spans, stack, counts, tracer = self.spans, self._stack, self.counts, self

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = tracer.clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = tracer.clock()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(count(bound.arguments, result))
            return result

        self._wrappers.append((owner, attr, original, wrapper))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` under ``counter``, without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._wrappers.append((owner, attr, original, wrapper))

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._wrappers):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per registered span name: calls, busy and self seconds, median and
        99th-percentile call milliseconds, and the exceptions that left the
        span's module, by type name."""
        covered = [0.0] * len(self.spans)  # time covered by direct children
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
                      "errors": Counter()} for name in self._names}
        for i, (name, start, end, parent, error) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - covered[i]
            entry["durations"].append(end - start)
            # Count exceptions that leave the module: an EF search that
            # catches an EF evaluation's error has not failed.
            if error and (parent < 0 or _module(self.spans[parent][0]) != _module(name)):
                entry["errors"][error] += 1
        for entry in out.values():
            durations = entry.pop("durations")
            for q in (50, 99):
                entry[f"call_ms_p{q}"] = (
                    float(np.percentile(durations, q)) * 1e3 if durations else 0.0)
        return out


def _module(span_name: str) -> str:
    return span_name.split(".")[0]


# -- the ircrates entry points a traced run wraps -----------------------------
#
# Computed counts come from call arguments alone, so they repeat exactly.


def _af_counts(args, result):
    return {"af.scan_points": max(int(args["grid_points"]), 2)}


def _df_counts(args, result):
    # tau grid x nu pairs (one pair when nu is given, else the simplex),
    # then 1 + 21 refinement points per free axis (2 taus, plus 2 nus).
    g = int(args["grid_points"])
    fixed_nu = args["nu"] is not None
    pairs = 1 if fixed_nu else g * (g + 1) // 2
    return {"df.grid_evals": g * g * pairs + (2 if fixed_nu else 4) * 22}


def _ef_counts(args, result):
    g = int(args["grid_points"])
    return {"ef.bi_evals": g * (g + 1) // 2}  # (nu1, nu2) simplex points


def _csv_counts(args, result):
    return {"scenario.csv.bytes": len(result.encode())}


def _table_counts(args, result):
    """Entries and float64 bytes of the joint table the bounds build."""
    fact = args["fact"]
    if hasattr(fact, "p_yh_given"):  # single level: x1 x2 xr y1 y2 yr yh
        entries = fact.p_y_given_x.size * fact.p_yh_given.shape[-1]
    else:  # bi level: x1 x2 u1 u2 xr y1 y2 yr yh1 yh2
        entries = (fact.p_y_given_x.size * fact.p_u1.size * fact.p_u2.size
                   * fact.p_yh1_given.shape[-1] * fact.p_yh2_given.shape[-1])
    return {"discrete.table_entries": entries, "discrete.bytes": 8 * entries}


def ircrates_tracer() -> Tracer:
    from ircrates import af, df, discrete, ef, scenario

    tracer = Tracer()
    # channel_at covers NodeLayout.with_relay_at and layout_to_channel.
    tracer.span(scenario.ScenarioConfig, "channel_at", "channel.build")
    for module in (af, df, ef):
        tracer.count_calls(module, "capacity", "channel.capacity.calls")
    tracer.span(af, "af_sum_rate_gain", "af.sum_rate_gain", count=_af_counts)
    tracer.span(df, "df_sum_rate_search", "df.search", count=_df_counts)
    tracer.span(ef, "ef_bi_eval", "ef.bi_eval")
    tracer.span(ef, "ef_bi_sum_rate_search", "ef.bi_search", count=_ef_counts)
    tracer.span(ef, "ef_sl_min_noise", "ef.sl")
    tracer.span(ef, "ef_sl_rate", "ef.sl")
    tracer.span(scenario, "dominance_map", "scenario.map")
    tracer.span(scenario, "sl_vs_bl_map", "scenario.map")
    tracer.span(scenario, "evaluate_cell", "scenario.cell")
    tracer.span(scenario, "map_to_csv", "scenario.csv", count=_csv_counts)
    tracer.span(scenario, "slmap_to_csv", "scenario.csv", count=_csv_counts)
    tracer.span(discrete, "load_factorization", "discrete.load")
    tracer.span(discrete, "bi_level_bounds", "discrete.bounds", count=_table_counts)
    tracer.span(discrete, "single_level_bounds", "discrete.bounds", count=_table_counts)
    for counter in ("channel.capacity.calls", "af.scan_points", "df.grid_evals",
                    "ef.bi_evals", "scenario.csv.bytes", "discrete.table_entries",
                    "discrete.bytes"):
        tracer.counts[counter] = 0  # reported as 0 where never called
    return tracer
