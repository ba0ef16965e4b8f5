"""ircrates benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload map_uniform --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads are defined in ``workloads.py``.  A run:

1. with ``--trace 0``, times ``SETUP_RUNS`` fresh interpreters that each
   import ircrates and build the workload's inputs (``setup_s`` is the
   median);
2. builds the inputs from ``--seed`` and runs a tiny pass to warm up;
3. repeats timed passes until the next one would overrun ``--seconds``
   (half of it with ``--trace 1``); ``wall_s`` is the median pass time in
   reference seconds (see ``Meter``);
4. with ``--trace 1``, repeats passes for the other half with the
   ``tracing.ircrates_tracer`` wrappers installed, and reports per-layer
   metrics per pass;
5. checks the outputs untimed (``checks.py``), and that every pass returned
   the same output as the first.

Stdout ends with two lines of JSON: ``{"info": ...}`` (machine, pass times,
check tallies) and the result object, whose metrics are ``END_TO_END``
(trace 0) or ``PER_LAYER`` (trace 1), each with its unit.  BLAS and OpenMP
pools are pinned to the number of usable CPUs; the benchmark itself runs in
one thread.  ``--smoke`` runs tiny inputs with one set-up run, for the
benchmark's own test (``test_smoke.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 5
REF_S = 0.010  # reference seconds credited to one reference-kernel call
SAMPLE_S = 0.2  # seconds of a pass between two reference-kernel samples

END_TO_END = {"wall_s": "ref_s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "workload.items": "count",
    "failed_frac": "fraction",
    "trace.wall_s": "ref_s",
    "trace.overhead_s": "ref_s",
    "channel.build.calls": "count",
    "channel.build.busy_s": "ref_s",
    "channel.capacity.calls": "count",
    "channel.self_s": "ref_s",
    "af.sum_rate_gain.calls": "count",
    "af.sum_rate_gain.busy_s": "ref_s",
    "af.sum_rate_gain.call_ms_p50": "ref_ms",
    "af.sum_rate_gain.call_ms_p99": "ref_ms",
    "af.scan_points": "count",
    "af.interior_frac": "tally_frac",
    "af.self_s": "ref_s",
    "df.search.calls": "count",
    "df.search.busy_s": "ref_s",
    "df.search.call_ms_p50": "ref_ms",
    "df.search.call_ms_p99": "ref_ms",
    "df.grid_evals": "count",
    "df.self_s": "ref_s",
    "ef.bi_eval.calls": "count",
    "ef.bi_eval.busy_s": "ref_s",
    "ef.sl.calls": "count",
    "ef.sl.busy_s": "ref_s",
    "ef.bi_search.calls": "count",
    "ef.bi_search.busy_s": "ref_s",
    "ef.bi_search.call_ms_p50": "ref_ms",
    "ef.bi_search.call_ms_p99": "ref_ms",
    "ef.bi_evals": "count",
    "ef.infeasible.bl": "tally",
    "ef.infeasible.sl": "tally",
    "ef.scenario.d1_better": "tally",
    "ef.scenario.d2_better": "tally",
    "ef.scenario.neither": "tally",
    "ef.self_s": "ref_s",
    "scenario.self_s": "ref_s",
    "scenario.csv.busy_s": "ref_s",
    "scenario.csv.bytes": "bytes",
    "scenario.winner.af": "tally",
    "scenario.winner.df": "tally",
    "scenario.winner.ef_bl": "tally",
    "scenario.winner.ef_sl": "tally",
    "discrete.load.calls": "count",
    "discrete.load.busy_s": "ref_s",
    "discrete.bounds.calls": "count",
    "discrete.bounds.busy_s": "ref_s",
    "discrete.bounds.call_ms_p50": "ref_ms",
    "discrete.bounds.call_ms_p99": "ref_ms",
    "discrete.table_entries": "count",
    "discrete.bytes": "bytes",
    "discrete.self_s": "ref_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up run")
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Cap native thread pools at the usable CPUs and put ``src`` first on
    the import path, for this process and the set-up probes it starts.
    Must run before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    return threads


def reference_kernel() -> float:
    """Fixed numpy work on 41 x 41 grids, about 10 ms, independent of ircrates."""
    import numpy as np

    grid = np.linspace(0.0, 1.0, 41)
    total = 0.0
    for _ in range(300):
        t = np.meshgrid(grid, grid, indexing="ij")[0]
        total += float(np.max(np.log2(1.0 + np.abs(t * 0.3 + 0.5) ** 2)))
    return total


def _time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Meter:
    """Times one pass in reference seconds, sampling the machine's speed.

    On the shared machines this benchmark runs on, the speed of the same
    code drifts by up to 2x over tens of seconds.  The reference kernel
    slows down in step with ircrates' small-array numpy calls.  So while a
    pass runs, a one-shot wall-clock timer interrupts it every ``SAMPLE_S``
    seconds and the signal handler times the kernel; the pass itself is one
    call of the public API.  Each interval between samples is scaled by
    ``REF_S`` over the mean of the kernel times on either side of it, and
    ``norm_s`` (reference seconds) is the sum.  ``raw_s`` is the plain sum
    of the intervals; kernel time is in neither, and ``clock`` leaves it out
    too, for the tracer's spans.
    """

    def __init__(self):
        self.raw_s = self.norm_s = self.kernel_s = 0.0
        self.ref_s = []
        self._start = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.kernel_s

    def _record(self) -> None:
        end = time.perf_counter()
        self.ref_s.append(_time_reference())
        step = end - self._start
        self.raw_s += step
        self.norm_s += step * REF_S / statistics.fmean(self.ref_s[-2:])
        self._start = time.perf_counter()
        self.kernel_s += self._start - end

    def _on_alarm(self, *_) -> None:
        self._record()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)

    def __enter__(self):
        self.ref_s.append(_time_reference())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._record()


def measure_setup(workload: str, seed: int, smoke: bool) -> list:
    """Wall seconds of fresh interpreters that import ircrates and build the
    workload's inputs.  Not rescaled: start-up and imports are file and
    interpreter work that the reference kernel does not track."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed),
           str(WORK / "setup")] + (["smoke"] if smoke else [])
    times = []
    for _ in range(1 if smoke else SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def timed_passes(run, inputs, budget: float, first=None, tracer=None):
    """Run passes until the next would end after ``budget`` seconds (at
    least one).  Returns the passes' meters, the reference output (``first``,
    or the first pass's) and how many outputs were compared with it and
    differed.  A ``tracer``'s spans are timed by each pass's meter clock.
    """
    meters, compared, differed = [], 0, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        with Meter() as meter:
            if tracer is not None:
                tracer.clock = meter.clock
            output = run(inputs)
        t1 = time.perf_counter()
        meters.append(meter)
        if first is None:
            first = output
        else:
            compared += 1
            differed += output != first
        del output
        if t1 - start + (t1 - t0) > budget:
            return meters, first, compared, differed


def machine_info(threads: int) -> dict:
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": threads}
    try:
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}" + ("d" if level == "1" else "")] = size
    return info


def layer_metrics(tracer, meters) -> dict:
    """Per-pass values of the span-derived ``PER_LAYER`` metrics.  Times are
    scaled by the traced passes' reference-second factor, like ``wall_s``."""
    summary = tracer.summary()
    passes = len(meters)
    scale = sum(m.norm_s for m in meters) / sum(m.raw_s for m in meters)
    per_pass_s = scale / passes
    values = {}
    for name, entry in summary.items():
        values[f"{name}.calls"] = entry["calls"] / passes
        values[f"{name}.busy_s"] = entry["busy_s"] * per_pass_s
        values[f"{name}.call_ms_p50"] = entry["call_ms_p50"] * scale
        values[f"{name}.call_ms_p99"] = entry["call_ms_p99"] * scale
    for module in ("channel", "af", "df", "ef", "discrete"):
        values[f"{module}.self_s"] = per_pass_s * sum(
            e["self_s"] for n, e in summary.items() if n.startswith(module + "."))
    # Runner time not covered by child spans; CSV emission is reported apart.
    values["scenario.self_s"] = per_pass_s * (summary["scenario.map"]["self_s"]
                                              + summary["scenario.cell"]["self_s"])
    for metric, spans in (("ef.infeasible.bl", ("ef.bi_eval", "ef.bi_search")),
                          ("ef.infeasible.sl", ("ef.sl",))):
        values[metric] = sum(
            summary[n]["errors"]["InfeasibleError"] for n in spans) / passes
    for counter, total in tracer.counts.items():
        values[counter] = total / passes
    return values


def _number(x):
    """Whole floats as ints, so exact counts print as counts."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ircrates" / "__init__.py").is_file():
        print(f"error: no ircrates package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    import ircrates

    import checks
    import tracing
    import workloads

    if Path(ircrates.__file__).resolve().parent != (SRC / "ircrates").resolve():
        print(f"error: ircrates imported from {ircrates.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    setup = [] if args.trace else measure_setup(
        args.workload, args.seed, args.smoke)
    inputs = workload.build(args.seed, WORK / "inputs", args.smoke)
    if not args.smoke:
        timed_passes(workload.run, workload.build(args.seed, WORK / "warmup", True), 0)

    budget = args.seconds / 2 if args.trace else args.seconds
    meters, output, compared, differed = timed_passes(workload.run, inputs, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace:
        tracer = tracing.ircrates_tracer()
        with tracer.installed():
            traced, _, t_compared, t_differed = timed_passes(
                workload.run, inputs, budget, first=output, tracer=tracer)
        compared, differed = compared + t_compared, differed + t_differed

    tallies = checks.check(workload.kind, inputs, output, args.seed)
    tallies["passes_match_first"] = (compared, differed)
    attempted = sum(a for a, _ in tallies.values())
    failed = sum(f for _, f in tallies.values())
    items = workload.items(inputs)

    wall = statistics.median(m.norm_s for m in meters)
    if args.trace:
        traced_wall = statistics.median(m.norm_s for m in traced)
        values = layer_metrics(tracer, traced)
        values.update(checks.outcomes(workload.kind, inputs, output))
        values.update({"workload.items": items, "failed_frac": failed / attempted,
                       "trace.wall_s": traced_wall,
                       "trace.overhead_s": traced_wall - wall})
        units = PER_LAYER
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {name: {"value": _number(values[name]), "unit": unit}
               for name, unit in units.items()}

    info = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "item": workload.item, "items_per_pass": items,
            "pass_raw_s": [m.raw_s for m in meters],
            "pass_norm_s": [m.norm_s for m in meters],
            "reference_kernel_s": statistics.median(
                r for m in meters + traced for r in m.ref_s),
            "traced_pass_norm_s": [m.norm_s for m in traced],
            "setup_s_runs": setup,
            "checks": {k: {"attempted": a, "failed": f}
                       for k, (a, f) in tallies.items()},
            "machine": machine_info(threads)}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
