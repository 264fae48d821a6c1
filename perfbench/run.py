"""Benchmark of the structcode package: one workload, one run.

    python3 perfbench/run.py --workload coded-iso --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): coded-iso, ef-games, reduction-oracle,
coding-roundtrip. The run imports the package from `src/` next to this
directory, builds its instances from `--seed`, and feeds them one at a time
to the package's public functions from this single process (a closed loop
with one caller). Each output is checked by independent code after its
timed call. Work comes in passes of a fixed class mix; the untraced run
times whole passes until `--seconds` have gone by.

Times, end-to-end and per-layer, are given at a reference machine speed. A shared VM's speed drifts
by up to 2x from one second to the next, so a fixed pure-Python kernel,
which calls no package code, is timed between the calls at least every
SPEED_EVERY_S, and each measured time is scaled by KERNEL_REF_S over the
kernel's current time (see Speed). A time of 1 ms is thus 1 ms on a
machine where the kernel takes KERNEL_REF_S. The record holds the
kernel's median time in the run.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The line before it is `{"record": ...}`: Python
version, core count, hash seed, budgets, instance counts per class, and the
percentile behind `verdict_tail_ms`, and the kernel's median time.

--trace 0  end-to-end metrics:
  verdicts_per_s   instances decided correctly per second of timed calls
  verdict_p50_ms   median time per instance
  verdict_tail_ms  p99 of the time per instance, or p90 when fewer than 10
                   instances of a pass lie beyond p99
  setup_s          median of SETUP_REPEATS set-ups: fresh import, first
                   pass's instances, warm-up
  peak_rss_mb      peak resident memory at the end of the timed passes
  An instance that raises counts in `failed`, ranks slowest in the
  percentiles, and is left out of verdicts_per_s.
--trace 1  per-layer metrics (tracing.PER_LAYER): time, calls and failures
  of each package function the workload calls, oracle `holds` queries,
  counts, and the tracing overhead on pass 0 (median traced minus median
  untraced time over OVERHEAD_REPEATS alternations). The traced run does a fixed
  number of passes, round(seconds / the workload's nominal pass time), so
  its counts repeat exactly for a given seed. It writes its spans to
  .perfbench-spans/<workload>-<seed>.jsonl.

The interpreter re-executes itself with PYTHONHASHSEED fixed, since
frozenset iteration order feeds the search's per-node work.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter

HASH_SEED = "0"
SETUP_REPEATS = 9
OVERHEAD_REPEATS = 5
KERNEL_REF_S = 0.0005  # the speed kernel's time at the reference speed
SPEED_EVERY_S = 0.02  # seconds between speed samples
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS = ROOT / ".perfbench-spans"  # where a traced run writes its spans


def _pass_rng(name: str, seed: int, index) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _fresh_workloads():
    """Import the package and the workloads anew, dropping earlier imports."""
    for mod in list(sys.modules):
        if mod == "workloads" or mod.split(".")[0] == "structcode":
            del sys.modules[mod]
    return importlib.import_module("workloads")


def _kernel(n: int = 300) -> int:
    """Fixed pure-Python work that calls no package code: tuples, a set, a
    dict and a generator, the operations the package's own loops are made of."""
    seen = set()
    counts: dict[int, int] = {}
    total = 0
    for i in range(n):
        t = (i % 7, i % 11, i % 13)
        if t not in seen:
            seen.add(t)
        counts[t[0]] = counts.get(t[0], 0) + len(t)
        total += sum(x * y for x, y in zip(t, t[1:]))
    return total


class Speed:
    """The machine's current speed, sampled with `_kernel` between timed calls.

    The speed of a shared VM drifts by up to 2x from one second to the
    next, for package code and kernel alike. `scale()` times the kernel
    when SPEED_EVERY_S have passed since its last sample and returns
    KERNEL_REF_S over the median of the last three kernel times: the factor
    that turns seconds measured now into seconds at the reference speed.
    The kernel runs outside the timed region.
    """

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=3)
        self.samples: list[float] = []
        self.last = -math.inf

    def scale(self) -> float:
        if perf_counter() - self.last >= SPEED_EVERY_S:
            start = perf_counter()
            _kernel()
            self.last = perf_counter()
            self.recent.append(self.last - start)
            self.samples.append(self.last - start)
        return KERNEL_REF_S / statistics.median(self.recent)


def _set_up(name: str, seed: int):
    """Fresh import of the package and the workloads, pass 0's instances and
    the warm-up; returns the workload and pass 0. The garbage of the earlier
    import is collected here, not inside a timed pass."""
    from tracing import Direct

    wl = _fresh_workloads().WORKLOADS[name]
    first = wl.instances(_pass_rng(name, seed, 0))
    for cls, data in wl.warmup(_pass_rng(name, seed, "warmup")):
        wl.run(cls, data, Direct())
    gc.collect()
    return wl, first


def _setup_s(name: str, seed: int, speed: Speed) -> float:
    """Median time of SETUP_REPEATS set-ups, at the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = speed.scale()
        start = perf_counter()
        _set_up(name, seed)
        times.append((perf_counter() - start) * (scale + speed.scale()) / 2)
    return statistics.median(times)


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    lat = sorted(latencies)
    return lat[max(0, math.ceil(q * len(lat)) - 1)]


def tail_quantile(n: int) -> tuple[str, float]:
    """The highest of p99/p90 with at least 10 of n instances beyond it
    (p90 when neither has). n is the pass size, so the percentile stays the
    same when a faster program fits more passes into the run."""
    return ("p99", 0.99) if n - math.ceil(0.99 * n) >= 10 else ("p90", 0.9)


class Tally:
    """Verdict counts, latencies and timed seconds.

    A failed instance ranks as slowest (+inf) in the latency percentiles.
    Times are at the reference speed: each instance's time is scaled by
    `scales[instance]`, the mean of the speed factors before and after it.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.attempted = 0
        self.verdicts = 0
        self.wrong = 0
        self.failed = 0
        self.timed_s = 0.0
        self.classes: dict[str, int] = {}
        self.latencies: list[float] = []
        self.scales: dict[tuple, float] = {}

    def run_pass(self, wl, instances, caller, pass_no=0, check=True) -> float:
        """Time each instance, then check it untimed; return the pass's timed seconds."""
        latencies = []
        pass_s = 0.0
        for i, (cls, data) in enumerate(instances):
            caller.instance = key = (pass_no, i)
            scale = self.speed.scale()
            start = perf_counter()
            try:
                out, error = caller.call("instance", wl.run, cls, data, caller), None
            except Exception:
                out, error = None, traceback.format_exc()
            elapsed = perf_counter() - start
            self.scales[key] = scale = (scale + self.speed.scale()) / 2
            elapsed *= scale
            if error:
                self.failed += 1
                latencies.append(math.inf)
                if self.failed <= 3:
                    print(error, file=sys.stderr)
            else:
                latencies.append(elapsed)
                if check and wl.check(cls, data, out):
                    self.verdicts += 1
                elif check:
                    self.wrong += 1
                    print(f"wrong verdict: pass {pass_no} instance {i} ({cls}): {data!r}",
                          file=sys.stderr)
            self.classes[cls] = self.classes.get(cls, 0) + 1
            pass_s += elapsed
        self.timed_s += pass_s
        self.attempted += len(latencies)
        self.latencies += latencies
        return pass_s


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    sys.path.insert(0, str(SRC))
    try:
        import structcode
    except ImportError:
        print(f"error: the structcode package is not in {SRC}", file=sys.stderr)
        return 2
    if not Path(structcode.__file__).resolve().is_relative_to(SRC):
        print(f"error: structcode was imported from {structcode.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from tracing import PER_LAYER, Direct, Tracer, layer_metrics

    names = list(_fresh_workloads().WORKLOADS)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    speed = Speed()
    tally = Tally(speed)
    passes = 0
    record: dict = {}
    if args.trace:
        # Overhead: pass 0 alternately untraced and traced (into a throwaway
        # tracer), each after its own fresh set-up so that both meet the
        # package's caches in the same state; medians of OVERHEAD_REPEATS
        # each, as the machine's speed drifts too much for a single pair.
        untraced, traced = [], []
        for _ in range(OVERHEAD_REPEATS):
            for caller, times in ((Direct(), untraced), (Tracer(), traced)):
                times.append(Tally(speed).run_pass(*_set_up(args.workload, args.seed), caller,
                                                   check=False))
        untraced_s = statistics.median(untraced)
        wl, first = _set_up(args.workload, args.seed)
        passes = max(1, round(args.seconds / wl.pass_s))
        overhead = statistics.median(traced) - untraced_s
        tracer = Tracer()
        classes: dict = {}
        for p in range(passes):
            instances = first if p == 0 else wl.instances(_pass_rng(wl.name, args.seed, p))
            classes.update(((p, i), cls) for i, (cls, _) in enumerate(instances))
            tally.run_pass(wl, instances, tracer, p)
        values = layer_metrics(tracer, classes, tally.scales)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / untraced_s
        record.update(untraced_pass0_s=untraced, traced_pass0_s=traced)
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER}
        SPANS.mkdir(exist_ok=True)
        tracer.dump(SPANS / f"{wl.name}-{args.seed}.jsonl")
    else:
        setup_s = _setup_s(args.workload, args.seed, speed)
        wl, first = _set_up(args.workload, args.seed)
        instances = first
        end = perf_counter() + args.seconds
        while True:
            tally.run_pass(wl, instances, Direct(), pass_no=passes)
            passes += 1
            if perf_counter() >= end:
                break
            instances = wl.instances(_pass_rng(wl.name, args.seed, passes))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail_q = tail_quantile(len(first))[1]
        metrics = {
            "verdicts_per_s": _metric(tally.verdicts / tally.timed_s, "1/s"),
            "verdict_p50_ms": _metric(percentile(tally.latencies, 0.5) * 1000, "ms"),
            "verdict_tail_ms": _metric(percentile(tally.latencies, tail_q) * 1000, "ms"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    per_pass = len(first)
    record.update(
        workload=wl.name, seed=args.seed, trace=args.trace,
        python=platform.python_version(), nproc=os.cpu_count(), hash_seed=HASH_SEED,
        budgets=wl.budgets, passes=passes, instances=tally.attempted, per_pass=per_pass,
        tail_percentile=tail_quantile(per_pass)[0],
        tail_beyond_per_pass=per_pass - math.ceil(tail_quantile(per_pass)[1] * per_pass),
        classes=tally.classes,
        class_shares={k: v / tally.attempted for k, v in tally.classes.items()},
        timed_s=tally.timed_s, kernel_ref_s=KERNEL_REF_S,
        kernel_median_s=statistics.median(speed.samples), speed_samples=len(speed.samples),
        failed_frac=tally.failed / tally.attempted, wrong=tally.wrong,
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
