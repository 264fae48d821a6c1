"""Run every workload, print every metric by name with its unit.

    python3 perfbench/all.py                          # seed 1
    python3 perfbench/all.py --seeds 1-10 --trace     # spread over seeds, plus a traced run
    python3 perfbench/all.py --seeds 1-10 --trace --criteria --out perfbench/baseline.json

Each run is a fresh interpreter running run.py (which fixes the hash seed)
for BENCHMARK.json's run_seconds, the run length the benchmark is judged at.
With several seeds the table shows each metric's median and its spread,
the distance between the quartiles as a share of the median. `--trace`
adds one traced run per workload at the first seed. `--criteria` times the
acceptance criteria C1-C9 once each (report only; nothing gates on them).
`--out` writes everything shown as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("coded-iso", "ef-games", "reduction-oracle", "coding-roundtrip")
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    return {"record": json.loads(record)["record"], **json.loads(result)}


def seeds_arg(text: str) -> list[int]:
    """`lo-hi` or a single seed."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict]) -> dict:
    """Per metric: unit, values, median and quartile spread over the runs;
    plus failed_frac, which is reported but is not a gated metric."""
    out = {}
    names = list(runs[0]["metrics"]) + ["failed_frac"]
    for name in names:
        if name == "failed_frac":
            values, unit = [r["failed"] / r["attempted"] for r in runs], "share"
        else:
            values, unit = [r["metrics"][name]["value"] for r in runs], runs[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        entry = {"unit": unit, "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / median if median else 0.0
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=[1])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--criteria", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report: dict = {"seconds": RUN_SECONDS, "seeds": args.seeds, "workloads": {}}
    correct = True
    for wl in WORKLOADS:
        runs = [run(wl, seed, RUN_SECONDS, 0) for seed in args.seeds]
        correct &= all(r["correct"] for r in runs)
        entry = {"record": runs[0]["record"], "end_to_end": summarize(runs),
                 "wrong": sum(r["record"]["wrong"] for r in runs)}
        print(f"{wl}: {len(runs)} run(s), wrong verdicts {entry['wrong']}, "
              f"tail percentile {runs[0]['record']['tail_percentile']}")
        for name, m in entry["end_to_end"].items():
            spread = f"  spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"  {name:<16} {m['median']:>12.4f} {m['unit']}{spread}")
        if args.trace:
            traced = run(wl, args.seeds[0], RUN_SECONDS, 1)
            correct &= traced["correct"]
            entry["traced"] = {"record": traced["record"], "per_layer": traced["metrics"]}
            for name, m in traced["metrics"].items():
                if m["value"]:
                    print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
        report["workloads"][wl] = entry

    if args.criteria:
        sys.path.insert(0, str(HERE.parent / "src"))
        from structcode import acceptance

        report["criteria"] = {}
        for cid, desc, fn in acceptance.ACCEPTANCE:
            start = time.perf_counter()
            result = fn(acceptance.DEFAULT_SEED)
            wall = time.perf_counter() - start
            report["criteria"][cid] = {"wall_s": wall, "passed": result.passed, "desc": desc}
            print(f"criterion {cid} {'pass' if result.passed else 'FAIL'} {wall:8.2f} s  {desc}")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("all verdicts correct" if correct else "WRONG VERDICTS")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
