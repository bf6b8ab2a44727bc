"""Run workloads over several seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 bench/baseline.py --seeds 1-10 [--workloads history analysis] \\
        [--seconds 20] [--trace 0] [--out bench/baseline.json]

Runs are made one after another, each in its own process. For each
workload and metric the summary gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import machine  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workloads", nargs="+", default=["history", "analysis"])
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    summary: dict = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
                     "seeds": args.seeds, "workloads": {}, "trajectory": [],
                     "per_layer_moves": {name: moves for name, _, _, moves, _ in LAYER_METRICS}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(lines[-1])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if "." not in k), file=sys.stderr)
        summary["workloads"][workload] = {
            "failed": failed, "metrics": {name: summarise(v) for name, v in values.items()},
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            print(f"{workload:10s} {name:40s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.3%} n={s['n']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
