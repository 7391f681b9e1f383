"""Run the benchmark on several seeds and summarise each metric by its quartiles.

    python3 perfbench/repeat.py --seeds 1-10 --workloads check-grid suite --out perfbench/out/set1.json

For every workload and end-to-end metric (per-layer metrics with
``--trace 1``) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="range lo-hi or comma list")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        report[workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<48} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {spread}" + (f" (bound {bound})" if bound is not None else ""))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
