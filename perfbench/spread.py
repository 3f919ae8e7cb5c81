"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload lifecycle --seeds 1-10 [--out spread.json]

Each seed is one sequential run of ``run.py`` with the ``run_seconds`` of
BENCHMARK.json. For every end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound.
This is the steadiness test a benchmark change must pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                                   "bound": metric["bound"], "unit": metric["unit"]}
        print(f"{args.workload} {metric['name']}: median {median:.5g} {metric['unit']}, "
              f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
