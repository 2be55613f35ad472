"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload pipeline --seeds 1-10
    python3 perfbench/spread.py --workload pipeline --seeds 1856286032,311111475

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json. A benchmark is steady when
every spread but that of ``setup_s`` is below a third of its bound. The
runs are appended to ``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    """'1-10' or '1856286032,311111475,...'."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "result": result}) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"{values}", flush=True)

    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:>22}: median {median:.4f} {metric['unit']}, "
              f"spread {spread:.3f} (bound {metric['bound']}, "
              f"a third {metric['bound'] / 3:.3f})")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
