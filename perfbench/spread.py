"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload run_steady --seeds 0-9 [--seconds S]

Runs ``run.py`` once per seed (untraced) and prints, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread -- the distance between the quartiles as a share of the
median -- next to a third of the metric's bound from BENCHMARK.json.
``--json PATH`` keeps the per-run values.  Exit status 1 if a run fails
or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float)
    p.add_argument("--json", help="write the per-run metric values here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    runs, status = [], 0
    for seed in seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
        got = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        lines = got.stdout.strip().splitlines()
        if got.returncode != 0 or not lines:
            print(f"seed {seed}: exit {got.returncode}\n{got.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"], **values})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1)
    if len(runs) < 2:
        return 1
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound/3':>7s}")
    for m in spec["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  WIDE"
        print(f"{m['name']:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{spread:7.3f} {m['bound'] / 3:7.3f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
