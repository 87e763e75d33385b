"""Reproducibility check: exact counters and output digests must not
depend on ``PYTHONHASHSEED``.

    python3 perfbench/repro_check.py [--workloads run_steady,rank_sweep]
                                     [--seed N] [--hash-seeds 1,2]

Runs each workload traced at ``--seconds 1`` (its minimum of two passes,
so the counters are also compared between passes) once per hash seed and
compares every exact counter (iset misses and fast-path counts,
``comm.events``, ``codegen.guard_points``/``src_bytes``/loop counts,
``runtime.messages``/``bytes``, the plan-cache counts, ...) and every
output digest.  Any
difference is reported and makes the exit status 1: drift is a failure,
not noise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("run_steady", "rank_sweep")


def one_run(workload: str, seed: int, hash_seed: str) -> dict:
    out = os.path.join(ROOT, ".perfbench_out",
                       f"repro-{workload}-seed{seed}-hash{hash_seed}.json")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
           "--out", out]
    got = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=900)
    if got.returncode != 0:
        raise RuntimeError(f"{workload} under PYTHONHASHSEED={hash_seed} "
                           f"exited {got.returncode}:\n{got.stderr[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def compare(a: dict, b: dict) -> list:
    drift = []
    for field in ("exact_counters", "output_digests", "inputs_digest"):
        x, y = a[field], b[field]
        if isinstance(x, dict):
            for key in sorted(set(x) | set(y)):
                if x.get(key) != y.get(key):
                    drift.append(f"{field}.{key}: {x.get(key)} != {y.get(key)}")
        elif x != y:
            drift.append(f"{field}: {x} != {y}")
    for rec in (a, b):
        if rec["failed"]:
            drift.append(f"{rec['failed']} failed ops: {rec['failures'][:3]}")
    return drift


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hash-seeds", default="1,2")
    args = p.parse_args(argv)
    hash_seeds = args.hash_seeds.split(",")
    status = 0
    for workload in args.workloads.split(","):
        records = [one_run(workload, args.seed, h) for h in hash_seeds]
        drift = [d for rec in records[1:] for d in compare(records[0], rec)]
        n = len(records[0]["exact_counters"])
        m = len(records[0]["output_digests"])
        if drift:
            status = 1
            print(f"{workload}: DRIFT across PYTHONHASHSEED={args.hash_seeds}")
            for d in drift:
                print(f"  {d}")
        else:
            print(f"{workload}: {n} exact counters and {m} output digests "
                  f"identical across PYTHONHASHSEED={args.hash_seeds}")
    return status


if __name__ == "__main__":
    sys.exit(main())
