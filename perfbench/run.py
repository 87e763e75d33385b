"""Benchmark of record for the dHPF reproduction.

    python3 perfbench/run.py --workload run_steady|rank_sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Sets up (imports, seeded inputs, and the
workload's own set-up), then repeats measured passes for about
``--seconds`` seconds, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The full record -- host block, samples and quartiles,
exact counters, output digests, LogGP rows and, when traced, per-layer
self times -- goes to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``;
a traced run also writes its spans next to it.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
#: fresh interpreters that time the imports, and set-ups of the workload;
#: setup_s adds the fastest of each to the input generation
IMPORT_RUNS = 5
SETUP_RUNS = 2
IMPORTS = ("numpy", "repro.codegen", "repro.compile.pool", "repro.parallel",
           "repro.runtime.procexec", "perfbench.workloads")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("run_steady", "rank_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes for about this long (at least two)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file (default under .perfbench_out/)")
    return p.parse_args(argv)


def import_times() -> list:
    """Seconds to import the benchmark's modules, each in a fresh
    interpreter (an in-process figure depends on what is already loaded
    and swings with the page cache)."""
    code = ("import time; t0 = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in IMPORTS)
            + "; print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]))
    out = []
    for _ in range(IMPORT_RUNS):
        got = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(float(got.stdout.strip().splitlines()[-1]))
    return out


def host_block(np_version: str) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np_version,
        "git_commit": commit,
    }


def self_time_report(tr, pass_walls: list) -> dict:
    """Per-layer self time per pass, as a share of the pass wall; the
    ``pass`` span's own self time is the part no layer span covers."""
    n = max(1, len(pass_walls))
    wall = sum(pass_walls) / n
    rows = {
        name: {"self_s": v / n, "share": v / n / wall if wall else 0.0}
        for name, v in sorted(tr.self_times("pass").items(), key=lambda kv: -kv[1])
    }
    uncovered = rows.pop("pass", {"self_s": 0.0, "share": 0.0})
    return {"pass_wall_s": wall, "layers": rows, "uncovered": uncovered}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    # explicit plan caches only: nothing is read or written under $HOME
    os.environ["REPRO_PLAN_CACHE"] = "off"
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tempfile.tempdir = workdir
    try:
        return run(args, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)  # left alone while another run uses it
        except OSError:
            pass


def stop_children() -> None:
    """Stop and wait for every process the run started.  Besides the
    forked workers this is multiprocessing's resource tracker: the first
    shared-memory segment starts it, and it would otherwise outlive the
    run until it notices the closed pipe."""
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for child in mp.active_children():
        child.terminate()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def run(args, workdir: str) -> int:
    import multiprocessing as mp

    import numpy as np

    from perfbench import workloads as wl
    from perfbench.cases import (
        VARIANTS,
        K,
        array_shapes,
        inputs_digest,
        load_refs,
        make_inputs,
    )
    from repro.runtime import procexec

    import_s = import_times()
    variant = args.seed % VARIANTS
    t0 = time.perf_counter()
    refs = load_refs()
    inputs = {c.id: make_inputs(c, variant, array_shapes(c)) for c in K}
    input_s = time.perf_counter() - t0

    ctx = wl.Context(args.seed, variant, bool(args.trace), workdir, refs, inputs)
    workload = wl.WORKLOADS[args.workload](ctx)
    workload_setup_s = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        workload.setup()
        workload_setup_s.append(time.perf_counter() - t0)
    setup_s = min(import_s) + input_s + min(workload_setup_s)
    workload.prepare()

    # a fixed pass count per --seconds, so every run takes the same samples
    passes = max(wl.MIN_PASSES,
                 round(args.seconds / wl.NOMINAL_PASS_S[args.workload]))
    for _ in range(passes):
        with ctx.tr.span("pass", ctx.tr.op()) as sp:
            workload.run_pass()
        ctx.samples["pass_s"].append(sp.elapsed)

    stray = mp.active_children()
    ctx.ledger.attempt("no stray processes", lambda: stray,
                       lambda s: [f"{len(s)} child processes left"] if s else [])
    leaked = procexec.leaked_segments()
    ctx.ledger.attempt("no leaked shared memory", lambda: leaked,
                       lambda s: [f"segments left: {s}"] if s else [])

    e2e = wl.end_to_end(ctx, workload, setup_s)
    layer, tails = wl.per_layer(ctx, workload)
    units = {m["name"]: m["unit"] for m in benchmark_metrics()}
    ledger = ctx.ledger
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": variant,
        "inputs_digest": inputs_digest(inputs),
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_block(np.__version__),
        "runs": 1,
        "passes": len(ctx.samples["pass_s"]),
        "setup": {"import_s": import_s, "inputs_s": input_s,
                  "workload_setup_s": workload_setup_s},
        "samples": dict(ctx.samples),
        "sample_counts": {k: len(v) for k, v in ctx.samples.items()},
        "quartiles": {k: wl.quartiles(v) for k, v in ctx.samples.items()},
        "end_to_end": e2e,
        "per_layer": layer,
        "per_layer_per_pass": dict(ctx.layer),
        "steady_step_p90_percentiles": tails,
        "exact_counters": dict(ctx.exact),
        "output_digests": dict(ctx.outputs),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "details": ctx.details,
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if args.trace:
        record["self_times"] = self_time_report(ctx.tr, ctx.samples["pass_s"])
        untraced = f"{stem}-trace0.json"
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh)["per_layer"]["pass_s"]
            record["trace_overhead_s"] = layer["pass_s"] - base
        ctx.tr.dump(f"{stem}-spans.json")
    out = args.out or f"{stem}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    print_summary(record)
    names = wl.LAYER_METRICS if args.trace else wl.END_TO_END
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


def benchmark_metrics() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"] + spec["per_layer"]


def print_summary(record: dict) -> None:
    h = record["host"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"input_set={record['input_set']} trace={record['trace']} "
          f"passes={record['passes']}")
    print(f"host: {h['nproc']} cpus ({h['cpu_model']}), python {h['python']}, "
          f"numpy {h['numpy']}, commit {h['git_commit']}")
    print(f"inputs sha256 {record['inputs_digest'][:16]}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:16s} {value:.6g}")
    if "self_times" in record:
        st = record["self_times"]
        print(f"self time per pass (wall {st['pass_wall_s']:.3f} s):")
        for name, row in st["layers"].items():
            print(f"  {name:28s} {row['self_s']:9.4f} s {row['share']:7.1%}")
        u = st["uncovered"]
        print(f"  {'(uncovered)':28s} {u['self_s']:9.4f} s {u['share']:7.1%}")
        if "trace_overhead_s" in record:
            print(f"tracing overhead per pass: {record['trace_overhead_s']:+.3f} s")
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed")


if __name__ == "__main__":
    sys.exit(main())
