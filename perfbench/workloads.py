"""The two workloads: run_steady and rank_sweep.

Each workload is a closed loop run by one client: every operation starts
when the previous one returns.  The only concurrency is the 2 ranks of
the process executor and the 2 workers of the compile pool.  A workload
has a ``setup`` (timed as ``setup_s``) and a ``run_pass``; ``run.py``
repeats passes for the run's ``--seconds``.

Every workload measures every end-to-end metric on its own subject, from
the fastest sample per kernel or rank count:

- ``compile_s``  sum of the cold compiles of the workload's kernels;
- ``first_run_s`` geomean over those kernels of the time to first result;
- ``steady_step_s`` geomean over them of the steady run.

The pass wall (``pass_s``), the workload-specific totals (``sweep_s``,
``solver_s``, ...) and the layer numbers are per-layer metrics
(``LAYER_METRICS``); one that a workload does not exercise reads 0.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pickle
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import nullcontext

from perfbench.cases import (
    CASES,
    K,
    WILDCARD_BASE,
    WILDCARD_PARAMS,
    OutputCheck,
    digest,
    wildcard_source,
)
from perfbench.tracing import Tracer

#: steady VM and shmem runs per kernel and pass in run_steady (more runs
#: for the fast kernels; Fig 6.1's scalar wavefront loop takes ~0.25 s)
STEADY_RUNS = {"sp_rhs_S": 60, "bt_rhs_S": 30, "sp_exact_rhs_S": 20,
               "fig6_1_xsolve": 5}
FIRST_RUNS = 2  # fresh kernels per kernel and pass in run_steady
PROC_RUNS = 6  # process-executor runs per run_steady pass
SWEEP_PROCS = (2, 4, 9, 16)
SWEEP_STEADY_RUNS = 15  # steady run_shmem per rank count in rank_sweep
WARM_ROUNDS = 2  # warm-cache passes over SWEEP_PROCS per rank_sweep pass
POOL_WORKERS = 2
PROC_RANKS = 2
SOLVERS = (("virtual", 4), ("process", 2))
TAIL_SAMPLES = 10  # samples required beyond the tail percentile

#: nominal seconds of one pass on a 2-core host; ``run.py`` makes
#: round(--seconds / nominal) passes, at least MIN_PASSES so that the
#: exact counters and output digests are always compared between passes
NOMINAL_PASS_S = {"run_steady": 12.0, "rank_sweep": 17.0}
MIN_PASSES = 2

END_TO_END = ("setup_s", "compile_s", "first_run_s", "steady_step_s",
              "success_rate", "peak_rss_mb")

#: every per-layer metric, in output order (README.md says which
#: end-to-end metric each one moves, on which workload)
LAYER_METRICS = (
    # the pass wall, and workload totals that only one workload exercises
    "pass_s", "shmem_step_s", "proc_step_s", "solver_s", "tables_s", "sweep_s",
    "warm_hit_s", "pool_batch_s", "steady_step_p90_s", "error_rate",
    # compiler stages
    "frontend.parse_s",
    "cp.select_s", "cp.select_empty_misses", "cp.select_constraint_misses",
    "cp.select_fallbacks",
    "comm.specialize_s", "comm.specialize_empty_misses",
    "comm.specialize_enum_scan", "comm.specialize_enum_fast", "comm.events",
    "codegen.codegen_s", "codegen.src_bytes", "codegen.vector_loops",
    "codegen.scalar_loops",
    "isets.constraint_hit_rate", "isets.empty_hit_rate", "isets.empty_fast",
    "isets.enum_scan",
    # first run
    "codegen.bind_s", "codegen.guard_points",
    *(f"codegen.bind_s.{c.id}" for c in K),
    *(f"codegen.guard_points.{c.id}" for c in K),
    *(f"codegen.bind_s.P{p}" for p in SWEEP_PROCS),
    *(f"codegen.guard_points.P{p}" for p in SWEEP_PROCS),
    "codegen.exec_s", "codegen.cover_s",
    # steady run
    *(f"runtime.vm_step_s.{c.id}" for c in K),
    *(f"runtime.shmem_step_s.{c.id}" for c in K),
    "runtime.comm_s", "runtime.compute_s", "runtime.messages",
    "runtime.bytes",
    "runtime.proc_step_s", "runtime.proc_restarts", "runtime.proc_fallbacks",
    # LogGP cross-check (static cost analyzer next to the VM trace)
    "check.predicted_messages", "check.predicted_bytes",
    "check.predicted_time_s", "check.modeled_time_s", "check.count_mismatches",
    # paper tables path
    "parallel.dhpf_sp_s", "parallel.dhpf_bt_s", "parallel.table_8_1_s",
    "parallel.table_8_2_s",
    # plan cache and compile pool
    "compile.cache_get_s", "compile.cache_put_s", "compile.cache_hits",
    "compile.cache_misses", "compile.cache_select_hits", "compile.cache_bytes",
    "compile.pool_jobs", "compile.pool_retries", "compile.pool_spawns",
)

#: per-layer counters that must repeat exactly across passes, runs and
#: PYTHONHASHSEED values (drift is a failed operation, not noise)
EXACT = (
    "cp.select_empty_misses", "cp.select_constraint_misses",
    "cp.select_fallbacks", "comm.specialize_empty_misses",
    "comm.specialize_enum_scan", "comm.specialize_enum_fast", "comm.events",
    "codegen.src_bytes", "codegen.vector_loops", "codegen.scalar_loops",
    "isets.constraint_hit_rate", "isets.empty_hit_rate", "isets.empty_fast",
    "isets.enum_scan", "codegen.guard_points",
    *(m for m in LAYER_METRICS if m.startswith("codegen.guard_points.")),
    "runtime.messages", "runtime.bytes", "check.predicted_messages",
    "check.predicted_bytes", "check.count_mismatches",
    "compile.cache_hits", "compile.cache_misses", "compile.cache_select_hits",
    "compile.pool_jobs",
)

_ISET_KEYS = ("empty_misses", "constraint_misses", "enum_scan", "enum_fast")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_quantile(samples: list) -> "tuple[float, float]":
    """(q, value): the highest percentile at most p90 that leaves
    ``TAIL_SAMPLES`` samples beyond it, never below the median."""
    n = len(samples)
    q = max(0.5, min(0.9, 1.0 - TAIL_SAMPLES / n))
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Ledger:
    """Attempted and failed operations.  An op fails if it raises, if its
    check reports a problem, or if an exact counter drifts."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn, check=None):
        """Run one untimed op; returns its value, or None if it raised."""
        got = self.timed(what, "op", fn, check)
        return None if got is None else got[1]

    def timed(self, what: str, span: str, fn, check=None):
        """Run one op under a span around *fn* alone (the check runs after
        the span closes).  Returns (seconds, value), or None if it raised."""
        self.attempted += 1
        try:
            with self.tr.span(span, self.tr.op()) as sp:
                value = fn()
        except Exception as exc:  # a failed op is counted; the run goes on
            self._fail(what, f"{type(exc).__name__}: {exc}",
                       traceback.format_exc())
            return None
        problems = check(value) if check is not None else ()
        if problems:
            self._fail(what, "; ".join(problems))
        return sp.elapsed, value

    def drift(self, what: str, first, value) -> None:
        """An exact counter or output digest changed between passes."""
        self.attempted += 1
        self._fail(what, f"drifted from {first} to {value} between passes")

    def _fail(self, what: str, why: str, tb: str = "") -> None:
        self.failed += 1
        self.failures.append(f"{what}: {why}")
        print(f"perfbench: FAILED {what}: {why}\n{tb}", end="", file=sys.stderr)


class Context:
    """State shared by a run's setup and passes."""

    def __init__(self, seed: int, variant: int, trace: bool, workdir: str,
                 refs: dict, inputs: dict):
        self.seed = seed
        self.variant = variant
        self.tr = Tracer(trace)
        self.traced = trace
        self.workdir = workdir
        self.refs = refs
        self.inputs = inputs  # case id -> {array: ndarray}
        self.ledger = Ledger(self.tr)
        self.samples: dict = defaultdict(list)  # end-to-end raw samples
        self.layer: dict = defaultdict(list)  # per-layer value per pass
        self.exact: dict = {}  # exact counter -> first pass value
        self.outputs: dict = {}  # output digests (reproducibility check)
        self.details: dict = {}  # extra rows for the result file
        self._inlined: dict = {}
        self._checks: dict = {}

    def compile_input(self, case):
        """The compiler's input for *case*.  Inlined kernels are inlined
        once per run and handed out as deep copies: ``inline_calls`` names
        its temporaries from a process-wide counter, so re-inlining would
        make every compile emit different names."""
        if not case.inline:
            return case.source()
        if case.id not in self._inlined:
            self._inlined[case.id] = case.program().get(case.unit)
        return copy.deepcopy(self._inlined[case.id])

    def output_check(self, key: str, kernel, cid: str) -> OutputCheck:
        """The serial-digest check of case *cid* for the kernel
        configuration *key*, built once per run (its owned-element masks
        depend only on the kernel's distribution)."""
        if key not in self._checks:
            self._checks[key] = OutputCheck(kernel, self.serial_ref(cid))
        return self._checks[key]

    def serial_ref(self, cid: str) -> dict:
        return self.refs["serial"][cid][self.variant]

    def init_mpi(self, cid: str):
        data = self.inputs[cid]

        def init(rid, A):
            for name, arr in data.items():
                A[name].data[:] = arr

        return init

    def init_shared(self, cid: str):
        data = self.inputs[cid]

        def init(A):
            for name, arr in data.items():
                A[name].data[:] = arr

        return init

    def record_pass(self, layer: dict) -> None:
        """Store one pass's per-layer values; exact counters must repeat."""
        for name in LAYER_METRICS:
            value = layer.get(name, 0)
            self.layer[name].append(value)
            if name not in EXACT:
                continue
            first = self.exact.setdefault(name, value)
            if first != value:
                self.ledger.drift(f"exact counter {name}", first, value)

    def record_output(self, key: str, value: str) -> None:
        first = self.outputs.setdefault(key, value)
        if first != value:
            self.ledger.drift(f"output {key}", first, value)


def _mismatch(kind: str, bad: list) -> list:
    return [f"{kind} output differs from serial on {', '.join(bad)}"] if bad else []


def _iset_snapshot():
    from repro.isets import cache_stats

    return cache_stats().snapshot()


def _iset_rates(layer: dict, before: dict) -> None:
    """Iset cache hit rates and fast-path counts since *before*."""
    now = _iset_snapshot()
    d = {k: now[k] - before.get(k, 0) for k in now}
    for kind in ("constraint", "empty"):
        total = d[f"{kind}_hits"] + d[f"{kind}_misses"]
        layer[f"isets.{kind}_hit_rate"] = d[f"{kind}_hits"] / total if total else 0.0
    layer["isets.empty_fast"] = d["empty_fast"]
    layer["isets.enum_scan"] = d["enum_scan"]


def staged(ctx: Context, layer: dict, name: str, fn):
    """*fn* (a pipeline stage) timed as layer ``name`` with the iset
    counter deltas of each call (``<name>_<counter>``)."""

    def call(*args, **kw):
        before = _iset_snapshot()
        with ctx.tr.span(name) as sp:
            out = fn(*args, **kw)
        after = _iset_snapshot()
        layer[f"{name}_s"] += sp.elapsed
        for key in _ISET_KEYS:
            layer[f"{name}_{key}"] += after[key] - before[key]
        if name == "cp.select" and out is None:
            layer["cp.select_fallbacks"] += 1
        if name == "comm.specialize":
            layer["comm.events"] += sum(
                len(plan.live_events()) for _, plan in out.nest_plans
            )
        return out

    return call


class patched_stages:
    """Route the pipeline's own stage calls (inside ``compile_kernel`` and
    ``cached_compile``) through :func:`staged` for the dynamic extent."""

    NAMES = (("stage_parse", "frontend.parse"), ("stage_select", "cp.select"),
             ("stage_specialize", "comm.specialize"),
             ("stage_codegen", "codegen.codegen"))

    def __init__(self, ctx: Context, layer: dict):
        from repro.compile import pipeline

        self.pipeline = pipeline
        self.saved = {attr: getattr(pipeline, attr) for attr, _ in self.NAMES}
        self.ctx, self.layer = ctx, layer

    def __enter__(self):
        for attr, name in self.NAMES:
            setattr(self.pipeline, attr,
                    staged(self.ctx, self.layer, name, self.saved[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for attr, fn in self.saved.items():
            setattr(self.pipeline, attr, fn)


def codegen_counts(layer: dict, ck) -> None:
    """Emitted bytes (both targets, which emits them) and loop counts."""
    srcs = (ck.python_source("mpi"), ck.python_source("shmem"))
    layer["codegen.src_bytes"] += sum(len(s.encode()) for s in srcs)
    for rep in ck.vector_report.values():
        key = "vector_loops" if rep.status == "vector" else "scalar_loops"
        layer[f"codegen.{key}"] += 1


def first_run(ctx: Context, layer: dict, ck, label: str, target: str, run):
    """Time to first result of a fresh kernel: bind every rank's guards,
    exec the *target* node program, run.  Returns (seconds, seconds of
    the run alone, outputs); the run alone minus the median steady run is
    the guard-cover time (``codegen.cover_s``)."""
    with ctx.tr.span("codegen.bind") as bind:
        guards = [ck.bind_guards(r) for r in range(ck.nprocs)]
    points = sum(len(g) for gs in guards for g in gs.values() if g is not None)
    for suffix in ("", f".{label}"):
        layer[f"codegen.bind_s{suffix}"] += bind.elapsed
        layer[f"codegen.guard_points{suffix}"] += points
    with ctx.tr.span("codegen.exec") as exe:
        ck.node_program(target)
    layer["codegen.exec_s"] += exe.elapsed
    with ctx.tr.span("runtime.first_run") as sp:
        out = run()
    return bind.elapsed + exe.elapsed + sp.elapsed, sp.elapsed, out


def first_runs(ctx: Context, layer: dict, label: str, target: str, fresh,
               rounds: int, run, check):
    """First runs of *rounds* fresh kernels; ``fresh(i)`` returns round
    *i*'s kernel and the seconds spent making it (an unpickle, say).  Each
    round's seconds to first result is a sample of ``first.<label>``; the
    layer numbers come from round 0.  Returns round 0's kernel and its
    run-only seconds, or None if round 0 failed."""
    kept = run_only = None
    for i in range(rounds):

        def op(i=i):
            ck, made_s = fresh(i)
            total, alone, out = first_run(
                ctx, layer if i == 0 else defaultdict(float), ck, label,
                target, lambda: run(ck))
            return ck, made_s + total, alone, out

        got = ctx.ledger.attempt(f"first run {label}", op,
                                 lambda r: check(r[0], r[3]))
        if got is None:
            if i == 0:
                return None
            continue
        ctx.samples[f"first.{label}"].append(got[1])
        if i == 0:
            kept, run_only = got[0], got[2]
    return kept, run_only


def steady_runs(ctx: Context, what: str, span: str, n: int, run, check) -> list:
    """*n* checked runs; returns the seconds of each that succeeded."""
    out = []
    for _ in range(n):
        got = ctx.ledger.timed(what, span, run, check)
        if got is not None:
            out.append(got[0])
    return out


def digest_text(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run_steady
# ---------------------------------------------------------------------------

class RunSteady:
    """Setup compiles K once and pickles each kernel with both node
    programs emitted (the artifact the plan cache stores).  Each pass
    unpickles fresh copies and times their first and steady runs on the
    VM (mpi) and shmem targets, the process executor, and the paper's
    Table 8.1/8.2 path."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.blobs: dict = {}
        self.costs: dict = {}
        self.proc = None

    def setup(self) -> None:
        """Cold-compiles K (fresh iset caches, so every set-up of the run
        does the same work) and the wildcard kernel @2."""
        from repro.codegen import compile_kernel
        from repro.isets import reset_caches

        ctx = self.ctx
        layer: dict = defaultdict(float)
        reset_caches()
        before = _iset_snapshot()
        traced = patched_stages(ctx, layer) if ctx.traced else nullcontext()
        with traced, ctx.tr.span("setup.compile"):
            for case in K:
                got = ctx.ledger.timed(
                    f"compile {case.id}", "compile",
                    lambda case=case: compile_kernel(
                        ctx.compile_input(case), case.ranks, case.params),
                )
                if got is not None:
                    ctx.samples[f"compile.{case.id}"].append(got[0])
                    codegen_counts(layer, got[1])
                    self.blobs[case.id] = pickle.dumps(got[1])
        _iset_rates(layer, before)
        self.setup_layer = layer
        self.proc = ctx.ledger.attempt(
            "compile wildcard sp_rhs_S @2",
            lambda: compile_kernel(wildcard_source(), PROC_RANKS, WILDCARD_PARAMS),
        )
        if self.proc is not None:
            # forked ranks inherit the parent's bound guards and node program
            for r in range(PROC_RANKS):
                self.proc.bind_guards(r)
            self.proc.node_program("mpi")

    def prepare(self) -> None:
        """Untimed: the output checks' masks and, traced, the LogGP costs."""
        ctx = self.ctx
        for cid, blob in self.blobs.items():
            ck = pickle.loads(blob)
            ctx.output_check(cid, ck, cid).masks()
            if ctx.traced:
                from repro.check.cost import kernel_cost

                self.costs[cid] = kernel_cost(ck)
        if self.proc is not None:
            ctx.output_check("proc", self.proc, WILDCARD_BASE).masks()

    def run_pass(self) -> None:
        ctx = self.ctx
        layer: dict = defaultdict(float, self.setup_layer)
        kernels, run_only = self._first_runs(layer)
        vm_medians = self._vm_steady(layer, kernels)
        for cid, median in vm_medians.items():
            layer["codegen.cover_s"] += max(0.0, run_only[cid] - median)
        shmem_medians = self._shmem_steady(layer, kernels)
        if shmem_medians:
            layer["shmem_step_s"] = geomean(shmem_medians.values())
        self._proc(layer)
        self._tables(layer)
        self._solvers(layer)
        ctx.record_pass(layer)

    def _first_runs(self, layer: dict) -> "tuple[dict, dict]":
        """Unpickle + first VM run, FIRST_RUNS times per kernel; returns
        the first round's kernels and their run-only seconds."""
        ctx = self.ctx
        kernels, run_only = {}, {}
        for cid, blob in self.blobs.items():
            case, check = CASES[cid], ctx.output_check(cid, None, cid)
            scalars, init = case.run_scalars(), ctx.init_mpi(cid)

            def fresh(i, blob=blob):
                with ctx.tr.span("run_steady.unpickle") as sp:
                    ck = pickle.loads(blob)
                return ck, sp.elapsed

            got = first_runs(
                ctx, layer, cid, "mpi", fresh, FIRST_RUNS,
                lambda k, scalars=scalars, init=init: k.run(scalars, init=init),
                lambda k, out, check=check: _mismatch("mpi", check.mpi(out)),
            )
            if got is not None:
                kernels[cid], run_only[cid] = got
        return kernels, run_only

    def _vm_steady(self, layer: dict, kernels: dict) -> dict:
        from repro.runtime import VirtualMachine

        ctx = self.ctx
        medians = {}
        for cid, ck in kernels.items():
            case, check = CASES[cid], ctx.output_check(cid, ck, cid)
            scalars, init = case.run_scalars(), ctx.init_mpi(cid)
            comm: list = []
            vms: list = []
            if ctx.traced:  # time inside exec_comm, on this instance only
                ck.exec_comm = Tracer.accumulate(comm, ck.exec_comm)

            def run():
                vm = VirtualMachine(ck.nprocs, record_trace=True) if ctx.traced else None
                vms.append(vm)
                return ck.run(scalars, init=init, vm=vm)

            steps = steady_runs(ctx, f"steady run {cid}", "runtime.vm_step",
                                STEADY_RUNS[cid], run,
                                lambda out: _mismatch("mpi", check.mpi(out)))
            if not steps:
                continue
            ctx.samples[f"steady.{cid}"].extend(steps)
            medians[cid] = statistics.median(steps)
            layer[f"runtime.vm_step_s.{cid}"] = medians[cid]
            if ctx.traced:
                comm_s = sum(comm) / len(steps) / ck.nprocs
                layer["runtime.comm_s"] += comm_s
                layer["runtime.compute_s"] += medians[cid] - comm_s
                self._loggp(layer, cid, vms[0])
        return medians

    def _loggp(self, layer: dict, cid: str, vm) -> None:
        """Static LogGP prediction next to the measured trace; a count
        mismatch is a failed op (the analyzer's counts are exact)."""
        from repro.check.cost import validate_against_trace

        cost = self.costs[cid]
        trace = vm.trace
        predicted = cost.predicted_time(vm.model)
        row = {
            "predicted_messages": cost.messages,
            "measured_messages": trace.total_messages(),
            "predicted_bytes": cost.bytes,
            "measured_bytes": trace.total_bytes(),
            "predicted_time_s": predicted,
            "modeled_time_s": trace.makespan(),
            "model": vm.model.name,
        }
        self.ctx.details.setdefault("loggp", {})[cid] = row
        layer["runtime.messages"] += row["measured_messages"]
        layer["runtime.bytes"] += row["measured_bytes"]
        layer["check.predicted_messages"] += cost.messages
        layer["check.predicted_bytes"] += cost.bytes
        layer["check.predicted_time_s"] += predicted
        layer["check.modeled_time_s"] += row["modeled_time_s"]
        result = self.ctx.ledger.attempt(
            f"LogGP count check {cid}",
            lambda: validate_against_trace(cost, trace),
            lambda v: list(v.mismatches),
        )
        if result is not None:
            layer["check.count_mismatches"] += len(result.mismatches)

    def _shmem_steady(self, layer: dict, kernels: dict) -> dict:
        ctx = self.ctx
        medians = {}
        for cid, ck in kernels.items():
            case, check = CASES[cid], ctx.output_check(cid, ck, cid)
            scalars, init = case.run_scalars(), ctx.init_shared(cid)

            def run():
                return ck.run_shmem(scalars, init=init)

            def ok(out):
                return _mismatch("shmem", check.shmem(out))

            # the first call execs the shmem node program: checked, not timed
            ctx.ledger.attempt(f"shmem run {cid}", run, ok)
            steps = steady_runs(ctx, f"shmem run {cid}", "runtime.shmem_step",
                                STEADY_RUNS[cid], run, ok)
            if steps:
                medians[cid] = statistics.median(steps)
                layer[f"runtime.shmem_step_s.{cid}"] = medians[cid]
        return medians

    def _proc(self, layer: dict) -> None:
        ctx = self.ctx
        if self.proc is None:
            return
        case = CASES[WILDCARD_BASE]
        scalars, init = case.run_scalars(), ctx.init_mpi(WILDCARD_BASE)
        check = ctx.output_check("proc", self.proc, WILDCARD_BASE)
        steps = steady_runs(
            ctx, "process run wildcard sp_rhs_S @2", "runtime.proc_step",
            PROC_RUNS,
            lambda: self.proc.run(scalars, init=init, executor="process",
                                  timeout=60),
            lambda out: _mismatch("process", check.mpi(out)),
        )
        if steps:
            layer["proc_step_s"] = layer["runtime.proc_step_s"] = (
                statistics.median(steps))

    def _tables(self, layer: dict) -> None:
        from repro.eval.tables import table_8_1, table_8_2

        from perfbench.make_refs import table_times

        ctx = self.ctx
        for name, fn in (("8.1", table_8_1), ("8.2", table_8_2)):
            want = ctx.refs["tables"][name]
            key = f"parallel.table_{name.replace('.', '_')}"
            got = ctx.ledger.timed(
                f"table {name}", key, fn,
                lambda t, want=want: [] if table_times(t) == want else [
                    "modeled times differ from refs.json"],
            )
            if got is not None:
                layer[f"{key}_s"] = got[0]
                layer["tables_s"] += got[0]
                ctx.record_output(f"table.{name}", digest_text(
                    json.dumps(table_times(got[1]), sort_keys=True)))

    def _solvers(self, layer: dict) -> None:
        from repro.nas.bt import BTSolver
        from repro.nas.sp import SPSolver
        from repro.nas.verify import VERIFY_GRID, VERIFY_STEPS, verify
        from repro.parallel import run_parallel

        ctx = self.ctx
        for executor, nprocs in SOLVERS:
            for bench, solver_cls in (("sp", SPSolver), ("bt", BTSolver)):

                def check(res, bench=bench, solver_cls=solver_cls,
                          executor=executor):
                    problems = []
                    if res.executor != executor:
                        layer["runtime.proc_fallbacks"] += 1
                        problems.append(f"ran on {res.executor}, not {executor}")
                    solver = solver_cls(VERIFY_GRID)
                    solver.u = res.u
                    if not verify(bench, solver.residual_norms(), solver.checksum()):
                        problems.append("NPB verification failed")
                    ctx.record_output(f"solver.{bench}.{executor}",
                                      repr(solver.checksum()))
                    return problems

                got = ctx.ledger.timed(
                    f"dhpf {bench} class S {executor}@{nprocs}",
                    f"parallel.dhpf_{bench}",
                    lambda bench=bench, executor=executor, nprocs=nprocs:
                        run_parallel(bench, "dhpf", nprocs, VERIFY_GRID,
                                     VERIFY_STEPS, functional=True,
                                     record_trace=False, executor=executor,
                                     timeout=120),
                    check,
                )
                if got is not None:
                    layer[f"parallel.dhpf_{bench}_s"] += got[0]
                    layer["solver_s"] += got[0]
                    layer["runtime.proc_restarts"] += got[1].restarts

    def labels(self) -> tuple:
        return tuple(c.id for c in K)


# ---------------------------------------------------------------------------
# rank_sweep
# ---------------------------------------------------------------------------

class RankSweep:
    """The wildcard-grid SP compute_rhs over P in SWEEP_PROCS through a
    fresh on-disk plan cache: cold sweep, warm passes, 2-worker pool."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.select_digests: set = set()

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        from repro.compile.key import PlanKey

        self.select_digests = {
            PlanKey.for_source(wildcard_source(), p, WILDCARD_PARAMS,
                               backend="vector", strict=True).analysis_digest
            for p in SWEEP_PROCS
        }

    def _cache(self, directory: str, layer: dict):
        """A PlanCache over *directory*; traced runs time get/put and
        classify selection-tier hits."""
        from repro.compile.cache import PlanCache, PlanCacheConfig

        cache = PlanCache(PlanCacheConfig(directory=directory))
        if self.ctx.traced:
            get, put = cache.get, cache.put

            def traced_get(key):
                with self.ctx.tr.span("compile.cache_get") as sp:
                    payload = get(key)
                layer["compile.cache_get_s"] += sp.elapsed
                if payload is not None and key in self.select_digests:
                    layer["compile.cache_select_hits"] += 1
                return payload

            def traced_put(key, payload):
                with self.ctx.tr.span("compile.cache_put") as sp:
                    put(key, payload)
                layer["compile.cache_put_s"] += sp.elapsed

            cache.get, cache.put = traced_get, traced_put
        return cache

    def _compile(self, cache, p: int, backend: str = "vector"):
        from repro.compile.pipeline import cached_compile
        from repro.diag import DiagnosticSink

        return cached_compile(wildcard_source(), p, WILDCARD_PARAMS, backend,
                              DiagnosticSink(strict=True), None, cache)

    def run_pass(self) -> None:
        from repro.isets import reset_caches

        ctx = self.ctx
        layer: dict = defaultdict(float)
        reset_caches()
        before = _iset_snapshot()
        directory = tempfile.mkdtemp(prefix="plans-", dir=ctx.workdir)
        try:
            caches = [self._cache(directory, layer)]
            with ctx.tr.span("rank_sweep.sweep") as sp:
                cold = self._sweep(layer, caches[0])
            layer["sweep_s"] = sp.elapsed
            _iset_rates(layer, before)
            self._warm(layer, directory, cold, caches)
            self._pool(layer, caches[0])
            for cache in caches:
                layer["compile.cache_hits"] += cache.stats.hits
                layer["compile.cache_misses"] += cache.stats.misses
            layer["compile.cache_bytes"] = caches[0].bytes_on_disk()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        ctx.record_pass(layer)

    def _sweep(self, layer: dict, cache) -> dict:
        ctx = self.ctx
        case = CASES[WILDCARD_BASE]
        scalars, init = case.run_scalars(), ctx.init_shared(WILDCARD_BASE)
        kernels, digests = {}, {}
        for p in SWEEP_PROCS:
            with patched_stages(ctx, layer) if ctx.traced else nullcontext():
                got = ctx.ledger.timed(f"cached_compile @{p}",
                                       "compile.cached_compile",
                                       lambda p=p: self._compile(cache, p))
            if got is None:
                continue
            ctx.samples[f"compile.P{p}"].append(got[0])
            ck = kernels[p] = got[1]
            codegen_counts(layer, ck)
            check = ctx.output_check(f"P{p}", ck, WILDCARD_BASE)

            def run(k):
                return k.run_shmem(scalars, init=init)

            def ok(out, ck=ck, p=p, check=check):
                digests[p] = shared_digest(ck, out)
                return _mismatch("shmem", check.shmem(out))

            first = first_runs(
                ctx, layer, f"P{p}", "shmem",
                lambda i, ck=ck: (ck, 0.0), 1, run, lambda k, out, ok=ok: ok(out))
            if first is None:
                continue
            steps = steady_runs(ctx, f"steady run_shmem @{p}", "runtime.shmem_step",
                                SWEEP_STEADY_RUNS, lambda ck=ck: run(ck), ok)
            if steps:
                ctx.samples[f"steady.P{p}"].extend(steps)
                layer["codegen.cover_s"] += max(
                    0.0, first[1] - statistics.median(steps))
        ctx.ledger.attempt(
            "bitwise identity across P", lambda: digests,
            lambda d: [] if len(set(d.values())) == 1 and len(d) == len(SWEEP_PROCS)
            else [f"shared arrays differ across P: {sorted(d)}"],
        )
        for p, dg in digests.items():
            ctx.record_output(f"sweep.P{p}", dg)
        return kernels

    def _warm(self, layer: dict, directory: str, cold: dict, caches: list) -> None:
        """New caches over the same directory: every compile must be a
        disk-tier kernel hit that emits the cold kernel's source."""
        ctx = self.ctx
        hits = []
        for _ in range(WARM_ROUNDS):
            cache = self._cache(directory, layer)
            caches.append(cache)
            for p in SWEEP_PROCS:
                before = cache.stats.snapshot()

                def check(ck, p=p, before=before, cache=cache):
                    d = cache.stats.delta(before)
                    problems = []
                    if d["disk_hits"] != 1 or d["misses"] != 0:
                        problems.append(f"not a disk-tier kernel hit: {d}")
                    if p in cold and ck.python_source("shmem") != cold[p].python_source("shmem"):
                        problems.append("warm source differs from cold")
                    return problems

                got = ctx.ledger.timed(f"warm hit @{p}", "compile.warm_hit",
                                       lambda p=p, cache=cache: self._compile(cache, p),
                                       check)
                if got is not None:
                    hits.append(got[0])
        if hits:
            layer["warm_hit_s"] = statistics.median(hits)

    def _pool(self, layer: dict, cache) -> None:
        """The four rank counts with the scalar backend through a 2-worker
        pool writing to the sweep's cache: kernel-tier misses, so every
        job compiles in a worker."""
        from repro.compile.driver import CompileJob
        from repro.compile.pool import CompilePool, PoolConfig

        ctx = self.ctx
        jobs = [CompileJob(source=wildcard_source(), nprocs=p,
                           params=WILDCARD_PARAMS, backend="scalar",
                           label=f"P{p}")
                for p in SWEEP_PROCS]
        with ctx.tr.span("compile.pool_batch") as sp:
            with CompilePool(PoolConfig(workers=POOL_WORKERS, timeout=120),
                             cache=cache) as pool:
                outcomes = ctx.ledger.attempt(
                    "pool batch", lambda: pool.run_batch(jobs))
        layer["pool_batch_s"] = sp.elapsed
        layer["compile.pool_jobs"] = pool.stats.completed
        layer["compile.pool_retries"] = pool.stats.retries
        layer["compile.pool_spawns"] = pool.stats.forks + pool.stats.respawns

        def check(o):
            if o.error is not None:
                return [f"{type(o.error).__name__}: {o.error}"]
            if o.cached:
                return ["served warm; expected a worker compile"]
            if cache.get(o.job.key().kernel_digest) is None:
                return ["the worker's kernel is not in the shared cache"]
            return []

        for out in outcomes or ():
            ctx.ledger.attempt(f"pool job {out.job.label}", lambda out=out: out,
                               check)

    def labels(self) -> tuple:
        return tuple(f"P{p}" for p in SWEEP_PROCS)


def shared_digest(ck, shared: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(shared):
        if name not in ck.private_arrays:
            h.update(digest(shared[name].data).encode())
    return h.hexdigest()


WORKLOADS = {
    "run_steady": RunSteady,
    "rank_sweep": RankSweep,
}


def best(ctx: Context, workload, kind: str) -> list:
    """The fastest sample of ``<kind>.<label>`` for each of the workload's
    kernels or rank counts that has one."""
    s = ctx.samples
    return [min(s[f"{kind}.{k}"]) for k in workload.labels() if s.get(f"{kind}.{k}")]


def end_to_end(ctx: Context, workload, setup_s: float) -> dict:
    """The run's end-to-end metrics, each from the fastest sample per
    kernel (README.md says why the minimum and not the median)."""
    import resource

    compiles = best(ctx, workload, "compile")
    firsts = best(ctx, workload, "first")
    steady = best(ctx, workload, "steady")
    attempted = max(1, ctx.ledger.attempted)
    return {
        "setup_s": setup_s,
        "compile_s": sum(compiles),
        "first_run_s": geomean(firsts) if firsts else 0.0,
        "steady_step_s": geomean(steady) if steady else 0.0,
        "success_rate": 1.0 - ctx.ledger.failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ctx: Context, workload) -> "tuple[dict, dict]":
    """The run's per-layer metrics (median over passes) and the tail
    percentile used for each kernel of ``steady_step_p90_s``."""
    out = {name: statistics.median(ctx.layer[name]) if ctx.layer[name] else 0
           for name in LAYER_METRICS}
    tails, used = [], {}
    for k in workload.labels():
        samples = ctx.samples.get(f"steady.{k}")
        if samples:
            q, value = tail_quantile(samples)
            tails.append(value)
            used[k] = {"percentile": round(100 * q, 1), "samples": len(samples)}
    out["steady_step_p90_s"] = geomean(tails) if tails else 0.0
    out["pass_s"] = statistics.median(ctx.samples["pass_s"])
    out["error_rate"] = ctx.ledger.failed / max(1, ctx.ledger.attempted)
    return out, used


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)
