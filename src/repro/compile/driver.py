"""Batch compilation: jobs, outcomes, and :func:`compile_many`.

:func:`compile_many` compiles a batch of :class:`CompileJob`\\ s on an
ephemeral :class:`~repro.compile.pool.CompilePool` (or on a caller's
persistent one).  Jobs already in the plan cache never reach a worker,
and duplicate jobs (same source/params/nprocs/backend/strictness) share
one compilation.  The pool supervises its workers and types every
failure:

- a worker that raises reports :class:`CompileFailed` (deterministic —
  carries the original exception type, message, and traceback);
- a job that keeps killing its worker (a signal, a segfault, a poisoned
  job) is retried and finally quarantined with a
  :class:`~repro.compile.pool.CompileQuarantined`, which is a
  :class:`~repro.supervise.WorkerCrashed`;
- a job that outlives its per-job deadline has its worker killed and
  reports :class:`~repro.supervise.WorkerTimeout`.

A failed job never kills the batch: every job gets a
:class:`CompileOutcome` (kernel or typed error), in input order.
Successful compilations are installed in the plan cache, so a re-run of
the same batch is all warm hits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from ..diag import DiagnosticSink
from ..supervise import (
    ExecutorError,
    ExecutorUnavailable,
    WorkerCrashed,
    WorkerTimeout,
)
from .cache import PlanCache
from .key import PlanKey
from .pipeline import KernelArtifact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..codegen.spmd import CompiledKernel


class CompileFailed(ExecutorError):
    """The compilation itself raised inside the worker (deterministic —
    retrying cannot help).  ``etype`` and ``worker_traceback`` carry the
    original exception's identity for triage."""

    def __init__(self, message: str, *, etype: str = "", tb: str = "", **kw):
        super().__init__(message, **kw)
        self.etype = etype
        self.worker_traceback = tb


@dataclass(frozen=True)
class CompileJob:
    """One compilation request: the exact inputs of
    :func:`repro.codegen.compile_kernel` that form its plan key, plus an
    optional display ``label`` and per-job ``timeout`` override."""

    source: str
    nprocs: int
    params: Mapping[str, int] | None = None
    backend: str = "vector"
    strict: bool = True
    label: Optional[str] = None
    timeout: Optional[float] = None

    def key(self) -> PlanKey:
        """The content address this job compiles under."""
        return PlanKey.for_source(
            self.source, self.nprocs, dict(self.params or {}),
            backend=self.backend, strict=self.strict,
        )

    def describe(self) -> str:
        """Short human-readable name for progress lines."""
        return self.label or f"<{self.nprocs}p {self.backend} kernel>"


def prewarm_jobs(
    suite: str = "nas",
    procs: "tuple[int, ...]" = (4, 9, 16, 25),
) -> "list[CompileJob]":
    """Built-in jobs that prewarm the plan cache for the evaluation suite.

    ``suite="nas"`` yields every paper/NAS kernel at its declared
    processor grid, plus a wildcard-grid variant of the SP
    ``compute_rhs`` kernel at every count in *procs* (the grid factors
    near-square, so any count compiles).  Because the selection cache
    tier is keyed without ``nprocs``, the wildcard sweep shares one
    rank-symbolic CP selection; only specialization and codegen run per
    count.  Drive with :func:`compile_many` (``python -m repro.eval serve
    --prewarm nas``) or compile individually.
    """
    if suite != "nas":
        raise ValueError(f"unknown prewarm suite {suite!r} (known: nas)")
    from ..nas import kernels

    jobs = [
        CompileJob(source=src, nprocs=np_, params=params, label=label)
        for label, src, np_, params in (
            ("lhsy @4", kernels.LHSY_SP, 4, {"n": 17}),
            ("bt compute_rhs @8", kernels.COMPUTE_RHS_BT, 8, {"n": 13}),
            ("exact_rhs @4", kernels.EXACT_RHS_SP, 4, {"n": 17}),
            ("sp compute_rhs @4", kernels.COMPUTE_RHS_SP, 4, {"n": 12}),
        )
    ]
    for np_ in procs:
        jobs.append(CompileJob(
            source=kernels.scaled(kernels.COMPUTE_RHS_SP), nprocs=np_,
            params={"n": 12}, label=f"sp compute_rhs *grid @{np_}",
        ))
    return jobs


@dataclass
class CompileOutcome:
    """What happened to one job: exactly one of ``kernel`` / ``error`` is
    set.  ``cached`` tells whether the kernel came from the plan cache
    without spawning a worker; ``shared`` whether it rode along with an
    identical job in the same batch."""

    job: CompileJob
    index: int
    kernel: "CompiledKernel | None" = None
    error: Optional[ExecutorError] = None
    cached: bool = False
    shared: bool = False
    elapsed: float = 0.0
    sink: DiagnosticSink = field(default_factory=DiagnosticSink)

    @property
    def ok(self) -> bool:
        """True when the job produced a kernel."""
        return self.kernel is not None


# Module-level so tests can monkeypatch it: pool workers are forked and
# look it up at call time, so a patched build function is inherited.
def _build_for_job(job: CompileJob) -> bytes:
    """Compile *job* cold and return the pickled kernel artifact."""
    from .pipeline import _dumps, _pre_emit, build_kernel

    sink = DiagnosticSink(strict=job.strict)
    kernel = build_kernel(
        job.source, job.nprocs, dict(job.params or {}), job.backend,
        sink, None,
    )
    if not _pre_emit(kernel):
        # surface the emission error itself, not a broken artifact
        kernel.python_source("mpi")
        kernel.python_source("shmem")
    return _dumps(KernelArtifact(kernel=kernel))


def compile_many(
    jobs: "list[CompileJob]",
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache: Optional[PlanCache] = None,
    progress: Optional[Callable[[CompileOutcome], None]] = None,
    pool=None,
) -> list[CompileOutcome]:
    """Compile every job, concurrently, under supervision.

    ``workers`` bounds concurrent worker processes (default
    ``min(4, cpu_count)``, and never more than there are jobs);
    ``timeout`` is the default per-job deadline (``job.timeout``
    overrides; None means unbounded); ``cache`` defaults to the active
    plan cache (pass one explicitly for hermetic runs).  ``progress`` is
    called with each :class:`CompileOutcome` as it resolves.  Returns
    outcomes in input order; failures are typed on the outcome, never
    raised — a poisoned job cannot kill the batch.

    The batch runs on an ephemeral
    :class:`~repro.compile.pool.CompilePool`, shut down before returning.
    ``pool`` runs it on a caller's persistent pool instead; ``workers``
    and ``cache`` are then the pool's own.
    """
    jobs = list(jobs)
    if pool is not None:
        return pool.run_batch(jobs, timeout=timeout, progress=progress)
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers <= 0:
        raise ValueError("workers must be positive")
    if not jobs:
        return []
    from .pool import CompilePool, PoolConfig

    config = PoolConfig(workers=min(workers, len(jobs)), timeout=timeout)
    ephemeral = CompilePool(config, cache=cache)
    try:
        return ephemeral.run_batch(jobs, progress=progress)
    finally:
        # every ticket is resolved once run_batch returns; on an
        # interrupt, nothing is worth waiting for
        ephemeral.shutdown(wait=False)


__all__ = [
    # typed errors re-exported so callers catch the full family here
    "CompileFailed",
    "CompileJob",
    "CompileOutcome",
    "ExecutorUnavailable",
    "WorkerCrashed",
    "WorkerTimeout",
    "compile_many",
]
