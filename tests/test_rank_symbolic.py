"""Regression tests for the rank-symbolic plan path (PR 9).

The staged pipeline splits strict analysis into ``stage_select`` (CP
selection, propagation, grouping at the *canonical* processor count —
``nprocs``-free) and ``stage_specialize`` (communication analysis at the
concrete target count).  These tests pin the contract that makes the
split safe to cache:

- the emitted node programs (both mpi and shmem texts) are **bitwise
  identical** to the legacy one-shot per-``nprocs`` analysis, on every
  benchmarked paper kernel and on wildcard-grid NAS class-S kernels
  across a rank sweep;
- ``PlanKey.analysis_digest`` is ``nprocs``-free (one selection artifact
  serves a whole processor-count sweep) while ``kernel_digest`` still
  separates counts;
- a plan-cache fan-out really reuses the selection tier: the second
  count in a sweep runs no parse and no select phase, only specialize.

Statement ids are assigned by a global counter at parse, so both paths
must analyze deepcopies of ONE shared parse — separate parses differ in
``G.segments(<sid>, ...)`` ids and would mask real divergence.
"""

import copy

import pytest

from repro.compile.cache import PlanCache, PlanCacheConfig
from repro.compile.key import PlanKey
from repro.codegen.spmd import analyze_program
from repro.compile.pipeline import (
    AnalysisArtifact,
    cached_compile,
    stage_codegen,
    stage_parse,
    stage_select,
    stage_specialize,
)
from repro.diag import DiagnosticSink
from repro.distrib.layout import DistributionContext
from repro.eval.bench import kernel_specs
from repro.isets import new_epoch
from repro.isets.profile import profiled
from repro.nas import kernels as nas_kernels

TARGETS = ("mpi", "shmem")


def _parse(spec_source, build=None):
    sink = DiagnosticSink(strict=True)
    if spec_source is not None:
        return stage_parse(spec_source, sink)
    return stage_parse(build(), sink)


def _emit(sub, nprocs, params, *, symbolic):
    """Emit both node-program texts through one of the two analysis paths."""
    sink = DiagnosticSink(strict=True)
    new_epoch()
    if symbolic:
        selart = stage_select(sub, params)
        assert selart is not None, "canonical processor count derivation failed"
        art = stage_specialize(selart, nprocs, params)
    else:
        # the one-shot reference: selection and communication analysis
        # interleaved per nest at the target nprocs
        ctx = DistributionContext(sub, nprocs, params)
        merged = {**sub.symbols.parameter_values(), **params}
        cps, nest_plans, private_arrays, localized_arrays = (
            analyze_program(sub, ctx, merged)
        )
        art = AnalysisArtifact(
            sub=sub, ctx=ctx, merged=merged, cps=cps, nest_plans=nest_plans,
            private_arrays=private_arrays, localized_arrays=localized_arrays,
        )
    kern = stage_codegen(art, nprocs, "vector", sink)
    return {t: kern.python_source(t) for t in TARGETS}


@pytest.mark.parametrize(
    "spec", kernel_specs(), ids=lambda s: s.name.replace(" ", "_")
)
def test_symbolic_identical_to_legacy_on_benchmark_kernels(spec):
    sub0 = _parse(spec.source, spec.build)
    sym = _emit(copy.deepcopy(sub0), spec.nprocs, spec.params, symbolic=True)
    legacy = _emit(copy.deepcopy(sub0), spec.nprocs, spec.params,
                   symbolic=False)
    for t in TARGETS:
        assert sym[t] == legacy[t], (spec.name, t)


@pytest.mark.parametrize("source_name,nprocs", [
    ("sp", 4), ("sp", 16), ("bt", 8),
])
def test_symbolic_identical_on_scaled_class_s_sweep(source_name, nprocs):
    src = nas_kernels.scaled(
        nas_kernels.COMPUTE_RHS_SP if source_name == "sp"
        else nas_kernels.COMPUTE_RHS_BT
    )
    params = {"n": 12, "nx": 12} if source_name == "sp" else {"n": 12}
    sub0 = _parse(src)
    sym = _emit(copy.deepcopy(sub0), nprocs, params, symbolic=True)
    legacy = _emit(copy.deepcopy(sub0), nprocs, params, symbolic=False)
    for t in TARGETS:
        assert sym[t] == legacy[t], (source_name, nprocs, t)


def test_analysis_digest_is_nprocs_free():
    src = nas_kernels.scaled(nas_kernels.COMPUTE_RHS_SP)
    k4 = PlanKey.for_source(src, 4, {"n": 12})
    k9 = PlanKey.for_source(src, 9, {"n": 12})
    assert k4.analysis_digest == k9.analysis_digest
    assert k4.kernel_digest != k9.kernel_digest
    assert k4.parse_digest == k9.parse_digest
    # anything else still separates the selection tier
    other = PlanKey.for_source(src, 4, {"n": 13})
    assert other.analysis_digest != k4.analysis_digest


def test_plan_cache_fans_selection_across_rank_sweep():
    cache = PlanCache(PlanCacheConfig(directory=None))  # memory-only
    src = nas_kernels.scaled(nas_kernels.LHSY_SP)
    params = {"n": 10}

    sink = DiagnosticSink(strict=True)
    cached_compile(src, 4, params, "vector", sink, None, cache)
    k4 = PlanKey.for_source(src, 4, params)
    assert cache.get(k4.analysis_digest) is not None

    # second count in the sweep: selection-tier hit — no parse, no select
    with profiled("fanout") as prof:
        kern9 = cached_compile(
            src, 9, params, "vector", DiagnosticSink(strict=True), None, cache
        )
    phases = prof.root.children
    assert "specialize" in phases
    assert "parse" not in phases
    assert "select" not in phases
    assert "grid (3, 3)" in kern9.python_source("mpi")
