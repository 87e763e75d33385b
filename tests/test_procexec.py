"""Supervised real-process execution backend (repro.runtime.procexec).

Covers the executor's whole contract: bitwise identity with the virtual
machine (raw node programs and compiled kernels, both targets), typed
crash/hang/timeout detection with rank attribution, bounded
checkpoint-resumed restarts, graceful degradation to the virtual machine,
and — via the autouse fixture — the no-orphans/no-leaks guarantee on
every exit path (success, crash, timeout, Ctrl-C).
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.codegen import compile_kernel
from repro.diag import I_FALLBACK, I_NOTRACE
from repro.nas import kernels
from repro.parallel import CheckpointConfig, CheckpointStore, run_parallel
from repro.runtime import VirtualMachine, procexec
from repro.runtime.procexec import (
    ExecutorError,
    ExecutorTimeout,
    ExecutorUnavailable,
    ProcConfig,
    ProcessExecutor,
    ProcFault,
    WorkerCrashed,
    WorkerTimeout,
    run_kernel,
)

FAST = dict(heartbeat_interval=0.02, max_restarts=1, restart_backoff=0.01)

LHSY_SCALARS = {"n": 17, "c2": 0.5, "dy3": 0.1, "c1c5": 0.2, "dtty1": 0.3,
                "dtty2": 0.4}


@pytest.fixture(autouse=True)
def no_orphans_or_leaks():
    """Every test — success, crash, timeout, Ctrl-C — must leave no live
    child processes and no shared-memory segments (the orphan/leak
    regression guard)."""
    yield
    for p in mp.active_children():
        p.join(timeout=2.0)
    assert mp.active_children() == [], "executor leaked child processes"
    assert procexec.leaked_segments() == [], "executor leaked shared memory"


def ring(rank):
    rank.set_phase("ring")
    rank.send((rank.rank + 1) % rank.size, np.full(4, float(rank.rank)), tag=7)
    got = rank.recv((rank.rank - 1) % rank.size, tag=7)
    rank.compute(1e4)
    high = rank.allreduce_max(float(got[0]))
    rank.barrier()
    return {"rank": rank.rank, "got": got.copy(), "max": high}


class TestBitwiseAgainstVirtualMachine:
    def test_ring_matches_vm(self):
        ref = VirtualMachine(4, record_trace=False).run(ring)
        out = ProcessExecutor(4).run(ring, timeout=60)
        for a, b in zip(ref, out):
            assert a["rank"] == b["rank"]
            assert np.array_equal(a["got"], b["got"])
            assert a["max"] == b["max"]

    def test_tagged_streams_preserve_program_order(self):
        def prog(rank):
            if rank.rank == 0:
                for k in range(6):
                    rank.send(1, np.array([float(k)]), tag=k % 2)
                return None
            # drain the two tag streams interleaved: per-(src, tag) FIFO
            return [float(rank.recv(0, tag=k % 2)[0]) for k in range(6)]

        out = ProcessExecutor(2).run(prog, timeout=60)
        assert out[1] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_send_buffer_may_be_mutated_immediately(self):
        """Copy-on-send, matching the virtual machine: mp.Queue pickles
        lazily in a feeder thread after put() returns, so without the
        copy a sender reusing its buffer races the feeder and can
        deliver corrupted payloads."""

        def prog(rank):
            if rank.rank == 0:
                buf = np.empty(256, dtype=np.float64)
                for k in range(50):
                    buf[:] = float(k)
                    rank.send(1, buf, tag=3)  # buf is overwritten next loop
                return None
            out = []
            for _ in range(50):
                got = rank.recv(0, tag=3)
                assert np.all(got == got[0])  # payload arrived untorn
                out.append(float(got[0]))
            return out

        out = ProcessExecutor(2).run(prog, timeout=60)
        assert out[1] == [float(k) for k in range(50)]

    def test_kernel_mpi_target_bitwise(self):
        ck = compile_kernel(kernels.LHSY_SP, nprocs=4, params={"n": 17})
        ref = ck.run(LHSY_SCALARS)
        out = run_kernel(ck, LHSY_SCALARS, target="mpi", timeout=60)
        for a, b in zip(ref, out):
            assert set(a) == set(b)
            for name in a:
                assert a[name].data.tobytes() == b[name].data.tobytes()

    def test_kernel_shmem_target_bitwise(self):
        ck = compile_kernel(kernels.LHSY_SP, nprocs=4, params={"n": 17})
        ref = ck.run_shmem(LHSY_SCALARS)
        out = run_kernel(ck, LHSY_SCALARS, target="shmem", timeout=60)
        assert set(ref) == set(out)
        for name in ref:
            assert ref[name].data.tobytes() == out[name].data.tobytes()

    def test_compiled_kernel_executor_kwarg(self):
        ck = compile_kernel(kernels.LHSY_SP, nprocs=4, params={"n": 17})
        a = ck.run(LHSY_SCALARS)
        b = ck.run(LHSY_SCALARS, executor="process", timeout=60)
        assert a[0]["lhs"].data.tobytes() == b[0]["lhs"].data.tobytes()
        sa = ck.run_shmem(LHSY_SCALARS)
        sb = ck.run_shmem(LHSY_SCALARS, executor="process", timeout=60)
        assert sa["lhs"].data.tobytes() == sb["lhs"].data.tobytes()


class TestTypedFailureDetection:
    def test_worker_crash_is_typed_with_rank_and_exitcode(self):
        def crasher(rank):
            rank.set_phase("doomed")
            if rank.rank == 1:
                os._exit(9)
            rank.barrier()

        ex = ProcessExecutor(3, config=ProcConfig(**FAST))
        with pytest.raises(WorkerCrashed) as ei:
            ex.run(crasher, timeout=60)
        assert ei.value.rank == 1
        assert ei.value.exitcode == 9
        assert ei.value.last_heartbeat is not None
        assert ex.restarts == 1  # the restart budget was spent before raising

    def test_hung_worker_detected_by_stale_heartbeat(self):
        """A *frozen* process (SIGSTOP here; a kernel wedge in life) stops
        beating.  Live workers beat from a background thread, so only a
        process that is no longer scheduled trips the watchdog."""

        def hanger(rank):
            if rank.rank == 0:
                os.kill(os.getpid(), signal.SIGSTOP)  # frozen: no beats
            else:
                rank.barrier()  # blocked but beating

        cfg = ProcConfig(heartbeat_interval=0.02, heartbeat_timeout=0.3,
                         max_restarts=0)
        with pytest.raises(WorkerTimeout) as ei:
            ProcessExecutor(2, config=cfg).run(hanger, timeout=60)
        assert ei.value.rank == 0
        assert ei.value.last_heartbeat >= 0.3

    def test_long_compute_nest_is_not_a_false_hang(self):
        """A worker that makes no rank-API calls for longer than
        heartbeat_timeout (a long vectorized compute nest) still beats
        from its background thread — no spurious WorkerTimeout."""

        def cruncher(rank):
            time.sleep(0.8)  # rank-API-silent for > heartbeat_timeout
            return rank.rank

        cfg = ProcConfig(heartbeat_interval=0.02, heartbeat_timeout=0.3,
                         max_restarts=0)
        assert ProcessExecutor(2, config=cfg).run(cruncher, timeout=60) \
            == [0, 1]

    def test_blocked_recv_is_not_a_false_hang(self):
        """A rank legitimately waiting on a slow peer beats while polling —
        the heartbeat watchdog must not shoot it."""

        def prog(rank):
            if rank.rank == 0:
                time.sleep(0.6)  # slower than heartbeat_timeout
                rank.send(1, np.array([1.0]), tag=1)
                return 0.0
            return float(rank.recv(0, tag=1)[0])  # waits ~0.6s, beating

        cfg = ProcConfig(heartbeat_interval=0.02, heartbeat_timeout=1.5,
                         max_restarts=0)
        out = ProcessExecutor(2, config=cfg).run(prog, timeout=60)
        assert out == [0.0, 1.0]

    def test_overall_timeout_is_typed_and_final(self):
        def slow(rank):
            for _ in range(200):
                time.sleep(0.05)
                rank.elapse(1e-3)  # beating, just over budget

        ex = ProcessExecutor(2, config=ProcConfig(**FAST))
        with pytest.raises(ExecutorTimeout):
            ex.run(slow, timeout=0.4)
        assert ex.restarts == 0  # an exhausted budget is never retried

    def test_worker_exception_propagates_typed_without_retry(self):
        def boom(rank):
            rank.set_phase("arming")
            if rank.rank == 1:
                raise ValueError("kaboom in rank 1")
            rank.barrier()

        ex = ProcessExecutor(2, config=ProcConfig(**FAST))
        with pytest.raises(ExecutorError, match="ValueError: kaboom in rank 1"):
            ex.run(boom, timeout=60)
        assert ex.restarts == 0  # deterministic app errors are not retried

    def test_config_validated(self, monkeypatch):
        with pytest.raises(ValueError, match="heartbeat"):
            ProcConfig(heartbeat_interval=0.5, heartbeat_timeout=0.1)
        with pytest.raises(ValueError, match="max_restarts"):
            ProcConfig(max_restarts=-1)
        with pytest.raises(ValueError, match="kind"):
            ProcFault(rank=0, kind="melt", after_seconds=1.0)
        with pytest.raises(ValueError, match="after_iteration or after_seconds"):
            ProcFault(rank=0)
        # a platform without fork: the shared fork check refuses
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ExecutorUnavailable, match="start method"):
            ProcessExecutor(2, config=ProcConfig())


class TestRestartRecovery:
    def test_transient_crash_recovers_on_restart(self, tmp_path):
        marker = tmp_path / "crashed-once"

        def crash_once(rank):
            if rank.rank == 1 and not marker.exists():
                marker.touch()
                os._exit(7)
            rank.barrier()
            return rank.rank * 10

        ex = ProcessExecutor(2, config=ProcConfig(**FAST))
        assert ex.run(crash_once, timeout=60) == [0, 10]
        assert ex.restarts == 1

    def test_restart_respects_wall_clock_deadline(self):
        """A restart whose backoff cannot fit in the remaining timeout=
        budget raises ExecutorTimeout immediately instead of sleeping
        past the deadline and launching a doomed gang."""

        def crasher(rank):
            os._exit(3)

        cfg = ProcConfig(heartbeat_interval=0.02, max_restarts=3,
                         restart_backoff=30.0)
        ex = ProcessExecutor(2, config=cfg)
        t0 = time.monotonic()
        with pytest.raises(ExecutorTimeout, match="before gang restart"):
            ex.run(crasher, timeout=5.0)
        assert time.monotonic() - t0 < 5.0  # raised, not slept through
        assert ex.restarts == 0  # the doomed restart never launched

    def test_sigkill_fault_resumes_from_parent_checkpoints(self, tmp_path):
        """The supervisor's checkpoint mirror: worker-side saves reach the
        parent store, so the re-forked gang resumes instead of redoing
        iterations (counted via a side-effect file per rank/iteration)."""
        NITER = 4
        cfg = CheckpointConfig(store=CheckpointStore(), interval=1)

        def node(rank):
            start = cfg.store.latest_complete(rank.size)
            for it in range(start + 1, NITER + 1):
                (tmp_path / f"work-{rank.rank}-{it}-{os.getpid()}").touch()
                rank.barrier(tag=100 + it)  # iteration boundary
                cfg.store.save(it, rank.rank, None)
            return cfg.store.latest_complete(rank.size)

        ex = ProcessExecutor(
            2, config=ProcConfig(heartbeat_interval=0.02, max_restarts=2,
                                 restart_backoff=0.01))
        fault = ProcFault(rank=1, kind="kill", after_iteration=2)
        ex.run(node, checkpoint=cfg, timeout=60, fault=fault)
        assert ex.restarts >= 1
        assert cfg.store.latest_complete(2) == NITER
        # iteration 1 ran in exactly one process per rank: the restarted
        # gang resumed from the checkpoint instead of starting over
        it1 = [f for f in os.listdir(tmp_path) if f.startswith("work-0-1-")]
        assert len(it1) == 1


class TestCleanup:
    def test_keyboard_interrupt_reaps_gang(self):
        """Ctrl-C during supervision: children are killed, segments
        unlinked, and the interrupt propagates (the autouse fixture
        asserts the no-orphan half)."""

        def park(rank):
            rank.recv(rank.rank, tag=99)  # waits forever (beating)

        ex = ProcessExecutor(2, config=ProcConfig(**FAST))
        polls = {"n": 0}

        def interrupt():
            polls["n"] += 1
            if polls["n"] >= 3:
                raise KeyboardInterrupt

        ex._poll_hook = interrupt
        with pytest.raises(KeyboardInterrupt):
            ex.run(park, timeout=60)
        assert ex._gang is None  # torn down before propagating

    def test_teardown_is_idempotent(self):
        ex = ProcessExecutor(2, config=ProcConfig(**FAST))
        assert ex.run(ring, timeout=60)[0]["rank"] == 0
        ex._teardown()  # second call after a clean run is a no-op


class TestRunParallelIntegration:
    SHAPE = (12, 12, 12)

    def test_process_executor_bitwise_and_labeled(self):
        base = run_parallel("sp", "dhpf", 4, self.SHAPE, 2, functional=True,
                            record_trace=False)
        pr = run_parallel("sp", "dhpf", 4, self.SHAPE, 2, functional=True,
                          record_trace=False, executor="process", timeout=300)
        assert pr.executor == "process"
        assert pr.wall_time > 0
        assert np.array_equal(base.u, pr.u)

    def test_handmpi_work_model_on_processes(self):
        base = run_parallel("sp", "handmpi", 4, self.SHAPE, 2,
                            record_trace=False)
        pr = run_parallel("sp", "handmpi", 4, self.SHAPE, 2,
                          record_trace=False, executor="process", timeout=300)
        assert pr.executor == "process"
        assert pr.time == pytest.approx(base.time)  # same modeled makespan

    def test_degrades_to_vm_with_structured_diagnostic(self, monkeypatch):
        """Exhausted retries (or unavailability) fall back to the virtual
        machine and record an I-FALLBACK diagnostic — never an opaque
        error, never a hang."""

        def always_crash(self, node_fn, **kw):
            raise WorkerCrashed("rank 1 killed by signal 9", exitcode=-9,
                                rank=1)

        monkeypatch.setattr(ProcessExecutor, "run", always_crash)
        base = run_parallel("sp", "dhpf", 4, self.SHAPE, 2, functional=True,
                            record_trace=False)
        r = run_parallel("sp", "dhpf", 4, self.SHAPE, 2, functional=True,
                         record_trace=False, executor="process")
        assert r.executor == "virtual"
        assert any(d.code == I_FALLBACK for d in r.diagnostics)
        assert "WorkerCrashed" in r.diagnostics[0].message
        assert np.array_equal(base.u, r.u)  # numerics identical either way

    def test_node_program_error_propagates_without_fallback(self, monkeypatch):
        """A deterministic node-program exception is not an executor
        degradation: it propagates directly, with no duplicate virtual-
        machine run and no misattributed I-FALLBACK diagnostic."""

        def app_error(self, node_fn, **kw):
            raise ExecutorError("rank 1 raised ValueError: kaboom", rank=1)

        monkeypatch.setattr(ProcessExecutor, "run", app_error)
        with pytest.raises(ExecutorError, match="kaboom"):
            run_parallel("sp", "dhpf", 4, self.SHAPE, 2, functional=True,
                         record_trace=False, executor="process")

    def test_record_trace_on_process_backend_is_diagnosed(self):
        """record_trace=True is a virtual-machine feature; the process
        path returns trace=None plus a typed I-NOTRACE diagnostic rather
        than silently ignoring the request."""
        r = run_parallel("sp", "dhpf", 4, self.SHAPE, 1, functional=False,
                         record_trace=True, executor="process", timeout=300)
        assert r.executor == "process"
        assert r.trace is None
        assert any(d.code == I_NOTRACE for d in r.diagnostics)

    def test_timeout_does_not_degrade(self, monkeypatch):
        def always_timeout(self, node_fn, **kw):
            raise ExecutorTimeout("budget exhausted")

        monkeypatch.setattr(ProcessExecutor, "run", always_timeout)
        with pytest.raises(ExecutorTimeout):
            run_parallel("sp", "dhpf", 4, self.SHAPE, 2, functional=True,
                         record_trace=False, executor="process", timeout=5)

    def test_simulated_faults_require_virtual_executor(self):
        from repro.runtime import FaultPlan

        with pytest.raises(ValueError, match="virtual"):
            run_parallel("sp", "dhpf", 4, self.SHAPE, 1, executor="process",
                         faults=FaultPlan(seed=1, drop_rate=0.1))

    def test_proc_fault_requires_process_executor(self):
        with pytest.raises(ValueError, match="proc_fault"):
            run_parallel("sp", "dhpf", 4, self.SHAPE, 1,
                         proc_fault=ProcFault(rank=0, after_seconds=1.0))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_parallel("sp", "dhpf", 4, self.SHAPE, 1, executor="gpu")
