"""One supervised-fork primitive: fork, beat, police, reap, typed errors.

Two supervisors fork worker processes: the real-process executor
(:mod:`repro.runtime.procexec`: a gang of ranks, restarted whole from a
checkpoint) and the compile pool (:mod:`repro.compile.pool`: long-lived
workers, per-job retry and quarantine).  Each keeps only its policy; the
mechanisms they share live here, once: the fork context, the heartbeat
slab and beat thread, the worker's failure report, the control-queue
drain, the exit verdict, kill-and-join reaping, the ``atexit`` sweep of
live supervisors, and the typed error family.  Workers beat from a
daemon thread, so a live worker keeps beating through a long compute
and a stale beat means a *frozen* process (SIGSTOP, kernel wedge).

Stdlib only; ``multiprocessing`` is imported on first use.
"""

from __future__ import annotations

import atexit
import os
import queue as _queue
import signal
import threading
import time
import traceback
import weakref
from typing import Any, Callable, Iterable, Optional


# ---------------------------------------------------------------------------
# typed failures
# ---------------------------------------------------------------------------

class ExecutorError(RuntimeError):
    """A failure of (or inside) a supervised worker process.

    ``rank``/``phase``/``last_heartbeat`` identify the failing worker
    where the supervisor knows them: which rank, what application phase
    it last reported, and how many wall-clock seconds before detection it
    last proved liveness.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: Optional[int] = None,
        phase: Optional[str] = None,
        last_heartbeat: Optional[float] = None,
    ):
        detail = []
        if rank is not None:
            detail.append(f"rank {rank}")
        if phase:
            detail.append(f"phase {phase!r}")
        if last_heartbeat is not None:
            detail.append(f"last heartbeat {last_heartbeat:.2f}s ago")
        if detail:
            message = f"{message} ({', '.join(detail)})"
        super().__init__(message)
        self.rank = rank
        self.phase = phase
        self.last_heartbeat = last_heartbeat


class ExecutorUnavailable(ExecutorError):
    """Worker processes cannot run here (no fork start method)."""


class WorkerCrashed(ExecutorError):
    """A worker process died (signal, nonzero exit, or a clean exit that
    never delivered a result — a partial write)."""

    def __init__(self, message: str, *, exitcode: Optional[int] = None, **kw):
        super().__init__(message, **kw)
        self.exitcode = exitcode


class WorkerTimeout(ExecutorError):
    """A worker stopped heartbeating, or outlived its deadline.

    Workers beat from a background thread, so a stale heartbeat means the
    process is *frozen* (SIGSTOP, kernel wedge) — a live worker stuck in
    a long compute keeps beating and is bounded by a deadline instead."""


class ExecutorTimeout(ExecutorError):
    """The overall wall-clock ``timeout=`` budget was exhausted.

    Raised by both executors — the process supervisor and the virtual
    machine's ``run(timeout=...)`` guard — so harnesses catch one type.
    """


# ---------------------------------------------------------------------------
# fork + heartbeat
# ---------------------------------------------------------------------------

def fork_context(what: str):
    """The ``fork`` multiprocessing context; :class:`ExecutorUnavailable`
    naming *what* needed it when the platform has no fork."""
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    if "fork" not in methods:
        raise ExecutorUnavailable(
            f"{what} needs the fork start method (have {methods}): its "
            "workers inherit closures and module state by fork"
        )
    return mp.get_context("fork")


def heartbeat_slab(ctx, n: int):
    """A lock-free shared array of *n* beat stamps, all fresh."""
    hb = ctx.Array("d", n, lock=False)
    hb[:] = [time.monotonic()] * n
    return hb


def begin_worker(hb, slot: int, interval: float) -> threading.Event:
    """Worker-side setup: leave Ctrl-C to the parent (which tears its
    workers down deliberately instead of racing them to a half-flushed
    queue) and stamp ``hb[slot]`` from a daemon thread every *interval*
    seconds until the returned event is set."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            hb[slot] = time.monotonic()
            stop.wait(interval)

    threading.Thread(target=_beat, daemon=True,
                     name=f"heartbeat-{slot}").start()
    return stop


def report_failure(ctrl, ident: Any, exc: BaseException) -> bool:
    """Report *exc* to the parent as ``("err", ident, etype, message,
    traceback)``.  False if the control queue is torn."""
    try:
        ctrl.put(("err", ident, type(exc).__name__, str(exc),
                  traceback.format_exc()))
    except Exception:  # noqa: BLE001 - the parent detects the silence
        return False
    return True


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def drain(ctrl, handle: Callable[[Any], None], *, block: bool,
          poll: float) -> None:
    """Pass every message waiting on *ctrl* to ``handle(msg)``.

    With *block*, waits up to *poll* seconds for the first message.  A
    torn queue ends the drain; a frame that fails to unpickle (a worker
    killed mid-put) is dropped — a lost result is re-detected from the
    worker's exit or heartbeat.  Exceptions raised by *handle* propagate.
    """
    first = True
    while True:
        try:
            if block and first:
                msg = ctrl.get(timeout=poll)
            else:
                msg = ctrl.get_nowait()
        except _queue.Empty:
            return
        except (EOFError, OSError):  # queue torn down under us
            return
        except Exception:  # noqa: BLE001 - corrupted frame: drop it
            continue
        finally:
            first = False
        handle(msg)


def exit_verdict(exitcode: int) -> str:
    """How a worker that delivered no result ended."""
    if exitcode < 0:
        return f"killed by signal {-exitcode}"
    if exitcode:
        return f"exited with code {exitcode}"
    return "exited cleanly without delivering a result"


def reap(procs: Iterable, grace: float = 0.0) -> None:
    """Give *procs* up to *grace* seconds in total to exit on their own,
    then SIGKILL the rest and join them all.  SIGKILL, not SIGTERM: it
    also fells a SIGSTOPped worker, and no worker needs child-side
    cleanup — results are delivered whole or not at all."""
    procs = list(procs)
    deadline = time.monotonic() + grace
    for p in procs:
        if grace > 0:
            p.join(timeout=max(deadline - time.monotonic(), 0.1))
        if p.pid is not None and p.exitcode is None:
            try:
                os.kill(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # raced exit
                pass
    for p in procs:
        p.join(timeout=5.0)


def close_queues(queues: Iterable) -> None:
    """Release each queue's pipe and feeder thread (best effort)."""
    for q in queues:
        try:
            q.close()
            q.join_thread()
        except Exception:  # noqa: BLE001 - already torn down
            pass


#: supervisors with live children -> how to stop them at interpreter exit
_LIVE: "weakref.WeakKeyDictionary[Any, Callable[[Any], None]]" = (
    weakref.WeakKeyDictionary()
)


def track(owner: Any, stop: Callable[[Any], None]) -> None:
    """Register *owner*: ``stop(owner)`` kills and reaps its children if
    the interpreter exits while it is still tracked."""
    _LIVE[owner] = stop


def untrack(owner: Any) -> None:
    """*owner* has reaped its children itself."""
    _LIVE.pop(owner, None)


def _atexit_sweep() -> None:  # pragma: no cover - exercised on abrupt exit
    for owner, stop in list(_LIVE.items()):
        try:
            stop(owner)
        except Exception:  # noqa: BLE001 - best effort at exit
            pass


atexit.register(_atexit_sweep)


__all__ = [
    "ExecutorError",
    "ExecutorTimeout",
    "ExecutorUnavailable",
    "WorkerCrashed",
    "WorkerTimeout",
    "begin_worker",
    "close_queues",
    "drain",
    "exit_verdict",
    "fork_context",
    "heartbeat_slab",
    "reap",
    "report_failure",
    "track",
    "untrack",
]
