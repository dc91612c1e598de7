"""Supervised worker fleet: crash/hang containment for campaign rows.

A bare ``concurrent.futures`` process pool fails the way the paper's
workload cannot afford: a worker that dies (segfault, OOM kill,
``os._exit`` deep in native code) raises ``BrokenProcessPool`` and
aborts every row in flight, and a worker hung in native code never
returns because :class:`~repro.runtime.budget.Budget` deadlines are
checked *cooperatively, in-process*.  :class:`SupervisedPool` replaces
it with a fleet the parent actively supervises:

* **its own worker processes** — one duplex pipe each, so a killed
  worker corrupts only its own channel, never a shared queue;
* **per-worker heartbeat files** — a daemon thread in each worker
  touches its file every ``heartbeat_interval_s``; a worker whose
  heartbeat goes stale (hung holding the GIL, stopped by the chaos
  harness, swapped to death) is detected and SIGKILLed even when no row
  deadline is set;
* **per-row wall-clock watchdogs** — a row dispatched under a deadline
  is allowed ``attempts × deadline + backoff + hang_grace_s`` of wall
  clock; past that the worker is SIGKILLed (the in-process budget
  clearly is not coming back);
* **pool rebuild + deterministic retry** — a crashed or hung worker is
  replaced and its row re-dispatched on the schedule
  :func:`~repro.runtime.outcome.run_with_retry` uses
  (``backoff_s * 2**attempt``, enforced as a not-before time so the
  fleet keeps serving other rows while one row backs off);
* **poison-row quarantine** — a row that takes its worker down
  ``worker_retries + 1`` times becomes a structured ``error`` outcome
  (``error_type="RowQuarantined"``) carrying the full process-level
  attempt history (exit codes, signals, detection kinds) in
  ``diagnostics["quarantine"]``; the campaign continues;
* **graceful drain** — SIGINT/SIGTERM (or :meth:`SupervisedPool.
  request_stop`) stops dispatching, kills in-flight workers, and raises
  :class:`CampaignInterrupted` so the driver can report "resumable at
  row k/n" instead of a ``concurrent.futures`` stack trace.  Completed
  rows were already delivered to ``on_result`` (which is where the
  experiment runner checkpoints them).

The pool is generic: it moves opaque picklable payloads to module-level
callables, so :mod:`repro.experiments.runner` can keep owning policy,
checkpointing, caching and telemetry wiring.  The chaos harness
(:mod:`repro.runtime.faultinject`'s ``REPRO_CHAOS`` plans) hooks in at
exactly two seams: the worker bootstrap re-arms plans from the
environment, and each row consults :func:`faultinject.chaos_row_action`
before computing — which is how ``repro chaos run`` proves all of the
above end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from pathlib import Path
from typing import Any, Callable

from .. import telemetry
from . import faultinject
from .outcome import RunOutcome, RunStatus

#: default extra wall clock a row may spend past its in-process budget
#: before the watchdog declares the worker hung
DEFAULT_HANG_GRACE_S = 30.0

#: default cadence of the worker heartbeat thread
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: supervision loop tick (result wait timeout / watchdog poll period)
_TICK_S = 0.05


class CampaignInterrupted(RuntimeError):
    """A campaign was stopped (SIGINT/SIGTERM) before finishing.

    Carries enough context for a clean one-line exit message; completed
    rows were already handed to the driver (and checkpointed there), so
    the campaign is resumable.
    """

    def __init__(self, done: int, total: int, experiment: str = "") -> None:
        self.done = done
        self.total = total
        self.experiment = experiment
        name = f"campaign {experiment!r}" if experiment else "campaign"
        super().__init__(
            f"{name} interrupted: resumable at row {done}/{total} — "
            f"completed rows are checkpointed; rerun with --resume"
        )


@dataclass
class WorkerFailure:
    """One process-level attempt failure (crash or hang) of one row."""

    kind: str                 # "crash" | "hang" | "stalled-heartbeat"
    worker: str               # worker name, e.g. "w3"
    exitcode: int | None      # raw Process.exitcode (negative = -signal)
    signal: int | None        # signal number when killed by one
    elapsed_s: float          # dispatch-to-detection wall clock
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view for quarantine diagnostics and reports."""
        return {
            "kind": self.kind,
            "worker": self.worker,
            "exitcode": self.exitcode,
            "signal": self.signal,
            "elapsed_s": round(self.elapsed_s, 6),
            "detail": self.detail,
        }


@dataclass
class PoolTask:
    """One unit of supervised work: an opaque payload keyed for chaos,
    quarantine reporting, and result routing."""

    index: int
    key: str
    payload: Any


@dataclass
class _Attempt:
    """A (re-)dispatchable row attempt with its retry state."""

    task: PoolTask
    attempt: int = 0
    not_before: float = 0.0     # monotonic; deterministic backoff gate
    failures: list[WorkerFailure] = field(default_factory=list)


@dataclass
class _Slot:
    """One live worker process and its supervision state."""

    name: str
    process: multiprocessing.process.BaseProcess
    conn: Connection
    heartbeat: Path
    busy: _Attempt | None = None
    dispatched_at: float = 0.0  # monotonic


# --------------------------------------------------------------------- #
# worker side


def _heartbeat_loop(path: Path, interval_s: float, stop: threading.Event) -> None:
    """Touch ``path`` every ``interval_s`` until told to stop."""
    while not stop.wait(interval_s):
        try:
            os.utime(path, None)
        except OSError:
            return  # heartbeat dir removed: parent is gone, stop quietly


def _enact_chaos(action: str, hb_stop: threading.Event) -> None:
    """Carry out a row-targeted chaos verdict inside the worker."""
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "exit":
        os._exit(42)
    elif action == "hang":
        # a worker that is alive but effectively dead: the heartbeat
        # stops, so only the stale-heartbeat monitor can see it
        hb_stop.set()
        while True:
            time.sleep(3600)
    elif action == "stall":
        # alive *and* heartbeating, but the row never finishes: only
        # the per-row deadline watchdog can see this one
        while True:
            time.sleep(3600)


def _worker_main(
    name: str,
    conn: Connection,
    heartbeat: Path,
    heartbeat_interval_s: float,
    row_fn: Callable[..., RunOutcome],
    row_arg: Any,
    init_fn: Callable[[Any], None] | None,
    init_arg: Any,
) -> None:
    """Worker process entry: serve row attempts until told to stop."""
    heartbeat.touch()
    hb_stop = threading.Event()
    hb = threading.Thread(
        target=_heartbeat_loop,
        args=(heartbeat, heartbeat_interval_s, hb_stop),
        daemon=True,
    )
    hb.start()
    faultinject.install_from_env()
    if init_fn is not None:
        init_fn(init_arg)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away
            if message is None:
                return
            task_index, key, attempt = message[0], message[1], message[2]
            chaos = faultinject.chaos_row_action(key, attempt)
            if chaos is not None:
                _enact_chaos(chaos, hb_stop)
            try:
                outcome = row_fn(row_arg, key, message[3], attempt)
            except BaseException as exc:  # row_fn contract violation
                outcome = RunOutcome(
                    RunStatus.ERROR,
                    error=f"worker row runner raised: {exc}",
                    error_type=type(exc).__name__,
                )
            try:
                conn.send((task_index, outcome))
            except Exception as exc:
                # unpicklable outcome: degrade to a structured error so
                # the parent never waits on a row that silently vanished
                conn.send(
                    (
                        task_index,
                        RunOutcome(
                            RunStatus.ERROR,
                            error=f"result not transferable: {exc}",
                            error_type=type(exc).__name__,
                        ),
                    )
                )
    finally:
        hb_stop.set()


# --------------------------------------------------------------------- #
# parent side


class SupervisedPool:
    """Worker fleet with heartbeats, watchdogs, retry and quarantine.

    Args:
        jobs: worker process count.
        row_fn: module-level callable
            ``row_fn(row_arg, key, payload, attempt) -> RunOutcome``
            executed inside workers (must pickle).
        row_arg: first argument forwarded to every ``row_fn`` call.
        init_fn / init_arg: optional per-worker bootstrap (telemetry and
            cache configuration), run once per worker process.
        row_allowance_s: wall-clock allowance per dispatched row before
            the watchdog kills the worker (None disables the watchdog —
            the stale-heartbeat monitor still runs).
        hang_grace_s: margin added to ``row_allowance_s``.
        worker_retries: process-level retries per row; a row failing
            ``worker_retries + 1`` times is quarantined.
        backoff_s: base of the deterministic re-dispatch backoff
            (``backoff_s * 2**attempt``, the ``run_with_retry`` schedule).
        heartbeat_interval_s: worker heartbeat cadence; a heartbeat older
            than ``max(10 × interval, 5 s)`` marks the worker hung.
        experiment: campaign label for spans and interrupt messages.
    """

    def __init__(
        self,
        jobs: int,
        row_fn: Callable[..., RunOutcome],
        row_arg: Any = None,
        init_fn: Callable[[Any], None] | None = None,
        init_arg: Any = None,
        row_allowance_s: float | None = None,
        hang_grace_s: float = DEFAULT_HANG_GRACE_S,
        worker_retries: int = 1,
        backoff_s: float = 0.0,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_stale_s: float | None = None,
        experiment: str = "",
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.row_fn = row_fn
        self.row_arg = row_arg
        self.init_fn = init_fn
        self.init_arg = init_arg
        self.row_allowance_s = row_allowance_s
        self.hang_grace_s = hang_grace_s
        self.worker_retries = max(0, worker_retries)
        self.backoff_s = backoff_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_stale_s = (
            heartbeat_stale_s
            if heartbeat_stale_s is not None
            else max(10.0 * heartbeat_interval_s, 5.0)
        )
        self.experiment = experiment
        self._ctx = multiprocessing.get_context()
        self._worker_seq = 0
        self._deaths = 0  # dead slots awaiting replacement (restart stat)
        self._stop = False
        self._stop_signal: int | None = None
        # session statistics (mirrored into telemetry counters)
        self.crashes = 0
        self.hangs = 0
        self.restarts = 0
        self.requeues = 0
        self.quarantined: dict[str, list[dict[str, Any]]] = {}

    # ------------------------------------------------------------------ #

    def request_stop(self, signum: int | None = None) -> None:
        """Ask the supervision loop to drain and raise
        :class:`CampaignInterrupted` (signal-handler safe)."""
        self._stop = True
        self._stop_signal = signum

    def run(
        self,
        tasks: list[PoolTask],
        on_result: Callable[[int, RunOutcome], None] | None = None,
    ) -> dict[int, RunOutcome]:
        """Run every task to a terminal outcome; returns them by index.

        ``on_result`` fires in the parent as each row completes (in
        completion order, not task order) — the experiment runner
        checkpoints there, so an interrupt never loses finished rows.
        """
        if not tasks:
            return {}
        results: dict[int, RunOutcome] = {}
        hb_dir = Path(tempfile.mkdtemp(prefix="repro-supervisor-"))
        pending: deque[_Attempt] = deque(_Attempt(task=t) for t in tasks)
        slots: list[_Slot] = []
        old_handlers: list[tuple[int, Any]] = []

        def deliver(index: int, outcome: RunOutcome) -> None:
            # every terminal verdict — computed, errored, or quarantined —
            # lands here exactly once; len(results) is the done counter
            results[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                old_handlers.append((signum, signal.getsignal(signum)))
                signal.signal(
                    signum,
                    lambda s, frame: self.request_stop(s),
                )
        with telemetry.span(
            "supervisor.run", experiment=self.experiment, jobs=self.jobs,
            rows=len(tasks),
        ) as sp:
            try:
                self._loop(tasks, pending, slots, hb_dir, deliver, results)
            except KeyboardInterrupt:
                # raised between handler installation windows (or with no
                # handler installed, e.g. off the main thread)
                self._stop = True
            finally:
                self._shutdown(slots)
                shutil.rmtree(hb_dir, ignore_errors=True)
                for signum, handler in old_handlers:
                    signal.signal(signum, handler)
                sp.set(
                    crashes=self.crashes,
                    hangs=self.hangs,
                    restarts=self.restarts,
                    quarantined=len(self.quarantined),
                    interrupted=self._stop,
                )
        telemetry.flush_counters()
        if self._stop:
            raise CampaignInterrupted(
                done=len(results), total=len(tasks), experiment=self.experiment
            )
        return results

    # ------------------------------------------------------------------ #
    # supervision loop internals

    def _spawn_slot(self, hb_dir: Path) -> _Slot:
        self._worker_seq += 1
        name = f"w{self._worker_seq}"
        heartbeat = hb_dir / f"hb-{name}"
        heartbeat.touch()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                name,
                child_conn,
                heartbeat,
                self.heartbeat_interval_s,
                self.row_fn,
                self.row_arg,
                self.init_fn,
                self.init_arg,
            ),
            name=f"repro-supervised-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Slot(
            name=name, process=process, conn=parent_conn, heartbeat=heartbeat
        )

    def _row_deadline_for(self, slot: _Slot) -> float | None:
        """Absolute monotonic time after which ``slot``'s row is hung."""
        if self.row_allowance_s is None:
            return None
        return slot.dispatched_at + self.row_allowance_s + self.hang_grace_s

    def _heartbeat_stale(self, slot: _Slot, now_wall: float) -> bool:
        try:
            mtime = slot.heartbeat.stat().st_mtime
        except OSError:
            return False  # not yet created or dir being torn down
        return (now_wall - mtime) > self.heartbeat_stale_s

    def _kill_slot(self, slot: _Slot) -> None:
        try:
            slot.process.kill()
        except (OSError, ValueError):
            pass
        slot.process.join(timeout=5.0)
        try:
            slot.conn.close()
        except OSError:
            pass

    def _fail_attempt(
        self,
        slot: _Slot,
        pending: deque[_Attempt],
        deliver: Callable[[int, RunOutcome], None],
        kind: str,
        detail: str,
    ) -> None:
        """Record a process-level failure; requeue or quarantine the row."""
        attempt = slot.busy
        slot.busy = None
        exitcode = slot.process.exitcode
        failure = WorkerFailure(
            kind=kind,
            worker=slot.name,
            exitcode=exitcode,
            signal=-exitcode if exitcode is not None and exitcode < 0 else None,
            elapsed_s=time.monotonic() - slot.dispatched_at,
            detail=detail,
        )
        if kind == "crash":
            self.crashes += 1
            telemetry.counter_add("supervisor.crashes")
        else:
            self.hangs += 1
            telemetry.counter_add("supervisor.hangs")
        if attempt is None:
            return  # idle worker died between rows: nothing to requeue
        attempt.failures.append(failure)
        attempts_made = attempt.attempt + 1
        if attempts_made <= self.worker_retries:
            delay = self.backoff_s * (2 ** attempt.attempt)
            attempt.attempt += 1
            attempt.not_before = time.monotonic() + delay
            pending.append(attempt)
            self.requeues += 1
            telemetry.counter_add("supervisor.requeues")
            return
        history = [f.to_dict() for f in attempt.failures]
        self.quarantined[attempt.task.key] = history
        telemetry.counter_add("supervisor.quarantined")
        last = attempt.failures[-1]
        outcome = RunOutcome(
            RunStatus.ERROR,
            error=(
                f"row {attempt.task.key!r} quarantined after "
                f"{attempts_made} process-level attempts "
                f"(last: {last.kind}, exitcode {last.exitcode})"
            ),
            error_type="RowQuarantined",
            elapsed_s=sum(f.elapsed_s for f in attempt.failures),
            attempts=attempts_made,
            diagnostics={
                "quarantine": {
                    "attempts": history,
                    "worker_retries": self.worker_retries,
                }
            },
        )
        deliver(attempt.task.index, outcome)

    def _handle_dead_slot(
        self,
        slot: _Slot,
        slots: list[_Slot],
        pending: deque[_Attempt],
        deliver: Callable[[int, RunOutcome], None],
        kind: str,
        detail: str,
    ) -> None:
        if kind != "crash":
            self._kill_slot(slot)
        else:
            slot.process.join(timeout=5.0)
            try:
                slot.conn.close()
            except OSError:
                pass
        self._fail_attempt(slot, pending, deliver, kind, detail)
        slots.remove(slot)
        self._deaths += 1

    def _loop(
        self,
        tasks: list[PoolTask],
        pending: deque[_Attempt],
        slots: list[_Slot],
        hb_dir: Path,
        deliver: Callable[[int, RunOutcome], None],
        results: dict[int, RunOutcome],
    ) -> None:
        total = len(tasks)
        while len(results) < total and not self._stop:
            # 1. keep the fleet at strength while work remains
            want = min(self.jobs, len(pending) + sum(
                1 for s in slots if s.busy is not None
            ))
            while len(slots) < want:
                slots.append(self._spawn_slot(hb_dir))
                if self._deaths > 0:
                    self._deaths -= 1
                    self.restarts += 1
                    telemetry.counter_add("supervisor.restarts")

            # 2. dispatch due attempts to idle workers
            now = time.monotonic()
            idle = [s for s in slots if s.busy is None]
            deferred: list[_Attempt] = []
            while idle and pending:
                attempt = pending.popleft()
                if attempt.not_before > now:
                    deferred.append(attempt)
                    continue
                slot = idle.pop()
                try:
                    slot.conn.send(
                        (
                            attempt.task.index,
                            attempt.task.key,
                            attempt.attempt,
                            attempt.task.payload,
                        )
                    )
                except (OSError, ValueError) as exc:
                    # worker died before/while receiving: retry elsewhere
                    pending.appendleft(attempt)
                    slot.busy = None
                    self._handle_dead_slot(
                        slots=slots,
                        slot=slot,
                        pending=pending,
                        deliver=deliver,
                        kind="crash",
                        detail=f"dispatch failed: {exc}",
                    )
                    break
                slot.busy = attempt
                slot.dispatched_at = time.monotonic()
            pending.extend(deferred)

            # 3. wait for results (or a tick)
            busy = [s for s in slots if s.busy is not None]
            if not busy and not pending:
                break  # all delivered (quarantine counts as delivered)
            if busy:
                ready = connection_wait([s.conn for s in busy], timeout=_TICK_S)
            else:
                ready = []
                time.sleep(_TICK_S)  # everything pending is backing off
            for slot in [s for s in busy if s.conn in ready]:
                try:
                    task_index, outcome = slot.conn.recv()
                except (EOFError, OSError) as exc:
                    self._handle_dead_slot(
                        slot, slots, pending, deliver,
                        kind="crash", detail=f"pipe closed mid-row: {exc}",
                    )
                    continue
                slot.busy = None
                deliver(task_index, outcome)

            # 4. reap workers that died without a readable pipe event
            now_mono = time.monotonic()
            now_wall = time.time()
            for slot in list(slots):
                if not slot.process.is_alive() and slot.busy is not None:
                    # crash surfaced via waitpid before the pipe EOF; let
                    # the EOF path above handle it next tick unless the
                    # pipe is already drained
                    if not slot.conn.poll():
                        self._handle_dead_slot(
                            slot, slots, pending, deliver,
                            kind="crash",
                            detail=f"worker exited (code {slot.process.exitcode})",
                        )
                    continue
                if slot.busy is None:
                    if not slot.process.is_alive():
                        slots.remove(slot)  # idle death: replace next tick
                        self._deaths += 1
                    continue
                # 5. watchdog + stale-heartbeat checks for busy workers
                deadline = self._row_deadline_for(slot)
                if deadline is not None and now_mono > deadline:
                    self._handle_dead_slot(
                        slot, slots, pending, deliver,
                        kind="hang",
                        detail=(
                            f"row exceeded its {self.row_allowance_s:g}s "
                            f"allowance + {self.hang_grace_s:g}s grace"
                        ),
                    )
                    continue
                if (
                    now_mono - slot.dispatched_at > self.heartbeat_stale_s
                    and self._heartbeat_stale(slot, now_wall)
                ):
                    self._handle_dead_slot(
                        slot, slots, pending, deliver,
                        kind="stalled-heartbeat",
                        detail=(
                            f"no heartbeat for more than "
                            f"{self.heartbeat_stale_s:g}s"
                        ),
                    )

    def _shutdown(self, slots: list[_Slot]) -> None:
        """Stop every worker: polite stop for idle, SIGKILL for busy."""
        for slot in slots:
            if slot.busy is None and slot.process.is_alive():
                try:
                    slot.conn.send(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for slot in slots:
            timeout = max(0.0, deadline - time.monotonic())
            slot.process.join(timeout=timeout)
            if slot.process.is_alive():
                self._kill_slot(slot)
            try:
                slot.conn.close()
            except OSError:
                pass
        slots.clear()
