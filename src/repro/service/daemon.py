"""The ``repro serve`` asyncio daemon.

One process owns the :class:`~repro.service.queue.JobQueue` and a Unix
domain socket speaking newline-delimited v1 JSON (one request object per
line, one response line back — see :mod:`repro.service.api`).  All queue
state lives on the event-loop thread, so there is no locking; the only
concurrency is the pool of *job children*.

Each dispatched job runs in a forked child process
(:func:`repro.service.jobs.run_job_child`) whose exit code is the
verdict: 0 — result payload written atomically, 130 — drained
(SIGINT/SIGTERM; rows checkpointed, job resumable), anything else —
failed.  Inside the child the campaign runs exactly as it would from the
CLI: same :class:`~repro.experiments.runner.RunPolicy`, same
:class:`~repro.runtime.SupervisedPool` fleet when ``--jobs`` > 1, same
content-addressed result cache.  Cancelling a running job is SIGTERM to
its child; the existing drain machinery checkpoints completed rows
before the child exits, so a cancelled job's partial progress is never
lost.

Graceful shutdown mirrors the campaign runners: SIGTERM/SIGINT puts the
daemon in *draining* mode (new submits are refused with the ``draining``
error code), running children get SIGTERM and their jobs are re-enqueued
at their checkpointed position; a restarted daemon re-admits them from
the state directory and resumes — the acceptance bar is a byte-identical
result to an uninterrupted run.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import telemetry
from ..runtime.codec import canonical_dumps
from .api import (
    CancelRequest,
    CancelResponse,
    ErrorResponse,
    JobsRequest,
    JobsResponse,
    JobSpec,
    JobStatus,
    ResultRequest,
    ResultResponse,
    SchemaError,
    StatusRequest,
    StatusResponse,
    SubmitRequest,
    SubmitResponse,
    parse_request,
)
from .jobs import ParamError, UnknownCampaign, _child_main, load_result_payload
from .queue import BudgetExhausted, JobQueue, UnknownJob

#: housekeeping fallback interval for the dispatch loop.  Dispatch and
#: reap are *event-driven* — a submit wakes the dispatcher, a child exit
#: is noticed the moment its ``sentinel`` fd closes — so this tick only
#: bounds how often counters are flushed and state is re-checked after a
#: missed wake.  Keeping it slow matters: on small boxes a fast polling
#: loop steals CPU timeslices from the very jobs it supervises, which is
#: exactly what the service-overhead gate (BENCH_service.json, <3% vs
#: direct ``run_rows``) would flag.
_TICK_S = 0.25


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run.

    ``workers`` bounds *concurrent jobs*; each job may additionally fan
    out over ``jobs`` row-worker processes (the same ``--jobs`` meaning
    as every campaign subcommand).
    """

    state_dir: str | Path
    socket_path: str | Path | None = None
    workers: int = 1
    jobs: int = 1
    tenant_budget_s: float | None = None
    trace_path: str | Path | None = None
    cache_dir: str | Path | None = None
    #: deprecated v1 no-ops: a non-default value warns and is reset
    sim_backend: str = "auto"
    max_matrix_bytes: int | None = None
    row_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.sim_backend != "auto" or self.max_matrix_bytes is not None:
            from ..sim.metrics import reset_ignored_knobs

            reset_ignored_knobs(self)

    def resolved_socket(self) -> Path:
        if self.socket_path is not None:
            return Path(self.socket_path)
        return Path(self.state_dir) / "serve.sock"


@dataclass
class _Running:
    job_id: str
    process: multiprocessing.process.BaseProcess
    started: float
    cancel_requested: bool = False


class ServiceDaemon:
    """One ``repro serve`` instance (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.queue = JobQueue(
            config.state_dir, budget_s=config.tenant_budget_s
        )
        self.draining = False
        self._running: dict[str, _Running] = {}
        self._mp = multiprocessing.get_context("fork")
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self._exited: set[str] = set()

    # ----------------------------------------------------------------- #
    # request handling (synchronous; queue state is loop-thread-only)

    def handle_payload(self, payload: Any) -> dict[str, Any]:
        """One request in, one schema-valid response out.  Never raises:
        every failure becomes an :class:`ErrorResponse` wire object."""
        try:
            request = parse_request(payload)
        except SchemaError as exc:
            return ErrorResponse("bad-request", str(exc)).to_wire()
        try:
            if isinstance(request, SubmitRequest):
                return self._handle_submit(request).to_wire()
            if isinstance(request, StatusRequest):
                return StatusResponse(
                    job=self.queue.get(request.job_id)
                ).to_wire()
            if isinstance(request, ResultRequest):
                return self._handle_result(request).to_wire()
            if isinstance(request, CancelRequest):
                return self._handle_cancel(request).to_wire()
            if isinstance(request, JobsRequest):
                return JobsResponse(
                    jobs=self.queue.list_jobs(request.tenant)
                ).to_wire()
            return ErrorResponse(  # unreachable with a closed catalog
                "bad-request", f"unhandled op {payload.get('op')!r}"
            ).to_wire()
        except UnknownJob as exc:
            return ErrorResponse(
                "unknown-job", f"no job {exc.args[0]!r}"
            ).to_wire()
        except Exception as exc:  # daemon must answer, not die
            return ErrorResponse(
                "internal", f"{type(exc).__name__}: {exc}"
            ).to_wire()

    def _handle_submit(self, request: SubmitRequest) -> SubmitResponse | ErrorResponse:
        if self.draining:
            return ErrorResponse(
                "draining", "daemon is draining; resubmit after restart"
            )
        try:
            status, _deduped = self.queue.submit(request.spec)
        except UnknownCampaign as exc:
            return ErrorResponse("unknown-campaign", str(exc))
        except ParamError as exc:
            return ErrorResponse("bad-params", str(exc))
        except BudgetExhausted as exc:
            return ErrorResponse("budget-exhausted", str(exc))
        self._wake.set()  # dispatch immediately; don't wait out the tick
        return SubmitResponse(job=status)

    def _handle_result(self, request: ResultRequest) -> ResultResponse | ErrorResponse:
        job = self.queue.get(request.job_id)
        if job.state in ("queued", "running"):
            return ErrorResponse(
                "not-finished",
                f"job {job.job_id} is {job.state}; poll status until terminal",
            )
        if job.state == "done":
            payload = load_result_payload(
                self.queue.result_path(job.content_key)
            )
            if payload is None or "error" in payload:
                return ErrorResponse(
                    "internal",
                    f"result payload for {job.job_id} is missing or corrupt",
                )
            return ResultResponse(
                job_id=job.job_id,
                state=job.state,
                rows=list(payload.get("rows", [])),
                text=payload.get("text"),
            )
        # failed / cancelled: a structured error, not a payload
        return ResultResponse(
            job_id=job.job_id,
            state=job.state,
            error=job.error or job.state,
        )

    def _handle_cancel(self, request: CancelRequest) -> CancelResponse | ErrorResponse:
        job = self.queue.get(request.job_id)
        if job.state == "queued":
            return CancelResponse(job=self.queue.mark_cancelled(job.job_id))
        if job.state == "running":
            running = self._running.get(job.job_id)
            if running is None:  # dispatch raced; treat as queued
                return CancelResponse(
                    job=self.queue.mark_cancelled(job.job_id)
                )
            running.cancel_requested = True
            with contextlib.suppress(Exception):
                running.process.terminate()
            return CancelResponse(job=job)
        return ErrorResponse(
            "uncancellable", f"job {job.job_id} is already {job.state}"
        )

    # ----------------------------------------------------------------- #
    # dispatch

    def _policy_fields(self, content_key: str) -> dict[str, Any]:
        cfg = self.config
        return {
            "checkpoint_dir": str(self.queue.checkpoint_root(content_key)),
            "resume": True,
            "jobs": cfg.jobs,
            "trace_path": str(cfg.trace_path) if cfg.trace_path else None,
            "cache_dir": str(cfg.cache_dir) if cfg.cache_dir else None,
            "row_deadline_s": cfg.row_deadline_s,
        }

    def _start_job(self, job: JobStatus) -> None:
        spec = self.queue.spec_of(job.job_id)
        process = self._mp.Process(
            target=_child_main,
            args=(
                spec.to_wire(),
                self._policy_fields(job.content_key),
                str(self.queue.result_path(job.content_key)),
            ),
            name=f"repro-job-{job.job_id}",
            daemon=False,  # the child may run its own worker fleet
        )
        process.start()
        self._running[job.job_id] = _Running(
            job_id=job.job_id,
            process=process,
            started=time.monotonic(),
        )
        # event-driven reap: the child's sentinel fd becomes readable the
        # instant the process exits — no polling between exits
        sentinel = process.sentinel
        loop = asyncio.get_running_loop()

        def _on_exit() -> None:
            loop.remove_reader(sentinel)
            self._exited.add(job.job_id)
            self._wake.set()

        loop.add_reader(sentinel, _on_exit)
        self.queue.mark_running(job.job_id, pid=process.pid or 0)

    def _reap(self) -> None:
        """Collect exited children and apply their verdicts."""
        for job_id in list(self._running):
            entry = self._running[job_id]
            code = entry.process.exitcode
            if code is None:
                if job_id not in self._exited:
                    continue
                # the sentinel closed but the child is not waitable yet:
                # fd-table teardown lands an instant before the process
                # turns zombie, so a non-blocking poll here loses the
                # race and would park the job for a whole tick — a
                # blocking join is sub-millisecond at this point
                entry.process.join()
                code = entry.process.exitcode
                if code is None:  # pragma: no cover - defensive
                    continue
            self._exited.discard(job_id)
            del self._running[job_id]
            with contextlib.suppress(Exception):  # sentinel may be gone
                asyncio.get_running_loop().remove_reader(
                    entry.process.sentinel
                )
            entry.process.join()
            elapsed = time.monotonic() - entry.started
            if entry.cancel_requested:
                self.queue.mark_cancelled(job_id, elapsed_s=elapsed)
            elif code == 0:
                payload = load_result_payload(
                    self.queue.result_path(
                        self.queue.get(job_id).content_key
                    )
                )
                if payload is None:
                    self.queue.mark_failed(
                        job_id,
                        "job child exited 0 without writing a result",
                        elapsed_s=elapsed,
                    )
                else:
                    self.queue.mark_done(job_id, elapsed_s=elapsed)
            elif code == 130:
                reason = "drain" if self.draining else "interrupted"
                self.queue.requeue(job_id, reason, elapsed_s=elapsed)
            else:
                payload = load_result_payload(
                    self.queue.result_path(
                        self.queue.get(job_id).content_key
                    )
                )
                error = (
                    str(payload.get("error"))
                    if payload is not None and "error" in payload
                    else f"job child exited with code {code}"
                )
                self.queue.mark_failed(job_id, error, elapsed_s=elapsed)

    async def _dispatch_loop(self) -> None:
        while True:
            self._reap()
            if self.draining:
                if not self._running:
                    return
            else:
                while len(self._running) < max(1, self.config.workers):
                    job = self.queue.next_job()
                    if job is None:
                        break
                    self._start_job(job)
            telemetry.flush_counters()
            # sleep until woken (submit, child exit, drain) or the
            # housekeeping tick, whichever comes first
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._wake.wait(), timeout=_TICK_S)
            self._wake.clear()

    # ----------------------------------------------------------------- #
    # server

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        import json

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    response = ErrorResponse(
                        "bad-request", "request line is not valid JSON"
                    ).to_wire()
                else:
                    response = self.handle_payload(payload)
                writer.write(
                    (canonical_dumps(response) + "\n").encode("utf-8")
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _begin_drain(self) -> None:
        if self.draining:
            return
        self.draining = True
        counts = self.queue.counts()
        self.queue.journal(
            "drain",
            queued=counts.get("queued", 0),
            running=len(self._running),
        )
        for entry in self._running.values():
            with contextlib.suppress(Exception):
                entry.process.terminate()
        self._wake.set()
        self._stop.set()

    async def run(self) -> int:
        """Serve until drained; returns the process exit code."""
        # pre-import the campaign harness stack once: job children fork
        # from this process, so warming these modules here (instead of
        # inside each child's lazy first call) takes ~300ms off every
        # job — directly visible in the BENCH_service.json overhead gate
        import importlib

        importlib.import_module("repro.experiments")
        if self.config.trace_path is not None:
            telemetry.configure(path=self.config.trace_path)
        socket_path = self.config.resolved_socket()
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            socket_path.unlink()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._begin_drain)
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(socket_path)
        )
        self.queue.journal("boot", pid=os.getpid(), protocol="v1")
        print(
            f"repro serve: listening on {socket_path} "
            f"(state: {self.queue.root}, workers: {self.config.workers}, "
            f"jobs/campaign: {self.config.jobs})",
            flush=True,
        )
        dispatcher = asyncio.create_task(self._dispatch_loop())
        # a dispatcher crash must stop the server loudly, not hang it
        dispatcher.add_done_callback(lambda _t: self._stop.set())
        await self._stop.wait()
        # draining: let the dispatcher requeue every interrupted child
        await dispatcher
        server.close()
        await server.wait_closed()
        with contextlib.suppress(FileNotFoundError):
            socket_path.unlink()
        telemetry.flush_counters()
        counts = self.queue.counts()
        print(
            f"repro serve: drained (queued: {counts.get('queued', 0)}, "
            f"done: {counts.get('done', 0)}, failed: "
            f"{counts.get('failed', 0)})",
            flush=True,
        )
        return 0


def serve(config: ServeConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    daemon = ServiceDaemon(config)
    try:
        return asyncio.run(daemon.run())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 130
