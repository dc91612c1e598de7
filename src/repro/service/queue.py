"""The persistent on-disk job queue behind ``repro serve``.

State layout under one ``--state-dir`` root::

    journal.jsonl              O_APPEND audit log, one record per state
                               transition (schema: api.JOURNAL_EVENTS)
    jobs/<job_id>.json         atomic per-job state file (authoritative)
    results/<content_key>.json result payloads, shared by content key
    checkpoints/<content_key>/ per-job ExperimentRunner checkpoint roots
    tenants.json               per-tenant budget ledger

The *state files* are the source of truth — each transition rewrites the
job's file atomically (:func:`repro.runtime.codec.atomic_write_json`),
so a crash can never leave a half-written record.  The *journal* is the
append-only history: every transition is also one O_APPEND JSON line
(single ``os.write``, the same multi-process-safe discipline as the
telemetry sink), schema-validated by ``api.validate_journal`` in CI.  A
torn final journal line (daemon killed mid-append) costs nothing: replay
never reads the journal, only humans and the validator do.

Recovery is therefore trivial and total: on boot the queue reads
``jobs/*.json``; every job found ``running`` belonged to a dead daemon
and is re-enqueued (``requeue`` journal event, ``job.requeued``
counter) — its rows are still checkpointed under its content key, so
the re-run resumes instead of recomputing.

Scheduling is tenant-fair: :meth:`JobQueue.next_job` round-robins over
tenants that have queued work, oldest job first within a tenant, so one
tenant's thousand-job campaign cannot starve another's single submit.
Budgets are wall-clock seconds per tenant (:class:`TenantLedger`);
charges are journaled and persisted, and an exhausted tenant's submits
are rejected with the stable ``budget-exhausted`` error code.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable

from .. import telemetry
from ..runtime.codec import CodecError, atomic_write_json, canonical_dumps, read_json
from .api import PROTOCOL_VERSION, TERMINAL_STATES, JobSpec, JobStatus
from .jobs import get_campaign, job_content_key, job_progress, normalized_spec


class BudgetExhausted(RuntimeError):
    """The tenant's compute budget has no seconds left."""


class UnknownJob(KeyError):
    """No job with that id in this service state."""


class TenantLedger:
    """Per-tenant wall-clock budget accounting, persisted atomically.

    ``budget_s`` is the uniform allowance granted to every tenant
    (None = unmetered).  Charges accumulate monotonically in
    ``tenants.json``; the ledger survives daemon restarts, so a tenant
    cannot reset its meter by bouncing the service.
    """

    def __init__(self, path: Path, budget_s: float | None = None) -> None:
        self.path = path
        self.budget_s = budget_s
        self._spent: dict[str, float] = {}
        payload = None
        try:
            payload = read_json(path)
        except CodecError:
            warnings.warn(
                f"corrupt tenant ledger {path}; starting a fresh one",
                RuntimeWarning,
                stacklevel=2,
            )
        if payload is not None:
            for tenant, spent in payload.get("spent_s", {}).items():
                if isinstance(tenant, str) and isinstance(spent, (int, float)):
                    self._spent[tenant] = float(spent)

    def spent(self, tenant: str) -> float:
        return self._spent.get(tenant, 0.0)

    def remaining(self, tenant: str) -> float | None:
        """Seconds left for ``tenant`` (None = unmetered)."""
        if self.budget_s is None:
            return None
        return max(0.0, self.budget_s - self.spent(tenant))

    def exhausted(self, tenant: str) -> bool:
        remaining = self.remaining(tenant)
        return remaining is not None and remaining <= 0.0

    def charge(self, tenant: str, seconds: float) -> float | None:
        """Charge ``seconds`` against ``tenant``; returns the remainder."""
        self._spent[tenant] = self.spent(tenant) + max(0.0, seconds)
        atomic_write_json(self.path, {"spent_s": dict(sorted(self._spent.items()))})
        return self.remaining(tenant)


class JobQueue:
    """Persistent multi-tenant job queue (see module docstring)."""

    def __init__(self, state_dir: str | Path, budget_s: float | None = None) -> None:
        self.root = Path(state_dir)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.checkpoints_dir = self.root / "checkpoints"
        self.journal_path = self.root / "journal.jsonl"
        for d in (self.root, self.jobs_dir, self.results_dir, self.checkpoints_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.ledger = TenantLedger(self.root / "tenants.json", budget_s)
        self._jobs: dict[str, JobStatus] = {}
        self._specs: dict[str, JobSpec] = {}
        # round-robin dispatch order; tenants join on first sight
        self._rr: OrderedDict[str, None] = OrderedDict()
        self._recover()

    # ----------------------------------------------------------------- #
    # persistence

    def journal(self, event: str, **fields: Any) -> None:
        """Append one schema-valid journal record (single O_APPEND write)."""
        record = {
            "v": PROTOCOL_VERSION,
            "ts": round(time.time(), 6),
            "event": event,
            **fields,
        }
        data = (canonical_dumps(record) + "\n").encode("utf-8")
        fd = os.open(
            self.journal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def _persist(self, status: JobStatus) -> None:
        spec = self._specs[status.job_id]
        atomic_write_json(
            self.jobs_dir / f"{status.job_id}.json",
            {"status": status.to_wire(), "spec": spec.to_wire()},
        )
        self._jobs[status.job_id] = status
        self._rr.setdefault(status.tenant, None)

    def _recover(self) -> None:
        requeued: list[str] = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                payload = read_json(path)
            except CodecError as exc:
                warnings.warn(
                    f"skipping corrupt job state file {path}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if payload is None:
                continue
            try:
                status = JobStatus.from_wire(payload["status"])
                spec = JobSpec.from_wire(payload["spec"])
            except (KeyError, ValueError) as exc:
                warnings.warn(
                    f"skipping unreadable job state file {path}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self._specs[status.job_id] = spec
            self._jobs[status.job_id] = status
            self._rr.setdefault(status.tenant, None)
            if status.state == "running":
                # a running job belonged to a dead daemon: re-enqueue it;
                # its checkpoints are keyed by content key, so it resumes
                requeued.append(status.job_id)
        for job_id in requeued:
            status = replace(
                self._jobs[job_id], state="queued", started_ts=None
            )
            self._persist(status)
            self.journal("requeue", job=job_id, reason="restart")
            telemetry.counter_add("job.requeued")

    # ----------------------------------------------------------------- #
    # paths shared with the daemon's worker children

    def result_path(self, content_key: str) -> Path:
        return self.results_dir / f"{content_key}.json"

    def checkpoint_root(self, content_key: str) -> Path:
        return self.checkpoints_dir / content_key

    # ----------------------------------------------------------------- #
    # lifecycle transitions

    def submit(self, spec: JobSpec) -> tuple[JobStatus, bool]:
        """Admit one job; returns ``(status, deduped)``.

        Raises :class:`~repro.service.jobs.UnknownCampaign` /
        :class:`~repro.service.jobs.ParamError` for a bad spec and
        :class:`BudgetExhausted` when the tenant's meter is spent.
        Cache-aware admission: when the content key matches a ``done``
        job whose result payload is still on disk, the new job is born
        ``done`` (``deduped_from`` set) without ever being scheduled.
        """
        spec = normalized_spec(spec)
        if self.ledger.exhausted(spec.tenant):
            raise BudgetExhausted(
                f"tenant {spec.tenant!r} has spent its "
                f"{self.ledger.budget_s:g}s budget"
            )
        content_key = job_content_key(spec)
        job_id = self._next_job_id()
        now = round(time.time(), 6)
        campaign = get_campaign(spec.campaign)
        rows_total = campaign.rows_total(campaign.normalize_params(spec.params))
        self._specs[job_id] = spec
        self.journal(
            "submit",
            job=job_id,
            campaign=spec.campaign,
            tenant=spec.tenant,
            content_key=content_key,
        )
        telemetry.counter_add("job.submitted")
        donor = self._dedup_donor(content_key)
        if donor is not None:
            status = JobStatus(
                job_id=job_id,
                campaign=spec.campaign,
                tenant=spec.tenant,
                state="done",
                content_key=content_key,
                submitted_ts=now,
                finished_ts=now,
                rows_done=donor.rows_done,
                rows_total=donor.rows_total,
                deduped_from=donor.job_id,
            )
            self._persist(status)
            self.journal("dedup", job=job_id, of=donor.job_id)
            telemetry.counter_add("job.dedup")
            telemetry.counter_add("cache.hit")
            return status, True
        status = JobStatus(
            job_id=job_id,
            campaign=spec.campaign,
            tenant=spec.tenant,
            state="queued",
            content_key=content_key,
            submitted_ts=now,
            rows_total=rows_total,
        )
        self._persist(status)
        return status, False

    def _dedup_donor(self, content_key: str) -> JobStatus | None:
        if not self.result_path(content_key).is_file():
            return None
        done = [
            j
            for j in self._jobs.values()
            if j.state == "done" and j.content_key == content_key
        ]
        if not done:
            return None
        # prefer the original computation over chained dedups
        originals = [j for j in done if j.deduped_from is None]
        pool = originals or done
        return min(pool, key=lambda j: (j.submitted_ts, j.job_id))

    def next_job(self) -> JobStatus | None:
        """Pick the next queued job, tenant-fair.

        Round-robins over tenants with queued work (oldest job first
        within a tenant); the chosen tenant goes to the back of the
        rotation.  Jobs of exhausted tenants fail immediately with a
        structured budget error instead of holding a worker.
        """
        while True:
            by_tenant: dict[str, list[JobStatus]] = {}
            for job in self._jobs.values():
                if job.state == "queued":
                    by_tenant.setdefault(job.tenant, []).append(job)
            if not by_tenant:
                return None
            for tenant in list(self._rr):
                if tenant not in by_tenant:
                    continue
                # rotate: this tenant moves to the back
                self._rr.move_to_end(tenant)
                job = min(
                    by_tenant[tenant], key=lambda j: (j.submitted_ts, j.job_id)
                )
                if self.ledger.exhausted(tenant):
                    self.mark_failed(
                        job.job_id,
                        f"tenant {tenant!r} budget exhausted before dispatch",
                    )
                    break  # re-scan: other tenants may still have work
                return job
            else:
                return None

    def mark_running(self, job_id: str, pid: int) -> JobStatus:
        job = self._get(job_id)
        status = replace(
            job,
            state="running",
            started_ts=round(time.time(), 6),
            attempts=job.attempts + 1,
        )
        self._persist(status)
        self.journal("start", job=job_id, attempt=status.attempts, pid=pid)
        return status

    def mark_done(self, job_id: str, elapsed_s: float) -> JobStatus:
        job = self._get(job_id)
        status = replace(
            job,
            state="done",
            finished_ts=round(time.time(), 6),
            rows_done=self._progress_of(job),
        )
        self._persist(status)
        self.journal("done", job=job_id, elapsed_s=round(elapsed_s, 6))
        telemetry.counter_add("job.completed")
        self._charge(job.tenant, elapsed_s)
        return status

    def mark_failed(self, job_id: str, error: str, elapsed_s: float = 0.0) -> JobStatus:
        job = self._get(job_id)
        status = replace(
            job,
            state="failed",
            finished_ts=round(time.time(), 6),
            error=error,
        )
        self._persist(status)
        self.journal("failed", job=job_id, error=error)
        telemetry.counter_add("job.failed")
        if elapsed_s > 0.0:
            self._charge(job.tenant, elapsed_s)
        return status

    def mark_cancelled(self, job_id: str, elapsed_s: float = 0.0) -> JobStatus:
        job = self._get(job_id)
        status = replace(
            job,
            state="cancelled",
            finished_ts=round(time.time(), 6),
            rows_done=self._progress_of(job),
        )
        self._persist(status)
        self.journal("cancel", job=job_id)
        telemetry.counter_add("job.cancelled")
        if elapsed_s > 0.0:
            self._charge(job.tenant, elapsed_s)
        return status

    def requeue(self, job_id: str, reason: str, elapsed_s: float = 0.0) -> JobStatus:
        """Put an interrupted job back in the queue (drain, worker loss)."""
        job = self._get(job_id)
        status = replace(
            job,
            state="queued",
            started_ts=None,
            rows_done=self._progress_of(job),
        )
        self._persist(status)
        self.journal("requeue", job=job_id, reason=reason)
        telemetry.counter_add("job.requeued")
        if elapsed_s > 0.0:
            self._charge(job.tenant, elapsed_s)
        return status

    def _charge(self, tenant: str, seconds: float) -> None:
        remaining = self.ledger.charge(tenant, seconds)
        record: dict[str, Any] = {
            "tenant": tenant,
            "charged_s": round(seconds, 6),
        }
        if remaining is not None:
            record["remaining_s"] = round(remaining, 6)
        self.journal("budget", **record)

    # ----------------------------------------------------------------- #
    # queries

    def _get(self, job_id: str) -> JobStatus:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def get(self, job_id: str) -> JobStatus:
        """One job's status with live row-level progress filled in."""
        job = self._get(job_id)
        if job.state in ("queued", "running"):
            done = self._progress_of(job)
            if done != job.rows_done:
                job = replace(job, rows_done=done)
                self._jobs[job_id] = job  # progress is derived; no persist
        return job

    def spec_of(self, job_id: str) -> JobSpec:
        spec = self._specs.get(job_id)
        if spec is None:
            raise UnknownJob(job_id)
        return spec

    def _progress_of(self, job: JobStatus) -> int | None:
        try:
            campaign = get_campaign(job.campaign)
        except ValueError:
            return job.rows_done
        done = job_progress(campaign, self.checkpoint_root(job.content_key))
        if done == 0 and job.rows_done:
            return job.rows_done  # checkpoints may have been vacuumed
        return done

    def list_jobs(self, tenant: str | None = None) -> tuple[JobStatus, ...]:
        """Every known job, newest submission first."""
        jobs: Iterable[JobStatus] = self._jobs.values()
        if tenant is not None:
            jobs = (j for j in jobs if j.tenant == tenant)
        return tuple(
            sorted(jobs, key=lambda j: (-j.submitted_ts, j.job_id))
        )

    def counts(self) -> dict[str, int]:
        out = {state: 0 for state in ("queued", "running", *TERMINAL_STATES)}
        for job in self._jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    def _next_job_id(self) -> str:
        seq = 0
        for job_id in self._jobs:
            if job_id.startswith("j") and job_id[1:].isdigit():
                seq = max(seq, int(job_id[1:]))
        return f"j{seq + 1:05d}"
