"""The frozen ``v1`` wire schema of the campaign job service.

Every message that crosses the ``repro serve`` socket — and every record
appended to the service journal — is described here as a frozen
dataclass with an explicit wire codec, and validated the same way
telemetry trace records are: against a *closed* catalog.  A field or
operation missing from this module does not exist in ``v1``; adding one
is a deliberate, reviewable schema change, not drift.

Shapes:

* **requests** (client → daemon): an envelope
  ``{"v": "v1", "op": <op>, ...fields}`` — see :data:`REQUEST_FIELDS`;
* **responses** (daemon → client): ``{"v": "v1", "ok": true|false,
  "op": <op>, ...fields}`` — see :data:`RESPONSE_FIELDS`; failures are
  always an :class:`ErrorResponse` (``ok: false``) with a stable
  machine-readable ``code``;
* **journal records** (daemon → ``journal.jsonl``): one O_APPEND JSON
  line per job state transition — see :data:`JOURNAL_EVENTS`.

:func:`validate_message` / :func:`validate_journal_record` are the
schema gates the tests and the ``serve-smoke`` CI job run over live
traffic; :func:`parse_request` / :func:`parse_response` are the typed
decoders the daemon and client use (both raise :class:`SchemaError` on
any violation — a malformed peer is an error verdict, never undefined
behaviour).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

#: the frozen protocol generation; bump only with a new, parallel schema
PROTOCOL_VERSION = "v1"

#: every state a job can be in (terminal: done/failed/cancelled)
JOB_STATES = frozenset({"queued", "running", "done", "failed", "cancelled"})

#: states a job never leaves
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: every request operation the daemon understands
OPS = frozenset({"submit", "status", "result", "cancel", "jobs"})

#: stable machine-readable failure codes carried by ErrorResponse
ERROR_CODES = frozenset(
    {
        "bad-request",      # unparseable or schema-invalid request
        "unknown-job",      # job id not present in this service state
        "unknown-campaign", # campaign name not in the registry
        "bad-params",       # campaign params failed validation
        "not-finished",     # result requested for a non-terminal job
        "uncancellable",    # cancel on an already-terminal job
        "budget-exhausted", # the tenant's compute budget is spent
        "draining",         # daemon is shutting down; resubmit later
        "internal",         # daemon-side failure (see message)
    }
)


class SchemaError(ValueError):
    """A wire message or journal record violates the v1 schema."""


_BATCH = "run campaigns with the repro CLI (--cache, --resume, --jobs)"

#: the v1 service names in their one release of DeprecationWarning
#: (docs/ATTACK_API.md, "Deprecated in 1.1.0"), each with what replaces it
DEPRECATED_NAMES: dict[str, str] = {
    "JobSpec": "call run_table1/run_table2/run_attack_matrix directly",
    "JobStatus": "--resume reports progress from the checkpoint directory",
    "execute_job": "call print_table1(run_table1(...)) and friends; "
    "rows are dataclasses.asdict(row)",
    "job_content_key": "--cache keys every row by its content",
    "ServeConfig": _BATCH,
    "serve": _BATCH,
    "ServiceClient": _BATCH,
    "ServiceError": _BATCH,
}


def warn_deprecated(name: str, stacklevel: int = 3) -> None:
    """Warn that the v1 service name ``name`` goes away in 1.2.0.

    Raised by ``repro.<name>`` resolution and by calling :func:`serve`
    or :class:`ServiceClient`; the daemon's own code paths never call
    it.  ``stacklevel`` blames the caller of the deprecated spelling.
    """
    warnings.warn(
        f"repro.{name} is deprecated and will be removed in 1.2.0: "
        f"{DEPRECATED_NAMES[name]}",
        DeprecationWarning,
        stacklevel=stacklevel,
    )


# --------------------------------------------------------------------- #
# messages


@dataclass(frozen=True)
class JobSpec:
    """What to run: a campaign name plus its parameter mapping.

    The spec is the *identity* of a job — its blake2b content key (see
    :func:`repro.service.jobs.job_content_key`) is derived from exactly
    these fields, which is what makes duplicate submissions dedupe and
    drained jobs resume.  ``params`` must be a JSON-able string-keyed
    mapping; unknown keys are rejected at submit time by the campaign
    registry, not silently dropped.
    """

    campaign: str
    params: dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"

    def to_wire(self) -> dict[str, Any]:
        return {
            "campaign": self.campaign,
            "params": dict(self.params),
            "tenant": self.tenant,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "JobSpec":
        campaign = payload.get("campaign")
        params = payload.get("params", {})
        tenant = payload.get("tenant", "default")
        if not isinstance(campaign, str) or not campaign:
            raise SchemaError("JobSpec.campaign must be a non-empty string")
        if not isinstance(params, Mapping):
            raise SchemaError("JobSpec.params must be a mapping")
        for key in params:
            if not isinstance(key, str):
                raise SchemaError(
                    f"JobSpec.params key {key!r} is not a string"
                )
        if not isinstance(tenant, str) or not tenant:
            raise SchemaError("JobSpec.tenant must be a non-empty string")
        return cls(campaign=campaign, params=dict(params), tenant=tenant)


@dataclass(frozen=True)
class JobStatus:
    """One job's full externally visible state.

    ``rows_done``/``rows_total`` are row-level progress read from the
    job's checkpoint directory (None when the campaign's row count is
    not known up front); ``deduped_from`` names the earlier identical
    job whose result this one was admitted against.
    """

    job_id: str
    campaign: str
    tenant: str
    state: str
    content_key: str
    submitted_ts: float
    started_ts: float | None = None
    finished_ts: float | None = None
    rows_done: int | None = None
    rows_total: int | None = None
    deduped_from: str | None = None
    error: str | None = None
    attempts: int = 0

    def to_wire(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "campaign": self.campaign,
            "tenant": self.tenant,
            "state": self.state,
            "content_key": self.content_key,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "rows_done": self.rows_done,
            "rows_total": self.rows_total,
            "deduped_from": self.deduped_from,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "JobStatus":
        err = _check_fields("JobStatus", payload, _JOB_STATUS_FIELDS)
        if err is not None:
            raise SchemaError(err)
        if payload["state"] not in JOB_STATES:
            raise SchemaError(f"unknown job state {payload['state']!r}")
        return cls(
            job_id=payload["job_id"],
            campaign=payload["campaign"],
            tenant=payload["tenant"],
            state=payload["state"],
            content_key=payload["content_key"],
            submitted_ts=float(payload["submitted_ts"]),
            started_ts=_opt_float(payload.get("started_ts")),
            finished_ts=_opt_float(payload.get("finished_ts")),
            rows_done=_opt_int(payload.get("rows_done")),
            rows_total=_opt_int(payload.get("rows_total")),
            deduped_from=payload.get("deduped_from"),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 0)),
        )


@dataclass(frozen=True)
class SubmitRequest:
    """Submit one campaign job; answered by :class:`SubmitResponse`."""

    spec: JobSpec

    op = "submit"

    def to_wire(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "op": self.op, **self.spec.to_wire()}


@dataclass(frozen=True)
class StatusRequest:
    """Ask for one job's :class:`JobStatus`."""

    job_id: str

    op = "status"

    def to_wire(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "op": self.op, "job_id": self.job_id}


@dataclass(frozen=True)
class ResultRequest:
    """Fetch a finished job's result payload."""

    job_id: str

    op = "result"

    def to_wire(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "op": self.op, "job_id": self.job_id}


@dataclass(frozen=True)
class CancelRequest:
    """Cancel a queued or running job."""

    job_id: str

    op = "cancel"

    def to_wire(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "op": self.op, "job_id": self.job_id}


@dataclass(frozen=True)
class JobsRequest:
    """List jobs, optionally for one tenant only."""

    tenant: str | None = None

    op = "jobs"

    def to_wire(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "op": self.op, "tenant": self.tenant}


@dataclass(frozen=True)
class SubmitResponse:
    """Submit verdict: the job's initial status (``done`` immediately
    when admission deduplicated it against an identical completed job)."""

    job: JobStatus

    op = "submit"

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "op": self.op,
            "job": self.job.to_wire(),
        }


@dataclass(frozen=True)
class StatusResponse:
    """One job's current status."""

    job: JobStatus

    op = "status"

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "op": self.op,
            "job": self.job.to_wire(),
        }


@dataclass(frozen=True)
class ResultResponse:
    """A finished job's payload: the table rows and their rendered text
    (``done``), or the structured error (``failed``/``cancelled``)."""

    job_id: str
    state: str
    rows: list[dict[str, Any]] | None = None
    text: str | None = None
    error: str | None = None

    op = "result"

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "op": self.op,
            "job_id": self.job_id,
            "state": self.state,
            "rows": self.rows,
            "text": self.text,
            "error": self.error,
        }


@dataclass(frozen=True)
class CancelResponse:
    """Cancel verdict: the job's resulting status."""

    job: JobStatus

    op = "cancel"

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "op": self.op,
            "job": self.job.to_wire(),
        }


@dataclass(frozen=True)
class JobsResponse:
    """Every known job's status, newest first."""

    jobs: tuple[JobStatus, ...] = ()

    op = "jobs"

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "op": self.op,
            "jobs": [j.to_wire() for j in self.jobs],
        }


@dataclass(frozen=True)
class ErrorResponse:
    """Any failed operation: a stable ``code`` plus a human message."""

    code: str
    message: str
    op: str = "error"

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": False,
            "op": self.op,
            "code": self.code,
            "message": self.message,
        }


#: every v1 message type, for exhaustive schema tests
MESSAGE_TYPES = (
    SubmitRequest,
    StatusRequest,
    ResultRequest,
    CancelRequest,
    JobsRequest,
    SubmitResponse,
    StatusResponse,
    ResultResponse,
    CancelResponse,
    JobsResponse,
    ErrorResponse,
)


# --------------------------------------------------------------------- #
# field tables (the machine-checkable catalog)

_OptStr = (str, type(None))
_OptNum = (int, float, type(None))
_OptInt = (int, type(None))

_JOB_STATUS_FIELDS: tuple[tuple[str, Any, bool], ...] = (
    # (field, types, required)
    ("job_id", str, True),
    ("campaign", str, True),
    ("tenant", str, True),
    ("state", str, True),
    ("content_key", str, True),
    ("submitted_ts", (int, float), True),
    ("started_ts", _OptNum, False),
    ("finished_ts", _OptNum, False),
    ("rows_done", _OptInt, False),
    ("rows_total", _OptInt, False),
    ("deduped_from", _OptStr, False),
    ("error", _OptStr, False),
    ("attempts", int, False),
)

#: required/optional request fields per op (beyond the envelope)
REQUEST_FIELDS: dict[str, tuple[tuple[str, Any, bool], ...]] = {
    "submit": (
        ("campaign", str, True),
        ("params", dict, False),
        ("tenant", str, False),
    ),
    "status": (("job_id", str, True),),
    "result": (("job_id", str, True),),
    "cancel": (("job_id", str, True),),
    "jobs": (("tenant", _OptStr, False),),
}

#: required/optional ``ok: true`` response fields per op
RESPONSE_FIELDS: dict[str, tuple[tuple[str, Any, bool], ...]] = {
    "submit": (("job", dict, True),),
    "status": (("job", dict, True),),
    "result": (
        ("job_id", str, True),
        ("state", str, True),
        ("rows", (list, type(None)), False),
        ("text", _OptStr, False),
        ("error", _OptStr, False),
    ),
    "cancel": (("job", dict, True),),
    "jobs": (("jobs", list, True),),
}

_ERROR_FIELDS: tuple[tuple[str, Any, bool], ...] = (
    ("code", str, True),
    ("message", str, True),
)


def _opt_float(v: Any) -> float | None:
    return None if v is None else float(v)


def _opt_int(v: Any) -> int | None:
    return None if v is None else int(v)


def _check_fields(
    label: str,
    payload: Mapping[str, Any],
    table: tuple[tuple[str, Any, bool], ...],
) -> str | None:
    for name, types, required in table:
        if name not in payload or payload[name] is None:
            if required:
                return f"{label}: missing required field {name!r}"
            continue
        value = payload[name]
        if isinstance(value, bool) and types is not bool:
            return f"{label}: field {name!r} has type bool, expected {types}"
        if not isinstance(value, types):
            return (
                f"{label}: field {name!r} has type "
                f"{type(value).__name__}, expected {types}"
            )
    return None


def validate_message(payload: Mapping[str, Any]) -> str | None:
    """Validate one wire message (request or response) against v1.

    Returns an error string, or None when the message is schema-valid.
    Mirrors :func:`repro.telemetry.schema.validate_record`: unknown
    operations, missing fields and wrong field types are all violations
    — the catalog is closed.
    """
    if not isinstance(payload, Mapping):
        return "message is not a JSON object"
    if payload.get("v") != PROTOCOL_VERSION:
        return (
            f"unsupported protocol version {payload.get('v')!r} "
            f"(this library speaks {PROTOCOL_VERSION!r})"
        )
    op = payload.get("op")
    if "ok" not in payload:  # request
        if op not in OPS:
            return f"unknown request op {op!r}"
        err = _check_fields(f"request[{op}]", payload, REQUEST_FIELDS[op])
        if err is not None:
            return err
        if op == "submit":
            try:
                JobSpec.from_wire(payload)
            except SchemaError as exc:
                return str(exc)
        return None
    # response
    if not isinstance(payload["ok"], bool):
        return "response 'ok' must be a boolean"
    if not payload["ok"]:
        err = _check_fields("response[error]", payload, _ERROR_FIELDS)
        if err is not None:
            return err
        if payload["code"] not in ERROR_CODES:
            return f"unknown error code {payload['code']!r}"
        return None
    if op not in OPS:
        return f"unknown response op {op!r}"
    err = _check_fields(f"response[{op}]", payload, RESPONSE_FIELDS[op])
    if err is not None:
        return err
    for status_payload in _embedded_statuses(payload):
        if not isinstance(status_payload, Mapping):
            return f"response[{op}]: embedded job status is not an object"
        err = _check_fields(
            "JobStatus", status_payload, _JOB_STATUS_FIELDS
        )
        if err is not None:
            return err
        if status_payload["state"] not in JOB_STATES:
            return f"unknown job state {status_payload['state']!r}"
    if op == "result" and payload["state"] not in JOB_STATES:
        return f"unknown job state {payload['state']!r}"
    return None


def _embedded_statuses(payload: Mapping[str, Any]) -> list[Any]:
    if "job" in payload and payload["job"] is not None:
        return [payload["job"]]
    if "jobs" in payload and isinstance(payload["jobs"], list):
        return list(payload["jobs"])
    return []


def parse_request(
    payload: Mapping[str, Any],
) -> "SubmitRequest | StatusRequest | ResultRequest | CancelRequest | JobsRequest":
    """Decode a request envelope into its typed message.

    Raises :class:`SchemaError` on any schema violation — the daemon
    turns that into a ``bad-request`` :class:`ErrorResponse`.
    """
    err = validate_message(payload)
    if err is not None:
        raise SchemaError(err)
    if "ok" in payload:
        raise SchemaError("expected a request, got a response envelope")
    op = payload["op"]
    if op == "submit":
        return SubmitRequest(spec=JobSpec.from_wire(payload))
    if op == "status":
        return StatusRequest(job_id=payload["job_id"])
    if op == "result":
        return ResultRequest(job_id=payload["job_id"])
    if op == "cancel":
        return CancelRequest(job_id=payload["job_id"])
    return JobsRequest(tenant=payload.get("tenant"))


def parse_response(
    payload: Mapping[str, Any],
) -> "SubmitResponse | StatusResponse | ResultResponse | CancelResponse | JobsResponse | ErrorResponse":
    """Decode a response envelope into its typed message (strict)."""
    err = validate_message(payload)
    if err is not None:
        raise SchemaError(err)
    if "ok" not in payload:
        raise SchemaError("expected a response, got a request envelope")
    if not payload["ok"]:
        return ErrorResponse(
            code=payload["code"],
            message=payload["message"],
            op=payload.get("op", "error"),
        )
    op = payload["op"]
    if op == "submit":
        return SubmitResponse(job=JobStatus.from_wire(payload["job"]))
    if op == "status":
        return StatusResponse(job=JobStatus.from_wire(payload["job"]))
    if op == "cancel":
        return CancelResponse(job=JobStatus.from_wire(payload["job"]))
    if op == "jobs":
        return JobsResponse(
            jobs=tuple(JobStatus.from_wire(j) for j in payload["jobs"])
        )
    return ResultResponse(
        job_id=payload["job_id"],
        state=payload["state"],
        rows=payload.get("rows"),
        text=payload.get("text"),
        error=payload.get("error"),
    )


# --------------------------------------------------------------------- #
# journal records


#: every event the service journal may carry, with required extra fields
JOURNAL_EVENTS: dict[str, tuple[tuple[str, Any, bool], ...]] = {
    "boot": (("pid", int, True), ("protocol", str, True)),
    "submit": (
        ("job", str, True),
        ("campaign", str, True),
        ("tenant", str, True),
        ("content_key", str, True),
    ),
    "dedup": (("job", str, True), ("of", str, True)),
    "start": (("job", str, True), ("attempt", int, True), ("pid", int, True)),
    "done": (("job", str, True), ("elapsed_s", (int, float), True)),
    "failed": (("job", str, True), ("error", str, True)),
    "cancel": (("job", str, True),),
    "requeue": (("job", str, True), ("reason", str, True)),
    "budget": (
        ("tenant", str, True),
        ("charged_s", (int, float), True),
        ("remaining_s", _OptNum, False),
    ),
    "drain": (("queued", int, True), ("running", int, True)),
}


def validate_journal_record(record: Mapping[str, Any]) -> str | None:
    """Validate one journal record; returns an error string or None."""
    if not isinstance(record, Mapping):
        return "journal record is not a JSON object"
    if record.get("v") != PROTOCOL_VERSION:
        return f"journal record has unsupported version {record.get('v')!r}"
    ts = record.get("ts")
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        return "journal record 'ts' must be a number"
    event = record.get("event")
    if event not in JOURNAL_EVENTS:
        return f"unknown journal event {event!r}"
    return _check_fields(
        f"journal[{event}]", record, JOURNAL_EVENTS[event]
    )


def validate_journal(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, error)`` for every invalid journal record.

    An empty iteration means the journal is schema-valid.  A torn final
    line (daemon killed mid-append) is reported like any other violation
    — the queue's replay path tolerates it, the validator does not.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                yield lineno, "journal line is not valid JSON"
                continue
            err = validate_journal_record(record)
            if err is not None:
                yield lineno, err
