"""Campaign job service: async submit/status/result over the fleet.

Deprecated in 1.1.0 and removed in 1.2.0: the campaign CLI calls the
harnesses directly, and ``--cache``/``--resume``/``--jobs`` cover the
service's dedup, restart and parallelism (docs/SERVICE.md).

The paper's thesis is that the *oracle* is the asset to protect — which
makes metered, budgeted, per-tenant access to evaluation the natural
service boundary.  This package is that boundary for the reproduction:

* :mod:`repro.service.api` — the frozen ``v1`` wire schema (requests,
  responses, journal records) with closed-catalog validation;
* :mod:`repro.service.jobs` — the campaign registry and the execution
  path the daemon's job children run;
* :mod:`repro.service.queue` — the persistent on-disk job queue
  (O_APPEND journal + atomic state files, tenant-fair dispatch,
  wall-clock budgets, content-key dedup);
* :mod:`repro.service.daemon` — the ``repro serve`` asyncio daemon;
* :mod:`repro.service.client` — the synchronous socket client.

Everything re-exported below stays importable until 1.2.0; the eight
v1 names warn when resolved through ``repro.<name>``, and
:func:`serve` / :class:`ServiceClient` also warn when called.
"""

from .api import (
    ERROR_CODES,
    JOB_STATES,
    JOURNAL_EVENTS,
    OPS,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    JobSpec,
    JobStatus,
    SchemaError,
    parse_request,
    parse_response,
    validate_journal,
    validate_journal_record,
    validate_message,
)
from .client import ServiceClient, ServiceError
from .daemon import ServeConfig, ServiceDaemon, serve
from .jobs import (
    CampaignDef,
    JobResult,
    ParamError,
    UnknownCampaign,
    execute_job,
    get_campaign,
    job_content_key,
    list_campaigns,
)
from .queue import BudgetExhausted, JobQueue, TenantLedger, UnknownJob

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_STATES",
    "TERMINAL_STATES",
    "OPS",
    "ERROR_CODES",
    "JOURNAL_EVENTS",
    "JobSpec",
    "JobStatus",
    "SchemaError",
    "validate_message",
    "validate_journal",
    "validate_journal_record",
    "parse_request",
    "parse_response",
    "CampaignDef",
    "JobResult",
    "ParamError",
    "UnknownCampaign",
    "execute_job",
    "get_campaign",
    "job_content_key",
    "list_campaigns",
    "JobQueue",
    "TenantLedger",
    "BudgetExhausted",
    "UnknownJob",
    "ServeConfig",
    "ServiceDaemon",
    "serve",
    "ServiceClient",
    "ServiceError",
]
