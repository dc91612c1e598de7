"""Job execution: one :class:`~repro.service.api.JobSpec`, one campaign.

This module is the single path between "a validated job spec" and "a
campaign actually ran" — the daemon's worker processes and the thin
``repro table1|table2|attacks`` CLI subcommands both go through
:func:`execute_job`, so a campaign submitted over the socket computes
exactly what the same flags on the command line would.

The campaign registry (:data:`CAMPAIGNS`) is a closed catalog, like the
attack registry: each entry names the harness function, its parameter
schema (unknown or ill-typed params are rejected at submit time), the
checkpoint subdirectory its rows land in (row-level progress is read
from there), and the row codec used for the JSON result payload.

:func:`job_content_key` derives a job's blake2b content address from
its campaign plus *normalized* params (defaults applied), reusing
:func:`repro.cache.cache_key`.  Everything the service dedupes, resumes
or shares — result files, checkpoint directories, duplicate-submit
admission — is keyed by that digest.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import telemetry
from ..cache import cache_key
from ..runtime.codec import atomic_write_json, read_json
from .api import PROTOCOL_VERSION, JobSpec

#: bump when job execution semantics change in a way the params cannot
#: see — every content key (and therefore every dedup/resume decision)
#: is salted with this
CACHE_VERSION = 1


class UnknownCampaign(ValueError):
    """The spec names a campaign missing from the registry."""


class ParamError(ValueError):
    """A campaign parameter failed schema validation."""


@dataclass(frozen=True)
class CampaignDef:
    """One runnable campaign.

    Attributes:
        name: registry key (``JobSpec.campaign``).
        experiment: checkpoint subdirectory the harness writes rows to
            (row-level progress is counted there).
        run: harness entry ``(params, policy) -> rows``.
        encode_row / decode_row: row ↔ JSON-able dict codec.
        render: ``rows -> str`` table renderer (captured, not printed).
        rows_total: expected row count for progress reporting (None
            when not derivable from the params alone).
        params: schema table ``name -> (types, default)``; unknown keys
            are rejected, defaults are applied before content-keying so
            explicit-default and implicit submissions dedupe together.
        description: one-line summary for listings.
    """

    name: str
    experiment: str
    run: Callable[[dict[str, Any], Any], list[Any]]
    encode_row: Callable[[Any], dict[str, Any]]
    decode_row: Callable[[dict[str, Any]], Any]
    render: Callable[[list[Any]], str]
    rows_total: Callable[[dict[str, Any]], int | None]
    params: tuple[tuple[str, tuple[type, ...], Any], ...]
    description: str = ""

    def normalize_params(self, raw: Mapping[str, Any]) -> dict[str, Any]:
        """Validate ``raw`` against the schema; returns params with
        defaults applied.  Raises :class:`ParamError` on violations."""
        known = {name for name, _, _ in self.params}
        for key in raw:
            if key not in known:
                raise ParamError(
                    f"campaign {self.name!r} has no parameter {key!r} "
                    f"(known: {sorted(known)})"
                )
        out: dict[str, Any] = {}
        for name, types, default in self.params:
            value = raw.get(name, default)
            if value is not None:
                if isinstance(value, bool) and bool not in types:
                    raise ParamError(
                        f"{self.name}.{name} has type bool, expected {types}"
                    )
                if not isinstance(value, types):
                    # JSON has no int/float distinction worth fighting over
                    if float in types and isinstance(value, int):
                        value = float(value)
                    else:
                        raise ParamError(
                            f"{self.name}.{name} has type "
                            f"{type(value).__name__}, expected {types}"
                        )
                if name == "circuits" and not all(
                    isinstance(c, str) for c in value
                ):
                    raise ParamError(
                        f"{self.name}.circuits must be a list of strings"
                    )
            out[name] = value
        return out


@dataclass(frozen=True)
class JobResult:
    """What one executed job produced."""

    campaign: str
    content_key: str
    rows: list[dict[str, Any]]
    text: str
    elapsed_s: float

    def to_payload(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "campaign": self.campaign,
            "content_key": self.content_key,
            "rows": self.rows,
            "text": self.text,
            "elapsed_s": round(self.elapsed_s, 6),
        }


# --------------------------------------------------------------------- #
# campaign registry


def _run_table1(params: dict[str, Any], policy: Any) -> list[Any]:
    from ..experiments import DEFAULT_SCALE, run_table1

    return run_table1(
        scale=params["scale"] if params["scale"] is not None else DEFAULT_SCALE,
        circuits=list(params["circuits"]) if params["circuits"] else None,
        n_patterns=params["n_patterns"],
        n_keys=params["n_keys"],
        seed=params["seed"],
        policy=policy,
        corpus=params["corpus"],
    )


def _render_table1(rows: list[Any]) -> str:
    from ..experiments import print_table1

    return _captured(print_table1, rows)


def _decode_table1(d: dict[str, Any]) -> Any:
    from ..experiments import Table1Row

    return Table1Row(**d)


def _run_table2(params: dict[str, Any], policy: Any) -> list[Any]:
    from ..experiments import DEFAULT_SCALE, run_table2

    return run_table2(
        scale=params["scale"] if params["scale"] is not None else DEFAULT_SCALE,
        circuits=list(params["circuits"]) if params["circuits"] else None,
        n_random_patterns=params["n_random_patterns"],
        seed=params["seed"],
        policy=policy,
        corpus=params["corpus"],
    )


def _render_table2(rows: list[Any]) -> str:
    from ..experiments import print_table2

    return _captured(print_table2, rows)


def _decode_table2(d: dict[str, Any]) -> Any:
    from ..experiments import Table2Row

    return Table2Row(**d)


def _run_attacks(params: dict[str, Any], policy: Any) -> list[Any]:
    from ..experiments import run_attack_matrix

    return run_attack_matrix(
        variant=params["variant"],
        seed=params["seed"],
        max_iterations=params["max_iterations"],
        attack_deadline_s=params["attack_deadline_s"],
        policy=policy,
        corpus=params["corpus"],
        circuit=params["circuit"],
    )


def _render_attacks(rows: list[Any]) -> str:
    from ..experiments import print_attack_matrix

    return _captured(print_attack_matrix, rows)


def _decode_attacks(d: dict[str, Any]) -> Any:
    from ..experiments.attack_matrix import MatrixCell

    return MatrixCell(**d)


def _sleep_row(index: int, seconds: float) -> dict[str, Any]:
    """One diagnostic-campaign row: sleep, then report (module-level so
    it pickles to pool workers)."""
    time.sleep(seconds)
    return {"index": index, "seconds": seconds}


def _run_sleep(params: dict[str, Any], policy: Any) -> list[Any]:
    from ..experiments.runner import ExperimentRunner, RowTask

    runner = ExperimentRunner(
        "sleep",
        policy,
        fingerprint={"rows": params["rows"], "seconds": params["seconds"]},
    )
    tasks = [
        RowTask(
            key=f"r{i:04d}",
            compute=_sleep_row,
            args=(i, params["seconds"]),
        )
        for i in range(params["rows"])
    ]
    outcomes = runner.run_rows(tasks)
    return [o.value for o in outcomes if o.value is not None]


def _render_sleep(rows: list[Any]) -> str:
    lines = ["sleep campaign"]
    for row in rows:
        lines.append(f"  row {row['index']:4d}: slept {row['seconds']:g}s")
    lines.append(f"  {len(rows)} row(s) ok")
    return "\n".join(lines) + "\n"


def _table_rows_total(params: dict[str, Any]) -> int | None:
    from ..bench import PAPER_ORDER

    if params["circuits"]:
        return len(params["circuits"])
    if params.get("corpus"):
        from ..corpus import entries_for

        try:
            return len(entries_for([params["corpus"]], offline=False))
        except KeyError:
            return None
    return len(PAPER_ORDER)


def _captured(printer: Callable[[list[Any]], str], rows: list[Any]) -> str:
    """Run a ``print_*`` harness renderer with stdout captured.

    The experiment renderers print *and* return their text; the service
    wants the text without spamming the daemon log twice.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return printer(rows)


_F = (float,)
_I = (int,)
_S = (str,)
_LIST = (list, tuple)

CAMPAIGNS: dict[str, CampaignDef] = {
    "table1": CampaignDef(
        name="table1",
        experiment="table1",
        run=_run_table1,
        encode_row=lambda r: __import__("dataclasses").asdict(r),
        decode_row=_decode_table1,
        render=_render_table1,
        rows_total=_table_rows_total,
        params=(
            ("scale", _F, None),
            ("circuits", _LIST, None),
            ("n_patterns", _I, 4096),
            ("n_keys", _I, 8),
            ("seed", _I, 0),
            ("corpus", _S, None),
        ),
        description="Table I: HD + area/delay overhead per circuit",
    ),
    "table2": CampaignDef(
        name="table2",
        experiment="table2",
        run=_run_table2,
        encode_row=lambda r: __import__("dataclasses").asdict(r),
        decode_row=_decode_table2,
        render=_render_table2,
        rows_total=_table_rows_total,
        params=(
            ("scale", _F, None),
            ("circuits", _LIST, None),
            ("n_random_patterns", _I, 1024),
            ("seed", _I, 0),
            ("corpus", _S, None),
        ),
        description="Table II: stuck-at testability per circuit",
    ),
    "attacks": CampaignDef(
        name="attacks",
        experiment="attack_matrix",
        run=_run_attacks,
        encode_row=lambda r: __import__("dataclasses").asdict(r),
        decode_row=_decode_attacks,
        render=_render_attacks,
        rows_total=lambda params: None,
        params=(
            ("variant", _S, "basic"),
            ("seed", _I, 7),
            ("max_iterations", _I, 128),
            ("attack_deadline_s", _F, None),
            ("corpus", _S, None),
            ("circuit", _S, None),
        ),
        description="Sect. II-A attack matrix (every attack x both chips)",
    ),
    "sleep": CampaignDef(
        name="sleep",
        experiment="sleep",
        run=_run_sleep,
        encode_row=lambda r: dict(r),
        decode_row=lambda d: dict(d),
        render=_render_sleep,
        rows_total=lambda params: params["rows"],
        params=(
            ("rows", _I, 4),
            ("seconds", _F, 0.1),
        ),
        description="diagnostic: N checkpointed rows that each sleep",
    ),
}


def get_campaign(name: str) -> CampaignDef:
    """Look up a campaign (:class:`UnknownCampaign` lists known names)."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise UnknownCampaign(
            f"unknown campaign {name!r}; known: {sorted(CAMPAIGNS)}"
        ) from None


def list_campaigns() -> tuple[str, ...]:
    """Registered campaign names, sorted."""
    return tuple(sorted(CAMPAIGNS))


# --------------------------------------------------------------------- #
# content keys, progress, execution


def normalized_spec(spec: JobSpec) -> JobSpec:
    """Spec with campaign validated and param defaults applied."""
    campaign = get_campaign(spec.campaign)
    return JobSpec(
        campaign=spec.campaign,
        params=campaign.normalize_params(spec.params),
        tenant=spec.tenant,
    )


def job_content_key(spec: JobSpec) -> str:
    """The job's blake2b content address (hex digest).

    Derived from the campaign name and *normalized* params only — the
    tenant is accounting, not identity, so two tenants submitting the
    same campaign share one computation.
    """
    campaign = get_campaign(spec.campaign)
    return cache_key(
        "service.job",
        salt=f"service.jobs/{CACHE_VERSION}",
        campaign=spec.campaign,
        params=campaign.normalize_params(spec.params),
    ).digest


def job_progress(campaign: CampaignDef, checkpoint_root: str | Path) -> int:
    """Rows already checkpointed for a job rooted at ``checkpoint_root``."""
    row_dir = Path(checkpoint_root) / campaign.experiment
    if not row_dir.is_dir():
        return 0
    return sum(1 for _ in row_dir.glob("row-*.json"))


def execute_job(spec: JobSpec, policy: Any = None) -> JobResult:
    """Run one job to completion in this process.

    ``policy`` is the :class:`~repro.experiments.runner.RunPolicy`
    governing row execution (checkpoints/resume, worker fleet, cache,
    trace); None runs with harness defaults.  The run is
    wrapped in a ``job.run`` telemetry span.  Raises
    :class:`UnknownCampaign` / :class:`ParamError` for a bad spec and
    lets :class:`~repro.runtime.CampaignInterrupted` propagate — an
    interrupted job is the caller's state machine's business.
    """
    campaign = get_campaign(spec.campaign)
    params = campaign.normalize_params(spec.params)
    content_key = job_content_key(spec)
    t0 = time.perf_counter()
    with telemetry.span(
        "job.run", campaign=spec.campaign, tenant=spec.tenant
    ) as sp:
        rows = campaign.run(params, policy)
        sp.set(rows=len(rows))
    payload = [campaign.encode_row(r) for r in rows]
    text = campaign.render(rows)
    return JobResult(
        campaign=spec.campaign,
        content_key=content_key,
        rows=payload,
        text=text,
        elapsed_s=time.perf_counter() - t0,
    )


def render_result_payload(payload: Mapping[str, Any]) -> str:
    """Re-render a persisted result payload's table from its rows.

    Used to prove byte-identical resume: the text in the payload was
    rendered from the rows at completion time, and re-rendering decoded
    rows must reproduce it exactly.
    """
    campaign = get_campaign(str(payload["campaign"]))
    rows = [campaign.decode_row(d) for d in payload["rows"]]
    return campaign.render(rows)


# --------------------------------------------------------------------- #
# worker-process entry


def _sigterm_to_interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


def run_job_child(
    spec_payload: dict[str, Any],
    policy_fields: dict[str, Any],
    result_path: str,
) -> int:
    """Child-process job runner: execute, persist, exit with a verdict.

    Exit codes: 0 — result payload atomically written to
    ``result_path``; 130 — drained (SIGINT/SIGTERM; completed rows are
    checkpointed, the job is resumable); 1 — failure (a structured
    error payload is written to ``result_path`` when possible).

    SIGTERM is mapped to :class:`KeyboardInterrupt` at entry so serial
    campaigns drain exactly like supervised ones: checkpoint what is
    done, report a resumable position, exit 130.
    """
    # a forked child inherits the daemon loop's signal wakeup fd; left
    # attached, this child's SIGTERM would echo into the parent's event
    # loop and drain the whole daemon on every cancel
    with contextlib.suppress(ValueError, OSError):
        signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from ..experiments.runner import RunPolicy
    from ..runtime.supervisor import CampaignInterrupted

    spec = JobSpec.from_wire(spec_payload)
    policy = RunPolicy(**policy_fields)
    if policy.trace_path is not None:
        telemetry.configure(path=policy.trace_path)
    try:
        result = execute_job(spec, policy)
    except (CampaignInterrupted, KeyboardInterrupt):
        telemetry.flush_counters()
        return 130
    except Exception as exc:  # a failed job is a verdict, not a crash
        with contextlib.suppress(Exception):
            atomic_write_json(
                result_path,
                {
                    "v": PROTOCOL_VERSION,
                    "campaign": spec.campaign,
                    "error": str(exc) or type(exc).__name__,
                    "error_type": type(exc).__name__,
                },
            )
        telemetry.flush_counters()
        return 1
    atomic_write_json(result_path, result.to_payload())
    telemetry.flush_counters()
    return 0


def _child_main(
    spec_payload: dict[str, Any],
    policy_fields: dict[str, Any],
    result_path: str,
) -> None:  # pragma: no cover - exercised via daemon subprocess tests
    code = run_job_child(spec_payload, policy_fields, result_path)
    # the verdict payload is fsynced and telemetry is flushed by now, so
    # skip interpreter teardown: a forked child pays hundreds of ms of
    # exit-time GC walking the copy-on-write heap it inherited from the
    # daemon, and the parent's reap (and the job's finished_ts) would
    # wait on it for nothing
    telemetry.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def load_result_payload(result_path: str | Path) -> dict[str, Any] | None:
    """Read a persisted result payload (None when absent or corrupt)."""
    from ..runtime.codec import CodecError

    try:
        return read_json(result_path)
    except CodecError:
        return None
