"""Campaign job service: schema, queue, daemon end-to-end.

Three layers, matching the package:

* wire schema — round-trip + closed-catalog validation for every v1
  message type and every journal event;
* queue — submit/dedup/fair-share/budget/recovery without a daemon;
* daemon — a live ``repro serve`` subprocess driven over its socket:
  submit→status→result happy path, duplicate-submit dedup, cancel
  mid-run, and SIGTERM drain + restart resuming from checkpoints to a
  byte-identical result.

The daemon tests use the diagnostic ``sleep`` campaign (checkpointed
rows that each sleep a fraction of a second) so mid-run states are
reachable deterministically without burning CI minutes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.service import (
    ERROR_CODES,
    JOURNAL_EVENTS,
    JobQueue,
    JobSpec,
    JobStatus,
    ServiceClient,
    ServiceError,
    SchemaError,
    execute_job,
    job_content_key,
    list_campaigns,
    parse_request,
    parse_response,
    validate_journal,
    validate_journal_record,
    validate_message,
)
from repro.service.api import (
    DEPRECATED_NAMES,
    MESSAGE_TYPES,
    CancelRequest,
    CancelResponse,
    ErrorResponse,
    JobsRequest,
    JobsResponse,
    ResultRequest,
    ResultResponse,
    StatusRequest,
    StatusResponse,
    SubmitRequest,
    SubmitResponse,
)
from repro.service.jobs import ParamError, UnknownCampaign, get_campaign
from repro.service.queue import BudgetExhausted, UnknownJob

# The CLI flag tests live in tests/test_cli.py; re-exported here so
# their test ids stay collected until this file goes with the service
# in 1.2.0.
from tests.test_cli import TestUnifiedRuntimeFlags  # noqa: F401

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _status(**overrides) -> JobStatus:
    base = dict(
        job_id="j00001",
        campaign="sleep",
        tenant="default",
        state="done",
        content_key="ab" * 16,
        submitted_ts=100.0,
        started_ts=101.0,
        finished_ts=102.0,
        rows_done=4,
        rows_total=4,
    )
    base.update(overrides)
    return JobStatus(**base)


def _sample(cls):
    """One representative instance per v1 message type."""
    spec = JobSpec(campaign="sleep", params={"rows": 2}, tenant="acme")
    return {
        SubmitRequest: SubmitRequest(spec=spec),
        StatusRequest: StatusRequest(job_id="j00001"),
        ResultRequest: ResultRequest(job_id="j00001"),
        CancelRequest: CancelRequest(job_id="j00001"),
        JobsRequest: JobsRequest(tenant="acme"),
        SubmitResponse: SubmitResponse(job=_status(state="queued")),
        StatusResponse: StatusResponse(job=_status(state="running")),
        ResultResponse: ResultResponse(
            job_id="j00001",
            state="done",
            rows=[{"index": 0, "seconds": 0.1}],
            text="sleep campaign\n",
        ),
        CancelResponse: CancelResponse(job=_status(state="cancelled")),
        JobsResponse: JobsResponse(jobs=(_status(), _status(job_id="j00002"))),
        ErrorResponse: ErrorResponse("unknown-job", "no job 'j99999'"),
    }[cls]


class TestWireSchema:
    @pytest.mark.parametrize("cls", MESSAGE_TYPES, ids=lambda c: c.__name__)
    def test_every_message_round_trips(self, cls):
        message = _sample(cls)
        wire = message.to_wire()
        # the wire form survives JSON and stays schema-valid
        wire = json.loads(json.dumps(wire))
        assert validate_message(wire) is None
        if "ok" in wire:
            decoded = parse_response(wire)
        else:
            decoded = parse_request(wire)
        assert decoded == message

    def test_version_is_mandatory(self):
        wire = _sample(StatusRequest).to_wire()
        wire["v"] = "v2"
        assert "version" in validate_message(wire)
        del wire["v"]
        assert validate_message(wire) is not None

    def test_unknown_op_rejected(self):
        assert "unknown request op" in validate_message(
            {"v": "v1", "op": "reboot"}
        )
        assert "unknown response op" in validate_message(
            {"v": "v1", "ok": True, "op": "reboot"}
        )

    def test_missing_required_field_rejected(self):
        assert "job_id" in validate_message({"v": "v1", "op": "status"})

    def test_wrong_field_type_rejected(self):
        err = validate_message({"v": "v1", "op": "status", "job_id": 7})
        assert "job_id" in err and "int" in err

    def test_bad_job_state_rejected(self):
        wire = _sample(StatusResponse).to_wire()
        wire["job"]["state"] = "exploded"
        assert "exploded" in validate_message(wire)

    def test_unknown_error_code_rejected(self):
        wire = ErrorResponse("unknown-job", "x").to_wire()
        wire["code"] = "flaked"
        assert "flaked" in validate_message(wire)
        # and the catalog itself stays closed
        assert "budget-exhausted" in ERROR_CODES

    def test_parse_request_rejects_response_envelope(self):
        with pytest.raises(SchemaError, match="response envelope"):
            parse_request(_sample(SubmitResponse).to_wire())
        with pytest.raises(SchemaError, match="request envelope"):
            parse_response(_sample(SubmitRequest).to_wire())

    def test_submit_params_keys_must_be_strings(self):
        wire = _sample(SubmitRequest).to_wire()
        wire["params"] = {1: 2}
        assert validate_message(wire) is not None

    def test_jobspec_tenant_defaults(self):
        spec = JobSpec.from_wire({"campaign": "sleep"})
        assert spec.tenant == "default" and spec.params == {}


class TestJournalSchema:
    def _record(self, event, **fields):
        return {"v": "v1", "ts": 123.0, "event": event, **fields}

    @pytest.mark.parametrize("event", sorted(JOURNAL_EVENTS))
    def test_every_event_validates(self, event):
        samples = {
            "boot": dict(pid=1, protocol="v1"),
            "submit": dict(
                job="j00001", campaign="sleep", tenant="default",
                content_key="ab" * 16,
            ),
            "dedup": dict(job="j00002", of="j00001"),
            "start": dict(job="j00001", attempt=1, pid=42),
            "done": dict(job="j00001", elapsed_s=1.5),
            "failed": dict(job="j00001", error="boom"),
            "cancel": dict(job="j00001"),
            "requeue": dict(job="j00001", reason="drain"),
            "budget": dict(tenant="acme", charged_s=1.0, remaining_s=9.0),
            "drain": dict(queued=1, running=2),
        }
        assert validate_journal_record(self._record(event, **samples[event])) is None

    def test_unknown_event_rejected(self):
        assert "unknown journal event" in validate_journal_record(
            self._record("reboot")
        )

    def test_missing_field_rejected(self):
        assert validate_journal_record(self._record("dedup", job="j1")) is not None

    def test_validate_journal_reports_torn_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = json.dumps(self._record("cancel", job="j00001"))
        path.write_text(good + "\n" + '{"v": "v1", "ts": 1.0, "ev')
        errors = list(validate_journal(path))
        assert len(errors) == 1 and errors[0][0] == 2


class TestContentKeys:
    def test_defaults_applied_before_keying(self):
        implicit = job_content_key(JobSpec("sleep", {}))
        explicit = job_content_key(JobSpec("sleep", {"rows": 4, "seconds": 0.1}))
        assert implicit == explicit

    def test_tenant_not_part_of_identity(self):
        a = job_content_key(JobSpec("sleep", {}, tenant="a"))
        b = job_content_key(JobSpec("sleep", {}, tenant="b"))
        assert a == b

    def test_param_change_changes_key(self):
        a = job_content_key(JobSpec("sleep", {"rows": 4}))
        b = job_content_key(JobSpec("sleep", {"rows": 5}))
        assert a != b

    def test_unknown_campaign_rejected(self):
        with pytest.raises(UnknownCampaign, match="sleep"):
            job_content_key(JobSpec("nope", {}))

    def test_unknown_param_rejected(self):
        with pytest.raises(ParamError, match="bogus"):
            job_content_key(JobSpec("sleep", {"bogus": 1}))

    def test_wrong_param_type_rejected(self):
        with pytest.raises(ParamError, match="rows"):
            job_content_key(JobSpec("sleep", {"rows": "four"}))

    def test_registry_catalog(self):
        assert set(list_campaigns()) >= {"table1", "table2", "attacks", "sleep"}
        assert get_campaign("table1").experiment == "table1"

    def test_rows_total_consults_manifest(self):
        spec = get_campaign("table1")
        params = spec.normalize_params({"corpus": "iscas85-mini"})
        assert spec.rows_total(params) == 2


class TestExecuteJob:
    def test_sleep_campaign_runs_and_renders(self, tmp_path):
        from repro.experiments import RunPolicy

        policy = RunPolicy(checkpoint_dir=tmp_path / "ck", resume=True)
        result = execute_job(
            JobSpec("sleep", {"rows": 2, "seconds": 0.01}), policy
        )
        assert len(result.rows) == 2
        assert "2 row(s) ok" in result.text
        # rows checkpointed under the campaign's experiment name
        assert len(list((tmp_path / "ck" / "sleep").glob("row-*.json"))) == 2


class TestJobQueue:
    def test_submit_status_progression(self, tmp_path):
        q = JobQueue(tmp_path)
        status, deduped = q.submit(JobSpec("sleep", {"rows": 2}))
        assert status.state == "queued" and not deduped
        assert status.rows_total == 2
        job = q.next_job()
        assert job.job_id == status.job_id
        q.mark_running(job.job_id, pid=123)
        done = q.mark_done(job.job_id, elapsed_s=0.5)
        assert done.state == "done" and done.finished_ts is not None
        with pytest.raises(UnknownJob):
            q.get("j99999")

    def test_dedup_requires_result_payload(self, tmp_path):
        q = JobQueue(tmp_path)
        s1, _ = q.submit(JobSpec("sleep", {"rows": 2}))
        q.mark_running(s1.job_id, pid=1)
        q.mark_done(s1.job_id, elapsed_s=0.1)
        # no result file on disk yet -> an identical submit must rerun
        s2, deduped = q.submit(JobSpec("sleep", {"rows": 2}))
        assert not deduped and s2.state == "queued"
        q.result_path(s1.content_key).write_text(
            json.dumps({"v": "v1", "rows": [], "text": ""})
        )
        s3, deduped = q.submit(JobSpec("sleep", {"rows": 2}))
        assert deduped and s3.state == "done"
        assert s3.deduped_from == s1.job_id

    def test_fair_share_round_robin(self, tmp_path):
        q = JobQueue(tmp_path)
        # tenant a floods the queue first; tenant b submits one job
        a1, _ = q.submit(JobSpec("sleep", {"rows": 1}, tenant="a"))
        a2, _ = q.submit(JobSpec("sleep", {"rows": 2}, tenant="a"))
        a3, _ = q.submit(JobSpec("sleep", {"rows": 3}, tenant="a"))
        b1, _ = q.submit(JobSpec("sleep", {"rows": 4}, tenant="b"))
        order = []
        while (job := q.next_job()) is not None:
            order.append(job.job_id)
            q.mark_running(job.job_id, pid=1)
            q.mark_done(job.job_id, elapsed_s=0.0)
        # b's single job is served second, not fourth
        assert order[0] == a1.job_id
        assert order[1] == b1.job_id
        assert order[2:] == [a2.job_id, a3.job_id]

    def test_budget_exhaustion(self, tmp_path):
        q = JobQueue(tmp_path, budget_s=10.0)
        s1, _ = q.submit(JobSpec("sleep", {"rows": 1}, tenant="acme"))
        q.mark_running(s1.job_id, pid=1)
        q.mark_done(s1.job_id, elapsed_s=11.0)  # blows the budget
        assert q.ledger.exhausted("acme")
        with pytest.raises(BudgetExhausted, match="acme"):
            q.submit(JobSpec("sleep", {"rows": 2}, tenant="acme"))
        # other tenants are unaffected
        other, _ = q.submit(JobSpec("sleep", {"rows": 2}, tenant="other"))
        assert other.state == "queued"

    def test_budget_ledger_survives_restart(self, tmp_path):
        q = JobQueue(tmp_path, budget_s=10.0)
        s1, _ = q.submit(JobSpec("sleep", {"rows": 1}, tenant="acme"))
        q.mark_running(s1.job_id, pid=1)
        q.mark_done(s1.job_id, elapsed_s=11.0)
        q2 = JobQueue(tmp_path, budget_s=10.0)
        assert q2.ledger.exhausted("acme")

    def test_recovery_requeues_running_jobs(self, tmp_path):
        q = JobQueue(tmp_path)
        s1, _ = q.submit(JobSpec("sleep", {"rows": 2}))
        q.mark_running(s1.job_id, pid=1)
        # daemon dies here; a new queue over the same state dir recovers
        q2 = JobQueue(tmp_path)
        recovered = q2.get(s1.job_id)
        assert recovered.state == "queued"
        assert recovered.attempts == 1  # the lost attempt stays counted
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert events[-1] == "requeue"

    def test_journal_is_schema_valid(self, tmp_path):
        q = JobQueue(tmp_path, budget_s=100.0)
        s1, _ = q.submit(JobSpec("sleep", {"rows": 1}))
        q.mark_running(s1.job_id, pid=1)
        q.mark_failed(s1.job_id, "boom", elapsed_s=1.0)
        q.journal("boot", pid=os.getpid(), protocol="v1")
        q.journal("drain", queued=0, running=0)
        assert list(validate_journal(tmp_path / "journal.jsonl")) == []


# --------------------------------------------------------------------- #
# live daemon


@pytest.fixture
def daemon_factory(tmp_path):
    """Boot ``repro serve`` subprocesses against one shared state dir."""
    procs = []
    state = tmp_path / "state"

    def boot(**flags):
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state),
            "--workers", str(flags.pop("workers", 2)),
        ]
        for key, value in flags.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        procs.append(proc)
        client = ServiceClient(state / "serve.sock")
        client.wait_ready(timeout_s=30)
        return proc, client

    yield boot
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _drain(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    return proc.wait(timeout=60)


class TestDaemonEndToEnd:
    def test_submit_status_result_happy_path(self, daemon_factory):
        proc, client = daemon_factory()
        job = client.submit("sleep", {"rows": 3, "seconds": 0.05})
        assert job.state in ("queued", "running")
        assert job.rows_total == 3
        done = client.wait(job.job_id, timeout_s=60)
        assert done.state == "done"
        assert done.rows_done == 3
        result = client.result(job.job_id)
        assert result.state == "done"
        assert len(result.rows) == 3
        assert "3 row(s) ok" in result.text
        # the daemon answers schema-garbage with a structured error
        raw = client.request_raw({"v": "v1", "op": "status"})
        assert raw["ok"] is False and raw["code"] == "bad-request"
        assert _drain(proc) == 0

    def test_duplicate_submit_dedups_on_content_key(self, daemon_factory):
        proc, client = daemon_factory()
        first = client.submit("sleep", {"rows": 2, "seconds": 0.05})
        done = client.wait(first.job_id, timeout_s=60)
        assert done.state == "done"
        # identical params (modulo defaults + tenant) dedupe instantly
        second = client.submit(
            "sleep", {"rows": 2, "seconds": 0.05}, tenant="other"
        )
        assert second.state == "done"
        assert second.deduped_from == first.job_id
        assert client.result(second.job_id).text == client.result(
            first.job_id
        ).text
        _drain(proc)
        state_dir = Path(client.socket_path).parent
        events = [
            json.loads(line)["event"]
            for line in (state_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert "dedup" in events
        assert list(validate_journal(state_dir / "journal.jsonl")) == []

    def test_bad_submits_are_structured_errors(self, daemon_factory):
        proc, client = daemon_factory()
        with pytest.raises(ServiceError) as err:
            client.submit("nope", {})
        assert err.value.code == "unknown-campaign"
        with pytest.raises(ServiceError) as err:
            client.submit("sleep", {"bogus": 1})
        assert err.value.code == "bad-params"
        with pytest.raises(ServiceError) as err:
            client.result("j99999")
        assert err.value.code == "unknown-job"
        job = client.submit("sleep", {"rows": 2, "seconds": 0.05})
        client.wait(job.job_id, timeout_s=60)
        with pytest.raises(ServiceError) as err:
            client.cancel(job.job_id)
        assert err.value.code == "uncancellable"

    def test_cancel_mid_run_keeps_partial_progress(self, daemon_factory):
        proc, client = daemon_factory()
        job = client.submit("sleep", {"rows": 40, "seconds": 0.25})
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.status(job.job_id)
            if status.state == "running" and (status.rows_done or 0) >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("job never started making progress")
        client.cancel(job.job_id)
        final = client.wait(job.job_id, timeout_s=60)
        assert final.state == "cancelled"
        # completed rows were checkpointed before the child exited
        assert final.rows_done >= 1
        assert final.rows_done < 40
        result = client.result(job.job_id)
        assert result.state == "cancelled" and result.rows is None

    def test_drain_restart_resumes_to_identical_result(
        self, daemon_factory, tmp_path
    ):
        proc, client = daemon_factory()
        job = client.submit("sleep", {"rows": 12, "seconds": 0.25})
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.status(job.job_id)
            if status.state == "running" and (status.rows_done or 0) >= 2:
                break
            time.sleep(0.1)
        else:
            pytest.fail("job never started making progress")
        assert _drain(proc) == 0
        mid = JobQueue(Path(client.socket_path).parent).get(job.job_id)
        assert mid.state == "queued"  # requeued at its checkpointed rows
        rows_at_drain = mid.rows_done or 0
        assert 0 < rows_at_drain < 12
        proc2, client2 = daemon_factory()
        final = client2.wait(job.job_id, timeout_s=120)
        assert final.state == "done" and final.rows_done == 12
        resumed = client2.result(job.job_id)
        # byte-identical to an uninterrupted local run of the same spec
        from repro.experiments import RunPolicy

        direct = execute_job(
            JobSpec("sleep", {"rows": 12, "seconds": 0.25}),
            RunPolicy(checkpoint_dir=tmp_path / "direct-ck", resume=True),
        )
        assert resumed.text == direct.text
        assert resumed.rows == direct.rows


class TestJobCli:
    def test_parse_params_json_typed(self):
        from repro.service.cli import parse_params

        params = parse_params(
            ["rows=4", "seconds=0.5", 'circuits=["b20","b21"]', "variant=basic"]
        )
        assert params == {
            "rows": 4,
            "seconds": 0.5,
            "circuits": ["b20", "b21"],
            "variant": "basic",
        }
        with pytest.raises(ValueError, match="key=value"):
            parse_params(["oops"])


class TestDeprecation:
    """The one release of DeprecationWarning before removal in 1.2.0."""

    @pytest.mark.parametrize("name", sorted(DEPRECATED_NAMES))
    def test_v1_name_warns_once_blaming_the_caller(self, name, monkeypatch):
        import repro
        import repro.service

        monkeypatch.delitem(vars(repro), name, raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = getattr(repro, name)
            again = getattr(repro, name)
        assert first is again is getattr(repro.service, name)
        # only deprecations: garbage an earlier test left behind may be
        # collected inside the block and warn too
        [warning] = [w for w in caught if w.category is DeprecationWarning]
        assert warning.filename == __file__
        message = str(warning.message)
        assert f"repro.{name}" in message and "removed in 1.2.0" in message
        assert DEPRECATED_NAMES[name] in message

    def test_deprecated_names_are_the_service_exports(self):
        import repro

        service = {
            name for name, target in repro._V1_EXPORTS.items()
            if target == "repro.service"
        }
        assert service == set(DEPRECATED_NAMES)

    def test_serve_and_client_warn_on_call(self, tmp_path, monkeypatch):
        from repro.service import ServeConfig, daemon, serve

        monkeypatch.setattr(daemon, "run_daemon", lambda config: 0)
        with pytest.warns(DeprecationWarning, match="repro.serve .*1.2.0"):
            assert serve(ServeConfig(state_dir=tmp_path)) == 0
        with pytest.warns(
            DeprecationWarning, match="repro.ServiceClient .*1.2.0"
        ) as record:
            client = ServiceClient(tmp_path / "serve.sock")
        assert record[0].filename == __file__
        assert client.socket_path == tmp_path / "serve.sock"

    def test_subcommands_print_one_line_and_never_warn(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.__main__ import main
        from repro.service import daemon

        monkeypatch.setattr(daemon, "run_daemon", lambda config: 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["serve", "--state-dir", str(tmp_path)]) == 0
            serve_err = capsys.readouterr().err
            code = main(["job", "list", "--socket", str(tmp_path / "none")])
            job = capsys.readouterr()
        assert [w for w in caught if w.category is DeprecationWarning] == []
        [serve_line] = serve_err.splitlines()
        assert "repro serve is deprecated" in serve_line
        # stdout and exit code as before: no daemon, a clean error
        assert code == 1 and job.out == ""
        first, *rest = job.err.splitlines()
        assert "repro job is deprecated" in first
        assert rest and "cannot reach daemon" in rest[0]
