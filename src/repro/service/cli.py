"""``repro serve`` / ``repro job`` command-line plumbing.

``repro job`` is the thin client for a running daemon: submit one
campaign (``--param k=v`` pairs, JSON-typed), poll status, fetch a
result table, cancel, or list jobs.  It talks the same v1 wire schema
as every other client — there is no side channel.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .api import JobStatus
from .client import ServiceError, SocketClient


def parse_params(pairs: list[str]) -> dict[str, Any]:
    """Parse repeated ``--param key=value`` flags into a params mapping.

    Values are decoded as JSON when possible (``rows=4`` is the int 4,
    ``circuits=["b20","b21"]`` is a list), falling back to the raw
    string — so ``variant=basic`` needs no quoting gymnastics.
    """
    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--param expects key=value, got {pair!r}"
            )
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def _print_status(status: JobStatus, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(status.to_wire(), sort_keys=True))
        return
    progress = ""
    if status.rows_done is not None or status.rows_total is not None:
        done = status.rows_done if status.rows_done is not None else "?"
        total = status.rows_total if status.rows_total is not None else "?"
        progress = f"  rows {done}/{total}"
    extra = ""
    if status.deduped_from:
        extra = f"  (dedup of {status.deduped_from})"
    elif status.error:
        extra = f"  error: {status.error}"
    print(
        f"{status.job_id}  {status.campaign:<12} {status.state:<9} "
        f"tenant={status.tenant}{progress}{extra}"
    )


def run_job_cli(
    action: str,
    target: str | None,
    socket_path: str,
    params: list[str],
    tenant: str,
    wait: bool,
    fmt: str,
) -> int:
    """Dispatch one ``repro job <action>`` invocation."""
    client = SocketClient(socket_path)
    try:
        if action == "submit":
            if not target:
                print("repro job submit: campaign name required", file=sys.stderr)
                return 2
            status = client.submit(target, parse_params(params), tenant=tenant)
            _print_status(status, fmt)
            if wait and status.state not in ("done", "failed", "cancelled"):
                status = client.wait(status.job_id)
                _print_status(status, fmt)
            if wait and status.state == "done":
                result = client.result(status.job_id)
                if result.text:
                    sys.stdout.write(
                        result.text
                        if result.text.endswith("\n")
                        else result.text + "\n"
                    )
            return 0 if not wait or status.state == "done" else 1
        if not target and action != "list":
            print(f"repro job {action}: job id required", file=sys.stderr)
            return 2
        if action == "status":
            _print_status(client.status(target), fmt)
            return 0
        if action == "result":
            result = client.result(target)
            if fmt == "json":
                print(json.dumps(result.to_wire(), sort_keys=True))
            elif result.text:
                sys.stdout.write(
                    result.text
                    if result.text.endswith("\n")
                    else result.text + "\n"
                )
            elif result.error:
                print(f"{target}: {result.state}: {result.error}")
            return 0 if result.state == "done" else 1
        if action == "cancel":
            _print_status(client.cancel(target), fmt)
            return 0
        # list
        jobs = client.jobs(tenant if tenant != "default" else None)
        if fmt == "json":
            print(json.dumps([j.to_wire() for j in jobs], sort_keys=True))
        else:
            if not jobs:
                print("no jobs")
            for job in jobs:
                _print_status(job, "text")
        return 0
    except ServiceError as exc:
        print(f"repro job: {exc}", file=sys.stderr)
        return 1
    except (OSError, TimeoutError) as exc:
        print(
            f"repro job: cannot reach daemon on {socket_path}: {exc}",
            file=sys.stderr,
        )
        return 1
