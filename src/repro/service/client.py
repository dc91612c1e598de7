"""Synchronous client for the ``repro serve`` socket.

One connection per request: simple, stateless, and robust across daemon
restarts (the drain/restart test talks to two daemon generations through
the same client).  Every response is schema-validated by
:func:`repro.service.api.parse_response` before the caller sees it; a
daemon speaking anything but clean v1 raises
:class:`~repro.service.api.SchemaError` here rather than propagating
garbage into campaign tooling.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path
from typing import Any

from ..runtime.codec import canonical_dumps
from .api import (
    CancelRequest,
    ErrorResponse,
    JobsRequest,
    JobSpec,
    JobStatus,
    ResultRequest,
    ResultResponse,
    SchemaError,
    StatusRequest,
    SubmitRequest,
    TERMINAL_STATES,
    parse_response,
    warn_deprecated,
)


class ServiceError(RuntimeError):
    """The daemon answered with an :class:`ErrorResponse`.

    ``code`` carries the stable machine-readable failure code.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class SocketClient:
    """Thin blocking client over the daemon's Unix socket.

    The service's own spelling (``repro job``, the service bench): it
    never warns.  :class:`ServiceClient` is the deprecated v1 name.
    """

    def __init__(
        self, socket_path: str | Path, timeout_s: float = 30.0
    ) -> None:
        self.socket_path = Path(socket_path)
        self.timeout_s = timeout_s

    # ----------------------------------------------------------------- #
    # transport

    def request_raw(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request object, return the raw response object."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout_s)
            sock.connect(str(self.socket_path))
            sock.sendall((canonical_dumps(payload) + "\n").encode("utf-8"))
            chunks: list[bytes] = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        line = b"".join(chunks).split(b"\n", 1)[0]
        if not line:
            raise SchemaError("daemon closed the connection without a reply")
        return json.loads(line.decode("utf-8"))

    def _call(self, request: Any) -> Any:
        response = parse_response(self.request_raw(request.to_wire()))
        if isinstance(response, ErrorResponse):
            raise ServiceError(response.code, response.message)
        return response

    # ----------------------------------------------------------------- #
    # operations

    def submit(
        self,
        campaign: str,
        params: dict[str, Any] | None = None,
        tenant: str = "default",
    ) -> JobStatus:
        spec = JobSpec(campaign=campaign, params=dict(params or {}), tenant=tenant)
        return self._call(SubmitRequest(spec=spec)).job

    def status(self, job_id: str) -> JobStatus:
        return self._call(StatusRequest(job_id=job_id)).job

    def result(self, job_id: str) -> ResultResponse:
        return self._call(ResultRequest(job_id=job_id))

    def cancel(self, job_id: str) -> JobStatus:
        return self._call(CancelRequest(job_id=job_id)).job

    def jobs(self, tenant: str | None = None) -> tuple[JobStatus, ...]:
        return self._call(JobsRequest(tenant=tenant)).jobs

    # ----------------------------------------------------------------- #
    # conveniences

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.1,
    ) -> JobStatus:
        """Poll until the job reaches a terminal state (or time out)."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status.state in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.state} after {timeout_s:g}s"
                )
            time.sleep(poll_s)

    def wait_ready(self, timeout_s: float = 30.0, poll_s: float = 0.05) -> None:
        """Block until the daemon's socket accepts connections."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self.jobs()
                return
            except (OSError, SchemaError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"no daemon on {self.socket_path} after {timeout_s:g}s"
                    ) from None
                time.sleep(poll_s)


class ServiceClient(SocketClient):
    """Deprecated v1 spelling of :class:`SocketClient`: constructing one
    warns; removed in 1.2.0 with the rest of the service."""

    def __init__(
        self, socket_path: str | Path, timeout_s: float = 30.0
    ) -> None:
        warn_deprecated("ServiceClient")
        super().__init__(socket_path, timeout_s)
