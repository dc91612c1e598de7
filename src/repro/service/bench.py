"""Service-overhead bench: daemon-submitted jobs vs direct ``run_rows``.

Measures what the job service *adds* on top of executing the same
campaign in-process: the submit round-trip, queue persistence, dispatch,
the fork, and result reaping.  Both sides run the identical Table-I
workload through :func:`repro.service.jobs.execute_job` (which is
``ExperimentRunner.run_rows`` underneath), so the difference between
them is pure service machinery.

Method — designed to survive loaded, single-core CI boxes:

* the workload is one **fixed seed** (the Table-I HD-doubling loop
  terminates data-dependently, so different seeds are different
  workloads) and is sized to run seconds, making the fixed per-job
  service costs a small fraction of the total;
* measurements run in **interleaved rounds** — each round times the
  direct run and the service run back-to-back, so the pair shares the
  box conditions of one time window; a noisy-neighbour spike inflates a
  whole round, not one side of the comparison.  Each round boots a
  fresh daemon state directory, so the identical submit can never be
  served by content-key dedup;
* each *direct* run executes in a pristine forked child and is timed
  inside that child — an in-process loop would warm the op-tape plan
  cache after the first round and charge every service job (which forks
  cold from the idle daemon) for compilation the direct side got for
  free.  Timing inside the child keeps the direct side's own fork out
  of its number, so the service's fork still counts as overhead;
* the service interval comes from the daemon's own ``submitted_ts →
  finished_ts`` stamps (event-driven reap makes ``finished_ts`` land at
  child exit) plus the client-measured submit round-trip; the client
  polls at 0.25s so the measurement itself does not steal CPU from the
  job child on a one-core box;
* the reported overhead is the **minimum over per-round ratios** —
  scheduler noise only inflates a measurement, so the least-inflated
  round is the closest estimate of true overhead (the sim bench's
  min-over-repeats convention, applied to ratios);
* daemon boot is excluded: it is a one-off per service lifetime, not a
  per-job cost (the report records it informationally).

Writes ``BENCH_service.json`` with the within-run ``overhead_percent``
and its embedded ``acceptance_bound_percent`` (3%); the report is gated
by ``scripts/bench_compare.py`` (``make serve-smoke``), which self-checks
the committed baseline when no fresh report is supplied.

Usage::

    PYTHONPATH=src python -m repro.service.bench --out BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from ..experiments.runner import RunPolicy
from .api import JobSpec
from .client import SocketClient
from .jobs import execute_job, normalized_spec

#: the service may add at most this much over direct in-process execution
ACCEPTANCE_BOUND_PCT = 3.0

#: bench workload: big enough that fixed per-job service costs are noise
BENCH_CAMPAIGN = "table1"
BENCH_SEED = 0
BENCH_PARAMS: dict[str, Any] = {
    "scale": 0.03,
    "circuits": ["s38417", "s38584", "b20"],
    "n_patterns": 16384,
    "n_keys": 12,
    "seed": BENCH_SEED,
}


def _direct_child(spec: JobSpec, ckpt: str, queue: Any) -> None:
    """Run the workload in a cold child; report elapsed seconds back."""
    t0 = time.perf_counter()
    execute_job(spec, RunPolicy(checkpoint_dir=ckpt))
    queue.put(time.perf_counter() - t0)


def _direct_seconds() -> float:
    """One cold-process run of the bench workload, timed inside the child.

    The parent never executes a campaign, so every forked child sees the
    same pristine caches a daemon-forked job child sees.
    """
    spec = normalized_spec(
        JobSpec(campaign=BENCH_CAMPAIGN, params=dict(BENCH_PARAMS))
    )
    ctx = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory(prefix="repro-bench-direct-") as ckpt:
        queue = ctx.SimpleQueue()
        child = ctx.Process(target=_direct_child, args=(spec, ckpt, queue))
        child.start()
        child.join()
        if child.exitcode != 0 or queue.empty():
            raise RuntimeError(
                f"direct bench child exited {child.exitcode} without a timing"
            )
        return float(queue.get())


def _service_seconds() -> tuple[float, float]:
    """One daemon-submitted run against a fresh daemon.

    Returns ``(service_seconds, daemon_boot_seconds)``.  The service
    interval is the client-measured submit round-trip plus the daemon's
    own ``submitted_ts → finished_ts`` stamps (the ~1ms overlap with
    ``submitted_ts`` over-counts, never under-counts); see the module
    docstring for why the client polls slowly instead of timing wall
    clock around a tight poll loop.
    """
    boot_t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as state:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", state],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        client = SocketClient(Path(state) / "serve.sock")
        try:
            client.wait_ready(timeout_s=60.0)
            boot_s = time.perf_counter() - boot_t0
            t0 = time.perf_counter()
            job = client.submit(BENCH_CAMPAIGN, dict(BENCH_PARAMS))
            submit_rtt = time.perf_counter() - t0
            status = client.wait(job.job_id, timeout_s=600.0, poll_s=0.25)
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
    if status.state != "done":
        raise RuntimeError(
            f"bench job {job.job_id} ended {status.state}: {status.error}"
        )
    return submit_rtt + (status.finished_ts - status.submitted_ts), boot_s


def run_service_bench(
    out: str | Path = "BENCH_service.json", repeats: int = 3
) -> int:
    """Measure service overhead, write the report, return 0 iff in-bound."""
    direct: list[float] = []
    service: list[float] = []
    boots: list[float] = []
    for round_no in range(repeats):
        d = _direct_seconds()
        s, boot_s = _service_seconds()
        direct.append(d)
        service.append(s)
        boots.append(boot_s)
        print(
            f"service bench round {round_no + 1}/{repeats}: "
            f"direct {d:.2f}s  service {s:.2f}s  "
            f"({(s / d - 1.0) * 100.0:+.2f}%)"
        )

    ratios = [s / d for d, s in zip(direct, service)]
    best = min(range(repeats), key=lambda i: ratios[i])
    overhead_pct = (ratios[best] - 1.0) * 100.0
    report = {
        "v": 1,
        "campaign": BENCH_CAMPAIGN,
        "params": BENCH_PARAMS,
        "repeats": repeats,
        "direct_s": round(direct[best], 4),
        "service_s": round(service[best], 4),
        "direct_all_s": [round(s, 4) for s in direct],
        "service_all_s": [round(s, 4) for s in service],
        "overhead_all_percent": [round((r - 1.0) * 100.0, 2) for r in ratios],
        "daemon_boot_s": round(min(boots), 4),
        "overhead_percent": round(overhead_pct, 2),
        "acceptance_bound_percent": ACCEPTANCE_BOUND_PCT,
        "pass": overhead_pct <= ACCEPTANCE_BOUND_PCT,
        "note": (
            "fixed-seed workload, interleaved direct/service rounds, min "
            "over per-round ratios; direct side timed inside a cold forked "
            "child; service side from daemon submitted_ts->finished_ts "
            "stamps + submit round-trip; daemon boot excluded (one-off, "
            "recorded informationally)"
        ),
    }
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    verdict = "ok" if report["pass"] else "REGRESSION"
    print(
        f"service bench: direct {direct[best]:.2f}s  "
        f"service {service[best]:.2f}s  "
        f"overhead {overhead_pct:+.2f}% "
        f"(bound {ACCEPTANCE_BOUND_PCT:g}%, {verdict}) -> {out}"
    )
    return 0 if report["pass"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_service.json",
        help="where to write the report (default BENCH_service.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved direct/service rounds; min ratio is reported",
    )
    args = parser.parse_args(argv)
    return run_service_bench(out=args.out, repeats=args.repeats)


if __name__ == "__main__":
    sys.exit(main())
