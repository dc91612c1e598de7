"""``repro chaos`` — the process-level chaos harness, end to end.

``repro chaos run`` is the CI-gated proof behind the supervised worker
fleet (:mod:`repro.runtime.supervisor`): it runs a real Table I campaign
*twice* — once serial and uninjected (ground truth), once parallel with
``REPRO_CHAOS`` plans that SIGKILL one worker mid-row, hang another
(heartbeat dead), poison a third row on every attempt, and ENOSPC the
result cache — and then asserts that

* the campaign **completes** (no traceback, no abandoned rows),
* the surviving rows are **byte-identical** to the uninjected serial
  table (quarantined rows excluded and reported),
* the poison row was **quarantined** with its full attempt history,
* the cache **degraded** instead of failing rows, and
* a checkpoint torn *after* the run is skipped with a warning and
  recomputed on ``--resume`` (never a traceback), with the quarantine
  verdict reused rather than re-poisoning the fleet.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import warnings
from pathlib import Path

from .. import telemetry
from ..runtime import faultinject
from ..runtime.checkpoint import CheckpointStore
from . import table1
from .runner import ExperimentRunner, RunPolicy
from .source import CircuitSource
from .table1 import Table1Row, print_table1

#: the default injection mix: one recoverable kill, one recoverable
#: hang (dead heartbeat), one poison row (killed on every attempt), and
#: a disk-full fault on the first result-cache insert of each process
DEFAULT_CHAOS_SPEC = "kill:s38417@0;hang:b20@0;kill:b21@*;enospc:cache.put@1"

#: circuits the default spec targets (b21 ends quarantined)
DEFAULT_CHAOS_CIRCUITS = ["s38417", "b20", "b21"]

#: small-but-real workload knobs for the smoke run
CHAOS_SCALE = 0.02
CHAOS_PATTERNS = 256
CHAOS_KEYS = 4
CHAOS_SEED = 0


def _render(rows: list[Table1Row], quiet: bool = False) -> str:
    """Format a Table I (optionally without echoing it to stdout)."""
    if quiet:
        with contextlib.redirect_stdout(io.StringIO()):
            return print_table1(rows)
    return print_table1(rows)


def _counter_totals(trace_path: Path) -> dict[str, int]:
    """Sum every counter's totals records across all pids in a trace."""
    totals: dict[str, int] = {}
    for _lineno, record in telemetry.iter_trace(trace_path):
        if record.get("kind") == "counter":
            name = record["name"]
            totals[name] = totals.get(name, 0) + int(record["value"])
    return totals


def run_chaos_cli(
    jobs: int = 4,
    spec: str = DEFAULT_CHAOS_SPEC,
    circuits: list[str] | None = None,
    scale: float = CHAOS_SCALE,
    n_patterns: int = CHAOS_PATTERNS,
    workdir: str | None = None,
) -> int:
    """Run the chaos smoke campaign; returns a process exit code.

    See the module docstring for what is asserted.  ``workdir`` holds
    the checkpoints, cache, and merged trace of the injected run; a
    named workdir is kept, with whatever it held before, for post-mortem
    inspection, while the temporary one made without it is removed.
    """
    circuits = circuits or list(DEFAULT_CHAOS_CIRCUITS)
    if workdir:
        root = Path(workdir)
        root.mkdir(parents=True, exist_ok=True)
    else:
        root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    trace_path = root / "chaos-trace.jsonl"
    fingerprint, tasks = table1._tasks(
        CircuitSource(scale), circuits, n_patterns, CHAOS_KEYS, CHAOS_SEED
    )
    problems: list[str] = []
    try:
        # ---- phase 1: serial, uninjected ground truth ----------------- #
        os.environ.pop(faultinject.CHAOS_ENV, None)
        faultinject.clear()
        print(f"[chaos] phase 1/3: serial uninjected baseline "
              f"({','.join(circuits)} @ x{scale:g})")
        baseline = ExperimentRunner("table1", RunPolicy(), fingerprint)
        base_outcomes = baseline.run_rows(tasks)
        base_rows = {
            c: o.value for c, o in zip(circuits, base_outcomes)
            if o.value is not None
        }

        # ---- phase 2: parallel, injected ------------------------------ #
        print(f"[chaos] phase 2/3: --jobs {jobs} with REPRO_CHAOS={spec!r}")
        os.environ[faultinject.CHAOS_ENV] = spec
        faultinject.clear()
        faultinject.install_from_env()
        policy = RunPolicy(
            checkpoint_dir=root / "ckpt",
            jobs=jobs,
            trace_path=trace_path,
            cache_dir=root / "cache",
            worker_retries=1,
            heartbeat_interval_s=0.25,
        )
        runner = ExperimentRunner("table1", policy, fingerprint)
        outcomes = runner.run_rows(tasks)
        quarantined = {
            c for c, o in zip(circuits, outcomes)
            if o.diagnostics.get("quarantine") is not None
        }
        survivors = [c for c in circuits if c not in quarantined]
        chaos_rows = {
            c: o.value for c, o in zip(circuits, outcomes)
            if o.value is not None
        }
        telemetry.flush_counters()

        if len(outcomes) != len(circuits):
            problems.append(
                f"injected campaign abandoned rows: "
                f"{len(outcomes)}/{len(circuits)} outcomes"
            )
        if not quarantined:
            problems.append(
                "no row was quarantined — the poison-row plan never bit"
            )
        for c in sorted(quarantined):
            history = next(
                o for cc, o in zip(circuits, outcomes) if cc == c
            ).diagnostics["quarantine"]["attempts"]
            print(f"[chaos] quarantined {c!r}: "
                  + "; ".join(
                      f"attempt {i}: {a['kind']} "
                      f"(exitcode {a['exitcode']}, signal {a['signal']})"
                      for i, a in enumerate(history)
                  ))

        base_text = _render(
            [base_rows[c] for c in survivors if c in base_rows], quiet=True
        )
        chaos_text = _render(
            [chaos_rows[c] for c in survivors if c in chaos_rows]
        )
        if base_text != chaos_text:
            problems.append(
                "surviving rows are NOT byte-identical to the uninjected "
                "serial run"
            )
        else:
            print("[chaos] surviving rows byte-identical to baseline ✓")

        # ---- phase 3: torn checkpoint + resume ------------------------ #
        print("[chaos] phase 3/3: tear a checkpoint, resume the campaign")
        os.environ.pop(faultinject.CHAOS_ENV, None)
        faultinject.clear()
        store = CheckpointStore(policy.checkpoint_dir, "table1")
        victim = survivors[0] if survivors else circuits[0]
        faultinject.truncate_file(store.path_for(victim), keep_bytes=5)
        resume_policy = RunPolicy(
            checkpoint_dir=policy.checkpoint_dir,
            resume=True,
            trace_path=trace_path,
        )
        resumed = ExperimentRunner("table1", resume_policy, fingerprint)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed_outcomes = resumed.run_rows(tasks)
        telemetry.flush_counters()
        if not any("corrupt checkpoint" in str(w.message) for w in caught):
            problems.append(
                "torn checkpoint did not produce the recovery warning"
            )
        resumed_rows = {
            c: o.value for c, o in zip(circuits, resumed_outcomes)
            if o.value is not None
        }
        resumed_text = _render(
            [resumed_rows[c] for c in survivors if c in resumed_rows],
            quiet=True,
        )
        if resumed_text != base_text:
            problems.append("post-resume rows diverge from the baseline")
        else:
            print(f"[chaos] torn checkpoint for {victim!r} recomputed, "
                  f"table still byte-identical ✓")
        requarantined = {
            c for c, o in zip(circuits, resumed_outcomes)
            if o.diagnostics.get("quarantine") is not None
        }
        if requarantined != quarantined:
            problems.append(
                f"quarantine verdicts did not survive resume: "
                f"{sorted(requarantined)} != {sorted(quarantined)}"
            )
        if resumed.rows_reused < len(circuits) - 1:
            problems.append(
                f"resume recomputed more than the torn row "
                f"(reused {resumed.rows_reused}/{len(circuits)})"
            )

        # ---- counter assertions --------------------------------------- #
        totals = _counter_totals(trace_path)
        checks = {
            "supervisor.crashes": 1,
            "supervisor.hangs": 1,
            "supervisor.quarantined": 1,
            "supervisor.restarts": 1,
            "cache.degraded": 1,
            "checkpoint.corrupt": 1,
        }
        print("[chaos] containment/degradation counters:")
        for name, minimum in checks.items():
            got = totals.get(name, 0)
            mark = "✓" if got >= minimum else "MISSING"
            print(f"[chaos]   {name:<24} {got:>4}  ({mark})")
            if got < minimum:
                problems.append(f"counter {name} = {got}, expected >= {minimum}")
    finally:
        os.environ.pop(faultinject.CHAOS_ENV, None)
        faultinject.clear()
        if workdir:
            print(f"[chaos] artifacts kept in {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)

    if problems:
        print(f"\n[chaos] FAILED: {len(problems)} problem(s)")
        for p in problems:
            print(f"[chaos]   - {p}")
        return 1
    print("\n[chaos] chaos smoke passed: campaign survived injected "
          "crashes, hangs, a poison row, a full disk and a torn checkpoint")
    return 0
