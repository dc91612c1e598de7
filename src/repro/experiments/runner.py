"""Crash-safe, resource-governed execution of experiment campaigns.

Every paper artifact (E1–E5) is a loop over independent rows — one
benchmark circuit, one (attack, chip) cell, one threat scenario.  This
module gives those loops a shared execution discipline:

* each row runs under :func:`repro.runtime.run_with_retry` with an
  optional per-row :class:`~repro.runtime.Budget` (wall-clock deadline
  plus resource caps), so a hung solve becomes a ``timeout`` row instead
  of a hung campaign;
* each finished row is written to a :class:`~repro.runtime.CheckpointStore`
  atomically (temp file + rename) so a crash — including a kill between
  rows — loses at most the row in flight;
* ``resume=True`` reuses checkpointed rows whose parameter fingerprint
  matches, recomputing only ``error`` rows (a timeout or budget verdict
  is a deliberate outcome and is kept).

The fault-injection site ``experiment.row`` fires *before* a row's
guarded region, so an injected crash kills the campaign exactly the way
a power cut would — after the previous row's checkpoint hit the disk and
before the current row produced anything.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .. import cache as result_cache
from .. import telemetry
from ..cache.keys import Uncacheable
from ..runtime import faultinject
from ..runtime.budget import Budget
from ..runtime.checkpoint import CheckpointStore
from ..runtime.codec import outcome_to_payload, payload_to_outcome
from ..runtime.outcome import RunOutcome, RunStatus, run_with_retry
from ..runtime.supervisor import CampaignInterrupted, PoolTask, SupervisedPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import CacheKey, ResultCache
    from ..lint.diagnostics import LintReport

#: default location for experiment checkpoints, relative to the CWD
DEFAULT_CHECKPOINT_ROOT = ".repro-checkpoints"

#: bump when row semantics change in a way the fingerprint cannot see —
#: every row-level result-cache entry is salted with this
CACHE_VERSION = 1

#: checkpoint statuses that are reused on resume; ``error`` rows are
#: always recomputed (that is what the retry policy exists for)
_REUSABLE = frozenset({"ok", "timeout", "budget"})


@dataclass
class RunPolicy:
    """Execution policy shared by every row of one campaign.

    Attributes:
        checkpoint_dir: root directory for per-row checkpoints (None
            disables checkpointing entirely).
        resume: reuse checkpointed rows with a matching fingerprint.
        row_deadline_s: wall-clock allowance per row (None = unlimited).
        max_conflicts / max_backtracks / max_patterns: per-row resource
            caps threaded into the row's :class:`Budget`.
        retries: extra attempts for rows that end in ``error``.
        backoff_s: base of the deterministic retry backoff.
        jobs: worker processes for :meth:`ExperimentRunner.run_rows`
            (1 = in-process sequential execution, the default).
        trace_path: JSONL trace file for the campaign; the runner (and
            every pool worker) configures :mod:`repro.telemetry` to
            append there, so one merged trace carries the spans of all
            processes.  None (default) leaves telemetry untouched.
        cache_dir: root of the content-addressed result cache
            (:mod:`repro.cache`); the runner (and every pool worker)
            configures the process-global cache there, so completed
            ``ok`` rows are served from disk on the next identical run.
            None (default) disables result caching.
        cache_max_bytes: LRU size bound for the result cache (None =
            the store's default).
        supervised: run parallel campaigns on the crash/hang-containing
            :class:`~repro.runtime.SupervisedPool` (the default) instead
            of a bare ``ProcessPoolExecutor`` (kept for overhead
            benchmarking; a worker crash there aborts the campaign).
        worker_retries: process-level retries before a row that crashes
            or hangs its worker is quarantined.
        hang_grace_s: wall-clock margin past a row's full in-process
            allowance before the supervisor declares the worker hung.
        heartbeat_interval_s: supervised-worker heartbeat cadence.
        retry_quarantined: recompute quarantined rows on ``--resume``
            instead of reusing their quarantine verdict (default False:
            a poison row would just take workers down again).
        sim_backend, max_matrix_bytes: deprecated v1 no-ops.  A
            non-default value warns once and is reset to the default;
            simulation always runs on the fused lane under a fixed
            chunk cap, which is bit-identical to every former choice.
        prewarm: tuple of ``(callable, args)`` pairs executed by every
            supervised-pool worker at bootstrap.  Each callable must be
            module-level (it pickles with the policy) and return a
            :class:`~repro.netlist.Netlist` — or an iterable of them —
            which the worker compiles into its op-tape engine cache, so
            the per-process compile happens once up front instead of
            inside the first row's budget.  Each compile bumps the
            ``optape.compile.shared`` counter.
    """

    checkpoint_dir: str | Path | None = None
    resume: bool = False
    row_deadline_s: float | None = None
    max_conflicts: int | None = None
    max_backtracks: int | None = None
    max_patterns: int | None = None
    retries: int = 0
    backoff_s: float = 0.0
    jobs: int = 1
    trace_path: str | Path | None = None
    cache_dir: str | Path | None = None
    cache_max_bytes: int | None = None
    supervised: bool = True
    worker_retries: int = 1
    hang_grace_s: float = 30.0
    heartbeat_interval_s: float = 1.0
    retry_quarantined: bool = False
    sim_backend: str = "auto"
    max_matrix_bytes: int | None = None
    prewarm: tuple = ()

    def __post_init__(self) -> None:
        if self.sim_backend != "auto" or self.max_matrix_bytes is not None:
            from ..sim.metrics import reset_ignored_knobs

            reset_ignored_knobs(self)

    def row_allowance_s(self) -> float | None:
        """Worst-case in-process wall clock for one supervised row.

        ``run_with_retry`` may burn ``retries + 1`` fresh deadlines plus
        the deterministic backoff sleeps between them; the supervisor's
        watchdog only fires *past* this allowance (+ grace), so it can
        never race a row that is merely slow-but-legal.  None (no
        deadline) disables the watchdog — the stale-heartbeat monitor
        still covers truly dead workers.
        """
        if self.row_deadline_s is None:
            return None
        allowance = (self.retries + 1) * self.row_deadline_s
        allowance += sum(self.backoff_s * 2**i for i in range(self.retries))
        return allowance

    def budget_factory(self) -> Callable[[], Budget | None] | None:
        """Factory for fresh per-attempt budgets (None when unlimited)."""
        if (
            self.row_deadline_s is None
            and self.max_conflicts is None
            and self.max_backtracks is None
            and self.max_patterns is None
        ):
            return None
        return lambda: Budget(
            wall_s=self.row_deadline_s,
            max_conflicts=self.max_conflicts,
            max_backtracks=self.max_backtracks,
            max_patterns=self.max_patterns,
        )


@dataclass
class RowTask:
    """One row of a campaign, described as data.

    ``compute`` and ``preflight`` must be module-level callables taking
    the positional ``args``/``preflight_args`` (plus ``budget=`` for
    ``compute`` under a limited policy) so they pickle across the process
    pool when :meth:`ExperimentRunner.run_rows` runs with ``jobs > 1``.
    ``encode``/``decode`` run only in the parent and may be lambdas.
    """

    key: str
    compute: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    encode: Callable[[Any], dict] | None = None
    decode: Callable[[dict], Any] | None = None
    preflight: Callable[..., "LintReport"] | None = None
    preflight_args: tuple[Any, ...] = ()


def _configure_policy_cache(policy: RunPolicy) -> "ResultCache | None":
    """Enable the process-global result cache a policy asks for.

    Runs in the parent (runner construction) and in every pool worker
    (so the inner ``measure_corruption``/``run_attack`` calls of a row
    hit the same disk store).  A policy without ``cache_dir`` leaves the
    global cache untouched — campaigns do not disable caching someone
    else enabled.
    """
    if policy.cache_dir is None:
        return None
    max_bytes = (
        policy.cache_max_bytes
        if policy.cache_max_bytes is not None
        else result_cache.DEFAULT_MAX_BYTES
    )
    return result_cache.configure(policy.cache_dir, max_bytes=max_bytes)


def _pool_worker(
    compute: Callable[..., Any],
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    policy: RunPolicy,
    experiment: str = "",
    key: str = "",
) -> RunOutcome:
    """Child-process entry: one guarded row under a fresh budget.

    When the policy carries a ``trace_path`` the worker joins the shared
    JSONL trace (idempotent across rows of the same batch) and wraps the
    row in its own ``experiment.row`` span.  Counter totals are flushed
    after every row — pool children exit via ``os._exit``, which skips
    ``atexit``, so waiting for interpreter shutdown would lose them; the
    report tool sums totals records per counter, so per-row flushing
    changes record counts, not reported values.
    """
    if policy.trace_path is not None:
        telemetry.configure(path=policy.trace_path)
    _configure_policy_cache(policy)
    with telemetry.span(
        "experiment.row", experiment=experiment, key=key
    ) as sp:
        outcome = run_with_retry(
            compute,
            *args,
            budget_factory=policy.budget_factory(),
            retries=policy.retries,
            backoff_s=policy.backoff_s,
            **kwargs,
        )
        sp.set(status=outcome.status.value, attempts=outcome.attempts)
    telemetry.counter_add("experiment.rows")
    telemetry.flush_counters()
    return outcome


def _run_prewarm(policy: RunPolicy) -> None:
    """Compile the policy's pre-warm netlists into this process's op-tape
    engine cache.

    A prewarm failure is deliberately non-fatal: the worker still serves
    rows (each row compiles lazily as before), it just loses the shared
    head start.  Every successful compile bumps ``optape.compile.shared``
    so traces can prove the pre-warm actually happened per worker.
    """
    if not policy.prewarm:
        return
    from ..netlist import Netlist
    from ..sim.optape import compile_engine

    for fn, args in policy.prewarm:
        try:
            produced = fn(*args)
            netlists = (
                [produced] if isinstance(produced, Netlist) else list(produced)
            )
            for netlist in netlists:
                compile_engine(netlist)
                telemetry.counter_add("optape.compile.shared")
        except Exception:  # a cold cache is a slow start, not a crash
            continue


def _supervised_worker_init(policy: RunPolicy) -> None:
    """Per-worker bootstrap for the supervised pool: join the campaign's
    shared trace and result cache (both idempotent per process), then
    pre-warm the compiled op-tape cache with the campaign's netlists."""
    if policy.trace_path is not None:
        telemetry.configure(path=policy.trace_path)
    _configure_policy_cache(policy)
    _run_prewarm(policy)


def _supervised_row(
    row_arg: tuple[RunPolicy, str],
    key: str,
    payload: tuple[Callable[..., Any], tuple, dict],
    attempt: int,
) -> RunOutcome:
    """Supervised-worker row entry: one guarded row under a fresh budget.

    Same contract as :func:`_pool_worker`, shaped for
    :class:`~repro.runtime.SupervisedPool` (``attempt`` is the
    process-level attempt — nonzero after a crash/hang re-dispatch).
    Counters are flushed per row because crashed workers never reach
    ``atexit``.
    """
    policy, experiment = row_arg
    compute, args, kwargs = payload
    with telemetry.span(
        "experiment.row", experiment=experiment, key=key, attempt=attempt
    ) as sp:
        outcome = run_with_retry(
            compute,
            *args,
            budget_factory=policy.budget_factory(),
            retries=policy.retries,
            backoff_s=policy.backoff_s,
            **kwargs,
        )
        sp.set(status=outcome.status.value, attempts=outcome.attempts)
    telemetry.counter_add("experiment.rows")
    telemetry.flush_counters()
    return outcome


class ExperimentRunner:
    """Runs one campaign's rows under a :class:`RunPolicy`.

    Args:
        experiment: campaign name (checkpoint subdirectory).
        policy: execution policy; a default (no checkpoints, no limits)
            is used when omitted.
        fingerprint: JSON-able dict of every parameter that affects row
            values (scale, seeds, pattern counts...).  A checkpointed row
            is only reused when its stored fingerprint matches exactly —
            resuming with changed parameters silently recomputes.
    """

    def __init__(
        self,
        experiment: str,
        policy: RunPolicy | None = None,
        fingerprint: dict[str, Any] | None = None,
    ) -> None:
        self.experiment = experiment
        self.policy = policy or RunPolicy()
        self.fingerprint = fingerprint or {}
        self.store: CheckpointStore | None = None
        if self.policy.checkpoint_dir is not None:
            self.store = CheckpointStore(
                self.policy.checkpoint_dir, experiment
            )
        self.rows_reused = 0
        self.rows_computed = 0
        self.rows_cached = 0
        if self.policy.trace_path is not None:
            telemetry.configure(path=self.policy.trace_path)
        self.cache = _configure_policy_cache(self.policy)

    # ------------------------------------------------------------------ #

    def run_row(
        self,
        key: str,
        compute: Callable[..., Any],
        encode: Callable[[Any], dict] | None = None,
        decode: Callable[[dict], Any] | None = None,
        preflight: Callable[..., "LintReport"] | None = None,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        preflight_args: tuple[Any, ...] = (),
    ) -> RunOutcome:
        """Run (or reuse) one row; returns its :class:`RunOutcome`.

        ``compute`` is called as ``compute(*args, **kwargs)`` and must
        additionally accept a ``budget`` keyword when the policy sets
        any per-row limit.  ``encode``/``decode`` convert the row value
        to/from a JSON-able dict for checkpointing; without them the raw
        value is stored (it must then be JSON-able itself).

        ``preflight``, when given, produces a lint report for the row's
        inputs *before* any compute budget is spent; a report with errors
        turns the row into an ``error`` outcome carrying the structured
        diagnostics — a malformed circuit becomes a visible verdict, not
        a wrong number or a hung solver.
        """
        if faultinject.enabled:
            # deliberately outside the guarded region: an injected crash
            # here kills the campaign like a power cut between rows
            faultinject.fire("experiment.row")

        if self.store is not None and self.policy.resume:
            cached = self._load_cached(key, decode)
            if cached is not None:
                self.rows_reused += 1
                return cached

        hit = self._cache_lookup(key, encode, decode)
        if hit is not None:
            self.rows_cached += 1
            return hit

        if preflight is not None:
            failed = self._run_preflight(key, preflight, preflight_args)
            if failed is not None:
                return failed

        with telemetry.span(
            "experiment.row", experiment=self.experiment, key=key
        ) as sp:
            outcome = run_with_retry(
                compute,
                *args,
                budget_factory=self.policy.budget_factory(),
                retries=self.policy.retries,
                backoff_s=self.policy.backoff_s,
                **(kwargs or {}),
            )
            sp.set(status=outcome.status.value, attempts=outcome.attempts)
        telemetry.counter_add("experiment.rows")
        self.rows_computed += 1
        self._save_outcome(key, outcome, encode)
        return outcome

    def run_rows(
        self, tasks: list[RowTask], jobs: int | None = None
    ) -> list[RunOutcome]:
        """Run a campaign's rows, optionally across worker processes.

        With ``jobs`` (default ``policy.jobs``) above 1, rows whose
        results are not already checkpointed are dispatched to a
        :class:`~repro.runtime.SupervisedPool` (or, with
        ``policy.supervised=False``, a bare ``ProcessPoolExecutor``);
        each worker re-runs the row under the same policy (fresh
        per-attempt budgets, retry/backoff) via :func:`run_with_retry`.
        Everything stateful — fault-injection sites, resume-cache
        lookups, lint preflights and checkpoint writes — stays in the
        parent, and outcomes are keyed by task index, so a parallel
        campaign produces exactly the rows a sequential one would (a row
        that crashes or hangs its worker past ``policy.worker_retries``
        becomes a quarantined ``error`` outcome instead of aborting the
        campaign).

        SIGINT/SIGTERM raise :class:`~repro.runtime.CampaignInterrupted`
        after completed rows are checkpointed — the campaign is
        resumable, never a half-lost table.
        """
        jobs = self.policy.jobs if jobs is None else jobs
        if jobs <= 1:
            results_seq: list[RunOutcome] = []
            for t in tasks:
                try:
                    results_seq.append(
                        self.run_row(
                            t.key,
                            t.compute,
                            encode=t.encode,
                            decode=t.decode,
                            preflight=t.preflight,
                            args=t.args,
                            kwargs=t.kwargs,
                            preflight_args=t.preflight_args,
                        )
                    )
                except KeyboardInterrupt:
                    raise CampaignInterrupted(
                        done=len(results_seq),
                        total=len(tasks),
                        experiment=self.experiment,
                    ) from None
            return results_seq
        results: list[RunOutcome | None] = [None] * len(tasks)
        remaining: list[tuple[int, RowTask]] = []
        for i, t in enumerate(tasks):
            if faultinject.enabled:
                faultinject.fire("experiment.row")
            if self.store is not None and self.policy.resume:
                cached = self._load_cached(t.key, t.decode)
                if cached is not None:
                    self.rows_reused += 1
                    results[i] = cached
                    continue
            hit = self._cache_lookup(t.key, t.encode, t.decode)
            if hit is not None:
                self.rows_cached += 1
                results[i] = hit
                continue
            if t.preflight is not None:
                failed = self._run_preflight(
                    t.key, t.preflight, t.preflight_args
                )
                if failed is not None:
                    results[i] = failed
                    continue
            remaining.append((i, t))
        if remaining:
            if self.policy.supervised:
                self._run_supervised(tasks, remaining, results, jobs)
            else:
                self._run_bare_pool(tasks, remaining, results, jobs)
        return [r for r in results if r is not None]

    def _run_supervised(
        self,
        tasks: list[RowTask],
        remaining: list[tuple[int, RowTask]],
        results: list[RunOutcome | None],
        jobs: int,
    ) -> None:
        """Dispatch the uncached rows to a :class:`SupervisedPool`.

        Outcomes are checkpointed *on arrival* (completion order), so an
        interrupt or crash mid-campaign loses at most rows in flight.
        """
        pool = SupervisedPool(
            jobs=jobs,
            row_fn=_supervised_row,
            row_arg=(self.policy, self.experiment),
            init_fn=_supervised_worker_init,
            init_arg=self.policy,
            row_allowance_s=self.policy.row_allowance_s(),
            hang_grace_s=self.policy.hang_grace_s,
            worker_retries=self.policy.worker_retries,
            backoff_s=self.policy.backoff_s,
            heartbeat_interval_s=self.policy.heartbeat_interval_s,
            experiment=self.experiment,
        )

        def on_result(index: int, outcome: RunOutcome) -> None:
            self.rows_computed += 1
            self._save_outcome(tasks[index].key, outcome, tasks[index].encode)
            results[index] = outcome

        pool.run(
            [PoolTask(i, t.key, (t.compute, t.args, t.kwargs))
             for i, t in remaining],
            on_result=on_result,
        )

    def _run_bare_pool(
        self,
        tasks: list[RowTask],
        remaining: list[tuple[int, RowTask]],
        results: list[RunOutcome | None],
        jobs: int,
    ) -> None:
        """Legacy unsupervised path (``policy.supervised=False``).

        Kept as the overhead-benchmark baseline; a worker crash here
        still aborts the whole campaign (``BrokenProcessPool``), but an
        interrupt at least flushes finished rows and reports a resumable
        position instead of a ``concurrent.futures`` stack trace.
        """
        pool = ProcessPoolExecutor(max_workers=jobs)
        futures: dict[int, Any] = {}
        try:
            for i, t in remaining:
                futures[i] = pool.submit(
                    _pool_worker,
                    t.compute,
                    t.args,
                    t.kwargs,
                    self.policy,
                    self.experiment,
                    t.key,
                )
            for i, fut in futures.items():
                outcome = fut.result()
                self.rows_computed += 1
                self._save_outcome(tasks[i].key, outcome, tasks[i].encode)
                results[i] = outcome
        except KeyboardInterrupt:
            # flush whatever already finished, kill the rest promptly,
            # and surface a clean "resumable at row k/n" verdict
            for i, fut in futures.items():
                if results[i] is None and fut.done() and not fut.cancelled():
                    try:
                        outcome = fut.result(timeout=0)
                    except Exception:
                        continue
                    self.rows_computed += 1
                    self._save_outcome(
                        tasks[i].key, outcome, tasks[i].encode
                    )
                    results[i] = outcome
            pool.shutdown(wait=False, cancel_futures=True)
            raise CampaignInterrupted(
                done=sum(1 for r in results if r is not None),
                total=len(tasks),
                experiment=self.experiment,
            ) from None
        else:
            pool.shutdown(wait=True)

    def _row_cache_key(self, key: str) -> "CacheKey | None":
        """Content-addressed key of one row (None when underivable).

        The row-level key covers the same contract resume already
        documents: the fingerprint dict must name every parameter that
        affects row values.  The experiment name, the row key and the
        module :data:`CACHE_VERSION` salt complete the address.
        """
        try:
            return result_cache.cache_key(
                "experiment.row",
                salt=f"experiments.runner/{CACHE_VERSION}",
                experiment=self.experiment,
                row=key,
                fingerprint=self.fingerprint,
            )
        except Uncacheable:
            return None

    def _cache_lookup(
        self,
        key: str,
        encode: Callable[[Any], dict] | None,
        decode: Callable[[dict], Any] | None,
    ) -> RunOutcome | None:
        """Serve one row from the result cache (None on miss/disabled)."""
        if self.cache is None:
            return None
        ck = self._row_cache_key(key)
        if ck is None:
            return None
        payload = self.cache.get(ck)
        if payload is None:
            return None
        outcome = payload_to_outcome(payload, decode, provenance="result_cache")
        if outcome is None or outcome.status is not RunStatus.OK:
            return None
        # keep the checkpoint layer in step so --resume sees this row too
        if self.store is not None:
            self.store.save(
                key, outcome_to_payload(outcome, encode, self.fingerprint)
            )
        return outcome

    def _save_outcome(
        self,
        key: str,
        outcome: RunOutcome,
        encode: Callable[[Any], dict] | None,
    ) -> None:
        """Persist one computed row: checkpoint always, cache when ``ok``.

        Only ``ok`` rows enter the result cache — a timeout or budget
        verdict depends on the machine and the moment, so replaying it
        from a cache would freeze a transient into a fact.  (Checkpoints
        keep those verdicts; that is resume's job.)
        """
        payload = None
        if self.store is not None:
            payload = outcome_to_payload(outcome, encode, self.fingerprint)
            self.store.save(key, payload)
        if self.cache is not None and outcome.status is RunStatus.OK:
            ck = self._row_cache_key(key)
            if ck is not None:
                if payload is None:
                    payload = outcome_to_payload(
                        outcome, encode, self.fingerprint
                    )
                self.cache.put(ck, payload)

    def _run_preflight(
        self,
        key: str,
        preflight: Callable[..., "LintReport"],
        preflight_args: tuple[Any, ...] = (),
    ) -> RunOutcome | None:
        """Lint the row's inputs; an error report becomes the row verdict.

        Returns None when the row may proceed (clean report, or findings
        below error severity).  A crashing preflight is itself an
        ``error`` outcome — a checker that cannot even model the input is
        the strongest possible pre-flight failure.
        """
        try:
            report = preflight(*preflight_args)
        except Exception as exc:
            outcome = RunOutcome(
                RunStatus.ERROR,
                error=f"lint preflight crashed: {exc}",
                error_type=type(exc).__name__,
            )
        else:
            if not report.has_errors:
                return None
            first = report.errors[0]
            outcome = RunOutcome(
                RunStatus.ERROR,
                error=(
                    f"lint preflight failed ({len(report.errors)} error(s); "
                    f"first: {first.format()})"
                ),
                error_type="LintError",
                diagnostics={"lint": [d.to_dict() for d in report.sorted()]},
            )
        self.rows_computed += 1
        if self.store is not None:
            self.store.save(
                key,
                outcome_to_payload(
                    outcome,
                    fingerprint=self.fingerprint,
                    extra={"lint": outcome.diagnostics.get("lint", [])},
                ),
            )
        return outcome

    def _load_cached(
        self, key: str, decode: Callable[[dict], Any] | None
    ) -> RunOutcome | None:
        assert self.store is not None
        payload = self.store.load(key)
        if payload is None:
            return None
        if payload.get("fingerprint") != self.fingerprint:
            return None
        if payload.get("quarantined"):
            # a poison row would just take workers down again — reuse its
            # quarantine verdict unless the operator explicitly retries
            if self.policy.retry_quarantined:
                return None
            return payload_to_outcome(payload, decode, provenance="cached")
        if payload.get("status") not in _REUSABLE:
            return None
        return payload_to_outcome(payload, decode, provenance="cached")
