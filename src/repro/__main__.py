"""CLI entry: run any paper experiment from the command line.

Usage::

    python -m repro table1 [--scale 0.02] [--circuits s38417,b20]
    python -m repro table2 [--scale 0.01]
    python -m repro attacks [--variant basic|modified]
    python -m repro trojans
    python -m repro protocol
    python -m repro ablations
    python -m repro bench [--smoke]
    python -m repro corpus verify
    python -m repro table1 --corpus iscas85-mini
    python -m repro trace report out.jsonl
    python -m repro cache stats
    python -m repro all

Every campaign subcommand carries one identical runtime flag set via
:func:`add_runtime_flags` — ``--jobs``, ``--trace``,
``--cache``/``--no-cache``/``--cache-dir`` mean the same thing
everywhere.  ``--trace`` streams telemetry spans/counters (merged across
worker processes) into a JSONL trace, inspected with ``repro trace
report`` / ``repro trace validate``; ``--cache`` serves unchanged rows
from the content-addressed result cache (``repro cache
stats|clear|verify``; see docs/CACHING.md).

Each campaign subcommand calls its harness directly —
``print_table1(run_table1(...))`` and so on — with a
:class:`~repro.experiments.RunPolicy` built from those flags.
"""

from __future__ import annotations

import argparse
import sys


def add_runtime_flags(p, policy: bool = True) -> None:
    """Attach the unified runtime flag set to one subparser.

    Every campaign parser goes through here, so ``--jobs/--trace/--cache*``
    are spelled and documented identically across the CLI.  ``policy=True``
    additionally attaches the checkpoint/retry knobs that only
    row-runner campaigns honour.
    """
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for campaign rows (1 = sequential; "
        "campaigns without row parallelism accept and ignore it)",
    )
    p.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE.jsonl",
        help="append telemetry spans/counters to this JSONL trace "
        "(merged across --jobs workers)",
    )
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="serve unchanged rows from the content-addressed result "
        "cache and insert fresh ones (--no-cache disables; "
        "see `repro cache stats`)",
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="result-cache root (default .repro-cache; implies --cache)",
    )
    if not policy:
        return
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse checkpointed rows with matching parameters",
    )
    p.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="checkpoint root (default .repro-checkpoints; "
        "implied by --resume)",
    )
    p.add_argument(
        "--row-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per row (expired rows are recorded "
        "as timeout)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts for rows that end in error",
    )
    p.add_argument(
        "--worker-retries",
        type=int,
        default=1,
        metavar="N",
        help="process-level retries before a row that crashes/hangs "
        "its worker is quarantined (supervised --jobs runs)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``repro`` argument parser (import-light)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OraP (DATE 2020) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    corpus_help = (
        "run on a genuine corpus family (e.g. iscas85-mini) packaged "
        "with repro instead of the synthetic stand-ins; see "
        "`repro corpus list` and docs/CORPUS.md"
    )

    p1 = sub.add_parser("table1", help="Table I: HD + area/delay overhead")
    p1.add_argument("--scale", type=float, default=None)
    p1.add_argument("--circuits", type=str, default=None)
    p1.add_argument("--patterns", type=int, default=4096)
    p1.add_argument("--corpus", type=str, default=None, help=corpus_help)
    add_runtime_flags(p1)

    p2 = sub.add_parser("table2", help="Table II: stuck-at testability")
    p2.add_argument("--scale", type=float, default=None)
    p2.add_argument("--circuits", type=str, default=None)
    p2.add_argument("--patterns", type=int, default=1024)
    p2.add_argument("--corpus", type=str, default=None, help=corpus_help)
    add_runtime_flags(p2)

    pa = sub.add_parser("attacks", help="Sect. II-A attack matrix")
    pa.add_argument("--variant", choices=["basic", "modified"], default="basic")
    pa.add_argument(
        "--attack-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per attack (expired attacks show as "
        "timeout rows)",
    )
    pa.add_argument("--corpus", type=str, default=None, help=corpus_help)
    pa.add_argument(
        "--circuit",
        type=str,
        default=None,
        help="pick one corpus circuit as the protected host "
        "(default: first sequential circuit of the family)",
    )
    add_runtime_flags(pa)

    for name, help_text in (
        ("trojans", "Sect. III Trojan payload table"),
        ("protocol", "Figs. 1-3 protocol checks"),
        ("ablations", "design-knob sweeps"),
        ("all", "every experiment, default parameters"),
    ):
        add_runtime_flags(sub.add_parser(name, help=help_text), policy=False)
    ph = sub.add_parser("hd-sweep", help="HD saturation curve (Table I rule)")
    ph.add_argument("--circuit", default="b20")
    add_runtime_flags(ph, policy=False)

    pb = sub.add_parser(
        "bench",
        help="compiled-engine vs scalar simulation benchmark "
        "(writes BENCH_sim.json)",
    )
    pb.add_argument(
        "--circuits",
        type=str,
        default=None,
        help="comma-separated circuit names (default: b20,b21,b22)",
    )
    pb.add_argument("--scale", type=float, default=None)
    pb.add_argument("--keys", type=int, default=64)
    pb.add_argument("--patterns", type=int, default=4096)
    pb.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repeats per lane (minimum is reported)",
    )
    pb.add_argument(
        "--out", type=str, default="BENCH_sim.json", help="output JSON path"
    )
    pb.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fixed workload: verifies engine/scalar agreement only "
        "(never fails on timing)",
    )
    pb.add_argument(
        "--profile",
        type=str,
        nargs="?",
        const=".bench-profile",
        default=None,
        metavar="DIR",
        help="write a cProfile artifact per benched circuit into DIR "
        "(default .bench-profile)",
    )

    pcor = sub.add_parser(
        "corpus",
        help="inspect the packaged benchmark-netlist catalog "
        "(docs/CORPUS.md)",
    )
    pcor.add_argument(
        "action",
        choices=["list", "verify"],
        help="list: every catalog entry with its pinned digest; verify: "
        "re-hash the packaged fixtures against their pins",
    )
    pcor.add_argument("--format", choices=["text", "json"], default="text")

    pc = sub.add_parser(
        "cache", help="inspect or maintain the content-addressed result cache"
    )
    pc.add_argument(
        "action",
        choices=["stats", "clear", "verify"],
        help="stats: occupancy and per-kind counts; clear: drop every "
        "entry; verify: audit digests, checksums and the index log",
    )
    pc.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="result-cache root (default .repro-cache)",
    )
    pc.add_argument("--format", choices=["text", "json"], default="text")

    pt = sub.add_parser(
        "trace", help="inspect or validate a telemetry JSONL trace"
    )
    pt.add_argument(
        "action",
        choices=["report", "validate"],
        help="report: per-phase timing summary; validate: schema-check "
        "every record",
    )
    pt.add_argument("path", help="trace file written via --trace")
    pt.add_argument(
        "--top",
        type=int,
        default=10,
        help="slowest rows to list in the report (default 10)",
    )

    pl = sub.add_parser(
        "lint", help="static-analysis pre-flight over netlists/schemes/CNF"
    )
    pl.add_argument(
        "paths", nargs="*", help=".bench/.v/.cnf/.dimacs files to lint"
    )
    pl.add_argument(
        "--benchmarks",
        action="store_true",
        help="lint every bundled benchmark stand-in and fixture",
    )
    pl.add_argument(
        "--orap",
        action="store_true",
        help="lint freshly protected OraP chips (basic + modified)",
    )
    pl.add_argument("--scale", type=float, default=None)
    pl.add_argument("--format", choices=["text", "json"], default="text")
    pl.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    pl.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    pl.add_argument(
        "--no-info", action="store_true", help="hide info-level findings"
    )

    pch = sub.add_parser(
        "chaos",
        help="process-level chaos harness: injected crash/hang campaign",
    )
    pch.add_argument(
        "action",
        choices=["run"],
        help="run: campaign with injected worker kills/hangs/disk faults, "
        "asserting completion + byte-identical tables + quarantine",
    )
    pch.add_argument("--jobs", type=int, default=4, metavar="N")
    pch.add_argument(
        "--spec",
        type=str,
        default=None,
        help="REPRO_CHAOS spec (default: kill+hang+poison+ENOSPC mix)",
    )
    pch.add_argument("--circuits", type=str, default=None)
    pch.add_argument("--scale", type=float, default=None)
    pch.add_argument("--patterns", type=int, default=None)
    pch.add_argument(
        "--workdir", type=str, default=None,
        help="working directory for checkpoints/cache/trace",
    )
    pch.add_argument(
        "--keep", action="store_true",
        help="keep the working directory for post-mortem inspection",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    args = build_parser().parse_args(argv)

    if args.cmd == "chaos":
        from .experiments.chaos import (
            CHAOS_PATTERNS,
            CHAOS_SCALE,
            DEFAULT_CHAOS_SPEC,
            run_chaos_cli,
        )

        return run_chaos_cli(
            jobs=args.jobs,
            spec=args.spec or DEFAULT_CHAOS_SPEC,
            circuits=args.circuits.split(",") if args.circuits else None,
            scale=args.scale or CHAOS_SCALE,
            n_patterns=args.patterns or CHAOS_PATTERNS,
            workdir=args.workdir,
            keep=args.keep,
        )

    if args.cmd == "bench":
        from .sim.bench import run_bench_cli

        return run_bench_cli(
            circuits=args.circuits.split(",") if args.circuits else None,
            scale=args.scale,
            n_keys=args.keys,
            n_patterns=args.patterns,
            repeats=args.repeats,
            out=args.out,
            smoke=args.smoke,
            profile_dir=args.profile,
        )

    if args.cmd == "corpus":
        from .corpus.cli import run_corpus_cli

        return run_corpus_cli(args.action, fmt=args.format)

    if args.cmd == "cache":
        from .cache.cli import run_cache_cli
        from .cache.store import DEFAULT_CACHE_ROOT

        return run_cache_cli(
            args.action,
            root=args.cache_dir or DEFAULT_CACHE_ROOT,
            fmt=args.format,
        )

    if args.cmd == "trace":
        from .telemetry import run_trace_cli

        return run_trace_cli(args.action, args.path, top=args.top)

    if args.cmd == "lint":
        from .lint.cli import run_lint

        return run_lint(
            paths=args.paths,
            benchmarks=args.benchmarks,
            orap=args.orap,
            scale=args.scale,
            fmt=args.format,
            strict=args.strict,
            show_info=not args.no_info,
            list_rules=args.rules,
        )

    def cache_dir_of(a) -> "str | None":
        from .cache.store import DEFAULT_CACHE_ROOT

        cache_flag = getattr(a, "cache", None)
        cache_dir = getattr(a, "cache_dir", None)
        if cache_flag is False:
            return None  # --no-cache beats --cache-dir
        if cache_flag and cache_dir is None:
            return DEFAULT_CACHE_ROOT
        return cache_dir

    # enable the process-global result cache for every campaign command —
    # harnesses that call run_attack/measure_corruption directly (ablations,
    # hd-sweep) cache through it even without a RunPolicy
    resolved_cache_dir = cache_dir_of(args)
    if resolved_cache_dir is not None:
        from . import cache as _cache

        _cache.configure(resolved_cache_dir)

    # --trace must bite on every campaign, including harnesses that
    # never thread a RunPolicy: it configures telemetry process-globally
    trace = getattr(args, "trace", None)
    if trace is not None:
        from . import telemetry

        telemetry.configure(path=trace)

    def circuits_of(s: str | None) -> list[str] | None:
        return s.split(",") if s else None

    def policy_of(a) -> "RunPolicy | None":
        from .experiments import DEFAULT_CHECKPOINT_ROOT, RunPolicy

        resume = getattr(a, "resume", False)
        checkpoint_dir = getattr(a, "checkpoint_dir", None)
        if resume and checkpoint_dir is None:
            checkpoint_dir = DEFAULT_CHECKPOINT_ROOT
        row_deadline = getattr(a, "row_deadline", None)
        retries = getattr(a, "retries", 0)
        jobs = getattr(a, "jobs", 1)
        trace = getattr(a, "trace", None)
        cache_dir = cache_dir_of(a)
        if (
            checkpoint_dir is None
            and not resume
            and row_deadline is None
            and retries == 0
            and jobs <= 1
            and trace is None
            and cache_dir is None
        ):
            return None
        return RunPolicy(
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            row_deadline_s=row_deadline,
            retries=retries,
            jobs=jobs,
            trace_path=trace,
            cache_dir=cache_dir,
            worker_retries=getattr(a, "worker_retries", 1),
        )

    from .experiments.source import CircuitSelectionError
    from .runtime import CampaignInterrupted

    try:
        return _dispatch_campaign(args, policy_of, circuits_of)
    except CampaignInterrupted as interrupted:
        # completed rows are already checkpointed; report the resumable
        # position instead of a concurrent.futures stack trace
        print(f"\nrepro: {interrupted}", file=sys.stderr)
        return 130
    except CircuitSelectionError as bad:
        print(f"repro: {bad}", file=sys.stderr)
        return 2


def _dispatch_campaign(args, policy_of, circuits_of) -> int:
    from .experiments import (
        DEFAULT_SCALE,
        print_attack_matrix,
        print_protocol,
        print_table1,
        print_table2,
        print_trojan_table,
        run_attack_matrix,
        run_protocol_checks,
        run_table1,
        run_table2,
        run_trojan_table,
    )

    if args.cmd == "table1":
        print_table1(
            run_table1(
                scale=DEFAULT_SCALE if args.scale is None else args.scale,
                circuits=circuits_of(args.circuits),
                n_patterns=args.patterns,
                policy=policy_of(args),
                corpus=args.corpus,
            )
        )
    elif args.cmd == "table2":
        print_table2(
            run_table2(
                scale=DEFAULT_SCALE if args.scale is None else args.scale,
                circuits=circuits_of(args.circuits),
                n_random_patterns=args.patterns,
                policy=policy_of(args),
                corpus=args.corpus,
            )
        )
    elif args.cmd == "attacks":
        print_attack_matrix(
            run_attack_matrix(
                variant=args.variant,
                attack_deadline_s=args.attack_deadline,
                policy=policy_of(args),
                corpus=args.corpus,
                circuit=args.circuit,
            )
        )
    elif args.cmd == "trojans":
        print_trojan_table(run_trojan_table())
    elif args.cmd == "protocol":
        for variant in ("basic", "modified"):
            print_protocol(run_protocol_checks(variant=variant))
    elif args.cmd == "ablations":
        from .experiments.ablations import main as ablations_main

        ablations_main()
    elif args.cmd == "hd-sweep":
        from .experiments import print_hd_sweep, run_hd_sweep

        print_hd_sweep(run_hd_sweep(circuit=args.circuit))
    elif args.cmd == "all":
        policy = policy_of(args)
        print_table1(run_table1(policy=policy))
        print()
        print_table2(run_table2(policy=policy))
        print()
        for variant in ("basic", "modified"):
            print_attack_matrix(run_attack_matrix(variant=variant, policy=policy))
            print()
        print_trojan_table(run_trojan_table())
        print()
        for variant in ("basic", "modified"):
            print_protocol(run_protocol_checks(variant=variant))
    return 0


if __name__ == "__main__":
    sys.exit(main())
