"""``repro bench`` — corruption-simulation benchmark for the sim layer.

Times the Table I corruption workload (WLL-locked circuit, many wrong
keys, a pseudorandom pattern block) on the scalar
:class:`~repro.sim.bitsim.BitSimulator` oracle and on the ``fused``
lane, and writes a machine-readable ``BENCH_sim.json``.  Correctness
comes first: the fused lane's :class:`CorruptionReport` is compared
field for field against the scalar oracle, and any disagreement makes
the benchmark *fail* — timing never does (a loaded CI box must not
flake the build, so the smoke job asserts agreement only).

A SAT-attack block runs the attack (one persistent solver, activation
literal + batched DIP probing) on a fixed RLL instance and records its
deterministic solver-work counters (``conflicts``, ``n_solves``,
``dips_per_solve``) that ``scripts/bench_compare.py`` gates.

Timing discipline: every measurement is the minimum over ``repeats``
runs — the minimum is the right estimator for a deterministic workload,
since every perturbation (page faults, frequency ramps, neighbours) only
ever adds time.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .. import telemetry
from ..bench.registry import PAPER_CIRCUITS, build_paper_circuit, scaled_key_size
from ..locking import WLLConfig, lock_weighted
from .fused import program_for
from .metrics import DEFAULT_MAX_MATRIX_BYTES, _measure
from .optape import clear_engine_cache, compile_engine

#: default benchmark workload: the ITC'99 trio from Table I at a scale
#: where the scalar loop already takes hundreds of ms per circuit
DEFAULT_BENCH_CIRCUITS = ("b20", "b21", "b22")
DEFAULT_BENCH_SCALE = 0.08

#: smoke workload: seconds, not minutes — agreement check only
SMOKE_CIRCUITS = ("s38417", "b20")
SMOKE_SCALE = 0.02
SMOKE_KEYS = 9
SMOKE_PATTERNS = 777  # deliberately not a multiple of 64 (tail masking)


def _best_of(
    fn: Callable[[], Any], repeats: int, label: str = ""
) -> tuple[float, Any]:
    """(min wall-clock over ``repeats`` runs, last return value).

    Each run is measured through :func:`repro.telemetry.timed_span`
    (span ``bench.measure``): the duration comes from the span itself,
    so a trace of the benchmark carries exactly the numbers reported —
    and with telemetry disabled the span never allocates a record.
    """
    best = float("inf")
    value = None
    for rep in range(max(1, repeats)):
        with telemetry.timed_span(
            "bench.measure", label=label, rep=rep
        ) as sp:
            value = fn()
        best = min(best, sp.duration_s)
    return best, value


def _write_profile(profile: cProfile.Profile, out_dir: Path, stem: str) -> None:
    """Dump one profile as ``<stem>.pstats`` plus a human-readable top-25."""
    out_dir.mkdir(parents=True, exist_ok=True)
    profile.dump_stats(out_dir / f"{stem}.pstats")
    buf = io.StringIO()
    stats = pstats.Stats(profile, stream=buf)
    stats.sort_stats("cumulative").print_stats(25)
    (out_dir / f"{stem}.txt").write_text(buf.getvalue())


def bench_circuit(
    name: str,
    scale: float,
    n_keys: int,
    n_patterns: int,
    repeats: int,
    seed: int = 0,
    profile_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Benchmark one circuit; returns its result row (JSON-able dict).

    Lanes timed: the scalar oracle and the ``fused`` lane.
    ``profile_dir`` additionally records one profiled fused pass into
    ``bench_<circuit>.pstats``.
    """
    spec = PAPER_CIRCUITS[name]
    netlist = build_paper_circuit(name, scale=scale)
    key_width = scaled_key_size(name, scale)
    locked = lock_weighted(
        netlist,
        WLLConfig(
            key_width=key_width,
            control_width=spec.control_inputs,
            n_key_gates=max(1, key_width // spec.control_inputs),
        ),
        rng=seed,
    )
    clear_engine_cache()
    engine = compile_engine(locked.locked)

    def run(strategy: str):
        return _measure(
            locked.locked,
            locked.key_inputs,
            locked.correct_key,
            n_patterns,
            n_keys,
            seed,
            strategy,
        )

    # warm both paths once (compile cache, plan cache, numpy ufunc and
    # allocator setup), then time
    report_scalar = run("scalar")
    report_fused = run("batched")
    t_scalar, _ = _best_of(lambda: run("scalar"), repeats, label=f"{name}:scalar")
    t_fused, _ = _best_of(lambda: run("batched"), repeats, label=f"{name}:fused")

    if profile_dir is not None:
        profile = cProfile.Profile()
        profile.enable()
        run("batched")
        profile.disable()
        _write_profile(profile, Path(profile_dir), f"bench_{name}")

    key_patterns = n_keys * n_patterns
    row = {
        "circuit": name,
        "scale": scale,
        "n_nets": engine.n_nets,
        "n_steps": len(program_for(engine).steps),
        "key_width": key_width,
        "n_keys": n_keys,
        "n_patterns": n_patterns,
        "scalar_s": round(t_scalar, 6),
        "fused_s": round(t_fused, 6),
        "fused_speedup": round(t_scalar / t_fused, 2) if t_fused > 0 else None,
        "scalar_key_patterns_per_s": round(key_patterns / t_scalar, 1),
        "fused_key_patterns_per_s": round(key_patterns / t_fused, 1),
        "match": report_fused == report_scalar,
        "hd_percent": round(report_fused.hd_percent, 4),
    }
    return row


#: fixed RLL instance for the SAT-attack solver-efficiency block — small
#: enough for the pure-Python CDCL solver, multi-DIP enough that batching
#: and clause retention have something to win
SATATTACK_BENCH = {
    "n_inputs": 10,
    "n_outputs": 10,
    "n_gates": 120,
    "depth": 6,
    "circuit_seed": 4,
    "key_width": 16,
    "lock_seed": 7,
}


def bench_satattack(seed: int = 0) -> dict[str, Any]:
    """Time the SAT attack on a fixed RLL instance.

    The instance and the solver are fully deterministic, so the
    ``conflicts``/``n_solves`` counters and ``dips_per_solve`` are
    stable across machines and can be gated — unlike the wall-clock
    seconds, which are informational.  ``match`` means the recovered
    key provably unlocks the circuit (``prove_unlocks``).
    """
    from ..attacks import SATAttackConfig, sat_attack
    from ..attacks.oracle import IdealOracle
    from ..bench.generator import GeneratorConfig, generate_netlist
    from ..locking import lock_random
    from ..sat import prove_unlocks

    p = SATATTACK_BENCH
    base = generate_netlist(
        GeneratorConfig(
            n_inputs=p["n_inputs"],
            n_outputs=p["n_outputs"],
            n_gates=p["n_gates"],
            depth=p["depth"],
            seed=p["circuit_seed"],
            name="satbench",
        )
    )
    lc = lock_random(base, p["key_width"], rng=p["lock_seed"])

    t0 = time.perf_counter()
    res = sat_attack(
        lc.locked,
        lc.key_inputs,
        IdealOracle(base),
        SATAttackConfig(max_iterations=256, seed=seed),
    )
    elapsed = time.perf_counter() - t0
    unlocks = res.recovered_key is not None and prove_unlocks(
        base, lc.locked, res.recovered_key
    )
    return {
        "instance": dict(p),
        "incremental": {
            "time_s": round(elapsed, 6),
            "dips": res.iterations,
            "oracle_queries": res.oracle_queries,
            "conflicts": res.notes["conflicts"],
            "n_solves": res.notes["n_solves"],
            "dips_per_solve": res.notes["dips_per_solve"],
        },
        "dips_per_solve": res.notes["dips_per_solve"],
        "match": unlocks,
    }


def run_bench(
    circuits: list[str] | None = None,
    scale: float | None = None,
    n_keys: int = 64,
    n_patterns: int = 4096,
    repeats: int = 5,
    seed: int = 0,
    smoke: bool = False,
    profile_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Run the benchmark suite; returns the full report dict.

    ``smoke=True`` replaces the workload with a fixed tiny one
    (including a non-multiple-of-64 pattern count) whose only assertion
    is fused/scalar agreement.
    """
    if smoke:
        circuits = list(circuits or SMOKE_CIRCUITS)
        scale = SMOKE_SCALE if scale is None else scale
        n_keys, n_patterns, repeats = SMOKE_KEYS, SMOKE_PATTERNS, 1
    else:
        circuits = list(circuits or DEFAULT_BENCH_CIRCUITS)
        scale = DEFAULT_BENCH_SCALE if scale is None else scale
    rows = [
        bench_circuit(
            name,
            scale,
            n_keys,
            n_patterns,
            repeats,
            seed=seed,
            profile_dir=profile_dir,
        )
        for name in circuits
    ]
    satattack = bench_satattack(seed=seed)
    total_scalar = sum(r["scalar_s"] for r in rows)
    total_fused = sum(r["fused_s"] for r in rows)
    return {
        "workload": {
            "circuits": circuits,
            "scale": scale,
            "n_keys": n_keys,
            "n_patterns": n_patterns,
            "repeats": repeats,
            "seed": seed,
            "smoke": smoke,
            "max_matrix_bytes": DEFAULT_MAX_MATRIX_BYTES,
            "lanes": ["fused"],
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "circuits": rows,
        "satattack": satattack,
        "aggregate": {
            "scalar_s": round(total_scalar, 6),
            "fused_s": round(total_fused, 6),
            "fused_speedup": round(total_scalar / total_fused, 2)
            if total_fused > 0
            else None,
            "all_match": all(r["match"] for r in rows) and satattack["match"],
        },
    }


def run_bench_cli(
    circuits: list[str] | None = None,
    scale: float | None = None,
    n_keys: int = 64,
    n_patterns: int = 4096,
    repeats: int = 5,
    out: str = "BENCH_sim.json",
    smoke: bool = False,
    profile_dir: str | None = None,
) -> int:
    """CLI driver: print the table, write ``out``, exit non-zero only on
    a fused/scalar disagreement (never on timing)."""
    report = run_bench(
        circuits=circuits,
        scale=scale,
        n_keys=n_keys,
        n_patterns=n_patterns,
        repeats=repeats,
        smoke=smoke,
        profile_dir=profile_dir,
    )
    w = report["workload"]
    print(
        f"sim bench: {','.join(w['circuits'])} @ scale {w['scale']:g}, "
        f"{w['n_keys']} keys x {w['n_patterns']} patterns "
        f"(min of {w['repeats']}; lanes: {','.join(w['lanes'])})"
    )
    print(
        f"{'circuit':>8} {'nets':>6} {'scalar':>10} "
        f"{'fused':>10} {'fused_x':>8} {'match':>6}"
    )
    for r in report["circuits"]:
        print(
            f"{r['circuit']:>8} {r['n_nets']:>6} "
            f"{r['scalar_s'] * 1e3:>8.1f}ms {r['fused_s'] * 1e3:>8.1f}ms "
            f"{r['fused_speedup']:>7.1f}x "
            f"{'ok' if r['match'] else 'FAIL':>6}"
        )
    agg = report["aggregate"]
    print(
        f"{'total':>8} {'':>6} {agg['scalar_s'] * 1e3:>8.1f}ms "
        f"{agg['fused_s'] * 1e3:>8.1f}ms {agg['fused_speedup']:>7.1f}x "
        f"{'ok' if agg['all_match'] else 'FAIL':>6}"
    )
    sat = report["satattack"]
    print(
        f"satattack: conflicts {sat['incremental']['conflicts']}, "
        f"solves {sat['incremental']['n_solves']}, "
        f"dips/solve {sat['dips_per_solve']}, "
        f"{'ok' if sat['match'] else 'FAIL'}"
    )
    if profile_dir is not None:
        print(f"profiles in {profile_dir}/")
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if not agg["all_match"]:
        print("ERROR: the fused lane disagrees with the scalar oracle")
        return 1
    return 0
