#!/usr/bin/env python
"""Bench regression gate: diff fresh bench reports against baselines.

Compares freshly produced ``BENCH_sim.json`` / ``BENCH_telemetry.json`` /
``BENCH_runtime.json`` / ``BENCH_service.json`` / ``BENCH_corpus.json``
against the copies committed at the repo root and fails (exit 1) on a
regression:

* **missing metrics** — a circuit, field, or whole file the baseline has
  but the fresh report lacks is always a failure (a silently shrinking
  benchmark is the classic way perf gates rot);
* **slowdown** — a higher-is-better metric (``speedup``,
  ``fused_speedup``, ``satattack.dips_per_solve``) dropping more than
  ``--threshold`` percent (default 25) below baseline, a deterministic
  lower-is-better work counter (``satattack.incremental.conflicts``,
  ``satattack.incremental.n_solves``) growing more than ``--threshold``
  percent above baseline, or a lower-is-better overhead metric growing
  past both its baseline + threshold *and* its embedded acceptance
  bound;
* **correctness** — ``match: false`` in a fresh sim report or
  ``pass: false`` in a fresh telemetry report fails regardless of
  timing.

Only *within-run ratios* (engine-vs-scalar speedup, projected overhead
percentage) and machine-independent work counters are compared across
machines — absolute wall-clock numbers from a different box are not
comparable and are reported informationally only.

``BENCH_runtime.json`` records a one-off before/after instrumentation
measurement that cannot be cheaply regenerated; when no fresh copy is
given the committed baseline is self-checked against its own acceptance
bound instead.  ``BENCH_service.json`` (job-service overhead vs direct
``run_rows``, regenerated by ``make serve-smoke``) follows the same
rule: fresh report when supplied, baseline self-check otherwise.

Usage::

    python scripts/bench_compare.py --fresh-dir .bench-fresh \
        [--baseline-dir .] [--threshold 25] [--only service ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD_PCT = 25.0


def _load(path: Path) -> dict | None:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"error: {path} does not hold a JSON object")
    return payload


class Gate:
    """Collects comparisons; remembers failures."""

    def __init__(self, threshold_pct: float) -> None:
        self.threshold_pct = threshold_pct
        self.failures: list[str] = []
        self.lines: list[str] = []

    def info(self, msg: str) -> None:
        self.lines.append(f"  {msg}")

    def fail(self, msg: str) -> None:
        self.failures.append(msg)
        self.lines.append(f"  FAIL: {msg}")

    def check_higher_better(
        self, label: str, baseline: float, fresh: float
    ) -> None:
        """Fail when ``fresh`` is >threshold% below ``baseline``."""
        floor = baseline * (1.0 - self.threshold_pct / 100.0)
        verdict = "ok" if fresh >= floor else "REGRESSION"
        self.lines.append(
            f"  {label:<42} baseline {baseline:>10.2f}  "
            f"fresh {fresh:>10.2f}  ({verdict})"
        )
        if fresh < floor:
            self.failures.append(
                f"{label}: {fresh:.2f} is more than "
                f"{self.threshold_pct:g}% below baseline {baseline:.2f}"
            )

    def check_lower_better(
        self, label: str, baseline: float, fresh: float
    ) -> None:
        """Fail when ``fresh`` is >threshold% above ``baseline``."""
        ceiling = baseline * (1.0 + self.threshold_pct / 100.0)
        verdict = "ok" if fresh <= ceiling else "REGRESSION"
        self.lines.append(
            f"  {label:<42} baseline {baseline:>10.2f}  "
            f"fresh {fresh:>10.2f}  ({verdict})"
        )
        if fresh > ceiling:
            self.failures.append(
                f"{label}: {fresh:.2f} is more than "
                f"{self.threshold_pct:g}% above baseline {baseline:.2f}"
            )


def compare_sim(gate: Gate, baseline: dict, fresh: dict | None) -> None:
    gate.lines.append("BENCH_sim.json (compiled engine vs scalar)")
    if fresh is None:
        gate.fail("fresh BENCH_sim.json missing")
        return
    base_circuits = {c["circuit"]: c for c in baseline.get("circuits", [])}
    fresh_circuits = {c["circuit"]: c for c in fresh.get("circuits", [])}
    if not base_circuits:
        gate.fail("baseline BENCH_sim.json has no circuits")
        return
    for name, base_row in sorted(base_circuits.items()):
        fresh_row = fresh_circuits.get(name)
        if fresh_row is None:
            gate.fail(f"sim: circuit {name!r} missing from fresh report")
            continue
        if fresh_row.get("match") is not True:
            gate.fail(f"sim: {name}: engine/scalar mismatch (match != true)")
        speedup = fresh_row.get("speedup")
        base_speedup = base_row.get("speedup")
        if speedup is None or base_speedup is None:
            gate.fail(f"sim: {name}: 'speedup' metric missing")
            continue
        gate.check_higher_better(
            f"sim.{name}.speedup", float(base_speedup), float(speedup)
        )
        fused = fresh_row.get("fused_speedup")
        base_fused = base_row.get("fused_speedup")
        if fused is None or base_fused is None:
            gate.fail(f"sim: {name}: 'fused_speedup' metric missing")
        else:
            gate.check_higher_better(
                f"sim.{name}.fused_speedup", float(base_fused), float(fused)
            )
        for tput_field in (
            "optape_key_patterns_per_s",
            "fused_key_patterns_per_s",
        ):
            tput = fresh_row.get(tput_field)
            if tput is None:
                gate.fail(f"sim: {name}: {tput_field!r} missing")
            else:
                # cross-machine absolute throughput: informational only
                gate.info(
                    f"sim.{name}.{tput_field}  "
                    f"fresh {float(tput):,.0f} (not gated across machines)"
                )
    _compare_satattack(gate, baseline, fresh)


def _compare_satattack(gate: Gate, baseline: dict, fresh: dict) -> None:
    """Gate the SAT-attack solver-work block of BENCH_sim.json.

    The instance and the solver are deterministic, so the conflict and
    solve counts and ``dips_per_solve`` are machine-independent and
    gated like within-run ratios; wall-clock seconds stay informational.
    """
    base_sat = baseline.get("satattack")
    fresh_sat = fresh.get("satattack")
    if not isinstance(base_sat, dict):
        gate.fail("sim: baseline 'satattack' block missing")
        return
    if not isinstance(fresh_sat, dict):
        gate.fail("sim: fresh 'satattack' block missing")
        return
    if fresh_sat.get("match") is not True:
        gate.fail("sim: satattack: recovered key does not unlock the circuit")
    base_inc = base_sat.get("incremental") or {}
    fresh_inc = fresh_sat.get("incremental") or {}
    for field in ("conflicts", "n_solves"):
        base_v = base_inc.get(field)
        fresh_v = fresh_inc.get(field)
        if base_v is None or fresh_v is None:
            gate.fail(f"sim: satattack: 'incremental.{field}' metric missing")
            continue
        gate.check_lower_better(
            f"sim.satattack.incremental.{field}", float(base_v), float(fresh_v)
        )
    base_v = base_sat.get("dips_per_solve")
    fresh_v = fresh_sat.get("dips_per_solve")
    if base_v is None or fresh_v is None:
        gate.fail("sim: satattack: 'dips_per_solve' metric missing")
    else:
        gate.check_higher_better(
            "sim.satattack.dips_per_solve", float(base_v), float(fresh_v)
        )


def compare_telemetry(gate: Gate, baseline: dict, fresh: dict | None) -> None:
    gate.lines.append("BENCH_telemetry.json (disabled-telemetry overhead)")
    if fresh is None:
        gate.fail("fresh BENCH_telemetry.json missing")
        return
    if fresh.get("pass") is not True:
        gate.fail("telemetry: fresh report's own threshold check failed")
    base_pct = baseline.get("projected_overhead_pct")
    fresh_pct = fresh.get("projected_overhead_pct")
    bound = fresh.get("threshold_pct", 2.0)
    if fresh_pct is None or base_pct is None:
        gate.fail("telemetry: 'projected_overhead_pct' metric missing")
        return
    # overheads live near zero, so relative-to-baseline alone would flag
    # noise; regress only when fresh exceeds both baseline+threshold and
    # half the hard acceptance bound
    ceiling = max(
        float(base_pct) * (1.0 + gate.threshold_pct / 100.0),
        float(bound) / 2.0,
    )
    verdict = "ok" if float(fresh_pct) <= ceiling else "REGRESSION"
    gate.lines.append(
        f"  telemetry.projected_overhead_pct           "
        f"baseline {float(base_pct):>10.4f}  fresh {float(fresh_pct):>10.4f}"
        f"  ({verdict})"
    )
    if float(fresh_pct) > ceiling:
        gate.failures.append(
            f"telemetry: projected overhead {fresh_pct}% exceeds "
            f"ceiling {ceiling:.4f}%"
        )


def compare_runtime(gate: Gate, baseline: dict, fresh: dict | None) -> None:
    gate.lines.append("BENCH_runtime.json (governance instrumentation cost)")
    source = fresh if fresh is not None else baseline
    which = "fresh" if fresh is not None else "baseline (self-check)"
    overhead = source.get("overhead_percent")
    bound = source.get("acceptance_bound_percent")
    if not isinstance(overhead, dict) or bound is None:
        gate.fail(f"runtime: {which}: overhead/acceptance metrics missing")
        return
    for key, value in sorted(overhead.items()):
        if not isinstance(value, (int, float)):
            continue  # prose note fields
        verdict = "ok" if float(value) <= float(bound) else "REGRESSION"
        gate.lines.append(
            f"  runtime.{key:<34} {which}: {float(value):>6.1f}% "
            f"(bound {float(bound):g}%, {verdict})"
        )
        if float(value) > float(bound):
            gate.failures.append(
                f"runtime: {key} overhead {value}% exceeds the "
                f"{bound}% acceptance bound"
            )


def compare_service(gate: Gate, baseline: dict, fresh: dict | None) -> None:
    """Gate BENCH_service.json: job-service overhead vs direct run_rows.

    ``overhead_percent`` is a within-run ratio (both sides measured in
    the same process tree on the same box), so it is gated against the
    report's embedded acceptance bound; absolute seconds stay
    informational.  Works runtime-style: fresh report when supplied,
    committed-baseline self-check otherwise.
    """
    gate.lines.append("BENCH_service.json (job-service overhead)")
    source = fresh if fresh is not None else baseline
    which = "fresh" if fresh is not None else "baseline (self-check)"
    overhead = source.get("overhead_percent")
    bound = source.get("acceptance_bound_percent")
    if not isinstance(overhead, (int, float)) or bound is None:
        gate.fail(f"service: {which}: overhead/acceptance metrics missing")
        return
    if source.get("pass") is not True:
        gate.fail(f"service: {which} report's own threshold check failed")
    verdict = "ok" if float(overhead) <= float(bound) else "REGRESSION"
    gate.lines.append(
        f"  service.overhead_percent                 {which}: "
        f"{float(overhead):>6.2f}% (bound {float(bound):g}%, {verdict})"
    )
    if float(overhead) > float(bound):
        gate.failures.append(
            f"service: job-service overhead {overhead}% exceeds the "
            f"{bound}% acceptance bound"
        )
    direct_s = source.get("direct_s")
    service_s = source.get("service_s")
    if direct_s is not None and service_s is not None:
        gate.info(
            f"service.best_round  direct {float(direct_s):.2f}s  "
            f"service {float(service_s):.2f}s (not gated across machines)"
        )


def compare_corpus(gate: Gate, baseline: dict, fresh: dict | None) -> None:
    """Gate BENCH_corpus.json: front-end parse throughput + invariants.

    ``roundtrip_match`` and ``recovery_ok`` are machine-independent
    correctness bits and always gated.  ``lines_per_s`` is gated against
    the report's embedded conservative floor (``min_lines_per_s``), not
    against the baseline's absolute number — parse throughput from a
    different box is informational only.  Works runtime-style: fresh
    report when supplied, committed-baseline self-check otherwise.
    """
    gate.lines.append("BENCH_corpus.json (netlist front-end throughput)")
    source = fresh if fresh is not None else baseline
    which = "fresh" if fresh is not None else "baseline (self-check)"
    if source.get("pass") is not True:
        gate.fail(f"corpus: {which} report's own threshold check failed")
    for flag in ("roundtrip_match", "recovery_ok"):
        if source.get(flag) is not True:
            gate.fail(f"corpus: {which}: {flag} is not true")
    tput = source.get("lines_per_s")
    floor = source.get("min_lines_per_s")
    if not isinstance(tput, (int, float)) or floor is None:
        gate.fail(f"corpus: {which}: throughput metrics missing")
        return
    verdict = "ok" if float(tput) >= float(floor) else "REGRESSION"
    gate.lines.append(
        f"  corpus.lines_per_s                       {which}: "
        f"{float(tput):>12,.0f} (floor {float(floor):,.0f}, {verdict})"
    )
    if float(tput) < float(floor):
        gate.failures.append(
            f"corpus: parse throughput {tput:,.0f} lines/s is below the "
            f"{floor:,.0f} lines/s floor"
        )
    base_fixtures = {f["name"] for f in baseline.get("fixtures", [])}
    src_fixtures = {f["name"] for f in source.get("fixtures", [])}
    missing = sorted(base_fixtures - src_fixtures)
    if missing:
        gate.fail(f"corpus: {which}: fixture(s) missing from report: "
                  f"{', '.join(missing)}")
    else:
        gate.info(
            f"corpus.fixtures  {len(src_fixtures)} parsed "
            f"(coverage matches baseline)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("."),
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        required=True,
        help="directory holding freshly produced BENCH_*.json reports",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help="relative slowdown that fails the gate (default 25)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=["sim", "telemetry", "runtime", "service", "corpus"],
        metavar="NAME",
        help="restrict the gate to one report (repeatable); default: all",
    )
    args = parser.parse_args(argv)

    gate = Gate(args.threshold)
    comparisons = (
        ("sim", "BENCH_sim.json", compare_sim),
        ("telemetry", "BENCH_telemetry.json", compare_telemetry),
        ("runtime", "BENCH_runtime.json", compare_runtime),
        ("service", "BENCH_service.json", compare_service),
        ("corpus", "BENCH_corpus.json", compare_corpus),
    )
    for name, filename, compare in comparisons:
        if args.only and name not in args.only:
            continue
        baseline = _load(args.baseline_dir / filename)
        fresh = _load(args.fresh_dir / filename)
        if baseline is None:
            gate.fail(f"committed baseline {filename} missing")
            continue
        compare(gate, baseline, fresh)

    print(f"bench gate (threshold {args.threshold:g}%)")
    for line in gate.lines:
        print(line)
    if gate.failures:
        print(f"\nBENCH GATE FAILED: {len(gate.failures)} regression(s)")
        for failure in gate.failures:
            print(f"  - {failure}")
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
