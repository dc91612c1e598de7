"""Cold paper-artifact benchmark: Table I, Table II and the attack matrix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 3 --seconds 20 --trace 0

Each sample is a fresh interpreter (``worker.py``) making one serial
call to a public paper harness with no result cache and no checkpoints,
so every sample is cold.  A run repeats samples until ``--seconds`` have
passed (at least ``MIN_SAMPLES``) and reports medians over them.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced samples and reports per-layer metrics
from the traced ones.  Every sample's outputs are checked against
``reference.json`` (see ``record.py``).  The last line of standard
output is the JSON result.

Every time a run reports is at a fixed reference speed of the host:
each sample's times are divided by the slowdown its own speed probe
measured (see ``hostspeed.py``).  The raw wall time and the slowdown are
reported beside them in the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_PROBE_S, mean_duration  # noqa: E402
from layers import ATTACKS, EXPECTED  # noqa: E402
from worker import PANELS  # noqa: E402

#: untraced samples per run at least; medians of fewer are not steady
MIN_SAMPLES = 3
#: traced samples per traced run at least (the determinism check
#: compares their work counters)
MIN_TRACED = 2
#: a sample that takes longer than this is a hang
SAMPLE_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: layers whose self time is reported (``<layer>.self_s``)
TIMED_LAYERS = (
    "bench.build",
    "orap.protect",
    "lint.preflight",
    "experiments.runner",
    "locking.rank",
    "locking.insert",
    "sim.corruption",
    "sim.compile",
    "synth.overhead",
    "atpg.run",
    "atpg.faultsim",
    "atpg.podem",
    "atpg.sat",
    "sat.solve",
) + tuple(f"attacks.{name}" for name in ATTACKS)

#: work counters reported as recorded
COUNTERS = (
    "locking.rank.calls",
    "locking.rank.nets_scored",
    "locking.insert.key_gates",
    "sim.corruption.calls",
    "sim.compile.calls",
    "sim.compile.cache_hits",
    "synth.overhead.calls",
    "atpg.run.faults",
    "atpg.run.random_detected",
    "atpg.faultsim.calls",
    "atpg.faultsim.faults_simulated",
    "atpg.podem.calls",
    "atpg.podem.backtracks",
    "atpg.podem.detected",
    "atpg.podem.redundant",
    "atpg.podem.aborted",
    "atpg.sat.calls",
    "atpg.sat.detected",
    "atpg.sat.redundant",
    "atpg.sat.aborted",
    "sat.solve.calls",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
) + tuple(
    f"attacks.{name}.{what}" for name in ATTACKS for what in ("iterations", "oracle_queries")
)

#: rate metric -> (work counter, layer whose self time it is done in)
RATES = {
    "locking.rank.nets_per_s": ("locking.rank.nets_scored", "locking.rank"),
    "sim.corruption.key_patterns_per_s": ("sim.corruption.key_patterns", "sim.corruption"),
    "atpg.faultsim.fault_patterns_per_s": ("atpg.faultsim.fault_patterns", "atpg.faultsim"),
    "sat.props_per_s": ("sat.propagations", "sat.solve"),
    "sat.conflicts_per_s": ("sat.conflicts", "sat.solve"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in TIMED_LAYERS}
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "1/s" for name in RATES})
    units.update(
        {
            "experiments.runner.rows": "count",
            "experiments.runner.rows_ok": "count",
            "bench.unattributed_s": "s",
            "bench.traced_wall_s": "s",
            "bench.raw_wall_s": "s",
            "bench.host_slowdown": "ratio",
            "bench.trace_overhead_pct": "%",
            "bench.nondeterministic_counters": "count",
            "bench.counter_drift": "count",
        }
    )
    return units


def cold_env(root: Path, pycache: Path) -> dict[str, str]:
    """Environment of a cold sample.

    Drops every ``REPRO_*`` override, pins hash randomisation (set
    iteration order feeds fault and net orders), caps BLAS/OpenMP
    threads at the core count and keeps bytecode in the run's own
    scratch directory, written even where the caller's environment
    turns bytecode writing off, so every sample imports from the same
    warm bytecode cache.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    cores = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), cores) if current.isdigit() else cores)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def spawn(args: list[str], cwd: Path, env: dict[str, str]) -> None:
    """Run ``worker.py`` to completion; a failed worker ends the run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}")


def sample(
    workload: str, variant: int, traced: bool, cwd: Path, env: dict[str, str]
) -> dict:
    """One cold harness call; returns the worker's result."""
    out = cwd / "sample.json"
    spawn([workload, str(variant), "1" if traced else "0", str(out),
           repr(time.monotonic())], cwd, env)
    with open(out) as fh:
        return json.load(fh)


def normalise(samples: list[dict]) -> None:
    """Rescale every sample's times to the reference speed, in place.

    A sample's slowdown is its mean probe duration over
    :data:`hostspeed.REF_PROBE_S`, for the harness call and for set-up
    apart.  Wall, CPU and self times are divided by the call's slowdown,
    set-up time by set-up's; the raw times are kept.
    """
    for s in samples:
        slowdown = mean_duration(s["probe_call"]) / REF_PROBE_S
        setup_slowdown = mean_duration(s["probe_setup"] or s["probe_call"]) / REF_PROBE_S
        s["raw_wall_s"], s["slowdown"] = s["wall_s"], slowdown
        s["wall_s"] /= slowdown
        s["cpu_s"] /= slowdown
        s["setup_s"] /= setup_slowdown
        if s["trace"] is not None:
            s["trace"]["self_s"] = {k: v / slowdown for k, v in s["trace"]["self_s"].items()}


def row_key(workload: str, row: dict) -> str:
    """The runner's row key of a harness output row."""
    return f"{row['chip']}-{row['attack']}" if workload == "attacks" else row["circuit"]


def atpg_problems(got: list[dict], ref: list[dict]) -> list[str]:
    """Table II rule: same fault list, outcomes partition it, and faults
    move only out of ``aborted``."""
    if len(got) != len(ref):
        return [f"{len(got)} ATPG reports, reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        if g["n_faults"] != r["n_faults"]:
            problems.append(f"report {i}: n_faults {g['n_faults']} != {r['n_faults']}")
        if g["n_detected"] + g["n_redundant"] + g["n_aborted"] != g["n_faults"]:
            problems.append(f"report {i}: outcomes do not sum to n_faults: {g}")
        if g["n_detected"] < r["n_detected"] or g["n_redundant"] < r["n_redundant"]:
            problems.append(f"report {i}: faults moved into aborted: {g} vs {r}")
    return problems


def check(workload: str, result: dict, ref: dict) -> tuple[int, int, list[str]]:
    """Check one sample's outputs; returns ``(attempted, failed, problems)``.

    An operation is a table row or a matrix cell.  It fails when its
    status is not ``ok`` or its output differs from the reference:
    Table I rows and matrix cells must be equal, Table II rows must pass
    :func:`atpg_problems` on both of their ATPG reports.
    """
    rows = {row_key(workload, row): row for row in result["rows"]}
    failed, problems = 0, []
    for ref_row in ref["rows"]:
        key = row_key(workload, ref_row)
        wrong = []
        if result["statuses"].get(key) != "ok":
            wrong.append(f"status {result['statuses'].get(key)}")
        if workload == "table2":
            wrong += atpg_problems(result["atpg"].get(key, []), ref["atpg"][key])
        elif rows.get(key) != ref_row:
            wrong.append(f"output {rows.get(key)} != reference {ref_row}")
        if wrong:
            failed += 1
            problems += [f"{key}: {w}" for w in wrong]
    return len(ref["rows"]), failed, problems


def counter_diff(a: dict[str, int], b: dict[str, int]) -> list[str]:
    """Names of the work counters that differ between two traced samples."""
    return sorted(k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0))


def layer_metrics(workload: str, traced: list[dict], untraced: list[dict],
                  ref: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, plus the run's problems."""
    problems = []
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    counters = traced[0]["trace"]["counters"]
    selfs = {
        layer: statistics.median(s["trace"]["self_s"].get(layer, 0.0) for s in traced)
        for layer in TIMED_LAYERS
    }
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    unattributed = statistics.median(
        s["trace"]["self_s"]["bench.harness"]
        + s["trace"]["self_s"].get("experiments.compute", 0.0)
        for s in traced
    )
    unsteady = sorted({k for s in traced[1:] for k in counter_diff(counters, s["trace"]["counters"])})
    drift = counter_diff(counters, ref["counters"])
    if unsteady:
        print(f"nondeterminism: counters differ between traced samples: {unsteady}")
    if drift:
        print(f"work counters differ from reference.json: {drift}")
    missing = [layer for layer in EXPECTED[workload] if counters.get(f"{layer}.calls", 0) == 0]
    if missing:
        problems.append(f"layers recorded no calls: {missing}")

    metrics = {f"{layer}.self_s": selfs[layer] for layer in TIMED_LAYERS}
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    for name, (work, layer) in RATES.items():
        metrics[name] = counters.get(work, 0) / selfs[layer] if selfs[layer] > 0 else 0.0
    statuses = traced[0]["statuses"]
    metrics.update(
        {
            "experiments.runner.rows": len(statuses),
            "experiments.runner.rows_ok": sum(v == "ok" for v in statuses.values()),
            "bench.unattributed_s": unattributed,
            "bench.traced_wall_s": traced_wall,
            "bench.raw_wall_s": statistics.median(s["raw_wall_s"] for s in untraced),
            "bench.host_slowdown": statistics.median(s["slowdown"] for s in untraced),
            "bench.trace_overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
            "bench.nondeterministic_counters": len(unsteady),
            "bench.counter_drift": len(drift),
        }
    )
    print(f"self-time share of the traced harness call ({traced_wall:.3f} s, "
          f"median of {len(traced)} traced samples):")
    shares = {**selfs, "(unattributed)": unattributed}
    for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        if secs > 0:
            print(f"  {layer:28s} {secs:9.4f} s  {100.0 * secs / traced_wall:6.2f}%")
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the result object."""
    panel = PANELS[workload]
    variant = panel[seed % len(panel)]
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)[workload][str(variant)]
    scratch_root = root / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
            cwd = Path(tmp)
            env = cold_env(root, cwd / "pycache")
            spawn(["--warmup"], cwd, env)
            untraced, traced = [], []
            deadline = time.monotonic() + seconds
            while (
                time.monotonic() < deadline
                or len(untraced) < MIN_SAMPLES
                or (trace and len(traced) < MIN_TRACED)
            ):
                as_traced = trace and len(traced) < len(untraced)
                result = sample(workload, variant, as_traced, cwd, env)
                (traced if as_traced else untraced).append(result)
    finally:
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    normalise(untraced + traced)
    attempted = failed = 0
    problems: list[str] = []
    for result in untraced + traced:
        a, f, p = check(workload, result, ref)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    print(f"{workload}: variant {variant}, {len(untraced)} untraced and "
          f"{len(traced)} traced cold samples; error_rate {failed}/{attempted}")
    for name in ("raw_wall_s", "slowdown", "wall_s", "setup_s"):
        print(f"untraced {name} per sample:", " ".join(f"{s[name]:.3f}" for s in untraced))
    if trace:
        values, layer_problems = layer_metrics(workload, traced, untraced, ref)
        units = per_layer_units()
        problems += layer_problems
    else:
        values = {name: statistics.median(s[name] for s in untraced) for name in END_TO_END}
        units = END_TO_END
    for problem in problems:
        print(f"check failed: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PANELS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
