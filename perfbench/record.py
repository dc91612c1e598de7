"""Record ``reference.json``: outputs and work counters of every panel input.

Run from the repository root::

    python3 perfbench/record.py             # every workload
    python3 perfbench/record.py table2      # one workload

Each panel input gets one untraced and one traced cold sample.  Both must
end with every row ``ok`` and identical outputs (tracing must not change
what the harness computes); the traced sample's work counters become the
reference the determinism check compares against.  Re-record only when
the benchmark's inputs change, never to absorb a change of the program.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, PANELS, cold_env, sample, spawn


def record(workload: str, variant: int, cwd: Path, env: dict[str, str]) -> dict:
    plain = sample(workload, variant, False, cwd, env)
    traced = sample(workload, variant, True, cwd, env)
    for result in (plain, traced):
        bad = {k: v for k, v in result["statuses"].items() if v != "ok"}
        if bad:
            raise SystemExit(f"{workload}/{variant}: rows not ok: {bad}")
    for field in ("rows", "atpg", "statuses"):
        if plain[field] != traced[field]:
            raise SystemExit(f"{workload}/{variant}: tracing changed {field}")
    print(f"{workload}/{variant}: {len(plain['rows'])} rows, "
          f"wall {plain['wall_s']:.2f} s, traced {traced['wall_s']:.2f} s")
    return {"rows": plain["rows"], "atpg": plain["atpg"],
            "counters": traced["trace"]["counters"]}


def main(workloads: list[str]) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    root = Path.cwd()
    scratch_root = root / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
        cwd = Path(tmp)
        env = cold_env(root, cwd / "pycache")
        spawn(["--warmup"], cwd, env)
        for workload in workloads or sorted(PANELS):
            reference[workload] = {
                str(v): record(workload, v, cwd, env) for v in PANELS[workload]
            }
    scratch_root.rmdir()
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
