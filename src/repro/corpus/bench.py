"""Parse-throughput benchmark for the corpus front end.

Writes ``BENCH_corpus.json`` (gated by ``scripts/bench_compare.py
--only corpus``):

* **per-fixture** — every packaged fixture parsed through the streaming
  front end, with line counts and wall-clock (informational: the files
  are tiny);
* **synthetic** — a deterministic generated netlist large enough for a
  stable ``lines_per_s`` figure, checked against the embedded
  ``min_lines_per_s`` floor (conservative: an order of magnitude below
  what the parser does on developer hardware, so the gate catches
  accidental quadratic behaviour, not machine variance);
* **roundtrip_match** — parse → write → reparse → write must reproduce
  the exact bytes for every BENCH fixture;
* **recovery_ok** — a deliberately malformed netlist must yield
  structured diagnostics (with line numbers) and no exception.

Usage::

    python -m repro.corpus.bench [--out BENCH_corpus.json] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .frontend import parse_bench_recovering, parse_verilog_recovering
from .manifest import ENTRIES, FIXTURES_DIR

#: conservative floor for the synthetic parse (lines/second); the
#: embedded acceptance bound bench_compare gates against
MIN_LINES_PER_S = 20_000.0

#: gate count of the synthetic timing workload
_SYNTH_GATES = 4000

_BROKEN_SAMPLE = """\
# deliberately malformed
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b
z = FROB(a)
y = AND(a, b)
"""


def _parse_fixture(path: Path) -> tuple[int, float, dict]:
    """Parse one fixture; returns (lines, seconds, stats)."""
    text = path.read_text()
    lines = text.splitlines()
    start = time.perf_counter()
    if path.suffix == ".v":
        result = parse_verilog_recovering(lines, name=path.stem,
                                          source=path.name)
    else:
        result = parse_bench_recovering(lines, name=path.stem,
                                        source=path.name)
    elapsed = time.perf_counter() - start
    if result.errors:
        raise SystemExit(
            f"corpus bench: fixture {path.name} failed to parse: "
            f"{result.errors[0].format()}"
        )
    return len(lines), elapsed, dict(result.stats)


def _roundtrip_ok() -> bool:
    """parse → write → reparse → write byte-stability, every BENCH fixture."""
    from ..netlist.bench_io import parse_bench, write_bench

    for entry in ENTRIES:
        if entry.fmt != "bench":
            continue
        text = (FIXTURES_DIR / entry.filename).read_text()
        first = write_bench(parse_bench(text, name=entry.name))
        second = write_bench(parse_bench(first, name=entry.name))
        if first != second:
            return False
    return True


def _recovery_ok() -> bool:
    """Malformed input must produce located diagnostics, not exceptions."""
    try:
        result = parse_bench_recovering(
            _BROKEN_SAMPLE.splitlines(), name="broken", source="broken.bench"
        )
    except Exception:
        return False
    return (
        len(result.errors) >= 2
        and all(d.line_no > 0 for d in result.errors)
    )


def _synthetic_lines() -> list[str]:
    from ..bench import GeneratorConfig, generate_netlist
    from ..netlist.bench_io import write_bench

    netlist = generate_netlist(
        GeneratorConfig(
            n_inputs=64, n_outputs=32, n_gates=_SYNTH_GATES, depth=16,
            seed=20, name="tput",
        )
    )
    return write_bench(netlist).splitlines()


def run_corpus_bench(out: str = "BENCH_corpus.json", repeats: int = 5) -> int:
    """Measure, verify, and write the report; returns an exit code."""
    fixtures = []
    for entry in sorted(ENTRIES, key=lambda e: e.name):
        path = FIXTURES_DIR / entry.filename
        n_lines, elapsed, stats = _parse_fixture(path)
        fixtures.append({
            "name": entry.name,
            "fmt": entry.fmt,
            "lines": n_lines,
            "gates": stats.get("gates", 0),
            "parse_s": round(elapsed, 6),
        })

    lines = _synthetic_lines()
    best = min(
        _timed_parse(lines) for _ in range(max(1, repeats))
    )
    lines_per_s = len(lines) / best if best > 0 else float("inf")

    roundtrip = _roundtrip_ok()
    recovery = _recovery_ok()
    ok = roundtrip and recovery and lines_per_s >= MIN_LINES_PER_S
    report = {
        "schema": 1,
        "fixtures": fixtures,
        "synthetic": {
            "gates": _SYNTH_GATES,
            "lines": len(lines),
            "repeats": repeats,
            "best_parse_s": round(best, 6),
        },
        "lines_per_s": round(lines_per_s, 1),
        "min_lines_per_s": MIN_LINES_PER_S,
        "roundtrip_match": roundtrip,
        "recovery_ok": recovery,
        "pass": ok,
    }
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"corpus bench: {len(lines)} lines parsed in {best:.4f}s "
          f"({lines_per_s:,.0f} lines/s; floor {MIN_LINES_PER_S:,.0f})")
    print(f"corpus bench: roundtrip_match={roundtrip} recovery_ok={recovery}")
    print(f"corpus bench: wrote {out} (pass={ok})")
    return 0 if ok else 1


def _timed_parse(lines: list[str]) -> float:
    start = time.perf_counter()
    result = parse_bench_recovering(lines, name="tput", source="<synthetic>")
    elapsed = time.perf_counter() - start
    if result.errors:
        raise SystemExit(
            f"corpus bench: synthetic netlist failed to parse: "
            f"{result.errors[0].format()}"
        )
    return elapsed


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_corpus.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    return run_corpus_bench(out=args.out, repeats=args.repeats)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
