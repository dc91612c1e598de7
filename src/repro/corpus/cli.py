"""`repro corpus` — inspect the packaged benchmark-netlist catalog.

* ``list``   — every catalog entry: name, family, format, fixture bytes
  and pinned digest;
* ``verify`` — re-hash every packaged fixture against its pin; exits 1
  on a missing or mismatched fixture.
"""

from __future__ import annotations

import json
import sys

from .manifest import ENTRIES, FIXTURES_DIR, blake2b_hex


def _fixture_bytes(filename: str) -> "bytes | None":
    try:
        return (FIXTURES_DIR / filename).read_bytes()
    except OSError:
        return None


def run_corpus_cli(action: str, fmt: str = "text") -> int:
    """Execute one corpus action; returns a process exit code."""
    if action == "list":
        entries = []
        for e in ENTRIES:
            data = _fixture_bytes(e.filename)
            entries.append({
                "name": e.name, "family": e.family, "fmt": e.fmt,
                "bytes": None if data is None else len(data),
                "blake2b": e.blake2b,
            })
        if fmt == "json":
            print(json.dumps({"entries": entries}, indent=2, sort_keys=True))
        else:
            width = max(len(e["name"]) for e in entries)
            for e in entries:
                size = "missing" if e["bytes"] is None else f"{e['bytes']} B"
                print(
                    f"  {e['name']:<{width}}  {e['family']:<14} "
                    f"{e['fmt']:<7} {size:>10}  {e['blake2b']}"
                )
            print(f"{len(entries)} circuit(s) in the catalog")
        return 0

    if action == "verify":
        problems = []
        for e in ENTRIES:
            data = _fixture_bytes(e.filename)
            if data is None:
                problems.append(f"{e.name}: fixture {e.filename} is missing")
            elif (got := blake2b_hex(data)) != e.blake2b:
                problems.append(
                    f"{e.name}: fixture {e.filename} does not match its "
                    f"pin (pinned {e.blake2b}, got {got})"
                )
        if fmt == "json":
            print(json.dumps(
                {"problems": problems, "ok": not problems},
                indent=2, sort_keys=True,
            ))
        else:
            for p in problems:
                print(f"  {p}")
            print("corpus verify: "
                  + ("clean" if not problems
                     else f"{len(problems)} problem(s)"))
        return 1 if problems else 0

    print(f"repro corpus: unknown action {action!r}", file=sys.stderr)
    return 2
