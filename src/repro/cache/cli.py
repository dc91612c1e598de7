"""``repro cache {stats,clear,verify}`` — result-cache maintenance.

* ``stats`` — occupancy, per-kind entry counts, size bound (``--format
  json`` for machine consumption);
* ``clear`` — drop every entry and the index log;
* ``verify`` — audit the store: parse every entry, re-check its digest
  filing and payload checksum, and reconcile the append-only index
  against the directory scan.  Exits 1 when any problem is found, which
  is what makes tampering visible in CI.
"""

from __future__ import annotations

import json

from .store import DEFAULT_CACHE_ROOT, DEFAULT_MAX_BYTES, ResultCache


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(value)} B"  # pragma: no cover - unreachable


def run_cache_cli(
    action: str,
    root: str = DEFAULT_CACHE_ROOT,
    fmt: str = "text",
) -> int:
    """CLI driver for ``repro cache {stats,clear,verify}``."""
    cache = ResultCache(root, max_bytes=DEFAULT_MAX_BYTES)
    if action == "stats":
        stats = cache.stats()
        if fmt == "json":
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"result cache — {stats.root}")
        print(f"  entries      {stats.entries}")
        print(
            f"  size         {_human_bytes(stats.total_bytes)}"
            + (
                f" (bound {_human_bytes(stats.max_bytes)})"
                if stats.max_bytes is not None
                else ""
            )
        )
        for kind, count in sorted(stats.by_kind.items()):
            print(f"  kind {kind:<20} {count}")
        return 0
    if action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    if action == "verify":
        problems = cache.verify()
        if not problems:
            print(
                f"ok: {cache.root} ({len(cache)} entries, "
                "digests+checksums+index consistent)"
            )
            return 0
        for problem in problems:
            print(problem)
        print(f"INVALID: {len(problems)} problem(s)")
        return 1
    print(f"error: unknown cache action {action!r}")
    return 2
