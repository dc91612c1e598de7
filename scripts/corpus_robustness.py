#!/usr/bin/env python
"""Parser-robustness gate over the malformed-netlist corpus.

Every file under ``tests/data/corpus_bad/`` is deliberately broken.
The front end's one reader must turn each of them into **structured
diagnostics** — at least one :class:`ParseDiagnostic` carrying a real
line number — and must never raise.  ``repro lint``'s file driver
(:func:`repro.lint.cli.lint_path`) must likewise report at least one
error for each file without raising, and exactly the findings a corpus
campaign's pre-flight reports for it.  A traceback here means a malformed
real-world netlist would crash a campaign or ``repro lint`` instead of
surfacing a lint finding, which is exactly the failure mode the
recovering parser exists to prevent.

Usage::

    PYTHONPATH=src python scripts/corpus_robustness.py [--dir DIR]
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

DEFAULT_DIR = Path("tests/data/corpus_bad")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args(argv)

    from repro.corpus.frontend import read_netlist
    from repro.corpus.loader import load_circuit, preflight_report
    from repro.lint.cli import lint_path

    # resolved, as the campaign loader names its sources
    files = sorted(
        p.resolve() for p in args.dir.iterdir()
        if p.suffix in (".bench", ".v")
    )
    if not files:
        print(f"corpus robustness: no netlists under {args.dir}",
              file=sys.stderr)
        return 1

    failures = 0
    for path in files:
        try:
            result = read_netlist(path)
        except Exception:
            print(f"  {path.name}: FAIL — parser raised:")
            traceback.print_exc()
            failures += 1
            continue
        if not result.errors:
            print(f"  {path.name}: FAIL — malformed file produced "
                  f"zero diagnostics")
            failures += 1
            continue
        located = [d for d in result.errors if d.line_no > 0]
        if not located:
            print(f"  {path.name}: FAIL — no diagnostic carries a "
                  f"line number")
            failures += 1
            continue
        try:
            report = lint_path(path)
        except Exception:
            print(f"  {path.name}: FAIL — repro lint raised:")
            traceback.print_exc()
            failures += 1
            continue
        if not report.has_errors:
            print(f"  {path.name}: FAIL — repro lint reported no error")
            failures += 1
            continue
        preflight = preflight_report(load_circuit(path))
        if report.sorted() != preflight.sorted():
            print(f"  {path.name}: FAIL — repro lint and the campaign "
                  f"pre-flight disagree")
            failures += 1
            continue
        first = located[0]
        print(f"  {path.name}: ok — {len(result.errors)} diagnostic(s), "
              f"first at line {first.line_no}: {first.message}; "
              f"lint: {len(report.errors)} error(s)")

    print(f"corpus robustness: {len(files) - failures}/{len(files)} "
          f"malformed file(s) handled structurally")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
