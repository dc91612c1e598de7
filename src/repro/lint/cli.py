"""``repro lint`` — the command-line face of the static analyzer.

Kept separate from :mod:`repro.__main__` so the CLI glue is unit-testable
without argparse: :func:`run_lint` takes keyword arguments and an output
stream and returns the exit code.

Exit codes follow compiler convention: 0 when no errors, 1 when any
subject has errors — or warnings under ``--strict``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, TextIO

from .api import lint_orap, lint_paper_benchmarks, lint_parsed
from .diagnostics import Diagnostic, LintReport, Location, Severity
from .registry import all_rules

#: file suffixes ``repro lint`` reads as netlists
_SUFFIXES = (".bench", ".v")


def _io_error(p: Path, message: str) -> LintReport:
    report = LintReport(subject=str(p))
    report.add(
        Diagnostic(
            rule_id="IO001",
            severity=Severity.ERROR,
            message=message,
            location=Location(source=str(p)),
        )
    )
    return report


def lint_path(path: str | Path) -> LintReport:
    """Lint one netlist file: what a corpus campaign's pre-flight runs.

    The file goes through the corpus front end's one reader
    (:func:`~repro.corpus.frontend.read_netlist`), then
    :func:`~repro.lint.api.lint_parsed`.  An unknown suffix, or a file
    that cannot be read (missing, a directory), produces one ``IO001``
    error report instead of raising, so a mixed file list still yields
    one report per path.
    """
    from ..corpus.frontend import read_netlist

    p = Path(path)
    if p.suffix.lower() not in _SUFFIXES:
        return _io_error(
            p,
            f"unsupported file type {p.suffix!r} "
            f"(expected one of {sorted(_SUFFIXES)})",
        )
    try:
        parsed = read_netlist(p)
    except OSError as exc:
        return _io_error(p, f"cannot read file: {exc}")
    return lint_parsed(parsed, str(p))


def lint_orap_chips() -> list[LintReport]:
    """Protect a deterministic sequential design both ways and lint it.

    This is the ``repro lint --orap`` corpus: one basic and one modified
    OraP chip built from a generated scan design, exercising every orap
    and scheme rule on a real :func:`~repro.orap.scheme.protect` output.
    """
    from ..bench import GeneratorConfig, SequentialConfig, generate_sequential
    from ..locking import WLLConfig
    from ..orap.scheme import OraPConfig, protect

    seq = generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=12,
                n_outputs=20,
                n_gates=150,
                seed=7,
                name="orap_preflight",
            ),
            n_flops=8,
        )
    )
    reports: list[LintReport] = []
    for variant in ("basic", "modified"):
        design = protect(
            seq,
            orap=OraPConfig(variant=variant),
            wll=WLLConfig(key_width=16, n_key_gates=6),
            rng=7,
        )
        report = lint_orap(design)
        report.subject = f"orap-{variant}({report.subject})"
        reports.append(report)
    return reports


def catalog_text() -> str:
    """The rule catalog as an aligned table (``repro lint --rules``)."""
    rows = [(r.id, r.severity.value, r.analyzer, r.title) for r in all_rules()]
    rows.insert(0, ("ID", "SEVERITY", "ANALYZER", "TITLE"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        "  ".join(
            [row[0].ljust(widths[0]), row[1].ljust(widths[1]), row[2].ljust(widths[2]), row[3]]
        )
        for row in rows
    ]
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str] = (),
    benchmarks: bool = False,
    orap: bool = False,
    scale: float | None = None,
    fmt: str = "text",
    strict: bool = False,
    list_rules: bool = False,
    out: TextIO | None = None,
) -> int:
    """Drive one lint invocation; returns the process exit code.

    With neither paths nor corpus flags, the full default corpus runs
    (bundled benchmarks, fixtures, and OraP chips) — the cheap "is this
    checkout sane?" button.
    """
    import sys

    stream = out if out is not None else sys.stdout
    if list_rules:
        print(catalog_text(), file=stream)
        return 0

    if not paths and not benchmarks and not orap:
        benchmarks = orap = True

    reports = [lint_path(path) for path in paths]
    if benchmarks:
        reports.extend(lint_paper_benchmarks(scale=scale))
    if orap:
        reports.extend(lint_orap_chips())

    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2), file=stream)
    else:
        for report in reports:
            if len(report) == 0:
                print(f"{report.subject}: clean", file=stream)
            else:
                print(report.format(), file=stream)
    failed = any(not r.is_clean(strict=strict) for r in reports)
    return 1 if failed else 0
