"""Structured diagnostics for the static-analysis subsystem.

A :class:`Diagnostic` is one finding: a rule id, a severity, a free-form
message, and an optional :class:`Location` naming the net/gate (and the
file/line when bench provenance exists — the same contract as
:class:`~repro.netlist.bench_io.NetlistFormatError`).  A
:class:`LintReport` collects the findings of one lint run and knows how to
render them as text or a JSON-able dict and how to answer the only
question callers usually have: "is this input safe to spend hours of
compute on?".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator


class Severity(enum.Enum):
    """How bad a finding is.

    * ``ERROR`` — the input is structurally unsound; running an experiment
      on it produces wrong numbers or hangs.  Errors fail pre-flight.
    * ``WARNING`` — suspicious structure that is usually a mistake
      (dead logic, degenerate gates) but does not invalidate results;
      fails only ``repro lint --strict``.
    """

    ERROR = "error"
    WARNING = "warning"

    @property
    def rank(self) -> int:
        """Ordering key: errors sort first."""
        return 0 if self is Severity.ERROR else 1


@dataclass(frozen=True)
class Location:
    """Where a finding points.

    Attributes:
        obj: the offending object — a net/gate name, a flip-flop name,
            or an LFSR cell like ``"cell 7"``.
        source: file name (or synthetic label) when provenance exists.
        line_no: 1-based source line, 0 when unknown.
    """

    obj: str = ""
    source: str = ""
    line_no: int = 0

    def __str__(self) -> str:
        parts = []
        if self.source:
            parts.append(f"{self.source}:{self.line_no}" if self.line_no else self.source)
        if self.obj:
            parts.append(self.obj)
        return " ".join(parts)


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        rule_id: stable identifier (``NL001``, ``OR002``, ...).
        severity: see :class:`Severity`.
        message: what is wrong, in one sentence.
        location: what the finding points at.
        hint: how to fix it (shown after the message).
    """

    rule_id: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    hint: str = ""

    def format(self) -> str:
        """Render as a compiler-style one-liner."""
        where = str(self.location)
        prefix = f"{where}: " if where else ""
        tail = f" (hint: {self.hint})" if self.hint else ""
        return f"{prefix}{self.severity.value}[{self.rule_id}] {self.message}{tail}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (checkpoint rows, ``--format json``)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "object": self.location.obj,
            "source": self.location.source,
            "line": self.location.line_no,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """The findings of one lint run over one or more subjects."""

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: rule ids that actually executed (for the golden-diagnostics test)
    rules_run: list[str] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diag)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        """Findings at one severity."""
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        """Error findings."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning findings."""
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        """True when any error exists (pre-flight fails)."""
        return bool(self.errors)

    def is_clean(self, strict: bool = False) -> bool:
        """True when no errors (and, with ``strict``, no warnings) remain."""
        if self.has_errors:
            return False
        return not (strict and self.warnings)

    def sorted(self) -> list[Diagnostic]:
        """Findings ordered by severity, then rule id, then location."""
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.rule_id, str(d.location)),
        )

    def format(self) -> str:
        """Multi-line text rendering plus a one-line summary."""
        lines = [d.format() for d in self.sorted()]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """``subject: E error(s), W warning(s)``."""
        head = f"{self.subject}: " if self.subject else ""
        return (
            f"{head}{len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form of the whole report."""
        return {
            "subject": self.subject,
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "rules_run": list(self.rules_run),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }
