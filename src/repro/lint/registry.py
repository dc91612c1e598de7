"""Rule registry: declarative catalog of lint rules.

Every rule registers itself with the :func:`rule` decorator, naming the
analyzer it belongs to (``netlist``, ``scheme``, ``orap``).  The analyzer
drivers in :mod:`repro.lint.api` fetch their rules from here, so adding a
rule is one decorated function — no driver changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .diagnostics import Diagnostic, LintReport, Severity

# Checker signature: subject -> iterable of Diagnostic.  The subject's
# concrete type depends on the analyzer (see api.py contexts).
CheckFn = Callable[[Any], Iterable[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """One registered rule.

    Attributes:
        id: stable identifier, ``<analyzer prefix><number>``.
        title: short human name (docs, ``repro lint --rules``).
        severity: default severity of the rule's findings.
        analyzer: which driver runs it (``netlist``/``scheme``/``orap``).
        rationale: why the rule exists, one sentence (rule catalog).
        check: the checker function.
    """

    id: str
    title: str
    severity: Severity
    analyzer: str
    rationale: str
    check: CheckFn


_REGISTRY: dict[str, LintRule] = {}

#: analyzers a rule may register under
ANALYZERS = ("netlist", "scheme", "orap")


def rule(
    rule_id: str,
    title: str,
    severity: Severity,
    analyzer: str,
    rationale: str,
) -> Callable[[CheckFn], CheckFn]:
    """Class-free registration decorator for checker functions."""
    if analyzer not in ANALYZERS:
        raise ValueError(f"unknown analyzer {analyzer!r}; pick from {ANALYZERS}")

    def register(fn: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = LintRule(
            id=rule_id,
            title=title,
            severity=severity,
            analyzer=analyzer,
            rationale=rationale,
            check=fn,
        )
        return fn

    return register


def all_rules() -> list[LintRule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def rules_for(analyzer: str) -> list[LintRule]:
    """Rules belonging to one analyzer, ordered by id."""
    return [r for r in all_rules() if r.analyzer == analyzer]


def get_rule(rule_id: str) -> LintRule:
    """Look up one rule (KeyError on unknown id)."""
    return _REGISTRY[rule_id]


def run_rules(analyzer: str, subject: Any, report: LintReport) -> LintReport:
    """Run every rule of one analyzer over a subject.

    Findings are appended to ``report``; executed rule ids are recorded
    for coverage assertions.
    """
    for lint_rule in rules_for(analyzer):
        if lint_rule.id not in report.rules_run:
            report.rules_run.append(lint_rule.id)
        for diag in lint_rule.check(subject):
            report.add(diag)
    return report
