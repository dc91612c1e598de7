"""Static analysis over the repo's netlists, locking schemes and OraP designs.

A rule-registry lint subsystem (see :mod:`repro.lint.registry`): each
rule is a decorated checker that yields structured
:class:`~repro.lint.diagnostics.Diagnostic` records with a rule id,
severity, object location, and a fix hint — plus file/line provenance
when the subject came from a BENCH or Verilog file.

It guards the campaigns: :class:`repro.experiments.runner.ExperimentRunner`
runs a cheap pre-flight per row (``CircuitSource.preflight`` for Table I
and II, :func:`lint_orap` for the attack matrix), and a lint error turns
the row into an ``error`` outcome instead of spending a solver budget on
a malformed circuit.  ``repro lint`` is the command-line face.
"""

from .api import lint_netlist, lint_orap, lint_paper_benchmarks, lint_parsed
from .diagnostics import Diagnostic, LintReport, Location, Severity
from .netlist_rules import NetlistSubject
from .registry import (
    ANALYZERS,
    LintRule,
    all_rules,
    get_rule,
    rule,
    rules_for,
    run_rules,
)
from .scheme_rules import SchemeSubject

__all__ = [
    "ANALYZERS",
    "Diagnostic",
    "LintReport",
    "LintRule",
    "Location",
    "NetlistSubject",
    "SchemeSubject",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_netlist",
    "lint_orap",
    "lint_paper_benchmarks",
    "lint_parsed",
    "rule",
    "rules_for",
    "run_rules",
]
