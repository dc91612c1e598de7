"""Analyzer drivers: turn repo objects and files into lint reports.

Entry points:

* :func:`lint_netlist` — a :class:`~repro.netlist.Netlist` or
  :class:`~repro.netlist.SequentialCircuit`;
* :func:`lint_parsed` — one netlist file as the corpus front end parsed
  it; ``repro lint <file>`` and a corpus campaign's pre-flight both run
  it, so they report the same findings;
* :func:`lint_orap` — a full OraP design (orap + scheme + netlist rules);
* :func:`lint_paper_benchmarks` — every bundled benchmark stand-in and
  fixture, the corpus ``repro lint`` checks by default.

``IO001`` is the one driver-level diagnostic: a file that cannot be
modelled at all (unreadable, or any parse diagnostic).  It is emitted
directly rather than through the registry because no subject exists yet.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..netlist import Netlist, SequentialCircuit
from ..orap.scheme import OraPDesign
from .diagnostics import LintReport
from .netlist_rules import NetlistSubject
from .registry import run_rules
from .scheme_rules import SchemeSubject

if TYPE_CHECKING:  # pragma: no cover - the corpus front end loads lazily
    from ..corpus.frontend import ParseResult

# ------------------------------------------------------------------ #
# netlist / sequential


def _subject_of(
    circuit: Netlist | SequentialCircuit, source: str = ""
) -> NetlistSubject:
    if isinstance(circuit, SequentialCircuit):
        return NetlistSubject(
            netlist=circuit.core,
            source=source or circuit.name,
            pseudo_inputs=frozenset(ff.q for ff in circuit.flops),
            pseudo_outputs=frozenset(ff.d for ff in circuit.flops),
        )
    return NetlistSubject(netlist=circuit, source=source or circuit.name)


def lint_netlist(
    circuit: Netlist | SequentialCircuit, source: str = ""
) -> LintReport:
    """Run the netlist analyzer over a circuit object."""
    subject = _subject_of(circuit, source)
    return run_rules("netlist", subject, LintReport(subject=subject.source))


def lint_parsed(parsed: ParseResult, source: str) -> LintReport:
    """Lint one netlist file from its front-end parse.

    Each parse diagnostic becomes one located IO001 (the front end
    suppresses cascade errors, so one defect yields one finding); a
    cleanly parsed file gets the netlist rules, located by the lines
    that define each net.
    """
    report = LintReport(subject=source)
    if parsed.errors:
        kind = "verilog" if Path(source).suffix.lower() == ".v" else "netlist"
        for diag in parsed.errors:
            report.add(diag.to_lint(kind))
        return report
    assert parsed.circuit is not None
    subject = replace(
        _subject_of(parsed.circuit, source), provenance=parsed.provenance
    )
    return run_rules("netlist", subject, report)


# ------------------------------------------------------------------ #
# OraP composite


def lint_orap(design: OraPDesign) -> LintReport:
    """The full OraP pre-flight: orap + scheme + netlist analyzers."""
    report = LintReport(subject=design.design.name)
    run_rules("orap", design, report)
    run_rules("scheme", SchemeSubject(locked=design.locked), report)
    return run_rules("netlist", _subject_of(design.design), report)


# ------------------------------------------------------------------ #
# bundled corpus


def lint_paper_benchmarks(
    scale: float | None = None, circuits: Sequence[str] | None = None
) -> list[LintReport]:
    """Lint every bundled benchmark stand-in (and the genuine fixtures).

    This is the corpus ``repro lint --benchmarks`` checks; the golden
    test asserts it stays clean.
    """
    from ..bench import build_paper_circuit, PAPER_ORDER
    from ..bench.fixtures import (
        c17,
        equality_checker,
        majority,
        mini_alu,
        parity_tree,
        ripple_adder,
        s27_like,
    )
    from ..experiments.common import DEFAULT_SCALE

    eff_scale = scale if scale is not None else DEFAULT_SCALE
    reports: list[LintReport] = []
    for name in circuits or PAPER_ORDER:
        netlist = build_paper_circuit(name, scale=eff_scale)
        reports.append(lint_netlist(netlist, source=f"{name}@x{eff_scale:g}"))
    for fixture in (c17(), ripple_adder(), equality_checker(), mini_alu(),
                    parity_tree(), majority(), s27_like()):
        reports.append(lint_netlist(fixture))
    return reports
