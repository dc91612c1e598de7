"""Analyzer drivers: turn repo objects and files into lint reports.

Entry points:

* :func:`lint_netlist` — a :class:`~repro.netlist.Netlist` or
  :class:`~repro.netlist.SequentialCircuit`;
* :func:`lint_bench_text` / :func:`lint_bench_path` — BENCH source,
  scanned tolerantly so *all* problems are reported (the strict parser
  stops at the first);
* :func:`lint_verilog_path` — structural Verilog, through the corpus
  front end's recovering parser;
* :func:`lint_orap` — a full OraP design (orap + scheme + netlist rules);
* :func:`lint_paper_benchmarks` — every bundled benchmark stand-in and
  fixture, the corpus ``repro lint`` checks by default.

``IO001`` is the one driver-level diagnostic: a file that cannot be
modelled at all (unreadable, bad Verilog).  It is emitted directly rather
than through the registry because no subject exists yet.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..netlist import Netlist, NetlistError, SequentialCircuit
from ..netlist.gates import BENCH_TYPES, GateType
from ..orap.scheme import OraPDesign
from .diagnostics import LintReport
from .netlist_rules import _BENCH_DEF_RE, NetlistSubject
from .registry import run_rules
from .scheme_rules import SchemeSubject

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


# ------------------------------------------------------------------ #
# BENCH text (tolerant scan — keeps going where the parser raises)

_IO_PREFIXES = ("INPUT(", "OUTPUT(")


def _tolerant_bench_subject(text: str, source: str) -> NetlistSubject:
    """Best-effort model of BENCH text for linting.

    Unlike :func:`repro.netlist.parse_bench` this never raises: duplicate
    drivers keep the first definition (NL011 reports the clash), unknown
    operators drop the line (NL012 reports it), and structural problems
    (cycles, undefined nets) are left in the model for the netlist rules
    to find.  DFFs take the full-scan view: Q nets become pseudo inputs,
    D nets pseudo outputs.
    """
    netlist = Netlist(Path(source).stem or "bench")
    outputs: list[str] = []
    flop_qs: list[str] = []
    flop_ds: list[str] = []
    provenance: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith(_IO_PREFIXES) and ")" in line:
            name = line[line.index("(") + 1 : line.rindex(")")].strip()
            if not name:
                continue
            if upper.startswith("INPUT("):
                if not netlist.has_net(name):
                    netlist.add_input(name)
                    provenance[name] = line_no
            else:
                outputs.append(name)
                provenance.setdefault(name, line_no)
            continue
        m = _BENCH_DEF_RE.match(line)
        if not m:
            continue  # NL012 reports unparseable definitions from the text
        lhs = m.group("lhs")
        op = m.group("op").upper()
        args_text = line[line.index("(") + 1 : line.rindex(")")] if ")" in line else ""
        args = [a.strip() for a in args_text.split(",") if a.strip()]
        if netlist.has_net(lhs):
            continue  # NL011 reports the duplicate driver
        provenance[lhs] = line_no
        if op == "DFF":
            netlist.add_input(lhs)
            flop_qs.append(lhs)
            if args:
                flop_ds.append(args[0])
            continue
        gtype = BENCH_TYPES.get(op)
        if gtype is None:
            continue  # NL012 reports the unknown operator
        try:
            netlist.add_gate(lhs, gtype, args)
        except (NetlistError, ValueError):
            # arity violations (e.g. NOT with two inputs): model the net as
            # a buffer of its first argument so downstream rules still run
            if args:
                netlist.add_gate(lhs, GateType.BUF, (args[0],))
    netlist.set_outputs(outputs + [d for d in flop_ds if d not in outputs])
    return NetlistSubject(
        netlist=netlist,
        source=source,
        provenance=provenance,
        pseudo_inputs=frozenset(flop_qs),
        pseudo_outputs=frozenset(flop_ds),
        bench_text=text,
    )


def lint_bench_text(text: str, source: str = "<string>") -> LintReport:
    """Lint BENCH source text (tolerant: reports every finding at once)."""
    subject = _tolerant_bench_subject(text, source)
    return run_rules("netlist", subject, LintReport(subject=source))


def lint_bench_path(path: str | Path) -> LintReport:
    """Lint a BENCH file from disk."""
    p = Path(path)
    return lint_bench_text(p.read_text(), source=str(p))


def lint_verilog_path(path: str | Path) -> LintReport:
    """Lint a structural Verilog file (recovering parse, then rules).

    Every scan-level parse diagnostic becomes one IO001 (the recovering
    front end suppresses cascade errors, so a single defect yields a
    single finding); a cleanly parsed file gets the netlist rule set.
    """
    from ..corpus.frontend import load_verilog_streaming

    p = Path(path)
    report = LintReport(subject=str(p))
    result = load_verilog_streaming(p)
    if result.errors:
        for diag in result.errors:
            report.add(diag.to_lint("verilog"))
        return report
    assert result.circuit is not None
    return run_rules("netlist", _subject_of(result.circuit, str(p)), report)


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
