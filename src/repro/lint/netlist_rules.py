"""Netlist analyzer: structural soundness rules over the gate-level IR.

The rules work on a :class:`NetlistSubject` wrapper instead of the raw
:class:`~repro.netlist.Netlist` because lint must keep going on inputs the
strict model refuses — a netlist object built in code with undefined
fan-ins or combinational cycles still deserves a complete report, not an
exception after the first problem.  The wrapper therefore rebuilds fanout
and reachability maps tolerantly (skipping undefined references) instead
of calling :meth:`Netlist.topological_order`.

Rule ids are ``NL0xx``.  No rule reads source text: a netlist file is
linted from the corpus front end's parse, whose diagnostics become IO001
(see :func:`repro.lint.api.lint_parsed`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..netlist import GateType, Netlist
from .diagnostics import Diagnostic, Location, Severity
from .registry import rule

#: net names following the repo-wide key-input naming convention
KEY_INPUT_RE = re.compile(r"^keyinput\d+(_\d+x)?$")


@dataclass
class NetlistSubject:
    """A netlist plus optional file provenance, prepared for linting.

    Attributes:
        netlist: the circuit under analysis (may be structurally broken).
        source: provenance label (file path or synthetic name).
        provenance: net name -> 1-based line number in ``source``.
        pseudo_inputs: nets that look like dead inputs but are driven by
            the sequential layer (flip-flop Q nets) — exempt from NL005.
        pseudo_outputs: core outputs consumed by the sequential layer
            (flip-flop D nets) — exempt from dead-net logic.
    """

    netlist: Netlist
    source: str = ""
    provenance: Mapping[str, int] = field(default_factory=dict)
    pseudo_inputs: frozenset[str] = frozenset()
    pseudo_outputs: frozenset[str] = frozenset()

    def loc(self, net: str) -> Location:
        """Location of a net, with file/line when provenance exists."""
        return Location(
            obj=net,
            source=self.source,
            line_no=int(self.provenance.get(net, 0)),
        )

    # -------------------------------------------------------------- #
    # tolerant derived structure (never raises on broken netlists)

    def fanout(self) -> dict[str, list[str]]:
        """Net -> consumer gates, counting only defined nets."""
        fan: dict[str, list[str]] = {n: [] for n in self.netlist.nets}
        for g in self.netlist.gates():
            for f in g.fanin:
                if f in fan:
                    fan[f].append(g.name)
        return fan

    def undefined_references(self) -> list[tuple[str, str]]:
        """(gate, missing fan-in net) pairs."""
        nl = self.netlist
        return [
            (g.name, f)
            for g in nl.gates()
            for f in g.fanin
            if not nl.has_net(f)
        ]

    def reaches_input(self) -> set[str]:
        """Nets whose cone contains at least one INPUT (BFS from inputs)."""
        fan = self.fanout()
        seen: set[str] = set()
        stack = list(self.netlist.inputs)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(fan.get(n, ()))
        return seen


# ------------------------------------------------------------------ #
# rules


@rule(
    "NL001",
    "combinational-cycle",
    Severity.ERROR,
    "netlist",
    "A combinational loop makes simulation order-dependent and hangs "
    "topological evaluation.",
)
def check_cycle(subject: NetlistSubject) -> Iterator[Diagnostic]:
    loop = subject.netlist.one_loop()
    if loop:
        shown = ", ".join(loop[:8]) + (", ..." if len(loop) > 8 else "")
        yield Diagnostic(
            rule_id="NL001",
            severity=Severity.ERROR,
            message=f"combinational cycle through {shown}",
            location=subject.loc(loop[0]),
            hint="break the loop",
        )


@rule(
    "NL002",
    "undefined-fanin",
    Severity.ERROR,
    "netlist",
    "A gate reading a net nobody drives evaluates garbage; the strict "
    "model only reports the first such net, lint reports them all.",
)
def check_undefined_fanin(subject: NetlistSubject) -> Iterator[Diagnostic]:
    for gate_name, missing in subject.undefined_references():
        yield Diagnostic(
            rule_id="NL002",
            severity=Severity.ERROR,
            message=f"gate {gate_name!r} reads undefined net {missing!r}",
            location=subject.loc(gate_name),
            hint=f"define {missing!r} (INPUT or gate) or fix the reference",
        )


@rule(
    "NL003",
    "undriven-output",
    Severity.ERROR,
    "netlist",
    "An OUTPUT naming a net with no driver silently reads as X; every "
    "HD%% measured through it is meaningless.",
)
def check_undriven_output(subject: NetlistSubject) -> Iterator[Diagnostic]:
    nl = subject.netlist
    for o in nl.outputs:
        if not nl.has_net(o):
            yield Diagnostic(
                rule_id="NL003",
                severity=Severity.ERROR,
                message=f"output {o!r} is not a driven net",
                location=subject.loc(o),
                hint="drive the net or drop it from the output list",
            )


@rule(
    "NL004",
    "dead-net",
    Severity.WARNING,
    "netlist",
    "Logic feeding nothing inflates gate counts (and therefore the "
    "paper's overhead percentages) without affecting any output.",
)
def check_dead_net(subject: NetlistSubject) -> Iterator[Diagnostic]:
    nl = subject.netlist
    fan = subject.fanout()
    outputs = set(nl.outputs) | subject.pseudo_outputs
    for g in nl.gates():
        if g.gtype is GateType.INPUT:
            continue  # NL005 owns inputs
        if g.name in outputs or fan[g.name]:
            continue
        yield Diagnostic(
            rule_id="NL004",
            severity=Severity.WARNING,
            message=f"net {g.name!r} ({g.gtype.value}) drives nothing",
            location=subject.loc(g.name),
            hint="prune_dangling() removes dead cones",
        )


@rule(
    "NL005",
    "unused-input",
    Severity.WARNING,
    "netlist",
    "A primary input feeding no gate cannot influence any output — "
    "usually a generator or locking bug (e.g. an orphaned key input).",
)
def check_unused_input(subject: NetlistSubject) -> Iterator[Diagnostic]:
    nl = subject.netlist
    fan = subject.fanout()
    outputs = set(nl.outputs) | subject.pseudo_outputs
    for i in nl.inputs:
        if i in subject.pseudo_inputs:
            continue  # flop Q nets may legitimately be observe-only
        if fan[i] or i in outputs:
            continue
        yield Diagnostic(
            rule_id="NL005",
            severity=Severity.WARNING,
            message=f"primary input {i!r} feeds no gate and no output",
            location=subject.loc(i),
            hint="drop the input or wire it into the logic",
        )


@rule(
    "NL006",
    "duplicate-fanin",
    Severity.WARNING,
    "netlist",
    "A gate listing the same net twice is degenerate (XOR(a,a)=0, "
    "AND(a,a)=a) — almost always a netlist-construction slip.",
)
def check_duplicate_fanin(subject: NetlistSubject) -> Iterator[Diagnostic]:
    for g in subject.netlist.gates():
        if g.gtype is GateType.MUX:
            continue  # MUX(s, a, a) is a legal (if odd) constant-select
        dupes = {f for f in g.fanin if g.fanin.count(f) > 1}
        if dupes:
            yield Diagnostic(
                rule_id="NL006",
                severity=Severity.WARNING,
                message=(
                    f"gate {g.name!r} ({g.gtype.value}) repeats fan-in "
                    f"{sorted(dupes)}"
                ),
                location=subject.loc(g.name),
                hint="deduplicate the fan-in list or simplify the gate",
            )


@rule(
    "NL007",
    "constant-output",
    Severity.WARNING,
    "netlist",
    "An output with no primary input in its cone is stuck at a constant; "
    "it dilutes Hamming-distance and fault-coverage measurements.",
)
def check_constant_output(subject: NetlistSubject) -> Iterator[Diagnostic]:
    nl = subject.netlist
    if not nl.inputs:
        return  # fully constant blocks are out of scope
    reachable = subject.reaches_input()
    for o in nl.outputs:
        if nl.has_net(o) and o not in reachable:
            yield Diagnostic(
                rule_id="NL007",
                severity=Severity.WARNING,
                message=f"output {o!r} depends on no primary input",
                location=subject.loc(o),
                hint="constant-fold the cone away or drop the output",
            )


@rule(
    "NL008",
    "key-input-convention",
    Severity.ERROR,
    "netlist",
    "Nets named keyinput<i> are the repo-wide key-bit convention; a "
    "key-named net that is not a primary input breaks every attack's "
    "key-input discovery.",
)
def check_key_convention(subject: NetlistSubject) -> Iterator[Diagnostic]:
    nl = subject.netlist
    inputs = set(nl.inputs)
    for g in nl.gates():
        if KEY_INPUT_RE.match(g.name) and g.name not in inputs:
            yield Diagnostic(
                rule_id="NL008",
                severity=Severity.ERROR,
                message=(
                    f"net {g.name!r} follows the key-input naming convention "
                    f"but is driven by a {g.gtype.value} gate"
                ),
                location=subject.loc(g.name),
                hint="rename the internal net or make it a primary input",
            )
