"""Locking-scheme and OraP analyzers.

Two analyzers live here:

* ``scheme`` — invariants of the combinational locking layer, today the
  WLL invariants the paper's Table I methodology depends on (control-gate
  arity, key-bit coverage/reuse).  Non-WLL :class:`LockedCircuit` subjects
  get the generic key-bit rules only.
* ``orap`` — invariants of the OraP protection wrapper (paper Figs. 1-3):
  pulse generators clear the LFSR on a scan-enable rising edge, the reseed
  schedule can reach every LFSR cell, the modified scheme feeds exactly
  half the reseeding points from functional flip-flops whose cones are
  key-free, and the planned key sequence actually lands on the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..locking import LockedCircuit, WLLConfig
from ..netlist import GateType
from ..orap.keyregister import KeyRegister
from ..orap.lfsr import SymbolicLFSR
from ..orap.scheme import (
    OraPDesign,
    closed_fanin_cone,
    simulate_response_stream,
)
from ..orap.schedule import final_state
from .diagnostics import Diagnostic, Location, Severity
from .registry import rule


@dataclass
class SchemeSubject:
    """A locked circuit prepared for the scheme analyzer."""

    locked: LockedCircuit

    @property
    def wll_config(self) -> WLLConfig | None:
        """The WLL configuration, when this is a WLL lock."""
        cfg = self.locked.extra.get("config")
        return cfg if isinstance(cfg, WLLConfig) else None

    def control_gates(self) -> list[str]:
        """WLL control-gate nets recorded by the locker (empty otherwise)."""
        gates = self.locked.extra.get("control_gates", [])
        return list(gates) if isinstance(gates, (list, tuple)) else []

    def key_feed_map(self) -> dict[str, set[str]]:
        """Key input -> control gates it feeds (directly or via inverter)."""
        nl = self.locked.locked
        keys = set(self.locked.key_inputs)
        # shared inverters: NOT gates whose single fan-in is a key input
        inverter_owner: dict[str, str] = {}
        for g in nl.gates():
            if g.gtype is GateType.NOT and len(g.fanin) == 1 and g.fanin[0] in keys:
                inverter_owner[g.name] = g.fanin[0]
        feeds: dict[str, set[str]] = {k: set() for k in self.locked.key_inputs}
        for ctrl in self.control_gates():
            if not nl.has_net(ctrl):
                continue
            for f in nl.gate(ctrl).fanin:
                key = f if f in keys else inverter_owner.get(f)
                if key is not None:
                    feeds[key].add(ctrl)
        return feeds


# ------------------------------------------------------------------ #
# scheme rules (WL0xx)


@rule(
    "WL001",
    "control-gate-arity",
    Severity.ERROR,
    "scheme",
    "WLL's corruption probability 1-2^-w assumes every control gate has "
    "exactly the configured width w of distinct key-derived inputs.",
)
def check_control_arity(subject: SchemeSubject) -> Iterator[Diagnostic]:
    wll = subject.wll_config
    if wll is None:
        return
    nl = subject.locked.locked
    for ctrl in subject.control_gates():
        if not nl.has_net(ctrl):
            yield Diagnostic(
                rule_id="WL001",
                severity=Severity.ERROR,
                message=f"recorded control gate {ctrl!r} does not exist",
                location=Location(obj=ctrl),
                hint="the locking metadata is stale — re-lock the circuit",
            )
            continue
        g = nl.gate(ctrl)
        if g.gtype not in (GateType.AND, GateType.NAND):
            yield Diagnostic(
                rule_id="WL001",
                severity=Severity.ERROR,
                message=(
                    f"control gate {ctrl!r} is {g.gtype.value}, "
                    "expected AND/NAND"
                ),
                location=Location(obj=ctrl),
            )
        if len(g.fanin) != wll.control_width:
            yield Diagnostic(
                rule_id="WL001",
                severity=Severity.ERROR,
                message=(
                    f"control gate {ctrl!r} has {len(g.fanin)} inputs, "
                    f"config says {wll.control_width}"
                ),
                location=Location(obj=ctrl),
                hint="arity drift changes the actuation probability 1-2^-w",
            )
        if len(set(g.fanin)) != len(g.fanin):
            yield Diagnostic(
                rule_id="WL001",
                severity=Severity.ERROR,
                message=f"control gate {ctrl!r} repeats a key input",
                location=Location(obj=ctrl),
                hint="duplicate control inputs lower the effective width",
            )


@rule(
    "WL002",
    "unused-key-bit",
    Severity.ERROR,
    "scheme",
    "A key input feeding no logic is a free bit: every key value unlocks "
    "it, silently shrinking the effective key space.",
)
def check_unused_key_bit(subject: SchemeSubject) -> Iterator[Diagnostic]:
    nl = subject.locked.locked
    used: set[str] = set()
    for g in nl.gates():
        used.update(g.fanin)
    for k in subject.locked.key_inputs:
        if k not in used and k not in set(nl.outputs):
            yield Diagnostic(
                rule_id="WL002",
                severity=Severity.ERROR,
                message=f"key input {k!r} feeds no gate",
                location=Location(obj=k),
                hint="wire the bit into a control gate or shrink the key",
            )


@rule(
    "WL003",
    "key-bit-reuse-imbalance",
    Severity.WARNING,
    "scheme",
    "WLL deals key bits round-robin so reuse stays balanced; a heavily "
    "reused bit becomes a single point of sensitization.",
)
def check_key_reuse(subject: SchemeSubject) -> Iterator[Diagnostic]:
    if subject.wll_config is None or not subject.control_gates():
        return
    feeds = subject.key_feed_map()
    counts = {k: len(v) for k, v in feeds.items()}
    if not counts:
        return
    lo, hi = min(counts.values()), max(counts.values())
    if hi - lo > 2:
        worst = max(counts, key=lambda k: counts[k])
        yield Diagnostic(
            rule_id="WL003",
            severity=Severity.WARNING,
            message=(
                f"key-bit reuse is unbalanced: {worst!r} feeds {hi} control "
                f"gates while the least-used bit feeds {lo}"
            ),
            location=Location(obj=worst),
            hint="re-deal key bits round-robin across control gates",
        )


# ------------------------------------------------------------------ #
# OraP rules (OR0xx)


@rule(
    "OR001",
    "pulse-clear",
    Severity.ERROR,
    "orap",
    "The whole defense rests on the per-cell pulse generators clearing "
    "the LFSR on every scan-enable rising edge (Fig. 2); a suppressed "
    "generator leaks its key bit through the scan chain.",
)
def check_pulse_clear(design: OraPDesign) -> Iterator[Diagnostic]:
    # replicate the chip's per-cell suppression flags onto a scratch
    # register, load a nonzero key, and fire a scan-enable rising edge
    kr = KeyRegister(design.lfsr_config)
    if design.chip is not None:
        for gen, live in zip(kr.pulses, design.chip.key_register.pulses):
            gen.suppressed = live.suppressed
    for i in range(kr.size):
        kr.scan_cell_set(i, 1)
    for gen in kr.pulses:
        gen.reset(scan_enable=0)
    kr.sense_scan_enable(1)
    stuck = [i for i, bit in enumerate(kr.key_bits()) if bit != 0]
    for cell in stuck:
        yield Diagnostic(
            rule_id="OR001",
            severity=Severity.ERROR,
            message=(
                f"key-register cell {cell} survives a scan-enable rising "
                "edge (pulse generator missing or suppressed)"
            ),
            location=Location(obj=f"cell {cell}"),
            hint="every cell needs an unsuppressed pulse generator",
        )


@rule(
    "OR002",
    "reseed-coverage",
    Severity.ERROR,
    "orap",
    "Every LFSR cell must be reachable from the reseeding injections "
    "under the planned schedule, or some key bits are uncontrollable and "
    "no memory content can unlock the chip.",
)
def check_reseed_coverage(design: OraPDesign) -> Iterator[Diagnostic]:
    sym = SymbolicLFSR(design.lfsr_config)
    for inject in design.key_sequence.schedule.inject:
        sym.step_symbolic(inject=inject)
    uncovered = [i for i, mask in enumerate(sym.cells) if mask == 0]
    for cell in uncovered:
        yield Diagnostic(
            rule_id="OR002",
            severity=Severity.ERROR,
            message=(
                f"LFSR cell {cell} receives no reseeding influence over "
                f"the {design.key_sequence.schedule.n_cycles}-cycle schedule"
            ),
            location=Location(obj=f"cell {cell}"),
            hint="add seed cycles, taps, or reseed points covering the cell",
        )


@rule(
    "OR003",
    "response-split",
    Severity.ERROR,
    "orap",
    "The modified scheme (Fig. 3) feeds exactly half the reseeding "
    "points from functional flip-flops; any other split changes the "
    "threat-(e) security argument.",
)
def check_response_split(design: OraPDesign) -> Iterator[Diagnostic]:
    n_points = len(design.lfsr_config.reseed_points)
    n_resp = len(design.response_points)
    if design.config.variant == "basic":
        if n_resp:
            yield Diagnostic(
                rule_id="OR003",
                severity=Severity.ERROR,
                message=(
                    f"basic OraP must not use response points, found {n_resp}"
                ),
                location=Location(obj="response_points"),
            )
        return
    if n_resp != len(design.response_flops):
        yield Diagnostic(
            rule_id="OR003",
            severity=Severity.ERROR,
            message=(
                f"{n_resp} response points but "
                f"{len(design.response_flops)} response flops"
            ),
            location=Location(obj="response_points"),
            hint="points and flops must pair 1:1",
        )
    if n_resp != n_points // 2:
        yield Diagnostic(
            rule_id="OR003",
            severity=Severity.ERROR,
            message=(
                f"modified OraP drives {n_resp} of {n_points} reseed points "
                f"from flip-flops; the paper prescribes exactly half "
                f"({n_points // 2})"
            ),
            location=Location(obj="response_points"),
        )
    flop_names = {ff.name for ff in design.design.flops}
    for f in design.response_flops:
        if f not in flop_names:
            yield Diagnostic(
                rule_id="OR003",
                severity=Severity.ERROR,
                message=f"response flop {f!r} does not exist in the design",
                location=Location(obj=f),
            )


@rule(
    "OR004",
    "response-cone-key-free",
    Severity.ERROR,
    "orap",
    "Modified-OraP planning assumes the response stream is computable at "
    "design time, which requires the response flops' sequential cones to "
    "contain no key gates or key inputs.",
)
def check_response_cone(design: OraPDesign) -> Iterator[Diagnostic]:
    if design.config.variant == "basic" or not design.response_flops:
        return
    flop_names = {ff.name for ff in design.design.flops}
    live = [f for f in design.response_flops if f in flop_names]
    if not live:
        return  # OR003 already reported the missing flops
    cone = closed_fanin_cone(design.design, live)
    tainted = cone & (
        set(design.locked.key_inputs) | set(design.locked.key_gate_nets)
    )
    for net in sorted(tainted):
        yield Diagnostic(
            rule_id="OR004",
            severity=Severity.ERROR,
            message=(
                f"key-dependent net {net!r} lies in the sequential fan-in "
                "cone of the response flops"
            ),
            location=Location(obj=net),
            hint="re-lock with the response cones in exclude_nets",
        )


@rule(
    "OR005",
    "unlock-misses-key",
    Severity.ERROR,
    "orap",
    "The planned key sequence must drive the LFSR exactly onto the "
    "locking key; a mismatch means a multi-hour campaign measures a "
    "permanently locked chip.",
)
def check_unlock_reaches_key(design: OraPDesign) -> Iterator[Diagnostic]:
    stream = None
    if design.response_points:
        flop_names = {ff.name for ff in design.design.flops}
        if any(f not in flop_names for f in design.response_flops):
            return  # OR003 owns that failure; the stream is uncomputable
        stream = simulate_response_stream(
            design.design,
            design.locked,
            design.response_flops,
            design.key_sequence.schedule.n_cycles,
            design.unlock_pi_values,
        )
    final = final_state(
        design.lfsr_config,
        design.key_sequence,
        memory_points=design.memory_points,
        response_stream=stream,
        response_points=design.response_points,
    )
    target = list(design.locked.key_vector())
    if len(final) != len(target):
        return  # OR006 owns width mismatches
    wrong = [i for i, (a, b) in enumerate(zip(final, target)) if a != b]
    if wrong:
        shown = ", ".join(str(i) for i in wrong[:8])
        more = " ..." if len(wrong) > 8 else ""
        yield Diagnostic(
            rule_id="OR005",
            severity=Severity.ERROR,
            message=(
                f"unlock sequence misses the key on {len(wrong)} of "
                f"{len(target)} bits (cells {shown}{more})"
            ),
            location=Location(obj="key_sequence"),
            hint="re-plan the key sequence (plan_key_sequence) for this key",
        )


@rule(
    "OR006",
    "key-width-mismatch",
    Severity.ERROR,
    "orap",
    "The key register must be exactly as wide as the locking key; a "
    "mismatch truncates or zero-pads the key the core sees.",
)
def check_key_width(design: OraPDesign) -> Iterator[Diagnostic]:
    if design.lfsr_config.size != len(design.locked.key_inputs):
        yield Diagnostic(
            rule_id="OR006",
            severity=Severity.ERROR,
            message=(
                f"LFSR size {design.lfsr_config.size} != key width "
                f"{len(design.locked.key_inputs)}"
            ),
            location=Location(obj="lfsr_config"),
            hint="size the LFSR from len(locked.key_inputs)",
        )
