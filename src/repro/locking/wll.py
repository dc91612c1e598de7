"""Weighted logic locking (WLL, Karousos et al. [26]).

WLL raises output corruptibility by driving each XOR/XNOR key gate from a
multi-input AND/NAND *control gate* instead of a single key input.  The
control gate's inputs are key inputs (some through inverters, per a secret
inversion mask).  With the correct key every control input reads 1, so:

* AND control + XNOR key gate: control = 1, XNOR passes through;
* NAND control + XOR key gate: control = 0, XOR passes through.

Under a random wrong key the control gate output leaves its pass value with
probability ``1 - 2^-w`` for width ``w``, so the key gate *actuates* (flips
its net) with high probability — the "weighting" that produces the high
Hamming distances of the paper's Table I.  Key inputs are shared between
control gates, so the correct key is a full-entropy secret vector, not
all-ones.

This is the scheme the paper pairs with OraP ("we have combined the
proposed OraP scheme with weighted logic locking [26]").
"""

from __future__ import annotations

import random
from typing import Iterable
from dataclasses import dataclass

from .. import telemetry
from ..netlist import GateType, Netlist
from .base import (
    LockedCircuit,
    LockingError,
    _as_rng,
    insert_key_gate,
    make_key_inputs,
)


@dataclass(frozen=True)
class WLLConfig:
    """Parameters of a WLL application.

    Attributes:
        key_width: number of key inputs (the paper's "LFSR size").
        control_width: inputs per control gate (paper: 3, or 5 for b18/b19).
        n_key_gates: number of weighted key gates; defaults to
            ``key_width // control_width`` so each key bit feeds one control
            gate, plus reuse when more gates are requested.
        target_strategy: "impact" (fault-analysis ranking) or "random".
    """

    key_width: int
    control_width: int = 3
    n_key_gates: int | None = None
    target_strategy: str = "impact"

    def resolved_n_key_gates(self) -> int:
        """Key-gate count after applying the default rule."""
        if self.n_key_gates is not None:
            return self.n_key_gates
        return max(1, self.key_width // self.control_width)


def lock_weighted(
    netlist: Netlist,
    config: WLLConfig,
    rng: random.Random | int | None = 0,
    key_prefix: str = "keyinput",
    exclude_nets: Iterable[str] = (),
) -> LockedCircuit:
    """Apply weighted logic locking.

    Every control gate draws ``control_width`` distinct key inputs; key
    inputs are dealt round-robin (then reshuffled) so all are used before
    any is reused.  The secret inversion mask fixes the correct key to a
    uniformly random vector.

    ``exclude_nets`` removes nets from the key-gate candidate list — the
    OraP modified scheme uses this to keep the response-flop cones free of
    key gates (so response streams are key-independent at design time).
    """
    if config.control_width < 2:
        raise LockingError("control_width must be >= 2")
    if config.key_width < config.control_width:
        raise LockingError("key_width must be >= control_width")
    n_gates = config.resolved_n_key_gates()
    with telemetry.span("locking.insert", key_gates=n_gates):
        rng = _as_rng(rng)
        original = netlist.copy()
        locked = netlist.copy(f"{netlist.name}_wll")

        # choose target nets
        if config.target_strategy == "impact":
            from .fll import rank_nets_by_fault_impact

            ranking = rank_nets_by_fault_impact(locked)
            candidates = [n for n, _ in ranking]
        elif config.target_strategy == "random":
            candidates = [
                n for n in locked.nets if not locked.gate(n).gtype.is_source
            ]
            rng.shuffle(candidates)
        else:
            raise LockingError(f"unknown target_strategy {config.target_strategy!r}")
        if exclude_nets:
            excluded = set(exclude_nets)
            candidates = [n for n in candidates if n not in excluded]
        if len(candidates) < n_gates:
            raise LockingError(
                f"need {n_gates} lockable nets, circuit has {len(candidates)}"
            )
        targets = candidates[:n_gates]

        key_inputs = make_key_inputs(locked, config.key_width, key_prefix)
        correct = {k: rng.randrange(2) for k in key_inputs}

        # deal key inputs to control gates: exhaust all key bits before reuse
        deck: list[str] = []
        while len(deck) < n_gates * config.control_width:
            block = list(key_inputs)
            rng.shuffle(block)
            deck.extend(block)

        key_gates: list[str] = []
        control_gates: list[str] = []
        inverter_of: dict[str, str] = {}  # one shared inverter per key input
        for gi, target in enumerate(targets):
            bits = deck[gi * config.control_width : (gi + 1) * config.control_width]
            # guard against duplicates at a shuffle boundary
            seen: set[str] = set()
            uniq: list[str] = []
            for b in bits:
                if b in seen:
                    replacement = next(
                        k for k in key_inputs if k not in seen and k not in uniq
                    )
                    uniq.append(replacement)
                    seen.add(replacement)
                else:
                    uniq.append(b)
                    seen.add(b)
            bits = uniq
            # control inputs read 1 under the correct key (inverter iff bit==0)
            ctrl_ins: list[str] = []
            for b in bits:
                if correct[b] == 1:
                    ctrl_ins.append(b)
                else:
                    if b not in inverter_of:
                        inv = locked.fresh_name(f"{b}_inv_")
                        locked.add_gate(inv, GateType.NOT, (b,))
                        inverter_of[b] = inv
                    ctrl_ins.append(inverter_of[b])
            use_nand = bool(rng.randrange(2))
            ctrl = locked.fresh_name(f"wll_ctrl{gi}_")
            locked.add_gate(
                ctrl, GateType.NAND if use_nand else GateType.AND, tuple(ctrl_ins)
            )
            control_gates.append(ctrl)
            # NAND control (0 when correct) pairs with XOR; AND (1) with XNOR
            insert_key_gate(locked, target, ctrl, inverted=not use_nand, tag="wll")
            key_gates.append(target)

        return LockedCircuit(
            locked=locked,
            key_inputs=key_inputs,
            correct_key=correct,
            original=original,
            scheme="wll",
            key_gate_nets=key_gates,
            extra={
                "config": config,
                "targets": targets,
                "control_gates": control_gates,
            },
        )
