"""Cycle-accurate model of an OraP-protected chip.

This is the object attacks interact with: it exposes exactly the interface
a tester/attacker has — primary input/output pins, scan-enable, and scan
in/out — and implements the paper's protocol semantics:

* the key register's pulse generators clear it on every scan-enable rising
  edge (entering scan mode locks the chip);
* the key-register cells are scan cells inside the chains (so suppressing
  scan-enable at the stem also kills scan, threat (a));
* unlocking is the multi-cycle reseeding process, optionally co-driven by
  functional flip-flop responses (modified scheme, Fig. 3);
* the one correct response the oracle can ever scan out is the last
  functional capture before scan entry (Sect. II-A) — the model reproduces
  this corner faithfully.

Trojan modifications of Sect. III are modelled by :class:`TrojanHooks`
flags that the threats package sets; the chip then behaves as the
fabricated-with-Trojan chip would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..locking import LockedCircuit
from ..netlist import SequentialCircuit
from .keyregister import KeyRegister
from .schedule import KeySequence


class ChipError(RuntimeError):
    """Protocol misuse (e.g. scan shifting with scan-enable low)."""


class ScanCellKind(enum.Enum):
    """Scan-cell flavour: functional flop or key-register cell."""
    FLOP = "ff"
    KEY = "kr"


@dataclass(frozen=True)
class ScanCell:
    """One position in a scan chain: a functional flop or a key cell."""

    kind: ScanCellKind
    ref: str | int  # flop name, or key-register cell index


@dataclass
class TrojanHooks:
    """Attacker modifications from Sect. III (set by repro.threats).

    Attributes:
        suppress_pulse_cells: threat (a) — per-cell pulse suppression.
        suppress_pulse_all: threat (b) — scan-enable stem to the LFSR cut.
        bypass_key_cells_in_scan: threat (b) — MUXes skip LFSR cells in the
            chains (they hold state and are invisible to shifting).
        shadow_register: threat (c) — shadow register samples the key at
            scan entry and drives the key gates during test.
        freeze_normal_ffs: threat (e) — functional flip-flops hold their
            values (reset/enable suppressed) while set.
    """

    suppress_pulse_cells: frozenset[int] = frozenset()
    suppress_pulse_all: bool = False
    bypass_key_cells_in_scan: bool = False
    shadow_register: bool = False
    freeze_normal_ffs: bool = False


class ProtectedChip:
    """An activated chip implementing the OraP protocol.

    Args:
        design: sequential design whose combinational core is the *locked*
            netlist (key inputs appear among core inputs).
        locked: locking metadata (key inputs, correct key, ...).
        key_register: the OraP key register (LFSR + pulse generators).
        key_sequence: the tamper-proof-memory contents and schedule.
        memory_points: reseed points driven by the memory.
        response_points: reseed points driven by flip-flop responses
            (modified scheme; empty for the basic scheme).
        response_flops: flop names feeding ``response_points``, in order.
        placement: key-cell scan placement, ``"interleaved"`` (the paper's
            countermeasure for threat (b)), ``"head"`` or ``"clustered"``.
        protected: False builds the *unprotected baseline*: a plain key
            register loaded at activation and never cleared — the chip
            every prior oracle-based attack assumes.
        unlock_pi_values: primary-input hold values during unlock
            (default all 0).
        trojan: fabrication-time modifications (threats package).
    """

    def __init__(
        self,
        design: SequentialCircuit,
        locked: LockedCircuit,
        key_register: KeyRegister,
        key_sequence: KeySequence,
        memory_points: Sequence[int],
        response_points: Sequence[int] = (),
        response_flops: Sequence[str] = (),
        placement: str = "interleaved",
        protected: bool = True,
        unlock_pi_values: Mapping[str, int] | None = None,
        trojan: TrojanHooks | None = None,
    ) -> None:
        self.design = design
        self.locked = locked
        self.key_register = key_register
        self.key_sequence = key_sequence
        self.memory_points = tuple(memory_points)
        self.response_points = tuple(response_points)
        self.response_flops = tuple(response_flops)
        self.protected = protected
        self.trojan = trojan or TrojanHooks()
        if len(self.response_points) != len(self.response_flops):
            raise ValueError("response points and flops must pair up")
        key_set = set(locked.key_inputs)
        self.primary_inputs = [
            p for p in design.primary_inputs if p not in key_set
        ]
        self.primary_outputs = list(design.primary_outputs)
        self.unlock_pi_values = {
            p: int(bool((unlock_pi_values or {}).get(p, 0)))
            for p in self.primary_inputs
        }
        if key_register.size != len(locked.key_inputs):
            raise ValueError(
                f"key register size {key_register.size} != "
                f"key width {len(locked.key_inputs)}"
            )
        self._point_index = {
            p: i for i, p in enumerate(key_register.config.reseed_points)
        }
        # runtime state
        self.ff_state: dict[str, int] = design.reset_state()
        self.scan_enable = 0
        self.shadow_state: list[int] | None = None
        self.unlock_ran = False
        self.chains = self._build_chains(placement)
        if self.trojan.suppress_pulse_cells:
            self.key_register.suppress_pulses(
                sorted(self.trojan.suppress_pulse_cells)
            )
        self.reset()

    # ------------------------------------------------------------------ #
    # construction helpers

    def _build_chains(self, placement: str) -> list[list[ScanCell]]:
        base = self.design.scan_chains
        if not base:
            raise ChipError("design has no scan chains")
        chains: list[list[ScanCell]] = [
            [ScanCell(ScanCellKind.FLOP, c) for c in chain.cells]
            for chain in base
        ]
        if not self.protected:
            # conventional chip: the tamper-proof key register is NOT
            # scannable (it would leak the key); only OraP deliberately
            # places its self-clearing LFSR cells in the chains
            return chains
        n_key = self.key_register.size
        key_cells = [ScanCell(ScanCellKind.KEY, i) for i in range(n_key)]
        if placement == "clustered":
            chains[0] = key_cells + chains[0]
        elif placement == "head":
            per = (n_key + len(chains) - 1) // len(chains)
            for ci, chain in enumerate(chains):
                chunk = key_cells[ci * per : (ci + 1) * per]
                chains[ci] = chunk + chain
        elif placement == "interleaved":
            # deal key cells round-robin, then interleave each chain's share
            # ahead of normal flops: k f k f ... (LFSR cells before flops,
            # per the threat-(b) countermeasure)
            shares: list[list[ScanCell]] = [[] for _ in chains]
            for i, kc in enumerate(key_cells):
                shares[i % len(chains)].append(kc)
            for ci, chain in enumerate(chains):
                merged: list[ScanCell] = []
                ki, fi = 0, 0
                share = shares[ci]
                while ki < len(share) or fi < len(chain):
                    if ki < len(share):
                        merged.append(share[ki])
                        ki += 1
                    if fi < len(chain):
                        merged.append(chain[fi])
                        fi += 1
                chains[ci] = merged
        else:
            raise ValueError(f"unknown placement {placement!r}")
        return chains

    # ------------------------------------------------------------------ #
    # key path

    def effective_key_bits(self) -> list[int]:
        """Key values the locked core currently sees."""
        if (
            self.trojan.shadow_register
            and self.shadow_state is not None
            and self.scan_mode_session
        ):
            return list(self.shadow_state)
        return self.key_register.key_bits()

    # ------------------------------------------------------------------ #
    # reset / unlock protocol

    def reset(self) -> None:
        """Power-on reset: flops to 0; the controller pulses scan-enable to
        clear the key register before unlocking (Sect. II)."""
        self.ff_state = self.design.reset_state()
        self.scan_enable = 0
        self.unlock_ran = False
        self.scan_mode_session = False
        self.shadow_state = None
        if self.protected:
            # controller-generated SE pulse 0 -> 1 -> 0 resets the register
            for gen in self.key_register.pulses:
                gen.reset(scan_enable=0)
            self._sense_scan_enable(1)
            self._sense_scan_enable(0)
        else:
            # unprotected baseline: key written straight from memory
            for i, bit in enumerate(self.locked.key_vector()):
                self.key_register.scan_cell_set(i, bit)

    def unlock(self) -> None:
        """Run the multi-cycle unlock process (functional mode).

        For the unprotected baseline this is a no-op (the key is already
        loaded).  For OraP, each cycle pushes the next memory word (or the
        all-zero free-run word) into the LFSR while the circuit operates
        (locked) and, in the modified scheme, feeds response-flop values
        into the response reseed points.
        """
        if not self.protected:
            self.unlock_ran = True
            return
        if self.scan_enable != 0:
            raise ChipError("unlock requires functional mode (scan_enable=0)")
        kr = self.key_register
        kr.begin_unlock()
        n_points = kr.config.n_reseed
        for word in self.key_sequence.word_stream():
            values = self._evaluate_core(self.unlock_pi_values)
            bits = [0] * n_points
            if word is not None:
                for p, b in zip(self.memory_points, word):
                    bits[self._point_index[p]] = int(bool(b))
            for p, flop in zip(self.response_points, self.response_flops):
                bits[self._point_index[p]] ^= self.ff_state[flop]
            kr.unlock_step(bits)
            self._update_flops(values)
        kr.freeze()
        self.unlock_ran = True

    def is_unlocked(self) -> bool:
        """True iff the core currently sees the correct key."""
        return self.effective_key_bits() == list(self.locked.key_vector())

    # ------------------------------------------------------------------ #
    # functional operation

    def functional_cycle(self, pi_values: Mapping[str, int]) -> dict[str, int]:
        """One functional clock; returns primary-output pin values."""
        if self.scan_enable != 0:
            raise ChipError("functional_cycle requires scan_enable=0")
        values = self._evaluate_core(pi_values)
        self._update_flops(values)
        return {o: values[o] for o in self.primary_outputs}

    def observe_outputs(self, pi_values: Mapping[str, int]) -> dict[str, int]:
        """Combinational PO values for the current state (no clock)."""
        values = self._evaluate_core(pi_values)
        return {o: values[o] for o in self.primary_outputs}

    def _evaluate_core(self, pi_values: Mapping[str, int]) -> dict[str, int]:
        assignment: dict[str, int] = {}
        for p in self.primary_inputs:
            assignment[p] = int(bool(pi_values.get(p, 0)))
        for name, ff in ((f.name, f) for f in self.design.flops):
            assignment[ff.q] = self.ff_state[name]
        key_bits = self.effective_key_bits()
        for k, b in zip(self.locked.key_inputs, key_bits):
            assignment[k] = b
        return self.design.core.evaluate(assignment)

    def _update_flops(self, values: Mapping[str, int]) -> None:
        if self.trojan.freeze_normal_ffs:
            return
        for ff in self.design.flops:
            self.ff_state[ff.name] = values[ff.d]

    # ------------------------------------------------------------------ #
    # scan protocol

    def _sense_scan_enable(self, level: int) -> None:
        rising = self.scan_enable == 0 and level == 1
        if rising and self.trojan.shadow_register and self.shadow_state is None:
            # shadow latches the key register once, just before the first
            # pulse clears it (a one-shot capture in the Trojan payload)
            self.shadow_state = self.key_register.key_bits()
        if not (self.protected and self.trojan.suppress_pulse_all):
            if self.protected:
                self.key_register.sense_scan_enable(level)
        self.scan_enable = level

    def set_scan_enable(self, level: int) -> None:
        """Drive the scan-enable level (edges reach the pulse generators)."""
        level = int(bool(level))
        if level == 1:
            self.scan_mode_session = True
        self._sense_scan_enable(level)

    def enter_scan_mode(self) -> None:
        """Raise scan-enable (fires the key-register clear pulses)."""
        self.set_scan_enable(1)

    def leave_scan_mode(self) -> None:
        """Drop scan-enable and end the scan session."""
        self.set_scan_enable(0)
        self.scan_mode_session = False

    def scan_shift_cycle(
        self, scan_in_bits: Mapping[int, int] | None = None
    ) -> dict[int, int]:
        """One shift clock over every chain (chain index -> in/out bit)."""
        if self.scan_enable != 1:
            raise ChipError("scan shifting requires scan_enable=1")
        return self._shift(self._visible_chains(), scan_in_bits or {})

    def _visible_chains(self) -> list[list[ScanCell]]:
        """The cells each chain shifts through: all of them, or the
        flops alone while a Trojan bypasses the key cells."""
        if not self.trojan.bypass_key_cells_in_scan:
            return self.chains
        return [
            [c for c in chain if c.kind is not ScanCellKind.KEY]
            for chain in self.chains
        ]

    def _shift(
        self, visible: list[list[ScanCell]], scan_in_bits: Mapping[int, int]
    ) -> dict[int, int]:
        """One shift clock over ``visible`` (see :meth:`_visible_chains`).

        Every stored bit is already 0/1, so only the scan-in bits are
        normalised."""
        flops = self.ff_state
        keys = self.key_register.lfsr.state
        outs: dict[int, int] = {}
        for ci, cells in enumerate(visible):
            prev = int(bool(scan_in_bits.get(ci, 0)))
            for cell in cells:
                store = flops if cell.kind is ScanCellKind.FLOP else keys
                cur = store[cell.ref]  # type: ignore[index]
                store[cell.ref] = prev  # type: ignore[index]
                prev = cur
            outs[ci] = prev
        return outs

    def scan_chain_cells(self) -> list[list[ScanCell]]:
        """Copy of the unified scan-chain cell lists."""
        return [list(c) for c in self.chains]

    def scan_load(self, target: Mapping[str, int]) -> None:
        """Shift a full state in.  Keys: flop names, and/or ``"kr<i>"`` for
        key cells (attacker-chosen key-register contents)."""
        if self.scan_enable != 1:
            raise ChipError("scan load requires scan_enable=1")
        visible = self._visible_chains()
        depth = max(map(len, visible), default=0)
        for cycle in range(depth):
            # after `depth` shifts, cell i holds the bit entered at
            # cycle (depth - 1 - i); shorter chains load last
            idx = depth - 1 - cycle
            bits = {
                ci: self._target_bit(cells[idx], target) if idx < len(cells) else 0
                for ci, cells in enumerate(visible)
            }
            self._shift(visible, bits)

    @staticmethod
    def _target_bit(cell: ScanCell, target: Mapping[str, int]) -> int:
        if cell.kind is ScanCellKind.FLOP:
            return int(bool(target.get(cell.ref, 0)))  # type: ignore[arg-type]
        return int(bool(target.get(f"kr{cell.ref}", 0)))

    def scan_unload(self) -> dict[str, int]:
        """Shift the full state out; returns observed bits keyed by flop
        name / ``"kr<i>"``.  Zeros shift in behind."""
        if self.scan_enable != 1:
            raise ChipError("scan unload requires scan_enable=1")
        visible = self._visible_chains()
        depth = max(map(len, visible), default=0)
        streams: list[list[int]] = [[] for _ in visible]
        for _ in range(depth):
            for ci, bit in self._shift(visible, {}).items():
                streams[ci].append(bit)
        observed: dict[str, int] = {}
        for stream, cells in zip(streams, visible):
            for bit, cell in zip(stream, reversed(cells)):
                if cell.kind is ScanCellKind.FLOP:
                    observed[cell.ref] = bit  # type: ignore[index]
                else:
                    observed[f"kr{cell.ref}"] = bit
        return observed

    def scan_capture(self, pi_values: Mapping[str, int]) -> None:
        """Capture clock: scan-enable low for one functional cycle, then
        high again (which pulses the key-register clear, per the design)."""
        if self.scan_enable != 1:
            raise ChipError("capture protocol starts from scan mode")
        self._sense_scan_enable(0)
        values = self._evaluate_core(pi_values)
        # capture updates every scan cell: flops take D; key cells, being
        # special-purpose, hold (their functional update is the disabled
        # LFSR shift)
        self._update_flops(values)
        self._last_capture_outputs = {
            o: values[o] for o in self.primary_outputs
        }
        self._sense_scan_enable(1)

    def oracle_query(
        self, pi_values: Mapping[str, int], state: Mapping[str, int]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """The tester's scan-in / capture / scan-out transaction.

        Returns ``(primary_outputs_during_capture, captured_state)``.
        This is the oracle access every oracle-based attack assumes.
        """
        if self.scan_enable == 0:
            self.enter_scan_mode()
        self.scan_load(state)
        self.scan_capture(pi_values)
        observed = self.scan_unload()
        po = dict(self._last_capture_outputs)
        captured = {
            k: v for k, v in observed.items() if not k.startswith("kr")
        }
        return po, captured
