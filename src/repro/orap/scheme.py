"""Assembling an OraP-protected design (paper Figs. 1 and 3).

:func:`protect` takes an unlocked sequential design, applies a
high-corruptibility locking scheme (WLL by default) to its combinational
core, builds the OraP key register, plans the secret key sequence, and
returns a :class:`OraPDesign` with both the protected chip and the
unprotected-baseline chip that legacy attacks assume.

Design-time planning
--------------------
Basic scheme: the key sequence is solved directly over GF(2) so the LFSR's
final state equals the locking key.

Modified scheme (Fig. 3): half the reseeding points are driven by
functional flip-flop responses *of the still-locked circuit*.  Planning
requires those responses to be known at design time; we follow the design
guideline of selecting response flops whose sequential fan-in cone contains
no key gates (enforced via WLL's ``exclude_nets``), so the response stream
is a deterministic function of the reset state and the unlock-time input
hold values.  The stream is then a known disturbance in the GF(2) solve.
An attacker does not know the key sequence either way; freezing the flops
(threat e) corrupts the stream and the unlock fails, which is the property
the modification exists to provide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .. import telemetry
from ..locking import LockedCircuit, WLLConfig, lock_weighted
from ..netlist import FlipFlop, Netlist, SequentialCircuit
from .chip import ProtectedChip, TrojanHooks
from .keyregister import KeyRegister
from .lfsr import LFSRConfig
from .schedule import KeySequence, PlanningError, ReseedSchedule, plan_key_sequence


@dataclass(frozen=True)
class OraPConfig:
    """Parameters of the OraP protection layer.

    Attributes:
        variant: ``"basic"`` (Fig. 1) or ``"modified"`` (Fig. 3).
        n_seeds: number of memory words in the key sequence.
        max_gap: maximum random free-run cycles between seeds.
        reseed_points: LFSR cells with reseeding XORs (default: all).
        taps: characteristic-polynomial taps (default: every 8 cells).
        n_response_points: modified scheme only — how many reseed points
            the flip-flop responses drive (default: half, interleaved with
            the memory-driven points, as the paper prescribes).
        placement: key-cell scan placement ("interleaved" is the threat-(b)
            countermeasure; "clustered"/"head" exist for the ablation).
        n_scan_chains: scan chains to build if the design has none.
        planning_attempts: schedule re-randomizations before giving up.
    """

    variant: str = "basic"
    n_seeds: int = 4
    max_gap: int = 3
    reseed_points: tuple[int, ...] = ()
    taps: tuple[int, ...] = ()
    n_response_points: int | None = None
    placement: str = "interleaved"
    n_scan_chains: int = 1
    planning_attempts: int = 10


@dataclass
class OraPDesign:
    """A fully protected design plus the artifacts experiments need."""

    chip: ProtectedChip
    locked: LockedCircuit
    design: SequentialCircuit
    lfsr_config: LFSRConfig
    key_sequence: KeySequence
    memory_points: tuple[int, ...]
    response_points: tuple[int, ...]
    response_flops: tuple[str, ...]
    config: OraPConfig
    unlock_pi_values: dict[str, int] = field(default_factory=dict)

    def build_chip(
        self, protected: bool = True, trojan: TrojanHooks | None = None
    ) -> ProtectedChip:
        """A fresh chip instance (protected or unprotected baseline)."""
        return ProtectedChip(
            design=self.design,
            locked=self.locked,
            key_register=KeyRegister(self.lfsr_config),
            key_sequence=self.key_sequence,
            memory_points=self.memory_points,
            response_points=self.response_points,
            response_flops=self.response_flops,
            placement=self.config.placement,
            protected=protected,
            unlock_pi_values=self.unlock_pi_values,
            trojan=trojan,
        )

    def baseline_chip(self) -> ProtectedChip:
        """The unprotected chip legacy oracle-based attacks assume."""
        return self.build_chip(protected=False)

    def overhead_gates(self) -> dict[str, int]:
        """OraP structural gate overhead (Table I accounting)."""
        return KeyRegister(self.lfsr_config).gate_overhead()


def sequential_key_taint(
    design: SequentialCircuit, sources: Sequence[str]
) -> set[str]:
    """Nets (and transitively, flops) reachable from ``sources`` across
    clock cycles — the sequential fan-out closure.

    Used inversely below: a flop is a safe response tap iff it is *not* in
    the taint set of the key inputs.
    """
    core = design.core
    d_of = {ff.d: ff for ff in design.flops}
    q_of_flop = {ff.name: ff.q for ff in design.flops}
    tainted_nets: set[str] = set()
    frontier = [s for s in sources if core.has_net(s)]
    while frontier:
        new_nets = core.transitive_fanout(frontier) - tainted_nets
        tainted_nets |= new_nets
        frontier = []
        for net in new_nets:
            ff = d_of.get(net)
            if ff is not None and q_of_flop[ff.name] not in tainted_nets:
                frontier.append(q_of_flop[ff.name])
    return tainted_nets


def closed_fanin_cone(design: SequentialCircuit, flops: Sequence[str]) -> set[str]:
    """Nets in the sequential (multi-cycle) fan-in cone of the given flops."""
    core = design.core
    q_to_flop = {ff.q: ff for ff in design.flops}
    cone: set[str] = set()
    frontier = [design.flop(f).d for f in flops]
    while frontier:
        new = core.transitive_fanin(frontier) - cone
        cone |= new
        frontier = []
        for net in new:
            ff = q_to_flop.get(net)
            if ff is not None and ff.d not in cone:
                frontier.append(ff.d)
    return cone


def select_response_flops(
    design: SequentialCircuit, count: int
) -> tuple[list[str], set[str]]:
    """Pick ``count`` response flops with the smallest sequential cones.

    Returns ``(flop_names, union_of_their_cones)``; the cone set is handed
    to the locker as ``exclude_nets`` so the responses stay key-free.
    """
    sized = sorted(
        ((len(closed_fanin_cone(design, [ff.name])), ff.name) for ff in design.flops),
    )
    if len(sized) < count:
        raise PlanningError(
            f"modified OraP needs {count} response flops, design has {len(sized)}"
        )
    chosen = [name for _, name in sized[:count]]
    cone = closed_fanin_cone(design, chosen)
    return chosen, cone


def simulate_response_stream(
    design: SequentialCircuit,
    locked: LockedCircuit,
    response_flops: Sequence[str],
    n_cycles: int,
    pi_values: Mapping[str, int],
) -> list[list[int]]:
    """Response-flop values over the unlock cycles (reset start, PIs held).

    The flops are key-free by construction, so the key inputs are pinned to
    zero without affecting the result.
    """
    state = design.reset_state()
    stream: list[list[int]] = []
    assignment_base = dict(pi_values)
    for k in locked.key_inputs:
        assignment_base[k] = 0
    for _ in range(n_cycles):
        stream.append([state[f] for f in response_flops])
        assignment = dict(assignment_base)
        for ff in design.flops:
            assignment[ff.q] = state[ff.name]
        values = design.core.evaluate(assignment)
        state = {ff.name: values[ff.d] for ff in design.flops}
    return stream


def wrap_combinational(
    netlist: Netlist, n_flops: int, name: str | None = None
) -> SequentialCircuit:
    """Turn a combinational netlist into a sequential design for the chip
    model: the last ``n_flops`` inputs become flop outputs and the last
    ``n_flops`` outputs become flop inputs (a feedback register bank).

    This models the full-scan view in reverse: the paper's benchmarks are
    the combinational parts of sequential circuits, so the chip model needs
    the flops back.
    """
    if n_flops < 1:
        raise ValueError("n_flops must be >= 1")
    if n_flops >= len(netlist.inputs) or n_flops >= len(netlist.outputs):
        raise ValueError("n_flops must be smaller than both I/O counts")
    core = netlist.copy(name or f"{netlist.name}_seq")
    circuit = SequentialCircuit(core, name=core.name)
    q_nets = core.inputs[-n_flops:]
    d_nets = core.outputs[-n_flops:]
    for i, (q, d) in enumerate(zip(q_nets, d_nets)):
        circuit.add_flop(FlipFlop(f"ff{i}", d=d, q=q))
    return circuit


def protect(
    design: SequentialCircuit,
    locking: LockedCircuit
    | Callable[..., LockedCircuit]
    | None = None,
    orap: OraPConfig | None = None,
    wll: WLLConfig | None = None,
    rng: random.Random | int | None = 0,
    unlock_pi_values: Mapping[str, int] | None = None,
) -> OraPDesign:
    """Protect a sequential design with OraP + a combinational locker.

    Args:
        design: unlocked design (scan chains are built if absent).
        locking: a pre-made :class:`LockedCircuit` over ``design.core``
            (basic variant only — the modified variant must control target
            exclusion), or a callable ``f(core, exclude_nets, rng)``; by
            default WLL per ``wll``.
        orap: OraP parameters.
        wll: WLL parameters when ``locking`` is None (default: key width 32,
            3-input control gates).
        rng: seed or Random for all secret draws.
        unlock_pi_values: primary-input hold values during unlock.

    Span ``orap.protect`` (attrs ``variant``, ``key_width``) wraps every
    call, its locking included.
    """
    orap = orap or OraPConfig()
    with telemetry.span("orap.protect", variant=orap.variant) as span:
        protected = _protect(design, locking, orap, wll, rng, unlock_pi_values)
        span.set(key_width=len(protected.locked.key_inputs))
    return protected


def _protect(
    design: SequentialCircuit,
    locking: LockedCircuit | Callable[..., LockedCircuit] | None,
    orap: OraPConfig,
    wll: WLLConfig | None,
    rng: random.Random | int | None,
    unlock_pi_values: Mapping[str, int] | None,
) -> OraPDesign:
    """:func:`protect`'s body, inside its span."""
    rng = rng if isinstance(rng, random.Random) else random.Random(rng)
    if orap.variant not in ("basic", "modified"):
        raise ValueError(f"unknown OraP variant {orap.variant!r}")
    if not design.scan_chains:
        design.build_scan_chains(orap.n_scan_chains)

    # ------------------------------------------------------------------ #
    # 1. response-flop selection (modified) and core locking
    response_flops: list[str] = []
    exclude: set[str] = set()
    lfsr_size_hint = wll.key_width if wll is not None else 32

    def default_locker(core: Netlist, exclude_nets: set[str], r: random.Random) -> LockedCircuit:
        cfg = wll or WLLConfig(key_width=32, control_width=3)
        return lock_weighted(core, cfg, rng=r, exclude_nets=exclude_nets)

    if isinstance(locking, LockedCircuit):
        if orap.variant == "modified":
            raise ValueError(
                "modified OraP must lock internally (response-cone exclusion); "
                "pass a locking callable or None"
            )
        locked = locking
        lfsr_size = len(locked.key_inputs)
    else:
        locker = locking or default_locker
        if orap.variant == "modified":
            # decide response count from the eventual reseed-point split
            size_guess = lfsr_size_hint
            points_guess = orap.reseed_points or tuple(range(size_guess))
            n_resp = orap.n_response_points or len(points_guess) // 2
            response_flops, exclude = select_response_flops(design, n_resp)
        locked = locker(design.core, exclude, rng)
        lfsr_size = len(locked.key_inputs)

    # swap the locked core into a fresh sequential view (same flops/chains)
    locked_design = SequentialCircuit(
        locked.locked, name=f"{design.name}_orap"
    )
    for ff in design.flops:
        locked_design.add_flop(ff)
    locked_design.build_scan_chains(
        len(design.scan_chains),
        order=[c for chain in design.scan_chains for c in chain.cells],
    )
    locked_design.validate()

    # ------------------------------------------------------------------ #
    # 2. LFSR structure and reseed-point split
    lfsr_cfg = LFSRConfig(
        size=lfsr_size,
        taps=orap.taps,
        reseed_points=orap.reseed_points or tuple(range(lfsr_size)),
    )
    points = list(lfsr_cfg.reseed_points)
    if orap.variant == "modified":
        n_resp = len(response_flops)
        # interleave: responses on every other point (paper guideline)
        response_points = tuple(points[1::2][:n_resp])
        if len(response_points) < n_resp:
            response_flops = response_flops[: len(response_points)]
        memory_points = tuple(p for p in points if p not in set(response_points))
    else:
        response_points = ()
        memory_points = tuple(points)

    pi_hold = {
        p: int(bool((unlock_pi_values or {}).get(p, 0)))
        for p in locked_design.primary_inputs
        if p not in set(locked.key_inputs)
    }

    # ------------------------------------------------------------------ #
    # 3. plan the key sequence (retry across randomized schedules)
    target = list(locked.key_vector())
    last_error: PlanningError | None = None
    key_sequence: KeySequence | None = None
    for attempt in range(orap.planning_attempts):
        schedule = ReseedSchedule.randomized(
            n_seeds=orap.n_seeds + attempt // 3,  # widen if repeatedly stuck
            max_gap=orap.max_gap,
            rng=random.Random(rng.randrange(2**31)),
        )
        if orap.variant == "modified":
            stream = simulate_response_stream(
                locked_design, locked, response_flops, schedule.n_cycles, pi_hold
            )
        else:
            stream = None
        try:
            key_sequence = plan_key_sequence(
                lfsr_cfg,
                schedule,
                target,
                memory_points=memory_points,
                response_stream=stream,
                response_points=response_points,
                rng=random.Random(rng.randrange(2**31)),
            )
            break
        except PlanningError as exc:
            last_error = exc
    if key_sequence is None:
        raise PlanningError(
            f"could not plan a key sequence after {orap.planning_attempts} "
            f"schedules: {last_error}"
        )

    orap_design = OraPDesign(
        chip=None,  # type: ignore[arg-type]  # filled below via build_chip
        locked=locked,
        design=locked_design,
        lfsr_config=lfsr_cfg,
        key_sequence=key_sequence,
        memory_points=memory_points,
        response_points=response_points,
        response_flops=tuple(response_flops),
        config=orap,
        unlock_pi_values=pi_hold,
    )
    orap_design.chip = orap_design.build_chip(protected=True)
    return orap_design
