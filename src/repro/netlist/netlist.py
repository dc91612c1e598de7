"""Combinational netlist container.

A :class:`Netlist` is a DAG of named nets.  Every net is driven by exactly
one :class:`~repro.netlist.gates.Gate` (primary inputs are gates of type
``INPUT``).  Primary outputs are a designated subset of net names; a net may
be an output and still feed other gates.

The class keeps derived structures (topological order, fanout map, levels)
in lazily-built caches that are invalidated on mutation.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gates import Gate, GateType


_AND, _NAND, _OR, _NOR = GateType.AND, GateType.NAND, GateType.OR, GateType.NOR
_NOT, _BUF, _XOR, _XNOR = GateType.NOT, GateType.BUF, GateType.XOR, GateType.XNOR
_MUX, _CONST0, _CONST1 = GateType.MUX, GateType.CONST0, GateType.CONST1

#: (net order, (index, name) per input, (gtype, index, fan-in) per gate)
_EvalPlan = tuple[tuple[str, ...], tuple[tuple[int, str], ...], tuple[tuple, ...]]


class NetlistError(ValueError):
    """Structural error in a netlist (cycle, dangling net, duplicate...)."""


class Netlist:
    """A combinational gate-level circuit.

    Args:
        name: circuit name (used by writers and reports).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._gates: dict[str, Gate] = {}
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._dirty = True
        self._topo: list[str] | None = None
        self._fanout: dict[str, list[str]] | None = None
        self._levels: dict[str, int] | None = None
        self._plan: _EvalPlan | None = None
        #: memo slot for :func:`repro.sim.optape.netlist_fingerprint`;
        #: cleared on every mutation like the other derived caches
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # construction

    def add_input(self, name: str) -> str:
        """Declare a primary-input net."""
        self._add_gate(Gate(name, GateType.INPUT))
        self._inputs.append(name)
        return name

    def add_gate(
        self, name: str, gtype: GateType | str, fanin: Sequence[str] = ()
    ) -> str:
        """Add a gate driving net ``name``.

        Fan-in nets do not need to exist yet; :meth:`validate` (or any
        derived-structure access) checks for dangling references.
        """
        if isinstance(gtype, str):
            gtype = GateType(gtype)
        if gtype is GateType.INPUT:
            return self.add_input(name)
        self._add_gate(Gate(name, gtype, tuple(fanin)))
        return name

    def _add_gate(self, gate: Gate) -> None:
        if gate.name in self._gates:
            raise NetlistError(f"duplicate driver for net {gate.name!r}")
        self._gates[gate.name] = gate
        self._invalidate()

    def set_outputs(self, names: Iterable[str]) -> None:
        """Replace the primary-output list."""
        self._outputs = list(names)
        self._invalidate()

    def add_output(self, name: str) -> None:
        """Register an output literal under a name."""
        self._outputs.append(name)
        self._invalidate()

    def remove_gate(self, name: str) -> None:
        """Remove a gate (the caller must repair fanout references)."""
        if name not in self._gates:
            raise NetlistError(f"no such net {name!r}")
        gate = self._gates.pop(name)
        if gate.gtype is GateType.INPUT:
            self._inputs.remove(name)
        if name in self._outputs:
            self._outputs = [o for o in self._outputs if o != name]
        self._invalidate()

    def replace_gate(
        self, name: str, gtype: GateType | str, fanin: Sequence[str]
    ) -> None:
        """Replace the driver of an existing net, keeping its fanout."""
        if name not in self._gates:
            raise NetlistError(f"no such net {name!r}")
        if isinstance(gtype, str):
            gtype = GateType(gtype)
        old = self._gates[name]
        if old.gtype is GateType.INPUT and gtype is not GateType.INPUT:
            self._inputs.remove(name)
        if old.gtype is not GateType.INPUT and gtype is GateType.INPUT:
            self._inputs.append(name)
        self._gates[name] = Gate(name, gtype, tuple(fanin))
        self._invalidate()

    def rename_net(self, old: str, new: str) -> None:
        """Rename a net everywhere (driver, fan-ins, output list)."""
        if old not in self._gates:
            raise NetlistError(f"no such net {old!r}")
        if new in self._gates:
            raise NetlistError(f"net {new!r} already exists")
        gate = self._gates.pop(old)
        self._gates[new] = Gate(new, gate.gtype, gate.fanin)
        for g in list(self._gates.values()):
            if old in g.fanin:
                self._gates[g.name] = Gate(
                    g.name, g.gtype, tuple(new if f == old else f for f in g.fanin)
                )
        self._inputs = [new if n == old else n for n in self._inputs]
        self._outputs = [new if n == old else n for n in self._outputs]
        self._invalidate()

    def fresh_name(self, prefix: str = "n") -> str:
        """Return a net name not currently in use."""
        i = len(self._gates)
        while f"{prefix}{i}" in self._gates:
            i += 1
        return f"{prefix}{i}"

    def copy(self, name: str | None = None) -> "Netlist":
        """Independent copy (optionally renamed).

        The copy shares the source's :class:`Gate` objects: no gate is
        ever changed in place (every mutation installs a new one), so
        only the containers are copied.  The content hash excludes the
        name, so the copy carries the source's memoized fingerprint.
        """
        out = Netlist(name or self.name)
        out._gates = dict(self._gates)
        out._inputs = list(self._inputs)
        out._outputs = list(self._outputs)
        out._fingerprint = self._fingerprint
        return out

    # ------------------------------------------------------------------ #
    # queries

    @property
    def inputs(self) -> list[str]:
        """Primary-input names, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[str]:
        """Primary-output names, in declaration order."""
        return list(self._outputs)

    @property
    def nets(self) -> list[str]:
        """All net names, in insertion order."""
        return list(self._gates)

    def gate(self, name: str) -> Gate:
        """The gate driving a net (raises NetlistError if absent)."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no such net {name!r}") from None

    def has_net(self, name: str) -> bool:
        """True if a net with this name exists."""
        return name in self._gates

    def gates(self) -> Iterator[Gate]:
        """Iterate over all gates."""
        return iter(self._gates.values())

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def num_gates(self, count_inverters: bool = True) -> int:
        """Number of logic gates (excluding inputs and constants).

        With ``count_inverters=False``, NOT and BUF gates are excluded —
        this matches the gate-count convention of the paper's Table I
        ("number of gates without inverters").
        """
        total = 0
        for g in self._gates.values():
            if g.gtype.is_source:
                continue
            if not count_inverters and g.gtype in (GateType.NOT, GateType.BUF):
                continue
            total += 1
        return total

    # ------------------------------------------------------------------ #
    # derived structure

    def _invalidate(self) -> None:
        self._dirty = True
        self._topo = None
        self._fanout = None
        self._levels = None
        self._plan = None
        self._fingerprint = None

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling nets, missing outputs,
        or combinational cycles."""
        for g in self._gates.values():
            for f in g.fanin:
                if f not in self._gates:
                    raise NetlistError(
                        f"gate {g.name!r} references undefined net {f!r}"
                    )
        for o in self._outputs:
            if o not in self._gates:
                raise NetlistError(f"output {o!r} is not a defined net")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list[str]:
        """Nets in topological order (fan-ins before gates). Raises on cycles."""
        if self._topo is not None:
            return self._topo
        indeg: dict[str, int] = {}
        fanout: dict[str, list[str]] = {n: [] for n in self._gates}
        for g in self._gates.values():
            indeg[g.name] = 0
        for g in self._gates.values():
            for f in g.fanin:
                if f not in self._gates:
                    raise NetlistError(
                        f"gate {g.name!r} references undefined net {f!r}"
                    )
                indeg[g.name] += 1
                fanout[f].append(g.name)
        queue = deque(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for succ in fanout[n]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._gates):
            stuck = {n for n, d in indeg.items() if d > 0}
            raise NetlistError(
                f"combinational cycle involving {self._one_loop(stuck)[:8]}"
            )
        self._topo = order
        self._fanout = fanout
        return order

    def _one_loop(self, stuck: set[str]) -> list[str]:
        """The nets of one loop among those Kahn's pass left unvisited,
        sorted.  Each of them has an unvisited fan-in, so following
        those fan-ins must revisit a net; nets merely downstream of the
        loop are never on the walk's cycle."""
        seen: dict[str, int] = {}
        path: list[str] = []
        net = min(stuck)
        while net not in seen:
            seen[net] = len(path)
            path.append(net)
            net = next(f for f in self._gates[net].fanin if f in stuck)
        return sorted(path[seen[net]:])

    def fanout_map(self) -> Mapping[str, list[str]]:
        """Map from net name to the list of gates it feeds."""
        if self._fanout is None:
            self.topological_order()
        assert self._fanout is not None
        return self._fanout

    def levels(self) -> Mapping[str, int]:
        """Logic level of each net: inputs/constants at 0, gates at
        1 + max(level of fan-ins)."""
        if self._levels is not None:
            return self._levels
        lev: dict[str, int] = {}
        for n in self.topological_order():
            g = self._gates[n]
            if g.gtype.is_source:
                lev[n] = 0
            else:
                lev[n] = 1 + max(lev[f] for f in g.fanin)
        self._levels = lev
        return lev

    def depth(self) -> int:
        """Maximum logic level over the primary outputs (circuit delay in
        levels, the paper's delay metric)."""
        lev = self.levels()
        if not self._outputs:
            return max(lev.values(), default=0)
        return max(lev[o] for o in self._outputs)

    def transitive_fanin(self, roots: Iterable[str]) -> set[str]:
        """All nets in the input cone of ``roots`` (inclusive)."""
        seen: set[str] = set()
        stack = [r for r in roots]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(self.gate(n).fanin)
        return seen

    def transitive_fanout(self, roots: Iterable[str]) -> set[str]:
        """All nets in the output cone of ``roots`` (inclusive)."""
        fan = self.fanout_map()
        seen: set[str] = set()
        stack = [r for r in roots]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(fan[n])
        return seen

    # ------------------------------------------------------------------ #
    # evaluation (scalar reference semantics; fast path lives in repro.sim)

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Evaluate every net given primary-input values.

        This is the scalar reference evaluator (truthy input values count
        as 1); use :mod:`repro.sim` for bulk simulation.  Gates run from
        a cached plan over a flat value list, with the semantics of
        :func:`~repro.netlist.gates.evaluate_gate`.
        """
        order, inputs, gates = self._evaluation_plan()
        vals = [0] * len(order)
        for i, n in inputs:
            if n not in assignment:
                raise NetlistError(f"missing value for input {n!r}")
            vals[i] = int(bool(assignment[n]))
        for t, i, f in gates:
            if t is _AND:
                vals[i] = 0 if 0 in f(vals) else 1
            elif t is _NAND:
                vals[i] = 1 if 0 in f(vals) else 0
            elif t is _OR:
                vals[i] = 1 if 1 in f(vals) else 0
            elif t is _NOR:
                vals[i] = 0 if 1 in f(vals) else 1
            elif t is _NOT:
                vals[i] = 1 - vals[f]
            elif t is _XOR:
                vals[i] = sum(f(vals)) & 1
            elif t is _XNOR:
                vals[i] = 1 - (sum(f(vals)) & 1)
            elif t is _BUF:
                vals[i] = vals[f]
            elif t is _MUX:
                s, d0, d1 = f(vals)
                vals[i] = d1 if s else d0
            elif t is _CONST1:
                vals[i] = 1
            elif t is _CONST0:
                vals[i] = 0
        return dict(zip(order, vals))

    def _evaluation_plan(self) -> _EvalPlan:
        """``(order, inputs, gates)`` for :meth:`evaluate`, cached.

        ``inputs`` holds ``(index, name)`` per primary input; ``gates``
        holds ``(gtype, out index, fan-in)`` per gate, where fan-in is
        the net index of a NOT/BUF pin and an ``itemgetter`` of the
        fan-in indices otherwise.  Sources precede every gate in
        topological order, so reading all inputs first raises the same
        missing-input error as a walk in order.
        """
        if self._plan is not None:
            return self._plan
        order = self.topological_order()
        index = {n: i for i, n in enumerate(order)}
        inputs: list[tuple[int, str]] = []
        gates: list[tuple] = []
        for i, n in enumerate(order):
            g = self._gates[n]
            if g.gtype is GateType.INPUT:
                inputs.append((i, n))
                continue
            fins = [index[f] for f in g.fanin]
            if g.gtype in (GateType.NOT, GateType.BUF):
                gates.append((g.gtype, i, fins[0]))
            elif g.gtype.is_source:
                gates.append((g.gtype, i, None))
            else:
                # AND..MUX have at least two pins: itemgetter gives a tuple
                gates.append((g.gtype, i, itemgetter(*fins)))
        self._plan = (tuple(order), tuple(inputs), tuple(gates))
        return self._plan

    def evaluate_outputs(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Evaluate and return only the primary-output values."""
        values = self.evaluate(assignment)
        return {o: values[o] for o in self._outputs}

    # ------------------------------------------------------------------ #
    # cleanup passes

    def prune_dangling(self, keep: Iterable[str] = ()) -> int:
        """Remove gates that feed neither an output nor a kept net.

        Returns the number of gates removed.  Primary inputs are never
        removed (the interface is part of the contract).
        """
        keep_set = set(keep) | set(self._outputs)
        live = self.transitive_fanin(k for k in keep_set if k in self._gates)
        removed = 0
        for n in list(self._gates):
            g = self._gates[n]
            if n not in live and g.gtype is not GateType.INPUT:
                del self._gates[n]
                removed += 1
        if removed:
            self._invalidate()
        return removed

    def map_nets(self, fn: Callable[[str], str], name: str | None = None) -> "Netlist":
        """Return a copy with every net renamed through ``fn``."""
        out = Netlist(name or self.name)
        for n, g in self._gates.items():
            out._gates[fn(n)] = Gate(fn(n), g.gtype, tuple(fn(f) for f in g.fanin))
        out._inputs = [fn(n) for n in self._inputs]
        out._outputs = [fn(n) for n in self._outputs]
        return out

    def stats(self) -> dict[str, int]:
        """Summary statistics used by reports and benches."""
        by_type: dict[str, int] = {}
        for g in self._gates.values():
            by_type[g.gtype.value] = by_type.get(g.gtype.value, 0) + 1
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "nets": len(self._gates),
            "gates": self.num_gates(),
            "gates_no_inv": self.num_gates(count_inverters=False),
            "depth": self.depth(),
            **{f"n_{k}": v for k, v in sorted(by_type.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Netlist({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, nets={len(self._gates)})"
        )
