"""Unit tests for the combinational netlist container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import GateType, Netlist, NetlistError, evaluate_gate
from repro.sat.tseitin import ClauseTemplate
from repro.sim import BitSimulator, compile_engine, netlist_fingerprint


@pytest.fixture
def xor_circuit():
    nl = Netlist("x")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("na", GateType.NOT, ["a"])
    nl.add_gate("nb", GateType.NOT, ["b"])
    nl.add_gate("t1", GateType.AND, ["a", "nb"])
    nl.add_gate("t2", GateType.AND, ["na", "b"])
    nl.add_gate("y", GateType.OR, ["t1", "t2"])
    nl.set_outputs(["y"])
    return nl


class TestConstruction:
    def test_duplicate_net_rejected(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(NetlistError):
            nl.add_input("a")
        with pytest.raises(NetlistError):
            nl.add_gate("a", GateType.NOT, ["a"])

    def test_string_gate_type(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("y", "not", ["a"])
        assert nl.gate("y").gtype is GateType.NOT

    def test_add_gate_input_routes_to_add_input(self):
        nl = Netlist()
        nl.add_gate("a", GateType.INPUT)
        assert "a" in nl.inputs

    def test_forward_references_allowed(self, xor_circuit):
        nl = Netlist()
        nl.add_gate("y", GateType.NOT, ["a"])  # 'a' not yet defined
        nl.add_input("a")
        nl.set_outputs(["y"])
        nl.validate()

    def test_validate_catches_dangling(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("y", GateType.AND, ["a", "ghost"])
        nl.set_outputs(["y"])
        with pytest.raises(NetlistError, match="ghost"):
            nl.validate()

    def test_validate_catches_missing_output(self):
        nl = Netlist()
        nl.add_input("a")
        nl.set_outputs(["nope"])
        with pytest.raises(NetlistError):
            nl.validate()

    def test_cycle_detection(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("u", GateType.AND, ["a", "v"])
        nl.add_gate("v", GateType.AND, ["a", "u"])
        nl.set_outputs(["v"])
        with pytest.raises(NetlistError, match="cycle"):
            nl.topological_order()

    def test_cycle_error_names_only_the_loop(self):
        # the loop x <-> y feeds a chain d0 -> d1 -> d2: the chain is
        # never visited either, but it is not part of the loop
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("x", GateType.AND, ["a", "y"])
        nl.add_gate("y", GateType.OR, ["x", "a"])
        nl.add_gate("d0", GateType.NOT, ["y"])
        nl.add_gate("d1", GateType.NOT, ["d0"])
        nl.add_gate("d2", GateType.NOT, ["d1"])
        nl.set_outputs(["d2"])
        with pytest.raises(NetlistError, match=r"\['x', 'y'\]") as info:
            nl.topological_order()
        assert "'d" not in str(info.value)

    def test_fresh_name_unique(self, xor_circuit):
        n1 = xor_circuit.fresh_name()
        assert n1 not in xor_circuit.nets
        xor_circuit.add_gate(n1, GateType.NOT, ["a"])
        n2 = xor_circuit.fresh_name()
        assert n2 != n1


class TestQueries:
    def test_topological_order_respects_edges(self, xor_circuit):
        order = xor_circuit.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for g in xor_circuit.gates():
            for f in g.fanin:
                assert pos[f] < pos[g.name]

    def test_levels_and_depth(self, xor_circuit):
        lev = xor_circuit.levels()
        assert lev["a"] == 0
        assert lev["na"] == 1
        assert lev["t2"] == 2
        assert lev["y"] == 3
        assert xor_circuit.depth() == 3

    def test_fanout_map(self, xor_circuit):
        fan = xor_circuit.fanout_map()
        assert set(fan["a"]) == {"na", "t1"}
        assert fan["y"] == []

    def test_transitive_fanin(self, xor_circuit):
        cone = xor_circuit.transitive_fanin(["t1"])
        assert cone == {"t1", "a", "nb", "b"}

    def test_transitive_fanout(self, xor_circuit):
        cone = xor_circuit.transitive_fanout(["na"])
        assert cone == {"na", "t2", "y"}

    def test_num_gates_conventions(self, xor_circuit):
        assert xor_circuit.num_gates() == 5
        assert xor_circuit.num_gates(count_inverters=False) == 3

    def test_contains_and_len(self, xor_circuit):
        assert "y" in xor_circuit
        assert "zz" not in xor_circuit
        assert len(xor_circuit) == 7

    def test_stats(self, xor_circuit):
        s = xor_circuit.stats()
        assert s["inputs"] == 2
        assert s["outputs"] == 1
        assert s["depth"] == 3
        assert s["n_and"] == 2


class TestEvaluation:
    def test_xor_truth_table(self, xor_circuit):
        for a in (0, 1):
            for b in (0, 1):
                out = xor_circuit.evaluate_outputs({"a": a, "b": b})
                assert out["y"] == a ^ b

    def test_missing_input_raises(self, xor_circuit):
        with pytest.raises(NetlistError):
            xor_circuit.evaluate({"a": 1})

    def test_constants(self):
        nl = Netlist()
        nl.add_gate("one", GateType.CONST1)
        nl.add_gate("zero", GateType.CONST0)
        nl.add_gate("y", GateType.AND, ["one", "zero"])
        nl.set_outputs(["y"])
        assert nl.evaluate_outputs({})["y"] == 0


_LOGIC_TYPES = [t for t in GateType if t is not GateType.INPUT]

#: input values that are not 0/1 but must read as such
_TRUTHY = st.sampled_from([0, 1, 2, -3, True, False, 0.5])


@st.composite
def _random_netlist(draw):
    """Every gate type, fan-in up to 5, fan-ins drawn from earlier nets."""
    nl = Netlist("rand")
    nets = [nl.add_input(f"i{k}") for k in range(draw(st.integers(1, 6)))]
    for k in range(draw(st.integers(1, 24))):
        gtype = draw(st.sampled_from(_LOGIC_TYPES))
        hi = gtype.max_fanin if gtype.max_fanin is not None else 5
        arity = draw(st.integers(gtype.min_fanin, hi))
        fanin = [draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(nl.add_gate(f"g{k}", gtype, fanin))
    outs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4))
    nl.set_outputs(outs)
    return nl


def _walk(nl, assignment):
    """The per-gate reference: evaluate_gate over the topological order."""
    values = {}
    for n in nl.topological_order():
        g = nl.gate(n)
        if g.gtype is GateType.INPUT:
            if n not in assignment:
                raise NetlistError(f"missing value for input {n!r}")
            values[n] = int(bool(assignment[n]))
        else:
            values[n] = evaluate_gate(g.gtype, [values[f] for f in g.fanin])
    return values


def _bitsim(nl, assignment):
    words = {
        i: np.array([1 if assignment[i] else 0], dtype=np.uint64)
        for i in nl.inputs
    }
    sim = BitSimulator(nl)
    values = sim.run(words)
    return {n: int(values[sim.net_index(n)][0] & 1) for n in nl.nets}


class TestIndexedEvaluation:
    """``Netlist.evaluate`` runs a cached plan; it must agree with the
    per-gate walk and the bit-parallel simulator, and the plan must
    follow every mutation."""

    @given(_random_netlist(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_gate_walk_and_bitsim(self, nl, data):
        for _ in range(3):
            asg = {i: data.draw(_TRUTHY) for i in nl.inputs}
            got = nl.evaluate(asg)
            assert list(got) == nl.topological_order()
            assert got == _walk(nl, asg)
            assert got == _bitsim(nl, asg)
            assert all(type(v) is int for v in got.values())
            assert nl.evaluate_outputs(asg) == {o: got[o] for o in nl.outputs}

    @given(_random_netlist(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_missing_input_error(self, nl, data):
        drop = data.draw(st.sampled_from(nl.inputs))
        asg = {i: 1 for i in nl.inputs if i != drop}
        with pytest.raises(NetlistError, match=repr(drop)):
            _walk(nl, asg)
        with pytest.raises(NetlistError, match=repr(drop)):
            nl.evaluate(asg)

    @given(_random_netlist(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_plan_follows_mutations(self, nl, data):
        asg = {i: data.draw(_TRUTHY) for i in nl.inputs}
        nl.evaluate(asg)
        nets = nl.nets
        nl.add_gate("extra", GateType.NAND, [nets[-1], nets[0]])
        assert nl.evaluate(asg) == _walk(nl, asg)
        nl.set_outputs(["extra"])
        assert nl.evaluate_outputs(asg) == {"extra": _walk(nl, asg)["extra"]}
        nl.add_output(nets[0])
        assert list(nl.evaluate_outputs(asg)) == ["extra", nets[0]]
        nl.prune_dangling()
        got = nl.evaluate(asg)
        assert got == _walk(nl, asg)
        assert set(got) == set(nl.nets)
        nl.replace_gate("extra", GateType.XNOR, [nets[0], nets[-1], nets[0]])
        assert nl.evaluate(asg) == _walk(nl, asg)

    def test_loop_raises_from_every_evaluator(self):
        nl = Netlist("loop")
        nl.add_input("a")
        nl.add_gate("x", GateType.AND, ["a", "y"])
        nl.add_gate("y", GateType.OR, ["x", "a"])
        nl.set_outputs(["y"])
        with pytest.raises(NetlistError, match="cycle"):
            nl.evaluate({"a": 1})
        with pytest.raises(NetlistError, match="cycle"):
            compile_engine(nl, cache=False)
        with pytest.raises(NetlistError, match="cycle"):
            ClauseTemplate(nl)


class TestMutation:
    def test_replace_gate_keeps_fanout(self, xor_circuit):
        xor_circuit.replace_gate("y", GateType.AND, ("t1", "t2"))
        assert xor_circuit.gate("y").gtype is GateType.AND
        out = xor_circuit.evaluate_outputs({"a": 1, "b": 0})
        assert out["y"] == 0  # AND(t1=1, t2=0)

    def test_replace_input_with_const(self, xor_circuit):
        xor_circuit.replace_gate("a", GateType.CONST1, ())
        assert "a" not in xor_circuit.inputs
        assert xor_circuit.evaluate_outputs({"b": 0})["y"] == 1

    def test_rename_net_updates_everything(self, xor_circuit):
        xor_circuit.rename_net("t1", "term_one")
        assert "t1" not in xor_circuit
        assert "term_one" in xor_circuit.gate("y").fanin
        assert xor_circuit.evaluate_outputs({"a": 1, "b": 0})["y"] == 1

    def test_rename_output(self, xor_circuit):
        xor_circuit.rename_net("y", "out")
        assert xor_circuit.outputs == ["out"]

    def test_rename_to_existing_rejected(self, xor_circuit):
        with pytest.raises(NetlistError):
            xor_circuit.rename_net("t1", "t2")

    def test_remove_gate(self, xor_circuit):
        xor_circuit.remove_gate("y")
        assert "y" not in xor_circuit
        assert xor_circuit.outputs == []

    def test_copy_is_independent(self, xor_circuit):
        cp = xor_circuit.copy("copy")
        cp.replace_gate("y", GateType.AND, ("t1", "t2"))
        assert xor_circuit.gate("y").gtype is GateType.OR
        assert cp.name == "copy"

    def test_prune_dangling(self, xor_circuit):
        xor_circuit.add_gate("dead", GateType.AND, ["a", "b"])
        removed = xor_circuit.prune_dangling()
        assert removed == 1
        assert "dead" not in xor_circuit
        # inputs are never pruned
        assert set(xor_circuit.inputs) == {"a", "b"}

    def test_prune_keeps_requested(self, xor_circuit):
        xor_circuit.add_gate("keepme", GateType.AND, ["a", "b"])
        removed = xor_circuit.prune_dangling(keep=["keepme"])
        assert removed == 0

    def test_map_nets(self, xor_circuit):
        mapped = xor_circuit.map_nets(lambda n: f"p_{n}")
        assert "p_y" in mapped.outputs
        assert mapped.evaluate_outputs({"p_a": 1, "p_b": 1})["p_y"] == 0


def _snapshot(nl):
    return (
        nl.nets,
        [(g.name, g.gtype, g.fanin) for g in nl.gates()],
        nl.inputs,
        nl.outputs,
    )


class TestSharedGateCopy:
    """``Netlist.copy`` shares the source's gates and fingerprint; every
    mutation of the copy installs new gates and leaves the source alone."""

    def test_copy_shares_gate_objects(self, xor_circuit):
        cp = xor_circuit.copy()
        for net in xor_circuit.nets:
            assert cp.gate(net) is xor_circuit.gate(net)

    def test_renamed_copy_carries_fingerprint(self, xor_circuit):
        fp = netlist_fingerprint(xor_circuit)
        cp = xor_circuit.copy("other")
        assert cp._fingerprint == fp
        assert netlist_fingerprint(cp) == fp
        assert compile_engine(cp) is compile_engine(xor_circuit)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda nl: nl.add_gate("z", GateType.AND, ["a", "b"]),
            lambda nl: nl.replace_gate("y", GateType.AND, ("t1", "t2")),
            lambda nl: nl.rename_net("t1", "term_one"),
            lambda nl: nl.remove_gate("y"),
            lambda nl: nl.set_outputs(["t1"]),
        ],
        ids=["add_gate", "replace_gate", "rename_net", "remove_gate",
             "set_outputs"],
    )
    def test_mutating_copy_leaves_source(self, xor_circuit, mutate):
        fp = netlist_fingerprint(xor_circuit)
        before = _snapshot(xor_circuit)
        cp = xor_circuit.copy()
        mutate(cp)
        assert _snapshot(xor_circuit) == before
        assert netlist_fingerprint(xor_circuit) == fp
        # map_nets(str) rebuilds the netlist, so its digest is a fresh hash
        assert netlist_fingerprint(xor_circuit.map_nets(str)) == fp
        assert netlist_fingerprint(cp) != fp
        assert netlist_fingerprint(cp) == netlist_fingerprint(cp.map_nets(str))
