"""Tests for the strashed-AIG CNF encoder of the SAT attacks and of
equivalence checking."""

import itertools
import random

import pytest

from repro.bench import GeneratorConfig, c17, generate_netlist, ripple_adder
from repro.locking import WLLConfig, lock_random, lock_sarlock, lock_weighted
from repro.netlist import GateType, Netlist
from repro.sat import AIGEncoder, Solver, check_equivalence


class TestAIGEncoder:
    def test_single_copy_matches_circuit(self):
        nl = c17()
        solver = Solver()
        enc = AIGEncoder(solver)
        in_lits = {name: enc.fresh_pi(name) for name in nl.inputs}
        outs = enc.encode_netlist(nl, in_lits)
        out_sat = {o: enc.sat_literal(lit) for o, lit in outs.items()}
        for bits in itertools.product([0, 1], repeat=5):
            assumptions = []
            for name, b in zip(nl.inputs, bits):
                v = enc.pi_var(in_lits[name])
                assumptions.append(v if b else -v)
            res = solver.solve(assumptions=assumptions)
            assert res.sat
            want = nl.evaluate_outputs(dict(zip(nl.inputs, bits)))
            for o in nl.outputs:
                lit = out_sat[o]
                got = res.model[abs(lit)] ^ (lit < 0)
                assert int(got) == want[o], (bits, o)

    def test_constant_inputs_fold(self):
        nl = ripple_adder(3)
        solver = Solver()
        enc = AIGEncoder(solver)
        const = {name: 1 for name in nl.inputs}
        outs = enc.encode_netlist(nl, {}, const_inputs=const)
        want = nl.evaluate_outputs(const)
        for o, lit in outs.items():
            # with all inputs constant, outputs fold to AIG constants
            enc.assert_equals(lit, want[o])
        assert solver.solve().sat  # consistent: all asserts satisfied

    def test_conflicting_constant_assert_unsat(self):
        nl = ripple_adder(2)
        solver = Solver()
        enc = AIGEncoder(solver)
        const = {name: 0 for name in nl.inputs}
        outs = enc.encode_netlist(nl, {}, const_inputs=const)
        # all-zero add: s0 = 0; asserting 1 must be UNSAT
        enc.assert_equals(outs["s0"], 1)
        assert not solver.solve().sat

    def test_shared_key_variables_across_copies(self):
        nl = generate_netlist(
            GeneratorConfig(n_inputs=6, n_outputs=4, n_gates=30, depth=4,
                            seed=3, name="e")
        )
        solver = Solver()
        enc = AIGEncoder(solver)
        shared = {name: enc.fresh_pi(name) for name in nl.inputs}
        o1 = enc.encode_netlist(nl, shared)
        o2 = enc.encode_netlist(nl, shared)
        # identical copies over shared PIs strash to the same literals
        for o in nl.outputs:
            assert o1[o] == o2[o]

    def test_diff_literal_semantics(self):
        solver = Solver()
        enc = AIGEncoder(solver)
        a = enc.fresh_pi("a")
        b = enc.fresh_pi("b")
        d = enc.diff_literal([(a, b)])
        ds = enc.sat_literal(d)
        va, vb = enc.pi_var(a), enc.pi_var(b)
        assert solver.solve(assumptions=[ds, va, -vb]).sat
        assert not solver.solve(assumptions=[ds, va, vb]).sat

    def test_random_copy_equivalence(self):
        """Encoded copy agrees with direct evaluation on random vectors."""
        nl = generate_netlist(
            GeneratorConfig(n_inputs=10, n_outputs=6, n_gates=70, depth=5,
                            seed=5, name="r")
        )
        solver = Solver()
        enc = AIGEncoder(solver)
        in_lits = {name: enc.fresh_pi(name) for name in nl.inputs}
        outs = enc.encode_netlist(nl, in_lits)
        out_sat = {o: enc.sat_literal(ol) for o, ol in outs.items()}
        rng = random.Random(0)
        for _ in range(25):
            asg = {i: rng.randrange(2) for i in nl.inputs}
            assumptions = [
                enc.pi_var(in_lits[i]) if b else -enc.pi_var(in_lits[i])
                for i, b in asg.items()
            ]
            res = solver.solve(assumptions=assumptions)
            assert res.sat
            want = nl.evaluate_outputs(asg)
            for o in nl.outputs:
                lit = out_sat[o]
                if abs(lit) in res.model:
                    got = int(res.model[abs(lit)]) ^ (lit < 0)
                    assert got == want[o]


def _random_netlist(seed, n_inputs):
    """A random netlist over every gate type the strash handles, MUX
    and XOR/XNOR included."""
    rng = random.Random(seed)
    nl = Netlist(f"rnd{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    two = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
           GateType.XOR, GateType.XNOR]
    for g in range(24):
        kind = rng.choice(two + [GateType.MUX, GateType.NOT])
        arity = {GateType.MUX: 3, GateType.NOT: 1}.get(kind, rng.choice([2, 3]))
        nets.append(nl.add_gate(f"g{g}", kind, rng.sample(nets, arity)))
    nl.set_outputs(nets[-4:])
    return nl


def _lock(kind, nl):
    if kind == "plain":
        return nl
    if kind == "rll":
        return lock_random(nl, key_width=3, rng=1).locked
    if kind == "wll":
        return lock_weighted(
            nl, WLLConfig(key_width=3, control_width=3, n_key_gates=2), rng=1
        ).locked
    return lock_sarlock(nl, key_width=3, rng=1).locked


def _recording_solver():
    """A solver whose ``clauses`` attribute lists every clause added."""
    solver = Solver()
    solver.clauses = []
    add = solver.add_clause

    def add_clause(literals):
        solver.clauses.append(list(literals))
        return add(solver.clauses[-1])

    solver.add_clause = add_clause
    return solver


def _assert_exact(enc, nl, in_lits, out_lits):
    """For every input vector, the solver's outputs under the inputs'
    assumptions equal ``Netlist.evaluate`` and no output can flip."""
    solver = enc.solver
    out_sat = {o: enc.sat_literal(lit) for o, lit in out_lits.items()}
    for bits in itertools.product([0, 1], repeat=len(nl.inputs)):
        asg = dict(zip(nl.inputs, bits))
        assumptions = [
            enc.pi_var(in_lits[i]) if b else -enc.pi_var(in_lits[i])
            for i, b in asg.items()
        ]
        res = solver.solve(assumptions=assumptions)
        assert res.sat
        want = nl.evaluate(asg)
        for o, lit in out_sat.items():
            assert int(res.model[abs(lit)] ^ (lit < 0)) == want[o], (asg, o)
            flipped = lit if not want[o] else -lit
            assert not solver.solve(assumptions=[*assumptions, flipped]).sat


class TestITEEncoding:
    """XOR, XNOR and MUX cones get one variable defined as an ITE."""

    @pytest.mark.parametrize(
        "kind, fanin, n_clauses",
        [
            (GateType.XOR, ("a", "b"), 4),
            (GateType.XNOR, ("a", "b"), 4),
            (GateType.MUX, ("a", "b", "c"), 6),
        ],
    )
    def test_one_variable_per_gate(self, kind, fanin, n_clauses):
        nl = Netlist("one")
        for name in fanin:
            nl.add_input(name)
        nl.add_gate("y", kind, fanin)
        nl.set_outputs(["y"])
        solver = _recording_solver()
        enc = AIGEncoder(solver)
        in_lits = {name: enc.fresh_pi(name) for name in nl.inputs}
        outs = enc.encode_netlist(nl, in_lits)
        enc.sat_literal(outs["y"])
        assert solver.n_vars == len(fanin) + 1
        assert len(solver.clauses) == n_clauses
        _assert_exact(enc, nl, in_lits, outs)

    @pytest.mark.parametrize("xor_first", [True, False])
    def test_reused_product_term(self, xor_first):
        """``p = AND(a, ¬b)`` inside ``XOR(a, b)`` is also an output.
        Encoded after the XOR, ``p`` gets its own three clauses; encoded
        before it, the XOR falls back to plain AND clauses."""
        nl = Netlist("reuse")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("nb", GateType.NOT, ("b",))
        nl.add_gate("x", GateType.XOR, ("a", "b"))
        nl.add_gate("p", GateType.AND, ("a", "nb"))
        nl.set_outputs(["x", "p"] if xor_first else ["p", "x"])
        solver = _recording_solver()
        enc = AIGEncoder(solver)
        in_lits = {name: enc.fresh_pi(name) for name in nl.inputs}
        outs = enc.encode_netlist(nl, in_lits)
        for o in nl.outputs:
            enc.sat_literal(outs[o])
        # ITE (4) + p (3), or p (3) + q (3) + x (3)
        assert len(solver.clauses) == (7 if xor_first else 9)
        _assert_exact(enc, nl, in_lits, outs)

    @pytest.mark.parametrize("kind", ["plain", "rll", "wll", "sarlock"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brute_force_matches_evaluate(self, kind, seed):
        nl = _lock(kind, _random_netlist(seed, n_inputs=6))
        assert len(nl.inputs) <= 11
        solver = Solver()
        enc = AIGEncoder(solver)
        in_lits = {name: enc.fresh_pi(name) for name in nl.inputs}
        _assert_exact(enc, nl, in_lits, enc.encode_netlist(nl, in_lits))


def _adder_reassociated(width):
    """``ripple_adder`` with each sum bit as ``a ^ (b ^ c)``: equal
    function, different XOR structure, so strash cannot merge it."""
    nl = Netlist(f"adder{width}r")
    a = [nl.add_input(f"a{i}") for i in range(width)]
    b = [nl.add_input(f"b{i}") for i in range(width)]
    carry = nl.add_input("cin")
    sums = []
    for i in range(width):
        t = nl.add_gate(f"t{i}", GateType.XOR, (b[i], carry))
        sums.append(nl.add_gate(f"s{i}", GateType.XOR, (a[i], t)))
        maj = [
            nl.add_gate(f"m{i}_{j}", GateType.AND, pair)
            for j, pair in enumerate(
                [(a[i], b[i]), (a[i], carry), (b[i], carry)]
            )
        ]
        carry = nl.add_gate(f"c{i}", GateType.OR, maj)
    nl.set_outputs(sums + [carry])
    return nl


class TestEquivalenceOnXORCircuits:
    def test_reassociated_adder_is_equivalent(self):
        assert check_equivalence(ripple_adder(4), _adder_reassociated(4)) == (
            True, None
        )

    def test_mutated_adder_gives_a_true_counterexample(self):
        mutant = _adder_reassociated(4)
        mutant.replace_gate("t2", GateType.XNOR, ("b2", "c1"))
        equivalent, cex = check_equivalence(ripple_adder(4), mutant)
        assert not equivalent
        good = ripple_adder(4).evaluate_outputs(cex)
        bad = mutant.evaluate_outputs(cex)
        assert good != bad
