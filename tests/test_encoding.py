"""Tests for the strashed-AIG CNF encoder of the SAT attacks and of
equivalence checking."""

import itertools
import random


from repro.bench import GeneratorConfig, c17, generate_netlist, ripple_adder
from repro.sat import AIGEncoder, Solver


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
