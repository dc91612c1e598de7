"""Tests for the CNF container, CDCL solver, Tseitin encoding, equivalence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import c17, mini_alu, ripple_adder
from repro.netlist import GateType, Netlist
from repro.sat import (
    CNF,
    BudgetExhausted,
    CircuitEncoder,
    Solver,
    build_miter,
    check_equivalence,
    evaluate_cnf,
    prove_unlocks,
    solve_circuit,
    solve_cnf,
)


class TestCNF:
    def test_new_vars(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_vars(3) == [2, 3, 4]
        assert cnf.n_vars == 4

    def test_add_clause_tracks_vars(self):
        cnf = CNF()
        cnf.add_clause([5, -2])
        assert cnf.n_vars == 5
        assert len(cnf) == 1

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            CNF().add_clause([0])

    def test_dimacs_roundtrip(self):
        cnf = CNF()
        cnf.add_clause([1, -2, 3])
        cnf.add_clause([-1])
        text = cnf.to_dimacs()
        back = CNF.from_dimacs(text)
        assert back.n_vars == cnf.n_vars
        assert back.clauses == cnf.clauses

    def test_dimacs_header_and_comments(self):
        back = CNF.from_dimacs("c comment\np cnf 4 1\n1 -4 0\n")
        assert back.n_vars == 4
        assert back.clauses == [(1, -4)]

    def test_bad_header(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("p dnf 1 1\n1 0\n")

    def test_evaluate_cnf(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1])
        assert evaluate_cnf(cnf, {1: False, 2: True})
        assert not evaluate_cnf(cnf, {1: True, 2: True})


class TestSolverBasics:
    def test_trivial_sat(self):
        s = Solver()
        s.add_clause([1])
        r = s.solve()
        assert r.sat and r.model[1] is True

    def test_trivial_unsat(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve().sat

    def test_empty_formula_sat(self):
        assert Solver().solve().sat

    def test_tautology_dropped(self):
        s = Solver()
        assert s.add_clause([1, -1])
        assert s.solve().sat

    def test_duplicate_literals_merged(self):
        s = Solver()
        s.add_clause([2, 2, 2])
        r = s.solve()
        assert r.sat and r.model[2] is True

    def test_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        assert not s.solve(assumptions=[-1, -2]).sat
        r = s.solve(assumptions=[-1])
        assert r.sat and r.model[2] is True
        # solver still reusable without assumptions
        assert s.solve().sat

    def test_incremental_clause_addition(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve().sat
        s.add_clause([-1])
        s.add_clause([-2])
        assert not s.solve().sat

    def test_conflict_budget(self):
        # pigeonhole 6 needs far more than 5 conflicts
        cnf = _pigeonhole(6)
        with pytest.raises(BudgetExhausted):
            solve_cnf(cnf, conflict_budget=5)

    def test_stats_populated(self):
        cnf = _pigeonhole(4)
        r = solve_cnf(cnf)
        assert not r.sat
        assert r.conflicts > 0


def _pigeonhole(n: int) -> CNF:
    cnf = CNF()
    var = {}
    for p in range(n + 1):
        for h in range(n):
            var[p, h] = cnf.new_var()
    for p in range(n + 1):
        cnf.add_clause([var[p, h] for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


def _sat_by_truth_table(clauses, n_vars: int) -> bool:
    """Satisfiability by enumerating all 2**n_vars assignments at once.

    Bit ``m`` of a mask stands for the assignment whose variable ``v`` is
    bit ``v - 1`` of ``m``; a clause's mask is the OR of its literals'.
    """
    size = 1 << n_vars
    full = (1 << size) - 1
    true_of = [0]
    for v in range(1, n_vars + 1):
        # v is true in the upper half of every run of 2**v assignments
        half = 1 << (v - 1)
        runs = full // ((1 << (2 * half)) - 1)  # a 1 at the start of each run
        true_of.append((((1 << half) - 1) << half) * runs)
    sat = full
    for clause in clauses:
        mask = 0
        for lit in clause:
            mask |= true_of[lit] if lit > 0 else full ^ true_of[-lit]
        sat &= mask
    return sat != 0


class TestSolverExhaustive:
    def test_pigeonhole_unsat(self):
        for n in (3, 4, 5):
            assert not solve_cnf(_pigeonhole(n)).sat

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_3sat_vs_bruteforce(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(3, 8)
        nc = rng.randint(3, 35)
        cnf = CNF()
        cnf.n_vars = nv
        for _ in range(nc):
            lits = rng.sample(range(1, nv + 1), k=min(3, nv))
            cnf.add_clause([lit if rng.random() < 0.5 else -lit for lit in lits])
        res = solve_cnf(cnf)
        brute = any(
            evaluate_cnf(cnf, {v: bool((m >> (v - 1)) & 1) for v in range(1, nv + 1)})
            for m in range(1 << nv)
        )
        assert res.sat == brute
        if res.sat:
            assert evaluate_cnf(cnf, res.model)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_incremental_use_vs_bruteforce(self, data):
        """One solver through a random run of add_clause and solve calls,
        some cut short by a conflict budget and then resumed: every
        verdict matches the truth table of the clauses so far plus the
        assumptions, and every model satisfies both."""
        nv = data.draw(st.integers(2, 12), label="n_vars")
        lit = st.integers(1, nv).flatmap(lambda v: st.sampled_from([v, -v]))
        op = st.one_of(
            st.tuples(st.just("add"), st.lists(lit, min_size=1, max_size=3)),
            st.tuples(
                st.just("solve"),
                st.lists(lit, max_size=4),
                st.none() | st.integers(0, 3),
            ),
        )
        ops = data.draw(st.lists(op, min_size=1, max_size=60), label="ops")
        s = Solver()
        cnf = CNF()
        for kind, lits, *budget in ops:
            if kind == "add":
                cnf.add_clause(lits)
                s.add_clause(lits)
                continue
            if budget[0] is not None:
                try:
                    s.solve(assumptions=lits, conflict_budget=budget[0])
                except BudgetExhausted:
                    pass  # resumed by the unbudgeted call below
            res = s.solve(assumptions=lits)
            truth = _sat_by_truth_table(cnf.clauses + [(a,) for a in lits], nv)
            assert res.sat == truth
            if res.sat:
                assert evaluate_cnf(cnf, res.model)
                assert all(res.model[abs(a)] == (a > 0) for a in lits)


class TestTseitin:
    @pytest.mark.parametrize(
        "gtype,arity",
        [
            (GateType.AND, 2),
            (GateType.AND, 3),
            (GateType.NAND, 2),
            (GateType.OR, 3),
            (GateType.NOR, 2),
            (GateType.XOR, 2),
            (GateType.XOR, 3),
            (GateType.XNOR, 3),
            (GateType.NOT, 1),
            (GateType.BUF, 1),
            (GateType.MUX, 3),
        ],
    )
    def test_single_gate_encoding_exhaustive(self, gtype, arity):
        nl = Netlist("g")
        ins = [nl.add_input(f"i{k}") for k in range(arity)]
        nl.add_gate("y", gtype, ins)
        nl.set_outputs(["y"])
        enc = CircuitEncoder(nl)
        solver = Solver(enc.cnf)
        for bits in itertools.product([0, 1], repeat=arity):
            want = nl.evaluate_outputs(dict(zip(ins, bits)))["y"]
            assumptions = [
                enc.var(i) if b else -enc.var(i) for i, b in zip(ins, bits)
            ]
            r = solver.solve(assumptions=assumptions)
            assert r.sat
            assert int(r.model[enc.var("y")]) == want

    def test_constants_encoded(self):
        nl = Netlist("c")
        nl.add_gate("one", GateType.CONST1)
        nl.add_gate("zero", GateType.CONST0)
        nl.add_gate("y", GateType.OR, ["one", "zero"])
        nl.set_outputs(["y"])
        enc = CircuitEncoder(nl)
        r = Solver(enc.cnf).solve()
        assert r.model[enc.var("y")] is True

    def test_shared_variables(self):
        nl = c17()
        cnf = CNF()
        shared = {i: cnf.new_var() for i in nl.inputs}
        e1 = CircuitEncoder(nl, cnf=cnf, share=dict(shared))
        e2 = CircuitEncoder(nl, cnf=cnf, share=dict(shared))
        # identical circuits over shared inputs: outputs must agree
        for o in nl.outputs:
            cnf.add_clause([e1.var(o), -e2.var(o)])
            cnf.add_clause([-e1.var(o), e2.var(o)])
        assert Solver(cnf).solve().sat


class TestEquivalence:
    def test_equal_circuits(self):
        nl = ripple_adder(3)
        eq, cex = check_equivalence(nl, nl.copy())
        assert eq and cex is None

    def test_inequal_circuits_give_cex(self):
        a = ripple_adder(2)
        b = ripple_adder(2)
        # corrupt one gate of b
        g = b.gate("s0")
        b.replace_gate("s0", GateType.XNOR, g.fanin)
        eq, cex = check_equivalence(a, b)
        assert not eq
        assert set(cex) == set(a.inputs)
        # the counterexample actually distinguishes them
        assert a.evaluate_outputs(cex) != b.evaluate_outputs(cex)

    def test_equivalence_with_fixed_key(self):
        orig = mini_alu(2)
        locked = orig.copy("locked")
        locked.add_input("k")
        g = locked.gate("y0")
        locked.add_gate("y0_m", g.gtype, g.fanin)
        locked.replace_gate("y0", GateType.XOR, ("y0_m", "k"))
        assert prove_unlocks(orig, locked, {"k": 0})
        assert not prove_unlocks(orig, locked, {"k": 1})

    def test_miter_output_count_mismatch(self):
        with pytest.raises(ValueError):
            build_miter(ripple_adder(2), mini_alu(2))

    def test_solve_circuit_justification(self):
        nl = c17()
        r = solve_circuit(nl, {"G22": 1, "G23": 0})
        assert r.sat
        model_inputs = {
            i: int(r.model[CircuitEncoder(nl).var(i)]) for i in []
        }  # noqa: F841 — justification checked below
        # reconstruct assignment from the result by re-solving with encoder
        enc = CircuitEncoder(nl)
        for name, val in {"G22": 1, "G23": 0}.items():
            v = enc.var(name)
            enc.cnf.add_clause([v if val else -v])
        r2 = Solver(enc.cnf).solve()
        asg = {i: int(r2.model[enc.var(i)]) for i in nl.inputs}
        out = nl.evaluate_outputs(asg)
        assert out == {"G22": 1, "G23": 0}
