"""Tests for the CNF container, CDCL solver, Tseitin encoding, equivalence."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import c17, mini_alu, ripple_adder
from repro.netlist import GateType, Netlist, NetlistError
from repro.sat import (
    CNF,
    BudgetExhausted,
    ClauseTemplate,
    Solver,
    check_equivalence,
    encode_gate,
    evaluate_cnf,
    prove_unlocks,
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
        cnf = CNF()
        var = ClauseTemplate(nl).stamp(cnf)
        solver = Solver(cnf)
        for bits in itertools.product([0, 1], repeat=arity):
            want = nl.evaluate_outputs(dict(zip(ins, bits)))["y"]
            assumptions = [var[i] if b else -var[i] for i, b in zip(ins, bits)]
            r = solver.solve(assumptions=assumptions)
            assert r.sat
            assert int(r.model[var["y"]]) == want

    def test_constants_encoded(self):
        nl = Netlist("c")
        nl.add_gate("one", GateType.CONST1)
        nl.add_gate("zero", GateType.CONST0)
        nl.add_gate("y", GateType.OR, ["one", "zero"])
        nl.set_outputs(["y"])
        cnf = CNF()
        var = ClauseTemplate(nl).stamp(cnf)
        r = Solver(cnf).solve()
        assert r.model[var["y"]] is True

    def test_shared_variables(self):
        nl = c17()
        cnf = CNF()
        shared = {i: cnf.new_var() for i in nl.inputs}
        template = ClauseTemplate(nl)
        v1 = template.stamp(cnf, shared)
        v2 = template.stamp(cnf, shared)
        # identical circuits over shared inputs: outputs must agree
        for o in nl.outputs:
            cnf.add_clause([v1[o], -v2[o]])
            cnf.add_clause([-v1[o], v2[o]])
        assert Solver(cnf).solve().sat


def _xor_netlist(gtype, arity):
    """``gtype`` at ``arity`` fed by four inputs, then a second XOR chain
    and an AND downstream, so auxiliaries interleave with later nets."""
    nl = Netlist(f"{gtype.value}{arity}")
    ins = [nl.add_input(f"i{k}") for k in range(4)]
    nl.add_gate("g", gtype, ins[:arity])
    nl.add_gate("h", GateType.XNOR, ["g", "i3", "i1"])
    nl.add_gate("y", GateType.AND, ["h", "i0"])
    nl.set_outputs(["y", "g"])
    return nl


def _mixed_netlist():
    nl = Netlist("mixed")
    a, b, c, d = (nl.add_input(n) for n in "abcd")
    nl.add_gate("zero", GateType.CONST0)
    nl.add_gate("one", GateType.CONST1)
    nl.add_gate("m", GateType.MUX, [a, b, c])
    nl.add_gate("na", GateType.NAND, ["m", d, "one"])
    nl.add_gate("no", GateType.NOR, [a, "zero", "na"])
    nl.add_gate("x", GateType.XOR, ["m", "no", b, c])
    nl.add_gate("nb", GateType.NOT, ["x"])
    nl.add_gate("bf", GateType.BUF, ["nb"])
    nl.add_gate("o", GateType.OR, ["bf", "na", d])
    nl.set_outputs(["o", "x", "m"])
    return nl


def _encoder_stamp(netlist, cnf, share):
    """Gate-by-gate reference encoding: a fresh variable per unshared
    net in topological order, then each gate through encode_gate."""
    order = netlist.topological_order()
    var_of = dict(share)
    for name in order:
        if name not in var_of:
            var_of[name] = cnf.new_var()
    for name in order:
        gate = netlist.gate(name)
        encode_gate(cnf, gate.gtype, var_of[name], [var_of[f] for f in gate.fanin])
    return var_of


def _template_stamp(netlist, cnf, share):
    return ClauseTemplate(netlist).stamp(cnf, share)


def _digest(cnf, var_maps):
    payload = json.dumps(
        [
            cnf.n_vars,
            [list(c) for c in cnf.clauses],
            [sorted(m.items()) for m in var_maps],
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _one_copy(netlist, share_inputs):
    """One stamp after a two-variable prefix, sharing ``share_inputs``."""

    def case(stamp):
        cnf = CNF()
        cnf.new_vars(2)
        share = {name: cnf.new_var() for name in share_inputs(netlist)}
        return _digest(cnf, [stamp(netlist, cnf, share)])

    return case


def _two_copies(stamp):
    """A miter-style pair: shared data inputs, one input private per copy,
    a constraint clause between the copies, and a second netlist's copy
    stamped on top."""
    nl = ripple_adder(3)
    cnf = CNF()
    shared = {i: cnf.new_var() for i in nl.inputs[1:]}
    a = stamp(nl, cnf, dict(shared))
    b = stamp(nl, cnf, {**shared, "bogus": 1})
    cnf.add_clause([a[nl.outputs[0]], b[nl.outputs[0]]])
    c = stamp(_mixed_netlist(), cnf, {"a": a[nl.outputs[1]]})
    return _digest(cnf, [a, b, c])


def _all_inputs(nl):
    return nl.inputs[::-1]


def _no_inputs(nl):
    return []


def _odd_inputs(nl):
    return nl.inputs[1::2]


_TEMPLATE_CASES = {
    **{
        f"{t.value}{n}": _one_copy(_xor_netlist(t, n), _odd_inputs)
        for t in (GateType.XOR, GateType.XNOR)
        for n in (2, 3, 4)
    },
    "mixed-full": _one_copy(_mixed_netlist(), _all_inputs),
    "mixed-partial": _one_copy(_mixed_netlist(), _odd_inputs),
    "mixed-empty": _one_copy(_mixed_netlist(), _no_inputs),
    "two-copies": _two_copies,
}

#: sha256 prefixes of (n_vars, clauses, var maps) per case
_PINNED_ENCODINGS = {
    "mixed-empty": "256288ec8914bf82",
    "mixed-full": "ddd45c6610980f01",
    "mixed-partial": "4da68aaca9a0494a",
    "two-copies": "2134eb93300ef677",
    "xnor2": "436f06ab4501e47f",
    "xnor3": "1b8ff356fcb0406d",
    "xnor4": "d68400c2bbd67369",
    "xor2": "d2f72d0da328d056",
    "xor3": "2235b51d7109e1a9",
    "xor4": "fabd546d582558ac",
}


class TestClauseTemplate:
    """The template's stamps are the CNFs a gate-by-gate encoding
    produces: the hashes were recorded from the per-gate encoder the
    template replaced, and ``_encoder_stamp`` re-derives them."""

    @pytest.mark.parametrize("stamp", [_encoder_stamp, _template_stamp])
    @pytest.mark.parametrize("case", sorted(_TEMPLATE_CASES))
    def test_stamp_matches_pinned_encoding(self, case, stamp):
        assert _TEMPLATE_CASES[case](stamp) == _PINNED_ENCODINGS[case]

    @pytest.mark.parametrize(
        "gtype, clauses",
        [(GateType.XOR, [(-3, 1), (3, -1)]), (GateType.XNOR, [(-3, -1), (3, 1)])],
    )
    def test_single_fanin_xor_is_an_equality(self, gtype, clauses):
        # a netlist gate cannot have one XOR fan-in, but encode_gate can
        cnf = CNF(n_vars=3)
        encode_gate(cnf, gtype, 3, [1])
        assert cnf.clauses == clauses and cnf.n_vars == 3

    def test_unallocated_shared_variable_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError, match="not allocated"):
            ClauseTemplate(c17()).stamp(cnf, {"G1": 1})

    def test_template_reused_across_cnfs(self):
        nl = _mixed_netlist()
        template = ClauseTemplate(nl)
        for _ in range(2):
            cnf = CNF()
            var_of = template.stamp(cnf, {})
            ref = CNF()
            assert var_of == _encoder_stamp(nl, ref, {})
            assert cnf == ref


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
        # a pinned name must be an input of its circuit
        for pin in ({"k": 0, "nope": 1}, {"k": 0, "y0_m": 1}):
            with pytest.raises(NetlistError, match="not inputs"):
                prove_unlocks(orig, locked, pin)

    def test_miter_output_count_mismatch(self):
        with pytest.raises(ValueError, match="equal output counts"):
            check_equivalence(ripple_adder(2), mini_alu(2))

    @pytest.mark.parametrize("extra_in", ["a", "b"])
    def test_input_of_one_circuit_only(self, extra_in):
        plain = ripple_adder(2)
        extra = plain.copy("extra")
        extra.add_input("extra")
        out = extra.outputs[0]
        g = extra.gate(out)
        extra.add_gate(f"{out}_m", g.gtype, g.fanin)
        extra.replace_gate(out, GateType.XOR, (f"{out}_m", "extra"))
        a, b = (extra, plain) if extra_in == "a" else (plain, extra)
        eq, cex = check_equivalence(a, b)
        assert not eq
        assert set(cex) == set(extra.inputs)
        # the counterexample tells the circuits apart
        assert a.evaluate_outputs({i: cex[i] for i in a.inputs}) != (
            b.evaluate_outputs({i: cex[i] for i in b.inputs})
        )
        pin = {f"fixed_{extra_in}": {"extra": 0}}
        assert check_equivalence(a, b, **pin) == (True, None)

    def test_solve_circuit_justification(self):
        # pin internal nets of a stamped copy and read back the inputs
        nl = c17()
        cnf = CNF()
        var = ClauseTemplate(nl).stamp(cnf)
        for name, val in {"G22": 1, "G23": 0}.items():
            cnf.add_clause([var[name] if val else -var[name]])
        r = Solver(cnf).solve()
        assert r.sat
        asg = {i: int(r.model[var[i]]) for i in nl.inputs}
        assert nl.evaluate_outputs(asg) == {"G22": 1, "G23": 0}


class TestImportTime:
    def test_import_sat_loads_no_attacks_module(self):
        # the attacks build on repro.sat, never the other way round, and
        # the OraP/locking/simulation stacks stay out of it too
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, repro.sat; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.attacks', 'repro.orap'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
