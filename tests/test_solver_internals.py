"""White-box tests for CDCL solver internals."""

import random

import pytest

from repro.sat import CNF, BudgetExhausted, Solver, evaluate_cnf, solve_cnf
from repro.sat.solver import _luby
from tests.test_sat import _pigeonhole, _sat_by_truth_table


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_powers_appear(self):
        seq = [_luby(i) for i in range(127)]
        assert 16 in seq and 32 in seq


class TestIncrementalSafety:
    def test_add_clause_rejected_mid_decision(self):
        s = Solver()
        s.add_clause([1, 2])
        s._trail_lim.append(0)  # simulate an open decision level
        with pytest.raises(RuntimeError):
            s.add_clause([3])
        s._trail_lim.pop()

    def test_level0_simplification(self):
        s = Solver()
        s.add_clause([1])  # unit: level-0 fact
        # a clause satisfied at level 0 is dropped silently
        assert s.add_clause([1, 2])
        # a falsified literal is removed from new clauses
        assert s.add_clause([-1, 3])
        r = s.solve()
        assert r.sat and r.model[3] is True

    def test_trivially_unsat_via_units(self):
        s = Solver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve().sat
        # further clauses keep reporting failure
        assert not s.add_clause([2])

    def test_solver_reusable_after_unsat_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1, 2])
        assert not s.solve(assumptions=[-2]).sat
        r = s.solve()
        assert r.sat and r.model[2] is True
        # repeated alternation keeps working
        for _ in range(3):
            assert not s.solve(assumptions=[-2]).sat
            assert s.solve().sat


class TestClauseLoader:
    """``add_cnf`` and ``add_clause`` share one loader and its rules."""

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([1, 0])
        with pytest.raises(ValueError):
            Solver(CNF(2, [(1, 2), (2, 0)]))

    def test_add_cnf_rejected_mid_decision(self):
        s = Solver()
        s._trail_lim.append(0)
        with pytest.raises(RuntimeError):
            s.add_cnf(CNF(1, [(1,)]))

    def test_units_simplify_later_clauses_of_one_cnf(self):
        # (1) propagates at once: (-1 2) becomes the unit 2, (1 3) is
        # satisfied, (-2 4 4 -1) loses -2 and -1 and merges the 4s
        s = Solver(CNF(4, [(1,), (-1, 2), (1, 3), (-2, 4, 4, -1), (3, -3)]))
        assert s._clauses == []
        assert [s._lit_val[2 * v] for v in (1, 2, 4)] == [1, 1, 1]
        assert s._lit_val[6] == -1  # 3 stays free
        s = Solver(CNF(3, [(1, 2, 1, 3), (3, -2, 2)]))
        assert [c.lits for c in s._clauses] == [[2, 4, 6]]

    def test_literals_above_n_vars_grow_the_table(self):
        s = Solver(CNF(1, [(1, -5)]))
        assert s.n_vars == 5
        assert s.solve(assumptions=[-1]).model[5] is False

    def test_empty_clause_latches(self):
        s = Solver()
        assert not s.add_cnf(CNF(2, [(1, 2), (-1,), (-2,), (2, 1)]))
        assert not s.add_clause([3])
        assert not s.add_cnf(CNF(1, [(1,)]))
        assert not s.solve().sat


class TestLearnedClauseMachinery:
    def test_db_reduction_preserves_correctness(self):
        """Force clause-DB reductions and confirm UNSAT is still proven."""

        def php(n):
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

        s = Solver(php(6))
        s._max_learned = 50  # force frequent reductions
        assert not s.solve().sat

    def test_budget_exhausted_leaves_solver_usable(self):
        def php(n):
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

        s = Solver(php(7))
        with pytest.raises(BudgetExhausted):
            s.solve(conflict_budget=10)
        # the solver keeps its learned clauses and can finish later
        assert not s.solve().sat


class TestModelCompleteness:
    @pytest.mark.parametrize("seed", range(4))
    def test_models_cover_all_variables(self, seed):
        rng = random.Random(seed)
        cnf = CNF()
        nv = 12
        cnf.n_vars = nv
        for _ in range(20):
            lits = rng.sample(range(1, nv + 1), 3)
            cnf.add_clause([lit if rng.random() < 0.5 else -lit for lit in lits])
        r = solve_cnf(cnf)
        if r.sat:
            assert set(r.model) == set(range(1, nv + 1))

    def test_isolated_variables_get_values(self):
        cnf = CNF()
        cnf.n_vars = 5  # vars 2..5 appear in no clause
        cnf.add_clause([1])
        r = solve_cnf(cnf)
        assert r.sat
        assert set(r.model) == {1, 2, 3, 4, 5}


def _random_3sat(n_vars: int, ratio: float, seed: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF()
    cnf.n_vars = n_vars
    for _ in range(round(n_vars * ratio)):
        lits = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([lit if rng.random() < 0.5 else -lit for lit in lits])
    return cnf


def _outcome(res) -> tuple:
    """(sat, conflicts, decisions, propagations, model as a bit mask)."""
    bits = None
    if res.sat:
        bits = sum(1 << (v - 1) for v, val in res.model.items() if val)
    return (res.sat, res.conflicts, res.decisions, res.propagations, bits)


RANDOM_SEED = 11
INCREMENTAL_SEED = 3
RESCALE_VARS = 14
RESCALE_SEED = 71

# Recorded before the solver's constant-factor work (order-heap dedup,
# inlined propagate, bulk clause loader); never edit one to make it pass.
# (sat, conflicts, decisions, propagations, model bits)
PHP6 = (False, 717, 891, 9188, None)
RANDOM = (True, 41, 66, 698, 632757093393125527)
PHP6_REDUCE = (False, 780, 977, 9219, None)
INCREMENTAL = [
    (True, 1, 11, 41, 893365092640),
    (True, 0, 9, 40, 901955143968),
    (True, 3, 12, 64, 916536210298),
    (True, 2, 12, 54, 710326399414),
    (False, 0, 0, 4, None),
    (True, 0, 10, 41, 709791625652),
    (True, 3, 12, 67, 2012873463094),
    (True, 1, 14, 48, 2152413172029),
    (False, 4, 3, 65, None),
    (True, 5, 16, 92, 1735178683692),
    (False, 0, 0, 3, None),
    (True, 1, 13, 46, 1791082201518),
    (False, 1, 0, 12, None),
    (True, 1, 13, 51, 1842570375342),
    (False, 2, 1, 23, None),
    (True, 8, 20, 120, 709800014244),
    (False, 5, 4, 67, None),
    (False, 1, 0, 7, None),
    (False, 1, 0, 8, None),
    (False, 0, 0, 4, None),
]
RESCALE_PHP6 = (False, 672, 848, 8695, None)
RESCALE_RANDOM = (True, 17, 21, 92, 9761)


def _incremental_run() -> list[tuple]:
    """One solver, 20 solves under random assumptions, two clauses added
    between solves (some over variables the solver has not seen yet)."""
    rng = random.Random(INCREMENTAL_SEED)
    s = Solver(_random_3sat(40, 3.4, seed=INCREMENTAL_SEED))
    out = []
    for _ in range(20):
        assumptions = [
            v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 41), 4)
        ]
        out.append(_outcome(s.solve(assumptions=assumptions)))
        for _ in range(2):
            lits = rng.sample(range(1, 46), 3)
            s.add_clause([lit if rng.random() < 0.5 else -lit for lit in lits])
    return out


class TestSearchTrajectory:
    """Pin the exact search: counters and models of fixed instances.

    A change meant only to make the solver faster must leave every
    decision, propagation and learned clause as it was; these constants
    were recorded before any such change and must not be edited to make
    one pass.  The attack matrix's rows depend on which models the
    solver returns, so a silent change here would shift them.
    """

    def test_pigeonhole_6(self):
        assert _outcome(solve_cnf(_pigeonhole(6))) == PHP6

    def test_random_3sat(self):
        assert _outcome(solve_cnf(_random_3sat(60, 4.26, RANDOM_SEED))) == RANDOM

    def test_pigeonhole_6_with_db_reduction(self):
        s = Solver(_pigeonhole(6))
        s._max_learned = 50
        assert _outcome(s.solve()) == PHP6_REDUCE

    def test_incremental_solves(self):
        assert _incremental_run() == INCREMENTAL


class TestActivityRescale:
    """Start at ``_var_inc = 1e99`` so an activity passes 1e100 and every
    activity is scaled down mid-search; the order heap keeps its stale
    (unscaled) keys, and the search must stay what it was."""

    def _solve(self, cnf: CNF):
        s = Solver(cnf)
        s._var_inc = 1e99
        res = s.solve()
        assert s._var_inc < 1e99  # the rescale fired
        return res

    def test_pigeonhole_6(self):
        res = self._solve(_pigeonhole(6))
        assert not res.sat  # 7 pigeons never fit in 6 holes
        assert _outcome(res) == RESCALE_PHP6

    def test_random_3sat(self):
        cnf = _random_3sat(RESCALE_VARS, 4.26, RESCALE_SEED)
        res = self._solve(cnf)
        assert res.sat == _sat_by_truth_table(cnf.clauses, RESCALE_VARS)
        if res.sat:
            assert evaluate_cnf(cnf, res.model)
        assert _outcome(res) == RESCALE_RANDOM
