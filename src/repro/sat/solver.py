"""A CDCL SAT solver (conflict-driven clause learning).

Implements the algorithm family of MiniSat-class solvers, which the original
SAT-attack tool [6] builds on:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and backjumping,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* activity-driven learned-clause database reduction,
* incremental solving under assumptions.

Pure Python by design (no native SAT package is available offline); it is
fast enough for the locked-circuit instances this reproduction generates
(tens of thousands of clauses).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .. import telemetry
from ..runtime import faultinject
from ..runtime.budget import Budget, BudgetExhausted, DeadlineExpired
from .cnf import CNF

TRUE = 1
FALSE = 0
UNASSIGNED = -1


#: key of an order-heap entry once popped (live keys are -activity <= 0),
#: so a variable's stale ``_queued`` entry never matches its activity
_OFF_HEAP = 1.0
_NOT_QUEUED = (_OFF_HEAP,)


def _lit_to_internal(lit: int) -> int:
    """DIMACS literal -> internal encoding (2v for +v, 2v+1 for -v)."""
    v = abs(lit)
    return 2 * v if lit > 0 else 2 * v + 1


@dataclass
class SolveResult:
    """Outcome of one :meth:`Solver.solve` call.

    Attributes:
        sat: True (model found), False (UNSAT under assumptions).
        model: variable -> bool map when ``sat`` (complete over all vars).
        conflicts: conflicts encountered during this call.
        decisions: decisions made during this call.
        propagations: literals propagated during this call.
    """

    sat: bool
    model: dict[int, bool] | None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    def __bool__(self) -> bool:
        return self.sat


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


class Solver:
    """Incremental CDCL solver.

    Typical use::

        s = Solver()
        s.add_clause([1, -2])
        s.add_clause([2, 3])
        result = s.solve(assumptions=[-1])
        if result: print(result.model)
    """

    def __init__(self, cnf: CNF | None = None) -> None:
        self._n_vars = 0
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        self._watches: list[list[_Clause]] = [[], []]
        self._assign: list[int] = [UNASSIGNED]
        # per-internal-literal truth value (-1/0/1), the propagate hot path
        self._lit_val: list[int] = [UNASSIGNED, UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [FALSE]
        self._trail: list[int] = []  # internal literals, in assignment order
        self._trail_lim: list[int] = []
        self._qhead = 0
        # Lazy VSIDS order heap of [-activity, var, copies] entries: a
        # popped entry whose variable is assigned, or whose key is below
        # its activity, is dropped.  It is a multiset (a variable unassigned
        # twice at one activity is queued twice, and after a rescale each
        # copy of an old, larger key is picked once) that stores a repeated
        # entry once, with ``copies`` counting the rest; _queued[v] is v's
        # newest entry, so _backtrack can count a copy instead of pushing.
        self._heap: list[list] = []
        self._queued: list[list | tuple] = [_NOT_QUEUED]
        self._var_inc = 1.0
        self._var_decay = 0.99
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._max_learned = 4000
        self._ok = True
        self.stats_conflicts = 0
        self.stats_decisions = 0
        self.stats_propagations = 0
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ #
    # problem construction

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.ensure_vars(self._n_vars + 1)
        return self._n_vars

    def ensure_vars(self, n: int) -> None:
        """Grow the variable table to at least ``n``."""
        k = n - self._n_vars
        if k <= 0:
            return
        self._n_vars = n
        self._assign += [UNASSIGNED] * k
        self._lit_val += [UNASSIGNED] * (2 * k)
        self._level += [0] * k
        self._reason += [None] * k
        self._activity += [0.0] * k
        self._queued += [_NOT_QUEUED] * k
        self._phase += [FALSE] * k
        self._watches += [[] for _ in range(2 * k)]

    @property
    def n_vars(self) -> int:
        """Highest allocated variable index."""
        return self._n_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        Must be called at decision level 0 (i.e. between solve calls).
        """
        return self._load((literals,), 0)

    def add_cnf(self, cnf: CNF) -> bool:
        """Add every clause of a formula."""
        return self._load(cnf.clauses, cnf.n_vars)

    def _load(self, clauses: Iterable[Iterable[int]], n_vars: int) -> bool:
        """Add DIMACS clauses at level 0; False once the formula is UNSAT.

        Tautologies and clauses already true at level 0 are dropped;
        duplicate and level-0-false literals are removed; a unit is
        enqueued and propagated at once, so later clauses simplify
        against it.  ``_ok`` latches False on an empty clause.
        """
        if self._trail_lim:
            raise RuntimeError("add_clause only permitted at level 0")
        if not self._ok:
            return False
        self.ensure_vars(n_vars)
        n_vars = self._n_vars
        lit_val = self._lit_val
        problem = self._clauses
        watches = self._watches
        for literals in clauses:
            lits: list[int] = []
            for lit in literals:
                if lit > 0:
                    ilit = 2 * lit
                elif lit < 0:
                    ilit = 1 - 2 * lit
                else:
                    raise ValueError("0 is not a valid literal")
                if ilit >> 1 > n_vars:
                    self.ensure_vars(ilit >> 1)
                    n_vars = self._n_vars
                val = lit_val[ilit]
                if val == TRUE or ilit ^ 1 in lits:
                    break  # satisfied at level 0, or a tautology
                if val == UNASSIGNED and ilit not in lits:
                    lits.append(ilit)
            else:
                if len(lits) > 1:
                    clause = _Clause(lits, learned=False)
                    problem.append(clause)
                    watches[lits[0] ^ 1].append(clause)
                    watches[lits[1] ^ 1].append(clause)
                    continue
                if lits:
                    self._enqueue(lits[0], None)
                if not lits or self._propagate() is not None:
                    self._ok = False
                    return False
        return True

    # ------------------------------------------------------------------ #
    # internals

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0] ^ 1].append(clause)
        self._watches[clause.lits[1] ^ 1].append(clause)

    def _enqueue(self, ilit: int, reason: _Clause | None) -> bool:
        val = self._lit_val[ilit]
        if val == FALSE:
            return False
        if val == TRUE:
            return True
        v = ilit >> 1
        val = TRUE if (ilit & 1) == 0 else FALSE
        self._assign[v] = val
        self._lit_val[ilit] = TRUE
        self._lit_val[ilit ^ 1] = FALSE
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._phase[v] = val
        self._trail.append(ilit)
        return True

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns a conflicting clause or None."""
        lit_val = self._lit_val
        watches = self._watches
        trail = self._trail
        assign = self._assign
        level_of = self._level
        reason_of = self._reason
        phase = self._phase
        level = len(self._trail_lim)
        qhead = start = self._qhead
        conflict: _Clause | None = None
        while qhead < len(trail):
            ilit = trail[qhead]
            qhead += 1
            false_lit = ilit ^ 1
            # clauses watching ``false_lit`` live under watches[ilit]
            # (attach registers a watch on L in watches[L ^ 1])
            watch_list = watches[ilit]
            if not watch_list:
                continue
            new_list: list[_Clause] = []
            append_kept = new_list.append
            rest = iter(watch_list)
            for clause in rest:
                lits = clause.lits
                # make sure the false literal is in slot 1
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                val = lit_val[first]
                if val == TRUE:
                    append_kept(clause)
                    continue
                # search a new watch
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if lit_val[lk] != FALSE:
                        lits[1] = lk
                        lits[k] = false_lit
                        watches[lk ^ 1].append(clause)
                        break
                else:
                    # clause is unit or conflicting
                    append_kept(clause)
                    if val == FALSE:
                        conflict = clause
                        new_list.extend(rest)  # keep the remaining watchers
                        break
                    # enqueue ``first`` with this clause as its reason
                    v = first >> 1
                    val = TRUE if (first & 1) == 0 else FALSE
                    assign[v] = val
                    lit_val[first] = TRUE
                    lit_val[first ^ 1] = FALSE
                    level_of[v] = level
                    reason_of[v] = clause
                    phase[v] = val
                    trail.append(first)
            watches[ilit] = new_list
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats_propagations += qhead - start
        return conflict

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP analysis: returns (learned clause, backjump level).

        The learned clause's asserting literal is placed at index 0.
        """
        level_of = self._level
        reason_of = self._reason
        trail = self._trail
        activity = self._activity
        queued = self._queued
        heap = self._heap
        var_inc = self._var_inc
        learned: list[int] = [0]  # reserve slot for the asserting literal
        seen = [False] * (self._n_vars + 1)
        counter = 0
        ilit = -1
        idx = len(trail) - 1
        reason: _Clause | None = conflict
        cur_level = len(self._trail_lim)
        start = 0
        while True:
            assert reason is not None
            if reason.learned:
                self._bump_clause(reason)
            for q in reason.lits[start:]:
                v = q >> 1
                lv = level_of[v]
                if lv > 0 and not seen[v]:
                    seen[v] = True
                    # VSIDS bump
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc = self._var_inc
                        act = activity[v]
                    entry = [-act, v, 0]
                    heappush(heap, entry)
                    queued[v] = entry
                    if lv >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            start = 1
            # pick next literal on trail to resolve on
            while not seen[trail[idx] >> 1]:
                idx -= 1
            ilit = trail[idx]
            idx -= 1
            v = ilit >> 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            reason = reason_of[v]
        learned[0] = ilit ^ 1
        # minimize: drop literals implied by the rest (cheap self-subsumption)
        learned = self._minimize(learned, seen)
        if len(learned) == 1:
            back_level = 0
        else:
            # second-highest decision level in the clause
            max_i = 1
            for i in range(2, len(learned)):
                if level_of[learned[i] >> 1] > level_of[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            back_level = level_of[learned[1] >> 1]
        return learned, back_level

    def _minimize(self, learned: list[int], seen: list[bool]) -> list[int]:
        """Recursive (MiniSat-style) learned-clause minimization.

        A literal is redundant if every antecedent in its implication
        graph eventually resolves into literals already in the clause (or
        level-0 facts).  ``seen`` marks the clause's variables on entry.
        """
        level_of = self._level
        reason_of = self._reason
        levels = {level_of[q >> 1] for q in learned[1:]}
        out = [learned[0]]
        extra_marked: list[int] = []
        for q in learned[1:]:
            if reason_of[q >> 1] is None or not self._lit_redundant(
                q, levels, seen, extra_marked
            ):
                out.append(q)
        for v in extra_marked:
            seen[v] = False
        return out

    def _lit_redundant(
        self,
        lit: int,
        levels: set[int],
        seen: list[bool],
        extra_marked: list[int],
    ) -> bool:
        """Iterative DFS over the implication graph of ``lit``."""
        level_of = self._level
        reason_of = self._reason
        stack = [lit]
        start = len(extra_marked)
        while stack:
            reason = reason_of[stack.pop() >> 1]
            assert reason is not None
            for q in reason.lits[1:]:
                v = q >> 1
                lv = level_of[v]
                if lv == 0 or seen[v]:
                    continue
                if reason_of[v] is None or lv not in levels:
                    # a decision or an off-level antecedent: not redundant;
                    # undo the speculative marks from this probe
                    for m in extra_marked[start:]:
                        seen[m] = False
                    del extra_marked[start:]
                    return False
                seen[v] = True
                extra_marked.append(v)
                stack.append(q)
        return True

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        bound = trail_lim[level]
        assign = self._assign
        lit_val = self._lit_val
        reason_of = self._reason
        activity = self._activity
        queued = self._queued
        heap = self._heap
        for ilit in reversed(trail[bound:]):
            v = ilit >> 1
            assign[v] = UNASSIGNED
            lit_val[ilit] = UNASSIGNED
            lit_val[ilit ^ 1] = UNASSIGNED
            reason_of[v] = None
            neg_act = -activity[v]
            entry = queued[v]
            if entry[0] == neg_act:  # still queued at this activity
                entry[2] += 1
            else:
                entry = [neg_act, v, 0]
                heappush(heap, entry)
                queued[v] = entry
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _rescale(self) -> None:
        """Scale every activity by 1e-100 before one passes 1e100.

        Order-heap keys keep their old, larger values, so each copy of
        such an entry is picked when popped if its variable is free.
        """
        activity = self._activity
        for i in range(1, self._n_vars + 1):
            activity[i] *= 1e-100
        self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _pick_branch_var(self) -> int:
        heap = self._heap
        assign = self._assign
        activity = self._activity
        while heap:
            entry = heap[0]
            v = entry[1]
            if assign[v] == UNASSIGNED and -entry[0] >= activity[v] - 1e-12:
                if entry[2]:
                    entry[2] -= 1  # take one copy, the rest stay queued
                else:
                    heappop(heap)[0] = _OFF_HEAP
                return v
            heappop(heap)[0] = _OFF_HEAP  # stale: drop every copy
        for v in range(1, self._n_vars + 1):
            if assign[v] == UNASSIGNED:
                return v
        return 0

    def _reduce_db(self) -> None:
        """Throw away the less active half of the learned clauses."""
        locked = {self._reason[t >> 1] for t in self._trail if self._reason[t >> 1]}
        self._learned.sort(key=lambda c: c.activity)
        keep_from = len(self._learned) // 2
        removed = []
        kept = []
        for i, c in enumerate(self._learned):
            if i < keep_from and c not in locked and len(c.lits) > 2:
                removed.append(c)
            else:
                kept.append(c)
        if not removed:
            return
        removed_set = set(map(id, removed))
        for c in removed:
            for w in (c.lits[0] ^ 1, c.lits[1] ^ 1):
                self._watches[w] = [
                    cl for cl in self._watches[w] if id(cl) not in removed_set
                ]
        self._learned = kept

    # ------------------------------------------------------------------ #
    # main search

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        budget: Budget | None = None,
    ) -> SolveResult:
        """Search for a model consistent with ``assumptions``.

        Args:
            assumptions: DIMACS literals temporarily asserted true.
            conflict_budget: abort (raising BudgetExhausted) after this
                many conflicts *of this call*, if given — shorthand for a
                fresh single-cap :class:`~repro.runtime.Budget`.
            budget: shared :class:`~repro.runtime.Budget` charged one
                conflict per conflict; its caps and wall-clock deadline
                span every solve call it is passed to.  Raises
                :class:`~repro.runtime.BudgetExhausted` /
                :class:`~repro.runtime.DeadlineExpired` with the solver
                restored to decision level 0.

        When telemetry is enabled each call is wrapped in a
        ``sat.solve`` span and charges the ``sat.conflicts`` /
        ``sat.decisions`` / ``sat.propagations`` counters with this
        call's deltas (also on budget aborts); the ``sat.clauses``
        gauge tracks problem + learned clause counts.
        """
        if not telemetry.enabled():
            return self._solve(assumptions, conflict_budget, budget)
        start_conf = self.stats_conflicts
        start_dec = self.stats_decisions
        start_prop = self.stats_propagations
        with telemetry.span("sat.solve", vars=self._n_vars) as sp:
            try:
                res = self._solve(assumptions, conflict_budget, budget)
            finally:
                telemetry.counter_add(
                    "sat.conflicts", self.stats_conflicts - start_conf
                )
                telemetry.counter_add(
                    "sat.decisions", self.stats_decisions - start_dec
                )
                telemetry.counter_add(
                    "sat.propagations", self.stats_propagations - start_prop
                )
                telemetry.gauge_set(
                    "sat.clauses", len(self._clauses) + len(self._learned)
                )
            sp.set(sat=res.sat, conflicts=res.conflicts)
        return res

    def _solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        budget: Budget | None = None,
    ) -> SolveResult:
        local_budget = (
            Budget(max_conflicts=conflict_budget)
            if conflict_budget is not None
            else None
        )
        start_conf = self.stats_conflicts
        start_dec = self.stats_decisions
        start_prop = self.stats_propagations

        def stats() -> dict[str, int]:
            return dict(
                conflicts=self.stats_conflicts - start_conf,
                decisions=self.stats_decisions - start_dec,
                propagations=self.stats_propagations - start_prop,
            )

        if not self._ok:
            return SolveResult(False, None, **stats())
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        iassumps = [_lit_to_internal(lit) for lit in assumptions]
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return SolveResult(False, None, **stats())

        restart_idx = 0
        conflicts_until_restart = _luby(restart_idx) * 100

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats_conflicts += 1
                conflicts_until_restart -= 1
                if faultinject.enabled:
                    faultinject.fire("sat.conflict")
                if len(self._trail_lim) == 0:
                    self._ok = False
                    return SolveResult(False, None, **stats())
                if len(self._trail_lim) <= len(iassumps):
                    # conflict depends only on assumptions
                    self._backtrack(0)
                    return SolveResult(False, None, **stats())
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, 0)
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._backtrack(0)
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return SolveResult(False, None, **stats())
                    # re-establish assumption prefix lazily via decisions
                else:
                    clause = _Clause(learned, learned=True)
                    self._learned.append(clause)
                    self._attach(clause)
                    self._bump_clause(clause)
                    self._enqueue(learned[0], clause)
                self._decay()
                if local_budget is not None or budget is not None:
                    try:
                        if local_budget is not None:
                            local_budget.charge_conflict()
                        if budget is not None:
                            budget.charge_conflict()
                    except (BudgetExhausted, DeadlineExpired):
                        self._backtrack(0)
                        raise
                if len(self._learned) > self._max_learned:
                    self._reduce_db()
                    self._max_learned = int(self._max_learned * 1.3)
                continue

            if conflicts_until_restart <= 0 and len(self._trail_lim) > len(iassumps):
                restart_idx += 1
                conflicts_until_restart = _luby(restart_idx) * 100
                self._backtrack(len(iassumps))
                continue

            # decision (assumption prefix first)
            level = len(self._trail_lim)
            if level < len(iassumps):
                ilit = iassumps[level]
                val = self._lit_val[ilit]
                if val == FALSE:
                    self._backtrack(0)
                    return SolveResult(False, None, **stats())
                self._trail_lim.append(len(self._trail))
                if val == UNASSIGNED:
                    self._enqueue(ilit, None)
                continue
            # deadline coverage for propagation-heavy solves that rarely
            # conflict: poll the wall clock every 1024 decisions
            if budget is not None and (self.stats_decisions & 1023) == 0:
                try:
                    budget.check_deadline()
                except DeadlineExpired:
                    self._backtrack(0)
                    raise
            v = self._pick_branch_var()
            if v == 0:
                model = {
                    i: self._assign[i] == TRUE for i in range(1, self._n_vars + 1)
                }
                self._backtrack(0)
                return SolveResult(True, model, **stats())
            self.stats_decisions += 1
            self._trail_lim.append(len(self._trail))
            ilit = 2 * v + (0 if self._phase[v] == TRUE else 1)
            self._enqueue(ilit, None)


def _luby(i: int) -> int:
    """The Luby restart sequence for 0-based ``i``: 1,1,2,1,1,2,4,..."""
    n = i + 1  # 1-based position
    while True:
        k = n.bit_length()
        if n == (1 << k) - 1:
            return 1 << (k - 1)
        n -= (1 << (k - 1)) - 1


def solve_cnf(
    cnf: CNF,
    assumptions: Sequence[int] = (),
    conflict_budget: int | None = None,
    budget: Budget | None = None,
) -> SolveResult:
    """One-shot convenience wrapper around :class:`Solver`."""
    return Solver(cnf).solve(assumptions, conflict_budget, budget=budget)
