"""SAT substrate: CNF, CDCL solver, Tseitin circuit encoding, miters and
combinational equivalence checking."""

from .cnf import CNF, evaluate_clause, evaluate_cnf
from .solver import BudgetExhausted, SolveResult, Solver, solve_cnf
from .tseitin import CircuitEncoder, encode_gate, encode_netlist
from .equivalence import (
    build_miter,
    check_equivalence,
    prove_unlocks,
    solve_circuit,
)

__all__ = [
    "CNF",
    "evaluate_clause",
    "evaluate_cnf",
    "BudgetExhausted",
    "SolveResult",
    "Solver",
    "solve_cnf",
    "CircuitEncoder",
    "encode_gate",
    "encode_netlist",
    "build_miter",
    "check_equivalence",
    "prove_unlocks",
    "solve_circuit",
]
