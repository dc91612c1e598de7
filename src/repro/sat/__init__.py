"""SAT substrate: CNF, CDCL solver, Tseitin and strashed-AIG circuit
encodings, and combinational equivalence checking."""

from .cnf import CNF, evaluate_clause, evaluate_cnf
from .solver import BudgetExhausted, SolveResult, Solver, solve_cnf
from .tseitin import ClauseTemplate, encode_gate
from .aigenc import AIGEncoder
from .equivalence import check_equivalence, prove_unlocks

__all__ = [
    "CNF",
    "evaluate_clause",
    "evaluate_cnf",
    "BudgetExhausted",
    "SolveResult",
    "Solver",
    "solve_cnf",
    "ClauseTemplate",
    "encode_gate",
    "AIGEncoder",
    "check_equivalence",
    "prove_unlocks",
]
