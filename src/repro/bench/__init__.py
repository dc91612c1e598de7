"""Benchmark circuits: genuine small fixtures, a deterministic synthetic
generator, and the registry of the paper's Table I/II circuits."""

from .fixtures import (
    c17,
    equality_checker,
    majority,
    mini_alu,
    parity_tree,
    ripple_adder,
    s27_like,
)
from .generator import (
    DEFAULT_MIX,
    GeneratorConfig,
    SequentialConfig,
    generate_netlist,
    generate_sequential,
)
from .registry import (
    PAPER_CIRCUITS,
    PAPER_ORDER,
    PaperCircuit,
    build_paper_circuit,
    scaled_key_size,
)

__all__ = [
    "c17",
    "equality_checker",
    "majority",
    "mini_alu",
    "parity_tree",
    "ripple_adder",
    "s27_like",
    "DEFAULT_MIX",
    "GeneratorConfig",
    "SequentialConfig",
    "generate_netlist",
    "generate_sequential",
    "PAPER_CIRCUITS",
    "PAPER_ORDER",
    "PaperCircuit",
    "build_paper_circuit",
    "scaled_key_size",
]
