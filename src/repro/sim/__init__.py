"""Bit-parallel combinational simulation, pattern sources, and
output-corruption metrics."""

from .bitsim import (
    BitSimulator,
    broadcast_constant,
    n_words,
    pack_patterns,
    popcount_lanes,
    popcount_words,
    simulate_many,
    tail_mask,
    unpack_patterns,
)
from .optape import (
    OpTapeEngine,
    clear_engine_cache,
    compile_engine,
    engine_cache_info,
    netlist_fingerprint,
)
from .patterns import (
    assignment_to_int,
    exhaustive_words,
    int_to_assignment,
    random_assignments,
    random_words,
    weighted_words,
)
from .metrics import (
    DEFAULT_MAX_MATRIX_BYTES,
    CorruptionReport,
    circuits_equal_on_patterns,
    functional_match_fraction,
    hamming_distance_words,
    measure_corruption,
    sample_wrong_keys,
)

__all__ = [
    "BitSimulator",
    "OpTapeEngine",
    "clear_engine_cache",
    "compile_engine",
    "engine_cache_info",
    "netlist_fingerprint",
    "popcount_lanes",
    "sample_wrong_keys",
    "DEFAULT_MAX_MATRIX_BYTES",
    "broadcast_constant",
    "n_words",
    "pack_patterns",
    "popcount_words",
    "simulate_many",
    "tail_mask",
    "unpack_patterns",
    "assignment_to_int",
    "exhaustive_words",
    "int_to_assignment",
    "random_assignments",
    "random_words",
    "weighted_words",
    "CorruptionReport",
    "circuits_equal_on_patterns",
    "functional_match_fraction",
    "hamming_distance_words",
    "measure_corruption",
]
