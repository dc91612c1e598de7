"""Output-corruption metrics for locked circuits.

The headline metric is the paper's Hamming distance (HD): the average
fraction of primary outputs that differ between the correctly-keyed circuit
and a wrongly-keyed one, over many input patterns and several random wrong
keys.  50% is optimal [3]; Table I reports per-circuit HD for OraP + WLL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..netlist import Netlist
from .bitsim import (
    BitSimulator,
    broadcast_constant,
    popcount_lanes,
    popcount_words,
    tail_mask,
)
from .optape import compile_engine
from .patterns import random_words

#: result-cache salt for HD measurements — bump whenever the sampling or
#: reduction semantics of :func:`measure_corruption` change, so stale
#: entries written by the old engine auto-invalidate.  v3: the key
#: records the scalar-vs-batched strategy instead of an execution-lane
#: name (there is one lane).
CACHE_VERSION = 3

#: cap on the batched value matrix (``n_nets * lanes * n_words * 8``
#: bytes); wider workloads evaluate their wrong keys in lane chunks.
#: 32 MiB keeps the working set L3-resident: measured on the Table I
#: workload, a 1 GiB budget (no chunking) drops from ~12x to 2-4x over
#: the scalar loop once the matrix spills to DRAM.
DEFAULT_MAX_MATRIX_BYTES = 32 << 20


@dataclass(frozen=True)
class CorruptionReport:
    """HD measurement summary.

    Attributes:
        hd_percent: mean Hamming distance over outputs/patterns/keys, in %.
        per_key_hd: HD% per sampled wrong key.
        corrupted_pattern_fraction: fraction of patterns with >= 1 corrupted
            output (output corruption probability).
        n_patterns: patterns simulated per key.
        n_keys: wrong keys sampled.
    """

    hd_percent: float
    per_key_hd: tuple[float, ...]
    corrupted_pattern_fraction: float
    n_patterns: int
    n_keys: int


def hamming_distance_words(a: np.ndarray, b: np.ndarray, n_patterns: int) -> int:
    """Total differing bits between two packed output matrices."""
    diff = a ^ b
    diff[:, -1] &= tail_mask(n_patterns)
    return popcount_words(diff)


def sample_wrong_keys(
    key_inputs: Sequence[str],
    correct_key: Mapping[str, int],
    n_keys: int,
    seed: int = 0,
) -> list[tuple[int, ...]]:
    """Sample ``n_keys`` uniformly random key vectors != the correct one.

    The rejection-sampling draw order is fixed, so the batched and scalar
    corruption backends measure the *same* wrong keys bit for bit.
    """
    if not key_inputs:
        raise ValueError("no key inputs to sample wrong keys over")
    rng = np.random.default_rng(seed + 1)
    correct_vec = tuple(int(bool(correct_key[k])) for k in key_inputs)
    vecs: list[tuple[int, ...]] = []
    for _ in range(n_keys):
        while True:
            vec = tuple(int(b) for b in rng.integers(0, 2, size=len(key_inputs)))
            if vec != correct_vec:
                break
        vecs.append(vec)
    return vecs


def measure_corruption(
    locked: Netlist,
    key_inputs: Sequence[str],
    correct_key: Mapping[str, int],
    n_patterns: int = 2048,
    n_keys: int = 16,
    seed: int = 0,
    backend: str = "auto",
) -> CorruptionReport:
    """Measure HD of a locked netlist under random wrong keys.

    Simulates the same pseudorandom input block once with the correct key
    and once per sampled wrong key; differences over all outputs are the HD.

    Args:
        backend: ``"auto"`` (default) or its synonym ``"batched"`` runs
            the multi-key-lane reduction on the compiled op-tape engine;
            ``"scalar"`` is the original one-simulation-per-key
            :class:`BitSimulator` loop, kept as the cross-check oracle.
            Both sample identical keys and return identical reports.
            Any other name raises :class:`ValueError`.  Key lanes are
            evaluated in balanced chunks under the fixed
            :data:`DEFAULT_MAX_MATRIX_BYTES`.

    When the process-global result cache (:mod:`repro.cache`) is
    configured, measurements are served from and inserted into it.  The
    cache key covers the netlist *content* hash, the key-input order,
    the correct key bits, ``n_patterns``/``n_keys``/``seed``, the
    scalar-vs-batched strategy and this module's :data:`CACHE_VERSION`.
    """
    if backend not in ("auto", "batched", "scalar"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'auto', 'batched' "
            "or 'scalar'"
        )
    strategy = "scalar" if backend == "scalar" else "batched"
    store, ck = _corruption_cache_key(
        locked, key_inputs, correct_key, n_patterns, n_keys, seed, strategy
    )
    if store is not None and ck is not None:
        payload = store.get(ck)
        report = _report_from_payload(payload)
        if report is not None:
            return report
    report = _measure(
        locked, key_inputs, correct_key, n_patterns, n_keys, seed, strategy
    )
    if store is not None and ck is not None:
        store.put(ck, _report_to_payload(report))
    return report


def _measure(
    locked: Netlist,
    key_inputs: Sequence[str],
    correct_key: Mapping[str, int],
    n_patterns: int,
    n_keys: int,
    seed: int,
    strategy: str,
) -> CorruptionReport:
    """One uncached HD measurement.  ``strategy`` is ``"scalar"`` (the
    :class:`BitSimulator` oracle) or ``"batched"`` (key lanes on the
    compiled engine)."""
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]
    if not data_inputs:
        raise ValueError("no non-key inputs to drive")
    data_words = random_words(len(data_inputs), n_patterns, seed=seed)
    wrong_vecs = sample_wrong_keys(key_inputs, correct_key, n_keys, seed=seed)
    correct_vec = tuple(int(bool(correct_key[k])) for k in key_inputs)
    if strategy == "scalar":
        per_key, frac = _corruption_scalar(
            locked, key_inputs, correct_vec, wrong_vecs, data_inputs,
            data_words, n_patterns,
        )
    else:
        per_key, frac = _corruption_batched(
            locked, key_inputs, correct_vec, wrong_vecs, data_inputs,
            data_words, n_patterns,
        )
    return CorruptionReport(
        hd_percent=float(np.mean(per_key)) if per_key else 0.0,
        per_key_hd=tuple(per_key),
        corrupted_pattern_fraction=frac,
        n_patterns=n_patterns,
        n_keys=n_keys,
    )


def _corruption_cache_key(
    locked: Netlist,
    key_inputs: Sequence[str],
    correct_key: Mapping[str, int],
    n_patterns: int,
    n_keys: int,
    seed: int,
    strategy: str,
):
    """(store, key) for one HD measurement — (None, None) when caching
    is disabled or the inputs have no stable content address."""
    from .. import cache as result_cache

    store = result_cache.active()
    if store is None:
        return None, None
    try:
        ck = result_cache.cache_key(
            "sim.corruption",
            salt=f"sim.metrics/{CACHE_VERSION}",
            netlist=locked,
            key_inputs=list(key_inputs),
            correct_key=[int(bool(correct_key[k])) for k in key_inputs],
            n_patterns=int(n_patterns),
            n_keys=int(n_keys),
            seed=int(seed),
            strategy=strategy,
        )
    except (result_cache.Uncacheable, KeyError):
        return None, None
    return store, ck


def _report_to_payload(report: CorruptionReport) -> dict:
    return {
        "hd_percent": report.hd_percent,
        "per_key_hd": list(report.per_key_hd),
        "corrupted_pattern_fraction": report.corrupted_pattern_fraction,
        "n_patterns": report.n_patterns,
        "n_keys": report.n_keys,
    }


def _report_from_payload(payload: dict | None) -> CorruptionReport | None:
    if payload is None:
        return None
    try:
        return CorruptionReport(
            hd_percent=float(payload["hd_percent"]),
            per_key_hd=tuple(float(h) for h in payload["per_key_hd"]),
            corrupted_pattern_fraction=float(
                payload["corrupted_pattern_fraction"]
            ),
            n_patterns=int(payload["n_patterns"]),
            n_keys=int(payload["n_keys"]),
        )
    except (KeyError, TypeError, ValueError):
        # malformed cached payload degrades to a recompute
        return None


def _corruption_batched(
    locked: Netlist,
    key_inputs: Sequence[str],
    correct_vec: tuple[int, ...],
    wrong_vecs: list[tuple[int, ...]],
    data_inputs: list[str],
    data_words: np.ndarray,
    n_patterns: int,
) -> tuple[list[float], float]:
    """Multi-key-lane HD reduction on the compiled op-tape engine.

    The golden (correct-key) lane rides as lane 0 of the first chunk —
    one engine pass fewer per measurement — and lanes are split into
    *balanced* chunks under the byte cap: the per-pass Python dispatch
    floor makes two 33-lane passes cheaper than a 51- plus a 14-lane
    one.
    """
    engine = compile_engine(locked)
    nw = data_words.shape[1]
    all_vecs = np.array([correct_vec, *wrong_vecs], dtype=np.uint8)
    total = all_vecs.shape[0]
    lane_cap = max(1, DEFAULT_MAX_MATRIX_BYTES // max(1, engine.n_nets * nw * 8))
    n_chunks = -(-total // lane_cap)
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)
    mask = tail_mask(n_patterns)
    per_key: list[float] = []
    corrupted_patterns = np.zeros(nw, dtype=np.uint64)
    golden: np.ndarray | None = None
    n_out = len(locked.outputs)
    for ci in range(n_chunks):
        chunk = all_vecs[bounds[ci] : bounds[ci + 1]]
        outs = engine.run_keyed(data_inputs, data_words, key_inputs, chunk)
        if ci == 0:
            golden = outs[0]  # (n_outputs, n_words)
            outs = outs[1:]
            if not outs.shape[0]:  # golden-only chunk (tiny byte caps)
                continue
        diff = outs ^ golden[None, :, :]  # (chunk_keys, n_outputs, n_words)
        # the final word of EVERY key lane carries padding bits beyond
        # n_patterns — mask each lane, not just the last one
        diff[:, :, -1] &= mask
        hd = 100.0 * popcount_lanes(diff) / (n_out * n_patterns)
        per_key.extend(float(h) for h in hd)
        corrupted_patterns |= np.bitwise_or.reduce(diff, axis=(0, 1))
    frac = popcount_words(corrupted_patterns) / n_patterns
    return per_key, frac


def _corruption_scalar(
    locked: Netlist,
    key_inputs: Sequence[str],
    correct_vec: tuple[int, ...],
    wrong_vecs: list[tuple[int, ...]],
    data_inputs: list[str],
    data_words: np.ndarray,
    n_patterns: int,
) -> tuple[list[float], float]:
    """Reference backend: one full BitSimulator pass per key."""
    sim = BitSimulator(locked)
    nw = data_words.shape[1]

    def run_with_key(vec: tuple[int, ...]) -> np.ndarray:
        in_words: dict[str, np.ndarray] = {
            name: data_words[i] for i, name in enumerate(data_inputs)
        }
        for k, bit in zip(key_inputs, vec):
            in_words[k] = broadcast_constant(int(bool(bit)), nw)
        return sim.run_outputs(in_words)

    golden = run_with_key(correct_vec)
    n_out = golden.shape[0]
    per_key: list[float] = []
    corrupted_patterns = np.zeros(nw, dtype=np.uint64)
    for vec in wrong_vecs:
        out = run_with_key(vec)
        diff = out ^ golden
        diff[:, -1] &= tail_mask(n_patterns)
        per_key.append(100.0 * popcount_words(diff) / (n_out * n_patterns))
        corrupted_patterns |= np.bitwise_or.reduce(diff, axis=0)
    frac = popcount_words(corrupted_patterns) / n_patterns
    return per_key, frac


def functional_match_fraction(
    a: Netlist,
    b: Netlist,
    n_patterns: int = 1024,
    seed: int = 0,
    inputs_a: Mapping[str, int] | None = None,
    inputs_b: Mapping[str, int] | None = None,
) -> float:
    """Fraction of (pattern, output) pairs on which two circuits agree.

    The circuits must have identical non-fixed input lists and identically
    ordered output lists.  ``inputs_a``/``inputs_b`` pin some inputs of
    either circuit (e.g. a key) to constants.
    """
    fixed_a = dict(inputs_a or {})
    fixed_b = dict(inputs_b or {})
    free_a = [i for i in a.inputs if i not in fixed_a]
    free_b = [i for i in b.inputs if i not in fixed_b]
    if free_a != free_b:
        raise ValueError("free input lists must match (same names and order)")
    if len(a.outputs) != len(b.outputs):
        raise ValueError("output counts must match")
    words = random_words(len(free_a), n_patterns, seed=seed)
    nw = words.shape[1]

    def run(netlist: Netlist, fixed: Mapping[str, int]) -> np.ndarray:
        in_words = {name: words[i] for i, name in enumerate(free_a)}
        for k, v in fixed.items():
            in_words[k] = broadcast_constant(int(bool(v)), nw)
        return compile_engine(netlist).run_outputs(in_words)

    out_a = run(a, fixed_a)
    out_b = run(b, fixed_b)
    differing = hamming_distance_words(out_a, out_b, n_patterns)
    total = len(a.outputs) * n_patterns
    return 1.0 - differing / total


def circuits_equal_on_patterns(
    a: Netlist,
    b: Netlist,
    n_patterns: int = 1024,
    seed: int = 0,
    inputs_a: Mapping[str, int] | None = None,
    inputs_b: Mapping[str, int] | None = None,
) -> bool:
    """Simulation-based equivalence check (sound only as a refuter)."""
    return (
        functional_match_fraction(
            a, b, n_patterns=n_patterns, seed=seed, inputs_a=inputs_a, inputs_b=inputs_b
        )
        == 1.0
    )
