"""Experiment E1 — paper Table I.

For each benchmark circuit: apply OraP + weighted logic locking and report
Hamming distance under random wrong keys, plus area and delay overhead
after resynthesizing both circuit versions (the ABC-style
strash/refactor/rewrite pipeline), including the pulse generators and the
LFSR's reseeding/characteristic-polynomial XOR gates and excluding the
LFSR flip-flops — the paper's exact accounting.

Methodology notes mirrored from the paper:

* key (LFSR) sizes per circuit come from Table I, scaled with the circuit;
* control gates have 3 inputs (5 for b18/b19);
* the key-gate count grows until HD reaches 50% or saturates ("we stopped
  with smaller key sizes if output corruptibility with HD = 50% had been
  achieved ... or if output corruptibility, in terms of HD, saturated");
* HD is measured with long pseudorandom input sequences and several random
  wrong keys.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..bench import (
    PAPER_CIRCUITS,
    PAPER_ORDER,
    build_corpus_circuit,
    build_paper_circuit,
    corpus_circuit_names,
    corpus_key_size,
    scaled_key_size,
)
from ..lint import lint_netlist
from ..locking import WLLConfig, lock_weighted
from ..orap import LFSRConfig
from ..runtime.budget import Budget
from ..sim import measure_corruption
from ..synth import measure_overhead
from .common import DEFAULT_SCALE, format_table
from .runner import ExperimentRunner, RowTask, RunPolicy


@dataclass
class Table1Row:
    """One measured Table I row, with the published values alongside."""

    circuit: str
    n_gates: int
    n_outputs: int
    lfsr_size: int
    control_inputs: int
    n_key_gates: int
    hd_percent: float
    area_overhead_percent: float
    delay_overhead_percent: float
    paper_hd: float
    paper_area: float
    paper_delay: float


def lock_for_table1(
    netlist,
    key_width: int,
    control_inputs: int,
    hd_target: float = 50.0,
    saturation_delta: float = 1.0,
    n_patterns: int = 4096,
    n_keys: int = 8,
    rng: int = 0,
    budget: Budget | None = None,
):
    """Apply WLL, growing the key-gate count until HD hits the target or
    saturates.  Returns ``(locked, corruption_report, n_key_gates)``.

    ``budget`` (if given) is polled for its wall-clock deadline once per
    doubling step — each step simulates ``n_patterns * n_keys`` patterns,
    the natural checkpoint of this loop.
    """
    n_gates = max(1, key_width // control_inputs)
    best = None
    prev_hd = -1e9
    while True:
        if budget is not None:
            budget.check_deadline()
        cfg = WLLConfig(
            key_width=key_width,
            control_width=control_inputs,
            n_key_gates=n_gates,
        )
        locked = lock_weighted(netlist, cfg, rng=rng)
        report = measure_corruption(
            locked.locked,
            locked.key_inputs,
            locked.correct_key,
            n_patterns=n_patterns,
            n_keys=n_keys,
            seed=rng,
        )
        best = (locked, report, n_gates)
        if report.hd_percent >= hd_target:
            break
        if report.hd_percent - prev_hd < saturation_delta:
            break
        lockable = netlist.num_gates()
        if n_gates * 2 > lockable:
            break
        prev_hd = report.hd_percent
        n_gates *= 2
    return best


def _table1_compute(
    name: str,
    scale: float,
    n_patterns: int,
    n_keys: int,
    seed: int,
    budget: Budget | None = None,
) -> Table1Row:
    """One Table I row (module-level so it pickles to pool workers)."""
    spec = PAPER_CIRCUITS[name]
    netlist = build_paper_circuit(name, scale=scale)
    key_width = scaled_key_size(name, scale)
    locked, report, n_key_gates = lock_for_table1(
        netlist,
        key_width,
        spec.control_inputs,
        n_patterns=n_patterns,
        n_keys=n_keys,
        rng=seed,
        budget=budget,
    )
    lfsr_cfg = LFSRConfig(size=key_width)
    overhead = measure_overhead(locked.original, locked.locked, lfsr_cfg)
    return Table1Row(
        circuit=name,
        n_gates=netlist.num_gates(count_inverters=False),
        n_outputs=len(netlist.outputs),
        lfsr_size=key_width,
        control_inputs=spec.control_inputs,
        n_key_gates=n_key_gates,
        hd_percent=report.hd_percent,
        area_overhead_percent=overhead.area_overhead_percent,
        delay_overhead_percent=overhead.delay_overhead_percent,
        paper_hd=spec.hd_percent,
        paper_area=spec.area_overhead_percent,
        paper_delay=spec.delay_overhead_percent,
    )


def _table1_preflight(name: str, scale: float):
    return lint_netlist(
        build_paper_circuit(name, scale=scale),
        source=f"{name}@x{scale:g}",
    )


#: control-gate fan-in used for corpus circuits (the paper's default; it
#: uses 5 only for the giant b18/b19, which stay out of CI reach)
_CORPUS_CONTROL_INPUTS = 3


def _table1_corpus_compute(
    name: str,
    corpus: str,
    n_patterns: int,
    n_keys: int,
    seed: int,
    budget: Budget | None = None,
) -> Table1Row:
    """One Table I row on a genuine corpus netlist.

    The circuit comes from the corpus store (checksum-verified,
    parse-once via :mod:`repro.corpus.loader`); there are no published
    reference numbers for these rows, so the ``paper_*`` columns are 0.
    """
    netlist = build_corpus_circuit(name, corpus)
    key_width = corpus_key_size(netlist)
    locked, report, n_key_gates = lock_for_table1(
        netlist,
        key_width,
        _CORPUS_CONTROL_INPUTS,
        n_patterns=n_patterns,
        n_keys=n_keys,
        rng=seed,
        budget=budget,
    )
    lfsr_cfg = LFSRConfig(size=key_width)
    overhead = measure_overhead(locked.original, locked.locked, lfsr_cfg)
    return Table1Row(
        circuit=name,
        n_gates=netlist.num_gates(count_inverters=False),
        n_outputs=len(netlist.outputs),
        lfsr_size=key_width,
        control_inputs=_CORPUS_CONTROL_INPUTS,
        n_key_gates=n_key_gates,
        hd_percent=report.hd_percent,
        area_overhead_percent=overhead.area_overhead_percent,
        delay_overhead_percent=overhead.delay_overhead_percent,
        paper_hd=0.0,
        paper_area=0.0,
        paper_delay=0.0,
    )


def _table1_corpus_preflight(name: str, corpus: str):
    """Pre-flight lint from the parse-once handle (no file re-parse)."""
    from ..corpus.loader import load_corpus_circuit, preflight_report

    return preflight_report(load_corpus_circuit(name))


def _table1_corpus_prewarm(name: str, corpus: str, seed: int):
    """Pre-warm factory for corpus rows: the first locked netlist each
    row measures, compiled into the worker's op-tape cache at bootstrap."""
    netlist = build_corpus_circuit(name, corpus)
    key_width = corpus_key_size(netlist)
    cfg = WLLConfig(
        key_width=key_width,
        control_width=_CORPUS_CONTROL_INPUTS,
        n_key_gates=max(1, key_width // _CORPUS_CONTROL_INPUTS),
    )
    return lock_weighted(netlist, cfg, rng=seed).locked


def _table1_prewarm(name: str, scale: float, seed: int):
    """Pre-warm factory (module-level so it pickles with the policy):
    the locked netlist a row's *first* ``lock_for_table1`` step measures,
    so supervised workers compile it once at bootstrap instead of inside
    the row's budget."""
    spec = PAPER_CIRCUITS[name]
    netlist = build_paper_circuit(name, scale=scale)
    key_width = scaled_key_size(name, scale)
    cfg = WLLConfig(
        key_width=key_width,
        control_width=spec.control_inputs,
        n_key_gates=max(1, key_width // spec.control_inputs),
    )
    return lock_weighted(netlist, cfg, rng=seed).locked


def run_table1(
    scale: float = DEFAULT_SCALE,
    circuits: list[str] | None = None,
    n_patterns: int = 4096,
    n_keys: int = 8,
    seed: int = 0,
    policy: RunPolicy | None = None,
    corpus: str | None = None,
) -> list[Table1Row]:
    """Measure Table I rows on stand-in or genuine corpus circuits.

    ``policy`` governs per-row deadlines, retries, checkpoint/resume and
    worker-process count (``policy.jobs``); rows that end in
    ``timeout``/``budget``/``error`` are dropped from the table (their
    verdicts live in the checkpoint store).

    ``corpus`` switches the circuit source to a :mod:`repro.corpus`
    family (e.g. ``iscas85-mini``): circuits load from the verified
    store, ``scale`` is ignored, and the campaign fingerprint carries
    the per-circuit content digests so an updated corpus file is never
    served a stale resume row.
    """
    fingerprint: dict = {
        "scale": scale,
        "n_patterns": n_patterns,
        "n_keys": n_keys,
        "seed": seed,
    }
    if corpus is not None:
        from ..corpus.loader import corpus_digests

        names = list(circuits or corpus_circuit_names(corpus))
        fingerprint["corpus"] = corpus
        fingerprint["corpus_digests"] = corpus_digests(names)
        prewarm_of = lambda name: (_table1_corpus_prewarm,  # noqa: E731
                                   (name, corpus, seed))
    else:
        names = list(circuits or PAPER_ORDER)
        prewarm_of = lambda name: (_table1_prewarm,  # noqa: E731
                                   (name, scale, seed))
    if policy is not None and policy.jobs > 1 and not policy.prewarm:
        # supervised workers compile each row's first locked netlist at
        # bootstrap (optape.compile.shared) instead of inside row budgets
        policy = replace(
            policy, prewarm=tuple(prewarm_of(name) for name in names)
        )
    runner = ExperimentRunner(
        "table1",
        policy,
        fingerprint=fingerprint,
    )
    tasks = [
        RowTask(
            key=name,
            compute=(
                _table1_corpus_compute if corpus is not None
                else _table1_compute
            ),
            args=(
                (name, corpus, n_patterns, n_keys, seed)
                if corpus is not None
                else (name, scale, n_patterns, n_keys, seed)
            ),
            encode=asdict,
            decode=lambda d: Table1Row(**d),
            preflight=(
                _table1_corpus_preflight if corpus is not None
                else _table1_preflight
            ),
            preflight_args=(
                (name, corpus) if corpus is not None else (name, scale)
            ),
        )
        for name in names
    ]
    outcomes = runner.run_rows(tasks)
    return [o.value for o in outcomes if o.value is not None]


def print_table1(rows: list[Table1Row]) -> str:
    """Print Table I with paper columns; returns the text."""
    text = format_table(
        [
            "Circuit",
            "#Gates",
            "#Outputs",
            "LFSR",
            "Ctrl",
            "KeyGates",
            "HD%",
            "HD%(paper)",
            "ArOvhd%",
            "Ar%(paper)",
            "DelOvhd%",
            "Del%(paper)",
        ],
        [
            (
                r.circuit,
                r.n_gates,
                r.n_outputs,
                r.lfsr_size,
                r.control_inputs,
                r.n_key_gates,
                r.hd_percent,
                r.paper_hd,
                r.area_overhead_percent,
                r.paper_area,
                r.delay_overhead_percent,
                r.paper_delay,
            )
            for r in rows
        ],
        title="Table I — HD, area and delay overhead (OraP + WLL)",
    )
    print(text)
    return text


def main() -> None:  # pragma: no cover - CLI entry
    """Command-line entry point."""
    print_table1(run_table1())


if __name__ == "__main__":  # pragma: no cover
    main()
