"""Experiment E2 — paper Table II.

Stuck-at testability of the original vs the OraP+WLL-protected circuits.
The protected circuit is tested *locked*, but the key register (LFSR) sits
in the scan chains, so ATPG may assign the key inputs freely — they act as
extra control inputs, which is why the paper observes fault coverage
*improving* and the redundant+aborted count *shrinking* on every circuit.

Flow per circuit (mirroring the paper): random-pattern fault simulation
first (HOPE's role; the paper does this explicitly for b18/b19), then
deterministic high-effort generation for the survivors (Atalanta's role).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..atpg import run_atpg
from ..bench import build_paper_circuit
from ..locking import lock_weighted
from ..runtime.budget import Budget
from .common import DEFAULT_SCALE, format_table
from .runner import ExperimentRunner, RowTask, RunPolicy
from .source import CircuitSource


@dataclass
class Table2Row:
    """One measured Table II row with the published values alongside."""

    circuit: str
    fc_original: float
    red_abrt_original: int
    fc_protected: float
    red_abrt_protected: int
    paper_fc_original: float
    paper_red_abrt_original: int
    paper_fc_protected: float
    paper_red_abrt_protected: int


def _compute(
    name: str,
    source: CircuitSource,
    n_random_patterns: int,
    seed: int,
    budget: Budget | None = None,
) -> Table2Row:
    """One Table II row (module-level so it pickles to pool workers)."""
    # this module's own builder: perfbench/layers.py wraps it per module
    c = source.circuit(name, build_paper_circuit)
    locked = lock_weighted(c.netlist, c.first_wll(), rng=seed)
    rep_orig = run_atpg(
        c.netlist, n_random_patterns=n_random_patterns, seed=seed,
        budget=budget,
    )
    rep_prot = run_atpg(
        locked.locked, n_random_patterns=n_random_patterns, seed=seed,
        budget=budget,
    )
    return Table2Row(
        circuit=name,
        fc_original=rep_orig.fault_coverage_percent,
        red_abrt_original=rep_orig.redundant_plus_aborted,
        fc_protected=rep_prot.fault_coverage_percent,
        red_abrt_protected=rep_prot.redundant_plus_aborted,
        paper_fc_original=c.paper.fc_original,
        paper_red_abrt_original=c.paper.red_abrt_original,
        paper_fc_protected=c.paper.fc_protected,
        paper_red_abrt_protected=c.paper.red_abrt_protected,
    )


def _preflight(name: str, source: CircuitSource):
    return source.preflight(name, build_paper_circuit)


def _tasks(
    source: CircuitSource,
    circuits: list[str] | None,
    n_random_patterns: int,
    seed: int,
) -> tuple[dict, list[RowTask]]:
    """The campaign fingerprint and one row task per selected circuit.

    Raises :class:`CircuitSelectionError` for a bad selection.
    """
    names = source.names(circuits)
    fingerprint = source.fingerprint(
        names, scale=source.scale, n_random_patterns=n_random_patterns,
        seed=seed,
    )
    tasks = [
        RowTask(
            key=name,
            compute=_compute,
            args=(name, source, n_random_patterns, seed),
            encode=asdict,
            decode=lambda d: Table2Row(**d),
            preflight=_preflight,
            preflight_args=(name, source),
        )
        for name in names
    ]
    return fingerprint, tasks


def run_table2(
    scale: float = DEFAULT_SCALE,
    circuits: list[str] | None = None,
    n_random_patterns: int = 1024,
    seed: int = 0,
    policy: RunPolicy | None = None,
    corpus: str | None = None,
) -> list[Table2Row]:
    """Measure Table II rows on stand-in or genuine corpus circuits.

    ``policy`` governs per-row deadlines, retries and checkpoint/resume.
    The per-row budget is threaded through both ATPG runs (fault-sim
    pattern charges, PODEM backtracks, SAT-arbiter conflicts).
    ``corpus`` selects a :mod:`repro.corpus` family instead of the
    scaled stand-ins (``scale`` is then ignored; the fingerprint pins
    the per-circuit content digests).  A circuit outside the source
    raises :class:`~repro.experiments.source.CircuitSelectionError`
    before any row runs.
    """
    fingerprint, tasks = _tasks(
        CircuitSource(scale, corpus), circuits, n_random_patterns, seed
    )
    runner = ExperimentRunner("table2", policy, fingerprint=fingerprint)
    outcomes = runner.run_rows(tasks)
    return [o.value for o in outcomes if o.value is not None]


def print_table2(rows: list[Table2Row]) -> str:
    """Print Table II with paper columns; returns the text."""
    text = format_table(
        [
            "Circuit",
            "FC% orig",
            "FC% orig(paper)",
            "R+A orig",
            "R+A orig(paper)",
            "FC% prot",
            "FC% prot(paper)",
            "R+A prot",
            "R+A prot(paper)",
        ],
        [
            (
                r.circuit,
                r.fc_original,
                r.paper_fc_original,
                r.red_abrt_original,
                r.paper_red_abrt_original,
                r.fc_protected,
                r.paper_fc_protected,
                r.red_abrt_protected,
                r.paper_red_abrt_protected,
            )
            for r in rows
        ],
        title="Table II — stuck-at fault coverage, original vs protected",
    )
    print(text)
    return text


def main() -> None:  # pragma: no cover - CLI entry
    """Command-line entry point."""
    print_table2(run_table2())


if __name__ == "__main__":  # pragma: no cover
    main()
