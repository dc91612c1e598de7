"""Experiment E3 — the Sect. II-A security analysis as a measured matrix.

The paper's core security claims, turned into runnable checks:

* every oracle-based attack (SAT, AppSAT, Double DIP, hill climbing, key
  sensitization) succeeds against the conventional chip (the oracle every
  prior paper assumes) on low-resistance locking;
* against an OraP-protected chip the very same attacks complete against
  the scan interface but recover a *wrong* key, because every response is
  the locked circuit's;
* the oracle-less structural attacks (SPS, removal) succeed against
  Anti-SAT/SARLock but not against OraP+WLL (no probability skew; removal
  does not unlock);
* bypass needs point-function-level corruptibility, which WLL denies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass

from ..attacks import (
    AppSATConfig,
    DoubleDIPConfig,
    HillClimbConfig,
    SATAttackConfig,
    ScanOracle,
    key_is_correct,
    netlist_is_correct,
    run_attack,
)
from ..bench import GeneratorConfig, SequentialConfig, generate_sequential
from ..locking import WLLConfig
from ..orap import OraPConfig, protect
from ..runtime.budget import Budget
from .common import format_table
from .runner import ExperimentRunner, RunPolicy
from .source import CircuitSource


@dataclass
class MatrixCell:
    """One (attack, chip) outcome."""

    attack: str
    chip: str  # "conventional" or "orap"
    completed: bool
    key_correct: bool
    iterations: int
    oracle_queries: int
    #: how the attack's run ended: "ok", "timeout", "budget" or "error"
    status: str = "ok"


def default_design(seed: int = 7, variant: str = "basic"):
    """The locked design used by the matrix (small enough for every attack)."""
    design = generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=12,
                n_outputs=18,
                n_gates=150,
                depth=7,
                seed=4,
                name="matrix150",
            ),
            n_flops=10,
        )
    )
    return _protect(design, seed, variant)


def _protect(host, seed: int, variant: str):
    """OraP plus the matrix's WLL lock on a sequential host."""
    return protect(
        host,
        orap=OraPConfig(variant=variant),
        wll=WLLConfig(key_width=12, control_width=3, n_key_gates=6),
        rng=seed,
    )


def run_attack_matrix(
    variant: str = "basic",
    seed: int = 7,
    max_iterations: int = 128,
    attack_deadline_s: float | None = None,
    design=None,
    policy: RunPolicy | None = None,
    corpus: str | None = None,
    circuit: str | None = None,
) -> list[MatrixCell]:
    """Run every oracle-based attack against both chip types.

    Args:
        attack_deadline_s: wall-clock allowance per attack; expired
            attacks show as ``timeout`` rows (shorthand for a ``policy``
            with ``row_deadline_s`` set).
        design: pre-built protected design (tests inject tiny ones);
            defaults to :func:`default_design`.
        policy: full per-row execution policy (deadlines, retries,
            checkpoint/resume).
        corpus / circuit: host the protected design on a genuine
            :mod:`repro.corpus` circuit instead of the synthetic
            stand-in (``circuit=None``: the family's first sequential
            circuit); the fingerprint then pins the host's content
            digest.  A bad selection raises
            :class:`~repro.experiments.source.CircuitSelectionError`.
    """
    policy = policy or RunPolicy()
    if attack_deadline_s is not None:
        policy = dataclasses.replace(policy, row_deadline_s=attack_deadline_s)
    source = CircuitSource(corpus=corpus)
    hosts: list[str] = []
    if design is None and corpus is not None:
        host_name, host = source.host(circuit, sequential=True)
        hosts.append(host_name)
        design = _protect(host, seed, variant)
    d = design if design is not None else default_design(seed=seed, variant=variant)
    locked = d.locked

    # one lint pass over the protected design, shared by every cell's
    # pre-flight: a malformed chip yields a matrix of error rows instead
    # of attacks "succeeding" against a broken oracle
    from ..lint import lint_orap

    design_report = lint_orap(d)

    runner = ExperimentRunner(
        "attack_matrix",
        policy,
        fingerprint=source.fingerprint(
            hosts,
            variant=variant,
            seed=seed,
            max_iterations=max_iterations,
            deadline_s=policy.row_deadline_s,
            corpus=corpus,
            circuit=circuit,
        ),
    )
    cells: list[MatrixCell] = []

    # every cell dispatches through the unified registry
    # (:func:`repro.attacks.run_attack`); only non-default configs are
    # spelled out here
    suite_configs = {
        "sat": SATAttackConfig(max_iterations=max_iterations),
        "appsat": AppSATConfig(max_iterations=max_iterations),
        "doubledip": DoubleDIPConfig(max_iterations=max_iterations),
        "hillclimb": HillClimbConfig(n_patterns=128, restarts=16),
        "sensitization": None,
    }

    def attack_suite(oracle):
        return [
            (
                name,
                lambda budget=None, name=name, cfg=cfg: run_attack(
                    name, locked, oracle, config=cfg, budget=budget
                ),
            )
            for name, cfg in suite_configs.items()
        ]

    def run_cell(key, attack_name, chip_kind, run, correct_of):
        """One guarded (attack, chip) cell; appends a row no matter what."""

        def compute(budget: Budget | None = None) -> MatrixCell:
            result = run(budget=budget)
            return MatrixCell(
                attack=attack_name,
                chip=chip_kind,
                completed=result.completed,
                key_correct=correct_of(result),
                iterations=result.iterations,
                oracle_queries=result.oracle_queries,
                status=result.status,
            )

        outcome = runner.run_row(
            key,
            compute,
            encode=asdict,
            decode=lambda p: MatrixCell(**p),
            preflight=lambda: design_report,
        )
        if outcome.value is not None:
            cells.append(outcome.value)
        else:
            # the guarded executor caught what the attack did not
            cells.append(
                MatrixCell(
                    attack=attack_name,
                    chip=chip_kind,
                    completed=False,
                    key_correct=False,
                    iterations=0,
                    oracle_queries=0,
                    status=outcome.status.value,
                )
            )

    def key_correct_of(result):
        return key_is_correct(locked, result.recovered_key)

    def netlist_correct_of(result):
        return netlist_is_correct(locked, result.notes.get("netlist"))

    for chip_kind in ("conventional", "orap"):
        chip = d.baseline_chip() if chip_kind == "conventional" else d.build_chip()
        chip.reset()
        chip.unlock()
        for name, run in attack_suite(ScanOracle(chip)):
            run_cell(f"{chip_kind}-{name}", name, chip_kind, run, key_correct_of)

    # oracle-less structural attacks on the OraP+WLL netlist
    run_cell(
        "orap-sps",
        "sps",
        "orap",
        lambda budget=None: run_attack("sps", locked),
        netlist_correct_of,
    )
    run_cell(
        "orap-removal",
        "removal",
        "orap",
        lambda budget=None: run_attack("removal", locked),
        netlist_correct_of,
    )
    # bypass needs the oracle and low corruptibility; run against the
    # conventional chip so its failure is attributable to WLL, not OraP
    base = d.baseline_chip()
    base.reset()
    base.unlock()
    base_oracle = ScanOracle(base)
    run_cell(
        "conventional-bypass",
        "bypass",
        "conventional",
        lambda budget=None: run_attack(
            "bypass", locked, base_oracle, budget=budget
        ),
        netlist_correct_of,
    )
    return cells


def print_attack_matrix(cells: list[MatrixCell]) -> str:
    """Print the attack matrix; returns the text."""
    text = format_table(
        [
            "Attack",
            "Chip",
            "Completed",
            "Key/netlist correct",
            "Iters",
            "Queries",
            "Status",
        ],
        [
            (
                c.attack,
                c.chip,
                c.completed,
                c.key_correct,
                c.iterations,
                c.oracle_queries,
                c.status,
            )
            for c in cells
        ],
        title="Attack matrix — oracle-based attacks vs conventional and OraP chips",
    )
    print(text)
    return text


def main() -> None:  # pragma: no cover - CLI entry
    """Command-line entry point."""
    for variant in ("basic", "modified"):
        print(f"\n=== OraP variant: {variant} ===")
        print_attack_matrix(run_attack_matrix(variant=variant))


if __name__ == "__main__":  # pragma: no cover
    main()
