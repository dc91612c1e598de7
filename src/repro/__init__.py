"""repro — reproduction of "Oracle-based Logic Locking Attacks: Protect the
Oracle Not Only the Netlist" (Kalligeros, Karousos, Karybali — DATE 2020).

Subpackages:

* :mod:`repro.netlist` — gate-level IR, scan-design model, BENCH/Verilog I/O
* :mod:`repro.sim` — bit-parallel simulation and corruption metrics
* :mod:`repro.sat` — CDCL solver, Tseitin encoding, equivalence checking
* :mod:`repro.locking` — WLL and the RLL/FLL/SARLock/Anti-SAT baselines
* :mod:`repro.orap` — the paper's contribution: LFSR key register with
  pulse-generator clears, reseeding schedules, the protected-chip model
* :mod:`repro.attacks` — SAT/AppSAT/Double-DIP/hill-climbing/sensitization/
  SPS/removal/bypass attacks over ideal and scan-level oracles
* :mod:`repro.threats` — Sect. III Trojan scenarios with payload accounting
* :mod:`repro.atpg` — stuck-at fault model, fault simulator, PODEM, SAT-ATPG
* :mod:`repro.synth` — AIG resynthesis and Table I overhead metrics
* :mod:`repro.bench` — benchmark fixtures, synthetic generator, paper registry
* :mod:`repro.experiments` — one harness per paper table/figure (E1..E5)
* :mod:`repro.runtime` — resource governance: budgets/deadlines, guarded
  execution, crash-safe checkpoints, deterministic fault injection

Quickstart::

    from repro.bench import generate_sequential, SequentialConfig, GeneratorConfig
    from repro.locking import WLLConfig
    from repro.orap import protect, OraPConfig

    design = generate_sequential(SequentialConfig(
        comb=GeneratorConfig(n_inputs=16, n_outputs=24, n_gates=300, seed=1),
        n_flops=12))
    protected = protect(design, orap=OraPConfig(variant="modified"),
                        wll=WLLConfig(key_width=24))
    chip = protected.chip
    chip.unlock()
    assert chip.is_unlocked()
    chip.enter_scan_mode()       # pulse generators clear the key register
    assert not chip.is_unlocked()
"""

__version__ = "1.9.0"

#: API stability: v1.  Everything in this table is the *frozen* public
#: surface — importable directly from ``repro`` — and follows the
#: deprecation policy in docs/ATTACK_API.md: a spelling is never removed
#: without a full release of :class:`DeprecationWarning` first, through a
#: shim written for that case (the pre-v1 ``max_flips``/``max_rounds``/
#: ``backend="optape"`` spellings, the simulation-lane knobs and the
#: eight job-service names completed that cycle and are gone).  Names
#: are resolved lazily (PEP 562) so ``import repro`` stays cheap for
#: programs that only need one subsystem.
_V1_EXPORTS: dict[str, str] = {
    # unified attack API (docs/ATTACK_API.md)
    "run_attack": "repro.attacks.api",
    "get_attack": "repro.attacks.api",
    "list_attacks": "repro.attacks.api",
    "AttackSpec": "repro.attacks.api",
    "AttackConfig": "repro.attacks",
    "AttackResult": "repro.attacks",
    "Oracle": "repro.attacks",
    # simulation + corruption metrics
    "measure_corruption": "repro.sim",
    "CorruptionReport": "repro.sim",
    "BitSimulator": "repro.sim",
    # resource governance
    "Budget": "repro.runtime",
    "CampaignInterrupted": "repro.runtime",
    "run_guarded": "repro.runtime",
    # campaign harnesses + execution policy
    "RunPolicy": "repro.experiments",
    "run_table1": "repro.experiments",
    "run_table2": "repro.experiments",
    "run_attack_matrix": "repro.experiments",
    "print_table1": "repro.experiments",
    "print_table2": "repro.experiments",
    "print_attack_matrix": "repro.experiments",
}

_SUBPACKAGES = [
    "netlist",
    "sim",
    "sat",
    "locking",
    "orap",
    "attacks",
    "threats",
    "atpg",
    "synth",
    "bench",
    "experiments",
    "runtime",
    "cache",
    "telemetry",
    "lint",
]

__all__ = [*_SUBPACKAGES, *sorted(_V1_EXPORTS)]


def __getattr__(name: str):
    """Lazy v1 re-exports (PEP 562)."""
    target = _V1_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
