"""Pins of the strashed-AIG miters the SAT-based attacks build.

Every AIG node and every clause the SAT, AppSAT, Double-DIP and
sequential attacks hand to the solver is recorded and hashed, so a
change of where the encoder lives or how it strashes a netlist must
build exactly the same instance, in the same order.  The pins patch
:class:`~repro.synth.aig.AIG` and :class:`~repro.sat.Solver` at class
level, so they hold whichever module builds the miter.
"""

import hashlib
import json

import pytest

from repro.attacks import (
    AppSATConfig,
    DoubleDIPConfig,
    FunctionalOracle,
    IdealOracle,
    SATAttackConfig,
    SequentialSATConfig,
    appsat_attack,
    doubledip_attack,
    sat_attack,
    sequential_sat_attack,
)
from repro.bench import GeneratorConfig, SequentialConfig, generate_netlist
from repro.bench import generate_sequential
from repro.locking import WLLConfig, lock_random, lock_sarlock, lock_weighted
from repro.orap import OraPConfig, protect
from repro.sat import Solver
from repro.synth.aig import AIG


@pytest.fixture
def record(monkeypatch):
    """``record(run)`` calls ``run()`` while recording every AIG built and
    every clause added to a solver; returns its result and their digest."""

    def run_recorded(run):
        aigs, clauses = [], []
        aig_init, add_clause = AIG.__init__, Solver.add_clause

        def init(self):
            aig_init(self)
            aigs.append(self)

        def add(self, literals):
            lits = list(literals)
            clauses.append(lits)
            return add_clause(self, lits)

        with monkeypatch.context() as patch:
            patch.setattr(AIG, "__init__", init)
            patch.setattr(Solver, "add_clause", add)
            result = run()
        payload = json.dumps(
            [[[a.fanin0, a.fanin1, len(a.pis)] for a in aigs], clauses]
        )
        return result, hashlib.sha256(payload.encode()).hexdigest()[:16]

    return run_recorded


# the tests/test_attacks.py fixtures
def _host():
    return generate_netlist(
        GeneratorConfig(
            n_inputs=14, n_outputs=10, n_gates=110, depth=7, seed=9, name="atk"
        )
    )


_LOCKS = {
    "rll": lambda: lock_random(_host(), key_width=8, rng=2),
    "wll": lambda: lock_weighted(
        _host(), WLLConfig(key_width=12, control_width=3, n_key_gates=6), rng=2
    ),
    "sar": lambda: lock_sarlock(_host(), key_width=7, rng=2),
}

#: one DIP each: the keyed copies, then one I/O-constraint copy per key
_ONE_DIP = {
    "sat": (sat_attack, SATAttackConfig(max_iterations=1)),
    "appsat": (appsat_attack, AppSATConfig(max_iterations=1)),
    "doubledip": (doubledip_attack, DoubleDIPConfig(max_iterations=1)),
}

#: sha256 prefixes of (AIG arrays, clause list) per (attack, lock)
_PINNED_MITERS = {
    ("appsat", "rll"): "90a8fd759bbddedc",
    ("appsat", "sar"): "a728ca1b29c693e3",
    ("appsat", "wll"): "b77b6f4cae15683b",
    ("doubledip", "rll"): "0f6526ca16c7cee2",
    ("doubledip", "sar"): "223c61efc612160a",
    ("doubledip", "wll"): "ff07f00de3b93283",
    ("sat", "rll"): "de9440d31aa4f6a2",
    ("sat", "sar"): "ddfacb8297735efb",
    ("sat", "wll"): "adae3364a3e40cb9",
}


def _small():
    host = generate_netlist(
        GeneratorConfig(
            n_inputs=8, n_outputs=6, n_gates=40, depth=5, seed=4, name="pin"
        )
    )
    return lock_random(host, key_width=6, rng=1)


def _sequential():
    design = generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=8, n_outputs=10, n_gates=60, depth=5, seed=16,
                name="seq60",
            ),
            n_flops=4,
        )
    )
    return protect(
        design,
        orap=OraPConfig(variant="basic"),
        wll=WLLConfig(key_width=6, control_width=3, n_key_gates=2),
        rng=5,
    )


def _whole_run(attack):
    """The attack's run, built before recording starts (locking and
    protection run equivalence checks of their own)."""
    if attack == "sequential":
        protected = _sequential()
        design, keys = protected.design, protected.locked.key_inputs
        oracle = FunctionalOracle(protected.build_chip())
        config = SequentialSATConfig(
            depth=2, max_iterations=32, verify_sequences=2
        )
        return lambda: sequential_sat_attack(design, keys, oracle, config)
    lc = _small()
    run = {"sat": sat_attack, "appsat": appsat_attack,
           "doubledip": doubledip_attack}[attack]
    return lambda: run(lc.locked, lc.key_inputs, IdealOracle(lc.original))


#: (iterations, oracle_queries, recovered_key, digest) of a whole run
_SMALL_KEY = {
    "keyinput0": 1, "keyinput1": 1, "keyinput2": 0,
    "keyinput3": 0, "keyinput4": 1, "keyinput5": 0,
}
_PINNED_RUNS = {
    "appsat": (2, 2, _SMALL_KEY, "a66be22bbec29f78"),
    "doubledip": (2, 2, _SMALL_KEY, "6dbf6204c6c0ee7b"),
    "sat": (5, 5, _SMALL_KEY, "b5aa4601d67be054"),
    "sequential": (
        1, 3,
        {
            "keyinput0": 1, "keyinput1": 1, "keyinput2": 0,
            "keyinput3": 1, "keyinput4": 0, "keyinput5": 0,
        },
        "a23582a3ebccd7d7",
    ),
}


class TestPinnedMiters:
    @pytest.mark.parametrize("case", sorted(_PINNED_MITERS))
    def test_one_dip_miter(self, case, record):
        attack, lock = case
        run, config = _ONE_DIP[attack]
        lc = _LOCKS[lock]()
        oracle = IdealOracle(lc.original)
        _, digest = record(
            lambda: run(lc.locked, lc.key_inputs, oracle, config)
        )
        assert digest == _PINNED_MITERS[case]

    @pytest.mark.parametrize("attack", sorted(_PINNED_RUNS))
    def test_whole_run(self, attack, record):
        res, digest = record(_whole_run(attack))
        got = (res.iterations, res.oracle_queries, res.recovered_key, digest)
        assert got == _PINNED_RUNS[attack]
