"""Tests for cyclic logic locking and the CycSAT attack."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacks import (
    CycSATConfig,
    IdealOracle,
    cycsat_attack,
    no_cycle_clauses,
    sat_attack,
)
from repro.bench import GeneratorConfig, generate_netlist
from repro.locking import LockingError, induced_acyclic_netlist, lock_cyclic
from repro.sat import check_equivalence


@pytest.fixture(scope="module")
def circuit():
    return generate_netlist(
        GeneratorConfig(
            n_inputs=12, n_outputs=8, n_gates=90, depth=6, seed=4, name="cy"
        )
    )


@pytest.fixture(scope="module")
def cyclic(circuit):
    return lock_cyclic(circuit, n_feedbacks=6, rng=3)


class TestCyclicLocking:
    def test_locked_netlist_is_structurally_cyclic(self, cyclic):
        assert cyclic.locked.allow_cycles
        plain = cyclic.locked.copy()
        plain.allow_cycles = False
        plain._invalidate()
        from repro.netlist import NetlistError

        with pytest.raises(NetlistError, match="cycle"):
            plain.topological_order()

    def test_correct_key_breaks_all_cycles(self, cyclic):
        ind = induced_acyclic_netlist(
            cyclic.locked, cyclic.correct_key, cyclic.extra["feedback_muxes"]
        )
        assert ind is not None
        eq, _ = check_equivalence(cyclic.original, ind)
        assert eq

    def test_feedback_selecting_key_is_invalid(self, cyclic):
        wrong = dict(cyclic.correct_key)
        wrong[cyclic.key_inputs[0]] ^= 1
        ind = induced_acyclic_netlist(
            cyclic.locked, wrong, cyclic.extra["feedback_muxes"]
        )
        assert ind is None

    def test_mux_bookkeeping(self, cyclic):
        muxes = cyclic.extra["feedback_muxes"]
        assert len(muxes) == 6
        for mux, sel_key, fb_value in muxes:
            g = cyclic.locked.gate(mux)
            assert g.fanin[0] == sel_key
            assert cyclic.correct_key[sel_key] == 1 - fb_value

    def test_too_many_feedbacks_rejected(self, circuit):
        with pytest.raises(LockingError):
            lock_cyclic(circuit, n_feedbacks=10_000, rng=0)


class TestCycSAT:
    def test_plain_sat_attack_not_applicable(self, cyclic):
        """The pre-CycSAT state of the world: the DIP loop cannot even
        encode the cyclic netlist."""
        with pytest.raises(ValueError, match="cyclic"):
            sat_attack(
                cyclic.locked, cyclic.key_inputs, IdealOracle(cyclic.original)
            )

    def test_nc_clauses_cover_every_enumerated_cycle(self, cyclic):
        key_vars = {k: i + 1 for i, k in enumerate(cyclic.key_inputs)}
        clauses = no_cycle_clauses(
            cyclic.locked, cyclic.extra["feedback_muxes"], key_vars
        )
        assert clauses
        assert all(len(c) >= 1 for c in clauses)
        # the correct key satisfies every NC clause
        model = {
            key_vars[k]: bool(v) for k, v in cyclic.correct_key.items()
        }
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_cycsat_recovers_valid_key(self, cyclic):
        res = cycsat_attack(
            cyclic, IdealOracle(cyclic.original), CycSATConfig()
        )
        assert res.completed
        key = {k: res.recovered_key[k] for k in cyclic.key_inputs}
        ind = induced_acyclic_netlist(
            cyclic.locked, key, cyclic.extra["feedback_muxes"]
        )
        assert ind is not None  # NC condition honoured
        eq, _ = check_equivalence(cyclic.original, ind)
        assert eq


def test_campaigns_load_without_networkx():
    """networkx (the ``cyclic`` extra) is imported by CycSAT's cycle
    enumeration alone, not by loading the harnesses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "import repro.experiments, repro.attacks.cycsat\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
