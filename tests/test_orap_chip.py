"""Tests for the pulse generator, key register, and protected-chip model."""

import hashlib
import json
import random

import pytest

from repro.bench import GeneratorConfig, SequentialConfig, generate_sequential
from repro.locking import WLLConfig
from repro.orap import (
    ChipError,
    KeyRegister,
    LFSRConfig,
    OraPConfig,
    PulseGenerator,
    ScanCellKind,
    TrojanHooks,
    protect,
)


@pytest.fixture(scope="module")
def design():
    return generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=10, n_outputs=14, n_gates=110, depth=6, seed=4, name="d"
            ),
            n_flops=8,
        )
    )


@pytest.fixture(scope="module")
def protected(design):
    return protect(
        design,
        orap=OraPConfig(variant="basic"),
        wll=WLLConfig(key_width=10, control_width=3, n_key_gates=4),
        rng=9,
    )


class TestPulseGenerator:
    def test_fires_only_on_rising_edge(self):
        p = PulseGenerator()
        p.reset(scan_enable=0)
        assert not p.sense(0)
        assert p.sense(1)  # 0 -> 1
        assert not p.sense(1)  # level hold
        assert not p.sense(0)  # falling edge
        assert p.sense(1)  # rising again

    def test_suppression(self):
        p = PulseGenerator(suppressed=True)
        p.reset(scan_enable=0)
        assert not p.sense(1)

    def test_gate_cost(self):
        assert PulseGenerator().gate_cost() == 4  # 3 inverters + NAND2


class TestKeyRegister:
    def test_clear_on_scan_enable(self):
        kr = KeyRegister(LFSRConfig(size=8))
        for g in kr.pulses:
            g.reset(0)
        kr.lfsr.state = [1] * 8
        cleared = kr.sense_scan_enable(1)
        assert cleared == list(range(8))
        assert kr.key_bits() == [0] * 8

    def test_partial_suppression(self):
        kr = KeyRegister(LFSRConfig(size=4))
        for g in kr.pulses:
            g.reset(0)
        kr.suppress_pulses([1, 3])
        kr.lfsr.state = [1, 1, 1, 1]
        kr.sense_scan_enable(1)
        assert kr.key_bits() == [0, 1, 0, 1]

    def test_unlock_step_requires_enable(self):
        kr = KeyRegister(LFSRConfig(size=4))
        with pytest.raises(RuntimeError):
            kr.unlock_step([0, 0, 0, 0])
        kr.begin_unlock()
        kr.unlock_step([1, 0, 0, 0])
        kr.freeze()
        with pytest.raises(RuntimeError):
            kr.unlock_step([0, 0, 0, 0])

    def test_scan_cell_access(self):
        kr = KeyRegister(LFSRConfig(size=4))
        kr.scan_cell_set(2, 1)
        assert kr.scan_cell_get(2) == 1

    def test_gate_overhead_accounting(self):
        cfg = LFSRConfig(size=16, taps=(8,), reseed_points=tuple(range(16)))
        o = KeyRegister(cfg).gate_overhead()
        assert o["pulse_generators"] == 16 * 4
        assert o["reseed_xors"] == 16
        assert o["feedback_xors"] == 1
        assert o["total"] == 64 + 16 + 1


class TestChipUnlock:
    def test_unlock_reaches_correct_key(self, protected):
        chip = protected.build_chip()
        chip.reset()
        assert not chip.is_unlocked()
        chip.unlock()
        assert chip.is_unlocked()
        assert chip.key_register.key_bits() == list(protected.locked.key_vector())

    def test_unlock_requires_functional_mode(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.enter_scan_mode()
        with pytest.raises(ChipError):
            chip.unlock()

    def test_functional_cycle_requires_functional_mode(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.enter_scan_mode()
        with pytest.raises(ChipError):
            chip.functional_cycle({})

    def test_unlocked_chip_behaves_as_original(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.unlock()
        rng = random.Random(0)
        # drive random functional cycles; compare against reference model
        state = dict(chip.ff_state)
        for _ in range(10):
            pi = {p: rng.randrange(2) for p in chip.primary_inputs}
            po = chip.functional_cycle(pi)
            assignment = dict(pi)
            assignment.update(protected.locked.correct_key)
            for ff in protected.design.flops:
                assignment[ff.q] = state[ff.name]
            values = protected.design.core.evaluate(assignment)
            assert po == {o: values[o] for o in chip.primary_outputs}
            state = {ff.name: values[ff.d] for ff in protected.design.flops}
            assert state == chip.ff_state


class TestChipScanProtocol:
    def test_scan_entry_clears_key(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.unlock()
        chip.enter_scan_mode()
        assert chip.key_register.key_bits() == [0] * protected.lfsr_config.size

    def test_scan_requires_enable(self, protected):
        chip = protected.build_chip()
        chip.reset()
        with pytest.raises(ChipError):
            chip.scan_shift_cycle()
        with pytest.raises(ChipError):
            chip.scan_unload()
        with pytest.raises(ChipError):
            chip.scan_load({})
        with pytest.raises(ChipError):
            chip.scan_capture({})

    def test_scan_load_unload_roundtrip(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.enter_scan_mode()
        rng = random.Random(1)
        target = {ff.name: rng.randrange(2) for ff in protected.design.flops}
        chip.scan_load(target)
        observed = chip.scan_unload()
        for name, bit in target.items():
            assert observed[name] == bit

    def test_key_cells_visible_in_chains(self, protected):
        chip = protected.build_chip()
        kinds = {
            c.kind for chain in chip.scan_chain_cells() for c in chain
        }
        assert kinds == {ScanCellKind.FLOP, ScanCellKind.KEY}

    def test_baseline_chains_have_no_key_cells(self, protected):
        chip = protected.baseline_chip()
        kinds = {
            c.kind for chain in chip.scan_chain_cells() for c in chain
        }
        assert kinds == {ScanCellKind.FLOP}

    def test_oracle_query_locked_responses(self, protected):
        """After scan entry the key is cleared, so captures use key=0."""
        chip = protected.build_chip()
        chip.reset()
        chip.unlock()
        rng = random.Random(2)
        state = {ff.name: rng.randrange(2) for ff in protected.design.flops}
        pi = {p: rng.randrange(2) for p in chip.primary_inputs}
        po, captured = chip.oracle_query(pi, state)
        # ground truth with key = all zeros (the cleared register)
        assignment = dict(pi)
        for k in protected.locked.key_inputs:
            assignment[k] = 0
        for ff in protected.design.flops:
            assignment[ff.q] = state[ff.name]
        values = protected.design.core.evaluate(assignment)
        assert po == {o: values[o] for o in chip.primary_outputs}
        for ff in protected.design.flops:
            assert captured[ff.name] == values[ff.d]

    def test_baseline_oracle_query_correct_responses(self, protected):
        chip = protected.baseline_chip()
        chip.reset()
        chip.unlock()
        rng = random.Random(3)
        state = {ff.name: rng.randrange(2) for ff in protected.design.flops}
        pi = {p: rng.randrange(2) for p in chip.primary_inputs}
        po, captured = chip.oracle_query(pi, state)
        assignment = dict(pi)
        assignment.update(protected.locked.correct_key)
        for ff in protected.design.flops:
            assignment[ff.q] = state[ff.name]
        values = protected.design.core.evaluate(assignment)
        assert po == {o: values[o] for o in chip.primary_outputs}
        for ff in protected.design.flops:
            assert captured[ff.name] == values[ff.d]

    def test_last_functional_response_leaks_once(self, protected):
        """The Sect. II-A corner: the last capture before scan entry is a
        correct response of the unlocked circuit."""
        chip = protected.build_chip()
        chip.reset()
        chip.unlock()
        rng = random.Random(4)
        pi = {p: rng.randrange(2) for p in chip.primary_inputs}
        pre_state = dict(chip.ff_state)
        chip.functional_cycle(pi)
        post_state = dict(chip.ff_state)
        chip.enter_scan_mode()
        observed = chip.scan_unload()
        for ff in protected.design.flops:
            assert observed[ff.name] == post_state[ff.name]
        # and that state is the correct-key response to (pi, pre_state)
        assignment = dict(pi)
        assignment.update(protected.locked.correct_key)
        for ff in protected.design.flops:
            assignment[ff.q] = pre_state[ff.name]
        values = protected.design.core.evaluate(assignment)
        for ff in protected.design.flops:
            assert post_state[ff.name] == values[ff.d]


class TestChipPlacements:
    @pytest.mark.parametrize("placement", ["interleaved", "head", "clustered"])
    def test_placement_covers_all_cells(self, design, placement):
        d = protect(
            design,
            orap=OraPConfig(variant="basic", placement=placement),
            wll=WLLConfig(key_width=10, control_width=3, n_key_gates=4),
            rng=9,
        )
        chip = d.build_chip()
        key_cells = [
            c.ref
            for chain in chip.chains
            for c in chain
            if c.kind is ScanCellKind.KEY
        ]
        assert sorted(key_cells) == list(range(10))
        flop_cells = [
            c.ref
            for chain in chip.chains
            for c in chain
            if c.kind is ScanCellKind.FLOP
        ]
        assert sorted(flop_cells) == sorted(f.name for f in design.flops)

    def test_interleaved_alternates(self, protected):
        chip = protected.build_chip()
        chain = chip.chains[0]
        # first cell is a key cell (LFSR cells before normal flops)
        assert chain[0].kind is ScanCellKind.KEY

    def test_unknown_placement_rejected(self, design):
        with pytest.raises(ValueError):
            protect(
                design,
                orap=OraPConfig(variant="basic", placement="bogus"),
                wll=WLLConfig(key_width=10, control_width=3, n_key_gates=4),
                rng=9,
            )


class TestTrojanHooksOnChip:
    def test_freeze_stops_ff_updates(self, protected):
        chip = protected.build_chip(trojan=TrojanHooks(freeze_normal_ffs=True))
        chip.reset()
        before = dict(chip.ff_state)
        chip.functional_cycle({p: 1 for p in chip.primary_inputs})
        assert chip.ff_state == before

    def test_suppress_all_keeps_key_through_scan(self, protected):
        hooks = TrojanHooks()
        chip = protected.build_chip(trojan=hooks)
        chip.reset()
        chip.unlock()
        hooks.suppress_pulse_all = True
        chip.enter_scan_mode()
        assert chip.is_unlocked()  # clear suppressed at the stem

    def test_bypass_hides_key_cells_from_scan(self, protected):
        hooks = TrojanHooks()
        chip = protected.build_chip(trojan=hooks)
        chip.reset()
        chip.unlock()
        hooks.suppress_pulse_all = True
        hooks.bypass_key_cells_in_scan = True
        chip.enter_scan_mode()
        observed = chip.scan_unload()
        assert not any(k.startswith("kr") for k in observed)
        assert chip.is_unlocked()  # key cells held their values


@pytest.fixture(scope="module")
def multichain_design():
    """Seven flops over three chains: the chains have unequal lengths."""
    return generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=8, n_outputs=12, n_gates=90, depth=5, seed=7, name="mc"
            ),
            n_flops=7,
            n_scan_chains=3,
        )
    )


#: sha256 prefixes of 20 seeded oracle queries plus a load/unload round
#: trip, per (placement, protected, bypass); recorded before the scan
#: shifts were precomputed per transaction
_PINNED_SCAN_PROTOCOL = {
    "interleaved-orap-0": "09551d9ded26e07a",
    "interleaved-orap-1": "444b0e10a3df9242",
    "interleaved-plain-0": "b46e2852c0a8b7da",
    "interleaved-plain-1": "b46e2852c0a8b7da",
    "head-orap-0": "de2d80b0e1eb7447",
    "head-orap-1": "444b0e10a3df9242",
    "head-plain-0": "b46e2852c0a8b7da",
    "head-plain-1": "b46e2852c0a8b7da",
    "clustered-orap-0": "b5f4e9fc13cb0930",
    "clustered-orap-1": "63c188eb1dd7d703",
    "clustered-plain-0": "b46e2852c0a8b7da",
    "clustered-plain-1": "b46e2852c0a8b7da",
}


class TestScanProtocolPinned:
    @pytest.mark.parametrize("bypass", [False, True])
    @pytest.mark.parametrize("protected_chip", [True, False])
    @pytest.mark.parametrize("placement", ["interleaved", "head", "clustered"])
    def test_queries_and_round_trip(
        self, multichain_design, placement, protected_chip, bypass
    ):
        d = protect(
            multichain_design,
            orap=OraPConfig(variant="basic", placement=placement),
            wll=WLLConfig(key_width=10, control_width=3, n_key_gates=4),
            rng=3,
        )
        chip = d.build_chip(
            protected=protected_chip,
            trojan=TrojanHooks(bypass_key_cells_in_scan=bypass),
        )
        lengths = {len(chain) for chain in chip.chains}
        assert len(lengths) > 1
        chip.reset()
        chip.unlock()
        rng = random.Random(11)
        flops = [ff.name for ff in multichain_design.flops]
        n_key = chip.key_register.size
        records = []
        for _ in range(20):
            pi = {p: rng.randrange(2) for p in chip.primary_inputs}
            state = {f: rng.randrange(2) for f in flops}
            state.update({f"kr{i}": rng.randrange(2) for i in range(n_key)})
            po, captured = chip.oracle_query(pi, state)
            records.append([sorted(po.items()), sorted(captured.items())])
        target = {f: rng.randrange(2) for f in flops}
        target.update({f"kr{i}": rng.randrange(2) for i in range(n_key)})
        chip.scan_load(target)
        after_load = [sorted(chip.ff_state.items()), chip.key_register.key_bits()]
        observed = chip.scan_unload()
        assert all(observed[k] == target[k] for k in observed)
        records += [after_load, sorted(observed.items())]
        # raw shift clocks expose each chain's cell order
        for _ in range(max(lengths) + 1):
            bits = {ci: rng.randrange(2) for ci in range(len(chip.chains))}
            records.append(sorted(chip.scan_shift_cycle(bits).items()))
        records.append(chip.key_register.key_bits())
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
        key = f"{placement}-{'orap' if protected_chip else 'plain'}-{int(bypass)}"
        assert digest == _PINNED_SCAN_PROTOCOL[key]
