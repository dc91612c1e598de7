"""Tests for the attack suite against ideal and scan-level oracles."""

import random

import pytest

from repro import telemetry
from repro.attacks import (
    AppSATConfig,
    BypassConfig,
    CountingOracle,
    HillClimbConfig,
    IdealOracle,
    OracleBudgetExceeded,
    SATAttackConfig,
    ScanOracle,
    appsat_attack,
    bypass_attack,
    doubledip_attack,
    extract_consistent_key,
    hill_climb_attack,
    key_is_correct,
    netlist_is_correct,
    removal_attack,
    sat_attack,
    sensitization_attack,
    sps_attack,
)
from repro.attacks.sensitization import _bruteforce_bits
from repro.bench import GeneratorConfig, generate_netlist
from repro.locking import (
    WLLConfig,
    lock_antisat,
    lock_random,
    lock_sarlock,
    lock_weighted,
)
from repro.netlist import GateType, Netlist
from repro.telemetry import MemorySink


@pytest.fixture(scope="module")
def circuit():
    return generate_netlist(
        GeneratorConfig(
            n_inputs=14, n_outputs=10, n_gates=110, depth=7, seed=9, name="atk"
        )
    )


@pytest.fixture(scope="module")
def rll(circuit):
    return lock_random(circuit, key_width=8, rng=2)


@pytest.fixture(scope="module")
def wll(circuit):
    return lock_weighted(
        circuit, WLLConfig(key_width=12, control_width=3, n_key_gates=6), rng=2
    )


@pytest.fixture(scope="module")
def sar(circuit):
    return lock_sarlock(circuit, key_width=7, rng=2)


class TestOracles:
    def test_ideal_oracle_counts(self, rll):
        o = IdealOracle(rll.original)
        o.query({i: 0 for i in o.inputs})
        assert o.n_queries == 1

    def test_counting_oracle_budget(self, rll):
        o = CountingOracle(IdealOracle(rll.original), max_queries=2)
        asg = {i: 0 for i in o.inputs}
        o.query(asg)
        o.query(asg)
        with pytest.raises(OracleBudgetExceeded):
            o.query(asg)


class TestSATAttack:
    def test_recovers_rll_key(self, rll):
        res = sat_attack(rll.locked, rll.key_inputs, IdealOracle(rll.original))
        assert res.completed
        assert key_is_correct(rll, res.recovered_key)
        assert res.iterations < 20  # RLL falls in a handful of DIPs

    def test_recovers_wll_key(self, wll):
        res = sat_attack(wll.locked, wll.key_inputs, IdealOracle(wll.original))
        assert res.completed
        assert key_is_correct(wll, res.recovered_key)

    def test_sarlock_needs_exponential_dips(self, sar):
        res = sat_attack(
            sar.locked,
            sar.key_inputs,
            IdealOracle(sar.original),
            SATAttackConfig(max_iterations=20),
        )
        assert not res.completed  # 7-bit SARLock needs ~127 DIPs
        res2 = sat_attack(
            sar.locked,
            sar.key_inputs,
            IdealOracle(sar.original),
            SATAttackConfig(max_iterations=200),
        )
        assert res2.completed
        assert res2.iterations > 100
        assert key_is_correct(sar, res2.recovered_key)

    def test_oracle_query_count_matches_iterations(self, rll):
        o = IdealOracle(rll.original)
        res = sat_attack(rll.locked, rll.key_inputs, o)
        assert res.oracle_queries == res.iterations

    def test_extract_consistent_key_empty_history(self, rll):
        key = extract_consistent_key(rll.locked, rll.key_inputs, [])
        assert key is not None  # any key is consistent with nothing


class TestAppSAT:
    def test_exact_on_rll(self, rll):
        res = appsat_attack(rll.locked, rll.key_inputs, IdealOracle(rll.original))
        assert res.completed
        assert key_is_correct(rll, res.recovered_key)

    def test_approximate_on_sarlock(self, sar):
        """AppSAT terminates early on SARLock with a low-error key."""
        res = appsat_attack(
            sar.locked,
            sar.key_inputs,
            IdealOracle(sar.original),
            AppSATConfig(max_iterations=40, probe_period=4, probe_queries=24,
                         error_threshold=0.05),
        )
        assert res.completed
        assert res.iterations < 40 or res.notes.get("early_exit")
        # approximately correct: at most a few error patterns
        fixed = {k: res.recovered_key[k] for k in sar.key_inputs}
        from repro.sim import functional_match_fraction

        match = functional_match_fraction(
            sar.original, sar.locked, n_patterns=512, inputs_b=fixed
        )
        assert match > 0.97


@pytest.mark.slow
class TestDoubleDIP:
    def test_recovers_rll_key(self, rll):
        res = doubledip_attack(
            rll.locked, rll.key_inputs, IdealOracle(rll.original)
        )
        assert res.completed
        assert key_is_correct(rll, res.recovered_key)

    def test_notes_report_dip_kinds(self, rll):
        res = doubledip_attack(
            rll.locked, rll.key_inputs, IdealOracle(rll.original)
        )
        assert res.notes["two_dips"] + res.notes["one_dips"] == res.iterations


class TestHillClimb:
    def test_recovers_rll_key(self, rll):
        res = hill_climb_attack(
            rll.locked, rll.key_inputs, IdealOracle(rll.original),
            HillClimbConfig(n_patterns=96, restarts=6, seed=1),
        )
        assert res.completed
        assert key_is_correct(rll, res.recovered_key)

    def test_with_precollected_test_set(self, rll):
        import random

        rng = random.Random(0)
        o = IdealOracle(rll.original)
        test_set = []
        for _ in range(96):
            p = {i: rng.randrange(2) for i in rll.data_inputs}
            test_set.append((p, o.query(p)))
        res = hill_climb_attack(
            rll.locked, rll.key_inputs, o, HillClimbConfig(restarts=6, seed=1),
            test_set=test_set,
        )
        assert res.oracle_queries == 0  # used the published responses only
        assert res.completed


@pytest.mark.slow
class TestSensitization:
    def test_recovers_rll_key(self, rll):
        res = sensitization_attack(
            rll.locked, rll.key_inputs, IdealOracle(rll.original)
        )
        assert res.completed
        assert key_is_correct(rll, res.recovered_key)
        assert res.notes["bits_recovered"] == len(rll.key_inputs)


def _bruteforce_host():
    """Six data inputs, eight key bits: k0..k5 XOR-mask one output each,
    k6 shows only when x0 is 1, and k7 drives nothing."""
    nl = Netlist("bf")
    xs = [nl.add_input(f"x{j}") for j in range(6)]
    ks = [nl.add_input(f"k{j}") for j in range(8)]
    outs = []
    for j in range(6):
        nl.add_gate(f"a{j}", GateType.NAND, [xs[j], xs[(j + 1) % 6]])
        outs.append(nl.add_gate(f"y{j}", GateType.XOR, [f"a{j}", ks[j]]))
    outs.append(nl.add_gate("y6", GateType.AND, [xs[0], ks[6]]))
    nl.set_outputs(outs)
    return nl, xs, ks


#: k6 set puts the true key past the first 64 combinations; k7 set
#: makes the lowest match (k7 = 0) differ from it
_BF_KEY = {"k0": 1, "k1": 0, "k2": 1, "k3": 1, "k4": 0, "k5": 0, "k6": 1, "k7": 1}


def _bf_probes(nl, xs, n, seed=3):
    rng = random.Random(seed)
    probes = []
    for _ in range(n):
        pattern = {x: rng.randrange(2) for x in xs}
        probes.append((pattern, nl.evaluate_outputs({**pattern, **_BF_KEY})))
    return probes


def _reference_bruteforce(nl, known, remaining, probes):
    """The plain loop: every combination in index order, scalar checks."""
    for combo in range(1 << len(remaining)):
        guess = dict(known)
        for bi, name in enumerate(remaining):
            guess[name] = (combo >> bi) & 1
        if all(
            nl.evaluate_outputs({**p, **guess}) == want for p, want in probes
        ):
            return guess
    return None


class _KeyedOracle:
    """Counts queries to ``nl`` with ``key`` applied."""

    def __init__(self, nl, key):
        self.nl, self.key, self.n_queries = nl, key, 0

    def query(self, assignment):
        self.n_queries += 1
        return self.nl.evaluate_outputs({**assignment, **self.key})


_RLL_KEY = {
    "keyinput0": 0, "keyinput1": 0, "keyinput2": 0, "keyinput3": 1,
    "keyinput4": 1, "keyinput5": 1, "keyinput6": 1, "keyinput7": 1,
}
_WLL_KEY = {
    "keyinput0": 0, "keyinput1": 0, "keyinput2": 0, "keyinput3": 1,
    "keyinput4": 0, "keyinput5": 1, "keyinput6": 1, "keyinput7": 0,
    "keyinput8": 0, "keyinput9": 0, "keyinput10": 1, "keyinput11": 1,
}
#: (completed, iterations, oracle_queries, recovered_key, notes), recorded
#: from the attack whose miters held two full copies of the netlist and
#: were re-encoded for every attempt
_PINNED_SENSITIZATION = {
    "rll": (
        True, 59, 49, _RLL_KEY,
        {"bits_recovered": 8, "key_width": 8, "brute_forced": True},
    ),
    "wll": (
        True, 48, 48, _WLL_KEY,
        {"bits_recovered": 12, "key_width": 12, "brute_forced": True},
    ),
    "bruteforce_host": (
        True, 7, 55, {**_BF_KEY, "k7": 0},
        {"bits_recovered": 8, "key_width": 8, "brute_forced": True},
    ),
}


class TestPinnedOutcomes:
    """Sensitization and bypass outcomes that a change of their miters'
    encoding must leave exactly as they are."""

    @pytest.mark.parametrize("case", sorted(_PINNED_SENSITIZATION))
    def test_sensitization(self, case, request):
        if case == "bruteforce_host":
            nl, _, keys = _bruteforce_host()
            oracle = _KeyedOracle(nl, _BF_KEY)
        else:
            lc = request.getfixturevalue(case)
            nl, keys, oracle = lc.locked, lc.key_inputs, IdealOracle(lc.original)
        res = sensitization_attack(nl, keys, oracle)
        got = (
            res.completed, res.iterations, res.oracle_queries,
            res.recovered_key, res.notes,
        )
        assert got == _PINNED_SENSITIZATION[case]

    def test_bypass_sarlock(self, sar):
        res = bypass_attack(
            sar.locked, sar.key_inputs, IdealOracle(sar.original),
            BypassConfig(max_error_points=8),
        )
        assert res.completed
        assert netlist_is_correct(sar, res.notes["netlist"])


class TestSensitizationTrace:
    def test_round_span_counts_miters(self):
        # k7 reaches no output: it gets no miter, in either round
        nl, _, keys = _bruteforce_host()
        sink = MemorySink()
        telemetry.configure(sink)
        try:
            sensitization_attack(nl, keys, _KeyedOracle(nl, _BF_KEY))
        finally:
            telemetry.shutdown()
        rounds = [
            r["attrs"] for r in sink.of_kind("span")
            if r["name"] == "attack.sensitization.round"
        ]
        assert rounds == [
            {"round": 0, "bits_known": 7, "progress": True, "miters": 7},
            {"round": 1, "bits_known": 7, "progress": False, "miters": 0},
        ]


class TestBruteforceBits:
    @pytest.mark.parametrize("n_probes", [20, 64, 100])
    @pytest.mark.parametrize(
        "known",
        [
            {},
            {"k7": 1},
            {"k0": 1, "k3": 1, "k6": 1},
            {"k0": 0},  # contradicts every probe's response
        ],
        ids=["none", "unobservable", "three", "wrong"],
    )
    def test_matches_reference_loop(self, known, n_probes):
        nl, xs, ks = _bruteforce_host()
        remaining = [k for k in ks if k not in known]
        probes = _bf_probes(nl, xs, n_probes)
        got = _bruteforce_bits(nl, xs, known, remaining, probes)
        want = _reference_bruteforce(nl, known, remaining, probes)
        assert got == want
        if want is None:
            assert known == {"k0": 0}
            return
        assert list(got) == list(want)  # known bits first, then remaining
        assert got["k7"] == known.get("k7", 0)  # lowest match, not the key
        assert {k: v for k, v in got.items() if k != "k7"} == {
            k: v for k, v in _BF_KEY.items() if k != "k7"
        }

    def test_no_match_when_a_response_is_wrong(self):
        nl, xs, ks = _bruteforce_host()
        probes = _bf_probes(nl, xs, 70)
        pattern, resp = probes[66]
        probes[66] = (pattern, {**resp, "y2": 1 - resp["y2"]})
        assert _bruteforce_bits(nl, xs, {}, ks, probes) is None
        assert _reference_bruteforce(nl, {}, ks, probes) is None


class TestStructuralAttacks:
    def test_sps_breaks_antisat(self, circuit):
        ans = lock_antisat(circuit, half_width=8, rng=2)
        res = sps_attack(ans.locked, ans.key_inputs)
        assert res.completed
        assert netlist_is_correct(ans, res.notes["netlist"])

    def test_sps_finds_nothing_on_wll(self, wll):
        res = sps_attack(wll.locked, wll.key_inputs)
        if res.completed:
            assert not netlist_is_correct(wll, res.notes.get("netlist"))

    def test_removal_breaks_sarlock(self, sar):
        res = removal_attack(sar.locked, sar.key_inputs)
        assert res.completed
        assert netlist_is_correct(sar, res.notes["netlist"])

    def test_removal_breaks_antisat(self, circuit):
        ans = lock_antisat(circuit, half_width=8, rng=2)
        res = removal_attack(ans.locked, ans.key_inputs)
        assert res.completed
        assert netlist_is_correct(ans, res.notes["netlist"])

    def test_removal_fails_on_wll(self, wll):
        """WLL pass values are the rare values: the skew-guided constant is
        wrong and the reconstruction is inverted."""
        res = removal_attack(wll.locked, wll.key_inputs)
        assert res.completed
        assert not netlist_is_correct(wll, res.notes["netlist"])

    def test_bypass_breaks_sarlock(self, sar):
        res = bypass_attack(
            sar.locked, sar.key_inputs, IdealOracle(sar.original),
            BypassConfig(max_error_points=8),
        )
        assert res.completed
        assert netlist_is_correct(sar, res.notes["netlist"])

    def test_bypass_gives_up_on_wll(self, wll):
        res = bypass_attack(
            wll.locked, wll.key_inputs, IdealOracle(wll.original), BypassConfig()
        )
        assert not res.completed
        assert "error rate" in res.notes["reason"]


class TestScanOracleAttacks:
    """The paper's headline: same attack, two chips, opposite outcomes."""

    @pytest.fixture(scope="class")
    def protected(self):
        from repro.bench import SequentialConfig, generate_sequential
        from repro.orap import OraPConfig, protect

        design = generate_sequential(
            SequentialConfig(
                comb=GeneratorConfig(
                    n_inputs=10, n_outputs=14, n_gates=110, depth=6, seed=4,
                    name="soc",
                ),
                n_flops=8,
            )
        )
        return protect(
            design,
            orap=OraPConfig(variant="basic"),
            wll=WLLConfig(key_width=10, control_width=3, n_key_gates=4),
            rng=9,
        )

    def test_sat_attack_beats_conventional_chip(self, protected):
        chip = protected.baseline_chip()
        chip.reset()
        chip.unlock()
        res = sat_attack(
            protected.locked.locked,
            protected.locked.key_inputs,
            ScanOracle(chip),
        )
        assert res.completed
        assert key_is_correct(protected.locked, res.recovered_key)

    def test_sat_attack_thwarted_by_orap(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.unlock()
        res = sat_attack(
            protected.locked.locked,
            protected.locked.key_inputs,
            ScanOracle(chip),
        )
        # the attack completes — but against locked responses, so the
        # recovered key is wrong (Sect. II-A)
        assert res.completed
        assert not key_is_correct(protected.locked, res.recovered_key)

    def test_hillclimb_thwarted_by_orap(self, protected):
        chip = protected.build_chip()
        chip.reset()
        chip.unlock()
        res = hill_climb_attack(
            protected.locked.locked,
            protected.locked.key_inputs,
            ScanOracle(chip),
            HillClimbConfig(n_patterns=64, restarts=3),
        )
        assert not key_is_correct(protected.locked, res.recovered_key)

    def test_scan_oracle_equals_ideal_on_baseline(self, protected):
        import random

        chip = protected.baseline_chip()
        chip.reset()
        chip.unlock()
        so = ScanOracle(chip)
        io = IdealOracle(protected.locked.original)
        rng = random.Random(5)
        for _ in range(10):
            asg = {i: rng.randrange(2) for i in so.inputs}
            assert so.query(asg) == io.query(asg)
