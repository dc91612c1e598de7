"""Smoke + shape tests for the experiment harnesses (tiny parameters).

These validate the *shape* claims of each paper artifact at miniature
scale; the benchmarks run the same harnesses with realistic parameters.
"""

import pytest

from repro.experiments import (
    format_table,
    paper_reference_payloads,
    print_protocol,
    print_table1,
    print_table2,
    print_trojan_table,
    run_protocol_checks,
    run_table1,
    run_table2,
    run_trojan_table,
)
from repro.experiments.ablations import (
    run_placement_ablation,
    run_tap_ablation,
    run_wll_width_ablation,
    xor_tree_cost,
)


class TestCommon:
    def test_format_table(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", True)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert "yes" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(
            scale=0.005, circuits=["s38417", "b20"], n_patterns=512, n_keys=4
        )

    def test_row_fields(self, rows):
        assert [r.circuit for r in rows] == ["s38417", "b20"]
        for r in rows:
            assert r.control_inputs == 3
            assert r.lfsr_size >= 9

    def test_hd_in_plausible_band(self, rows):
        """The paper's HD range is ~29-50%; tiny circuits still land in a
        broad useful band."""
        for r in rows:
            assert 15.0 <= r.hd_percent <= 55.0

    def test_overheads_positive(self, rows):
        for r in rows:
            assert r.area_overhead_percent > 0.0
            assert r.delay_overhead_percent >= 0.0

    def test_printing(self, rows):
        text = print_table1(rows)
        assert "Table I" in text
        assert "s38417" in text

    def test_traced_doubling_ranks_once(self):
        """Every doubling step records a ``locking.rank`` span; only the
        first runs the ranking, the rest are served by the memo."""
        from repro import telemetry
        from repro.sim import clear_engine_cache
        from repro.telemetry import MemorySink, validate_record

        clear_engine_cache()
        sink = MemorySink()
        telemetry.configure(sink)
        try:
            (row,) = run_table1(
                scale=0.01, circuits=["b21"], n_patterns=512, n_keys=4
            )
        finally:
            telemetry.shutdown()
        for rec in sink.records:
            assert validate_record(rec) is None
        ranks = [r for r in sink.of_kind("span") if r["name"] == "locking.rank"]
        assert len(ranks) >= 3  # at least two doubling steps
        assert [r["attrs"]["cached"] for r in ranks] == [False] + [True] * (
            len(ranks) - 1
        )
        assert len({r["attrs"]["nets"] for r in ranks}) == 1
        counters = {
            r["name"]: r["value"] for r in sink.of_kind("counter")
        }
        assert counters["locking.rank.cached"] == len(ranks) - 1


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table2(scale=0.005, circuits=["b20"], n_random_patterns=256)

    def test_shape_fc_improves_or_holds(self, rows):
        r = rows[0]
        assert r.fc_protected >= r.fc_original - 0.5
        assert r.red_abrt_protected <= r.red_abrt_original + 2

    def test_high_coverage(self, rows):
        assert rows[0].fc_original > 90.0

    def test_printing(self, rows):
        assert "Table II" in print_table2(rows)


class TestTrojanTable:
    def test_rows_and_reference(self):
        rows = run_trojan_table(seed=7)
        assert len(rows) == 10  # 5 scenarios x 2 variants
        by = {(r.variant, r.scenario[0]): r for r in rows}
        assert by[("basic", "e")].attack_effective
        assert not by[("modified", "e")].attack_effective
        assert not by[("modified", "d")].attack_effective
        ref = paper_reference_payloads(128)
        assert ref["a (NAND3 swaps)"] == 64.0

    def test_printing(self):
        rows = run_trojan_table(seed=7)
        text = print_trojan_table(rows)
        assert "128-bit" in text


class TestProtocolChecks:
    @pytest.mark.parametrize("variant", ["basic", "modified"])
    def test_all_checks_pass(self, variant):
        checks = run_protocol_checks(variant=variant)
        assert len(checks) == 6
        for c in checks:
            assert c.passed, c.name

    def test_printing(self):
        checks = run_protocol_checks(variant="basic")
        assert "OraP protocol checks" in print_protocol(checks)


class TestAblations:
    def test_tap_density_monotone(self):
        """Denser taps -> bigger XOR trees (the paper's design rationale)."""
        loose, _ = xor_tree_cost(64, 16, 4, 2)
        dense, _ = xor_tree_cost(64, 4, 4, 2)
        assert dense > loose

    def test_lfsr_beats_shift_register(self):
        sr, _ = xor_tree_cost(64, 0, 4, 2)
        lfsr, _ = xor_tree_cost(64, 8, 4, 2)
        assert lfsr > sr

    def test_tap_rows(self):
        rows = run_tap_ablation(size=32)
        assert len(rows) == 16

    def test_wll_width_rows(self):
        rows = run_wll_width_ablation(key_width=12)
        assert [r.control_width for r in rows] == [2, 3, 5]
        for r in rows:
            assert r.hd_percent > 5.0

    def test_placement_rows(self):
        rows = run_placement_ablation(seed=7)
        by = {r.placement: r.n_bypass_muxes for r in rows}
        assert by["interleaved"] > by["clustered"]


class TestHDSaturation:
    def test_sweep_and_stopping_rule(self):
        from repro.experiments import (
            print_hd_sweep,
            run_hd_sweep,
            saturation_point,
        )

        points = run_hd_sweep(
            circuit="b21", scale=0.01, gate_counts=(1, 4, 16), n_patterns=512
        )
        assert [p.n_key_gates for p in points] == [1, 4, 16]
        assert points[-1].hd_percent > points[0].hd_percent
        assert saturation_point(points) is not None
        assert "saturation" in print_hd_sweep(points).lower()

    def test_saturation_rule_tolerates_dips(self):
        from repro.experiments import saturation_point
        from repro.experiments.hd_saturation import HDPoint

        def mk(n, hd):
            return HDPoint("c", n, hd, 1.0)
        # one dip then strong growth: must NOT fire at the dip
        pts = [mk(1, 39.0), mk(2, 31.0), mk(4, 45.0), mk(8, 45.2), mk(16, 45.3)]
        stop = saturation_point(pts)
        assert stop is not None and stop.n_key_gates == 16
        # 50% target fires immediately
        pts2 = [mk(1, 30.0), mk(2, 51.0), mk(4, 52.0)]
        assert saturation_point(pts2).n_key_gates == 2
        assert saturation_point([]) is None
