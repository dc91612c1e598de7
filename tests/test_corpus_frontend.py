"""The streaming BENCH/Verilog front end (repro.corpus.frontend).

The strict-mode byte-for-byte contracts live in test_bench_io.py /
test_verilog_reader.py; this file covers what only the new front end
provides — tokenizer edge cases, multi-error recovery with positions,
cascade suppression, and fixture round-trip stability.
"""

from __future__ import annotations

import pytest

from repro.corpus.frontend import (
    ParseDiagnostic,
    parse_bench_recovering,
    parse_bench_strict,
    parse_path_recovering,
    parse_verilog_recovering,
    tokenize,
)
from repro.corpus.manifest import ENTRIES, FIXTURES_DIR
from repro.netlist.bench_io import NetlistFormatError, parse_bench, write_bench
from repro.netlist.verilog_io import write_verilog
from repro.netlist.verilog_reader import parse_verilog


class TestTokenizer:
    def test_statement_tokens_carry_columns(self):
        toks = tokenize("y = NAND(a, b)")
        assert [t.text for t in toks] == ["y", "=", "NAND", "(", "a", ",", "b", ")"]
        assert toks[0].col == 1
        assert toks[2].col == 5
        assert toks[-1].col == 14

    def test_bench_net_charset(self):
        toks = tokenize("G17[3] = AND(top/u1.q, $k0)")
        assert toks[0].text == "G17[3]"
        assert toks[4].text == "top/u1.q"
        assert toks[6].text == "$k0"

    def test_illegal_character_returns_none(self):
        assert tokenize("y = AND(a; b)") is None
        assert tokenize("y = AND(a, b) !") is None

    def test_whitespace_only(self):
        assert tokenize("   \t ") == []


class TestLineStreamExtensions:
    def test_crlf_lines_parse(self):
        text = "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = AND(a, b)\r\n"
        result = parse_bench_recovering(text.splitlines(), name="crlf")
        assert result.ok
        assert sorted(result.circuit.core.inputs) == ["a", "b"]

    def test_backslash_continuation_merges(self):
        lines = [
            "INPUT(a)",
            "INPUT(b)",
            "OUTPUT(y)",
            "y = AND(a, \\",
            "        b)",
        ]
        result = parse_bench_recovering(lines, name="cont")
        assert result.ok
        assert result.circuit.core.gate("y").fanin == ("a", "b")
        # stats count physical lines, not merged logical lines
        assert result.stats["lines"] == 5

    def test_continuation_error_reports_first_physical_line(self):
        lines = [
            "INPUT(a)",
            "OUTPUT(y)",
            "y = FROB(a, \\",
            "         a)",
        ]
        result = parse_bench_recovering(lines, name="cont")
        assert len(result.errors) == 1
        assert result.errors[0].line_no == 3

    def test_comments_and_blank_lines_ignored(self):
        lines = [
            "# header comment",
            "",
            "INPUT(a)",
            "OUTPUT(y)  # trailing comment",
            "y = NOT(a)",
        ]
        result = parse_bench_recovering(lines, name="comments")
        assert result.ok
        assert list(result.circuit.core.outputs) == ["y"]


class TestRecovery:
    def test_multiple_errors_with_positions(self):
        lines = [
            "INPUT(a)",
            "INPUT(b)",
            "OUTPUT(y)",
            "n1 = NAND(a, b",  # line 4: unbalanced
            "n2 = FROB(a)",  # line 5: unknown op
            "y = AND(a, b)",
            "y = OR(a, b)",  # line 7: duplicate driver
        ]
        result = parse_bench_recovering(lines, name="multi", source="m.bench")
        assert [d.line_no for d in result.errors] == [4, 5, 7]
        assert all(d.source == "m.bench" for d in result.errors)
        assert all(d.line for d in result.errors)
        # best-effort model: the good statements survived
        assert result.circuit is not None
        assert result.circuit.core.gate("y").gtype.name == "AND"

    def test_duplicate_driver_keeps_first(self):
        lines = [
            "INPUT(a)",
            "INPUT(b)",
            "OUTPUT(y)",
            "y = AND(a, b)",
            "y = OR(a, b)",
        ]
        result = parse_bench_recovering(lines, name="dup")
        assert len(result.errors) == 1
        assert "already defined on line 4" in result.errors[0].message
        assert result.circuit.core.gate("y").gtype.name == "AND"

    def test_cascade_suppression_one_typo_one_diagnostic(self):
        # the dropped FROB line leaves n1 undefined; the semantic pass
        # must NOT pile an undefined-net error on top of the scan error
        lines = [
            "INPUT(a)",
            "OUTPUT(y)",
            "n1 = FROB(a)",
            "y = NOT(n1)",
        ]
        result = parse_bench_recovering(lines, name="cascade")
        assert len(result.errors) == 1
        assert "FROB" in result.errors[0].message

    def test_semantic_errors_only_on_clean_scan(self):
        lines = [
            "INPUT(a)",
            "OUTPUT(y)",
            "y = AND(a, ghost)",
        ]
        result = parse_bench_recovering(lines, name="sem")
        assert len(result.errors) == 1
        assert "ghost" in result.errors[0].message
        assert result.errors[0].line_no == 3

    def test_strict_mode_raises_first_error(self):
        with pytest.raises(NetlistFormatError) as exc:
            parse_bench_strict(
                "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", source="s.bench"
            )
        assert "s.bench:3" in str(exc.value)

    def test_verilog_recovery_locates_bad_statement(self):
        text = (
            "module bad (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  wire n1;\n"
            "  frobnicate q9 (n1, a);\n"
            "  not g2 (y, n1);\n"
            "endmodule\n"
        )
        result = parse_verilog_recovering(text.splitlines(), name="bad")
        assert len(result.errors) == 1
        assert result.errors[0].line_no == 5
        assert "frobnicate" in result.errors[0].message

    def test_combinational_loop_is_located_at_a_gate_on_it(self):
        lines = [
            "INPUT(a)",
            "OUTPUT(y)",
            "x = AND(a, y)",
            "y = OR(x, a)",
        ]
        result = parse_bench_recovering(lines, name="loop")
        assert [d.line_no for d in result.errors] == [3]
        assert "combinational cycle" in result.errors[0].message
        assert result.errors[0].line == "x = AND(a, y)"

    def test_verilog_combinational_loop_is_located(self):
        text = (
            "module loop (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  wire x;\n"
            "  and g1 (x, a, y);\n"
            "  assign y = x;\n"
            "endmodule\n"
        )
        result = parse_verilog_recovering(text.splitlines(), name="loop")
        assert [d.line_no for d in result.errors] == [5]
        assert "combinational cycle" in result.errors[0].message

    def test_verilog_missing_endmodule_is_located(self):
        text = "module t (a, y);\n  input a;\n  output y;\n  not g (y, a);\n"
        result = parse_verilog_recovering(text.splitlines(), name="t")
        assert any("missing endmodule" in d.message for d in result.errors)
        assert all(d.line_no > 0 for d in result.errors)


class TestDiagnosticFormatting:
    def test_format_variants(self):
        d = ParseDiagnostic("boom", source="f.bench", line_no=3, col=7)
        assert d.format() == "f.bench:3:7: boom"
        d = ParseDiagnostic("boom", source="f.bench", line_no=3)
        assert d.format() == "f.bench:3: boom"
        d = ParseDiagnostic("boom", source="f.bench")
        assert d.format() == "f.bench: boom"

    def test_to_lint_is_io001_error(self):
        d = ParseDiagnostic("boom", source="f.bench", line_no=3)
        diag = d.to_lint("netlist")
        assert diag.rule_id == "IO001"
        assert "cannot parse BENCH" in diag.message
        assert diag.location.line_no == 3


class TestFixtureRoundTrip:
    """parse → write → reparse → write must be byte-stable per fixture."""

    @pytest.mark.parametrize(
        "entry",
        [e for e in ENTRIES if e.fmt == "bench"],
        ids=lambda e: e.name,
    )
    def test_bench_fixture_roundtrip(self, entry):
        text = (FIXTURES_DIR / entry.filename).read_text()
        circuit = parse_bench(text, name=entry.name)
        first = write_bench(circuit)
        again = parse_bench(first, name=entry.name)
        assert write_bench(again) == first
        # structural identity, not just textual
        assert sorted(g.name for g in again.core.gates()) == sorted(
            g.name for g in circuit.core.gates()
        )
        assert sorted(f.q for f in again.flops) == sorted(
            f.q for f in circuit.flops
        )

    @pytest.mark.parametrize(
        "entry",
        [e for e in ENTRIES if e.fmt == "verilog"],
        ids=lambda e: e.name,
    )
    def test_verilog_fixture_roundtrip(self, entry):
        text = (FIXTURES_DIR / entry.filename).read_text()
        circuit = parse_verilog(text)
        first = write_verilog(circuit)
        again = parse_verilog(first)
        assert write_verilog(again) == first

    def test_parse_path_dispatches_on_suffix(self, tmp_path):
        (tmp_path / "x.bench").write_text(
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
        )
        (tmp_path / "x.v").write_text(
            "module x (a, y);\n  input a;\n  output y;\n"
            "  not g (y, a);\nendmodule\n"
        )
        assert parse_path_recovering(tmp_path / "x.bench").ok
        assert parse_path_recovering(tmp_path / "x.v").ok
