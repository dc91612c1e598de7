"""The static-analysis subsystem: one firing test per rule, the golden
corpus (every bundled benchmark must lint clean), the registry, the CLI
driver, and the ExperimentRunner pre-flight integration."""

import copy
import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import GeneratorConfig, SequentialConfig, generate_sequential
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.runner import ExperimentRunner, RunPolicy, RunStatus
from repro.lint import (
    Diagnostic,
    LintReport,
    Location,
    NetlistSubject,
    SchemeSubject,
    Severity,
    all_rules,
    get_rule,
    lint_netlist,
    lint_orap,
    lint_paper_benchmarks,
    rule,
    run_rules,
)
from repro.lint.cli import catalog_text, lint_orap_chips, lint_path, run_lint
from repro.locking import LockedCircuit, WLLConfig, lock_weighted
from repro.netlist import GateType, Netlist, parse_bench
from repro.orap.scheme import OraPConfig, closed_fanin_cone, protect

#: rule ids proven to fire somewhere in this module; the meta-test at the
#: bottom asserts the whole catalog is covered
FIRED: set[str] = set()


def fired(report, rule_id):
    """Assert one rule fired in a report (or diagnostic list) and log it."""
    diags = list(report)
    assert any(d.rule_id == rule_id for d in diags), (
        f"{rule_id} did not fire; got {[d.rule_id for d in diags]}"
    )
    FIRED.add(rule_id)
    return [d for d in diags if d.rule_id == rule_id]


def check(rule_id, subject):
    """Run one rule's checker directly (isolates multi-rule subjects)."""
    return list(get_rule(rule_id).check(subject))


@pytest.fixture(scope="module")
def orap_basic():
    seq = generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=10, n_outputs=16, n_gates=90, seed=5, name="lintchip"
            ),
            n_flops=6,
        )
    )
    return protect(
        seq,
        orap=OraPConfig(variant="basic"),
        wll=WLLConfig(key_width=8, n_key_gates=4),
        rng=5,
    )


@pytest.fixture(scope="module")
def orap_modified():
    seq = generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=10, n_outputs=16, n_gates=90, seed=5, name="lintchip"
            ),
            n_flops=6,
        )
    )
    return protect(
        seq,
        orap=OraPConfig(variant="modified"),
        wll=WLLConfig(key_width=8, n_key_gates=4),
        rng=5,
    )


# ------------------------------------------------------------------ #
# netlist rules


def _netlist(inputs, gates, outputs):
    """A netlist object built gate by gate; fan-ins may be undefined."""
    nl = Netlist("t")
    for i in inputs:
        nl.add_input(i)
    for name, gtype, fanin in gates:
        nl.add_gate(name, gtype, fanin)
    nl.set_outputs(outputs)
    return nl


class TestNetlistRules:
    def test_nl001_combinational_cycle(self):
        nl = _netlist(
            ["c"],
            [("a", GateType.AND, ("b", "c")), ("b", GateType.AND, ("a", "c"))],
            ["a"],
        )
        (diag,) = fired(lint_netlist(nl), "NL001")
        assert diag.severity is Severity.ERROR
        assert diag.message == "combinational cycle through a, b"
        assert diag.location.obj == "a"
        assert diag.hint == "break the loop"

    def test_nl002_undefined_fanin(self):
        nl = _netlist(["a"], [("o", GateType.AND, ("a", "ghost"))], ["o"])
        (diag,) = fired(lint_netlist(nl), "NL002")
        assert "ghost" in diag.message
        assert diag.location.obj == "o"  # the reading gate

    def test_nl003_undriven_output(self):
        fired(lint_netlist(_netlist(["a"], [], ["o"])), "NL003")

    def test_nl004_dead_net(self):
        nl = _netlist(
            ["a", "b"],
            [("o", GateType.AND, ("a", "b")), ("d", GateType.OR, ("a", "b"))],
            ["o"],
        )
        (diag,) = fired(lint_netlist(nl), "NL004")
        assert diag.severity is Severity.WARNING
        assert "'d'" in diag.message

    def test_nl005_unused_input(self):
        nl = _netlist(["a", "b"], [("o", GateType.NOT, ("a",))], ["o"])
        (diag,) = fired(lint_netlist(nl), "NL005")
        assert "'b'" in diag.message

    def test_nl006_duplicate_fanin(self):
        nl = _netlist(["a"], [("o", GateType.XOR, ("a", "a"))], ["o"])
        fired(lint_netlist(nl), "NL006")

    def test_nl007_constant_output(self):
        nl = Netlist("const")
        nl.add_input("a")
        nl.add_gate("k", GateType.CONST0, ())
        nl.add_gate("o", GateType.BUF, ("k",))
        nl.add_gate("p", GateType.BUF, ("a",))
        nl.set_outputs(["o", "p"])
        (diag,) = fired(lint_netlist(nl), "NL007")
        assert "'o'" in diag.message

    def test_nl008_key_named_internal_net(self):
        nl = Netlist("key")
        nl.add_input("a")
        nl.add_gate("keyinput0", GateType.BUF, ("a",))
        nl.set_outputs(["keyinput0"])
        (diag,) = fired(lint_netlist(nl), "NL008")
        assert diag.severity is Severity.ERROR

    def test_flop_q_nets_are_not_unused_inputs(self):
        # full-scan view: a DFF's Q net may legitimately feed nothing
        report = lint_netlist(
            parse_bench("INPUT(a)\nOUTPUT(o)\nq = DFF(o)\no = AND(a, a)\n")
        )
        assert not [d for d in report if d.rule_id == "NL005"]


# ------------------------------------------------------------------ #
# scheme (WLL) rules


def _wll_locked():
    from repro.bench import c17

    return lock_weighted(
        c17(),
        WLLConfig(key_width=4, control_width=2, n_key_gates=2),
        rng=1,
    )


class TestSchemeRules:
    def test_wl001_arity_drift(self):
        locked = _wll_locked()
        ctrl = locked.extra["control_gates"][0]
        g = locked.locked.gate(ctrl)
        extra_key = next(
            k for k in locked.key_inputs if k not in g.fanin
        )
        locked.locked.replace_gate(ctrl, g.gtype, tuple(g.fanin) + (extra_key,))
        diags = check("WL001", SchemeSubject(locked=locked))
        assert diags
        FIRED.add("WL001")
        assert any("inputs" in d.message for d in diags)

    def test_wl001_stale_metadata(self):
        locked = _wll_locked()
        locked.extra["control_gates"] = list(
            locked.extra["control_gates"]
        ) + ["ghost_ctrl"]
        diags = check("WL001", SchemeSubject(locked=locked))
        assert any("does not exist" in d.message for d in diags)

    def test_wl002_unused_key_bit(self):
        locked = _wll_locked()
        locked.locked.add_input("keyinput9")
        locked.key_inputs.append("keyinput9")
        locked.correct_key["keyinput9"] = 0
        (diag,) = check("WL002", SchemeSubject(locked=locked))
        FIRED.add("WL002")
        assert "keyinput9" in diag.message

    def test_wl003_reuse_imbalance(self):
        nl = Netlist("imba")
        nl.add_input("keyinput0")
        nl.add_input("keyinput1")
        nl.add_input("a")
        ctrls = []
        for i in range(4):
            ctrls.append(nl.add_gate(f"c{i}", GateType.AND, ("keyinput0", "a")))
        ctrls.append(nl.add_gate("c4", GateType.AND, ("keyinput1", "a")))
        nl.set_outputs(ctrls)
        locked = LockedCircuit(
            locked=nl,
            key_inputs=["keyinput0", "keyinput1"],
            correct_key={"keyinput0": 0, "keyinput1": 0},
            original=nl,
            scheme="wll",
            extra={
                "config": WLLConfig(key_width=2, control_width=2, n_key_gates=5),
                "control_gates": ctrls,
            },
        )
        (diag,) = check("WL003", SchemeSubject(locked=locked))
        FIRED.add("WL003")
        assert "unbalanced" in diag.message

    def test_clean_wll_lock_has_no_scheme_findings(self):
        locked = _wll_locked()
        report = run_rules("scheme", SchemeSubject(locked=locked), LintReport())
        run_rules("netlist", NetlistSubject(locked.locked), report)
        assert report.is_clean()
        assert {"WL001", "WL002", "WL003"} <= set(report.rules_run)


# ------------------------------------------------------------------ #
# OraP rules


class TestOrapRules:
    def test_or001_suppressed_pulse_generator(self, orap_basic):
        design = copy.deepcopy(orap_basic)
        design.chip.key_register.pulses[0].suppressed = True
        diags = check("OR001", design)
        FIRED.add("OR001")
        assert "cell 0" in diags[0].message

    def test_or002_reseed_coverage(self, orap_basic):
        stub = SimpleNamespace(
            lfsr_config=orap_basic.lfsr_config,
            key_sequence=SimpleNamespace(
                schedule=SimpleNamespace(inject=(False,) * 4, n_cycles=4)
            ),
        )
        diags = check("OR002", stub)
        FIRED.add("OR002")
        assert len(diags) == orap_basic.lfsr_config.size

    def test_or003_basic_with_response_points(self, orap_basic):
        design = copy.deepcopy(orap_basic)
        design.response_points = (0,)
        design.response_flops = ()
        (diag,) = check("OR003", design)
        FIRED.add("OR003")
        assert "basic" in diag.message

    def test_or003_wrong_split(self, orap_modified):
        design = copy.deepcopy(orap_modified)
        design.response_points = design.response_points[:-1]
        design.response_flops = design.response_flops[:-1]
        diags = check("OR003", design)
        assert any("half" in d.message for d in diags)

    def test_or004_key_in_response_cone(self, orap_modified):
        design = copy.deepcopy(orap_modified)
        cone = closed_fanin_cone(design.design, list(design.response_flops))
        tainted_net = sorted(cone)[0]
        design.locked.key_gate_nets.append(tainted_net)
        diags = check("OR004", design)
        FIRED.add("OR004")
        assert any(tainted_net in d.message for d in diags)

    def test_or005_unlock_misses_key(self, orap_basic):
        design = copy.deepcopy(orap_basic)
        k0 = design.locked.key_inputs[0]
        design.locked.correct_key[k0] ^= 1
        (diag,) = check("OR005", design)
        FIRED.add("OR005")
        assert "misses the key" in diag.message

    def test_or006_key_width_mismatch(self, orap_basic):
        design = copy.deepcopy(orap_basic)
        design.locked.key_inputs.append("keyinput_extra")
        (diag,) = check("OR006", design)
        FIRED.add("OR006")
        assert str(design.lfsr_config.size) in diag.message

    def test_clean_designs_pass_all_orap_rules(self, orap_basic, orap_modified):
        for design in (orap_basic, orap_modified):
            report = lint_orap(design)
            assert report.is_clean(), report.format()
            assert {f"OR00{i}" for i in range(1, 7)} <= set(report.rules_run)


# ------------------------------------------------------------------ #
# file drivers (IO001) and the verilog parity contract


class TestFileDrivers:
    def test_io001_unknown_suffix(self, tmp_path):
        report = lint_path(tmp_path / "netlist.xyz")
        (diag,) = fired(report, "IO001")
        assert "unsupported file type" in diag.message

    def test_io001_missing_file(self, tmp_path):
        report = lint_path(tmp_path / "missing.bench")
        assert [d for d in report if d.rule_id == "IO001"]

    def test_io001_unparseable_verilog(self, tmp_path):
        p = tmp_path / "broken.v"
        p.write_text("this is not verilog\n")
        report = lint_path(p)
        (diag,) = fired(report, "IO001")
        assert "cannot parse Verilog" in diag.message
        assert str(p) in diag.location.source

    def test_verilog_error_carries_line_number(self, tmp_path):
        p = tmp_path / "badstmt.v"
        p.write_text(
            "module m (a, y);\n"
            "input a;\n"
            "output y;\n"
            "frobnicate q (y, a);\n"
            "endmodule\n"
        )
        report = lint_path(p)
        (diag,) = [d for d in report if d.rule_id == "IO001"]
        assert f"{p}:4" in diag.message

    def test_good_verilog_round_trip_lints_clean(self, tmp_path):
        from repro.bench import c17
        from repro.netlist import SequentialCircuit, write_verilog

        p = tmp_path / "c17.v"
        p.write_text(write_verilog(SequentialCircuit(c17(), name="c17")))
        report = lint_path(p)
        assert report.is_clean(strict=True), report.format()

    def test_bench_path_dispatch(self, tmp_path):
        p = tmp_path / "tiny.bench"
        p.write_text("INPUT(a)\nOUTPUT(o)\no = NOT(a)\n")
        report = lint_path(p)
        assert report.is_clean(strict=True)

    @pytest.mark.parametrize("suffix", [".bench", ".v"])
    def test_io001_non_utf8_file(self, tmp_path, suffix):
        p = tmp_path / f"binary{suffix}"
        p.write_bytes((BAD_CORPUS / "non_utf8.bench").read_bytes())
        (diag,) = lint_path(p).diagnostics
        assert diag.rule_id == "IO001" and diag.severity is Severity.ERROR
        assert "utf-8" in diag.message
        assert str(p) in diag.location.source

    def test_non_utf8_verilog_diagnostic_is_located(self, tmp_path):
        from repro.corpus.frontend import read_netlist

        p = tmp_path / "late.v"
        p.write_bytes(b"module m (a, y);\ninput a;\n// caf\xe9\nendmodule\n")
        (diag,) = read_netlist(p).errors
        assert diag.line_no == 3
        (lint_diag,) = lint_path(p).diagnostics
        assert lint_diag.location.line_no == 3

    @pytest.mark.parametrize("name", ["d.bench", "d.v"])
    def test_io001_directory(self, tmp_path, name):
        p = tmp_path / name
        p.mkdir()
        (diag,) = lint_path(p).diagnostics
        assert diag.rule_id == "IO001"
        assert "cannot read file" in diag.message


# ------------------------------------------------------------------ #
# registry and diagnostics


class TestRegistry:
    def test_catalog_is_complete(self):
        rules = all_rules()
        assert len(rules) == 17
        assert [r.id for r in rules] == sorted(r.id for r in rules)
        for r in rules:
            assert r.rationale, f"{r.id} has no rationale"
            assert r.analyzer in ("netlist", "scheme", "orap")
            assert r.severity in (Severity.ERROR, Severity.WARNING)

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule id"):

            @rule("NL001", "again", Severity.ERROR, "netlist", "dup")
            def nope(subject):
                return ()

    def test_unknown_analyzer_rejected(self):
        with pytest.raises(ValueError, match="unknown analyzer"):
            rule("XX001", "x", Severity.ERROR, "quantum", "nope")

class TestDiagnostics:
    def test_format_is_compiler_style(self):
        diag = Diagnostic(
            rule_id="NL002",
            severity=Severity.ERROR,
            message="gate 'g' reads undefined net 'x'",
            location=Location(obj="g", source="a.bench", line_no=7),
            hint="define 'x'",
        )
        text = diag.format()
        assert text.startswith("a.bench:7 g: error[NL002]")
        assert "(hint: define 'x')" in text

    def test_to_dict_round_trips_severity(self):
        diag = Diagnostic("NL003", Severity.ERROR, "undriven")
        d = diag.to_dict()
        assert d["rule"] == "NL003" and d["severity"] == "error"

    def test_sorted_puts_errors_first(self):
        report = LintReport(subject="s")
        report.add(Diagnostic("NL004", Severity.WARNING, "w"))
        report.add(Diagnostic("WL003", Severity.WARNING, "w"))
        report.add(Diagnostic("NL002", Severity.ERROR, "e"))
        assert [d.rule_id for d in report.sorted()] == ["NL002", "NL004", "WL003"]

# ------------------------------------------------------------------ #
# golden corpus: everything this repo ships must lint clean


class TestGoldenCorpus:
    def test_every_bundled_benchmark_is_clean(self):
        reports = lint_paper_benchmarks()
        assert len(reports) >= 10
        for report in reports:
            assert len(report) == 0, report.format()

    def test_netlist_rule_coverage_on_corpus(self):
        report = lint_paper_benchmarks(circuits=["s38417"])[0]
        expected = {f"NL{i:03d}" for i in range(1, 9)}
        assert expected <= set(report.rules_run)

    def test_orap_chips_are_clean(self):
        reports = lint_orap_chips()
        assert len(reports) == 2
        for report in reports:
            assert len(report) == 0, report.format()

    def test_generator_never_orphans_inputs(self):
        # regression: pruning used to leave unused PIs at small scales
        nl = generate_sequential(
            SequentialConfig(
                comb=GeneratorConfig(
                    n_inputs=30, n_outputs=20, n_gates=120, seed=11, name="g"
                ),
                n_flops=8,
            )
        )
        report = lint_netlist(nl)
        assert not [d for d in report if d.rule_id == "NL005"], report.format()


# ------------------------------------------------------------------ #
# ExperimentRunner pre-flight


def _error_report():
    report = LintReport(subject="bad")
    report.add(
        Diagnostic(
            "NL002",
            Severity.ERROR,
            "gate 'g' reads undefined net 'x'",
            location=Location(obj="g", source="bad.bench", line_no=3),
        )
    )
    return report


class TestRunnerPreflight:
    def test_error_report_becomes_error_row(self):
        runner = ExperimentRunner("pf", RunPolicy())
        ran = []
        outcome = runner.run_row(
            "row1", lambda: ran.append(1), preflight=_error_report
        )
        assert outcome.status is RunStatus.ERROR
        assert not ran, "compute must not run after a failed pre-flight"
        assert outcome.error_type == "LintError"
        assert "NL002" in outcome.error
        lint_payload = outcome.diagnostics["lint"]
        assert lint_payload[0]["rule"] == "NL002"

    def test_clean_report_lets_row_run(self):
        runner = ExperimentRunner("pf", RunPolicy())
        outcome = runner.run_row(
            "row1", lambda: 42, preflight=lambda: LintReport(subject="ok")
        )
        assert outcome.status is RunStatus.OK and outcome.value == 42

    def test_warnings_do_not_fail_preflight(self):
        report = LintReport(subject="warn")
        report.add(Diagnostic("NL004", Severity.WARNING, "dead net"))
        runner = ExperimentRunner("pf", RunPolicy())
        outcome = runner.run_row("row1", lambda: 1, preflight=lambda: report)
        assert outcome.status is RunStatus.OK

    def test_crashing_preflight_is_error_row(self):
        def boom():
            raise ValueError("linter exploded")

        runner = ExperimentRunner("pf", RunPolicy())
        outcome = runner.run_row("row1", lambda: 1, preflight=boom)
        assert outcome.status is RunStatus.ERROR
        assert outcome.error_type == "ValueError"

    def test_failed_preflight_is_checkpointed(self, tmp_path):
        policy = RunPolicy(checkpoint_dir=tmp_path, resume=True)
        runner = ExperimentRunner("pf", policy, fingerprint={"v": 1})
        runner.run_row("row1", lambda: 1, preflight=_error_report)
        saved = json.loads(
            next(tmp_path.rglob("*.json")).read_text()
        )
        assert saved["status"] == "error"
        assert saved["lint"][0]["rule"] == "NL002"

    def test_malformed_design_turns_matrix_into_error_rows(self, orap_basic):
        # the acceptance scenario: inject a structurally broken chip and
        # the whole attack matrix degrades to error rows, attack untouched
        broken = copy.deepcopy(orap_basic)
        broken.locked.correct_key[broken.locked.key_inputs[0]] ^= 1  # OR005
        cells = run_attack_matrix(design=broken, max_iterations=4)
        assert cells, "every cell must still produce a row"
        assert all(c.status == "error" for c in cells)
        assert all(not c.completed and not c.key_correct for c in cells)


# ------------------------------------------------------------------ #
# CLI driver


class TestCli:
    def test_list_rules(self):
        buf = io.StringIO()
        assert run_lint(list_rules=True, out=buf) == 0
        text = buf.getvalue()
        assert "NL001" in text and "OR005" in text and "WL001" in text
        assert catalog_text().splitlines()[0].startswith("ID")

    def test_clean_file_exits_zero(self, tmp_path):
        p = tmp_path / "ok.bench"
        p.write_text("INPUT(a)\nOUTPUT(o)\no = NOT(a)\n")
        buf = io.StringIO()
        assert run_lint(paths=[str(p)], out=buf) == 0
        assert "clean" in buf.getvalue()

    def test_error_file_exits_one(self, tmp_path):
        p = tmp_path / "bad.bench"
        p.write_text("INPUT(a)\nOUTPUT(o)\no = AND(a, ghost)\n")
        buf = io.StringIO()
        assert run_lint(paths=[str(p)], out=buf) == 1
        assert "error[IO001]" in buf.getvalue()  # undefined net, line 3

    def test_strict_promotes_warnings(self, tmp_path):
        p = tmp_path / "warn.bench"
        p.write_text(
            "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\nd = OR(a, b)\n"
        )
        assert run_lint(paths=[str(p)], out=io.StringIO()) == 0
        assert run_lint(paths=[str(p)], strict=True, out=io.StringIO()) == 1

    def test_json_format(self, tmp_path):
        p = tmp_path / "bad.bench"
        p.write_text("INPUT(a)\nOUTPUT(o)\n")
        buf = io.StringIO()
        run_lint(paths=[str(p)], fmt="json", out=buf)
        payload = json.loads(buf.getvalue())
        assert payload[0]["errors"] >= 1
        assert any(d["rule"] == "IO001" for d in payload[0]["diagnostics"])

    def test_benchmarks_corpus_flag(self):
        buf = io.StringIO()
        assert run_lint(benchmarks=True, strict=True, out=buf) == 0
        assert "c17: clean" in buf.getvalue()

    def test_cli_subcommand_wiring(self, tmp_path, capsys):
        from repro.__main__ import main

        p = tmp_path / "bad.bench"
        p.write_text("INPUT(a)\nOUTPUT(o)\n")
        assert main(["lint", str(p)]) == 1
        assert "IO001" in capsys.readouterr().out


# ------------------------------------------------------------------ #
# pinned findings: what the pre-flight and `repro lint` report today


BAD_CORPUS = Path(__file__).parent / "data" / "corpus_bad"

#: error and warning findings per malformed file, as
#: (rule, severity, object, source file name, line)
PINNED_BAD = {
    "bad_statement.v": {("IO001", "error", "", "bad_statement.v", 6)},
    "combinational_loop.bench": {
        ("IO001", "error", "", "combinational_loop.bench", 4),
    },
    "duplicate_driver.bench": {
        ("IO001", "error", "", "duplicate_driver.bench", 6),
    },
    "illegal_chars.bench": {("IO001", "error", "", "illegal_chars.bench", 5)},
    "no_module.v": {("IO001", "error", "", "no_module.v", 3)},
    "non_utf8.bench": {("IO001", "error", "", "non_utf8.bench", 1)},
    "truncated.v": {("IO001", "error", "", "truncated.v", 7)},
    "unbalanced_paren.bench": {
        ("IO001", "error", "", "unbalanced_paren.bench", 5),
    },
    "undeclared_output.bench": {
        ("IO001", "error", "", "undeclared_output.bench", 4),
    },
    "undefined_net.bench": {("IO001", "error", "", "undefined_net.bench", 4)},
    "unknown_op.bench": {("IO001", "error", "", "unknown_op.bench", 5)},
}

#: subjects of the default `repro lint` corpus, in report order
PINNED_CORPUS_SUBJECTS = [
    *(f"{n}@x0.02" for n in (
        "s38417", "s38584", "b17", "b18", "b19", "b20", "b21", "b22",
    )),
    "c17", "adder4", "eq4", "alu4", "parity8", "maj3", "s27_like",
    "orap-basic(orap_preflight_orap)", "orap-modified(orap_preflight_orap)",
]


def _pinned_view(report):
    """Error and warning findings as (rule, severity, object, file, line);
    a source under the bad corpus is shortened to its file name."""
    out = set()
    for d in report:
        if d.severity not in (Severity.ERROR, Severity.WARNING):
            continue
        source = d.location.source
        if source.startswith(str(BAD_CORPUS)):
            source = Path(source).name
        out.add(
            (d.rule_id, d.severity.value, d.location.obj, source,
             d.location.line_no)
        )
    return out


class TestPinnedFindings:
    """Error and warning findings of the default corpus and of every
    malformed file, and the exit codes `repro lint` derives from them.
    Recorded before the lint package was cut down; the malformed files
    were re-recorded when `repro lint` moved onto the front end's reader
    (each defect is now one IO001 at the line of the parse diagnostic)."""

    def test_default_corpus_has_no_findings(self):
        reports = lint_paper_benchmarks() + lint_orap_chips()
        assert [r.subject for r in reports] == PINNED_CORPUS_SUBJECTS
        for report in reports:
            assert _pinned_view(report) == set(), report.format()

    @pytest.mark.parametrize("name", sorted(PINNED_BAD))
    def test_bad_file_findings(self, name):
        assert _pinned_view(lint_path(BAD_CORPUS / name)) == PINNED_BAD[name]

    def test_strict_default_corpus_exits_zero(self):
        assert run_lint(strict=True, out=io.StringIO()) == 0

    def test_bad_corpus_exits_one(self):
        paths = [str(BAD_CORPUS / name) for name in sorted(PINNED_BAD)]
        assert run_lint(paths=paths, out=io.StringIO()) == 1
        assert run_lint(paths=paths, strict=True, out=io.StringIO()) == 1


def _findings(report):
    """Every finding as a sortable tuple, source shortened to its name."""
    return sorted(
        (d.rule_id, d.severity.value, d.location.obj,
         Path(d.location.source).name, d.location.line_no, d.message)
        for d in report
    )


def _parity_cases():
    return sorted(p.name for p in BAD_CORPUS.iterdir()) + ["latin1.bench"]


class TestLintPreflightParity:
    """`repro lint <file>` and a campaign's pre-flight read a netlist
    file through one front end, so they report the same findings."""

    @pytest.mark.parametrize("name", _parity_cases())
    def test_lint_path_matches_preflight(self, name, tmp_path):
        from repro.corpus.loader import load_circuit, preflight_report

        if name == "latin1.bench":
            # the only defect: a Latin-1 byte in a comment
            p = tmp_path / name
            p.write_bytes(b"# caf\xe9\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        else:
            p = BAD_CORPUS / name
        p = p.resolve()
        linted = _findings(lint_path(p))
        assert linted == _findings(preflight_report(load_circuit(p)))
        assert linted, "a malformed file must yield a finding"

    def test_dead_net_is_located_at_its_definition(self, tmp_path):
        p = tmp_path / "dead.bench"
        p.write_text(
            "# d drives nothing\nINPUT(a)\nINPUT(b)\nOUTPUT(o)\n"
            "o = AND(a, b)\nd = OR(a, b)\n"
        )
        (diag,) = lint_path(p).diagnostics
        assert diag.rule_id == "NL004" and diag.location.obj == "d"
        assert diag.location.line_no == 6


# ------------------------------------------------------------------ #
# meta: the whole catalog must be exercised (keep this class last)


class TestCatalogCoverage:
    def test_every_rule_has_a_firing_test(self):
        catalog = {r.id for r in all_rules()}
        missing = catalog - FIRED
        assert not missing, f"rules without a firing test: {sorted(missing)}"
