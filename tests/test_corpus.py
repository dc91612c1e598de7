"""Corpus manager: manifest catalog, pinned fixtures, loader memo.

Everything here runs against the fixtures packaged in
``repro/corpus/fixtures/``; a corpus circuit is read in place and
checked against its pinned digest, so nothing touches the network or
the working directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus.loader import (
    clear_memo,
    load_circuit,
    load_corpus_circuit,
    preflight_report,
)
from repro.corpus.manifest import (
    ENTRIES,
    FIXTURES_DIR,
    blake2b_hex,
    find_entry,
)


class TestManifest:
    def test_vendored_checksums_match_fixture_bytes(self):
        for entry in ENTRIES:
            data = (FIXTURES_DIR / entry.filename).read_bytes()
            assert entry.blake2b == blake2b_hex(data), entry.name

    def test_unknown_family_raises_with_known_keys(self):
        from repro.experiments.source import (
            CircuitSelectionError,
            CircuitSource,
        )

        with pytest.raises(CircuitSelectionError, match="iscas85-mini"):
            CircuitSource(corpus="no-such-family").names()

    def test_find_entry(self):
        assert find_entry("s27").family == "iscas89-mini"
        with pytest.raises(KeyError):
            find_entry("nope")

    def test_names_unique_across_catalog_formats(self):
        # circuits are looked up by name: one name, one fixture
        names = [entry.name for entry in ENTRIES]
        assert len(names) == len(set(names))


class TestLoader:
    def test_parse_once_memo(self, tmp_path):
        clear_memo()
        p = tmp_path / "m.bench"
        p.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        first = load_circuit(p)
        second = load_circuit(p)
        assert second is first
        # content change re-parses
        p.write_text("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")
        third = load_circuit(p)
        assert third is not first

    def test_load_corpus_circuit_and_digests(self):
        from repro.experiments.source import CircuitSource

        clear_memo()
        handle = load_corpus_circuit("s27")
        assert handle.ok
        assert handle.stats["flops"] == 3
        fingerprint = CircuitSource(corpus="iscas89-mini").fingerprint(
            ["s27"], seed=0
        )
        assert fingerprint["corpus_digests"] == {"s27": handle.digest}

    def test_preflight_report_flows_parse_errors_as_io001(self, tmp_path):
        clear_memo()
        p = tmp_path / "bad.bench"
        p.write_text("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        handle = load_circuit(p)
        report = preflight_report(handle)
        assert any(d.rule_id == "IO001" for d in report.diagnostics)

    def test_preflight_report_runs_netlist_rules_when_clean(self, tmp_path):
        clear_memo()
        p = tmp_path / "ok.bench"
        p.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
        handle = load_circuit(p)
        report = preflight_report(handle)
        assert not any(d.rule_id == "IO001" for d in report.diagnostics)

    def test_require_circuit_raises_structured_error(self, tmp_path):
        clear_memo()
        p = tmp_path / "bad.bench"
        p.write_text("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        with pytest.raises(ValueError, match="FROB"):
            load_circuit(p).require_circuit()


class TestImportTime:
    def test_import_experiments_loads_no_corpus_module(self):
        # every campaign imports repro.experiments; the corpus front end
        # loads only when a corpus circuit is asked for
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, repro.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.corpus')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestRegistryBridge:
    """The :class:`CircuitSource` resolver over a corpus family."""

    def test_corpus_circuit_names(self):
        from repro.experiments.source import (
            CircuitSelectionError,
            CircuitSource,
        )

        source = CircuitSource(corpus="iscas85-mini")
        assert source.names() == ["c17", "c432_mini"]
        with pytest.raises(CircuitSelectionError, match="unknown corpus"):
            CircuitSource(corpus="nope").names()

    def test_build_corpus_circuit_full_scan(self):
        from repro.bench import build_paper_circuit
        from repro.experiments.source import CircuitSource

        clear_memo()
        c = CircuitSource(corpus="iscas89-mini").circuit(
            "s27", build_paper_circuit
        )
        # full-scan view: 4 PIs + 3 flop Q pseudo-PIs
        assert len(c.netlist.inputs) == 7
        assert c.key_width == 8
        assert c.control_inputs == 3
        assert c.paper.hd_percent == 0.0

    def test_paper_fingerprint_is_params_only(self):
        from repro.experiments.source import CircuitSource

        params = {"scale": 0.02, "seed": 0}
        assert CircuitSource(0.02).fingerprint(["b20"], **params) == params


@pytest.fixture
def fresh_memo():
    """An empty parse memo, so each test parses the fixtures itself."""
    clear_memo()


@pytest.mark.usefixtures("fresh_memo")
class TestBadSelection:
    """A selection no row can run fails up front, and cleanly at the CLI."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(corpus="iscas85-mini", circuits=["s27"]),
             "unknown circuit.*s27.*iscas85-mini"),
            (dict(circuits=["nosuch"]), "unknown circuit.*nosuch"),
            (dict(corpus="nosuch"), "unknown corpus family 'nosuch'"),
            (dict(corpus="iscas85", circuits=["c432"]),
             "unknown corpus family 'iscas85'"),
        ],
        ids=["other-family", "unknown-circuit", "unknown-family",
             "removed-family"],
    )
    def test_run_table1_raises(self, kwargs, message):
        from repro.experiments import run_table1
        from repro.experiments.source import CircuitSelectionError

        with pytest.raises(CircuitSelectionError, match=message):
            run_table1(**kwargs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--corpus", "iscas85-mini", "--circuits", "s27"],
            ["table1", "--circuits", "nosuch"],
            ["table2", "--corpus", "nosuch"],
            ["table1", "--corpus", "iscas85", "--circuits", "c432"],
            # no flop-bearing circuit: OraP has no scan chain to protect
            ["attacks", "--corpus", "iscas85-mini"],
        ],
        ids=["other-family", "unknown-circuit", "unknown-family",
             "removed-family", "no-sequential-host"],
    )
    def test_cli_reports_cleanly(self, argv, capsys):
        from repro.__main__ import main

        assert main([*argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.usefixtures("fresh_memo")
class TestSingleHostHarnesses:
    def test_attack_matrix_resume_pins_corpus_digest(
        self, tmp_path, monkeypatch
    ):
        import dataclasses

        import repro.corpus.loader as loader
        from repro.experiments import RunPolicy, attack_matrix

        calls = []
        real_run_attack = attack_matrix.run_attack

        def counting(name, *args, **kwargs):
            calls.append(name)
            return real_run_attack(name, *args, **kwargs)

        monkeypatch.setattr(attack_matrix, "run_attack", counting)
        policy = RunPolicy(checkpoint_dir=tmp_path / "ckpt", resume=True)
        first = attack_matrix.run_attack_matrix(
            corpus="iscas89-mini", policy=policy
        )
        n_cells = len(calls)
        assert n_cells == len(first)

        calls.clear()
        attack_matrix.run_attack_matrix(corpus="iscas89-mini", policy=policy)
        assert calls == []  # same content: every cell is reused

        real_load = loader.load_corpus_circuit
        monkeypatch.setattr(
            loader, "load_corpus_circuit",
            lambda name: dataclasses.replace(
                real_load(name), digest="0" * 32
            ),
        )
        again = attack_matrix.run_attack_matrix(
            corpus="iscas89-mini", policy=policy
        )
        assert len(calls) == n_cells  # changed content: all recomputed
        assert again == first


class TestCampaignParams:
    def test_cli_forwards_corpus_to_each_harness(self, monkeypatch, capsys):
        import repro.experiments as experiments
        from repro.__main__ import main

        seen = {}

        def fake(harness):
            def run(**kwargs):
                seen[harness] = kwargs["corpus"]
                return []

            return run

        harnesses = {
            "table1": "run_table1",
            "table2": "run_table2",
            "attacks": "run_attack_matrix",
        }
        for harness in harnesses.values():
            monkeypatch.setattr(experiments, harness, fake(harness))
        for cmd in harnesses:
            assert main([cmd, "--corpus", "iscas85-mini", "--no-cache"]) == 0
        assert seen == {h: "iscas85-mini" for h in harnesses.values()}


class TestCorpusCli:
    def test_list_and_verify(self, capsys):
        from repro.corpus.cli import run_corpus_cli

        assert run_corpus_cli("list") == 0
        out = capsys.readouterr().out
        assert all(entry.blake2b in out for entry in ENTRIES)
        assert run_corpus_cli("verify") == 0
        assert "clean" in capsys.readouterr().out

    def test_list_json_roundtrips(self, capsys):
        from repro.corpus.cli import run_corpus_cli

        assert run_corpus_cli("list", fmt="json") == 0
        listed = json.loads(capsys.readouterr().out)["entries"]
        assert [e["name"] for e in listed] == [e.name for e in ENTRIES]
        assert all(e["bytes"] > 0 for e in listed)

    def test_verify_fails_on_a_mismatched_pin(self, monkeypatch, capsys):
        import dataclasses

        import repro.corpus.cli as cli

        bad = dataclasses.replace(ENTRIES[0], blake2b="0" * 32)
        monkeypatch.setattr(cli, "ENTRIES", (bad, *ENTRIES[1:]))
        assert cli.run_corpus_cli("verify") == 1
        out = capsys.readouterr().out
        assert "c17: fixture c17.bench does not match" in out
        # the real digest is printed, so a new pin is read off the report
        assert f"got {ENTRIES[0].blake2b})" in out


class TestNothingOnDisk:
    """A corpus circuit is read in place from its packaged fixture."""

    @pytest.mark.parametrize(
        "leftover", [".repro-corpus/notes.txt", ".repro-corpus"],
        ids=["old-store-dir", "plain-file"],
    )
    def test_corpus_campaign_leaves_cwd_untouched(
        self, leftover, tmp_path, monkeypatch, capsys
    ):
        from repro.__main__ import main

        def snapshot():
            return {
                p.relative_to(tmp_path): p.is_file() and p.read_text()
                for p in tmp_path.rglob("*")
            }

        path = tmp_path / leftover
        path.parent.mkdir(exist_ok=True)
        path.write_text("keep me\n")
        before = snapshot()
        monkeypatch.chdir(tmp_path)
        clear_memo()
        assert main(["table1", "--corpus", "iscas85-mini", "--no-cache"]) == 0
        assert snapshot() == before

    def test_mismatched_fixture_is_a_selection_error(self, monkeypatch):
        import dataclasses

        import repro.corpus.loader as loader
        from repro.experiments import run_table1
        from repro.experiments.source import CircuitSelectionError

        real_find = loader.find_entry
        monkeypatch.setattr(
            loader, "find_entry",
            lambda name: dataclasses.replace(
                real_find(name), blake2b="0" * 32
            ),
        )
        clear_memo()
        with pytest.raises(CircuitSelectionError, match="checksum mismatch"):
            run_table1(corpus="iscas85-mini")


GOLDEN_DIR = Path(__file__).parent / "data" / "corpus_golden"


def _golden_runs():
    from repro.experiments import (
        print_attack_matrix,
        print_table1,
        print_table2,
        run_attack_matrix,
        run_table1,
        run_table2,
    )

    return {
        "table1_iscas85-mini": lambda: print_table1(
            run_table1(corpus="iscas85-mini")
        ),
        "table2_iscas89-mini": lambda: print_table2(
            run_table2(corpus="iscas89-mini")
        ),
        "attacks_iscas89-mini": lambda: print_attack_matrix(
            run_attack_matrix(corpus="iscas89-mini")
        ),
    }


class TestCorpusHarnessGolden:
    """Every harness's corpus path, pinned to its rendered table.

    The golden files are the harness output on the packaged ``*-mini``
    fixtures; a change to any shared compute path that moves a corpus
    row shows up here as a text diff.
    """

    @pytest.mark.parametrize(
        "run", ["table1_iscas85-mini", "table2_iscas89-mini",
                "attacks_iscas89-mini"],
    )
    def test_rendered_table_matches_golden(self, run, fresh_memo, capsys):
        text = _golden_runs()[run]()
        capsys.readouterr()
        assert text + "\n" == (GOLDEN_DIR / f"{run}.txt").read_text()

    @pytest.mark.parametrize(
        "run", ["table1_iscas85-mini", "table2_iscas89-mini",
                "attacks_iscas89-mini"],
    )
    def test_cli_stdout_matches_golden(self, run, fresh_memo, capsys):
        from repro.__main__ import main

        cmd, corpus = run.split("_")
        assert main([cmd, "--corpus", corpus, "--no-cache"]) == 0
        assert capsys.readouterr().out == (
            GOLDEN_DIR / f"{run}.txt"
        ).read_text()
