"""Corpus manager: manifest catalog, content-addressed store, loader memo.

Everything here runs fully offline against the vendored fixtures — the
same guarantee the campaign-smoke CI lane enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.corpus.loader import (
    clear_memo,
    load_circuit,
    load_corpus_circuit,
    preflight_report,
)
from repro.corpus.manifest import (
    FIXTURES_DIR,
    OFFLINE_FAMILIES,
    blake2b_hex,
    entries_for,
    find_entry,
    manifest_checksum,
)
from repro.corpus.store import CorpusError, CorpusStore


class TestManifest:
    def test_offline_families_are_all_vendored(self):
        for entry in entries_for(offline=True):
            assert entry.vendored is not None
            assert (FIXTURES_DIR / entry.vendored).exists()

    def test_vendored_checksums_match_fixture_bytes(self):
        for entry in entries_for(offline=True):
            data = (FIXTURES_DIR / entry.vendored).read_bytes()
            assert entry.blake2b == blake2b_hex(data), entry.name

    def test_unknown_family_raises_with_known_keys(self):
        with pytest.raises(KeyError, match="iscas85-mini"):
            entries_for(["no-such-family"])

    def test_offline_rejects_remote_only_family(self):
        with pytest.raises(KeyError, match="no vendored entries"):
            entries_for(["itc99"], offline=True)

    def test_find_entry(self):
        assert find_entry("s27").family == "iscas89-mini"
        with pytest.raises(KeyError):
            find_entry("nope")

    def test_names_unique_across_catalog_formats(self):
        # the store index is keyed by name: a name must never map to two
        # different formats (iscas89 s27 appears twice, same circuit)
        fmt_of: dict[str, str] = {}
        for entry in entries_for():
            assert fmt_of.setdefault(entry.name, entry.fmt) == entry.fmt

    def test_manifest_checksum_is_stable_hex(self):
        first = manifest_checksum()
        assert first == manifest_checksum()
        int(first, 16)
        assert len(first) == 32

    def test_mini_families_are_the_offline_tier(self):
        assert set(OFFLINE_FAMILIES) == {
            f for f in OFFLINE_FAMILIES if f.endswith("-mini")
        }
        assert "iscas85-mini" in OFFLINE_FAMILIES


class TestStore:
    def test_offline_fetch_materializes_vendored(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        results = store.fetch(offline=True)
        assert all(a == "vendored" for _, a in results)
        again = store.fetch(offline=True)
        assert all(a == "cached" for _, a in again)

    def test_remote_entry_errors_offline(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        results = dict(store.fetch(["iscas85-mini", "itc99"], offline=False))
        # vendored ones succeed; remote downloads fail in the sandbox
        assert results["c17"] == "vendored"

    def test_paranoid_read_heals_vendored_corruption(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.fetch(["iscas89-mini"], offline=True)
        path = store.path_of("s27")
        good = path.read_bytes()
        path.write_text("MANGLED\n")
        healed = store.path_of("s27")
        assert healed.read_bytes() == good

    def test_verify_reports_and_heals(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.fetch(["iscas85-mini"], offline=True)
        store.path_of("c17").write_text("junk")
        problems = store.verify()
        assert any("c17" in p and "healed" in p for p in problems)
        assert store.verify() == []

    def test_unknown_circuit_raises_corpus_error(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        with pytest.raises(CorpusError):
            store.path_of("no-such-circuit")

    def test_unfetched_vendored_circuit_self_heals(self, tmp_path):
        # path_of on an empty store still serves vendored entries
        store = CorpusStore(tmp_path / "corpus")
        assert store.path_of("c17").exists()

    def test_version_mismatch_wipes_store(self, tmp_path):
        root = tmp_path / "corpus"
        store = CorpusStore(root)
        store.fetch(offline=True)
        (root / "VERSION").write_text("corpus/999\n")
        reopened = CorpusStore(root)
        assert reopened.list_entries() == []

    def test_stored_file_carries_format_suffix(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.fetch(offline=True)
        assert store.path_of("c17").suffix == ".bench"
        assert store.path_of("c17v").suffix == ".v"

    def test_stats_include_manifest_checksum(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.fetch(["iscas85-mini"], offline=True)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["manifest_checksum"] == manifest_checksum()


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

    def test_load_corpus_circuit_and_digests(self, tmp_path, monkeypatch):
        from repro.experiments.source import CircuitSource

        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
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

    def test_build_corpus_circuit_full_scan(self, tmp_path, monkeypatch):
        from repro.bench import build_paper_circuit
        from repro.experiments.source import CircuitSource

        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
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
def fresh_store(tmp_path, monkeypatch):
    """An empty corpus store of the test's own (vendored entries heal in
    on first read) and an empty parse memo."""
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
    clear_memo()


@pytest.mark.usefixtures("fresh_store")
class TestBadSelection:
    """A selection no row can run fails up front, and cleanly at the CLI."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(corpus="iscas85-mini", circuits=["s27"]),
             "unknown circuit.*s27.*iscas85-mini"),
            (dict(circuits=["nosuch"]), "unknown circuit.*nosuch"),
            (dict(corpus="nosuch"), "unknown corpus family 'nosuch'"),
            (dict(corpus="iscas85", circuits=["c432"]), "not fetched"),
        ],
        ids=["other-family", "unknown-circuit", "unknown-family",
             "not-fetched"],
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
        ],
        ids=["other-family", "unknown-circuit", "unknown-family",
             "not-fetched"],
    )
    def test_cli_reports_cleanly(self, argv, capsys):
        from repro.__main__ import main

        assert main([*argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.usefixtures("fresh_store")
class TestSingleHostHarnesses:
    def test_arms_race_on_c17_is_a_clean_error(self, capsys):
        from repro.__main__ import main
        from repro.experiments import run_arms_race
        from repro.experiments.source import CircuitSelectionError

        # RLL/FLL clamp to c17's six gates; cyclic locking is the first
        # scheme that still cannot fit, and says so without a traceback
        from repro.locking import LockingError

        with pytest.raises(
            CircuitSelectionError, match="'c17'.*feedback"
        ) as info:
            run_arms_race(corpus="iscas85-mini")
        assert isinstance(info.value.__cause__, LockingError)
        assert main(["arms-race", "--corpus", "iscas85-mini"]) == 2
        assert capsys.readouterr().err.startswith("repro: arms-race host")

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
            lambda name, store=None: dataclasses.replace(
                real_load(name, store), digest="0" * 32
            ),
        )
        again = attack_matrix.run_attack_matrix(
            corpus="iscas89-mini", policy=policy
        )
        assert len(calls) == n_cells  # changed content: all recomputed
        assert again == first


class TestCampaignParams:
    def test_table_campaigns_accept_corpus(self):
        from repro.service.jobs import CAMPAIGNS

        for name in ("table1", "table2", "attacks"):
            params = CAMPAIGNS[name].normalize_params({"corpus": None})
            assert params["corpus"] is None

    def test_rows_total_consults_manifest(self):
        from repro.service.jobs import CAMPAIGNS

        spec = CAMPAIGNS["table1"]
        params = spec.normalize_params({"corpus": "iscas85-mini"})
        assert spec.rows_total(params) == 2


class TestCorpusCli:
    def test_fetch_list_verify_stats(self, tmp_path, capsys):
        from repro.corpus.cli import run_corpus_cli

        root = str(tmp_path / "corpus")
        assert run_corpus_cli("fetch", offline=True, corpus_dir=root) == 0
        out = capsys.readouterr().out
        assert "vendored" in out
        assert run_corpus_cli("list", corpus_dir=root) == 0
        assert run_corpus_cli("verify", corpus_dir=root) == 0
        assert run_corpus_cli("stats", corpus_dir=root) == 0

    def test_stats_json_roundtrips(self, tmp_path, capsys):
        from repro.corpus.cli import run_corpus_cli

        root = str(tmp_path / "corpus")
        run_corpus_cli("fetch", offline=True, corpus_dir=root)
        capsys.readouterr()
        assert run_corpus_cli("stats", corpus_dir=root, fmt="json") == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == len(entries_for(offline=True))

    def test_unknown_family_is_a_clean_error(self, tmp_path, capsys):
        from repro.corpus.cli import run_corpus_cli

        code = run_corpus_cli(
            "fetch", families=["bogus"], offline=True,
            corpus_dir=str(tmp_path / "corpus"),
        )
        assert code == 2
        assert "unknown corpus family" in capsys.readouterr().err


GOLDEN_DIR = Path(__file__).parent / "data" / "corpus_golden"


def _golden_runs():
    from repro.experiments import (
        print_arms_race,
        print_attack_matrix,
        print_table1,
        print_table2,
        run_arms_race,
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
        "arms_race_iscas89-mini": lambda: print_arms_race(
            run_arms_race(corpus="iscas89-mini")
        ),
    }


class TestCorpusHarnessGolden:
    """Every harness's corpus path, pinned to its rendered table.

    The golden files are the harness output on the vendored ``*-mini``
    fixtures; a change to any shared compute path that moves a corpus
    row shows up here as a text diff.
    """

    @pytest.mark.parametrize(
        "run", ["table1_iscas85-mini", "table2_iscas89-mini",
                "attacks_iscas89-mini", "arms_race_iscas89-mini"],
    )
    def test_rendered_table_matches_golden(self, run, fresh_store, capsys):
        text = _golden_runs()[run]()
        capsys.readouterr()
        assert text + "\n" == (GOLDEN_DIR / f"{run}.txt").read_text()
