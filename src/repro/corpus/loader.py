"""Parse-once circuit handles shared by pre-flight lint and row compute.

Campaign rows used to parse a netlist file twice: once in the runner's
pre-flight lint and again inside the row's compute.  This module keys a
process-global memo on ``(path, content digest)`` so each file is parsed
exactly once per process — the lint pre-flight builds its report from
the already-parsed handle, and the compute reuses the same circuit.

Counters: ``corpus.parse`` per actual parse, ``corpus.parse.cached`` per
memo hit (both validated by the telemetry schema).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .. import telemetry
from ..netlist.sequential import SequentialCircuit
from .frontend import (
    ParseDiagnostic,
    ParseResult,
    parse_bench_recovering,
    parse_verilog_recovering,
)
from .manifest import FIXTURES_DIR, blake2b_hex, find_entry


class CorpusError(RuntimeError):
    """A corpus circuit that cannot be served: the name is not in the
    catalog, or its fixture bytes do not match the pinned digest."""


@dataclass(frozen=True)
class CircuitHandle:
    """One parsed corpus circuit, memoized per process."""

    name: str
    path: str
    digest: str
    circuit: SequentialCircuit | None
    errors: tuple[ParseDiagnostic, ...]
    stats: "dict[str, int]"

    @property
    def ok(self) -> bool:
        return not self.errors and self.circuit is not None

    def require_circuit(self) -> SequentialCircuit:
        """The parsed circuit, or the first parse error as an exception."""
        if self.errors:
            raise self.errors[0].to_error()
        assert self.circuit is not None
        return self.circuit


#: (resolved path, digest) -> handle.  Per-process; pool workers build
#: their own on first use, which is exactly the parse-once guarantee
#: the pre-flight fix needs (parent lints and workers compute from the
#: same memoized object within each process).
_MEMO: dict[tuple[str, str], CircuitHandle] = {}


def _parse_file(path: Path, text: str, name: str) -> ParseResult:
    if path.suffix.lower() == ".v":
        return parse_verilog_recovering(
            text.splitlines(), name=name, source=str(path)
        )
    return parse_bench_recovering(
        text.splitlines(), name=name, source=str(path)
    )


def load_circuit(path: "str | Path", name: "str | None" = None) -> CircuitHandle:
    """Parse a netlist file once per process (recovering mode).

    The memo key includes the content digest, so an edited file is
    re-parsed while repeated loads of identical content are free.
    """
    p = Path(path).resolve()
    data = p.read_bytes()
    digest = blake2b_hex(data)
    key = (str(p), digest)
    cached = _MEMO.get(key)
    if cached is not None:
        telemetry.counter_add("corpus.parse.cached")
        return cached
    result = _parse_file(p, data.decode("utf-8", errors="replace"),
                         name or p.stem)
    handle = CircuitHandle(
        name=name or p.stem,
        path=str(p),
        digest=digest,
        circuit=result.circuit,
        errors=tuple(result.errors),
        stats=dict(result.stats),
    )
    _MEMO[key] = handle
    telemetry.counter_add("corpus.parse")
    return handle


def load_corpus_circuit(name: str) -> CircuitHandle:
    """Handle for a packaged corpus circuit, read in place from its
    fixture and checked against the pinned digest."""
    try:
        entry = find_entry(name)
    except KeyError as exc:
        raise CorpusError(exc.args[0]) from None
    handle = load_circuit(FIXTURES_DIR / entry.filename, name=name)
    if handle.digest != entry.blake2b:
        raise CorpusError(
            f"corpus fixture {entry.filename}: checksum mismatch "
            f"(pinned {entry.blake2b}, got {handle.digest})"
        )
    return handle


def preflight_report(handle: CircuitHandle):
    """Lint report for one handle, without re-parsing the file.

    Parse diagnostics flow in as IO001; when the parse was clean the
    full netlist rule set runs over the already-parsed circuit.
    """
    from ..lint import LintReport, lint_netlist

    if not handle.errors and handle.circuit is not None:
        return lint_netlist(handle.circuit, handle.path)
    report = LintReport(subject=handle.path)
    kind = "verilog" if handle.path.endswith(".v") else "netlist"
    for diag in handle.errors:
        report.add(diag.to_lint(kind))
    return report


def clear_memo() -> None:
    """Drop the per-process memo (tests)."""
    _MEMO.clear()
