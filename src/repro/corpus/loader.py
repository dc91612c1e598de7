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
from .frontend import ParseResult, read_netlist
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
    parsed: ParseResult

    @property
    def ok(self) -> bool:
        return self.parsed.ok

    @property
    def stats(self) -> "dict[str, int]":
        return self.parsed.stats

    def require_circuit(self) -> SequentialCircuit:
        """The parsed circuit, or the first parse error as an exception."""
        return self.parsed.raise_first()


#: (resolved path, digest) -> handle.  Per-process; pool workers build
#: their own on first use, which is exactly the parse-once guarantee
#: the pre-flight fix needs (parent lints and workers compute from the
#: same memoized object within each process).
_MEMO: dict[tuple[str, str], CircuitHandle] = {}


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
    handle = CircuitHandle(
        name=name or p.stem,
        path=str(p),
        digest=digest,
        parsed=read_netlist(p, data, name),
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
    """Lint report for one handle, without re-parsing the file: the same
    driver ``repro lint`` runs on a file."""
    from ..lint.api import lint_parsed

    return lint_parsed(handle.parsed, handle.path)


def clear_memo() -> None:
    """Drop the per-process memo (tests)."""
    _MEMO.clear()
