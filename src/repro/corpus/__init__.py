"""Real-corpus ingestion: streaming netlist front end + benchmark manager.

``repro.corpus`` owns everything between a benchmark distribution and a
:class:`~repro.netlist.SequentialCircuit` in memory:

* :mod:`repro.corpus.frontend` — the unified streaming, error-recovering
  BENCH/Verilog parser front end (``repro.netlist.parse_bench`` and
  friends delegate here);
* :mod:`repro.corpus.manifest` — the checked-in catalog of the
  ISCAS'85/'89 and ITC'99 class fixtures packaged in
  ``repro/corpus/fixtures/``, each with its pinned blake2b digest;
* :mod:`repro.corpus.loader` — parse-once circuit handles shared by
  campaign pre-flight lint and row compute; a corpus circuit is read
  in place from its fixture and refused on a digest mismatch.

Import cycle note: :mod:`repro.netlist` imports this package lazily
(inside function bodies), and this package imports :mod:`repro.netlist`
at module top — that order is load-bearing, do not invert it.
"""

from __future__ import annotations

from .frontend import (
    ParseDiagnostic,
    ParseResult,
    parse_bench_recovering,
    parse_verilog_recovering,
)
from .manifest import ENTRIES, FAMILIES, CorpusEntry
from .loader import CircuitHandle, CorpusError, load_circuit, preflight_report

__all__ = [
    "CircuitHandle",
    "CorpusEntry",
    "CorpusError",
    "ENTRIES",
    "FAMILIES",
    "ParseDiagnostic",
    "ParseResult",
    "load_circuit",
    "parse_bench_recovering",
    "parse_verilog_recovering",
    "preflight_report",
]
