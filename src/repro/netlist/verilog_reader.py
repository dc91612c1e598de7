"""Structural Verilog reader for the subset the writer emits.

Accepts gate-primitive structural Verilog: one module, `input`/`output`/
`wire` declarations, primitive instantiations (`nand g0 (y, a, b);`),
continuous assigns of constants / identity / ternary muxes, and the
behavioural scan-flop always-blocks produced by
:func:`repro.netlist.verilog_io.write_verilog`.  That is exactly enough
for round-tripping locked designs through the Verilog handoff format.

Malformed input raises :class:`~repro.netlist.bench_io.NetlistFormatError`
with file/line context — the same error contract as the BENCH reader, so
callers (and ``repro lint``) report both formats uniformly.

Parsing is delegated to the one netlist front end in
:mod:`repro.corpus.frontend` (imported lazily: ``repro.corpus`` imports
:mod:`repro.netlist` at top level); this module keeps the historical
strict API.  The front end additionally handles ``//`` and ``/* */``
comments, CRLF and line continuations, and offers a recovering mode
that collects every diagnostic instead of stopping at the first.
"""

from __future__ import annotations

from pathlib import Path

from .sequential import SequentialCircuit


def parse_verilog(
    text: str, name: str | None = None, source: str | None = None
) -> SequentialCircuit:
    """Parse structural Verilog into a sequential circuit.

    Combinational modules come back with an empty flop list.  Malformed
    input raises :class:`NetlistFormatError` naming ``source`` (defaults
    to the module name) and the offending line.
    """
    from ..corpus.frontend import parse_verilog_recovering

    return parse_verilog_recovering(
        text.splitlines(), name=name, source=source
    ).raise_first()


def load_verilog(path: str | Path) -> SequentialCircuit:
    """Parse structural Verilog from a file; a fresh circuit on each call.

    Errors are :class:`NetlistFormatError` naming the file path and line.
    """
    from ..corpus.frontend import parse_verilog_recovering, read_netlist

    return read_netlist(path, parse=parse_verilog_recovering).raise_first()
