"""Reader/writer for the ISCAS/ITC BENCH netlist format.

The BENCH dialect accepted here is the one used by the ISCAS'85/'89 and
ITC'99 distributions::

    # comment
    INPUT(a)
    OUTPUT(y)
    g1 = NAND(a, b)
    q  = DFF(d)

``DFF`` lines produce a :class:`~repro.netlist.sequential.SequentialCircuit`
whose combinational core treats each DFF output as a pseudo-primary input
and each DFF data net as a pseudo-primary output (standard full-scan view).
"""

from __future__ import annotations

from pathlib import Path

from .netlist import Netlist, NetlistError
from .sequential import SequentialCircuit


class NetlistFormatError(NetlistError):
    """A malformed BENCH file, reported with file/line context.

    Subclasses :class:`NetlistError` so existing ``except NetlistError``
    handlers keep working.  Attributes:

    * ``source`` — filename (or label) of the text being parsed;
    * ``line_no`` — 1-based line number of the offending line, ``0`` when
      the problem spans the whole file (e.g. an undeclared output);
    * ``line`` — the offending source line, stripped.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str = "<string>",
        line_no: int = 0,
        line: str = "",
    ) -> None:
        prefix = f"{source}:{line_no}: " if line_no else f"{source}: "
        super().__init__(prefix + message)
        self.source = source
        self.line_no = line_no
        self.line = line


def parse_bench(
    text: str, name: str = "bench", source: str | None = None
) -> SequentialCircuit:
    """Parse BENCH text into a sequential circuit (flop list may be empty).

    For a purely combinational file the result has no flip-flops and
    ``result.core`` is the whole circuit.  Malformed input raises
    :class:`NetlistFormatError` naming ``source`` (defaults to ``name``)
    and the offending line.

    This is the strict view of the :mod:`repro.corpus.frontend` scanner
    (imported lazily — ``repro.corpus`` imports this module for
    :class:`NetlistFormatError`): the first recovered diagnostic is
    raised, preserving the historical message/line contract.
    """
    from ..corpus.frontend import parse_bench_recovering

    return parse_bench_recovering(
        text.splitlines(), name=name, source=source
    ).raise_first()


def parse_bench_combinational(
    text: str, name: str = "bench", source: str | None = None
) -> Netlist:
    """Parse BENCH text that must be purely combinational."""
    circuit = parse_bench(text, name, source=source)
    if circuit.flops:
        raise NetlistFormatError(
            "file contains DFFs; use parse_bench()",
            source=source if source is not None else name,
        )
    return circuit.core


def load_bench(path: str | Path) -> SequentialCircuit:
    """Parse a BENCH file from disk (errors carry the path); a fresh
    circuit on each call."""
    from ..corpus.frontend import parse_bench_recovering, read_netlist

    return read_netlist(path, parse=parse_bench_recovering).raise_first()


def write_bench(circuit: SequentialCircuit | Netlist) -> str:
    """Serialize a circuit to BENCH text."""
    if isinstance(circuit, Netlist):
        circuit = SequentialCircuit(circuit, name=circuit.name)
    core = circuit.core
    qs = {ff.q: ff for ff in circuit.flops}
    ds = {ff.d for ff in circuit.flops}
    lines = [f"# {circuit.name}"]
    for i in core.inputs:
        if i not in qs:
            lines.append(f"INPUT({i})")
    for o in core.outputs:
        if o not in ds:
            lines.append(f"OUTPUT({o})")
    for ff in circuit.flops:
        lines.append(f"{ff.q} = DFF({ff.d})")
    for n in core.topological_order():
        g = core.gate(n)
        if g.gtype.is_source:
            if g.gtype.value.startswith("const"):
                lines.append(f"{n} = {g.gtype.value.upper()}()")
            continue
        op = {"not": "NOT", "buf": "BUFF"}.get(g.gtype.value, g.gtype.value.upper())
        lines.append(f"{n} = {op}({', '.join(g.fanin)})")
    return "\n".join(lines) + "\n"


def save_bench(circuit: SequentialCircuit | Netlist, path: str | Path) -> None:
    """Write BENCH text to a file."""
    Path(path).write_text(write_bench(circuit))
