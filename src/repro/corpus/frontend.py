"""The one netlist front end: BENCH and structural Verilog.

Every netlist file is read by :func:`read_netlist`: the bytes are read
once, decoded as strict UTF-8 and handed, as lines, to the recovering
parser the suffix picks.  ``load_circuit`` (campaigns), ``load_bench``,
``load_verilog`` and ``repro lint`` all call it, so they agree on every
file.  One tokenizer + recursive-descent scanner per format serves both
the strict parsing API (``repro.netlist.parse_bench`` / ``parse_verilog``
delegate here) and the recovering mode:

* **error-recovering** — instead of raising at the first problem, the
  scanner records a :class:`ParseDiagnostic` (file/line/col + offending
  line) and resynchronizes at the next statement boundary (the next line
  for BENCH, the next ``;`` for Verilog);
* **strict-compatible** — strict mode replays recovery and then raises
  ``errors[0]`` as a :class:`~repro.netlist.bench_io.NetlistFormatError`,
  so every error message, line number and raise order of the historical
  parsers is preserved byte-for-byte (the binding contracts live in
  ``tests/test_bench_io.py`` / ``tests/test_verilog_reader.py``);
* **cascade-suppressing** — when the line scan already produced errors,
  the semantic post-pass (undefined nets, validation) is skipped: a
  single typo must yield one diagnostic, not a wall of follow-on noise
  (``repro.lint`` relies on this to emit exactly one IO001 per defect).

Tokenizer extensions over the historical parsers (all backward
compatible): CRLF line endings, trailing-backslash line continuations,
and ``//`` / ``/* */`` comments in Verilog.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from ..netlist.gates import BENCH_TYPES, GateType
from ..netlist.netlist import Netlist, NetlistError
from ..netlist.sequential import FlipFlop, SequentialCircuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lint.diagnostics import Diagnostic
    from ..netlist.bench_io import NetlistFormatError

# ------------------------------------------------------------------ #
# diagnostics


@dataclass(frozen=True)
class ParseDiagnostic:
    """One recoverable parse error with full position information."""

    message: str
    source: str = "<string>"
    line_no: int = 0  # 1-based; 0 = whole file
    col: int = 0  # 1-based; 0 = whole line
    line: str = ""  # the offending source line, stripped

    def format(self) -> str:
        """``source:line:col: message`` (parts omitted when unknown)."""
        if self.line_no and self.col:
            return f"{self.source}:{self.line_no}:{self.col}: {self.message}"
        if self.line_no:
            return f"{self.source}:{self.line_no}: {self.message}"
        return f"{self.source}: {self.message}"

    def to_error(self) -> "NetlistFormatError":
        """The equivalent strict-mode exception (lazy import: cycle)."""
        from ..netlist.bench_io import NetlistFormatError

        return NetlistFormatError(
            self.message,
            source=self.source,
            line_no=self.line_no,
            line=self.line,
        )

    def to_lint(self, kind: str = "netlist") -> "Diagnostic":
        """Flow this error into the ``repro.lint`` diagnostics model."""
        from ..lint.diagnostics import Diagnostic, Location, Severity

        label = {"netlist": "BENCH", "verilog": "Verilog"}.get(kind, kind)
        return Diagnostic(
            rule_id="IO001",
            severity=Severity.ERROR,
            message=f"cannot parse {label}: {self.format()}",
            location=Location(source=self.source, line_no=self.line_no),
        )


@dataclass
class ParseResult:
    """Outcome of a recovering parse.

    ``circuit`` is the best-effort model (None when nothing could be
    assembled); it is only guaranteed valid when ``errors`` is empty.
    ``stats`` carries throughput accounting: physical ``lines`` consumed,
    ``gates`` and ``flops`` accepted.  ``provenance`` maps each net to
    the 1-based line that defines it (input, gate or flop).
    """

    circuit: SequentialCircuit | None
    errors: list[ParseDiagnostic] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    provenance: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first(self) -> SequentialCircuit:
        """Strict view: raise ``errors[0]`` or return the circuit."""
        if self.errors:
            raise self.errors[0].to_error()
        assert self.circuit is not None
        return self.circuit


# ------------------------------------------------------------------ #
# shared tokenizer


_IDENT_RE = re.compile(r"[\w.\[\]$/]+")
_WORD_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class Token:
    """One lexeme with its 1-based column."""

    text: str
    col: int


def tokenize(line: str) -> list[Token] | None:
    """Split one statement into identifier/punctuation tokens.

    Identifiers use the BENCH net-name charset (``[\\w.\\[\\]$/]``);
    punctuation is ``( ) , =``.  Returns None when the line contains a
    character outside both sets — the caller reports it as unparseable.
    """
    toks: list[Token] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch in "(),=":
            toks.append(Token(ch, i + 1))
            i += 1
            continue
        m = _IDENT_RE.match(line, i)
        if m is None:
            return None
        toks.append(Token(m.group(), i + 1))
        i = m.end()
    return toks


class _LineStream:
    """Logical-line reader shared by both scanners.

    Strips CRLF, merges trailing-backslash continuations (the merged
    line reports the first physical line's number) and counts physical
    lines for the throughput stats.
    """

    def __init__(self, lines: Iterable[str], comment: str | None = None):
        # a single shared iterator: re-entering ``__iter__`` (e.g. to
        # drain after an early ``endmodule``) resumes, never restarts
        self._lines = iter(lines)
        self._comment = comment
        self.physical = 0

    def __iter__(self) -> Iterator[tuple[int, str]]:
        pending: str | None = None
        pending_no = 0
        for raw in self._lines:
            self.physical += 1
            text = raw.rstrip("\r\n")
            if pending is not None:
                text = pending + text
                no = pending_no
            else:
                no = self.physical
            body = text
            if self._comment is not None:
                body = text.split(self._comment, 1)[0]
            if body.rstrip().endswith("\\"):
                pending = body.rstrip()[:-1]
                pending_no = no
                continue
            pending = None
            yield no, text
        if pending is not None:
            yield pending_no, pending


# ------------------------------------------------------------------ #
# BENCH


def _parse_bench_statement(
    toks: list[Token],
) -> tuple[str, ...] | None:
    """Classify one tokenized BENCH line.

    Returns ``("io", kind, net)``, ``("def", lhs, op, arg0, ...)`` or
    None (unparseable).  Mirrors the historical regex grammar: ``INPUT``
    / ``OUTPUT`` are case-sensitive, operator names are bare words,
    argument lists tolerate empty slots (``AND(a,)`` has one argument).
    """
    if not toks:
        return None
    head = toks[0]
    if _IDENT_RE.fullmatch(head.text) is None:
        return None
    if len(toks) == 4 and head.text in ("INPUT", "OUTPUT"):
        if (
            toks[1].text == "("
            and toks[3].text == ")"
            and _IDENT_RE.fullmatch(toks[2].text)
        ):
            return ("io", head.text, toks[2].text)
        return None
    if len(toks) >= 5 and toks[1].text == "=":
        op = toks[2]
        if (
            _WORD_RE.fullmatch(op.text) is None
            or toks[3].text != "("
            or toks[-1].text != ")"
        ):
            return None
        args: list[str] = []
        for t in toks[4:-1]:
            if t.text == ",":
                continue
            if _IDENT_RE.fullmatch(t.text) is None:
                return None
            args.append(t.text)
        return ("def", head.text, op.text, *args)
    return None


def _loop_site(
    core: Netlist, defined_at: Mapping[str, tuple[int, str]]
) -> tuple[int, str]:
    """``(line_no, line)`` of the earliest-defined gate on a combinational
    loop of ``core``, or ``(0, "")`` when it has none."""
    loop = core.one_loop()
    return min((defined_at[n] for n in loop if n in defined_at), default=(0, ""))


def parse_bench_recovering(
    lines: Iterable[str], name: str = "bench", source: str | None = None
) -> ParseResult:
    """Error-recovering BENCH parse.

    Scans line by line, recording a :class:`ParseDiagnostic` per defect
    and resynchronizing at the next line.  Recovery policy per defect
    (only the recovered *model* differs; strict mode raises ``errors[0]``
    before any of it is observable): unparseable/unknown-operator lines
    are dropped, duplicate drivers keep the first definition, arity
    violations keep the statement truncated to a legal fan-in.  The
    semantic post-pass (undefined nets, output checks, validation) runs
    only when the scan was clean, so one typo yields one diagnostic.
    """
    src = source if source is not None else name
    core = Netlist(name)
    outputs: list[tuple[str, int, str]] = []  # (net, line_no, line)
    flops: list[tuple[str, str, int, str]] = []  # (q, d, line_no, line)
    defined_at: dict[str, tuple[int, str]] = {}
    errors: list[ParseDiagnostic] = []
    n_gates = 0

    def err(message: str, line_no: int = 0, line: str = "", col: int = 0) -> None:
        errors.append(
            ParseDiagnostic(message, source=src, line_no=line_no, line=line, col=col)
        )

    stream = _LineStream(lines, comment="#")
    for line_no, raw in stream:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = tokenize(line)
        stmt = _parse_bench_statement(toks) if toks is not None else None
        if stmt is None:
            err(f"unparseable BENCH line: {raw.strip()!r}", line_no, line, col=1)
            continue
        if stmt[0] == "io":
            _, kind, net = stmt
            if kind == "INPUT":
                if net in defined_at:
                    err(
                        f"net {net!r} already defined on line "
                        f"{defined_at[net][0]}",
                        line_no,
                        line,
                    )
                    continue
                core.add_input(net)
                defined_at[net] = (line_no, line)
            else:
                outputs.append((net, line_no, line))
            continue
        _, lhs, raw_op, *args = stmt
        op = raw_op.upper()
        if lhs in defined_at:
            err(
                f"net {lhs!r} already defined on line {defined_at[lhs][0]}",
                line_no,
                line,
            )
            continue
        if op == "DFF":
            if len(args) != 1:
                err(
                    f"DFF {lhs!r} must have exactly one input, got {len(args)}",
                    line_no,
                    line,
                )
                if not args:
                    continue  # nothing to recover from
                args = args[:1]  # recovered model keeps the first data net
            flops.append((lhs, args[0], line_no, line))
            core.add_input(lhs)  # Q net is a pseudo-primary input of the core
        elif op in BENCH_TYPES:
            try:
                core.add_gate(lhs, BENCH_TYPES[op], args)
                n_gates += 1
            except (NetlistError, ValueError) as exc:
                err(str(exc), line_no, line)
                continue
        else:
            err(f"unknown BENCH gate type {op!r}", line_no, line)
            continue
        defined_at[lhs] = (line_no, line)

    scan_clean = not errors
    if scan_clean:
        # semantic post-pass, in the strict parser's historical order:
        # undefined fan-ins (at the referencing line), then outputs, then
        # flop data nets — all against the defining/declaring line
        for lhs, (line_no, line) in defined_at.items():
            if not core.has_net(lhs):
                continue
            for fi in core.gate(lhs).fanin:
                if not core.has_net(fi):
                    err(f"gate {lhs!r} uses undefined net {fi!r}", line_no, line)
        for o, line_no, line in outputs:
            if not core.has_net(o):
                err(f"OUTPUT({o}) names an undefined net", line_no, line)
        for q, d, line_no, line in flops:
            if not core.has_net(d):
                err(f"DFF {q!r} uses undefined net {d!r}", line_no, line)

    circuit: SequentialCircuit | None = None
    out_nets = [o for o, _, _ in outputs] + [d for _, d, _, _ in flops]
    try:
        core.set_outputs(out_nets)
        circuit = SequentialCircuit(core, name=name)
        for q, d, _, _ in flops:
            if core.has_net(d) and core.has_net(q):
                circuit.add_flop(FlipFlop(f"ff_{q}", d=d, q=q))
        # true primary outputs were listed first; pseudo-outputs appended
        circuit.core.set_outputs(out_nets)
        if scan_clean and not errors:
            try:
                circuit.validate()
            except NetlistError as exc:
                err(str(exc), *_loop_site(core, defined_at))
    except (NetlistError, ValueError) as exc:
        # best-effort assembly failed outright; only report it when the
        # scan itself was clean (otherwise it is cascade noise)
        if scan_clean and not errors:
            err(str(exc))

    return ParseResult(
        circuit=circuit,
        errors=errors,
        stats={
            "lines": stream.physical,
            "gates": n_gates,
            "flops": len(flops),
        },
        provenance={net: no for net, (no, _) in defined_at.items()},
    )


# ------------------------------------------------------------------ #
# Verilog (the structural subset repro.netlist.verilog_io emits)


_VERILOG_PRIMITIVES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
}

_MODULE_RE = re.compile(r"module\s+(\S+)\s*\((.*?)\)\s*;", re.S)
_DECL_RE = re.compile(r"^(input|output|wire|reg)\s+(.+)$")
_INST_RE = re.compile(r"^(\w+)\s+\w+\s*\((.*)\)$")
_ASSIGN_CONST_RE = re.compile(r"^assign\s+(\S+)\s*=\s*1'b([01])$")
_ASSIGN_MUX_RE = re.compile(
    r"^assign\s+(\S+)\s*=\s*(\S+)\s*\?\s*(\S+)\s*:\s*(\S+)$"
)
_ASSIGN_WIRE_RE = re.compile(r"^assign\s+(\S+)\s*=\s*([^?;]+)$")
_FF_RE = re.compile(
    r"^(\S+)_state\s*<=\s*scan_enable\s*\?\s*(\S+)\s*:\s*(\S+)$"
)
_ENDMODULE_RE = re.compile(r"\bendmodule\b")

_ALWAYS_HEADER = "always @(posedge clk)"
_SCAN_PORTS = frozenset({"clk", "scan_enable", "scan_in", "scan_out"})


def _unescape(token: str) -> str:
    token = token.strip()
    if token.startswith("\\"):
        return token[1:].strip()
    return token


class _VerilogCommentStripper:
    """Per-line ``//`` and ``/* */`` comment removal (stateful)."""

    def __init__(self) -> None:
        self._in_block = False

    def strip(self, text: str) -> str:
        out: list[str] = []
        i, n = 0, len(text)
        while i < n:
            if self._in_block:
                end = text.find("*/", i)
                if end < 0:
                    return "".join(out)
                self._in_block = False
                i = end + 2
                continue
            line_c = text.find("//", i)
            block_c = text.find("/*", i)
            if line_c < 0 and block_c < 0:
                out.append(text[i:])
                break
            if block_c < 0 or (0 <= line_c < block_c):
                out.append(text[i:line_c])
                break
            out.append(text[i:block_c])
            self._in_block = True
            i = block_c + 2
        return "".join(out)


def parse_verilog_recovering(
    lines: Iterable[str], name: str | None = None, source: str | None = None
) -> ParseResult:
    """Error-recovering parse of structural Verilog.

    Statements are assembled on the fly (``;`` is the resync boundary);
    a bad statement records a diagnostic and scanning continues at the
    next one.  Comments (``//``, ``/* */``), CRLF and line continuations
    are handled by the shared line layer.  The post-pass (deferred
    assigns, flop reconstruction, validation) is cascade-suppressed when
    the statement scan already recorded errors.
    """
    src = source if source is not None else (name or "<verilog>")
    errors: list[ParseDiagnostic] = []

    def err(message: str, line_no: int = 0, line: str = "") -> None:
        errors.append(
            ParseDiagnostic(message, source=src, line_no=line_no, line=line)
        )

    stream = _LineStream(lines)
    stripper = _VerilogCommentStripper()

    core: Netlist | None = None
    outputs: list[str] = []
    ff_updates: dict[str, tuple[str, str]] = {}  # state reg -> (prev, d)
    ff_q_assign: dict[str, tuple[str, int]] = {}  # q net -> (state reg, line)
    defined_at: dict[str, tuple[int, str]] = {}  # net -> (line, stmt)
    pending_assigns: list[tuple[str, str, int, str]] = []
    n_gates = 0

    mod_name: str | None = None
    header_buf: list[str] = []
    ended = False

    stmt_buf: list[str] = []
    stmt_line = 0

    def define(net: str, gtype: GateType, fanin: tuple[str, ...],
               line_no: int, stmt: str) -> bool:
        nonlocal n_gates
        assert core is not None
        try:
            core.add_gate(net, gtype, fanin)
            n_gates += 1
            defined_at[net] = (line_no, stmt)
            return True
        except (NetlistError, ValueError) as exc:
            err(str(exc), line_no, stmt)
            return False

    def process_statement(stmt: str, line_no: int) -> None:
        assert core is not None
        decl = _DECL_RE.match(stmt)
        if decl:
            kind, names = decl.groups()
            for tok in names.split(","):
                net = _unescape(tok)
                if not net or net in _SCAN_PORTS:
                    continue
                if kind == "input":
                    try:
                        core.add_input(net)
                        defined_at[net] = (line_no, stmt)
                    except NetlistError as exc:
                        err(str(exc), line_no, stmt)
                elif kind == "output":
                    outputs.append(net)
            return
        cm = _ASSIGN_CONST_RE.match(stmt)
        if cm:
            net, bit = _unescape(cm.group(1)), cm.group(2)
            if net not in _SCAN_PORTS:
                define(
                    net,
                    GateType.CONST1 if bit == "1" else GateType.CONST0,
                    (),
                    line_no,
                    stmt,
                )
            return
        mm = _ASSIGN_MUX_RE.match(stmt)
        if mm:
            y, s, d1, d0 = (_unescape(t) for t in mm.groups())
            define(y, GateType.MUX, (s, d0, d1), line_no, stmt)
            return
        fm = _FF_RE.match(stmt)
        if fm:
            reg, prev, d = (_unescape(t) for t in fm.groups())
            ff_updates[reg] = (prev, d)
            return
        wm = _ASSIGN_WIRE_RE.match(stmt)
        if wm:
            y, rhs = _unescape(wm.group(1)), _unescape(wm.group(2))
            if y in _SCAN_PORTS:
                return
            if rhs.endswith("_state"):
                ff_q_assign[y] = (rhs[: -len("_state")], line_no)
            else:
                pending_assigns.append((y, rhs, line_no, stmt))
            return
        im = _INST_RE.match(stmt)
        if im:
            prim, args = im.groups()
            if prim in _VERILOG_PRIMITIVES:
                nets = [_unescape(a) for a in args.split(",")]
                define(
                    nets[0],
                    _VERILOG_PRIMITIVES[prim],
                    tuple(nets[1:]),
                    line_no,
                    stmt,
                )
                return
        # `reg x_state` declarations and anything scan-infrastructure
        if stmt.startswith("reg ") or any(p in stmt for p in _SCAN_PORTS):
            return
        err(f"unsupported Verilog statement: {stmt!r}", line_no, stmt)

    def feed(chunk: str, line_no: int) -> None:
        nonlocal stmt_line
        if chunk.strip() and not any(p.strip() for p in stmt_buf):
            stmt_line = line_no
        stmt_buf.append(chunk)

    def flush() -> None:
        stmt = " ".join("".join(stmt_buf).split())
        stmt_buf.clear()
        if stmt:
            process_statement(stmt, stmt_line)

    for line_no, raw in stream:
        text = stripper.strip(raw)
        if core is None:
            header_buf.append(text + "\n")
            if "module" not in text and ";" not in text:
                continue
            joined = "".join(header_buf)
            m = _MODULE_RE.search(joined)
            if m is None:
                continue
            mod_name = name or _unescape(m.group(1))
            core = Netlist(mod_name)
            # feed the text after the header back through the statement
            # layer; it lives on this same physical line (the writer puts
            # a newline after the port list, so this is usually empty)
            # the match always completes on the current physical line
            # (it needs the ``;`` this line just supplied), so the
            # remainder has no interior newlines — only a trailing one
            rest = joined[m.end() :]
            header_buf.clear()
            text = rest[:-1] if rest.endswith("\n") else rest
            # fall through to statement assembly with the remainder
        text = text.replace(_ALWAYS_HEADER, ";")
        em = _ENDMODULE_RE.search(text)
        if em is not None:
            text = text[: em.start()]
            ended = True
        chunks = text.split(";")
        for chunk in chunks[:-1]:
            feed(chunk, line_no)
            flush()
        feed(chunks[-1], line_no)
        if ended:
            break
    if core is not None:
        flush()  # a trailing statement without ';' still counts
    # drain the stream so `stats["lines"]` counts the whole file even
    # when endmodule appears early
    for _ in stream:
        pass

    if core is None:
        # anchor the whole-file diagnostics on the last physical line so
        # they stay locatable (an unlocated diagnostic reads as a crash
        # in lint UIs and fails the robustness gate)
        err("no module found", max(1, stream.physical))
        return ParseResult(
            circuit=None, errors=errors, stats={"lines": stream.physical,
                                                "gates": 0, "flops": 0}
        )
    if not ended:
        err("missing endmodule", max(1, stream.physical))

    scan_clean = not errors
    if scan_clean:
        for y, rhs, line_no, stmt in pending_assigns:
            try:
                core.add_gate(y, GateType.BUF, (rhs,))
                n_gates += 1
                defined_at[y] = (line_no, stmt)
            except NetlistError as exc:
                err(str(exc), line_no, stmt)
    else:
        for y, rhs, _, _ in pending_assigns:
            try:
                core.add_gate(y, GateType.BUF, (rhs,))
                n_gates += 1
            except (NetlistError, ValueError):
                continue

    flops: list[FlipFlop] = []
    for q, (reg, line_no) in ff_q_assign.items():
        if reg not in ff_updates:
            if scan_clean:
                err(f"flop state {reg!r} has no always block", line_no)
            continue
        _, d = ff_updates[reg]
        try:
            core.add_input(q)
        except NetlistError as exc:
            if scan_clean:
                err(str(exc), line_no)
            continue
        defined_at[q] = (line_no, "")
        flops.append(FlipFlop(reg, d=d, q=q))

    circuit: SequentialCircuit | None = None
    try:
        core.set_outputs(outputs + [ff.d for ff in flops if ff.d not in outputs])
        circuit = SequentialCircuit(core, name=mod_name or "verilog")
        for ff in flops:
            if core.has_net(ff.d) and core.has_net(ff.q):
                circuit.add_flop(ff)
        if circuit.flops:
            circuit.build_scan_chains(1)
        if scan_clean and not errors:
            try:
                circuit.validate()
            except NetlistError as exc:
                err(str(exc), *_loop_site(core, defined_at))
    except (NetlistError, ValueError) as exc:
        if scan_clean and not errors:
            err(str(exc))

    return ParseResult(
        circuit=circuit,
        errors=errors,
        stats={
            "lines": stream.physical,
            "gates": n_gates,
            "flops": len(flops),
        },
        provenance={net: no for net, (no, _) in defined_at.items()},
    )


def read_netlist(
    path: str | Path,
    data: bytes | None = None,
    name: str | None = None,
    parse: Callable[..., ParseResult] | None = None,
) -> ParseResult:
    """Recovering parse of one netlist file.

    ``data`` is the file's bytes when the caller already holds them;
    otherwise they are read here (an ``OSError`` propagates).  They are
    decoded as strict UTF-8, whatever the locale: an undecodable byte
    gives one diagnostic at the line that holds it.  ``parse`` defaults
    to the parser the suffix picks: ``.v`` is Verilog, anything else
    BENCH.
    """
    p = Path(path)
    if data is None:
        data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        message = f"not utf-8 text ({exc.reason})"
        return ParseResult(
            None, [ParseDiagnostic(message, source=str(p), line_no=line_no)]
        )
    if parse is None:
        verilog = p.suffix.lower() == ".v"
        parse = parse_verilog_recovering if verilog else parse_bench_recovering
    return parse(text.splitlines(), name=name or p.stem, source=str(p))
