"""Where a campaign's circuits come from: scaled stand-ins or the corpus.

A :class:`CircuitSource` is the one place that knows how the two circuit
sources differ.  Stand-ins are the synthetic circuits of
:mod:`repro.bench.registry`, built at ``scale``, with the paper's
published numbers alongside.  Corpus circuits are genuine netlists of a
:mod:`repro.corpus` family, read in place from the package's fixtures
and checked against their pinned digests (parse-once, see
:mod:`repro.corpus.loader`), as their full-scan combinational core;
nothing is published for them.  Harnesses ask the source for the
selected names, the fingerprint, each circuit's locking parameters and
its pre-flight lint report, and keep one compute function for both.

Corpus imports stay lazy: ``import repro.experiments`` must not pull in
the corpus front end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..bench import PAPER_CIRCUITS, PAPER_ORDER, PaperCircuit, scaled_key_size
from ..lint import lint_netlist
from ..locking import WLLConfig
from ..netlist import Netlist
from ..sim.optape import netlist_fingerprint
from .common import DEFAULT_SCALE


class CircuitSelectionError(ValueError):
    """A selection no row can run: an unknown corpus family or circuit,
    or a corpus fixture whose bytes do not match its pinned digest."""


#: ``((build, name, scale), netlist)`` of the last stand-in this process
#: built (see :meth:`CircuitSource._stand_in`).  Only copies of the
#: netlist leave it, and it is replaced whole, so it needs no lock: two
#: threads racing cost at most one more build.
_last_built: tuple[tuple[Callable[..., Netlist], str, float], Netlist] | None = None

#: the paper row of a corpus circuit: nothing is published, so every
#: number is zero except the control-gate fan-in, the paper's default 3
#: (it uses 5 only for the giant b18/b19)
_UNPUBLISHED = PaperCircuit("", 0, 0, 0, 0, 3, 0.0, 0.0, 0.0, 0.0, 0, 0.0, 0)


@dataclass(frozen=True)
class SourceCircuit:
    """One row's circuit and its locking parameters.

    ``paper`` holds the published row of a stand-in, or zeros for a
    corpus circuit; its ``control_inputs`` is the control-gate fan-in
    either way.
    """

    netlist: Netlist
    key_width: int
    paper: PaperCircuit

    @property
    def control_inputs(self) -> int:
        return self.paper.control_inputs

    def first_wll(self) -> WLLConfig:
        """WLL with ``key_width // control_inputs`` key gates: Table II's
        lock, and the first step of Table I's key-gate search."""
        return WLLConfig(
            key_width=self.key_width,
            control_width=self.control_inputs,
            n_key_gates=max(1, self.key_width // self.control_inputs),
        )


@dataclass(frozen=True)
class CircuitSource:
    """The stand-ins at ``scale``, or corpus family ``corpus``.

    Frozen and picklable: row tasks carry it to pool workers.  ``scale``
    is ignored for corpus circuits.
    """

    scale: float = DEFAULT_SCALE
    corpus: str | None = None

    def names(self, circuits: list[str] | None = None) -> list[str]:
        """The selected circuit names (default: all, in catalog order).

        Raises :class:`CircuitSelectionError` for a name outside the
        source, so a bad selection fails before any row runs.
        """
        known = PAPER_ORDER if self.corpus is None else self._family()
        names = list(circuits or known)
        unknown = [n for n in names if n not in known]
        if unknown:
            where = (
                "the paper circuits" if self.corpus is None
                else f"corpus family {self.corpus!r}"
            )
            raise CircuitSelectionError(
                f"unknown circuit(s) {', '.join(unknown)} in {where}; "
                f"known: {', '.join(known)}"
            )
        return names

    def fingerprint(self, names: list[str], **params: Any) -> dict:
        """A campaign fingerprint: ``params``, plus for corpus circuits
        the family and per-circuit content digests, so an updated corpus
        file is never served a stale checkpoint or cache row.  Raises
        :class:`CircuitSelectionError` for a corpus fixture that does not
        match its pinned digest."""
        if self.corpus is None:
            return params
        return {
            **params,
            "corpus": self.corpus,
            "corpus_digests": {n: self._handle(n).digest for n in names},
        }

    def circuit(
        self, name: str, build: Callable[..., Netlist]
    ) -> SourceCircuit:
        """One circuit with its key width and paper row.  ``build`` is
        :func:`~repro.bench.build_paper_circuit`, passed in by each
        harness so instrumentation of its module sees the call."""
        if self.corpus is None:
            return SourceCircuit(
                self._stand_in(name, build),
                scaled_key_size(name, self.scale),
                PAPER_CIRCUITS[name],
            )
        netlist = self._handle(name).require_circuit().core
        # one key bit per primary input, clamped to [8, 32]: tiny
        # fixtures stay lockable, big circuits attackable in CI time
        key_width = max(8, min(32, len(netlist.inputs)))
        return SourceCircuit(netlist, key_width, _UNPUBLISHED)

    def preflight(self, name: str, build: Callable[..., Netlist]):
        """The row's pre-flight lint report (corpus circuits lint the
        already-parsed handle instead of re-reading the file)."""
        if self.corpus is None:
            return lint_netlist(
                self._stand_in(name, build),
                source=f"{name}@x{self.scale:g}",
            )
        from ..corpus.loader import preflight_report

        return preflight_report(self._handle(name))

    def host(self, circuit: str | None = None):
        """``(name, circuit)`` of the first flop-bearing circuit in the
        selection (OraP protects a scan chain), flops kept.

        ``circuit=None`` selects the whole family.
        """
        names = self.names([circuit] if circuit else None)
        for name in names:
            seq = self._handle(name).require_circuit()
            if seq.flops:
                return name, seq
        raise CircuitSelectionError(
            f"corpus family {self.corpus!r} selection {', '.join(names)} "
            f"has no sequential circuit; OraP needs a scan chain to protect"
        )

    def _stand_in(self, name: str, build: Callable[..., Netlist]) -> Netlist:
        """A copy of stand-in ``name``, built by ``build`` unless it was
        the last one built: a row's pre-flight and its compute ask for
        the same circuit back to back.  Copies are cheap (they share the
        immutable gates), and a row that mutates its netlist cannot leak
        into another.  They carry the content hash, computed once here:
        each of Table I's doubling steps copies the row's netlist again
        and compiles the copy."""
        global _last_built
        key = (build, name, self.scale)
        last = _last_built
        if last is not None and last[0] == key:
            return last[1].copy()
        netlist = build(name, scale=self.scale)
        netlist_fingerprint(netlist)
        _last_built = (key, netlist)
        return netlist.copy()

    def _family(self) -> list[str]:
        from ..corpus.manifest import FAMILIES

        if self.corpus not in FAMILIES:
            raise CircuitSelectionError(
                f"unknown corpus family {self.corpus!r}; known: "
                f"{', '.join(sorted(FAMILIES))}"
            )
        return [e.name for e in FAMILIES[self.corpus]]

    def _handle(self, name: str):
        from ..corpus.loader import CorpusError, load_corpus_circuit

        try:
            return load_corpus_circuit(name)
        except CorpusError as exc:
            raise CircuitSelectionError(str(exc)) from None
