"""Checked-in catalog of the benchmark netlists shipped with the package.

Each :class:`CorpusEntry` names one circuit: its fixture file under
:data:`FIXTURES_DIR`, the family it belongs to, and the pinned blake2b
digest the fixture bytes must match.  The loader reads a fixture in
place and refuses it when the bytes do not match the pin; nothing is
copied, fetched or cached on disk.  A new circuit is one fixture file
plus one catalog line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

#: digest width shared with repro.cache.keys (hex chars = 2 * size)
DIGEST_SIZE = 16

#: where the packaged fixture files live
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class CorpusEntry:
    """One circuit in the corpus catalog."""

    name: str  # canonical circuit name ("c17", "s27", ...)
    family: str  # family key ("iscas85-mini", ...)
    blake2b: str  # pinned digest of the fixture bytes
    fmt: str = "bench"  # "bench" or "verilog"

    @property
    def filename(self) -> str:
        """The fixture's file name under :data:`FIXTURES_DIR`."""
        ext = ".v" if self.fmt == "verilog" else ".bench"
        return f"{self.name}{ext}"


#: pinned checksums are blake2b(digest_size=16) over the fixture bytes;
#: after editing a fixture, ``repro corpus verify`` reports its new
#: digest (``pinned …, got <digest>``) for the line below
_FIXTURE_CHECKSUMS = {
    "c17": "ab083664cffabba7283b9159a65b23b5",
    "c432_mini": "1a15f306b48b603654731258248a2357",
    "s27": "89141c5a734db91dbb1db981fa450204",
    "b01_mini": "eb7660361cd8df3d0a0a1b49309d26f6",
    "c17v": "82087db74b324a02b02a64d5dc3a2947",
}


def _fixture(name: str, family: str, fmt: str = "bench") -> CorpusEntry:
    return CorpusEntry(name, family, _FIXTURE_CHECKSUMS[name], fmt)


#: family key -> entries, in catalog order
FAMILIES: dict[str, tuple[CorpusEntry, ...]] = {
    "iscas85-mini": (
        _fixture("c17", "iscas85-mini"),
        _fixture("c432_mini", "iscas85-mini"),
    ),
    "iscas89-mini": (
        _fixture("s27", "iscas89-mini"),
    ),
    "itc99-mini": (
        _fixture("b01_mini", "itc99-mini"),
    ),
    "verilog-mini": (
        # distinct name from the BENCH c17: circuits are looked up by
        # name, and one name must map to exactly one fixture
        _fixture("c17v", "verilog-mini", fmt="verilog"),
    ),
}

#: every catalog entry, family by family
ENTRIES: tuple[CorpusEntry, ...] = tuple(
    entry for entries in FAMILIES.values() for entry in entries
)


def find_entry(name: str) -> CorpusEntry:
    """Look up one circuit by name; ``KeyError`` names the known ones."""
    for entry in ENTRIES:
        if entry.name == name:
            return entry
    raise KeyError(
        f"unknown corpus circuit {name!r}; known: "
        f"{sorted(e.name for e in ENTRIES)}"
    )


def blake2b_hex(data: bytes) -> str:
    """The corpus digest: blake2b, same width as repro.cache keys."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).hexdigest()

