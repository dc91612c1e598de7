"""Registry of the paper's benchmark circuits and their published numbers.

For every circuit in Table I / Table II we record the published statistics
(gate count, combinational outputs, chosen LFSR/key size, control-gate
width) and the paper's reported results, and provide a builder that
produces a synthetic stand-in at a configurable scale (see DESIGN.md,
"Substitutions").  ``scale=1.0`` matches the paper's gate counts; the
default experiment scale is smaller so benches run in seconds on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist import Netlist
from .generator import GeneratorConfig, generate_netlist


@dataclass(frozen=True)
class PaperCircuit:
    """Published data for one Table I / Table II row.

    ``gates``/``outputs`` are the paper's "# Gates" (without inverters) and
    "# Outputs of comb." columns.  ``inputs`` is not published; we use a
    value consistent with the known ISCAS'89/ITC'99 interfaces (PIs plus
    scan pseudo-inputs of the full-scan combinational part).
    """

    name: str
    gates: int
    outputs: int
    inputs: int
    lfsr_size: int
    control_inputs: int
    # Table I (paper-reported)
    hd_percent: float
    area_overhead_percent: float
    delay_overhead_percent: float
    # Table II (paper-reported)
    fc_original: float
    red_abrt_original: int
    fc_protected: float
    red_abrt_protected: int
    depth: int = 24


PAPER_CIRCUITS: dict[str, PaperCircuit] = {
    c.name: c
    for c in [
        PaperCircuit(
            "s38417", 8709, 1742, 1664, 256, 3,
            39.45, 33.51, 14.29, 99.47, 165, 99.50, 165, depth=30,
        ),
        PaperCircuit(
            "s38584", 11448, 1730, 1464, 186, 3,
            50.00, 19.73, 0.0, 95.85, 1506, 96.65, 1265, depth=40,
        ),
        PaperCircuit(
            "b17", 29267, 1512, 1452, 256, 3,
            35.39, 11.21, 0.0, 97.23, 2122, 99.08, 717, depth=45,
        ),
        PaperCircuit(
            "b18", 97569, 3343, 3357, 97, 5,
            29.49, 1.80, 0.0, 99.43, 1513, 99.45, 1468, depth=60,
        ),
        PaperCircuit(
            "b19", 196855, 6672, 6666, 208, 5,
            31.00, 1.97, 4.51, 99.03, 5165, 99.21, 4254, depth=65,
        ),
        PaperCircuit(
            "b20", 17648, 512, 522, 236, 3,
            42.27, 27.16, 21.21, 99.29, 324, 99.33, 318, depth=55,
        ),
        PaperCircuit(
            "b21", 17972, 512, 522, 229, 3,
            41.00, 25.66, 19.40, 99.18, 381, 99.30, 340, depth=55,
        ),
        PaperCircuit(
            "b22", 26195, 757, 767, 243, 3,
            40.37, 18.68, 18.84, 99.48, 352, 99.50, 346, depth=60,
        ),
    ]
}

#: circuits in the paper's table order
PAPER_ORDER = ["s38417", "s38584", "b17", "b18", "b19", "b20", "b21", "b22"]


def build_paper_circuit(
    name: str, scale: float = 1.0, seed: int | None = None
) -> Netlist:
    """Build the synthetic stand-in for a paper circuit.

    Args:
        name: one of :data:`PAPER_ORDER`.
        scale: linear scale on gate/output/input counts.  ``1.0``
            reproduces the published sizes; experiments default to smaller
            scales for wall-clock reasons (the overhead *percentages* are
            size-relative, so shape is preserved — see EXPERIMENTS.md).
        seed: generator seed (defaults to a per-name stable hash).
    """
    try:
        spec = PAPER_CIRCUITS[name]
    except KeyError:
        raise KeyError(
            f"unknown paper circuit {name!r}; known: {PAPER_ORDER}"
        ) from None
    if seed is None:
        seed = sum(ord(ch) for ch in name)
    cfg = GeneratorConfig(
        n_inputs=max(8, int(spec.inputs * scale)),
        n_outputs=max(4, int(spec.outputs * scale)),
        n_gates=max(32, int(spec.gates * scale)),
        depth=max(6, int(spec.depth * min(1.0, 0.4 + 0.6 * scale))),
        seed=seed,
        name=f"{name}_x{scale:g}",
    )
    return generate_netlist(cfg)


def scaled_key_size(name: str, scale: float = 1.0) -> int:
    """The paper's LFSR/key size for a circuit, scaled and clamped.

    Keys scale linearly with the circuit so the gate-to-key-bit ratio —
    which drives the Table I overhead percentages — matches the paper's.
    A floor keeps scaled keys wide enough for meaningful HD measurement.
    """
    spec = PAPER_CIRCUITS[name]
    if scale >= 1.0:
        return spec.lfsr_size
    scaled = int(round(spec.lfsr_size * scale))
    floor = max(spec.control_inputs * 3, 12)
    return max(floor, min(spec.lfsr_size, scaled))
