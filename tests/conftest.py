"""Test-suite configuration."""

import pytest
from hypothesis import HealthCheck, settings

from repro.netlist import GateType, Netlist

# property tests build netlists and run simulators inside strategies;
# generous deadlines keep them deterministic on slow CI boxes
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def parity_miter():
    """y = XNOR(left-to-right XOR chain, reversed-pairs XOR tree) over six
    inputs: y is constant 1, so ``y/sa1`` is redundant, and proving it
    takes real search (the two parity shapes share no internal net)."""
    nl = Netlist("parity_miter")
    ins = [nl.add_input(f"a{i}") for i in range(6)]
    acc = ins[0]
    for i, a in enumerate(ins[1:], start=1):
        acc = nl.add_gate(f"c{i}", GateType.XOR, [acc, a])
    rev = ins[::-1]
    pairs = [
        nl.add_gate(f"p{i}", GateType.XOR, [rev[2 * i], rev[2 * i + 1]])
        for i in range(3)
    ]
    q = nl.add_gate("q", GateType.XOR, [pairs[0], pairs[1]])
    tree = nl.add_gate("t", GateType.XOR, [q, pairs[2]])
    nl.add_gate("y", GateType.XNOR, [acc, tree])
    nl.set_outputs(["y"])
    return nl
