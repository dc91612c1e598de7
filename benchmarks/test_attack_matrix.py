"""Benchmark E3 — the Sect. II-A security analysis as a measured matrix.

Every oracle-based attack runs twice over the real scan protocol: against
the conventional chip (attack succeeds) and against the OraP chip (attack
completes but recovers a wrong key).  Oracle-less structural attacks and
the bypass attack are checked against the claims the paper makes for
them, and every cell of both variants is pinned at seed 7.
"""

import pytest

from repro.experiments import print_attack_matrix, run_attack_matrix

ORACLE_ATTACKS = {"sat", "appsat", "doubledip", "hillclimb", "sensitization"}

#: every cell at seed 7: (attack, chip, completed, key_correct,
#: iterations, oracle_queries, status)
_PINNED_CELLS = {
    "basic": [
        ("sat", "conventional", True, True, 2, 2, "ok"),
        ("appsat", "conventional", True, True, 1, 1, "ok"),
        ("doubledip", "conventional", True, True, 1, 1, "ok"),
        ("hillclimb", "conventional", True, True, 392, 128, "ok"),
        ("sensitization", "conventional", True, True, 48, 48, "ok"),
        ("sat", "orap", True, False, 3, 3, "ok"),
        ("appsat", "orap", True, False, 1, 1, "ok"),
        ("doubledip", "orap", True, False, 1, 1, "ok"),
        ("hillclimb", "orap", True, False, 57, 128, "ok"),
        ("sensitization", "orap", True, False, 48, 48, "ok"),
        ("sps", "orap", False, False, 0, 0, "ok"),
        ("removal", "orap", True, False, 0, 0, "ok"),
        ("bypass", "conventional", False, False, 0, 48, "ok"),
    ],
    "modified": [
        ("sat", "conventional", True, True, 3, 3, "ok"),
        ("appsat", "conventional", True, True, 1, 1, "ok"),
        ("doubledip", "conventional", True, True, 1, 1, "ok"),
        ("hillclimb", "conventional", True, True, 50, 128, "ok"),
        ("sensitization", "conventional", True, True, 48, 48, "ok"),
        ("sat", "orap", True, False, 3, 3, "ok"),
        ("appsat", "orap", True, False, 1, 1, "ok"),
        ("doubledip", "orap", True, False, 1, 1, "ok"),
        ("hillclimb", "orap", True, False, 24, 128, "ok"),
        ("sensitization", "orap", True, False, 48, 48, "ok"),
        ("sps", "orap", False, False, 0, 0, "ok"),
        ("removal", "orap", True, False, 0, 0, "ok"),
        ("bypass", "conventional", False, False, 0, 48, "ok"),
    ],
}


@pytest.mark.benchmark(group="attack-matrix")
@pytest.mark.parametrize("variant", ["basic", "modified"])
def test_attack_matrix(once, variant):
    cells = once(run_attack_matrix, variant=variant, seed=7)
    print()
    print_attack_matrix(cells)
    by = {(c.attack, c.chip): c for c in cells}

    # every cell exactly: an encoder or solver change that moves a DIP
    # count or a verdict shows here, not only a broken shape claim
    got = [
        (c.attack, c.chip, c.completed, c.key_correct, c.iterations,
         c.oracle_queries, c.status)
        for c in cells
    ]
    assert got == _PINNED_CELLS[variant]

    # conventional chip: every oracle-based attack recovers the key
    for attack in ORACLE_ATTACKS:
        cell = by[(attack, "conventional")]
        assert cell.key_correct, f"{attack} should beat the open oracle"

    # OraP chip: every oracle-based attack is thwarted
    for attack in ORACLE_ATTACKS:
        cell = by[(attack, "orap")]
        assert not cell.key_correct, f"{attack} should be thwarted by OraP"

    # oracle-less attacks do not unlock OraP+WLL
    assert not by[("sps", "orap")].key_correct
    assert not by[("removal", "orap")].key_correct
    # bypass fails against WLL's corruptibility even with an open oracle
    assert not by[("bypass", "conventional")].key_correct
