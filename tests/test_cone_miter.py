"""Property tests for miters whose second copy shares everything outside
the fanout cone of some root nets (:meth:`ClauseTemplate.stamp_cone`),
and for the sensitization and bypass miters built on it."""

import itertools
import random

import pytest

from repro.attacks.bypass import enumerate_disagreements
from repro.attacks.sensitization import _SensitizingMiter
from repro.bench import GeneratorConfig, generate_netlist
from repro.locking import lock_antisat, lock_sarlock
from repro.netlist import GateType, Netlist
from repro.sat import CNF, ClauseTemplate, Solver, encode_gate

_ARITY = {
    GateType.AND: (2, 4),
    GateType.OR: (2, 4),
    GateType.NAND: (2, 4),
    GateType.NOR: (2, 4),
    GateType.XOR: (2, 4),
    GateType.XNOR: (2, 4),
    GateType.MUX: (3, 3),
    GateType.NOT: (1, 1),
    GateType.BUF: (1, 1),
}


def _random_locked(seed, n_data=5, n_keys=4, n_gates=24, n_outputs=4):
    """A random netlist over data inputs ``x*`` and key inputs ``k*``:
    3- and 4-input XOR/XNOR (chain auxiliaries), MUX, NAND/NOR and both
    constants; every key input feeds at least one gate."""
    rng = random.Random(seed)
    nl = Netlist(f"cone{seed}")
    xs = [nl.add_input(f"x{i}") for i in range(n_data)]
    ks = [nl.add_input(f"k{i}") for i in range(n_keys)]
    nets = [*xs, *ks, nl.add_gate("zero", GateType.CONST0)]
    nets.append(nl.add_gate("one", GateType.CONST1))
    types = sorted(_ARITY, key=lambda t: t.name)
    for g in range(n_gates):
        gtype = rng.choice(types)
        lo, hi = _ARITY[gtype]
        fanin = [rng.choice(nets[-10:] if rng.random() < 0.6 else nets)
                 for _ in range(rng.randint(lo, hi))]
        if g < n_keys:
            fanin[0] = ks[g]
        nets.append(nl.add_gate(f"g{g}", gtype, fanin))
    nl.set_outputs(rng.sample(nets[-8:], n_outputs))
    return nl, xs, ks


def _cases(n):
    return _seeds(range(n))


def _seeds(seeds):
    return [pytest.param(seed, id=f"seed{seed}") for seed in seeds]


def _model_of(cnf, assumptions):
    res = Solver(cnf).solve(assumptions=assumptions)
    assert res.sat
    return res.model


class TestStampCone:
    @pytest.mark.parametrize("seed", _cases(12))
    def test_copy_evaluates_the_netlist_with_roots_overridden(self, seed):
        nl, xs, ks = _random_locked(seed)
        rng = random.Random(seed)
        roots = rng.sample(ks, rng.randint(1, 2))
        template = ClauseTemplate(nl)
        cnf = CNF()
        base = template.stamp(cnf, {})
        n_base = len(cnf.clauses)
        root_vars = {r: cnf.new_var() for r in roots}
        copy = template.stamp_cone(cnf, base, root_vars)
        cone = nl.transitive_fanout(roots)
        for net in nl.nets:
            if net in cone:
                assert copy[net] not in base.values(), net
            else:
                assert copy[net] == base[net], net
        # only the cone's gates emit clauses: as many as stamping the
        # cone's gates alone takes
        alone = CNF(n_vars=len(nl.nets))
        for net in nl.nets:
            if net in cone and net not in roots:
                g = nl.gate(net)
                encode_gate(alone, g.gtype, 1, [2] * len(g.fanin))
        assert len(cnf.clauses) - n_base == len(alone.clauses)
        assert template.cone_outputs(roots) == [
            o for o in nl.outputs if o in cone
        ]
        for _ in range(6):
            asg = {i: rng.randrange(2) for i in nl.inputs}
            forced = {r: rng.randrange(2) for r in roots}
            lits = [base[i] if v else -base[i] for i, v in asg.items()]
            lits += [root_vars[r] if v else -root_vars[r] for r, v in forced.items()]
            model = _model_of(cnf, lits)
            want_a = nl.evaluate(asg)
            want_b = nl.evaluate({**asg, **forced})
            for net in nl.nets:
                assert model[base[net]] == want_a[net], net
                assert model[copy[net]] == want_b[net], net

    def test_no_roots_adds_nothing(self):
        nl, _, _ = _random_locked(0)
        template = ClauseTemplate(nl)
        cnf = CNF()
        base = template.stamp(cnf, {})
        before = cnf.copy()
        assert template.stamp_cone(cnf, base, {}) == base
        assert cnf == before

    def test_unallocated_root_rejected(self):
        nl, _, ks = _random_locked(0)
        template = ClauseTemplate(nl)
        cnf = CNF()
        base = template.stamp(cnf, {})
        with pytest.raises(ValueError, match="not allocated"):
            template.stamp_cone(cnf, base, {ks[0]: cnf.n_vars + 1})


def _two_copy_sat(nl, xs, ks, bit, known):
    """The sensitization miter with two full copies (inputs, free keys
    and known constants shared), solved once."""
    template = ClauseTemplate(nl)
    cnf = CNF()
    share = {i: cnf.new_var() for i in xs}
    share.update({k: cnf.new_var() for k in ks if k != bit and k not in known})
    for k, v in known.items():
        share[k] = cnf.new_var()
        cnf.add_clause([share[k] if v else -share[k]])
    t0, t1 = cnf.new_var(), cnf.new_var()
    cnf.add_clause([-t0])
    cnf.add_clause([t1])
    var_a = template.stamp(cnf, {**share, bit: t0})
    var_b = template.stamp(cnf, {**share, bit: t1})
    diffs = []
    for o in nl.outputs:
        d = cnf.new_var()
        encode_gate(cnf, GateType.XOR, d, [var_a[o], var_b[o]])
        diffs.append(d)
    cnf.add_clause(diffs)
    return Solver(cnf).solve().sat


def _sensitizing_patterns(nl, xs, ks, bit, known):
    """Every data pattern some assignment of the free keys sensitizes
    ``bit`` under, by exhaustive simulation."""
    free = [k for k in ks if k != bit and k not in known]
    found = set()
    for xbits in itertools.product((0, 1), repeat=len(xs)):
        pattern = dict(zip(xs, xbits))
        for kbits in itertools.product((0, 1), repeat=len(free)):
            asg = {**pattern, **known, **dict(zip(free, kbits))}
            if nl.evaluate_outputs({**asg, bit: 0}) != nl.evaluate_outputs(
                {**asg, bit: 1}
            ):
                found.add(xbits)
                break
    return found


class TestSensitizingMiter:
    @pytest.mark.parametrize("seed", _cases(16))
    def test_agrees_with_the_two_copy_miter(self, seed):
        nl, xs, ks = _random_locked(seed)
        template = ClauseTemplate(nl)
        rng = random.Random(seed)
        for bit in ks:
            others = [k for k in ks if k != bit]
            known = {k: rng.randrange(2) for k in rng.sample(others, rng.randint(0, 2))}
            want = _two_copy_sat(nl, xs, ks, bit, known)
            if not template.cone_outputs([bit]):
                assert not want, bit
                continue
            miter = _SensitizingMiter(template, xs, ks, bit, known)
            # the whole enumeration, blocking each pattern in turn, is
            # exactly the set of sensitizing patterns
            seen = set()
            while (found := miter.solve()) is not None:
                pattern, free = found
                assert set(free) == {k for k in others if k not in known}
                asg = {**pattern, **known, **free}
                assert nl.evaluate_outputs({**asg, bit: 0}) != nl.evaluate_outputs(
                    {**asg, bit: 1}
                ), (bit, pattern)
                key = tuple(pattern[x] for x in xs)
                assert key not in seen
                seen.add(key)
                miter.block(pattern)
            assert bool(seen) == want, bit
            assert seen == _sensitizing_patterns(nl, xs, ks, bit, known), bit


def _disagreeing_inputs(nl, xs, key_a, key_b):
    out = set()
    for xbits in itertools.product((0, 1), repeat=len(xs)):
        pattern = dict(zip(xs, xbits))
        if nl.evaluate_outputs({**pattern, **key_a}) != nl.evaluate_outputs(
            {**pattern, **key_b}
        ):
            out.add(xbits)
    return out


def _covered(cube, xs):
    free = [x for x in xs if x not in cube]
    for bits in itertools.product((0, 1), repeat=len(free)):
        pattern = {**cube, **dict(zip(free, bits))}
        yield tuple(pattern[x] for x in xs)


#: seeds on which growing each cube one single-input flip at a time took
#: in inputs where the copies agree (two flips cancelled)
_CANCELLING_FLIPS = (27, 68, 70, 72, 73)


class TestEnumerateDisagreements:
    @pytest.mark.parametrize("seed", _cases(16) + _seeds(_CANCELLING_FLIPS))
    def test_cubes_cover_the_disagreeing_inputs(self, seed):
        nl, xs, ks = _random_locked(seed, n_data=8, n_keys=4, n_gates=30)
        rng = random.Random(seed)
        key_a = {k: rng.randrange(2) for k in ks}
        key_b = dict(key_a)
        for k in rng.sample(ks, rng.randint(1, 2)):
            key_b[k] ^= 1
        want = _disagreeing_inputs(nl, xs, key_a, key_b)
        cubes = enumerate_disagreements(nl, ks, key_a, key_b, limit=1 << len(xs))
        assert cubes is not None
        covered = set()
        for cube in cubes:
            points = set(_covered(cube, xs))
            assert points & want, cube  # each cube grew from a disagreement
            covered |= points
        # the cubes hold exactly the disagreeing inputs
        assert covered == want
        assert bool(cubes) == bool(want)

    @pytest.mark.parametrize("scheme", ["sarlock", "antisat"])
    @pytest.mark.parametrize("seed", _cases(4))
    def test_point_function_cubes_are_exact(self, seed, scheme):
        host = generate_netlist(
            GeneratorConfig(
                n_inputs=9, n_outputs=5, n_gates=40, depth=5, seed=seed,
                name=f"pf{seed}",
            )
        )
        if scheme == "sarlock":
            lc = lock_sarlock(host, key_width=5, rng=seed)
        else:
            lc = lock_antisat(host, half_width=4, rng=seed)
        nl, ks = lc.locked, lc.key_inputs
        xs = [i for i in nl.inputs if i not in set(ks)]
        rng = random.Random(seed)
        key_a = {k: rng.randrange(2) for k in ks}
        key_b = {**key_a}
        key_b[rng.choice(ks)] ^= 1
        cubes = enumerate_disagreements(nl, ks, key_a, key_b, limit=1 << len(xs))
        covered = set()
        for cube in cubes:
            covered |= set(_covered(cube, xs))
        assert covered == _disagreeing_inputs(nl, xs, key_a, key_b)
