"""AIG optimization passes: strash, rewrite, refactor (ABC-style roles).

The paper normalizes both circuit versions with ABC's
``strash -> refactor -> rewrite`` before comparing gate counts and levels;
:func:`optimize` applies the same pipeline here:

* **strash** — reconstruct with structural hashing and constant folding
  (duplicate-cone sharing);
* **rewrite** — local two-level simplifications during reconstruction
  (absorption, complement annihilation through one AND level);
* **refactor** — collect single-fanout AND chains into n-ary conjunctions
  and rebuild them as balanced trees (depth reduction).
"""

from __future__ import annotations

from itertools import compress

from .aig import AIG, FALSE_LIT


def _rebuild(aig: AIG, simplify: bool, balance: bool) -> AIG:
    """Reconstruct the live cone into a fresh AIG.

    Live ANDs are visited in id order.  PI ids coincide in both AIGs, so
    ``mapping`` (old node -> new literal) starts as the identity.
    """
    out = AIG()
    for name in aig.pi_names:
        out.add_pi(name)
    n_pis = len(aig.pis)
    f0, f1 = aig.fanin0, aig.fanin1
    live = aig.live_mask()
    order = list(compress(range(len(live)), live))
    mapping = [n << 1 for n in range(len(live))]

    if balance:
        # fan-out of every live node, capped at 2 (only "exactly 1" matters)
        fanout = bytearray(len(live))
        for f in [f0[n] for n in order] + [f1[n] for n in order] + aig.outputs:
            m = f >> 1
            fanout[m] = 2 if fanout[m] else 1

    for n in order:
        if balance and fanout[n] != 1:
            # leaves of the single-fanout AND tree rooted at n, left first
            leaves: list[int] = []
            stack = [f1[n], f0[n]]
            while stack:
                f = stack.pop()
                m = f >> 1
                if not f & 1 and m > n_pis and fanout[m] == 1:
                    stack.append(f1[m])
                    stack.append(f0[m])
                else:
                    leaves.append(f)
            if len(leaves) > 2:
                mapping[n] = out.add_and_multi(
                    [mapping[f >> 1] ^ (f & 1) for f in leaves]
                )
                continue
        a = f0[n]
        a = mapping[a >> 1] ^ (a & 1)
        b = f1[n]
        b = mapping[b >> 1] ^ (b & 1)
        mapping[n] = _add_simplified(out, a, b) if simplify else out.add_and(a, b)
    for o, name in zip(aig.outputs, aig.output_names):
        out.add_output(mapping[o >> 1] ^ (o & 1), name)
    return out


def _add_simplified(out: AIG, a: int, b: int) -> int:
    """``a & b`` in ``out``, with absorption/annihilation one AND level
    deep."""
    n_pis = len(out.pis)
    for left, right in ((a, b), (b, a)):
        node = right >> 1
        if node <= n_pis:
            continue
        x, y = out.fanin0[node], out.fanin1[node]
        if not right & 1:
            if left == x or left == y:
                return right  # a & (a & y) = a & y
            if left == x ^ 1 or left == y ^ 1:
                return FALSE_LIT  # a & (!a & y) = 0
        else:
            # a & !(a & y) = a & !y ;  a & !(!a & y) = a
            if left == x:
                return out.add_and(left, y ^ 1)
            if left == y:
                return out.add_and(left, x ^ 1)
            if left == x ^ 1 or left == y ^ 1:
                return left
    return out.add_and(a, b)


def strash(aig: AIG) -> AIG:
    """Structural hashing / constant-folding rebuild."""
    return _rebuild(aig, simplify=False, balance=False)


def rewrite(aig: AIG) -> AIG:
    """Local two-level simplification rebuild."""
    return _rebuild(aig, simplify=True, balance=False)


def refactor(aig: AIG) -> AIG:
    """Balance single-fanout AND chains (depth reduction)."""
    return _rebuild(aig, simplify=False, balance=True)


def optimize(aig: AIG, rounds: int = 1) -> AIG:
    """The paper's pipeline: strash -> refactor -> rewrite (per round)."""
    cur = strash(aig)
    for _ in range(rounds):
        cur = refactor(cur)
        cur = rewrite(cur)
    return cur
