"""The common configuration contract shared by every attack.

Before this module each attack carried its own bespoke dataclass with
overlapping-but-renamed fields (``max_rounds`` here, ``max_flips``
there), which made attack×defense campaign code special-case every
column.  :class:`AttackConfig` is the shared base:

* ``max_iterations`` — the attack's primary iteration budget, whatever
  the algorithm's natural unit is (DIPs for the SAT family, key flips
  for hill climbing, sensitization rounds);
* ``seed`` — the PRNG seed for randomized attacks;
* ``budget`` — the shared :class:`~repro.runtime.Budget` bounding the
  whole run (wall clock + resource caps).

The pre-v1 spellings (``max_rounds``, ``max_flips``) completed their
deprecation cycle and were removed with the v1 API freeze — passing
them is now a :class:`TypeError`.  A frozen v1 spelling still gets one
release of :class:`DeprecationWarning` before removal, with a shim
written for that case; migration policy is documented in
``docs/ATTACK_API.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..runtime.budget import Budget


@dataclass
class AttackConfig:
    """Fields every attack configuration shares.

    Attributes:
        max_iterations: cap on the algorithm's primary loop (None =
            unlimited where the attack supports it; concrete configs
            override the default with their traditional value).
        seed: PRNG seed for randomized choices (ignored by
            deterministic attacks).
        budget: shared :class:`~repro.runtime.Budget`; violations
            surface as ``timeout``/``budget`` status rows, never
            exceptions.
    """

    max_iterations: int | None = None
    seed: int = 0
    budget: Budget | None = None

    def with_budget(self, budget: Budget | None) -> "AttackConfig":
        """Copy of this config with ``budget`` replaced (None keeps it)."""
        if budget is None:
            return self
        return replace(self, budget=budget)
