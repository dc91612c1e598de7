"""The unified attack API: one registry, one entry point.

Campaign code used to import differently-shaped attack functions
(``sat_attack(netlist, keys, oracle, cfg)`` here, oracle-less
``sps_attack(netlist, keys)`` there) and adapt each call site by hand.
This module normalizes all of them behind:

* :func:`register` / :class:`AttackSpec` — the registry.  Each spec
  carries the attack's config dataclass and whether it consumes an
  oracle.
* :func:`run_attack` — ``run_attack("sat", locked, oracle)`` dispatches
  by name, builds a default config when none is given, threads a shared
  :class:`~repro.runtime.Budget` into it, and wraps the run in an
  ``attack.run`` telemetry span.

The legacy per-attack entry points remain importable and unchanged;
this is a facade, not a rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .. import telemetry
from ..locking import LockedCircuit
from ..netlist import Netlist
from ..runtime.budget import Budget
from .appsat import AppSATConfig, appsat_attack
from .bypass import BypassConfig, bypass_attack
from .config import AttackConfig
from .doubledip import DoubleDIPConfig, doubledip_attack
from .hillclimb import HillClimbConfig, hill_climb_attack
from .oracle import Oracle
from .removal import removal_attack
from .result import AttackResult, attack_result_from_dict, attack_result_to_dict
from .satattack import SATAttackConfig, sat_attack
from .sensitization import SensitizationConfig, sensitization_attack
from .sps import sps_attack

#: result-cache salt for attack runs — bump whenever any attack's search
#: semantics change, so stale cached results auto-invalidate
CACHE_VERSION = 1


class AttackTarget(NamedTuple):
    """Normalized view of what an attack runs against."""

    locked: Netlist
    key_inputs: tuple[str, ...]
    circuit: LockedCircuit | None


#: adapter signature every registered runner conforms to
AttackRunner = Callable[
    [AttackTarget, "Oracle | None", "AttackConfig | None"], AttackResult
]


@dataclass(frozen=True)
class AttackSpec:
    """One registry entry.

    Attributes:
        name: registry key (``run_attack``'s first argument).
        run: normalized runner ``(target, oracle, config) -> AttackResult``.
        config_type: the attack's config dataclass (None for configless
            structural attacks — ``config``/``budget`` are then rejected).
        needs_oracle: whether ``run_attack`` requires ``oracle``.
        description: one-line summary for listings.
    """

    name: str
    run: AttackRunner
    config_type: type[AttackConfig] | None = None
    needs_oracle: bool = True
    description: str = ""


_REGISTRY: dict[str, AttackSpec] = {}


def register(
    name: str,
    *,
    config_type: type[AttackConfig] | None = None,
    needs_oracle: bool = True,
    description: str = "",
) -> Callable[[AttackRunner], AttackRunner]:
    """Decorator registering a normalized attack runner under ``name``."""

    def decorate(fn: AttackRunner) -> AttackRunner:
        if name in _REGISTRY:
            raise ValueError(f"attack {name!r} already registered")
        _REGISTRY[name] = AttackSpec(
            name=name,
            run=fn,
            config_type=config_type,
            needs_oracle=needs_oracle,
            description=description,
        )
        return fn

    return decorate


def get_attack(name: str) -> AttackSpec:
    """Look up a registered attack (ValueError lists the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown attack {name!r}; registered: {known}"
        ) from None


def list_attacks() -> tuple[str, ...]:
    """Registered attack names, sorted."""
    return tuple(sorted(_REGISTRY))


def _normalize_target(
    locked: "LockedCircuit | Netlist",
    key_inputs: Sequence[str] | None,
) -> AttackTarget:
    if isinstance(locked, LockedCircuit):
        return AttackTarget(
            locked=locked.locked,
            key_inputs=tuple(locked.key_inputs),
            circuit=locked,
        )
    if key_inputs is None:
        raise TypeError(
            "run_attack(netlist, ...) needs key_inputs=; pass the "
            "LockedCircuit instead to have them derived"
        )
    return AttackTarget(
        locked=locked, key_inputs=tuple(key_inputs), circuit=None
    )


def run_attack(
    name: str,
    locked: "LockedCircuit | Netlist",
    oracle: Oracle | None = None,
    *,
    key_inputs: Sequence[str] | None = None,
    config: AttackConfig | None = None,
    budget: Budget | None = None,
) -> AttackResult:
    """Run a registered attack by name.

    Args:
        name: registry key (see :func:`list_attacks`).
        locked: the :class:`~repro.locking.LockedCircuit` under attack,
            or a bare locked :class:`~repro.netlist.Netlist` (then
            ``key_inputs`` is required).
        oracle: correct-response provider; required unless the attack is
            oracle-less (``AttackSpec.needs_oracle`` False).
        key_inputs: key input names when ``locked`` is a bare netlist.
        config: attack-specific config; defaults to the spec's
            ``config_type()``.  Must be an instance of that type.
        budget: shared :class:`~repro.runtime.Budget` merged into the
            config (``config.with_budget``); rejected for configless
            attacks rather than silently dropped.

    Returns:
        The attack's :class:`AttackResult`; the run is wrapped in an
        ``attack.run`` telemetry span and charges the
        ``attack.oracle_queries`` counter.

    When the process-global result cache (:mod:`repro.cache`) is
    configured, completed ``ok`` runs are served from and inserted into
    it.  The key covers the attack name, the target's content hashes
    (locked + original netlist structure, key bits), the oracle's
    underlying model, every config field (budget caps included) and
    this module's :data:`CACHE_VERSION`.  Targets or oracles without a
    stable content address (e.g. :class:`~repro.attacks.oracle.ScanOracle`
    over live chip state) silently run uncached.
    """
    spec = get_attack(name)
    target = _normalize_target(locked, key_inputs)
    if spec.needs_oracle and oracle is None:
        raise TypeError(f"attack {name!r} requires an oracle")
    if spec.config_type is None:
        if config is not None:
            raise TypeError(f"attack {name!r} takes no config")
        if budget is not None:
            raise TypeError(
                f"attack {name!r} takes no config, so a budget cannot "
                "be threaded into it"
            )
    else:
        if config is None:
            config = spec.config_type()
        elif not isinstance(config, spec.config_type):
            raise TypeError(
                f"attack {name!r} expects {spec.config_type.__name__}, "
                f"got {type(config).__name__}"
            )
        config = config.with_budget(budget)
    store, ck = _attack_cache_key(name, locked, target, oracle, config)
    if store is not None and ck is not None:
        payload = store.get(ck)
        if payload is not None:
            cached = attack_result_from_dict(payload)
            if cached is not None and cached.status == "ok":
                return cached
    with telemetry.span(
        "attack.run", attack=name, key_width=len(target.key_inputs)
    ) as sp:
        result = spec.run(target, oracle, config)
        sp.set(status=result.status, completed=result.completed)
    telemetry.counter_add("attack.oracle_queries", result.oracle_queries)
    if store is not None and ck is not None and result.status == "ok":
        # non-JSON-able note values make put() a silent no-op
        store.put(ck, attack_result_to_dict(result))
    return result


def _attack_cache_key(
    name: str,
    locked: "LockedCircuit | Netlist",
    target: AttackTarget,
    oracle: "Oracle | None",
    config: "AttackConfig | None",
):
    """(store, key) for one attack run — (None, None) when caching is
    disabled or any input lacks a stable content address."""
    from .. import cache as result_cache

    store = result_cache.active()
    if store is None:
        return None, None
    try:
        ck = result_cache.cache_key(
            "attack.run",
            salt=f"attacks.api/{CACHE_VERSION}",
            attack=name,
            target=locked if target.circuit is not None else target.locked,
            key_inputs=list(target.key_inputs),
            oracle=oracle,
            config=config,
        )
    except result_cache.Uncacheable:
        return None, None
    return store, ck


# --------------------------------------------------------------------- #
# built-in registrations


@register(
    "sat",
    config_type=SATAttackConfig,
    description="oracle-guided SAT attack (DIP loop)",
)
def _run_sat(target, oracle, config):
    return sat_attack(target.locked, target.key_inputs, oracle, config)


@register(
    "appsat",
    config_type=AppSATConfig,
    description="approximate SAT attack with random-query probing",
)
def _run_appsat(target, oracle, config):
    return appsat_attack(target.locked, target.key_inputs, oracle, config)


@register(
    "doubledip",
    config_type=DoubleDIPConfig,
    description="SAT attack with 2-distinguishing input patterns",
)
def _run_doubledip(target, oracle, config):
    return doubledip_attack(target.locked, target.key_inputs, oracle, config)


@register(
    "hillclimb",
    config_type=HillClimbConfig,
    description="local-search key recovery over oracle responses",
)
def _run_hillclimb(target, oracle, config):
    return hill_climb_attack(target.locked, target.key_inputs, oracle, config)


@register(
    "sensitization",
    config_type=SensitizationConfig,
    description="key sensitization with golden-pattern checks",
)
def _run_sensitization(target, oracle, config):
    return sensitization_attack(
        target.locked, target.key_inputs, oracle, config
    )


@register(
    "bypass",
    config_type=BypassConfig,
    description="bypass-unit synthesis around a wrong key",
)
def _run_bypass(target, oracle, config):
    return bypass_attack(target.locked, target.key_inputs, oracle, config)


@register(
    "sps",
    needs_oracle=False,
    description="oracle-less signal-probability skew analysis",
)
def _run_sps(target, oracle, config):
    return sps_attack(target.locked, list(target.key_inputs))


@register(
    "removal",
    needs_oracle=False,
    description="oracle-less key-gate removal / resynthesis",
)
def _run_removal(target, oracle, config):
    return removal_attack(target.locked, list(target.key_inputs))
