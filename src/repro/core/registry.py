"""Name-based scheduler registry.

Schedulers register a *factory* under a short name; the
:class:`~repro.builder.SystemBuilder` materializes every registered
(or explicitly selected) scheduler when a system is assembled, so a
scheduler registered here shows up in ``repro schedule`` comparisons
and :attr:`~repro.builder.OmniBoostSystem.schedulers` automatically —
no assembly edits required.

A factory is a one-argument callable ``factory(builder) -> Scheduler``
receiving the :class:`~repro.builder.SystemBuilder` whose lazy
artifacts (``builder.platform``, ``builder.estimator``,
``builder.latency_table``, ...) it may pull; touching an artifact
triggers exactly the design-time work that scheduler needs and nothing
more (the GPU-only baseline never trains an estimator).

The four paper schedulers are pre-registered in the paper's comparison
order — ``baseline``, ``mosaic``, ``ga``, ``omniboost`` — and lookups
are case-insensitive (``"OmniBoost"`` resolves like ``"omniboost"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..builder import SystemBuilder

__all__ = [
    "SchedulerFactory",
    "available_schedulers",
    "get_scheduler",
    "register_scheduler",
    "unregister_scheduler",
]

#: A scheduler constructor over the lazy system builder.
SchedulerFactory = Callable[["SystemBuilder"], Scheduler]

#: Insertion-ordered registry: canonical name -> factory.
_REGISTRY: Dict[str, SchedulerFactory] = {}


def _canonical(name: str) -> str:
    canonical = name.strip().lower()
    if not canonical:
        raise ValueError("scheduler name must be non-empty")
    return canonical


def register_scheduler(
    name: str,
    factory: Optional[SchedulerFactory] = None,
    replace: bool = False,
) -> Callable[[SchedulerFactory], SchedulerFactory]:
    """Register ``factory`` under ``name`` (usable as a decorator).

    >>> @register_scheduler("round-robin")
    ... def _build(builder):
    ...     return RoundRobinScheduler(builder.platform)  # doctest: +SKIP

    Re-registering an existing name raises unless ``replace=True``;
    registration order defines the comparison order appended after the
    built-ins.
    """
    canonical = _canonical(name)

    def _register(fn: SchedulerFactory) -> SchedulerFactory:
        if canonical in _REGISTRY and not replace:
            raise ValueError(
                f"scheduler {canonical!r} is already registered; "
                "pass replace=True to override"
            )
        _REGISTRY[canonical] = fn
        return fn

    if factory is None:
        return _register
    _register(factory)
    return factory


def get_scheduler(name: str) -> SchedulerFactory:
    """Look up a registered factory by (case-insensitive) name."""
    canonical = _canonical(name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"no scheduler registered under {name!r}; known: {known}"
        ) from None


def unregister_scheduler(name: str) -> None:
    """Remove a registration (built-ins included — they can be re-added)."""
    canonical = _canonical(name)
    if canonical not in _REGISTRY:
        raise KeyError(f"no scheduler registered under {name!r}")
    del _REGISTRY[canonical]


def available_schedulers() -> Tuple[str, ...]:
    """Registered names in comparison order (built-ins first)."""
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# Built-ins: the paper's comparison set, in Fig.-5 order.  Imports stay
# inside the factories so merely importing the registry never pulls the
# whole baseline stack in.
# ----------------------------------------------------------------------
def _baseline_factory(builder: "SystemBuilder") -> Scheduler:
    from ..baselines.gpu_only import GpuOnlyScheduler

    return GpuOnlyScheduler(builder.platform)


def _mosaic_factory(builder: "SystemBuilder") -> Scheduler:
    from ..baselines.mosaic import MosaicScheduler

    return MosaicScheduler(builder.platform, builder.mosaic_regression)


def _ga_factory(builder: "SystemBuilder") -> Scheduler:
    from ..baselines.ga import GeneticScheduler

    return GeneticScheduler(builder.ga_cost_model, config=builder.ga_config)


def _omniboost_factory(builder: "SystemBuilder") -> Scheduler:
    from .scheduler import OmniBoostScheduler

    return OmniBoostScheduler(builder.estimator, config=builder.mcts_config)


register_scheduler("baseline", _baseline_factory)
register_scheduler("mosaic", _mosaic_factory)
register_scheduler("ga", _ga_factory)
register_scheduler("omniboost", _omniboost_factory)
