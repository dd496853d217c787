"""RPR010 -- serving-path caches must be bounded.

Doctrine (the bounded decision cache): a cache on the request
path is a memory leak with good intentions.  The engine's original
decision cache was a bare dict -- every distinct mix ever served
stayed resident forever, which is exactly wrong for a long-lived
service ingesting an open-ended request stream.  The sanctioned
container is :class:`repro.frontdoor.ShardedDecisionCache`: one LRU
with a fixed capacity, eviction counters surfaced in ``ServiceStats``,
and an optional persistence layer keyed on the estimator version.

The check: in the serving-stack modules (engine, service, SLO, fleet,
front door), assigning a raw ``{}`` / ``dict()`` / ``[]`` / ``list()``
/ ``OrderedDict()`` / ``defaultdict(...)`` to a ``*cache*``-named
attribute or variable is an unbounded cache by construction.  The one
legitimate holder of raw dicts is the bounded cache's own
implementation (``frontdoor/cache.py``), which is allowlisted -- its
LRU evicts.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..core import Finding, LintContext, ParsedModule, Rule
from ._helpers import attribute_chain

__all__ = ["BoundedServingCaches"]

_UNBOUNDED_CTORS = {"dict", "list", "OrderedDict", "defaultdict"}


def _unbounded_kind(value: ast.AST) -> Optional[str]:
    """'a dict literal' / 'list()' / ... when ``value`` is unbounded."""
    if isinstance(value, ast.Dict):
        return "a dict literal"
    if isinstance(value, ast.List):
        return "a list literal"
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _UNBOUNDED_CTORS:
            return f"{name}()"
    return None


def _cache_target_name(target: ast.AST) -> Optional[str]:
    chain = attribute_chain(target)
    if not chain:
        return None
    terminal = chain[-1]
    return terminal if "cache" in terminal.lower() else None


class BoundedServingCaches(Rule):
    code = "RPR010"
    name = "bounded-serving-caches"
    doctrine = (
        "Serving-path modules may not hold unbounded dict/list caches; "
        "use the bounded ShardedDecisionCache (one LRU, eviction "
        "counters, versioned persistence)."
    )

    def check(
        self, module: ParsedModule, context: LintContext
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            kind = _unbounded_kind(value)
            if kind is None:
                continue
            for target in targets:
                name = _cache_target_name(target)
                if name is None:
                    continue
                yield self.finding(
                    module.rel_path,
                    node,
                    f"{kind} assigned to cache-named {name!r} grows "
                    "without bound on the request path; use "
                    "repro.frontdoor.ShardedDecisionCache (or bound "
                    "and count evictions)",
                )
