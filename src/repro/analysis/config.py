"""The committed lint configuration: scoping, allowlist, selection.

Doctrine rules are not uniform over the tree -- wall-clock reads are
legal in benchmark harnesses, the batch-invariance rule only has
meaning in the eval-path kernels, and perf-gate policing only applies
to ``benchmarks/``.  This module is the single committed place that
encodes *where each rule applies* and *which known findings are
accepted*:

* :data:`DEFAULT_SCOPES` -- per-rule path scoping (prefix match on the
  repo-relative posix path).  A rule without an entry runs everywhere.
* :data:`DEFAULT_ALLOWLIST` -- committed (rule, path, reason) triples
  for whole files that are legitimately exempt.  Prefer in-source
  ``# repro: lint-ignore[RULE] -- reason`` pragmas for individual
  lines: they keep the justification next to the code.  The allowlist
  is for files whose *entire purpose* is the exempted behavior.

Edit this file in the same PR as the code that needs the exemption --
that is the review surface the linter exists to create.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

__all__ = [
    "AllowlistEntry",
    "DEFAULT_ALLOWLIST",
    "DEFAULT_PATHS",
    "DEFAULT_SCOPES",
    "LintConfig",
    "RuleScope",
]

#: What ``repro lint`` checks when invoked without paths.
DEFAULT_PATHS: Tuple[str, ...] = ("src", "tests", "benchmarks")


@dataclass(frozen=True)
class RuleScope:
    """Where a rule applies: prefix-matched repo-relative posix paths."""

    include: Tuple[str, ...] = ()  # empty = everywhere
    exclude: Tuple[str, ...] = ()

    def applies(self, rel_path: str) -> bool:
        if any(rel_path.startswith(prefix) for prefix in self.exclude):
            return False
        if not self.include:
            return True
        return any(rel_path.startswith(prefix) for prefix in self.include)


@dataclass(frozen=True)
class AllowlistEntry:
    """One committed exemption: ``rule`` is accepted under ``path``."""

    rule: str
    path: str  # repo-relative prefix ("src/repro/evaluation/runtime.py")
    reason: str

    def covers(self, rule: str, rel_path: str) -> bool:
        return rule == self.rule and rel_path.startswith(self.path)


#: Per-rule scoping.  Rationale per entry:
#:
#: * RPR002 -- wall-clock confinement covers production code and the
#:   benchmark harnesses (whose timers must be pragma-annotated);
#:   tests assert on simulated time constantly and host-time never
#:   leaks into results there, so they are out of scope.
#: * RPR003 -- perf-gate policy only has meaning in ``benchmarks/``.
#: * RPR004 -- batch-invariance is a property of the eval-path
#:   kernels; flagging training code or tests would be noise.
#: * RPR005 -- canonical cache keys are a production-code doctrine;
#:   tests build ad-hoc tuples legitimately.
#: * RPR009 -- fault visibility is a serving-path doctrine: the
#:   modules on the request path (engine, service, SLO, fleet,
#:   resilience) must surface every swallowed exception as a counter
#:   or re-raise; library and test code handles exceptions for many
#:   legitimate local reasons.
#: * RPR010 -- bounded caches are likewise a serving-path doctrine:
#:   a dict cache in a one-shot script or a test is fine; one on the
#:   request path of a long-lived service is a leak.
DEFAULT_SCOPES: Dict[str, RuleScope] = {
    "RPR002": RuleScope(include=("src/", "benchmarks/")),
    "RPR003": RuleScope(include=("benchmarks/",)),
    "RPR004": RuleScope(
        include=(
            "src/repro/nn/inference.py",
            "src/repro/nn/functional.py",
        )
    ),
    "RPR005": RuleScope(include=("src/",)),
    "RPR009": RuleScope(
        include=(
            "src/repro/engine.py",
            "src/repro/service.py",
            "src/repro/slo.py",
            "src/repro/fleet/",
            "src/repro/resilience/",
        )
    ),
    "RPR010": RuleScope(
        include=(
            "src/repro/engine.py",
            "src/repro/service.py",
            "src/repro/slo.py",
            "src/repro/fleet/",
            "src/repro/frontdoor/",
        )
    ),
}

#: Serving-stack modules where an inline ``tuple(sorted(...))`` is a
#: mix signature by construction and must go through
#: :func:`repro.workloads.canonical_signature` (RPR005's first check).
SIGNATURE_MODULES: Tuple[str, ...] = (
    "src/repro/engine.py",
    "src/repro/service.py",
    "src/repro/slo.py",
    "src/repro/fleet/",
    "src/repro/online/",
    "src/repro/workloads/",
)

#: Whole-file exemptions.  Keep this list short: a pragma at the call
#: site is almost always the better tool.
DEFAULT_ALLOWLIST: Tuple[AllowlistEntry, ...] = (
    AllowlistEntry(
        rule="RPR002",
        path="src/repro/evaluation/runtime.py",
        reason=(
            "designated host-measurement module: the runtime cost model "
            "is *about* wall time by definition"
        ),
    ),
    AllowlistEntry(
        rule="RPR010",
        path="src/repro/frontdoor/cache.py",
        reason=(
            "the bounded cache's own implementation: its OrderedDict "
            "evicts at capacity and counts what it evicts"
        ),
    ),
)

#: Public modules whose ``__all__`` the docs-sync rule (RPR006) pins
#: against the architecture doc's API rows.
PUBLIC_MODULES: Tuple[str, ...] = ("src/repro/__init__.py",)

#: Names exempt from RPR006 (documented implicitly or not API).
EXPORT_EXEMPTIONS: FrozenSet[str] = frozenset({"__version__"})

#: The doc that must mention every public export (RPR006).
API_DOC: str = "docs/architecture.md"


@dataclass(frozen=True)
class LintConfig:
    """One lint invocation's full policy (immutable, test-friendly)."""

    select: Optional[FrozenSet[str]] = None
    ignore: FrozenSet[str] = frozenset()
    scopes: Mapping[str, RuleScope] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    allowlist: Tuple[AllowlistEntry, ...] = DEFAULT_ALLOWLIST
    signature_modules: Tuple[str, ...] = SIGNATURE_MODULES
    public_modules: Tuple[str, ...] = PUBLIC_MODULES
    export_exemptions: FrozenSet[str] = EXPORT_EXEMPTIONS
    api_doc: str = API_DOC

    # ------------------------------------------------------------------
    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    def scope_for(self, code: str) -> RuleScope:
        return self.scopes.get(code, RuleScope())

    def allowlisted(self, rule: str, rel_path: str) -> Optional[AllowlistEntry]:
        for entry in self.allowlist:
            if entry.covers(rule, rel_path):
                return entry
        return None

    def with_selection(
        self,
        select: Optional[Tuple[str, ...]] = None,
        ignore: Optional[Tuple[str, ...]] = None,
    ) -> "LintConfig":
        """A copy with the CLI's ``--select``/``--ignore`` applied."""
        updated = self
        if select:
            updated = replace(updated, select=frozenset(select))
        if ignore:
            updated = replace(
                updated, ignore=updated.ignore | frozenset(ignore)
            )
        return updated
