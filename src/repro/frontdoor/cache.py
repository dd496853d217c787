"""Bounded, restart-surviving decision cache.

The engine's decision cache started life as a process-local ``dict``
-- unbounded across long traces and silently dropped on every
restart.  :class:`ShardedDecisionCache` replaces it with the same
mapping semantics behind two additional properties:

* **bounded**: entries live in one LRU store of
  :data:`CACHE_CAPACITY` entries; inserting past capacity evicts the
  least-recently-used entry and counts it
  (``evictions`` -> :attr:`~repro.engine.ServiceStats.cache_evictions`);
* **persistent**: when constructed with a ``cache_dir`` the cache
  writes a checksummed JSON snapshot after every insert (atomic
  ``os.replace``, the ``benchmarks/.cache`` idiom) keyed by the
  estimator's :attr:`~repro.nn.layers.Module.version` *and* a digest
  of its weights, so a restarted service replays previously-decided
  mixes with zero full-estimator forwards -- and a retrained or
  re-loaded estimator (version bump) makes every persisted entry a
  miss rather than a stale decision.

A corrupt snapshot (truncated write, bit rot, or the
``--faults cache-corrupt`` drill) is detected by the embedded
checksum, quarantined under ``<file>.corrupt`` and reported so the
engine can fold it into ``ServiceStats.cache_corruptions`` -- the
serving path cold re-decides; it never serves a wrong mapping.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.base import ScheduleDecision
from ..sim.mapping import Mapping

__all__ = [
    "ShardedDecisionCache",
    "estimator_cache_token",
    "inspect_cache_dir",
    "clear_cache_dir",
]

#: One cached decision: the model-name order the mapping rows follow,
#: plus the decision itself.
CacheEntry = Tuple[Tuple[str, ...], ScheduleDecision]

#: Canonical cache key: ``(scheduler_name, canonical_signature, budget)``.
CacheKey = Tuple[str, Tuple[str, ...], Optional[int]]

SNAPSHOT_NAME = "decisions.json"
SNAPSHOT_FORMAT = 1

#: Entries the LRU holds; an insert beyond it evicts the
#: least-recently-used entry.
CACHE_CAPACITY = 512


# ----------------------------------------------------------------------
# Estimator identity
# ----------------------------------------------------------------------
def estimator_cache_token(network) -> str:
    """``"<version>-<weights digest>"`` for a :class:`~repro.nn.layers.Module`.

    The version counter alone is not a safe persistence key: two
    *different* checkpoints each loaded once both sit at the same
    small version number, and a cache keyed on the bare integer would
    serve one checkpoint's decisions against the other's estimator.
    Folding in a CRC over the parameter bytes makes the token unique
    per weight state while staying stdlib-only.
    """
    digest = 0
    state = network.state_dict()
    for name in sorted(state):
        digest = zlib.crc32(name.encode("utf-8"), digest)
        digest = zlib.crc32(state[name].tobytes(), digest)
    return f"{int(network.version)}-{digest:08x}"


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _decision_to_dict(decision: ScheduleDecision) -> dict:
    return {
        "mapping": [list(row) for row in decision.mapping.assignments],
        "expected_score": float(decision.expected_score),
        "wall_time_s": float(decision.wall_time_s),
        "cost": {str(k): float(v) for k, v in decision.cost.items()},
    }


def _decision_from_dict(payload: dict) -> ScheduleDecision:
    return ScheduleDecision(
        mapping=Mapping(payload["mapping"]),
        expected_score=float(payload["expected_score"]),
        wall_time_s=float(payload["wall_time_s"]),
        cost={str(k): float(v) for k, v in payload["cost"].items()},
    )


def _key_to_wire(key: CacheKey) -> list:
    scheduler, signature, budget = key
    return [scheduler, list(signature), budget]


def _key_from_wire(payload: list) -> CacheKey:
    scheduler, signature, budget = payload
    return (
        str(scheduler),
        tuple(str(name) for name in signature),
        None if budget is None else int(budget),
    )


def _entries_checksum(token: str, entries: list) -> int:
    body = json.dumps([token, entries], sort_keys=True).encode("utf-8")
    return zlib.crc32(body)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ShardedDecisionCache:
    """LRU decision store with optional disk persistence.

    Holds at most :data:`CACHE_CAPACITY` entries; an insert beyond it
    evicts the least-recently-used entry.  ``cache_dir`` names the
    directory of the persisted snapshot, or ``None`` to keep the cache
    purely in-memory.  The store is not sharded; the name is kept
    because callers import and wrap the class by it.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        #: Cumulative LRU evictions (``ServiceStats.cache_evictions``).
        self.evictions = 0
        #: Cumulative entries written to disk (``cache_persisted``).
        self.persisted = 0
        #: Entries restored from a valid snapshot at :meth:`bind` time.
        self.loaded = 0
        #: Snapshots found corrupt and quarantined at :meth:`bind` time.
        self.corrupt_files = 0
        #: Snapshots skipped because their token no longer matches.
        self.stale_files = 0
        self._token: Optional[str] = None
        self._bound = False

    # -- mapping protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """The cached entry for ``key``, refreshed to most-recent."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: CacheKey, names: Tuple[str, ...], decision: ScheduleDecision) -> None:
        """Insert (or refresh) an entry, evicting LRU past capacity."""
        self._store(key, (tuple(names), decision))
        self._persist()

    def _store(self, key: CacheKey, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > CACHE_CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: CacheKey) -> bool:
        """Drop ``key`` from memory *and* the persisted snapshot.

        Used by the ``cache-corrupt`` fault drill: once an entry is
        declared poisoned it must not survive in either tier, or a
        restart would resurrect it.
        """
        if self._entries.pop(key, None) is None:
            return False
        self._persist()
        return True

    def clear(self, persistent: bool = False) -> int:
        """Drop every entry; with ``persistent`` also the snapshot."""
        count = len(self)
        self._entries.clear()
        if persistent and self.cache_dir is not None:
            path = self._snapshot_path()
            if path is not None and os.path.exists(path):
                os.remove(path)
        elif self._bound:
            self._persist()
        return count

    def items(self) -> Iterator[Tuple[CacheKey, CacheEntry]]:
        return iter(self._entries.items())

    # -- persistence ---------------------------------------------------
    def _snapshot_path(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, SNAPSHOT_NAME)

    def bind(self, token: str) -> int:
        """Attach the estimator identity and load any valid snapshot.

        Returns the number of corrupt snapshot files quarantined (the
        engine folds it into ``ServiceStats.cache_corruptions``).
        Idempotent for a given token; re-binding with a *different*
        token (retrained estimator mid-process) drops every entry.
        """
        if self._bound and token == self._token:
            return 0
        if self._bound and token != self._token:
            self._entries.clear()
        self._token = token
        self._bound = True
        path = self._snapshot_path()
        if path is None:
            return 0
        os.makedirs(self.cache_dir, exist_ok=True)
        if not os.path.exists(path):
            return 0
        payload = self._read_snapshot(path)
        if payload is None:
            self.corrupt_files += 1
            self._quarantine(path)
            return 1
        if payload["token"] != token:
            # A different estimator wrote this snapshot (training step
            # or load_state_dict bumped Module.version, or different
            # weights entirely).  Serving it would be a stale decision;
            # start cold and let the next insert overwrite it.
            self.stale_files += 1
            return 0
        for wire_key, names, decision_payload in payload["entries"]:
            self._store(
                _key_from_wire(wire_key),
                (
                    tuple(str(n) for n in names),
                    _decision_from_dict(decision_payload),
                ),
            )
        self.loaded = len(self)
        return 0

    def _read_snapshot(self, path: str) -> Optional[dict]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("format") != SNAPSHOT_FORMAT:
                return None
            token = payload["token"]
            entries = payload["entries"]
            if int(payload["checksum"]) != _entries_checksum(token, entries):
                return None
            return {"token": str(token), "entries": entries}
        except (OSError, ValueError, KeyError, TypeError):
            return None

    @staticmethod
    def _quarantine(path: str) -> None:
        quarantined = path + ".corrupt"
        if os.path.exists(quarantined):
            os.remove(quarantined)
        os.replace(path, quarantined)

    def _persist(self) -> None:
        path = self._snapshot_path()
        if path is None or not self._bound:
            return
        entries = [
            [_key_to_wire(key), list(names), _decision_to_dict(decision)]
            for key, (names, decision) in self.items()
        ]
        payload = {
            "format": SNAPSHOT_FORMAT,
            "token": self._token,
            "checksum": _entries_checksum(self._token, entries),
            "entries": entries,
        }
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, path)
        self.persisted += len(entries)


# ----------------------------------------------------------------------
# Offline inspection (``repro cache``)
# ----------------------------------------------------------------------
def _snapshot_files(cache_dir: str) -> List[str]:
    """Every snapshot under ``cache_dir`` (fleet layouts nest per board)."""
    found = []
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            if name == SNAPSHOT_NAME or name == SNAPSHOT_NAME + ".corrupt":
                found.append(os.path.join(root, name))
    return sorted(found)


def inspect_cache_dir(cache_dir: str) -> Dict[str, object]:
    """A JSON-friendly report over every snapshot in ``cache_dir``."""
    snapshots = []
    for path in _snapshot_files(cache_dir):
        if path.endswith(".corrupt"):
            snapshots.append({"path": path, "status": "quarantined"})
            continue
        probe = ShardedDecisionCache()
        payload = probe._read_snapshot(path)
        if payload is None:
            snapshots.append({"path": path, "status": "corrupt"})
            continue
        mixes = [
            {
                "scheduler": wire_key[0],
                "signature": list(wire_key[1]),
                "budget": wire_key[2],
                "expected_score": decision_payload["expected_score"],
            }
            for wire_key, _names, decision_payload in payload["entries"]
        ]
        snapshots.append(
            {
                "path": path,
                "status": "ok",
                "token": payload["token"],
                "entries": len(payload["entries"]),
                "decisions": mixes,
            }
        )
    return {"cache_dir": cache_dir, "snapshots": snapshots}


def clear_cache_dir(cache_dir: str) -> int:
    """Delete every snapshot (and quarantine file) under ``cache_dir``."""
    removed = 0
    for path in _snapshot_files(cache_dir):
        os.remove(path)
        removed += 1
    return removed
