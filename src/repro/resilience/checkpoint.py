"""Crash-consistent trace checkpointing: the append-only replay journal.

A journaled replay writes one JSONL line per committed event *group*
(all arrivals/departures sharing a timestamp — the replay's atomic
commit unit), each carrying the records the group emitted plus the
minimal serving state needed to continue: per-board tenancy and warm
rows, the SLO enforcement queue and the tenants it turned away, which
chaos failures already fired, each board's ladder/injector counters,
and the admission controller's cached scores.  Every line is flushed
and fsynced before the replay moves on, so a SIGKILL at any instant
leaves at most one torn trailing line.

Recovery semantics are deliberately asymmetric:

* a **torn final line** is the expected crash artifact — it is dropped
  and the file truncated back to the last complete line;
* a **corrupt interior line** means the file was damaged after the
  fact — that is an error, not something to silently skip.

The header pins what the journal was written for (trace fingerprint,
scheduler, online config, fault plan, ...); ``resume_trace`` refuses a
journal whose header does not match its own arguments, because a
resume against different inputs could never be byte-identical to the
uninterrupted run it is standing in for.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

__all__ = ["JOURNAL_FORMAT", "TraceJournal", "trace_fingerprint"]

#: Bumped whenever the journal line schema changes incompatibly.
JOURNAL_FORMAT = 2


def trace_fingerprint(trace) -> str:
    """A short stable digest of an arrival trace's event content."""
    payload = json.dumps(
        [event.to_dict() for event in trace], sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TraceJournal:
    """Append-only JSONL journal for one checkpointed trace replay.

    Line 1 is the header; each later line is a committed group::

        {"kind": "header", "format": 2, ...caller header fields...}
        {"kind": "group", "position": 0, "events": 2,
         "records": [...TimelineRecord.to_dict()...], "state": {...}}

    Use :meth:`create` to start a fresh journal, :meth:`load` to parse
    one read-only (torn tail dropped), and :meth:`resume` to truncate
    the torn tail on disk and reopen for appending.
    """

    def __init__(self, path: str, handle) -> None:
        self.path = path
        self._handle = handle

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str, header: Dict) -> "TraceJournal":
        """Start a fresh journal at ``path`` (overwriting any old one)."""
        handle = open(path, "w", encoding="utf-8")
        journal = cls(path, handle)
        journal._write({"kind": "header", "format": JOURNAL_FORMAT, **header})
        return journal

    def append_group(
        self, position: int, events: int, records: List[Dict], state: Dict
    ) -> None:
        """Commit one event group: records emitted + state to resume from."""
        self._write(
            {
                "kind": "group",
                "position": position,
                "events": events,
                "records": records,
                "state": state,
            }
        )

    def _write(self, payload: Dict) -> None:
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        line = json.dumps(payload, sort_keys=True)
        self._handle.write(line + "\n")
        # Crash consistency: the group is only "committed" once it is
        # durably on disk -- flush the stream and fsync the file.
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Reading / recovery
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> Tuple[Dict, List[Dict], int]:
        """Parse a journal; returns (header, group entries, good byte length).

        The final line, if torn by a crash, is dropped; a corrupt line
        anywhere *before* the tail raises :class:`ValueError`.
        """
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        lines = text.split("\n")
        # A well-formed file ends with "\n", so the final split element
        # is empty; anything else there is the torn tail.
        complete, tail = lines[:-1], lines[-1]
        parsed: List[Dict] = []
        consumed = 0
        for number, line in enumerate(complete, start=1):
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:  # repro: lint-ignore[RPR009] -- a torn tail is the crash artifact recovery exists for; interior damage still raises below
                if number == len(complete) and not tail:
                    break  # torn line that did get its newline written
                raise ValueError(
                    f"journal {path} is corrupt at line {number} "
                    f"(only the final line may be torn)"
                ) from None
            consumed += len(line.encode("utf-8")) + 1
        if not parsed or parsed[0].get("kind") != "header":
            raise ValueError(f"journal {path} has no header line")
        header = parsed[0]
        if header.get("format") != JOURNAL_FORMAT:
            raise ValueError(
                f"journal {path} has format {header.get('format')!r}; "
                f"this build writes format {JOURNAL_FORMAT} and cannot "
                "resume it (start the replay over)"
            )
        entries = parsed[1:]
        for position, entry in enumerate(entries):
            if entry.get("kind") != "group" or entry.get("position") != position:
                raise ValueError(
                    f"journal {path}: entry {position} is out of order"
                )
        return header, entries, consumed

    @classmethod
    def resume(cls, path: str) -> Tuple["TraceJournal", Dict, List[Dict]]:
        """Reopen a journal for appending, truncating any torn tail."""
        header, entries, consumed = cls.load(path)
        handle = open(path, "r+", encoding="utf-8")
        handle.truncate(consumed)
        handle.seek(consumed)
        return cls(path, handle), header, entries
