"""Trace recording.

:class:`TraceLog` collects timestamped structured records during a
simulation run; the measurement harness and the Figure 4 session-trace
bench both read from it.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from .kernel import Simulator


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    category: str
    fields: t.Mapping[str, t.Any]

    def __getitem__(self, key: str) -> t.Any:
        return self.fields[key]


class TraceLog:
    """Append-only structured trace with category filtering."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.records: t.List[TraceRecord] = []
        self._subscribers: t.List[t.Callable[[TraceRecord], None]] = []

    def emit(self, category: str, **fields: t.Any) -> TraceRecord:
        """Record an entry at the current simulated time."""
        record = TraceRecord(self.sim.now, category, dict(fields))
        self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def subscribe(self, callback: t.Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every subsequent record."""
        self._subscribers.append(callback)

    def select(self, category: str, **match: t.Any) -> t.List[TraceRecord]:
        """Records of ``category`` whose fields equal all of ``match``."""
        out = []
        for record in self.records:
            if record.category != category:
                continue
            if all(record.fields.get(k) == v for k, v in match.items()):
                out.append(record)
        return out

    def clear(self) -> None:
        """Drop all records (subscribers are kept)."""
        self.records.clear()
