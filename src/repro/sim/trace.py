"""Execution tracing for simulations.

A :class:`Tracer` records spans (named intervals on a component's
timeline) and point events, then renders them as a text timeline or
exports structured rows. The datapath examples use it to show where a
packet's microseconds actually go — guest kernel, PCIe hop, DMA,
backend, vSwitch — which is the breakdown Fig 6 narrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "PointEvent", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One named interval on a track."""

    track: str
    name: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class PointEvent:
    """One instantaneous event on a track."""

    track: str
    name: str
    at_s: float


class Tracer:
    """Collects spans/events against a simulator clock."""

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        self.events: List[PointEvent] = []
        self._open: Dict[tuple, float] = {}
        self._order: Dict[int, int] = {}  # id(record) -> recording order
        self._sequence = 0

    def _note_order(self, record) -> None:
        self._order[id(record)] = self._sequence
        self._sequence += 1

    # -- recording -----------------------------------------------------------
    def begin(self, track: str, name: str) -> None:
        key = (track, name)
        if key in self._open:
            raise RuntimeError(f"span {track}/{name} already open")
        self._open[key] = self.sim.now

    def end(self, track: str, name: str) -> Span:
        key = (track, name)
        if key not in self._open:
            raise RuntimeError(f"span {track}/{name} was never begun")
        span = Span(track, name, self._open.pop(key), self.sim.now)
        self.spans.append(span)
        self._note_order(span)
        return span

    def span(self, track: str, name: str):
        """Context manager form: ``with tracer.span("dma", "copy"): ...``"""
        tracer = self

        class _SpanContext:
            def __enter__(self):
                tracer.begin(track, name)
                return self

            def __exit__(self, exc_type, exc, tb):
                tracer.end(track, name)
                return False

        return _SpanContext()

    def mark(self, track: str, name: str) -> None:
        event = PointEvent(track, name, self.sim.now)
        self.events.append(event)
        self._note_order(event)

    # -- queries ------------------------------------------------------------------
    def total(self, track: str, name: Optional[str] = None) -> float:
        """Total recorded time on a track (optionally one span name)."""
        return sum(
            span.duration_s
            for span in self.spans
            if span.track == track and (name is None or span.name == name)
        )

    def breakdown(self) -> Dict[str, float]:
        """Seconds per track, the 'where did the time go' view."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.track] = totals.get(span.track, 0.0) + span.duration_s
        return totals

    # -- export ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON (open in ``about:tracing`` or Perfetto).

        Each track becomes a named thread under one process; spans become
        complete ("X") events and point events become instants ("i").
        Timestamps are microseconds, per the trace-event format.
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, object]] = []

        def tid_for(track: str) -> int:
            if track not in tids:
                tids[track] = len(tids) + 1
                events.append({
                    "name": "thread_name", "ph": "M", "pid": 1,
                    "tid": tids[track], "args": {"name": track},
                })
            return tids[track]

        records = sorted(
            list(self.spans) + list(self.events),
            key=lambda r: self._order[id(r)],
        )
        for record in records:
            if isinstance(record, Span):
                events.append({
                    "name": record.name, "ph": "X", "pid": 1,
                    "tid": tid_for(record.track),
                    "ts": record.start_s * 1e6,
                    "dur": record.duration_s * 1e6,
                })
            else:
                events.append({
                    "name": record.name, "ph": "i", "pid": 1,
                    "tid": tid_for(record.track),
                    "ts": record.at_s * 1e6, "s": "t",
                })
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    # -- rendering ------------------------------------------------------------------
    def render(self, unit: float = 1e-6, unit_label: str = "us") -> str:
        """Chronological text timeline of every span and event."""
        rows = []
        for span in self.spans:
            rows.append((span.start_s, self._order[id(span)],
                         f"[{span.start_s / unit:9.2f}{unit_label}] "
                         f"{span.track:12s} {span.name} "
                         f"({span.duration_s / unit:.2f}{unit_label})"))
        for event in self.events:
            rows.append((event.at_s, self._order[id(event)],
                         f"[{event.at_s / unit:9.2f}{unit_label}] "
                         f"{event.track:12s} * {event.name}"))
        rows.sort(key=lambda row: (row[0], row[1]))
        return "\n".join(text for _, _, text in rows)
