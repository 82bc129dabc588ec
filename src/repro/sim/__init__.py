"""Discrete-event simulation kernel.

The kernel is the substrate for every hardware and software model in
this reproduction: generator-based processes, an event heap, shared
resources, token-bucket rate limiters, named random streams, and
latency summaries.
"""

from repro.sim.core import (
    AuditReport,
    EventStats,
    KernelSnapshot,
    QuiescenceError,
    Simulator,
    SnapshotError,
    global_event_totals,
    reset_global_stats,
)
from repro.sim.doorbell import Doorbell, idle_skip_default, set_idle_skip_default
from repro.sim.queue import CalendarQueue
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource, Store, TokenBucket
from repro.sim.trace import PointEvent, Span, Tracer
from repro.sim.stats import LatencySummary, gbps, summarize

__all__ = [
    "Simulator",
    "EventStats",
    "AuditReport",
    "QuiescenceError",
    "KernelSnapshot",
    "SnapshotError",
    "CalendarQueue",
    "Doorbell",
    "idle_skip_default",
    "set_idle_skip_default",
    "global_event_totals",
    "reset_global_stats",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "Store",
    "TokenBucket",
    "LatencySummary",
    "summarize",
    "gbps",
    "Tracer",
    "Span",
    "PointEvent",
]
