"""Discrete-event simulation kernel.

The kernel is the substrate for every hardware and software model in
this reproduction: generator-based processes, a calendar event queue,
shared resources, token-bucket rate limiters, named random streams,
latency summaries, and the invariant-monitor interface every layer's
monitors share.
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
from repro.sim.monitors import InvariantMonitor, MonitorSuite, Violation
from repro.sim.process import Process
from repro.sim.resources import Resource, TokenBucket
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
    "TokenBucket",
    "LatencySummary",
    "summarize",
    "gbps",
    "Tracer",
    "Span",
    "PointEvent",
    "InvariantMonitor",
    "MonitorSuite",
    "Violation",
]
