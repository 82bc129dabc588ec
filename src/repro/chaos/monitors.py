"""The datapath's invariant monitors (DESIGN.md §8).

Six monitors on the :class:`repro.sim.InvariantMonitor` base, each on
one protocol boundary of the BM-Hive stack: the guest vring, the IO-Bond
shadow vring, PCIe/DMA and rate-limiter conservation, availability
accounting, end-of-run quiescence, plus a deliberately broken probe for
the shrink pipeline. Like every monitor they are read-only (see
:mod:`repro.sim.monitors`).

(The one temptation worth calling out: ``TokenBucket.tokens`` *refills*
the bucket as a side effect of reading. The conservation monitor reads
the raw ``_tokens`` field instead — a stale-but-bounded value — exactly
to stay read-only.)
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.sim import InvariantMonitor
# perfbench's region_failover workload imports the suite from here.
from repro.sim import MonitorSuite  # noqa: F401

__all__ = [
    "ExactlyOnceRingMonitor",
    "ShadowSyncMonitor",
    "ConservationMonitor",
    "AvailabilityMonitor",
    "QuiescenceMonitor",
    "RegressionProbeMonitor",
]

_EPS = 1e-9


class ExactlyOnceRingMonitor(InvariantMonitor):
    """Used-ring delivery is exactly-once; cursors only move forward.

    Invariants on one guest virtqueue, checked at every sample:

    * the avail/used histories are append-only — ``avail_idx``,
      ``used_idx`` and the consumption cursors never rewind;
    * consumption never passes production
      (``last_avail <= avail_idx``, ``last_used <= used_idx``);
    * head-space safety: every head index in either history addresses a
      real descriptor (``head < size``);
    * exactly-once: no head is *used* more often than it was made
      available — reposts legitimately repeat a head in the avail
      history, but a used count exceeding its avail count means a
      completion was forged or double-delivered.
    """

    def __init__(self, guest_name: str, vq):
        self.name = f"exactly_once[{guest_name}]"
        self.vq = vq
        self._last: Dict[str, int] = {}

    def observe(self, sim) -> Iterable[str]:
        out = []
        cursors = self.vq.cursors()
        for key, value in cursors.items():
            prev = self._last.get(key)
            if prev is not None and value < prev:
                out.append(f"cursor {key} rewound {prev} -> {value}")
        self._last = cursors
        if cursors["last_avail"] > cursors["avail_idx"]:
            out.append(f"consumed past production: last_avail="
                       f"{cursors['last_avail']} > avail_idx="
                       f"{cursors['avail_idx']}")
        if cursors["last_used"] > cursors["used_idx"]:
            out.append(f"driver read past used_idx: last_used="
                       f"{cursors['last_used']} > used_idx="
                       f"{cursors['used_idx']}")
        avail_counts, used_counts = self.vq.head_counts()
        size = self.vq.size
        for head in used_counts:
            if not 0 <= head < size:
                out.append(f"used head {head} outside ring of size {size}")
        for head in avail_counts:
            if not 0 <= head < size:
                out.append(f"avail head {head} outside ring of size {size}")
        for head, used in used_counts.items():
            avail = avail_counts.get(head, 0)
            if used > avail:
                out.append(
                    f"head {head} delivered {used}x but only made "
                    f"available {avail}x (exactly-once broken)")
        return out


class ShadowSyncMonitor(InvariantMonitor):
    """Shadow-vring conservation, cursor monotonicity, sync windows.

    Watches every shadow vring of one IO-Bond port (shadows are created
    lazily on the first sync, so the port is scanned each sample):

    * entry conservation — everything synced into the shadow is in
      exactly one bucket (``conservation()['balance'] == 0``);
    * head/tail registers and the sync counters never rewind, and the
      tail never passes the head;
    * the backend can never see more published entries than the queue
      holds (``queued >= registers.pending``);
    * sync-window bounds against the guest ring: the shadow holds
      exactly the entries the guest made available
      (``synced_to_shadow == last_avail``) and has delivered exactly
      the completions the guest ring shows
      (``synced_to_guest == used_idx``).
    """

    def __init__(self, port):
        self.name = f"shadow_sync[{port.name}]"
        self.port = port
        self._last: Dict[str, Dict[str, int]] = {}

    _MONOTONIC = ("synced_to_shadow", "synced_to_guest", "replayed",
                  "duplicates_dropped", "head", "tail")

    def observe(self, sim) -> Iterable[str]:
        out = []
        for index, shadow in sorted(self.port.shadows.items()):
            snap = dict(shadow.conservation())
            snap["head"] = shadow.registers.head
            snap["tail"] = shadow.registers.tail
            prev = self._last.get(shadow.name, {})
            for key in self._MONOTONIC:
                if key in prev and snap[key] < prev[key]:
                    out.append(f"{shadow.name}: {key} rewound "
                               f"{prev[key]} -> {snap[key]}")
            self._last[shadow.name] = snap
            if snap["balance"] != 0:
                out.append(
                    f"{shadow.name}: conservation broken, balance="
                    f"{snap['balance']} ({snap!r})")
            if snap["tail"] > snap["head"]:
                out.append(f"{shadow.name}: tail {snap['tail']} passed "
                           f"head {snap['head']}")
            pending = snap["head"] - snap["tail"]
            if snap["queued"] < pending:
                out.append(
                    f"{shadow.name}: {pending} entries published but only "
                    f"{snap['queued']} queued (backend would read junk)")
            cursors = shadow.guest_vq.cursors()
            if snap["synced_to_shadow"] != cursors["last_avail"]:
                out.append(
                    f"{shadow.name}: synced_to_shadow="
                    f"{snap['synced_to_shadow']} != guest last_avail="
                    f"{cursors['last_avail']} (sync window broken)")
            if snap["synced_to_guest"] != cursors["used_idx"]:
                out.append(
                    f"{shadow.name}: synced_to_guest="
                    f"{snap['synced_to_guest']} != guest used_idx="
                    f"{cursors['used_idx']} (writeback window broken)")
        return out


class ConservationMonitor(InvariantMonitor):
    """Byte/token conservation through PCIe links, DMA, rate limiters.

    ``counters`` maps a label to a zero-argument callable returning a
    dict of monotonic counters (``PcieLink.counters``,
    ``DmaEngine.counters``); any value that shrinks between samples is
    flagged. ``buckets`` maps a label to a :class:`TokenBucket`; its
    raw token level must stay within ``[0, burst]`` (reading the raw
    field keeps this monitor side-effect free — see module docstring).
    """

    name = "conservation"

    def __init__(self, counters: Dict[str, object],
                 buckets: Dict[str, object] = None):
        self.counters = dict(counters)
        self.buckets = dict(buckets or {})
        self._last: Dict[str, Dict[str, float]] = {}

    def observe(self, sim) -> Iterable[str]:
        out = []
        for label in sorted(self.counters):
            snap = self.counters[label]()
            prev = self._last.get(label, {})
            for key, value in snap.items():
                if key in prev and value < prev[key] - _EPS:
                    out.append(f"{label}: counter {key} shrank "
                               f"{prev[key]} -> {value}")
                if value < -_EPS:
                    out.append(f"{label}: counter {key} negative: {value}")
            self._last[label] = snap
        for label in sorted(self.buckets):
            bucket = self.buckets[label]
            tokens = bucket._tokens  # raw read: .tokens would refill
            if tokens < -_EPS or tokens > bucket.burst + _EPS:
                out.append(
                    f"{label}: token level {tokens} outside "
                    f"[0, burst={bucket.burst}]")
        return out


class AvailabilityMonitor(InvariantMonitor):
    """Downtime accounting is consistent at every instant.

    Per target: downtime never shrinks and never exceeds elapsed time;
    availability stays in ``[0, 1]``; completed down spans are
    well-formed (``start <= end``), chronological, and non-overlapping.
    At end of run (after ``finalize``) no span may remain open.
    """

    name = "availability"

    def __init__(self, accounting):
        self.accounting = accounting
        self._last_downtime: Dict[str, float] = {}

    def observe(self, sim) -> Iterable[str]:
        out = []
        now = sim.now
        for target in sorted(self.accounting.targets):
            downtime = self.accounting.downtime(target)
            prev = self._last_downtime.get(target, 0.0)
            if downtime < prev - _EPS:
                out.append(f"{target}: downtime shrank {prev} -> {downtime}")
            self._last_downtime[target] = downtime
            if downtime > now + _EPS:
                out.append(f"{target}: downtime {downtime} exceeds "
                           f"elapsed time {now}")
            availability = self.accounting.availability(target)
            if not -_EPS <= availability <= 1.0 + _EPS:
                out.append(f"{target}: availability {availability} "
                           f"outside [0, 1]")
            entry = self.accounting._target(target)
            last_end = 0.0
            for start, end in entry.down_spans:
                if end < start:
                    out.append(f"{target}: span ends before it starts "
                               f"({start}, {end})")
                if start < last_end - _EPS:
                    out.append(f"{target}: span ({start}, {end}) overlaps "
                               f"previous span ending {last_end}")
                last_end = end
            if entry.down_since is not None and entry.down_since > now + _EPS:
                out.append(f"{target}: down_since {entry.down_since} "
                           f"in the future")
        return out

    def at_end(self, sim) -> Iterable[str]:
        out = []
        for target in sorted(self.accounting.targets):
            entry = self.accounting._target(target)
            if entry.down_since is not None:
                out.append(
                    f"{target}: down span still open at end of run "
                    f"(since {entry.down_since}); finalize() not called?")
        return out


class QuiescenceMonitor(InvariantMonitor):
    """End-of-run leak audit: every workload done, nothing stuck.

    Built on :meth:`repro.sim.Simulator.audit`: after the run, every
    watched workload must have completed with an empty retry tracker,
    and the simulator may hold no live processes (outside the allowed
    daemon prefixes), held resource slots, or blocked store putters.
    """

    name = "quiescence"

    # Daemons that legitimately outlive every workload: per-guest poll
    # loops, supervisor watchers, and this suite's own sampler.
    DEFAULT_ALLOW = ("bmhv.", "supervisor.", "chaos.")

    def __init__(self, loads: Dict[str, object],
                 allow_processes: Tuple[str, ...] = DEFAULT_ALLOW):
        self.loads = dict(loads)
        self.allow_processes = tuple(allow_processes)

    def at_end(self, sim) -> Iterable[str]:
        out = []
        for name in sorted(self.loads):
            load = self.loads[name]
            if not load.done:
                out.append(f"workload {name} never finished "
                           f"({len(load.records)}/{load.n_requests} done)")
            tracker = load.tracker
            if tracker is not None and len(tracker) > 0:
                out.append(
                    f"workload {name} left heads {tracker.inflight_heads()} "
                    f"in flight (neither completed nor failed)")
        out.extend(sim.audit().offenders(self.allow_processes))
        return out


class RegressionProbeMonitor(InvariantMonitor):
    """Deliberately broken monitor for exercising the shrink pipeline.

    Flags a violation as soon as any ``dma_stall`` fault has been
    injected — a "regression" whose minimal reproducer is exactly one
    fault, so CI can assert the shrinker reduces an arbitrary failing
    campaign down to a single-fault plan. Never install this outside
    ``--inject-regression`` runs.
    """

    name = "regression_probe"

    def __init__(self, injector):
        self.injector = injector
        self._fired = False

    def observe(self, sim) -> Iterable[str]:
        if self._fired:
            return ()
        if any(spec.kind == "dma_stall" for spec in self.injector.injected):
            self._fired = True
            return ("probe tripped: dma_stall was injected "
                    "(synthetic regression)",)
        return ()
