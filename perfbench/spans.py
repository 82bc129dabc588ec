"""Layer spans for the traced benchmark run.

The benchmark measures each ``repro`` layer from outside: a
:class:`Tracer` replaces public methods on the layer classes with thin
wrappers that time every call on the host clock and read the simulated
clock around it. Nothing under ``src/`` changes.

* A plain call becomes one span and one host *frame*.
* A generator function (a simulation process body) stays a generator:
  the wrapper forwards ``send``/``throw``/``close`` to the original,
  yields exactly the events the original yields and so adds no
  simulated time. Its span runs from the first resume to the return on
  the simulated clock; on the host clock it is the sum of one frame per
  resume, because between resumes other processes run.

Frames nest on one stack (the simulator is single-threaded), so a
span's *self* host time is its frames' duration minus the part covered
by frames of spans opened inside it. Spans record their name, parent
span and request id; they are kept in memory (up to a cap) and written
at the end as a Chrome/Perfetto trace.

Counters live in two tables, one per benchmark phase (``setup`` and
``measure``): the workload switches phase between building its inputs
and running them, so per-layer numbers describe the measured phase
unless a metric is explicitly about set-up.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "OpStats"]

_clock = time.perf_counter


class OpStats:
    """Counters for one wrapped operation (``layer:op``) in one phase."""

    __slots__ = ("calls", "host_s", "child_s", "raised", "resumes",
                 "sim_s")

    def __init__(self):
        self.calls = 0
        self.host_s = 0.0       # frames' total host time
        self.child_s = 0.0      # part of host_s covered by child frames
        self.raised = 0         # calls that ended in an exception
        self.resumes = 0        # generator frames (one per resume)
        self.sim_s: List[float] = []  # simulated durations, when kept

    @property
    def self_s(self) -> float:
        return self.host_s - self.child_s


class _Span:
    __slots__ = ("sid", "parent", "key", "req", "sim_start", "sim_end",
                 "host_start", "host_end", "host_s")

    def __init__(self, sid, parent, key, req, sim_start, host_start):
        self.sid = sid
        self.parent = parent
        self.key = key
        self.req = req
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.host_start = host_start
        self.host_end = host_start
        self.host_s = 0.0


class Tracer:
    """Wraps layer methods and records spans and per-operation counters.

    ``sim`` must point at the simulator whose clock spans read; the
    workload sets it when it builds one. ``keep_spans`` caps how many
    closed spans are kept for the trace file (``0`` keeps none).
    """

    def __init__(self, keep_spans: int = 50_000):
        self.sim = None
        self.context = None      # workload-owned state the hooks consult
        self.keep_spans = keep_spans
        self.spans: List[_Span] = []
        self.dropped_spans = 0
        self.tables: Dict[str, Dict[str, OpStats]] = {}
        self.phase = "setup"
        self._table = self.table("setup")
        self._stack: list = []   # open frames: [span, host_start, child_s]
        self._ids = itertools.count(1)
        self._patches: list = []
        self._keep_sim: set = set()

    # -- phases and tables ---------------------------------------------
    def table(self, phase: str) -> Dict[str, OpStats]:
        return self.tables.setdefault(phase, {})

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self._table = self.table(phase)

    def stats(self, key: str, phase: str = "measure") -> OpStats:
        return self.table(phase).get(key) or OpStats()

    def _stat(self, key: str) -> OpStats:
        stat = self._table.get(key)
        if stat is None:
            stat = self._table[key] = OpStats()
        return stat

    # -- spans and frames ----------------------------------------------
    def current(self) -> Optional[_Span]:
        return self._stack[-1][0] if self._stack else None

    def _open(self, key: str, req=None, parent: Optional[_Span] = None):
        if parent is None:
            parent = self.current()
        if req is None and parent is not None:
            req = parent.req
        sim = self.sim
        span = _Span(next(self._ids), parent.sid if parent else 0, key, req,
                     sim.now if sim is not None else 0.0, _clock())
        self._stat(key).calls += 1
        return span

    def _close(self, span: _Span) -> None:
        sim = self.sim
        span.sim_end = sim.now if sim is not None else 0.0
        span.host_end = _clock()
        if span.key in self._keep_sim:
            self._stat(span.key).sim_s.append(span.sim_end - span.sim_start)
        if len(self.spans) < self.keep_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    def _enter(self, span: _Span) -> None:
        self._stack.append([span, _clock(), 0.0])

    def _exit(self) -> None:
        span, start, child = self._stack.pop()
        elapsed = _clock() - start
        stat = self._stat(span.key)
        stat.host_s += elapsed
        stat.child_s += child
        span.host_s += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- wrappers -------------------------------------------------------
    def call(self, fn: Callable, key: str, after: Optional[Callable] = None):
        """Wrap a plain function: one span and one frame per call.

        ``after(args, result)`` runs once the call returned; what it
        returns replaces the result (``None`` keeps it).
        """
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(key)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stat(key).raised += 1
                raise
            finally:
                tracer._exit()
                tracer._close(span)
            if after is not None:
                replaced = after(args, result)
                if replaced is not None:
                    result = replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def generator(self, gen, key: str, req=None,
                  after: Optional[Callable] = None):
        """Wrap a generator object; returns a generator yielding the same
        events. ``after(span, result)`` runs when it returns."""
        span = self._open(key, req=req)
        wrapped = self._drive(gen, span, after)
        wrapped.__name__ = getattr(gen, "__name__", "process")
        return wrapped

    def _drive(self, gen, span: _Span, after):
        stat_key = span.key
        first = True
        value = None
        error = None
        while True:
            if first:
                # The span starts on the simulated clock at first resume.
                sim = self.sim
                span.sim_start = sim.now if sim is not None else 0.0
                first = False
            self._enter(span)
            self._stat(stat_key).resumes += 1
            try:
                if error is not None:
                    pending, error = error, None
                    event = gen.throw(pending)
                else:
                    event = gen.send(value)
            except StopIteration as stop:
                self._exit()
                self._close(span)
                if after is not None:
                    after(span, stop.value)
                return stop.value
            except BaseException:
                self._exit()
                self._stat(stat_key).raised += 1
                self._close(span)
                raise
            self._exit()
            try:
                value = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                error = exc
                value = None

    def generator_function(self, fn: Callable, key: str,
                           after: Optional[Callable] = None):
        """Wrap a function that returns a generator (a process body)."""
        tracer = self

        def traced(*args, **kwargs):
            hook = None
            if after is not None:
                def hook(span, result, _args=args):
                    after(_args, result, span)
            return tracer.generator(fn(*args, **kwargs), key, after=hook)

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, key: str, *, generator: bool = False,
              after: Optional[Callable] = None, keep_sim: bool = False):
        """Replace ``owner.attr`` with a traced wrapper until :meth:`unpatch`.

        ``keep_sim`` keeps every simulated duration of the operation
        (for percentiles); otherwise only counts and host time are kept.
        """
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrap = self.generator_function if generator else self.call
        traced = wrap(fn, key, after=after)
        if isinstance(raw, classmethod):
            traced = classmethod(traced)
        elif isinstance(raw, staticmethod):
            traced = staticmethod(traced)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)
        if keep_sim:
            self._keep_sim.add(key)

    def replace(self, owner, attr: str, fn: Callable) -> None:
        """Set ``owner.attr = fn`` until :meth:`unpatch` (custom wrappers)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def count(self, key: str, n: int = 1) -> None:
        """Bump a plain counter (kept as the ``calls`` of ``key``)."""
        self._stat(key).calls += n

    def unpatch(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries ------------------------------------------------------
    def layer_self_s(self, layer: str, phase: str = "measure") -> float:
        """Self host time of every operation whose key starts ``layer:``."""
        prefix = layer + ":"
        return sum(stat.self_s for key, stat in self.table(phase).items()
                   if key.startswith(prefix))

    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """Kept spans as Chrome/Perfetto trace events.

        Process 1 is the simulated clock, process 2 the host clock
        (relative to the first kept span); each layer gets its own
        track. ``args`` carry the span id, parent and request id.
        """
        events = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "simulated clock"}},
            {"ph": "M", "pid": 2, "name": "process_name",
             "args": {"name": "host clock"}},
        ]
        host0 = self.spans[0].host_start if self.spans else 0.0
        tids: Dict[str, int] = {}
        for span in self.spans:
            layer, _, op = span.key.partition(":")
            tid = tids.setdefault(layer, len(tids) + 1)
            args = {"span": span.sid, "parent": span.parent,
                    "req": span.req, "host_us": span.host_s * 1e6}
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": op, "cat": layer,
                "ts": span.sim_start * 1e6,
                "dur": (span.sim_end - span.sim_start) * 1e6, "args": args})
            events.append({
                "ph": "X", "pid": 2, "tid": tid, "name": op, "cat": layer,
                "ts": (span.host_start - host0) * 1e6,
                "dur": (span.host_end - span.host_start) * 1e6,
                "args": args})
        for layer, tid in tids.items():
            for pid in (1, 2):
                events.append({"ph": "M", "pid": pid, "tid": tid,
                               "name": "thread_name",
                               "args": {"name": layer}})
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "metadata": dict(metadata or {},
                                 dropped_spans=self.dropped_spans)}

    def write_chrome_trace(self, path, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(metadata), handle)
