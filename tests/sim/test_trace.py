"""Unit tests for the execution tracer."""

import pytest

from repro.sim import Simulator, Tracer


@pytest.fixture
def traced():
    sim = Simulator(seed=0)
    return sim, Tracer(sim)


class TestSpans:
    def test_span_records_interval(self, traced):
        sim, tracer = traced

        def work(sim):
            tracer.begin("dma", "copy")
            yield sim.timeout(5e-6)
            tracer.end("dma", "copy")

        sim.run_process(work(sim))
        assert len(tracer.spans) == 1
        assert tracer.spans[0].duration_s == pytest.approx(5e-6)

    def test_context_manager_form(self, traced):
        sim, tracer = traced

        def work(sim):
            with tracer.span("kernel", "udp_tx"):
                yield sim.timeout(2.4e-6)

        sim.run_process(work(sim))
        assert tracer.total("kernel") == pytest.approx(2.4e-6)

    def test_double_begin_rejected(self, traced):
        _, tracer = traced
        tracer.begin("a", "x")
        with pytest.raises(RuntimeError, match="already open"):
            tracer.begin("a", "x")

    def test_end_without_begin_rejected(self, traced):
        _, tracer = traced
        with pytest.raises(RuntimeError, match="never begun"):
            tracer.end("a", "x")

    def test_totals_filter_by_name(self, traced):
        sim, tracer = traced

        def work(sim):
            for name, delay in (("copy", 1e-6), ("copy", 2e-6), ("sync", 4e-6)):
                tracer.begin("dma", name)
                yield sim.timeout(delay)
                tracer.end("dma", name)

        sim.run_process(work(sim))
        assert tracer.total("dma", "copy") == pytest.approx(3e-6)
        assert tracer.total("dma") == pytest.approx(7e-6)


class TestBreakdownAndRender:
    def test_breakdown_sums_per_track(self, traced):
        sim, tracer = traced

        def work(sim):
            with tracer.span("guest", "kernel"):
                yield sim.timeout(3e-6)
            with tracer.span("iobond", "dma"):
                yield sim.timeout(1e-6)

        sim.run_process(work(sim))
        breakdown = tracer.breakdown()
        assert breakdown["guest"] == pytest.approx(3e-6)
        assert breakdown["iobond"] == pytest.approx(1e-6)

    def test_render_is_chronological(self, traced):
        sim, tracer = traced

        def work(sim):
            tracer.mark("guest", "kick")
            with tracer.span("iobond", "sync"):
                yield sim.timeout(1e-6)
            tracer.mark("guest", "msi")

        sim.run_process(work(sim))
        text = tracer.render()
        assert text.index("kick") < text.index("sync") < text.index("msi")
        assert "us" in text


class TestChromeTraceExport:
    def test_spans_become_complete_events(self, traced):
        sim, tracer = traced

        def work(sim):
            with tracer.span("iobond", "pci_hop"):
                yield sim.timeout(0.8e-6)
            tracer.mark("guest", "msi")

        sim.run_process(work(sim))
        trace = tracer.to_chrome_trace()
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 1 and len(instants) == 1
        assert complete[0]["name"] == "pci_hop"
        assert complete[0]["ts"] == pytest.approx(0.0)
        assert complete[0]["dur"] == pytest.approx(0.8)  # microseconds
        assert instants[0]["name"] == "msi"
        assert instants[0]["ts"] == pytest.approx(0.8)

    def test_tracks_become_named_threads(self, traced):
        sim, tracer = traced
        tracer.mark("guest", "a")
        tracer.mark("iobond", "b")
        tracer.mark("guest", "c")
        trace = tracer.to_chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"guest", "iobond"}
        by_track = {m["args"]["name"]: m["tid"] for m in meta}
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["tid"] for e in instants] == [
            by_track["guest"], by_track["iobond"], by_track["guest"]]

    def test_write_chrome_trace_is_valid_json(self, traced):
        import json

        sim, tracer = traced
        tracer.mark("guest", "kick")
        data = json.loads(json.dumps(tracer.to_chrome_trace()))
        assert data["traceEvents"][-1]["name"] == "kick"
