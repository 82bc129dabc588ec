"""Unit tests for the summary statistics."""

import pytest

from repro.sim import gbps, summarize


class TestSummarize:
    def test_mean_and_percentiles(self):
        summary = summarize(value / 1000.0 for value in range(1, 1001))
        assert summary.mean == pytest.approx(0.5005)
        assert summary.p99 == pytest.approx(0.99, rel=0.02)
        assert summary.p999 == pytest.approx(0.999, rel=0.02)

    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.mean == pytest.approx(2.0)

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestUnitConversions:
    def test_paper_constants(self):
        # A PCIe x4 at 8 Gb/s/lane carries 4 GB/s of payload.
        assert gbps(4e9) == pytest.approx(32.0)
