"""Tests for the typed HardwareProfile configuration layer."""

import dataclasses
import json

import pytest

from repro.config import (
    GEN3_PER_LANE_GBPS,
    GEN4_PER_LANE_GBPS,
    BackendSpec,
    GuestSpec,
    HardwareProfile,
    IoBondSpec,
    PcieLinkSpec,
    PollSpec,
)
from repro.config.profile import spec_to_dict
from repro.hw.dma import DmaEngineSpec


class TestPresets:
    def test_paper_is_the_default(self):
        assert HardwareProfile.paper() == HardwareProfile()
        assert HardwareProfile.paper().name == "paper"

    def test_paper_matches_published_constants(self):
        p = HardwareProfile.paper()
        assert p.iobond.pci_hop_latency_s == pytest.approx(0.8e-6)
        assert p.iobond.dma.throughput_gbps == pytest.approx(50.0)
        assert p.iobond.device_lanes == 4
        assert p.board_pcie.lanes == 8
        assert p.board_pcie.per_lane_gbps == pytest.approx(GEN3_PER_LANE_GBPS)

    def test_asic_hop_is_below_fpga_hop(self):
        fpga = HardwareProfile.paper()
        asic = HardwareProfile.asic()
        assert asic.iobond.pci_hop_latency_s < fpga.iobond.pci_hop_latency_s
        # The paper projects a 75% reduction: 0.8us -> 0.2us per hop.
        assert asic.iobond.pci_hop_latency_s == pytest.approx(
            fpga.iobond.pci_hop_latency_s / 4)

    def test_gen4_doubles_the_per_lane_rate(self):
        gen4 = HardwareProfile.gen4()
        assert gen4.board_pcie.per_lane_gbps == pytest.approx(GEN4_PER_LANE_GBPS)
        assert gen4.iobond.per_lane_gbps == pytest.approx(GEN4_PER_LANE_GBPS)
        assert GEN4_PER_LANE_GBPS == pytest.approx(2 * GEN3_PER_LANE_GBPS)

    def test_presets_are_distinct(self):
        names = {p.name for p in (HardwareProfile.paper(),
                                  HardwareProfile.asic(),
                                  HardwareProfile.gen4())}
        assert names == {"paper", "asic", "gen4"}

    def test_from_name_round_trips_every_preset(self):
        for name in ("paper", "asic", "gen4"):
            assert HardwareProfile.from_name(name).name == name

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown profile"):
            HardwareProfile.from_name("quantum")


class TestSpecToDict:
    def test_renders_nested_specs_as_plain_json(self):
        data = spec_to_dict(HardwareProfile.paper())
        assert json.loads(json.dumps(data)) == data
        assert data["name"] == "paper"
        assert data["iobond"]["pci_hop_latency_s"] == pytest.approx(0.8e-6)
        assert data["queues"] == {"blk_queues": 1, "net_queue_pairs": 1,
                                  "backend_workers": 1, "passthrough": False}


class TestValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="pci_hop_latency_s"):
            HardwareProfile(iobond=IoBondSpec(pci_hop_latency_s=-1e-6))

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError, match="throughput_gbps"):
            HardwareProfile(
                iobond=IoBondSpec(dma=DmaEngineSpec(throughput_gbps=-50.0)))

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="per_lane_gbps"):
            HardwareProfile(board_pcie=PcieLinkSpec(lanes=8, per_lane_gbps=0.0))

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError, match="lanes"):
            HardwareProfile(board_pcie=PcieLinkSpec(lanes=0))

    def test_rejects_negative_poll_interval(self):
        with pytest.raises(ValueError, match="vhost_blk_poll_s"):
            HardwareProfile(poll=PollSpec(vhost_blk_poll_s=-2e-6))

    def test_zero_latency_is_allowed(self):
        # Latencies may legitimately be zero (an idealised link).
        p = HardwareProfile(iobond=IoBondSpec(pci_hop_latency_s=0.0))
        assert p.iobond.pci_hop_latency_s == 0.0


class TestFrozen:
    def test_profile_is_immutable(self):
        p = HardwareProfile.paper()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.name = "mutated"

    def test_composites_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            HardwareProfile.paper().backend.poll_mode = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            HardwareProfile.paper().guest.memory_gib = 1

    def test_backend_and_guest_defaults(self):
        b = BackendSpec()
        assert b.poll_mode is True
        g = GuestSpec()
        assert g.cpu_model == "Xeon E5-2682 v4"
        assert g.memory_gib == 64
