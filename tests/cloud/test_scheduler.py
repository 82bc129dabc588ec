"""Unit tests for the placement scheduler."""

import pytest

from repro.cloud import CapacityError, Scheduler, instance


@pytest.fixture
def scheduler():
    sched = Scheduler()
    sched.add_bmhive_server("hive-0", board_slots=8)
    sched.add_kvm_server("kvm-0", sellable_hyperthreads=88)
    return sched


class TestPlacement:
    def test_bm_goes_to_bmhive(self, scheduler):
        placement = scheduler.place(instance("ebm.e5.32ht"))
        assert placement.server == "hive-0"
        assert placement.instance_id.startswith("i-")

    def test_vm_goes_to_kvm(self, scheduler):
        placement = scheduler.place(instance("ecs.e5.32ht"))
        assert placement.server == "kvm-0"

    def test_board_slots_exhaust(self, scheduler):
        for _ in range(8):
            scheduler.place(instance("ebm.e5.32ht"))
        with pytest.raises(CapacityError):
            scheduler.place(instance("ebm.e5.32ht"))

    def test_ht_packing_on_kvm(self, scheduler):
        for _ in range(2):
            scheduler.place(instance("ecs.e5.32ht"))  # 64 of 88 HT used
        # A third 32-HT VM needs 96 > 88 sellable HT: no capacity left.
        with pytest.raises(CapacityError):
            scheduler.place(instance("ecs.e5.32ht"))

    def test_release_returns_capacity(self, scheduler):
        placements = [scheduler.place(instance("ebm.e5.32ht")) for _ in range(8)]
        scheduler.release(placements[0].instance_id)
        assert scheduler.place(instance("ebm.e5.32ht"))

    def test_release_unknown_raises(self, scheduler):
        with pytest.raises(KeyError):
            scheduler.release("i-999999")

    def test_duplicate_server_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.add_kvm_server("kvm-0")


class TestCapacityErrorDetails:
    def test_error_reports_per_kind_capacity(self, scheduler):
        for _ in range(8):
            scheduler.place(instance("ebm.e5.32ht"))
        with pytest.raises(CapacityError) as exc:
            scheduler.place(instance("ebm.e5.32ht"))
        message = str(exc.value)
        assert "boards 0/8 free" in message
        assert "hyperthreads 88/88 free" in message
        details = exc.value.details
        assert details["boards_free"] == 0
        assert details["boards_used"] == 8
        assert details["ht_free"] == 88
        assert details["quarantined_servers"] == 0

    def test_error_reports_quarantined_holdback(self, scheduler):
        scheduler.quarantine("hive-0")
        with pytest.raises(CapacityError) as exc:
            scheduler.place(instance("ebm.e5.32ht"))
        assert "1 quarantined" in str(exc.value)
        details = exc.value.details
        assert details["quarantined_servers"] == 1
        assert details["quarantined_boards"] == 8
        # Totals keep counting the quarantined server; free does not.
        assert details["boards_total"] == 8
        assert details["boards_free"] == 0


class TestQuarantine:
    def test_quarantined_server_never_selected(self, scheduler):
        scheduler.quarantine("hive-0")
        with pytest.raises(CapacityError):
            scheduler.place(instance("ebm.e5.32ht"))
        # VM capacity is unaffected.
        assert scheduler.place(instance("ecs.e5.32ht")).server == "kvm-0"

    def test_readmit_restores_placement(self, scheduler):
        scheduler.quarantine("hive-0")
        assert scheduler.readmit("hive-0")
        assert scheduler.place(instance("ebm.e5.32ht")).server == "hive-0"

    def test_quarantine_is_idempotent(self, scheduler):
        assert scheduler.quarantine("hive-0")
        assert not scheduler.quarantine("hive-0")
        assert scheduler.readmit("hive-0")
        assert not scheduler.readmit("hive-0")

    def test_quarantine_unknown_server_raises(self, scheduler):
        with pytest.raises(KeyError):
            scheduler.quarantine("nope")

    def test_quarantined_servers_listed_sorted(self, scheduler):
        scheduler.add_bmhive_server("hive-1", board_slots=2)
        scheduler.quarantine("hive-1")
        scheduler.quarantine("hive-0")
        assert scheduler.quarantined_servers() == ("hive-0", "hive-1")

    def test_existing_placements_survive_quarantine(self, scheduler):
        placement = scheduler.place(instance("ebm.e5.32ht"))
        scheduler.quarantine("hive-0")
        assert scheduler.placements == {placement.instance_id: placement}
        assert scheduler.servers["hive-0"].used_boards == 1
        scheduler.release(placement.instance_id)
        assert scheduler.placements == {}
        assert scheduler.servers["hive-0"].used_boards == 0

    def test_healthy_headroom_excludes_quarantined(self, scheduler):
        scheduler.add_bmhive_server("hive-1", board_slots=8)
        assert scheduler.healthy_headroom("bm") == pytest.approx(1.0)
        scheduler.quarantine("hive-1")
        assert scheduler.healthy_headroom("bm") == pytest.approx(0.5)
