"""Controller-level tests: quotas and the audit trail."""

import pytest

from repro.cloud import CloudController, Quota, QuotaExceeded
from repro.sim import Simulator


@pytest.fixture
def cloud():
    sim = Simulator(seed=111)
    controller = CloudController(sim)
    controller.add_bmhive_server("hive-0", board_slots=8)
    controller.add_kvm_server("kvm-0")
    return controller


class TestQuotaEnforcement:
    def test_tenant_quota_blocks_creation(self, cloud):
        cloud.quotas.set_quota("small-co", Quota(max_instances=1,
                                                 max_hyperthreads=32))
        cloud.create_instance("ebm.e5.32ht", tenant="small-co")
        with pytest.raises(QuotaExceeded):
            cloud.create_instance("ebm.e5.32ht", tenant="small-co")

    def test_denied_request_returns_scheduler_capacity(self, cloud):
        cloud.quotas.set_quota("small-co", Quota(max_instances=0))
        with pytest.raises(QuotaExceeded):
            cloud.create_instance("ebm.e5.32ht", tenant="small-co")
        # The failed attempt must not leak board slots.
        server = cloud.scheduler.servers["hive-0"]
        assert server.used_boards == 0

    def test_destroy_returns_quota(self, cloud):
        cloud.quotas.set_quota("t", Quota(max_instances=1, max_hyperthreads=32))
        record = cloud.create_instance("ebm.e5.32ht", tenant="t")
        cloud.destroy_instance(record.instance_id)
        cloud.create_instance("ebm.e5.32ht", tenant="t")


class TestAuditTrail:
    def test_lifecycle_is_audited(self, cloud):
        record = cloud.create_instance("ebm.e5.32ht", tenant="acme")
        cloud.destroy_instance(record.instance_id)
        actions = [e.action for e in cloud.audit.entries(subject=record.instance_id)]
        assert actions == ["create_instance", "destroy_instance"]
        assert cloud.audit.verify()

    def test_audit_records_placement_details(self, cloud):
        record = cloud.create_instance("ecs.e5.32ht", tenant="acme")
        entry = cloud.audit.entries(subject=record.instance_id)[0]
        assert entry.details["server"] == "kvm-0"
        assert entry.details["kind"] == "vm"
        assert entry.actor == "acme"

