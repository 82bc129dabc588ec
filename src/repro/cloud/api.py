"""The cloud controller: the interface both hypervisors integrate with.

"The bm-hypervisor supports the same cloud interface as the
vm-hypervisor, [so] it can seamlessly integrate into the existing cloud
infrastructure" (Section 3.2) — operationally, creating a bm-guest and
a vm-guest is the same API call with a different instance type, and
the same image works for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend.fabric import Fabric
from repro.cloud.admission import AdmissionController, AdmissionPolicy
from repro.cloud.audit import AuditLog
from repro.cloud.health import FleetHealth, HealthPolicy
from repro.cloud.inventory import InstanceType, instance
from repro.cloud.quotas import QuotaLedger
from repro.cloud.scheduler import Scheduler
from repro.core.server import BmHiveServer, VirtServer
from repro.faults.accounting import AvailabilityAccounting
from repro.guest.image import VmImage

__all__ = ["CloudController", "InstanceRecord"]


@dataclass
class InstanceRecord:
    """One running instance, either service kind."""

    instance_id: str
    kind: str
    server: str
    guest: object
    image_digest: Optional[str]
    tenant: str = "default"
    tier: str = "standard"


class CloudController:
    """Control plane over real simulated servers.

    Unlike :class:`repro.cloud.scheduler.Scheduler` (pure capacity
    math, usable for fleet-scale studies), the controller drives actual
    :class:`BmHiveServer` / :class:`VirtServer` objects and returns
    fully wired guests.
    """

    def __init__(self, sim, fabric: Optional[Fabric] = None,
                 admission_policy: Optional[AdmissionPolicy] = None,
                 health_policy: Optional[HealthPolicy] = None):
        self.sim = sim
        self.fabric = fabric or Fabric(sim)
        self.scheduler = Scheduler()
        self.bm_servers: Dict[str, BmHiveServer] = {}
        self.vm_servers: Dict[str, VirtServer] = {}
        self.instances: Dict[str, InstanceRecord] = {}
        self.audit = AuditLog(sim)
        self.quotas = QuotaLedger()
        # Resilience layer (DESIGN.md §13): server outages and health
        # transitions land in the same ledger the fault stack uses, and
        # every create passes the admission gate before scheduling.
        self.accounting = AvailabilityAccounting(sim)
        self.health = FleetHealth(
            sim, self.scheduler, policy=health_policy,
            audit=self.audit, accounting=self.accounting)
        self.admission = AdmissionController(
            sim, self.scheduler, policy=admission_policy, audit=self.audit)
        self._torn_down = False

    # -- infrastructure --------------------------------------------------------
    def add_bmhive_server(self, name: str, board_slots: int = 8) -> BmHiveServer:
        server = BmHiveServer(self.sim, fabric=self.fabric, name=name)
        self.bm_servers[name] = server
        self.scheduler.add_bmhive_server(name, board_slots=board_slots)
        return server

    def add_kvm_server(self, name: str, sellable_hyperthreads: int = 88) -> VirtServer:
        server = VirtServer(self.sim, fabric=self.fabric, name=name)
        self.vm_servers[name] = server
        self.scheduler.add_kvm_server(name, sellable_hyperthreads)
        return server

    # -- instance life cycle ----------------------------------------------------
    def create_instance(self, type_name: str,
                        image: Optional[VmImage] = None,
                        tenant: str = "default",
                        tier: str = "standard") -> InstanceRecord:
        """Create an instance of ``type_name`` on any fitting server.

        The request first passes the admission gate (circuit breaker +
        per-tier token bucket; raises :class:`~repro.cloud.admission.
        AdmissionRejected` when shed or rate-limited), then quotas are
        charged and the action is audited.
        """
        itype: InstanceType = instance(type_name)
        self.admission.admit(tier, tenant=tenant)
        placement = self.scheduler.place(itype)
        try:
            self.quotas.charge(tenant, placement.instance_id, itype)
        except Exception:
            self.scheduler.release(placement.instance_id)
            raise
        if itype.kind == "bm":
            server = self.bm_servers[placement.server]
            guest = server.launch_guest(
                cpu_model=itype.cpu_model,
                memory_gib=itype.memory_gib,
                limits=itype.limits,
                image=image,
            )
        else:
            server = self.vm_servers[placement.server]
            guest = server.launch_guest(
                cpu_model=itype.cpu_model,
                memory_gib=itype.memory_gib,
                limits=itype.limits,
                image=image,
            )
        record = InstanceRecord(
            instance_id=placement.instance_id,
            kind=itype.kind,
            server=placement.server,
            guest=guest,
            image_digest=image.digest() if image else None,
            tenant=tenant,
            tier=tier,
        )
        self.instances[record.instance_id] = record
        self.audit.record(
            tenant, "create_instance", record.instance_id,
            type=type_name, server=placement.server, kind=itype.kind,
        )
        return record

    def teardown(self) -> int:
        """End-of-run bookkeeping: close every open outage span.

        Without this, a run ending mid-outage (server quarantined and
        never readmitted) would leave ``down_since`` dangling and the
        report would undercount downtime. Idempotent; returns the
        number of spans closed, and audits the teardown.
        """
        closed = self.accounting.finalize()
        if not self._torn_down:
            self._torn_down = True
            self.audit.record("controller", "teardown", "-",
                              spans_closed=closed)
        return closed

    def destroy_instance(self, instance_id: str) -> None:
        record = self.instances.pop(instance_id, None)
        if record is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        self.scheduler.release(instance_id)
        self.quotas.release(record.tenant, instance_id)
        self.audit.record(record.tenant, "destroy_instance", instance_id)
        if record.kind == "bm":
            server = self.bm_servers[record.server]
            guest = record.guest
            if guest.board.is_on:
                guest.hypervisor.stop()
                guest.hypervisor.power_off(guest.board)
            server.chassis.remove(guest.board)
            server.guests.remove(guest)
            server.vswitch.remove_port(guest.net_path.port_name)
            del server.hypervisors[guest.name]
        else:
            server = self.vm_servers[record.server]
            server.guests.remove(record.guest)
            server.vswitch.remove_port(record.guest.net_path.port_name)

    # -- reporting ------------------------------------------------------------------
    def density(self, server_name: str) -> int:
        if server_name in self.bm_servers:
            return self.bm_servers[server_name].density
        return len(self.vm_servers[server_name].guests)
