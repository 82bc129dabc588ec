"""Cloud infrastructure: inventory, scheduling, pricing, power, control."""

from repro.cloud.admission import (
    TIERS,
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
)
from repro.cloud.api import CloudController, InstanceRecord
from repro.cloud.audit import AuditEntry, AuditLog, TamperError
from repro.cloud.health import (
    FleetHealth,
    HealthPolicy,
    HealthTransitionError,
    RemediationPipeline,
    RemediationTicket,
    ServerHealthState,
)
from repro.cloud.billing import BM_DISCOUNT, Invoice, PriceList, UsageMeter
from repro.cloud.quotas import Quota, QuotaExceeded, QuotaLedger
from repro.cloud.inventory import (
    BM_INSTANCES,
    VM_INSTANCES,
    InstanceType,
    instance,
    table3_rows,
)
from repro.cloud.maintenance import MaintenanceReport, MaintenanceWindow
from repro.cloud.power import PowerComparison, compare_power
from repro.cloud.pricing import (
    BMHIVE_SERVER,
    VM_SERVER,
    DensityComparison,
    ServerBom,
    compare_density,
)
from repro.cloud.scheduler import (
    CapacityError,
    Placement,
    Scheduler,
    SchedulerIndexError,
    ServerCapacity,
)

__all__ = [
    "InstanceType",
    "BM_INSTANCES",
    "VM_INSTANCES",
    "instance",
    "table3_rows",
    "Scheduler",
    "ServerCapacity",
    "Placement",
    "CapacityError",
    "SchedulerIndexError",
    "ServerBom",
    "VM_SERVER",
    "BMHIVE_SERVER",
    "DensityComparison",
    "compare_density",
    "PowerComparison",
    "compare_power",
    "CloudController",
    "InstanceRecord",
    "PriceList",
    "UsageMeter",
    "Invoice",
    "BM_DISCOUNT",
    "AuditLog",
    "AuditEntry",
    "TamperError",
    "Quota",
    "QuotaLedger",
    "QuotaExceeded",
    "MaintenanceWindow",
    "MaintenanceReport",
    "TIERS",
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionRejected",
    "FleetHealth",
    "HealthPolicy",
    "HealthTransitionError",
    "RemediationPipeline",
    "RemediationTicket",
    "ServerHealthState",
]
