"""Full probe sweep, the reference for the region's change-driven sweep.

:meth:`repro.fleet.region.Region._probe_loop` probes only the servers
:meth:`~repro.cloud.health.FleetHealth.unsettled` names. This is the
sweep it replaced: every server, in server order, every interval.
``tests/fleet/test_probe_sweep.py`` runs regions under both and
requires byte-equal reports, audit logs and health records.
"""

import contextlib

from repro.fleet import Region
from repro.hypervisor.health import BoardHealth


def full_sweep(region):
    """Process: probe every server of ``region`` each interval."""
    while True:
        for name in region._server_names:
            board = region._board_health[name]
            if board is not BoardHealth.HEALTHY:
                region.health.ingest_board_health(name, board)
            else:
                region.health.report_probe(name, region._probe_ok(name))
        yield region.sim.timeout(region.spec.health.probe_interval_s)


@contextlib.contextmanager
def reference_probes():
    """Within the block, every :class:`Region` runs :func:`full_sweep`."""
    shipped = Region._probe_loop
    Region._probe_loop = full_sweep
    try:
        yield
    finally:
        Region._probe_loop = shipped
