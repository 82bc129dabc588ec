"""Per-board health verdicts.

The bm-hypervisor "controls [the guests'] execution via the PCIe
interface" (Section 1), including noticing when a board stops
responding. The region model (``repro.fleet.region``) marks a board
SUSPECT when a correlated board-hang fault lands on it, and its probe
loop folds the verdict into :class:`~repro.cloud.health.FleetHealth`.
"""

from __future__ import annotations

import enum

__all__ = ["BoardHealth"]


class BoardHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    RESET = "reset"
