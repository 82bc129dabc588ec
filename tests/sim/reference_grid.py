"""Chained-addition replay of the busy-poll grid, the doorbell's reference.

A busy-poll loop parked at ``anchor`` would have spun at ``anchor+i``,
``(anchor+i)+i``, ...; this walks that chain one float addition per
tick, exactly as the loop does. :func:`repro.sim.doorbell._grid_tick`
jumps runs of ticks instead and must return the same tick and skip
count; ``tests/sim/test_doorbell_grid.py`` asserts so.
"""


def replay_grid_tick(anchor: float, interval: float, bound: float,
                     strict: bool):
    """First chained tick ``> bound`` (``strict``) or ``>= bound``, and
    the number of additions after the first."""
    tick = anchor + interval
    skipped = 0
    while tick <= bound if strict else tick < bound:
        tick += interval
        skipped += 1
    return tick, skipped
