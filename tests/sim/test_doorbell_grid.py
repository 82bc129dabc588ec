"""The doorbell's poll-grid jump equals the chained-addition replay.

:func:`repro.sim.doorbell._grid_tick` finds the first busy-poll tick
past a bound by jumping whole runs of ticks inside a binade; the
reference (:mod:`tests.sim.reference_grid`) adds the interval once per
tick, as the busy-poll loop does. The tick must match bit for bit and
the skip count exactly, for both the strict (``ring``) and the
at-or-after (``deadline``) bound.
"""

import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim.doorbell import _grid_tick
from tests.sim.reference_grid import replay_grid_tick

# The poll intervals the paper profile gives its PMD loops.
PROFILE_INTERVALS = (0.5e-6, 1e-6, 2e-6, 10e-6)
# In [2**-7, 2**-6) the ulp is 2**-59, so this interval is 1.5 ulps:
# every addition there is a round-half-to-even tie.
TIE_ANCHOR = 2.0 ** -7
TIE_INTERVAL = 3 * 2.0 ** -60


def _chain(anchor, interval, ticks):
    """The ``ticks``-th tick of the chain (the first is ``anchor+i``)."""
    tick = anchor + interval
    for _ in range(ticks - 1):
        tick += interval
    return tick


@st.composite
def grid_cases(draw):
    kind = draw(st.sampled_from(["profile", "edge", "tie", "dyadic"]))
    if kind == "tie":
        # Start a few ticks below the tie binade too: a chain entering
        # it can land on an odd multiple of the ulp.
        interval = TIE_INTERVAL
        anchor = TIE_ANCHOR + draw(st.integers(-12, 6)) * 2.0 ** -60
    else:
        if kind == "dyadic":
            interval = math.ldexp(draw(st.integers(1, 63)),
                                  draw(st.integers(-40, -8)))
        else:
            interval = draw(st.sampled_from(PROFILE_INTERVALS))
        if kind == "edge":
            # Park a few ticks, and a few ulps, below a power of two so
            # the chain crosses into the next binade.
            edge = math.ldexp(1.0, draw(st.integers(-18, 4)))
            anchor = (edge - draw(st.integers(0, 40)) * interval
                      - draw(st.integers(0, 4)) * math.ulp(edge / 2))
        else:
            anchor = draw(st.floats(0.0, 20.0, allow_nan=False))
    if draw(st.booleans()):
        bound = _chain(anchor, interval, draw(st.integers(1, 3000)))
    else:
        bound = anchor + draw(st.floats(-2.0, 3000.0)) * interval
    return anchor, interval, bound


@given(case=grid_cases(), strict=st.booleans())
@settings(max_examples=400, deadline=None)
def test_grid_jump_equals_replay(case, strict):
    anchor, interval, bound = case
    expected = replay_grid_tick(anchor, interval, bound, strict)
    got = _grid_tick(anchor, interval, bound, strict)
    assert got == expected
    assert got[0].hex() == expected[0].hex()


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("interval", PROFILE_INTERVALS)
def test_bound_exactly_on_a_tick(interval, strict):
    anchor = 0.123456789
    bound = _chain(anchor, interval, 5000)
    tick, skipped = _grid_tick(anchor, interval, bound, strict)
    assert (tick, skipped) == replay_grid_tick(anchor, interval, bound,
                                               strict)
    # ``ring`` wakes on the tick after, ``deadline`` on the bound itself.
    assert tick == (bound + interval if strict else bound)
    assert skipped == (5000 if strict else 4999)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("anchor", [
    TIE_ANCHOR,
    # Below 2**-7 the ulp is 2**-60 and the interval adds exactly; this
    # chain enters the tie binade at 2**-7 + 2**-59, an odd multiple of
    # its ulp, where the rounded step is one ulp before it becomes two.
    TIE_ANCHOR - 4 * 2.0 ** -60,
])
def test_tie_binade_far_bound(anchor, strict):
    bound = TIE_ANCHOR + 200_000 * TIE_INTERVAL
    assert (_grid_tick(anchor, TIE_INTERVAL, bound, strict)
            == replay_grid_tick(anchor, TIE_INTERVAL, bound, strict))


def test_large_gap_closed_form():
    # Every addition of 2**-20 from 0 is exact, so the chain is j*2**-20;
    # ~10**10 ticks that a replay could not walk in any test budget.
    interval = 2.0 ** -20
    tick, skipped = _grid_tick(0.0, interval, 1e4, strict=True)
    ticks = math.floor(1e4 * 2 ** 20) + 1
    assert tick == ticks * interval
    assert skipped == ticks - 1


def test_interval_below_half_an_ulp_raises_instead_of_spinning():
    # At 3e10 s the ulp is 2**-18 s, so a 1 us interval cannot move the
    # grid; the chained replay spins forever. Run in a subprocess so a
    # hang shows as a failed test, not a stuck suite.
    script = textwrap.dedent("""
        from repro.sim import Simulator
        from repro.sim.doorbell import Doorbell
        sim = Simulator(seed=0)
        bell = Doorbell(sim, 1e-6)
        sim._now = 3e10
        bell.park()
        sim._now += 1.0
        for wake in (bell.ring, lambda: bell.deadline(sim._now)):
            try:
                wake()
            except ValueError as exc:
                print("ValueError:", exc)
    """)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env,
                                timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("the doorbell spun on a grid that cannot advance")
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("ValueError: poll interval 1e-06 cannot "
                               "advance the poll grid anchored at "
                               "30000000000.0")
