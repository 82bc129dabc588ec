"""Property-based tests for audit and quota invariants."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.audit import AuditLog, TamperError
from repro.cloud.inventory import instance
from repro.cloud.quotas import Quota, QuotaExceeded, QuotaLedger
from repro.sim import Simulator

class TestAuditProperties:
    @given(
        actions=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.text(max_size=8)),
            min_size=1, max_size=30,
        ),
        victim=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_single_mutation_breaks_the_chain(self, actions, victim):
        sim = Simulator(seed=0)
        log = AuditLog(sim)
        for action, subject in actions:
            log.record("actor", action, subject or "s")
        assert log.verify()
        if victim >= len(log._entries):
            return
        entry = log._entries[victim]
        log._entries[victim] = dataclasses.replace(entry, action=entry.action + "X")
        # Tampering anywhere but the very tail must break verification;
        # a tail edit is caught as soon as anything is appended after it.
        if victim < len(log._entries) - 1:
            with pytest.raises(TamperError):
                log.verify()
        else:
            log._entries[victim] = entry  # restore
            assert log.verify()


class TestQuotaProperties:
    @given(
        ops=st.lists(st.sampled_from(["charge", "release"]), min_size=1,
                     max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_usage_never_negative_and_never_exceeds_quota(self, ops):
        ledger = QuotaLedger(Quota(max_instances=3, max_hyperthreads=96))
        itype = instance("ebm.e5.32ht")
        live = []
        counter = 0
        for op in ops:
            if op == "charge":
                counter += 1
                try:
                    ledger.charge("t", f"i-{counter}", itype)
                    live.append(f"i-{counter}")
                except QuotaExceeded:
                    pass
            elif live:
                ledger.release("t", live.pop())
            usage = ledger.usage_for("t")
            assert 0 <= usage.instances <= 3
            assert 0 <= usage.hyperthreads <= 96
            assert usage.hyperthreads == 32 * usage.instances
