"""Unit tests for the guest memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.virtio import GuestMemory


class TestAllocation:
    def test_alloc_returns_distinct_regions(self):
        memory = GuestMemory()
        a = memory.alloc(100)
        b = memory.alloc(100)
        assert b >= a + 100

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError):
            GuestMemory().alloc(0)

    def test_exhaustion(self):
        memory = GuestMemory(capacity_bytes=1024)
        memory.alloc(1024)
        with pytest.raises(MemoryError):
            memory.alloc(1)

    def test_allocated_bytes_accounting(self):
        memory = GuestMemory()
        memory.alloc(10)
        memory.alloc(20)
        assert memory.allocated_bytes == 30


class TestAccess:
    def test_write_read_round_trip(self):
        memory = GuestMemory()
        addr = memory.alloc(64)
        memory.write(addr, b"datapath")
        assert memory.read(addr, 8) == b"datapath"

    def test_offset_access_within_region(self):
        memory = GuestMemory()
        addr = memory.alloc(64)
        memory.write(addr + 10, b"xy")
        assert memory.read(addr + 10, 2) == b"xy"

    def test_stray_read_rejected(self):
        memory = GuestMemory()
        with pytest.raises(ValueError, match="outside"):
            memory.read(0xDEAD0000, 4)

    def test_write_past_region_end_rejected(self):
        memory = GuestMemory()
        addr = memory.alloc(4)
        with pytest.raises(ValueError, match="outside"):
            memory.write(addr, b"too long for region")

    def test_access_straddling_adjacent_regions_rejected(self):
        memory = GuestMemory()
        a = memory.alloc(8)
        b = memory.alloc(8)
        assert b == a + 8
        with pytest.raises(ValueError, match="outside"):
            memory.read(a + 4, 8)
        with pytest.raises(ValueError, match="outside"):
            memory.write(b - 1, b"xy")

    def test_access_one_byte_past_region_rejected(self):
        memory = GuestMemory()
        a = memory.alloc(8)
        memory.alloc(8)
        with pytest.raises(ValueError, match="outside"):
            memory.read(a + 1, 8)
        assert memory.read(a, 8) == bytes(8)

    def test_access_below_first_base_rejected(self):
        memory = GuestMemory(base_address=0x1000)
        a = memory.alloc(64)
        with pytest.raises(ValueError, match="outside"):
            memory.read(a - 1, 1)
        with pytest.raises(ValueError, match="outside"):
            memory.write(0, b"x")

    def test_access_past_last_allocation_rejected(self):
        memory = GuestMemory()
        memory.alloc(16)
        last = memory.alloc(16)
        with pytest.raises(ValueError, match="outside"):
            memory.read(last + 16, 1)
        with pytest.raises(ValueError, match="outside"):
            memory.write(last + 100, b"x")


@given(
    chunks=st.lists(st.binary(min_size=1, max_size=128), min_size=1, max_size=20)
)
@settings(max_examples=50, deadline=None)
def test_property_every_allocation_reads_back_exactly(chunks):
    memory = GuestMemory()
    placed = []
    for chunk in chunks:
        addr = memory.alloc(len(chunk))
        memory.write(addr, chunk)
        placed.append((addr, chunk))
    for addr, chunk in placed:
        assert memory.read(addr, len(chunk)) == chunk


class LinearScanMemory:
    """Reference: the same allocator, with a scan over every region."""

    def __init__(self, base_address=0x1000):
        self._next = base_address
        self._regions = {}

    def alloc(self, nbytes):
        address = self._next
        self._next += nbytes
        self._regions[address] = bytearray(nbytes)
        return address

    def _find(self, address, nbytes):
        for base, region in self._regions.items():
            if base <= address and address + nbytes <= base + len(region):
                return base, region
        raise ValueError("outside")

    def write(self, address, data):
        base, region = self._find(address, len(data))
        region[address - base : address - base + len(data)] = data

    def read(self, address, nbytes):
        base, region = self._find(address, nbytes)
        return bytes(region[address - base : address - base + nbytes])


def _outcome(call):
    try:
        return ("ok", call())
    except ValueError:
        return ("ValueError", None)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_property_indexed_lookup_equals_linear_scan(data):
    memory, reference = GuestMemory(), LinearScanMemory()
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(["alloc", "read", "write"]))
        if op == "alloc":
            nbytes = data.draw(st.integers(1, 64))
            assert memory.alloc(nbytes) == reference.alloc(nbytes)
            continue
        # Addresses from just below the first base to just past the end,
        # so strays, straddles and overruns are all drawn.
        address = data.draw(st.integers(0x1000 - 8, reference._next + 8))
        if op == "read":
            nbytes = data.draw(st.integers(1, 80))
            assert (_outcome(lambda: memory.read(address, nbytes))
                    == _outcome(lambda: reference.read(address, nbytes)))
        else:
            payload = data.draw(st.binary(min_size=1, max_size=80))
            assert (_outcome(lambda: memory.write(address, payload))
                    == _outcome(lambda: reference.write(address, payload)))
