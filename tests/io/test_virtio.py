"""Virtqueue semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VirtualizationError
from repro.io.virtio import VirtQueue


def test_size_must_be_power_of_two():
    with pytest.raises(VirtualizationError):
        VirtQueue("q", size=3)
    with pytest.raises(VirtualizationError):
        VirtQueue("q", size=0)


def test_add_pop_complete_reap_cycle():
    queue = VirtQueue("q", size=8)
    idx = queue.add_buffer("payload", 64)
    descriptor = queue.pop_avail()
    assert descriptor.index == idx
    assert descriptor.payload == "payload"
    queue.push_used(descriptor, used_length=32)
    assert queue.has_used
    reaped = queue.reap_used()
    assert reaped.used_length == 32
    queue.check_invariants()


def test_capacity_enforced():
    queue = VirtQueue("q", size=2)
    queue.add_buffer("a", 1)
    queue.add_buffer("b", 1)
    with pytest.raises(VirtualizationError):
        queue.add_buffer("c", 1)


def test_descriptor_reuse_after_reap():
    queue = VirtQueue("q", size=2)
    for _ in range(10):
        queue.add_buffer("x", 1)
        queue.push_used(queue.pop_avail())
        queue.reap_used()
    queue.check_invariants()
    assert queue.added == queue.completed == 10


def test_pop_empty_returns_none():
    assert VirtQueue("q", size=4).pop_avail() is None


def test_reap_empty_raises():
    with pytest.raises(VirtualizationError):
        VirtQueue("q", size=4).reap_used()


def test_completing_foreign_descriptor_rejected():
    queue = VirtQueue("q", size=4)
    queue.add_buffer("a", 1)
    descriptor = queue.pop_avail()
    queue.push_used(descriptor)
    queue.reap_used()
    with pytest.raises(VirtualizationError):
        queue.push_used(descriptor)   # already recycled


def test_fifo_completion_order():
    queue = VirtQueue("q", size=8)
    for name in ("a", "b", "c"):
        queue.add_buffer(name, 1)
    for _ in range(3):
        queue.push_used(queue.pop_avail())
    assert [queue.reap_used().payload for _ in range(3)] == ["a", "b", "c"]


def test_in_flight_accounting():
    queue = VirtQueue("q", size=8)
    queue.add_buffer("a", 1)
    queue.add_buffer("b", 1)
    assert queue.in_flight == 0
    first = queue.pop_avail()
    assert queue.in_flight == 1
    queue.push_used(first)
    assert queue.in_flight == 0
    assert queue.avail_count == 1
    assert queue.used_count == 1


def drained(queue, n):
    for i in range(n):
        queue.add_buffer(i, 1)
    for _ in range(n):
        queue.push_used(queue.pop_avail())


def test_unsuppressed_queue_always_notifies():
    queue = VirtQueue("q", 8)
    drained(queue, 1)
    assert queue.should_notify()
    drained(queue, 1)
    assert queue.should_notify()


def test_suppressed_queue_never_notifies():
    queue = VirtQueue("q", 8)
    queue.interrupts_suppressed = True
    drained(queue, 1)
    assert not queue.should_notify()


def test_kick_counter():
    queue = VirtQueue("q", size=4)
    queue.kick()
    queue.kick()
    assert queue.kicks == 2


@given(st.lists(st.integers(0, 1000), max_size=40))
def test_property_every_buffer_used_exactly_once(payloads):
    queue = VirtQueue("q", size=64)
    for p in payloads:
        queue.add_buffer(p, 1)
    seen = []
    while True:
        descriptor = queue.pop_avail()
        if descriptor is None:
            break
        queue.push_used(descriptor)
        queue.check_invariants()
    while queue.has_used:
        seen.append(queue.reap_used().payload)
    assert seen == payloads
    queue.check_invariants()
