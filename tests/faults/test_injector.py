"""FaultInjector: determinism, zero-draw contract, scoreboard."""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.virt.vmcs import Vmcs


def make_vmcs(name="vmcs02"):
    vmcs = Vmcs(name)
    vmcs.write("exception_bitmap", 0x4000, force=True)
    vmcs.write("tsc_offset", 128, force=True)
    return vmcs


def test_ring_fault_sequence_is_seed_deterministic():
    a = FaultInjector(FaultPlan(seed=42, rate=0.4))
    b = FaultInjector(FaultPlan(seed=42, rate=0.4))
    seq_a = [a.ring_fault("vcpu0.req") for _ in range(50)]
    seq_b = [b.ring_fault("vcpu0.req") for _ in range(50)]
    assert seq_a == seq_b
    assert any(kind is not None for kind in seq_a)


def test_streams_are_per_site_independent():
    # Interleaving draws on one ring must not perturb another ring's
    # sequence (the property that makes --jobs order irrelevant).
    solo = FaultInjector(FaultPlan(seed=7, rate=0.4))
    expected = [solo.ring_fault("b") for _ in range(20)]
    mixed = FaultInjector(FaultPlan(seed=7, rate=0.4))
    got = []
    for _ in range(20):
        mixed.ring_fault("a")          # extra traffic on another site
        got.append(mixed.ring_fault("b"))
    assert got == expected


def test_zero_plan_makes_no_draws():
    injector = FaultInjector(FaultPlan())
    for _ in range(10):
        assert injector.ring_fault("r") is None
    assert injector.corrupt_vmcs(make_vmcs()) is None
    assert injector._streams == {}      # not a single stream forked
    assert injector.total_injected == 0


def test_scoreboard_counts_by_kind():
    injector = FaultInjector(FaultPlan(seed=1, rate=1.0))
    kind = injector.ring_fault("r")
    assert kind == FaultKind.RING_DROP   # cumulative walk, rate 1.0
    assert injector.injected == {FaultKind.RING_DROP: 1}
    assert injector.open_ring_faults("r") == [FaultKind.RING_DROP]
    assert injector.resolve_ring("r", "recovered") == 1
    assert injector.recovered == {FaultKind.RING_DROP: 1}
    assert injector.open_ring_faults("r") == []


def test_resolve_ring_degraded_does_not_count_recovered():
    injector = FaultInjector(FaultPlan(seed=1, rate=1.0))
    injector.ring_fault("r")
    injector.resolve_ring("r", "degraded")
    assert injector.recovered == {}


def test_resolve_ring_unknown_outcome_rejected():
    import pytest

    injector = FaultInjector(FaultPlan(seed=1, rate=1.0))
    injector.ring_fault("r")
    with pytest.raises(ValueError):
        injector.resolve_ring("r", "shrugged")


def test_counters_document_is_plain_and_sorted():
    injector = FaultInjector(FaultPlan(seed=3, rate=0.8))
    for _ in range(30):
        injector.ring_fault("r")
    doc = injector.counters()
    assert sorted(doc["injected"]) == list(doc["injected"])
    assert set(doc) == {"injected", "recovered", "degraded", "deadlocked"}


def test_corrupt_vmcs_changes_value_and_resolve_recovers():
    injector = FaultInjector(FaultPlan(seed=9, rate=1.0))
    vmcs = make_vmcs()
    corruption = injector.corrupt_vmcs(vmcs)
    assert corruption is not None
    assert vmcs.read(corruption.field) == corruption.new_value
    assert corruption.new_value != corruption.old_value
    assert injector.injected == {FaultKind.VMCS_FLIP: 1}
    assert injector.resolve_vmcs(vmcs.name) == 1
    assert injector.recovered == {FaultKind.VMCS_FLIP: 1}
    assert injector.resolve_vmcs(vmcs.name) == 0


def test_corrupt_payload_is_detectable_and_deterministic():
    a = FaultInjector(FaultPlan(seed=4, rate=1.0))
    b = FaultInjector(FaultPlan(seed=4, rate=1.0))
    pa = {"exit_reason": "CPUID", "rip": 64}
    pb = {"exit_reason": "CPUID", "rip": 64}
    assert (a.corrupt_payload(pa, "r"), pa) == \
           (b.corrupt_payload(pb, "r"), pb)
    assert pa != {"exit_reason": "CPUID", "rip": 64}


def test_schedule_spurious_respects_zero_rate_and_cap():
    class SpyController:
        def __init__(self):
            self.calls = []

        def inject_spurious(self, context, vector, delay=0):
            self.calls.append((context, vector, delay))

    spy = SpyController()
    zero = FaultInjector(FaultPlan())
    assert zero.schedule_spurious(spy, 100_000, [0, 1]) == 0
    assert spy.calls == []

    hot = FaultInjector(FaultPlan(seed=2, rate=1.0, max_spurious=4))
    count = hot.schedule_spurious(spy, 1_000_000, [0, 1])
    assert count == 4                  # capped
    assert len(spy.calls) == 4
    assert hot.injected[FaultKind.SPURIOUS_IRQ] == 4
