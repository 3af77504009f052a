"""The runtime ordering sanitizer (``REPRO_SIM_SANITIZE=1``).

Unit tests drive :class:`repro.sim.sanitizer.Sanitizer` with a fake
clock; machine tests prove a clean run stays silent while an injected
out-of-order mutation is caught with context attribution; the
differential test pins the contract that the flag never changes a
byte of the result document.
"""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.exp import experiments  # noqa: F401  (registers experiments)
from repro.exp.runner import run_experiments
from repro.sim import sanitizer
from repro.sim.sanitizer import MAX_REPORTS, Sanitizer


@pytest.fixture(autouse=True)
def reset_sanitizer():
    yield
    sanitizer.drain()
    sanitizer.ACTIVE = None


def make(clock_value=0, obs=None):
    holder = [clock_value]
    san = Sanitizer(lambda: holder[0], obs)
    return san, holder


def test_cross_context_write_conflict_is_reported():
    san, _ = make()
    san.set_context("L0")
    san.record("vmcs:vmcs02", "guest_rip", "w", "Vmcs.write")
    san.set_context("L2")
    san.record("vmcs:vmcs02", "guest_rip", "w", "Vmcs.write")
    [report] = sanitizer.drain()
    text = report.render()
    assert "vmcs:vmcs02.guest_rip" in text
    assert "L0 w@Vmcs.write" in text and "L2 w@Vmcs.write" in text


def test_read_read_never_conflicts():
    san, _ = make()
    san.record("ctx0", "rax", "r", "HardwareContext.read")
    san.set_context("L2")
    san.record("ctx0", "rax", "r", "HardwareContext.read")
    assert sanitizer.drain() == []


def test_same_context_never_conflicts():
    san, _ = make()
    san.record("ctx0", "rax", "w", "HardwareContext.write")
    san.record("ctx0", "rax", "w", "HardwareContext.write")
    assert sanitizer.drain() == []


def test_distinct_fields_never_conflict():
    san, _ = make()
    san.record("ctx0", "rax", "w", "HardwareContext.write")
    san.set_context("L2")
    san.record("ctx0", "rbx", "w", "HardwareContext.write")
    assert sanitizer.drain() == []


def test_clock_movement_is_a_happens_before_edge():
    san, clock = make()
    san.record("vmcs:v", "f", "w", "Vmcs.write")
    clock[0] = 40
    san.set_context("L2")
    san.record("vmcs:v", "f", "w", "Vmcs.write")
    assert sanitizer.drain() == []


def test_ordering_event_is_a_happens_before_edge():
    san, _ = make()
    san.record("core.channel", "ring", "w", "CommandRing.push")
    san.ordering_event("ring-pop")
    san.set_context("L1")
    san.record("core.channel", "ring", "w", "CommandRing.pop")
    assert sanitizer.drain() == []


def test_repeated_identical_accesses_bound_cell_growth():
    san, _ = make()
    for _ in range(5):
        san.record("ctx0", "rax", "w", "HardwareContext.write")
    assert len(san._cells[("ctx0", "rax")]) == 1


def test_report_cap_keeps_counting():
    san, _ = make()
    for index in range(MAX_REPORTS + 50):
        san.set_context("L0" if index % 2 == 0 else "L1")
        san.record("ctx0", "rax", "w", "HardwareContext.write")
    assert sanitizer.total() > MAX_REPORTS
    assert len(sanitizer.reports()) == MAX_REPORTS


def test_drain_returns_and_clears():
    san, _ = make()
    san.record("ctx0", "rax", "w", "s")
    san.set_context("L1")
    san.record("ctx0", "rax", "w", "s")
    assert len(sanitizer.drain()) == 1
    assert sanitizer.drain() == []
    assert sanitizer.total() == 0


def test_reports_carry_open_span_context():
    class FakeSpans:
        @staticmethod
        def open_span_names():
            return ("run", "l2_exit")

    class FakeObs:
        tracing = True
        spans = FakeSpans()

    san, _ = make(obs=FakeObs())
    san.record("vmcs:v", "f", "w", "Vmcs.write")
    san.set_context("L2")
    san.record("vmcs:v", "f", "w", "Vmcs.write")
    [report] = sanitizer.drain()
    assert "spans=run/l2_exit" in report.render()


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
    assert not sanitizer.enabled()
    assert sanitizer.maybe_install(lambda: 0) is None
    assert sanitizer.ACTIVE is None
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_instruction(isa.cpuid(leaf=2))
    assert sanitizer.ACTIVE is None          # zero-overhead fast path


def test_machine_boot_installs_when_enabled(monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    Machine(mode=ExecutionMode.BASELINE)
    assert isinstance(sanitizer.ACTIVE, Sanitizer)


def test_clean_nested_run_is_silent(monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    machine = Machine(mode=ExecutionMode.BASELINE)
    for _ in range(3):
        machine.run_instruction(isa.cpuid(leaf=2))
    assert sanitizer.drain() == []


def test_injected_out_of_order_mutation_is_detected(monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_instruction(isa.cpuid(leaf=2))
    assert sanitizer.drain() == []

    # Mutate vmcs02 from "L1" and then "L0" with no clock advance,
    # channel operation or sanctioned crossing in between — exactly
    # the out-of-order write the paper's discipline forbids.  Raw
    # ``set_context`` is deliberately non-ordering so tests can do
    # this.
    san = sanitizer.ACTIVE
    san.set_context("L1")
    machine.stack.vmcs02.write("guest_rip", 0xBAD)
    san.set_context("L0")
    machine.stack.vmcs02.write("guest_rip", 0x1000)

    reports = sanitizer.drain()
    assert reports, "injected race went undetected"
    text = reports[0].render()
    assert "vmcs:vmcs02.guest_rip" in text
    assert "L1 w@Vmcs.write" in text
    assert "L0 w@Vmcs.write" in text


def run_fig6():
    report = run_experiments(["fig6"], jobs=1, cache=None, smoke=True)
    return report


def test_flag_flip_is_byte_identical(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
    plain = run_fig6()
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    sanitized = run_fig6()

    assert sanitized.to_json() == plain.to_json()
    assert plain.sanitizer_reports == []
    assert sanitized.sanitizer_reports == []    # and the run was clean
