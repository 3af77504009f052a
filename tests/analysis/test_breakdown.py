"""Exit-reason and VMCS-access profiles."""

import pytest

from repro.analysis.breakdown import exit_reason_profile, vmcs_access_share
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.virt.exits import ExitInfo, ExitReason


def test_exit_reason_profile_sorted_and_normalised():
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_instruction(isa.cpuid())
    machine.stack.l2_exit(ExitInfo(ExitReason.EXTERNAL_INTERRUPT,
                                   {"vector": 1}))
    profile = exit_reason_profile(machine.stack)
    assert sum(profile.values()) == pytest.approx(1.0)
    shares = list(profile.values())
    assert shares == sorted(shares, reverse=True)


def test_empty_profile():
    machine = Machine(mode=ExecutionMode.BASELINE)
    assert exit_reason_profile(machine.stack) == {}
    assert vmcs_access_share(machine.stack) == 0.0


def test_vmcs_access_share_small_like_paper():
    # Paper §6.2: "of all time spent handling VM traps in L0, only about
    # 4% is spent in the VM trap handlers triggered by VMCS accesses".
    from repro.io.net import Packet, install_network

    machine = Machine(mode=ExecutionMode.BASELINE)
    net = install_network(machine)
    net.fabric.remote_handler = lambda p: [Packet("r", 1)]
    net.l2_nic.queue_tx(Packet("x", 1))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, 0))
    machine.wait_until(lambda: net.l2_nic.rx.has_used)
    share = vmcs_access_share(machine.stack)
    assert 0.005 < share < 0.15
