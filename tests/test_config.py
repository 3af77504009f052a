"""Machine configuration (paper Table 4)."""

import pytest

from repro.config import HostConfig, MachineConfig, VMConfig, paper_machine
from repro.errors import ConfigError


def test_paper_machine_matches_table4():
    machine = paper_machine()
    host = machine.host
    assert host.sockets == 2
    assert host.cores_per_socket == 8
    assert host.smt_per_core == 2
    assert host.freq_ghz == 2.4
    assert host.nic_gbps == 10.0
    assert machine.vm(1).vcpus == 6
    assert machine.vm(1).reserved_vcpus == 1
    assert machine.vm(1).ram_gb == 50
    assert machine.vm(2).vcpus == 3
    assert machine.vm(2).ram_gb == 35


def test_describe_rows_render_table4():
    rows = dict(paper_machine().describe())
    assert "2xIntel E5-2630v3" in rows["L0"]
    assert "2-SMT" in rows["L0"]
    assert "6 vCPUs (1 reserved)" in rows["L1"]
    assert "virtio disk @ ramfs" in rows["L2"]


def test_derived_host_totals():
    host = HostConfig()
    assert host.total_cores == 16
    assert host.total_hw_threads == 32


def test_usable_vcpus_excludes_reserved():
    # Paper: "Reserved vCPUs never run our experiments".
    assert paper_machine().vm(2).usable_vcpus == 2


def test_vm_level_validation():
    with pytest.raises(ConfigError):
        VMConfig(level=0, vcpus=1)
    with pytest.raises(ConfigError):
        VMConfig(level=1, vcpus=2, reserved_vcpus=2)


def test_levels_must_be_contiguous():
    with pytest.raises(ConfigError):
        MachineConfig(vms=(VMConfig(level=2, vcpus=1),))
    with pytest.raises(ConfigError):
        MachineConfig(vms=(
            VMConfig(level=1, vcpus=1), VMConfig(level=3, vcpus=1),
        ))


def test_missing_level_lookup():
    with pytest.raises(ConfigError):
        paper_machine().vm(5)


def test_nesting_depth():
    assert len(paper_machine().vms) == 2


def test_host_validation():
    with pytest.raises(ConfigError):
        HostConfig(smt_per_core=0)
    with pytest.raises(ConfigError):
        HostConfig(freq_ghz=0)
