"""Machine and VM topology configuration (paper Table 4).

The paper's testbed::

    L0   2x Intel E5-2630v3 (2.4 GHz, 8 cores, 2-SMT),
         2x64 GB RAM, Intel X540-AT2 (10 Gb)
    L1   6 vCPUs (1 reserved), 50 GB RAM,
         virtio-net-pci+vhost, virtio disk @ ramfs
    L2   3 vCPUs (1 reserved), 35 GB RAM,
         virtio-net-pci+vhost, virtio disk @ ramfs

:func:`paper_machine` reconstructs exactly this configuration; the classes
are general so tests and ablations can build other shapes.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class HostConfig:
    """Physical host parameters (paper Table 4, row L0)."""

    sockets: int = 2
    cores_per_socket: int = 8
    smt_per_core: int = 2
    freq_ghz: float = 2.4
    ram_gb: int = 128
    nic_model: str = "Intel X540-AT2"
    nic_gbps: float = 10.0
    cpu_model: str = "Intel E5-2630v3"

    def __post_init__(self):
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ConfigError("host needs at least one socket and core")
        if self.smt_per_core < 1:
            raise ConfigError("smt_per_core must be >= 1")
        if self.freq_ghz <= 0 or self.nic_gbps <= 0:
            raise ConfigError("frequencies and link rates must be positive")

    @property
    def total_cores(self):
        return self.sockets * self.cores_per_socket

    @property
    def total_hw_threads(self):
        return self.total_cores * self.smt_per_core


@dataclass(frozen=True)
class VMConfig:
    """One virtualization level's VM shape (paper Table 4, rows L1/L2)."""

    level: int
    vcpus: int
    reserved_vcpus: int = 0
    ram_gb: int = 0
    net_device: str = "virtio-net-pci+vhost"
    disk_device: str = "virtio disk @ ramfs"

    def __post_init__(self):
        if self.level < 1:
            raise ConfigError("VM levels start at 1 (L0 is the host)")
        if self.vcpus < 1:
            raise ConfigError("a VM needs at least one vCPU")
        if not 0 <= self.reserved_vcpus < self.vcpus:
            raise ConfigError(
                "reserved vCPUs must leave at least one usable vCPU"
            )

    @property
    def usable_vcpus(self):
        """vCPUs available to experiments (paper reserves one per level
        for system processes moved there via cgroups)."""
        return self.vcpus - self.reserved_vcpus


@dataclass(frozen=True)
class MachineConfig:
    """Full nested-virtualization stack configuration."""

    host: HostConfig = field(default_factory=HostConfig)
    vms: tuple = ()

    def __post_init__(self):
        levels = [vm.level for vm in self.vms]
        if levels != sorted(levels) or len(set(levels)) != len(levels):
            raise ConfigError("VM levels must be strictly increasing")
        if levels and levels != list(range(1, len(levels) + 1)):
            raise ConfigError("VM levels must be contiguous starting at L1")

    def vm(self, level):
        for candidate in self.vms:
            if candidate.level == level:
                return candidate
        raise ConfigError(f"no VM configured at L{level}")

    def describe(self):
        """Rows equivalent to paper Table 4, as (level, description)."""
        host = self.host
        rows = [(
            "L0",
            f"{host.sockets}x{host.cpu_model} ({host.freq_ghz}GHz, "
            f"{host.cores_per_socket} cores, {host.smt_per_core}-SMT), "
            f"{host.sockets}x{host.ram_gb // host.sockets}GB RAM, "
            f"{host.nic_model} ({host.nic_gbps:g}Gb)",
        )]
        for vm in self.vms:
            rows.append((
                f"L{vm.level}",
                f"{vm.vcpus} vCPUs ({vm.reserved_vcpus} reserved), "
                f"{vm.ram_gb}GB RAM, {vm.net_device}, {vm.disk_device}",
            ))
        return rows


def paper_machine():
    """The exact testbed of paper Table 4."""
    return MachineConfig(
        host=HostConfig(),
        vms=(
            VMConfig(level=1, vcpus=6, reserved_vcpus=1, ram_gb=50),
            VMConfig(level=2, vcpus=3, reserved_vcpus=1, ram_gb=35),
        ),
    )
