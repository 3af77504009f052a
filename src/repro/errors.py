"""Exception hierarchy for the SVt reproduction library."""


class ReproError(Exception):
    """Base class for every library-specific error."""


class ConfigError(ReproError):
    """Invalid machine/VM/workload configuration."""


class VirtualizationError(ReproError):
    """Generic virtualization-layer failure."""


class VmcsError(VirtualizationError):
    """Illegal VMCS access (unknown field, write to read-only, etc.)."""


class EptFault(VirtualizationError):
    """Address-translation failure in the extended page tables."""

    def __init__(self, gpa, message=""):
        self.gpa = gpa
        super().__init__(message or f"EPT fault at GPA {gpa:#x}")

    def __reduce__(self):
        # Pickle rebuilds an exception as ``cls(*args)``, and ``args``
        # holds only the message: pass the address too.
        return type(self), (self.gpa, str(self)), self.__dict__


class CrossContextFault(VirtualizationError):
    """Invalid ctxtld/ctxtst use — traps to the supervising hypervisor."""


class ChannelError(ReproError):
    """SW SVt command-ring protocol violation."""


class DeadlockError(ReproError):
    """The simulation detected that no participant can make progress.

    ``report`` (a :class:`repro.sim.engine.DeadlockReport`, when the
    detector produced one) names each parked waiter, what it waits on,
    and the wait-for edges — the §5.3 failure shape made loud.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PrfExhausted(ReproError):
    """The shared physical register file has no free entries."""
