"""SVt — the paper's contribution, plus its discussed extensions.

* `repro.core.mode` — the three execution modes the evaluation compares.
* `repro.core.cross_context` — ctxtld/ctxtst semantics with the paper's
  ``lvl`` virtualization rules (§4).
* `repro.core.switch` — the switch engines that price every boundary
  crossing per mode (the heart of the Table 1 / Fig. 6 reproduction).
* `repro.core.channel` / `repro.core.wait` — SW SVt's shared-memory
  command rings and the §6.1 wait-mechanism models.
* `repro.core.sw_prototype` — the software-only prototype's protocol,
  including the §5.3 interrupt-deadlock scenario and its fix.
* `repro.core.system` — the :class:`~repro.core.system.Machine` facade
  that assembles a full nested stack in any mode.

Extensions the paper discusses but does not build:

* `repro.core.bypass` — §3.1's direct L2→L1 trap delivery.
* `repro.core.coexist` — §3.3's dynamic SVt/SMT per-core choice.
* `repro.core.security` — §3.4's co-residency audit.
* `repro.core.related_work` — §7's alternatives, priced on the same
  cost base.
"""

from repro.core.bypass import BypassSvtEngine, install_bypass
from repro.core.channel import (
    Command,
    CommandKind,
    CommandRing,
    PairedChannels,
)
from repro.core.coexist import (
    CoexistConfig,
    DynamicPolicy,
    crossover_trap_rate,
)
from repro.core.cross_context import ctxt_read, ctxt_write, resolve_target
from repro.core.mode import ExecutionMode
from repro.core.security import CoResidencyAuditor, audit_machine_run
from repro.core.switch import (
    HwSvtEngine,
    SwitchEngine,
    SwSvtEngine,
    make_engine,
)
from repro.core.system import Machine

__all__ = [
    "BypassSvtEngine",
    "CoResidencyAuditor",
    "CoexistConfig",
    "Command",
    "CommandKind",
    "CommandRing",
    "DynamicPolicy",
    "ExecutionMode",
    "HwSvtEngine",
    "Machine",
    "PairedChannels",
    "SwSvtEngine",
    "SwitchEngine",
    "audit_machine_run",
    "crossover_trap_rate",
    "ctxt_read",
    "ctxt_write",
    "install_bypass",
    "make_engine",
    "resolve_target",
]
