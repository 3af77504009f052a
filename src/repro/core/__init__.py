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
