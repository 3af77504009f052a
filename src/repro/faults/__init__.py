"""repro.faults — deterministic fault injection + recovery machinery.

The chaos layer of the reproduction: seeded fault plans
(:class:`~repro.faults.plan.FaultPlan`), the per-site deterministic
injector (:class:`~repro.faults.injector.FaultInjector`), sim-clock
watchdogs with bounded backoff and graceful SW-SVt -> BASELINE
degradation (:class:`~repro.faults.watchdog.Watchdog`), and the
VMCS scrubber and resilience-matrix cell (`repro.faults.scenario`).

See ``docs/robustness.md`` for the fault taxonomy and recovery
contracts.
"""
