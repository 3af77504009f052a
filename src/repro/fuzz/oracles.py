"""The fuzz oracle suite — what "healthy" means for three outcomes.

Zero-fault, stock-machine expectations:

* **crash** — no run raised out of the simulation;
* **mode-state** — the comparable slice (architectural state,
  delivered-interrupt accounting, liveness) is equal across
  BASELINE / SW_SVT / HW_SVT (paper §3 transparency);
* **steering** — HW SVt only: Table-2 invariants — SVt micro-registers
  name the booted context plan, every external interrupt landed on
  L0's context (paper §3.1), ctxt bursts neither faulted nor
  mis-read, and ``lvl`` resolution matches Table 2 restated;
* **drain** — no interrupt is still pending after the quiesce phase;
* **sanitizer** — the runtime ordering sanitizer stayed silent;
* **liveness** — no watchdog degradation and no deadlock.

Under an armed :class:`~repro.faults.plan.FaultPlan` only **crash** (minus
deadlocks, which the plan legitimises) stays armed, next to the
harness's **replay** check — fault draws are seeded, so even chaos must
replay identically.
"""

from dataclasses import dataclass

from repro.core.mode import ExecutionMode
from repro.exp.result import canonical_json


@dataclass(frozen=True)
class Violation:
    """One oracle's complaint about one case."""

    oracle: str
    detail: str
    mode: str = ""

    def to_dict(self):
        return {"oracle": self.oracle, "detail": self.detail,
                "mode": self.mode}

    def render(self):
        prefix = f"[{self.mode}] " if self.mode else ""
        return f"{self.oracle}: {prefix}{self.detail}"


def _check_crash(case, outcomes, out):
    faulted = case.fault_plan is not None
    for mode, outcome in sorted(outcomes.items()):
        if outcome.crash is not None:
            out.append(Violation("crash", outcome.crash, mode=str(mode)))
        if outcome.deadlock is not None and not faulted:
            out.append(Violation(
                "liveness", "deadlock outside an injected fault plan",
                mode=str(mode)))
        if outcome.degraded and not faulted:
            out.append(Violation(
                "liveness",
                "watchdog degradation outside an injected fault plan",
                mode=str(mode)))


def _check_mode_state(outcomes, out):
    baseline = outcomes[ExecutionMode.BASELINE]
    reference = canonical_json(baseline.mode_comparable())
    for mode in (ExecutionMode.SW_SVT, ExecutionMode.HW_SVT):
        candidate = outcomes[mode]
        if canonical_json(candidate.mode_comparable()) != reference:
            keys = _differing_keys(baseline.mode_comparable(),
                                   candidate.mode_comparable())
            out.append(Violation(
                "mode-state",
                f"{mode} diverged from baseline in {keys}",
                mode=str(mode)))


def _check_steering(outcomes, out):
    outcome = outcomes[ExecutionMode.HW_SVT]
    steering = outcome.steering
    hw = str(ExecutionMode.HW_SVT)
    if steering.get("redirect") != 0:
        out.append(Violation(
            "steering",
            f"external interrupts not redirected to L0's context "
            f"(redirect={steering.get('redirect')!r})",
            mode=hw))
    if steering.get("svt") != [0, 1, 2]:
        out.append(Violation(
            "steering",
            f"SVt micro-registers {steering.get('svt')} do not "
            "name the booted visor/vm/nested contexts [0, 1, 2]",
            mode=hw))
    for ctx, vector in outcome.deliveries:
        if ctx != 0:
            out.append(Violation(
                "steering",
                f"vector {vector:#x} delivered to context {ctx}, "
                "not L0's context 0",
                mode=hw))
            break
    if steering.get("ctxt_faults"):
        out.append(Violation(
            "steering",
            f"{steering['ctxt_faults']} ctxt burst(s) trapped "
            "on a machine whose SVt fields are all valid",
            mode=hw))
    if steering.get("ctxt_mismatches"):
        out.append(Violation(
            "steering",
            f"{steering['ctxt_mismatches']} ctxtld readback(s) "
            "returned a different value than the ctxtst stored",
            mode=hw))
    _check_table2(steering, out)


def _check_table2(steering, out):
    """Restate paper Table 2 and compare against what the harness saw
    ``resolve_target`` do under the core's final ``is_vm``."""
    svt = steering.get("svt") or [None, None, None]
    resolved = steering.get("resolve", {})
    if steering.get("is_vm"):
        expected = {"1": svt[2], "2": "fault"}
    else:
        expected = {"1": svt[1], "2": svt[2]}
    for lvl, want in sorted(expected.items()):
        got = resolved.get(lvl)
        matches = (isinstance(got, str) and got.startswith("fault")
                   if want == "fault" else got == want)
        if not matches:
            out.append(Violation(
                "steering",
                f"lvl={lvl} resolved to {got!r}, Table 2 says "
                f"{want!r}",
                mode=str(ExecutionMode.HW_SVT)))


def _check_drain(outcomes, out):
    for mode, outcome in sorted(outcomes.items()):
        leftover = sum(outcome.pending)
        if leftover:
            out.append(Violation(
                "drain",
                f"{leftover} interrupt(s) still pending "
                f"({outcome.pending}) after the quiesce phase",
                mode=str(mode)))


def _check_sanitizer(outcomes, out):
    for mode, outcome in sorted(outcomes.items()):
        if outcome.sanitizer_reports:
            out.append(Violation(
                "sanitizer",
                f"{len(outcome.sanitizer_reports)} conflicting "
                "unordered access(es); first: "
                + outcome.sanitizer_reports[0],
                mode=str(mode)))


def _differing_keys(left, right):
    keys = sorted(
        key for key in set(left) | set(right)
        if canonical_json({"v": left.get(key)})
        != canonical_json({"v": right.get(key)})
    )
    return ", ".join(keys) or "?"


def check_oracles(case, outcomes):
    """Judge three outcomes; returns the (possibly empty) violations."""
    out = []
    _check_crash(case, outcomes, out)
    if case.fault_plan is None:
        _check_mode_state(outcomes, out)
        _check_steering(outcomes, out)
        _check_drain(outcomes, out)
        _check_sanitizer(outcomes, out)
    return out
