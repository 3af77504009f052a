"""SVT009 — stale-suppression detection (meta-diagnostic).

A ``# svtlint: disable`` comment is a standing exception to an
invariant; once the code it excused is gone, the comment is a trap —
it silently swallows the *next* violation introduced on that line.
The engine records every suppression that actually silenced a finding
while the other rules run (:class:`~repro.lint.engine.LintContext`
suppressed hits, plus the project pass); any directive with no hit is
reported as stale.

Semantics worth knowing (see ``docs/static-analysis.md``):

* SVT009 findings are **not** themselves suppressible — opt out with
  ``repro lint --no-stale`` instead.  A suppressible stale check
  would be satisfiable by its own directive.
* An explicit directive (``disable=SVT005``) is only judged when
  every rule it names actually ran; a bare ``disable`` is only judged
  on a complete run (no ``--rules`` filter).  ``select_rules`` wires
  ``complete`` accordingly, so partial runs never mass-report stale.
* Justified SVT005 suppressions count as hits even though the rule
  returns early without reporting — it calls ``ctx.note_suppressed``
  for exactly this reason.
"""

from __future__ import annotations

from repro.lint.engine import Rule


class StaleSuppressionRule(Rule):
    """SVT009: disable directives that silence nothing are stale."""

    rule_id = "SVT009"
    title = "stale suppression"
    meta_stale = True

    #: ``False`` when the run used an explicit ``--rules`` filter —
    #: bare ``disable`` directives are skipped then, since any rule
    #: left out could be the one they suppress.
    complete = True
