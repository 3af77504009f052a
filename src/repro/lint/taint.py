"""SVT008 — determinism taint: entropy must not reach artifacts.

The runtime's byte-identity promise (docs/static-analysis.md) is a
*dataflow* property: it does not matter that wall-clock reads exist
in the tree (the serve tier times deadlines and request latency on
purpose) — it matters whether such a value can *flow into* anything
the runtime treats as reproducible output.  SVT001 flags the sources
per file; this rule follows the values through the whole program
(:mod:`repro.lint.dataflow`) and fires only at the sinks:

* **Result fields** — arguments of any ``*Result`` constructor;
* **cache fingerprints** — arguments of any ``*fingerprint*`` call
  and of ``store``/``key``/``put`` methods on cache-named receivers;
* **serialized artifacts** — arguments of ``canonical_json`` (every
  BENCH_serve/DSE/chaos artifact funnels through it).

Tainted: ``os.urandom``, ``time.*`` wall-clock reads, ``id()``,
environment reads, module-level ``random.*``, ``uuid``/``secrets``,
and set/dict-order-dependent materialization.  Clean: anything
derived from the seeded ``sim.rng`` (``DeterministicRng``), and
``sorted()`` launders set-order taint.  Returns-tainted summaries
propagate through precisely-resolved calls, so a helper that returns
``time.time()`` taints its callers.
"""

from __future__ import annotations

import ast

from repro.lint.dataflow import ProjectTaint, Taint
from repro.lint.engine import ProjectContext, ProjectRule
from repro.lint.graph import FunctionInfo, ProjectGraph, _terminal_name

#: Method names that write into a cache when the receiver is a cache.
CACHE_METHODS = frozenset({"store", "key", "put"})


def _sink_kind(node: ast.Call) -> str:
    """Classify a call as a sink; empty string when it is not one."""
    func = node.func
    name = ""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name.endswith("Result"):
        return "Result constructor"
    if "fingerprint" in name.lower():
        return "cache fingerprint"
    if name == "canonical_json":
        return "serialized artifact"
    if (isinstance(func, ast.Attribute) and name in CACHE_METHODS
            and "cache" in _terminal_name(func.value).lower()):
        return "cache entry"
    return ""


def _describe(taints: frozenset[Taint]) -> str:
    return ", ".join(f"{t.kind} (line {t.line})"
                     for t in sorted(taints))


class DeterminismTaintRule(ProjectRule):
    """SVT008: tainted values must not flow into Results or caches."""

    rule_id = "SVT008"
    title = "determinism taint"

    def check_project(self, graph: ProjectGraph,
                      ctx: ProjectContext) -> None:
        taint = ProjectTaint(graph)
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            self._check_function(info, taint, ctx)

    def _check_function(self, info: FunctionInfo, taint: ProjectTaint,
                        ctx: ProjectContext) -> None:
        def on_call(node: ast.Call,
                    arg_taints: list[frozenset[Taint]],
                    kw_taints: dict[str, frozenset[Taint]],
                    ) -> None:
            sink = _sink_kind(node)
            if not sink:
                return
            merged: set[Taint] = set()
            for taints in arg_taints:
                merged.update(taints)
            for taints in kw_taints.values():
                merged.update(taints)
            if not merged:
                return
            ctx.report(
                self, info.source, node,
                f"value tainted by {_describe(frozenset(merged))} "
                f"flows into a {sink} in '{info.name}'; derive it "
                "from declared parameters or sim.rng, or justify "
                "('# svtlint: disable=SVT008 — ...')",
            )

        taint.evaluate(info, on_call)
