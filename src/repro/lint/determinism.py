"""SVT001 — nondeterminism in experiment/simulator/workload code.

The experiment runtime promises byte-identical output at any ``--jobs``
count and caches results under content-derived keys.  Both guarantees
die silently the moment a cell consults anything outside its declared
parameters: the process-global ``random`` module (its state depends on
what ran before in the process), wall-clock reads, environment
variables, CPython allocation addresses (``id()``), or set iteration
order (hash-seed dependent for str keys).

Flagged under ``repro.exp``, ``repro.fuzz``, ``repro.obs``,
``repro.sim`` and ``repro.workloads``:

* module-level ``random.*`` calls and ``from random import ...`` of
  anything but the seedable ``Random``/``SystemRandom`` classes — use a
  :class:`repro.sim.rng.DeterministicRng` seeded from cell params;
* wall-clock reads: ``time.time``/``time_ns``/``perf_counter``/
  ``monotonic``/``localtime``/``gmtime``/``ctime``, ``datetime.now``/
  ``utcnow``/``today``/``fromtimestamp`` (suppress the diagnostic uses
  that provably stay out of result documents);
* ``os.environ`` / ``os.getenv`` reads — results must be functions of
  declared parameters only;
* any ``id()`` call — allocation order leaks into output;
* iterating a set (``for``/comprehension) or materializing one in an
  order-sensitive consumer (``list``/``tuple``/``enumerate``/``iter``/
  ``reversed``/``str.join``) without ``sorted()``.
"""

from __future__ import annotations

import ast

from repro.lint.engine import LintContext, Rule, package_scoped
from repro.lint.source import SourceFile

PACKAGES = ("repro.exp", "repro.fuzz", "repro.obs", "repro.sim",
            "repro.workloads")

_RANDOM_ALLOWED = {"Random", "SystemRandom"}
_TIME_FORBIDDEN = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "localtime", "gmtime", "ctime",
    "asctime",
}
_DATETIME_FORBIDDEN = {"now", "utcnow", "today", "fromtimestamp"}
#: Consumers whose output depends on the order of the iterable.
_ORDER_SENSITIVE = {"list", "tuple", "enumerate", "iter", "reversed"}


def _is_unordered(node: ast.AST) -> bool:
    """Does this expression produce a set (iteration order unstable)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class DeterminismRule(Rule):
    """SVT001: no wall clock, global RNG, env or set-order in results."""

    rule_id = "SVT001"
    title = "nondeterminism"

    def applies(self, source: SourceFile) -> bool:
        return package_scoped(source, PACKAGES)

    # -- imports ---------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: LintContext) -> None:
        if node.module == "random":
            bad = [alias.name for alias in node.names
                   if alias.name not in _RANDOM_ALLOWED]
            if bad:
                ctx.report(self, node,
                           f"importing {', '.join(bad)} from the "
                           "process-global random module; use a seeded "
                           "repro.sim.rng.DeterministicRng")
        elif node.module == "os":
            bad = [alias.name for alias in node.names
                   if alias.name in ("environ", "getenv", "getenvb")]
            if bad:
                ctx.report(self, node,
                           f"importing {', '.join(bad)}: environment "
                           "reads make results depend on ambient state")
        elif node.module == "time":
            bad = [alias.name for alias in node.names
                   if alias.name in _TIME_FORBIDDEN]
            if bad:
                ctx.report(self, node,
                           f"importing {', '.join(bad)}: wall-clock "
                           "reads are nondeterministic")

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                ctx.report(self, node,
                           "id() exposes CPython allocation order; key "
                           "by a stable identifier instead")
            elif (func.id in _ORDER_SENSITIVE and node.args
                    and _is_unordered(node.args[0])):
                ctx.report(self, node,
                           f"{func.id}() over a set depends on hash "
                           "order; wrap the set in sorted()")
            return
        if not isinstance(func, ast.Attribute):
            return
        if (func.attr == "join" and node.args
                and _is_unordered(node.args[0])):
            ctx.report(self, node,
                       "join() over a set depends on hash order; wrap "
                       "the set in sorted()")
        base = func.value
        if not isinstance(base, ast.Name):
            # datetime.datetime.now(...) — one level deeper.
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "datetime"
                    and func.attr in _DATETIME_FORBIDDEN):
                ctx.report(self, node,
                           f"datetime.{base.attr}.{func.attr}() is a "
                           "wall-clock read")
            return
        if base.id == "random" and func.attr not in _RANDOM_ALLOWED:
            ctx.report(self, node,
                       f"unseeded module-level random.{func.attr}(); "
                       "use a seeded repro.sim.rng.DeterministicRng")
        elif base.id == "time" and func.attr in _TIME_FORBIDDEN:
            ctx.report(self, node,
                       f"time.{func.attr}() is a wall-clock read; "
                       "results must not depend on it")
        elif (base.id in ("datetime", "date")
                and func.attr in _DATETIME_FORBIDDEN):
            ctx.report(self, node,
                       f"{base.id}.{func.attr}() is a wall-clock read")
        elif base.id == "os" and func.attr in ("getenv", "getenvb"):
            ctx.report(self, node,
                       f"os.{func.attr}() reads ambient environment "
                       "state")

    # -- attribute reads -------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute,
                        ctx: LintContext) -> None:
        if (isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr == "environ"):
            ctx.report(self, node,
                       "os.environ reads ambient environment state")

    # -- set iteration ---------------------------------------------------

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        if _is_unordered(node.iter):
            ctx.report(self, node.iter,
                       "iterating a set depends on hash order; use "
                       "sorted()")

    def visit_comprehension(self, node: ast.comprehension,
                            ctx: LintContext) -> None:
        if _is_unordered(node.iter):
            ctx.report(self, node.iter,
                       "comprehension over a set depends on hash "
                       "order; use sorted()")
