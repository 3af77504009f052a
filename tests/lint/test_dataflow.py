"""Taint dataflow: sources, laundering, summaries, container stores."""

from pathlib import Path

from repro.lint.dataflow import SET_ORDER, ProjectTaint
from repro.lint.graph import ProjectGraph
from repro.lint.source import SourceFile


def taints_of(text, function, module="repro.exp.demo"):
    """Evaluate one module; returns (return-taint-kinds, call-sites).

    ``call-sites`` is a list of ``(line, kinds)`` for every Call node
    the evaluator visited with at least one tainted argument.
    """
    source = SourceFile(Path("<taint>.py"), text=text, module=module)
    graph = ProjectGraph([source])
    taint = ProjectTaint(graph)
    sites = []

    def on_call(node, arg_taints, kw_taints):
        merged = frozenset().union(
            *arg_taints, *kw_taints.values()) \
            if (arg_taints or kw_taints) else frozenset()
        if merged:
            sites.append((node.lineno, {t.kind for t in merged}))

    qualname = f"{module}.{function}"
    taint.evaluate(graph.functions[qualname], on_call)
    return set(taint.summaries.get(qualname, frozenset())), sites


def test_wall_clock_taints_returns():
    kinds, _ = taints_of(
        "import time\n"
        "def f():\n"
        "    return time.time()\n", "f")
    assert any("time" in kind for kind in kinds)


def test_environment_reads_taint():
    kinds, _ = taints_of(
        "import os\n"
        "def f():\n"
        "    return os.environ['HOME']\n", "f")
    assert any("environ" in kind for kind in kinds)


def test_rng_receivers_are_laundered():
    kinds, _ = taints_of(
        "def f(machine):\n"
        "    return machine.rng.random()\n", "f")
    assert kinds == set()


def test_sorted_clears_set_order():
    kinds, _ = taints_of(
        "def f(entries):\n"
        "    return sorted(set(entries))\n", "f")
    assert SET_ORDER not in kinds


def test_list_of_set_carries_set_order():
    kinds, _ = taints_of(
        "def f(entries):\n"
        "    return list(set(entries))\n", "f")
    assert SET_ORDER in kinds


def test_summaries_propagate_across_precise_calls():
    kinds, _ = taints_of(
        "import time\n"
        "def source():\n"
        "    return time.time()\n"
        "def f():\n"
        "    return source()\n", "f")
    assert any("time" in kind for kind in kinds)


def test_subscript_store_taints_the_container():
    kinds, sites = taints_of(
        "import os\n"
        "def f(doc):\n"
        "    doc['host'] = os.environ['HOST']\n"
        "    return emit(doc)\n", "f")
    assert any("environ" in kind
               for _, ks in sites for kind in ks)


def test_untainted_code_stays_clean():
    kinds, sites = taints_of(
        "def f(params):\n"
        "    value = params['seed'] * 2\n"
        "    return value\n", "f")
    assert kinds == set()
    assert sites == []
