"""ProjectGraph: symbol table, imports, call graph, reachability."""

from pathlib import Path

from repro.lint.graph import ProjectGraph
from repro.lint.source import SourceFile


def graph_of(**modules):
    """Build a graph from ``module_name=source_text`` pairs."""
    sources = [
        SourceFile(Path(f"<{name}>.py"), text=text, module=name)
        for name, text in modules.items()
    ]
    return ProjectGraph(sources)


def test_functions_classes_and_methods_are_collected():
    graph = graph_of(**{"repro.demo": (
        "class Ring:\n"
        "    def push(self, item):\n"
        "        self.items = [item]\n"
        "\n"
        "def helper():\n"
        "    pass\n"
    )})
    assert "repro.demo.Ring" in graph.classes
    assert "repro.demo.Ring.push" in graph.functions
    assert "repro.demo.helper" in graph.functions
    info = graph.functions["repro.demo.Ring.push"]
    assert info.cls == "repro.demo.Ring"
    assert info.name == "push"


def test_self_writes_become_fields_and_mutators():
    graph = graph_of(**{"repro.demo": (
        "class Ring:\n"
        "    limit: int = 8\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "    def peek(self):\n"
        "        return self.count\n"
    )})
    ring = graph.classes["repro.demo.Ring"]
    assert "count" in ring.fields
    assert "limit" in ring.fields          # annotated class attr
    assert "bump" in ring.mutators
    assert "__init__" in ring.mutators
    assert "peek" not in ring.mutators


def test_bare_name_and_imported_calls_resolve():
    graph = graph_of(**{
        "repro.a": (
            "def worker():\n"
            "    pass\n"
            "\n"
            "def driver():\n"
            "    worker()\n"
        ),
        "repro.b": (
            "from repro import a\n"
            "\n"
            "def outside():\n"
            "    a.driver()\n"
        ),
    })
    assert "repro.a.worker" in graph.calls["repro.a.driver"]
    assert "repro.a.driver" in graph.calls["repro.b.outside"]


def test_self_method_calls_resolve_within_class():
    graph = graph_of(**{"repro.demo": (
        "class Core:\n"
        "    def outer(self):\n"
        "        self.inner()\n"
        "    def inner(self):\n"
        "        pass\n"
    )})
    assert "repro.demo.Core.inner" in graph.calls["repro.demo.Core.outer"]


def test_callback_references_create_edges():
    graph = graph_of(**{"repro.demo": (
        "def callback():\n"
        "    pass\n"
        "\n"
        "def scheduler(sim):\n"
        "    sim.after(10, callback)\n"
    )})
    assert "repro.demo.callback" in graph.calls["repro.demo.scheduler"]


def test_reachability_is_transitive():
    graph = graph_of(**{"repro.demo": (
        "def a():\n"
        "    b()\n"
        "def b():\n"
        "    c()\n"
        "def c():\n"
        "    pass\n"
        "def island():\n"
        "    pass\n"
    )})
    reach = graph.reachable_from(["repro.demo.a"])
    assert {"repro.demo.a", "repro.demo.b", "repro.demo.c"} <= reach
    assert "repro.demo.island" not in reach


def test_context_labels_union_over_roots():
    graph = graph_of(**{
        "repro.virt.h": (
            "def handle():\n"
            "    shared()\n"
            "def shared():\n"
            "    pass\n"
        ),
        "repro.io.dev": (
            "from repro.virt import h\n"
            "def complete():\n"
            "    h.shared()\n"
        ),
    })
    labels = graph.context_labels({
        "hypervisor": ("repro.virt",),
        "device": ("repro.io",),
    })
    assert labels["repro.virt.h.shared"] == {"hypervisor", "device"}
    assert labels["repro.virt.h.handle"] == {"hypervisor"}
