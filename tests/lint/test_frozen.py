"""SVT004: frozen-result mutation."""

import textwrap

from repro.lint.frozen import FrozenResultRule

from tests.lint.helpers import hits, lint_text


def check(text, module="repro.analysis.sample"):
    return lint_text(textwrap.dedent(text), module, FrozenResultRule())


def test_object_setattr_outside_constructor_flagged():
    findings = check("""
        def patch(result):
            object.__setattr__(result, "notes", ())
    """)
    assert hits(findings) == [("SVT004", 3)]
    assert "dataclasses.replace" in findings[0].message


def test_builtin_setattr_outside_constructor_flagged():
    findings = check("""
        def patch(result):
            setattr(result, "notes", ())
    """)
    assert hits(findings) == [("SVT004", 3)]


def test_object_setattr_in_constructors_allowed():
    assert check("""
        class Row:
            def __post_init__(self):
                object.__setattr__(self, "values", ())

            def __init__(self):
                object.__setattr__(self, "label", "")
    """) == []


def test_tracked_result_binding_mutation_flagged():
    findings = check("""
        from repro.exp.result import Result

        def build(experiment, params, payloads):
            outcome = Result.create("fig6")
            outcome.notes = ("late",)
            merged = experiment.merge(params, payloads)
            merged.tables = ()
            return outcome, merged
    """)
    assert hits(findings) == [("SVT004", 6), ("SVT004", 8)]


def test_mutation_through_result_attribute_flagged():
    findings = check("""
        def late_edit(run):
            run.result.notes = ("oops",)
    """)
    assert hits(findings) == [("SVT004", 3)]


def test_unrelated_attribute_assignment_allowed():
    assert check("""
        class Machine:
            def boot(self):
                self.ready = True

        def tune(config):
            config.depth = 3
            return config
    """) == []


def test_scope_covers_whole_repro_tree():
    bad = "def f(r):\n    setattr(r, 'x', 1)\n"
    assert check(bad, module="repro.virt.vmcs") != []
    assert check(bad, module="elsewhere.mod") == []
