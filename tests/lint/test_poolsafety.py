"""SVT003: fork safety of experiment cells."""

import textwrap

from repro.lint.poolsafety import PoolSafetyRule

from tests.lint.helpers import hits, lint_text


def check(text, module="repro.exp.experiments.sample"):
    return lint_text(textwrap.dedent(text), module, PoolSafetyRule())


def test_global_declaration_flagged():
    findings = check("""
        COUNT = 0

        def bump():
            global COUNT
            COUNT += 1
    """)
    assert hits(findings) == [("SVT003", 5)]
    assert "COUNT" in findings[0].message


def test_cell_method_mutating_module_dict_flagged():
    findings = check("""
        CACHE = {}

        class Exp:
            def run_cell(self, cell, params):
                CACHE[cell] = 1
                CACHE.update({"a": 2})
                CACHE.setdefault("b", []).append(3)
                return cell
    """)
    assert [h for h in hits(findings)] == [
        ("SVT003", 6), ("SVT003", 7), ("SVT003", 8),
    ]


def test_local_state_in_cell_method_allowed():
    assert check("""
        class Exp:
            def run_cell(self, cell, params):
                scratch = {}
                scratch[cell] = 1
                scratch.update({"a": 2})
                self.last = cell
                return scratch
    """) == []


def test_mutation_outside_cell_path_allowed():
    assert check("""
        REGISTRY = {}

        def register(cls):
            REGISTRY[cls.name] = cls()
            return cls
    """) == []


def test_worker_entry_point_checked():
    findings = check("""
        SEEN = {}

        def _execute_cell(name, cell, params):
            SEEN[name] = cell
            return name
    """)
    assert hits(findings) == [("SVT003", 5)]


def test_lambda_in_cell_functions_flagged():
    findings = check("""
        class Exp:
            def cells(self, params):
                return (lambda: "a",)

            def run_cell(self, cell, params):
                thunk = lambda: cell
                return thunk

            def merge(self, params, payloads):
                key = lambda pair: pair[0]
                return sorted(payloads.items(), key=key)
    """)
    assert hits(findings) == [("SVT003", 4), ("SVT003", 7)]


def test_scope_limited_to_exp_package():
    bad = "STATE = {}\n\ndef bump():\n    global STATE\n"
    assert check(bad, module="repro.sim.engine") == []
    assert check(bad, module="repro.exp.runner") != []
