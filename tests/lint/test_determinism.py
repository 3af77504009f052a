"""SVT001: nondeterminism detection."""

import textwrap

from repro.lint.determinism import DeterminismRule

from tests.lint.helpers import hits, lint_text


def check(text, module="repro.exp.sample"):
    return lint_text(textwrap.dedent(text), module, DeterminismRule())


def test_unseeded_module_random_flagged():
    findings = check("""
        import random
        x = random.random()
        y = random.randint(0, 9)
        random.seed(1)
    """)
    assert hits(findings) == [("SVT001", 3), ("SVT001", 4),
                              ("SVT001", 5)]
    assert "DeterministicRng" in findings[0].message


def test_seeded_random_instance_allowed():
    assert check("""
        import random
        rng = random.Random(7)
        value = rng.random()
    """) == []


def test_from_random_import_flagged_except_classes():
    findings = check("""
        from random import randint
        from random import Random
    """)
    assert hits(findings) == [("SVT001", 2)]


def test_wall_clock_reads_flagged():
    findings = check("""
        import time
        from datetime import datetime
        a = time.time()
        b = time.perf_counter()
        c = datetime.now()
        d = datetime.utcnow()
    """)
    assert hits(findings) == [("SVT001", 4), ("SVT001", 5),
                              ("SVT001", 6), ("SVT001", 7)]


def test_datetime_module_chain_flagged():
    findings = check("""
        import datetime
        stamp = datetime.datetime.now()
        day = datetime.date.today()
    """)
    assert hits(findings) == [("SVT001", 3), ("SVT001", 4)]


def test_environment_reads_flagged():
    findings = check("""
        import os
        a = os.environ["HOME"]
        b = os.getenv("HOME")
    """)
    assert hits(findings) == [("SVT001", 3), ("SVT001", 4)]


def test_id_call_flagged():
    findings = check("key = id(object())\n")
    assert hits(findings) == [("SVT001", 1)]


def test_set_iteration_flagged_sorted_allowed():
    findings = check("""
        items = {3, 1, 2}
        for item in items | {4}:
            pass
        listed = list({1, 2})
        cells = [c for c in {"a", "b"}]
        joined = ",".join({"x", "y"})
        ordered = sorted({1, 2})
        total = len({1, 2})
    """)
    assert hits(findings) == [("SVT001", 5), ("SVT001", 6),
                              ("SVT001", 7)]


def test_direct_set_literal_iteration_flagged():
    findings = check("""
        for item in {1, 2}:
            pass
        for item in set(range(3)):
            pass
    """)
    assert hits(findings) == [("SVT001", 2), ("SVT001", 4)]


def test_scope_limited_to_declared_packages():
    bad = "x = __import__('random').random()\nimport random\n" \
          "y = random.random()\n"
    assert check(bad, module="repro.virt.vmcs") == []
    assert check(bad, module="repro.workloads.sample") != []
    assert check(bad, module="repro.sim.sample") != []
    assert check(bad, module="other.package") == []
