"""Documentation <-> code consistency.

DESIGN.md's module map must reference files that actually exist, and
DESIGN.md's per-experiment index and EXPERIMENTS.md must name every
registered experiment and cite only experiments, ``results/`` files
and claim tests that exist.  Every backticked repo path and
``repro.…`` dotted name in the user-facing docs must exist too, as
must every ``repro`` name the CI workflows import,
docs/static-analysis.md documents each shipped lint rule exactly once,
and ``make clean`` removes every directory .gitignore lists; nothing
rots silently.  Two design rules are checked on the source itself:
only ``repro.sim`` charges the simulator's clock, and no package
``__init__`` re-exports a name.
"""

import ast
import glob
import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.exp import claims, registry
from repro.lint.cli import DEFAULT_RULES

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
DESIGN = (REPO_ROOT / "DESIGN.md").read_text()
EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text()
SRC = Path(repro.__file__).resolve().parent


def test_design_module_map_files_exist():
    # Lines like "  core/switch.py       description"
    referenced = re.findall(r"^\s{2}([a-z_/]+\.py)\s", DESIGN,
                            flags=re.MULTILINE)
    assert len(referenced) > 30
    for path in referenced:
        assert (SRC / path).exists(), f"DESIGN.md references missing {path}"


def _cited_experiments(text):
    """Experiment names a document cites as `repro <name>`."""
    return set(re.findall(r"`repro ([a-z0-9_]+)`", text))


def _cited_results(text):
    return set(re.findall(r"`(results/[a-z0-9_]+\.txt)`", text))


def test_design_experiment_targets_exist():
    cited = _cited_experiments(DESIGN)
    assert len(cited) >= 15
    assert cited <= set(registry.names()), sorted(
        cited - set(registry.names()))
    for path in _cited_results(DESIGN):
        assert (REPO_ROOT / path).exists(), path


def test_experiments_md_targets_exist():
    cited = _cited_experiments(EXPERIMENTS)
    assert cited <= set(registry.names()), sorted(
        cited - set(registry.names()))
    for path in _cited_results(EXPERIMENTS):
        assert (REPO_ROOT / path).exists(), path
    claims = (REPO_ROOT / "tests" / "test_paper_claims.py").read_text()
    for name in set(re.findall(r"`(test_[a-z0-9_]+)`", EXPERIMENTS)):
        assert f"def {name}(" in claims, name


def test_every_experiment_is_indexed_in_design():
    missing = set(registry.names()) - _cited_experiments(DESIGN)
    assert not missing, f"not indexed in DESIGN.md: {sorted(missing)}"


def test_every_experiment_is_documented_in_experiments_md():
    missing = set(registry.names()) - _cited_experiments(EXPERIMENTS)
    assert not missing, f"not documented in EXPERIMENTS.md: {sorted(missing)}"


def test_readme_examples_exist():
    readme = (REPO_ROOT / "README.md").read_text()
    examples = set(re.findall(r"`examples/([a-z0-9_]+\.py)`", readme))
    assert len(examples) >= 3
    for name in examples:
        assert (REPO_ROOT / "examples" / name).exists(), name


def test_paper_anchor_numbers_present_in_design():
    # The lazy-switch cost anchors must be stated (and therefore
    # auditable); the paper numbers they derive from are checked against
    # their claims below.
    for anchor in ("2070", "840"):
        assert anchor in DESIGN


#: Where the docs restate a paper number outside EXPERIMENTS.md: (file,
#: pattern whose one group is the number, its claim, the doc's unit as a
#: multiple of the claim's).  Every pattern must match at least once.
DOC_NUMBERS = (
    ("README.md", r"# ([\d.]+) — the paper's Table 1 total",
     ("table1", "total_us"), 1000),
    ("README.md", r"the paper's ([\d.]+)x speedup",
     ("fig6", "hw_speedup"), 1),
    ("README.md", r"exactly\*\* \(([\d.]+) µs baseline",
     ("table1", "total_us"), 1),
    ("README.md", r"([\d.]+)× SW, [\d.]+× HW", ("fig6", "sw_speedup"), 1),
    ("README.md", r"[\d.]+× SW, ([\d.]+)× HW", ("fig6", "hw_speedup"), 1),
    ("DESIGN.md", r"Table 1, total ([\d.]+) µs", ("table1", "total_us"), 1),
    ("DESIGN.md", r"\(([\d.]+) µs nested `cpuid`", ("table1", "total_us"),
     1),
    ("DESIGN.md", r"nested `cpuid` = ([\d.]+) µs \(Table 1\)",
     ("table1", "total_us"), 1),
    ("DESIGN.md", r"paper Fig\. 6: ([\d.]+)×", ("fig6", "hw_speedup"), 1),
    ("DESIGN.md", r"\(or ([\d.]+)×\)", ("sec61", "mwait_speedup"), 1),
    ("docs/calibration.md", r"\*\*HW SVt = ([\d.]+)×\*\*",
     ("fig6", "hw_speedup"), 1),
    ("docs/calibration.md", r"\*\*SW SVt = ([\d.]+)×\*\*",
     ("fig6", "sw_speedup"), 1),
    ("docs/observability.md", r"breaks a ([\d.]+) µs nested `cpuid`",
     ("table1", "total_us"), 1),
    ("docs/observability.md", r"match Table 1's ([\d.]+) µs exactly",
     ("table1", "total_us"), 1),
)


def _table1_anchor_rows(text):
    """``[(claim key, paper µs)]`` from a markdown table whose rows name
    a Table-1 part by its circled digit (or the total in bold)."""
    keys = dict(zip("⓪①②③④⑤",
                    [key for _label, key, *_ in claims.TABLE1_PARTS]))
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not line.startswith("|"):
            continue
        numbers = [re.fullmatch(r"\**([\d.]+) µs\**", cell)
                   for cell in cells]
        numbers = [match[1] for match in numbers if match]
        if not numbers:
            continue
        if cells[0][:1] in keys:
            rows.append((keys[cells[0][:1]], float(numbers[0])))
        elif any(cell.strip("*") == "total" for cell in cells):
            rows.append(("total_us", float(numbers[0])))
    return rows


@pytest.mark.parametrize("doc", ["DESIGN.md", "docs/calibration.md"])
def test_table1_calibration_tables_state_the_claims(doc):
    rows = _table1_anchor_rows((REPO_ROOT / doc).read_text())
    parts = [key for _label, key, *_ in claims.TABLE1_PARTS]
    assert sorted(key for key, _ in rows if key != "total_us") \
        == sorted(parts)
    for key, us in rows:
        assert us == claims.paper_value("table1", key), (doc, key)


def test_docs_restate_paper_numbers_as_their_claims():
    for doc, pattern, (experiment, key), unit in DOC_NUMBERS:
        found = re.findall(pattern, (REPO_ROOT / doc).read_text())
        assert found, (doc, pattern)
        for number in found:
            assert float(number) == pytest.approx(
                claims.paper_value(experiment, key) * unit, abs=1e-9), \
                (doc, number, f"{experiment}:{key}")


def test_design_declares_paper_match():
    assert "matches" in DESIGN.splitlines()[7].lower() or \
        "matches" in DESIGN[:800].lower()


def _names_a_simulator(node):
    """Whether an attribute chain has a part containing ``sim``:
    ``sim``, ``self._sim``, ``self.machine.sim``, ``simulator``."""
    while isinstance(node, ast.Attribute):
        if "sim" in node.attr.lower():
            return True
        node = node.value
    return isinstance(node, ast.Name) and "sim" in node.id.lower()


def _clock_calls(tree):
    """Lines of every ``<simulator>.charge(...)`` or ``.advance(...)``
    call in ``tree``, in a loop or not."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("charge", "advance")
            and _names_a_simulator(node.func.value)]


@pytest.mark.parametrize("call, flagged", [
    ("sim.advance(1)", True),
    ("self._sim.advance(1)", True),
    ("self.machine.sim.charge(1)", True),
    ("simulator.advance(1)", True),
    ("self.tracer.charge(1, category)", False),
    ("cursor.advance(1)", False),
])
def test_clock_check_names_any_simulator_receiver(call, flagged):
    loop = f"for _ in range(3):\n    {call}\n"
    assert _clock_calls(ast.parse(loop)) == ([2] if flagged else [])


def test_only_repro_sim_charges_the_clock():
    # Everything else charges through Tracer.charge, which books the
    # same nanoseconds to a category: the clock and the ledger cannot
    # disagree.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "sim":
            continue
        tree = ast.parse(path.read_text(), str(path))
        offenders += [f"src/repro/{relative.as_posix()}:{line}"
                      for line in _clock_calls(tree)]
    assert not offenders, (
        "charge time via tracer.charge(ns, category), not the "
        "simulator: " + ", ".join(offenders))


#: Package inits that hold code: the cost-model registry is the
#: ``repro.cpu.costmodels`` package itself, and the imports of
#: ``repro.exp.experiments`` register the bundled experiments.
INITS_WITH_CODE = ("cpu/costmodels/__init__.py",
                   "exp/experiments/__init__.py")


def _is_version(node):
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__version__")


def test_package_inits_hold_only_their_docstrings():
    # One home per name: a name is imported from the module that
    # defines it, so importing one module loads only what it needs.
    offenders = []
    for path in sorted(SRC.rglob("__init__.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in INITS_WITH_CODE:
            continue
        tree = ast.parse(path.read_text(), str(path))
        body = tree.body[1:] if ast.get_docstring(tree) else tree.body
        if relative == "__init__.py":
            body = [node for node in body if not _is_version(node)]
        offenders += [f"src/repro/{relative}:{node.lineno}"
                      for node in body]
    assert not offenders, (
        "import a name from the module that defines it; a package "
        "__init__ holds only its docstring: " + ", ".join(offenders))


def test_static_analysis_doc_has_one_section_per_rule():
    # A retired rule's section cannot outlive it, and a new rule
    # cannot ship undocumented.  SVT000 is the parse failure.
    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    sections = re.findall(r"^### (SVT\d{3})\b", doc, flags=re.MULTILINE)
    assert sorted(sections) == sorted(
        ["SVT000"] + [rule.rule_id for rule in DEFAULT_RULES])


def test_make_clean_removes_every_ignored_directory():
    recipe = (REPO_ROOT / "Makefile").read_text().split("\nclean:\n")[1]
    ignored = [line.rstrip("/")
               for line in (REPO_ROOT / ".gitignore").read_text().split()
               if line.endswith("/")]
    assert len(ignored) > 5
    missing = [name for name in ignored if name not in recipe]
    assert not missing, f"make clean leaves {missing} behind"


#: Documents whose backticked citations must resolve.  ROADMAP.md is
#: exempt: it names planned files.
CITING_DOCS = sorted(
    [REPO_ROOT / name for name in ("README.md", "DESIGN.md",
                                   "EXPERIMENTS.md")]
    + list((REPO_ROOT / "docs").glob("*.md"))
    + [REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)

REPO_PATH_PREFIXES = ("tests/", "src/", "docs/", "examples/", "results/")


def _backticked(doc):
    return re.findall(r"`([^`\n]+)`", doc.read_text())


def _resolves(dotted):
    """Whether ``repro.a.b.c`` names a module or an attribute chain."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("doc", CITING_DOCS,
                         ids=lambda doc: str(doc.relative_to(REPO_ROOT)))
def test_doc_citations_exist(doc):
    missing = []
    for span in _backticked(doc):
        if "<" in span:
            continue                        # a placeholder, e.g. <name>
        if span.startswith(REPO_PATH_PREFIXES):
            path = span.split()[0].split("::")[0]
            found = (glob.glob(str(REPO_ROOT / path), recursive=True)
                     if "*" in path else (REPO_ROOT / path).exists())
            if not found:
                missing.append(path)
        elif span.startswith("repro."):
            name = span.split("(")[0]
            if not _resolves(name):
                missing.append(name)
    assert not missing, f"{doc.name} cites missing names: {missing}"


WORKFLOWS = sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml"))


def test_workflow_imports_resolve():
    # The CI jobs' inline Python runs only on CI; an import of a moved
    # name would break a job that tier-1 never runs.
    assert WORKFLOWS
    missing = []
    for workflow in WORKFLOWS:
        for module, names in re.findall(
                r"^\s*from (repro[\w.]*) import ([\w, ]+)$",
                workflow.read_text(), flags=re.MULTILINE):
            missing += [f"{workflow.name}: {module}.{name.strip()}"
                        for name in names.split(",")
                        if not _resolves(f"{module}.{name.strip()}")]
    assert not missing, f"CI imports missing names: {missing}"
