"""The bench harness: document shape, regression compare, native count
gate, CLI."""

import json

import pytest

from repro.exp import bench
from repro.exp.result import canonical_json
from repro.workloads import native_queue


def _doc(wall_by_name, section="smoke"):
    return {
        "schema": bench.SCHEMA,
        "sections": {
            section: {
                "experiments": {
                    name: {"wall_s": wall}
                    for name, wall in wall_by_name.items()
                },
                "totals": {"wall_s": sum(wall_by_name.values())},
            },
        },
    }


# -- bench_section ---------------------------------------------------------


def test_bench_section_shape():
    section = bench.bench_section(["table1"], smoke=True, repeats=1)
    entry = section["experiments"]["table1"]
    assert entry["cells"] >= 1
    assert entry["wall_s"] > 0
    assert set(entry["cell_wall_s"]) and all(
        wall >= 0 for wall in entry["cell_wall_s"].values())
    assert set(entry["memo"]) == {"hits", "misses", "wipes", "entries"}
    assert section["totals"]["wall_s"] == entry["wall_s"]


def test_bench_section_records_native_calls():
    """fig8's entry counts one native replay per (mode, load point) per
    repeat; other experiments count none."""
    from repro.workloads import memcached

    section = bench.bench_section(["fig8", "table1"], smoke=True,
                                  repeats=2)
    fig8 = section["experiments"]["fig8"]
    want = fig8["cells"] * len(memcached.DEFAULT_LOADS_KQPS) * 2
    assert fig8["native"] == {"calls": want, "fallbacks": 0}
    assert section["experiments"]["table1"]["native"] == {
        "calls": 0, "fallbacks": 0}


def test_bench_document_is_json_serializable():
    doc = bench.bench_document(["table1"], sections=("smoke",),
                               repeats=1)
    assert doc["schema"] == bench.SCHEMA == "repro-bench/3"
    assert doc["native_status"] == native_queue.native_status()
    json.loads(canonical_json(doc))


# -- compare ---------------------------------------------------------------


def test_compare_flags_regressions_worst_first():
    baseline = _doc({"a": 1.0, "b": 1.0, "c": 1.0})
    current = _doc({"a": 1.5, "b": 1.1, "c": 2.0})
    regressions = bench.compare(current, baseline, threshold=0.25)
    assert [r["experiment"] for r in regressions] == ["c", "a"]
    assert regressions[0]["ratio"] == 2.0


def test_compare_respects_threshold():
    baseline = _doc({"a": 1.0})
    current = _doc({"a": 1.2})
    assert bench.compare(current, baseline, threshold=0.25) == []
    assert bench.compare(current, baseline, threshold=0.1)


def test_compare_ignores_new_and_missing_experiments():
    baseline = _doc({"a": 1.0, "gone": 1.0})
    current = _doc({"a": 1.0, "new": 50.0})
    assert bench.compare(current, baseline) == []


def test_compare_ignores_unknown_sections():
    baseline = _doc({"a": 1.0}, section="full")
    current = _doc({"a": 9.0}, section="smoke")
    assert bench.compare(current, baseline) == []


def test_render_summarises_walls_and_native_calls():
    section = {
        "experiments": {
            "fig8": {"cells": 2, "wall_s": 0.5, "events_per_s": 10,
                     "instructions_per_s": 1000,
                     "memo": {"hits": 3, "misses": 1, "wipes": 0},
                     "native": {"calls": 16, "fallbacks": 0}},
        },
        "totals": {"wall_s": 0.5},
    }
    text = bench.render({"native_status": "ok",
                         "sections": {"smoke": section}})
    assert "fig8" in text
    assert "0.5000" in text
    assert "total: 0.50s" in text
    assert "native 16 call(s), 0 fallback(s) [ok]" in text


# -- check_native_counts ---------------------------------------------------


def _native_doc(native_by_name, section="full", repeats=1, status="ok"):
    """A bench document; ``native_by_name`` maps experiment ->
    (calls, fallbacks)."""
    return {
        "schema": bench.SCHEMA,
        "repeats": repeats,
        "native_status": status,
        "sections": {
            section: {
                "experiments": {
                    name: {"cells": 2, "wall_s": 0.04,
                           "native": dict(zip(("calls", "fallbacks"),
                                              native))}
                    for name, native in native_by_name.items()
                },
                "totals": {"wall_s": 0.04},
            },
        },
    }


def test_check_native_counts_passes_every_load_point_native():
    doc = _native_doc({"fig8": (48, 0)}, repeats=3)
    assert bench.check_native_counts(doc) == []


def test_check_native_counts_flags_misses_with_the_tier_status():
    doc = _native_doc({"fig8": (28, 4)}, section="smoke", repeats=2,
                      status="no C compiler")
    misses = bench.check_native_counts(doc)
    assert [(m["section"], m["calls"], m["expected_calls"],
             m["fallbacks"], m["status"]) for m in misses] == [
        ("smoke", 28, 32, 4, "no C compiler")]
    # Too few calls fail even without a fallback.
    assert bench.check_native_counts(
        _native_doc({"fig8": (16, 0)}, repeats=2))
    # Other experiments never run the loop and are not gated.
    assert bench.check_native_counts(
        _native_doc({"table1": (0, 0)})) == []


# -- CLI -------------------------------------------------------------------


def test_cli_bench_writes_document_and_checks_baseline(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == bench.SCHEMA
    assert "table1" in doc["sections"]["smoke"]["experiments"]

    # A fresh run against that artifact as the baseline passes.
    # (Huge threshold: a repeats=1 milli-second cell under full-suite
    # load can jitter far past the default 25%; the flag is what is
    # under test here, not the machine's scheduler.)
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1",
                 "--baseline", str(out),
                 "--out", str(tmp_path / "again.json"),
                 "--threshold", "100", "--check"])
    assert code == 0

    # An absurdly slow baseline-relative run fails --check.  fig7's
    # 18 smoke cells take a couple hundred milliseconds — comfortably
    # above compare()'s noise floor and absolute regression slack,
    # unlike table1's single cell.
    code = main(["bench", "--smoke", "--experiments", "fig7",
                 "--repeats", "1", "--out", str(out)])
    assert code == 0
    slow = json.loads(out.read_text())
    entry = slow["sections"]["smoke"]["experiments"]["fig7"]
    entry["wall_s"] = entry["wall_s"] / 1000.0
    baseline_path = tmp_path / "tiny.json"
    baseline_path.write_text(json.dumps(slow))
    code = main(["bench", "--smoke", "--experiments", "fig7",
                 "--repeats", "1",
                 "--baseline", str(baseline_path),
                 "--out", str(out), "--check"])
    assert code == 1
    captured = capsys.readouterr()
    assert "regression" in (captured.err + captured.out).lower()


def test_compare_skips_sub_noise_floor_entries():
    baseline = _doc({"tiny": 0.0004, "big": 1.0})
    current = _doc({"tiny": 0.004, "big": 2.0})   # tiny "10x slower"
    regressions = bench.compare(current, baseline)
    assert [r["experiment"] for r in regressions] == ["big"]


def test_compare_requires_absolute_regression_delta():
    # 75% relative excursion on a tens-of-milliseconds cell is
    # scheduler jitter, not a regression: the absolute delta (30 ms)
    # sits under MIN_REGRESSION_DELTA_S.
    baseline = _doc({"jittery": 0.040, "big": 1.0})
    current = _doc({"jittery": 0.070, "big": 1.3})
    regressions = bench.compare(current, baseline)
    assert [r["experiment"] for r in regressions] == ["big"]


# -- --check needs a baseline it can compare against ------------------------


def _check(tmp_path, baseline, out=None):
    from repro.cli import main

    return main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--baseline", str(baseline),
                 "--out", str(out or tmp_path / "out.json"),
                 "--threshold", "100", "--check"])


def test_check_fails_on_a_missing_baseline(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert _check(tmp_path, missing) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "no such file" in err


def test_check_fails_on_a_corrupt_baseline(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"schema": "repro-bench/3", "sections"')
    assert _check(tmp_path, corrupt) == 2
    err = capsys.readouterr().err
    assert str(corrupt) in err and "not JSON" in err


def test_check_fails_on_a_baseline_of_another_schema(tmp_path, capsys):
    old = tmp_path / "v2.json"
    old.write_text(json.dumps({"schema": "repro-bench/2",
                               "sections": {}}))
    assert _check(tmp_path, old) == 2
    err = capsys.readouterr().err
    assert str(old) in err and "repro-bench/2" in err


def test_check_refuses_to_overwrite_its_baseline(tmp_path, capsys):
    baseline = tmp_path / "BENCH_sim.json"
    text = canonical_json(_doc({"table1": 1.0}))
    baseline.write_text(text)
    assert _check(tmp_path, baseline, out=baseline) == 2
    assert "is the baseline" in capsys.readouterr().err
    assert baseline.read_text() == text


@pytest.mark.parametrize("content", [None, "not json"])
def test_without_check_an_unusable_baseline_is_informational(
        tmp_path, capsys, content):
    from repro.cli import main

    baseline = tmp_path / "baseline.json"
    if content is not None:
        baseline.write_text(content)
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--baseline", str(baseline),
                 "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert "nothing to compare" in capsys.readouterr().err
