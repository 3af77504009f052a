"""The bench harness: document shape, regression compare, floors,
native count gate, CLI."""

import json

from repro.exp import bench
from repro.exp.result import canonical_json
from repro.sim import kernel as simkernel
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
    section = bench.bench_section(
        ["table1"], smoke=True, repeats=1,
        kernels=(simkernel.SEGMENT, simkernel.LEGACY))
    entry = section["experiments"]["table1"]
    assert entry["cells"] >= 1
    segment = entry["kernels"][simkernel.SEGMENT]
    legacy = entry["kernels"][simkernel.LEGACY]
    assert segment["wall_s"] > 0
    assert set(segment["cell_wall_s"]) and all(
        wall >= 0 for wall in segment["cell_wall_s"].values())
    assert set(segment["memo"]) == {"hits", "misses", "wipes",
                                    "entries"}
    assert legacy["wall_s"] > 0
    assert entry["speedup"] > 0
    assert set(entry["cell_speedup"]) == set(segment["cell_wall_s"])
    assert section["totals"]["wall_s"][simkernel.SEGMENT] > 0
    assert section["totals"]["speedup"] > 0


def test_bench_section_without_legacy_column():
    section = bench.bench_section(["table1"], smoke=True, repeats=1,
                                  kernels=(simkernel.SEGMENT,))
    entry = section["experiments"]["table1"]
    assert list(entry["kernels"]) == [simkernel.SEGMENT]
    assert "speedup" not in entry
    assert "speedup" not in section["totals"]


def test_bench_section_records_native_calls():
    """Every kernel's fig8 entry counts one native replay per (mode,
    load point) per repeat; other experiments count none."""
    from repro.workloads import memcached

    section = bench.bench_section(["fig8", "table1"], smoke=True,
                                  repeats=2)
    fig8 = section["experiments"]["fig8"]
    assert set(fig8["kernels"]) == set(simkernel.KERNELS)
    want = fig8["cells"] * len(memcached.DEFAULT_LOADS_KQPS) * 2
    for timing in fig8["kernels"].values():
        assert timing["native"] == {"calls": want, "fallbacks": 0}
    for timing in section["experiments"]["table1"]["kernels"].values():
        assert timing["native"] == {"calls": 0, "fallbacks": 0}


def test_bench_document_is_json_serializable():
    doc = bench.bench_document(["table1"], sections=("smoke",),
                               repeats=1, legacy=False)
    assert doc["schema"] == bench.SCHEMA
    assert doc["kernel_version"]
    assert doc["kernels"] == [simkernel.SEGMENT]
    assert doc["native_status"] == native_queue.native_status()
    json.loads(canonical_json(doc))


def test_bench_document_kernel_subset():
    doc = bench.bench_document(["table1"], sections=("smoke",),
                               repeats=1,
                               kernels=(simkernel.LEGACY,))
    assert doc["kernels"] == [simkernel.LEGACY]
    entry = doc["sections"]["smoke"]["experiments"]["table1"]
    assert list(entry["kernels"]) == [simkernel.LEGACY]
    assert "speedup" not in entry


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


def test_render_mentions_speedups():
    section = {
        "experiments": {
            "fig8": {
                "cells": 2,
                "kernels": {
                    "segment": {"wall_s": 0.5, "events_per_s": 10,
                                "instructions_per_s": 1000,
                                "memo": {"hits": 3, "misses": 1,
                                         "wipes": 0},
                                "native": {"calls": 16,
                                           "fallbacks": 0}},
                    "legacy": {"wall_s": 1.5},
                },
                "speedup": 3.0,
            },
        },
        "totals": {"wall_s": {"segment": 0.5, "legacy": 1.5},
                   "speedup": 3.0},
    }
    text = bench.render({"native_status": "ok",
                         "sections": {"smoke": section}})
    assert "fig8" in text
    assert "3.00x" in text
    assert "speedup 3.00x" in text
    assert "native 16 call(s), 0 fallback(s) [ok]" in text


# -- check_floors ----------------------------------------------------------


def _kernel_doc(walls_by_name, section="full", native=None,
                repeats=1, status="ok"):
    """A bench document; ``native`` maps kernel -> (calls, fallbacks)
    for every entry."""
    native = native or {}
    return {
        "schema": bench.SCHEMA,
        "repeats": repeats,
        "native_status": status,
        "sections": {
            section: {
                "experiments": {
                    name: {"cells": 2, "kernels": {
                        kernel: {"wall_s": wall, "native": dict(zip(
                            ("calls", "fallbacks"),
                            native.get(kernel, (0, 0))))}
                        for kernel, wall in walls.items()
                    }}
                    for name, walls in walls_by_name.items()
                },
                "totals": {"wall_s": {}},
            },
        },
    }


def test_check_floors_passes_a_healthy_document():
    doc = _kernel_doc({
        "fig8": {"segment": 0.04, "legacy": 0.04},
        "table1": {"segment": 0.01, "legacy": 0.012},
    })
    assert bench.check_floors(doc) == []


def test_check_floors_flags_segment_losing_to_legacy():
    doc = _kernel_doc({
        "ablation_hw_model": {"segment": 0.5, "legacy": 0.3},
    })
    bars = [f["bar"] for f in bench.check_floors(doc)]
    assert "speedup" in bars


def test_check_floors_tolerates_noise_floor_jitter():
    doc = _kernel_doc({
        "table1": {"segment": 0.006, "legacy": 0.005},
    })
    assert bench.check_floors(doc) == []


def test_check_native_counts_passes_every_load_point_native():
    doc = _kernel_doc({"fig8": {"segment": 0.04, "legacy": 0.04}},
                      native={"segment": (48, 0), "legacy": (48, 0)},
                      repeats=3)
    assert bench.check_native_counts(doc) == []


def test_check_native_counts_flags_misses_with_the_tier_status():
    doc = _kernel_doc({"fig8": {"segment": 0.4, "legacy": 0.4}},
                      native={"segment": (16, 0), "legacy": (12, 4)},
                      section="smoke", repeats=2,
                      status="no C compiler")
    misses = bench.check_native_counts(doc)
    assert [(m["kernel"], m["calls"], m["expected_calls"],
             m["fallbacks"]) for m in misses] == [
        ("segment", 16, 32, 0), ("legacy", 12, 32, 4)]
    assert {m["status"] for m in misses} == {"no C compiler"}
    # Other experiments never run the loop and are not gated.
    assert bench.check_native_counts(_kernel_doc(
        {"table1": {"segment": 0.01, "legacy": 0.01}})) == []


# -- CLI -------------------------------------------------------------------


def test_cli_bench_writes_document_and_checks_baseline(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--no-legacy", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == bench.SCHEMA
    assert "table1" in doc["sections"]["smoke"]["experiments"]

    # A fresh run against its own artifact as the baseline passes.
    # (Huge threshold: a repeats=1 milli-second cell under full-suite
    # load can jitter far past the default 25%; the flag is what is
    # under test here, not the machine's scheduler.)
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--no-legacy",
                 "--baseline", str(out), "--out", str(out),
                 "--threshold", "100", "--check"])
    assert code == 0

    # An absurdly slow baseline-relative run fails --check.  fig7's
    # 18 smoke cells take a couple hundred milliseconds — comfortably
    # above compare()'s noise floor and absolute regression slack,
    # unlike table1's single cell.
    code = main(["bench", "--smoke", "--experiments", "fig7",
                 "--repeats", "1", "--no-legacy", "--out", str(out)])
    assert code == 0
    slow = json.loads(out.read_text())
    entry = slow["sections"]["smoke"]["experiments"]["fig7"]
    for timing in entry["kernels"].values():
        timing["wall_s"] = timing["wall_s"] / 1000.0
    baseline_path = tmp_path / "tiny.json"
    baseline_path.write_text(json.dumps(slow))
    code = main(["bench", "--smoke", "--experiments", "fig7",
                 "--repeats", "1", "--no-legacy",
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
