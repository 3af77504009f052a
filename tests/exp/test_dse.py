"""`repro dse`: sweep mechanics, schema, and determinism."""

import json

import pytest

from repro.core.mode import ExecutionMode
from repro.errors import ConfigError
from repro.exp import claims, dse


@pytest.fixture(scope="module")
def smoke_doc():
    return dse.build_document(
        models=list(dse.SMOKE["models"]),
        scale_tenths=dse.SMOKE["scale_tenths"],
        mwait_wake=dse.SMOKE["mwait_wake"],
        stall_resume=dse.SMOKE["stall_resume"],
        placements=dse.SMOKE["placements"],
    )


def test_smoke_document_validates(smoke_doc):
    dse.validate_document(smoke_doc)
    assert smoke_doc["schema"] == dse.SCHEMA
    n = (len(dse.SMOKE["models"]) * len(dse.SMOKE["scale_tenths"])
         * len(dse.SMOKE["mwait_wake"]) * len(dse.SMOKE["stall_resume"])
         * len(dse.SMOKE["placements"]))
    assert smoke_doc["summary"]["n_points"] == n


def test_paper_point_reproduces_figure6(smoke_doc):
    # The sweep cell at the paper's own coordinates must reproduce the
    # Figure 6 speedups exactly — the dse driver is anchored to the
    # same replay arithmetic the parity tests pin.
    (point,) = [
        p for p in smoke_doc["points"]
        if p["model"] == "xeon-paper"
        and p["switch_scale_tenths"] == 10
        and p["mwait_wake"] == 60
        and p["svt_stall_resume"] == 20
        and p["placement"] == "smt"
    ]
    baseline_us = claims.paper_value("table1", "total_us")
    sw_svt_us = claims.paper_value("ablation_wait", "smt_mwait_us")
    assert point["ns_per_op"][ExecutionMode.BASELINE] == round(
        baseline_us * 1000)
    assert point["ns_per_op"][ExecutionMode.SW_SVT] == round(
        sw_svt_us * 1000)
    assert point["sw_speedup"] == 1.2293
    assert point["winner"] == ExecutionMode.HW_SVT


def test_numa_placement_flips_sw_vs_baseline(smoke_doc):
    # Cross-socket channel hops outprice the switches they replace at
    # paper-scale switch costs — the crossover the frontier must carry.
    by_scale = {
        p["switch_scale_tenths"]: p
        for p in smoke_doc["points"]
        if p["model"] == "xeon-paper" and p["placement"] == "numa"
        and p["svt_stall_resume"] == 20
    }
    assert by_scale[10]["sw_speedup"] < 1
    assert by_scale[40]["sw_speedup"] > 1
    (series,) = [
        f for f in smoke_doc["frontier"]
        if f["model"] == "xeon-paper" and f["placement"] == "numa"
        and f["svt_stall_resume"] == 20
    ]
    assert series["crossovers"]


def test_expensive_stall_dethrones_hw(smoke_doc):
    # At 1280 ns per stall/resume a nested trap pays 5.1 us in events —
    # HW SVt loses its win; the high stall axis exists to expose this.
    losers = [
        p for p in smoke_doc["points"]
        if p["svt_stall_resume"] == 1280
        and p["winner"] != ExecutionMode.HW_SVT
    ]
    assert losers


def test_document_is_deterministic(smoke_doc):
    again = dse.build_document(
        models=list(dse.SMOKE["models"]),
        scale_tenths=dse.SMOKE["scale_tenths"],
        mwait_wake=dse.SMOKE["mwait_wake"],
        stall_resume=dse.SMOKE["stall_resume"],
        placements=dse.SMOKE["placements"],
    )
    assert again == smoke_doc


def test_validate_rejects_bad_documents(smoke_doc):
    with pytest.raises(ConfigError, match="schema"):
        dse.validate_document({**smoke_doc, "schema": "repro-dse/0"})
    with pytest.raises(ConfigError, match="missing"):
        dse.validate_document(
            {k: v for k, v in smoke_doc.items() if k != "frontier"})
    with pytest.raises(ConfigError, match="no design points"):
        dse.validate_document({**smoke_doc, "points": []})


def test_committed_artifact_is_current():
    # The committed frontier must be regenerable byte-for-byte: the
    # sweep is integral arithmetic over deterministic recordings, so
    # any drift means the models or the replay arithmetic changed
    # without `repro dse` being re-run.
    path = dse.default_out_path()
    assert path.exists(), "run `repro dse` and commit the artifact"
    committed = json.loads(path.read_text())
    dse.validate_document(committed)
    fresh = dse.build_document(models=committed["models"])
    assert fresh == committed


def test_cli_smoke_writes_artifact(tmp_path, capsys):
    out = tmp_path / "frontier.json"
    assert dse.main(["--smoke", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    dse.validate_document(doc)
    stdout = capsys.readouterr().out
    assert "wins per system" in stdout


def test_cli_json_mode(tmp_path, capsys):
    assert dse.main(["--smoke", "--models", "xeon-paper",
                     "--out", "-", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["models"] == ["xeon-paper"]
