"""Result dataclasses: freezing, round-trips, canonical encoding."""

import pytest

from repro.errors import ConfigError
from repro.exp.result import (
    Result,
    Row,
    Series,
    Table,
    freeze_mapping,
)


def _sample():
    return Result.create(
        experiment="sample",
        params={"iterations": 5, "seed": 7},
        tables=[Table(
            title="t",
            columns=("Label", "Value"),
            rows=[Row("a", ("1",), paper="2"), Row("b", ("3",))],
        )],
        series=[Series("curve", [(1, 10.0), (2, 20.0)])],
        scalars={"speedup": 1.94},
        paper={"speedup": 1.94},
        notes=("headline",),
        meta={"y_ceiling": 1000},
    )


def test_freeze_mapping_sorts_and_validates():
    assert freeze_mapping({"b": 2, "a": 1}) == (("a", 1), ("b", 2))
    assert freeze_mapping(None) == ()
    with pytest.raises(ConfigError, match="JSON scalar"):
        freeze_mapping({"a": object()})


def test_result_is_frozen_and_hashable():
    result = _sample()
    with pytest.raises(AttributeError):
        result.experiment = "other"
    assert hash(result) == hash(_sample())


def test_mapping_views_and_scalar_access():
    result = _sample()
    assert result.params_dict == {"iterations": 5, "seed": 7}
    assert result.scalar("speedup") == 1.94
    with pytest.raises(KeyError):
        result.scalar("missing")


def test_round_trip_is_exact():
    result = _sample()
    assert Result.from_dict(result.to_dict()) == result
    assert Result.from_json(result.to_json()) == result


def test_json_is_byte_stable():
    assert _sample().to_json() == _sample().to_json()
    assert _sample().to_json().endswith("\n")


def test_schema_mismatch_rejected():
    doc = _sample().to_dict()
    doc["schema"] = "repro-result/0"
    with pytest.raises(ConfigError, match="schema"):
        Result.from_dict(doc)


def test_table_kind_validated():
    with pytest.raises(ConfigError, match="kind"):
        Table(title="t", columns=("a",), kind="pie")
