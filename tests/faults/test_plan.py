"""FaultPlan validation and the zero-plan contract."""

import pytest

from repro.faults.plan import FaultKind, FaultPlan


def test_default_plan_is_zero():
    plan = FaultPlan()
    assert plan.is_zero
    for kind in FaultKind.ALL:
        assert plan.rate_for(kind) == 0.0


def test_headline_rate_applies_to_every_class():
    plan = FaultPlan(rate=0.25)
    assert not plan.is_zero
    for kind in FaultKind.ALL:
        assert plan.rate_for(kind) == 0.25


def test_per_class_override_wins():
    plan = FaultPlan(rate=0.1,
                     rates=((FaultKind.RING_DROP, 0.9),))
    assert plan.rate_for(FaultKind.RING_DROP) == 0.9
    assert plan.rate_for(FaultKind.RING_DELAY) == 0.1


def test_override_only_plan_is_not_zero():
    plan = FaultPlan(rates=((FaultKind.VMCS_FLIP, 0.5),))
    assert not plan.is_zero
    assert plan.rate_for(FaultKind.RING_DROP) == 0.0


def test_rate_bounds_validated():
    with pytest.raises(ValueError):
        FaultPlan(rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(rates=((FaultKind.RING_DROP, 2.0),))


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultPlan(rates=(("ring_teleport", 0.5),))
    with pytest.raises(ValueError):
        FaultPlan().rate_for("ring_teleport")


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        FaultPlan(delay_ns=-1)


def test_to_dict_is_json_ready():
    import json

    plan = FaultPlan(seed=5, rate=0.2,
                     rates=((FaultKind.LOST_WAKEUP, 0.4),))
    doc = plan.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["rates"] == {FaultKind.LOST_WAKEUP: 0.4}
