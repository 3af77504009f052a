"""Every library error crosses a process boundary intact: a forked
helper sends a failing cell's exception back pickled."""

import inspect
import pickle

import pytest

from repro import errors
from repro.sim.engine import DeadlockReport

#: One instance of every exception class in ``repro.errors``, with
#: every attribute its constructor sets.
INSTANCES = [
    errors.ReproError("base"),
    errors.ConfigError("bad config"),
    errors.VirtualizationError("virtualization"),
    errors.VmcsError("unknown field"),
    errors.EptFault(0x1234),
    errors.EptFault(0x2000, "overlapping EPT mapping"),
    errors.CrossContextFault("ctxtld from an unpaired context"),
    errors.ChannelError("ring overflow"),
    errors.DeadlockError("stuck", report=DeadlockReport(
        kind="deadlock", at_ns=42, detail="two waiters")),
    errors.PrfExhausted("no free registers"),
]


def test_every_error_class_is_covered():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__}
    assert classes == {type(error) for error in INSTANCES}


@pytest.mark.parametrize("error", INSTANCES,
                         ids=lambda error: f"{type(error).__name__}")
def test_error_round_trips_through_pickle(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
