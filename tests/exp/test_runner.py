"""Runner: the fan-out's contract (exact merge order, the earliest
failure, helper hygiene, helper counts), parallel == serial
byte-for-byte, and cache integration."""

import functools
import io
import operator
import os
import select
import threading
import time

import pytest

from repro.errors import ConfigError, EptFault, ReproError
from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.exp.result import Result
from repro.exp.runner import fan_out, run_experiments

#: Small-but-real parameters so the determinism check stays fast.
FAST = {"iterations": 10, "requests": 5_000}

#: Longest a probe cell waits for another process's signal.
SIGNAL_TIMEOUT_S = 30

PROBE = "_fanout_probe"

#: The probe's state, set by the ``probe`` fixture before any fork.
_STATE = {}


def _signal():
    os.write(_STATE["pipe"][1], b"x")


def _wait():
    """Block until a cell in another process signals."""
    ready, _, _ = select.select([_STATE["pipe"][0]], [], [],
                                SIGNAL_TIMEOUT_S)
    if not ready:
        raise TimeoutError("no other process signalled")
    os.read(_STATE["pipe"][0], 1)


def _raise_ept_fault():
    raise EptFault(0x1234)


def _raise_live_misconfig():
    """A real EptMisconfig, whose region holds a live virtio device."""
    from repro.core.mode import ExecutionMode
    from repro.core.system import Machine
    from repro.io.net import L2_NIC_BASE, install_network

    machine = Machine(mode=ExecutionMode.BASELINE)
    install_network(machine)
    machine.l2_vm.ept.translate(L2_NIC_BASE)


#: Helper-only actions.  In a helper the cell signals, then does this;
#: in the caller it waits for that signal, so of two such cells each
#: lands in a different process.
_IN_HELPER = {
    "exit": lambda: os._exit(3),
    "ept": _raise_ept_fault,
    "misconfig": _raise_live_misconfig,
    # The caller raises KeyboardInterrupt once the helper sleeps.
    "interrupt": lambda: time.sleep(SIGNAL_TIMEOUT_S),
}


class FanoutProbe(registry.Experiment):
    """Test-only: cell ``<i>:<action>`` for each comma-separated action
    of ``plan``: ``ok``; ``wait``, which blocks until a cell in another
    process signals; ``signal``; ``wait-fail`` and ``signal-fail``,
    which then raise a ConfigError; or a key of :data:`_IN_HELPER`."""

    name = PROBE
    defaults = {"plan": "ok,ok"}

    def cells(self, params):
        return tuple(f"{i}:{action}"
                     for i, action in enumerate(params["plan"].split(",")))

    def run_cell(self, cell, params):
        action = cell.partition(":")[2]
        in_helper = os.getpid() != _STATE["pid"]
        if action in _IN_HELPER:
            if in_helper:
                _signal()
                _IN_HELPER[action]()
            _wait()
            if action == "interrupt":
                raise KeyboardInterrupt
        if action.startswith("wait"):
            _wait()
        done = {"pid": os.getpid(), "done_ns": time.monotonic_ns()}
        if not in_helper:
            _STATE["ran_here"].append(cell)
        if action.startswith("signal"):     # after the cell is done
            _signal()
        if action.endswith("-fail"):
            raise ConfigError(f"cell {cell} failed")
        return done

    def merge(self, params, payloads):
        _STATE["merged"] = payloads
        return Result.create(PROBE, params,
                             scalars={"cells": ",".join(payloads)})


@pytest.fixture
def probe():
    """Register the probe; afterwards no child may be left behind."""
    registry.register(FanoutProbe)
    pipe = os.pipe()
    _STATE.update(pid=os.getpid(), pipe=pipe, ran_here=[], merged=None)
    try:
        yield _STATE
    finally:
        registry.unregister(PROBE)
        for fd in pipe:
            os.close(fd)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_probe(plan, **kwargs):
    return run_experiments([PROBE], overrides={"plan": plan}, **kwargs)


def test_jobs_do_not_change_the_document():
    serial = run_experiments(["fig6", "fig8"], overrides=FAST, jobs=1)
    for jobs in (4, None):
        parallel = run_experiments(["fig6", "fig8"], overrides=FAST,
                                   jobs=jobs)
        assert parallel.to_json() == serial.to_json(), f"jobs={jobs}"


def test_cells_that_finish_in_reverse_merge_in_cells_order(probe):
    """Cell 1 finishes before cell 0, in another process."""
    report = run_probe("wait,signal", jobs=2)
    merged = probe["merged"]
    assert list(merged) == ["0:wait", "1:signal"]
    assert merged["1:signal"]["done_ns"] < merged["0:wait"]["done_ns"]
    assert merged["0:wait"]["pid"] != merged["1:signal"]["pid"]
    assert report.runs[0].result.scalar("cells") == "0:wait,1:signal"


def test_the_earliest_failing_cell_is_raised(probe):
    """Cell 1 fails first, in another process; cell 0's error wins."""
    with pytest.raises(ConfigError, match="^cell 0:wait-fail failed$"):
        run_probe("wait-fail,signal-fail", jobs=2)


def test_a_helper_exception_keeps_its_type_and_attributes(probe):
    with pytest.raises(EptFault) as excinfo:
        run_probe("ept,ept", jobs=2)
    assert type(excinfo.value) is EptFault
    assert excinfo.value.gpa == 0x1234
    assert str(excinfo.value) == "EPT fault at GPA 0x1234"
    cause = str(excinfo.value.__cause__)
    assert "traceback in helper process" in cause and "run_cell" in cause


def test_an_exception_that_does_not_pickle_arrives_as_repro_error(probe):
    with pytest.raises(ReproError) as excinfo:
        run_probe("misconfig,misconfig", jobs=2)
    assert type(excinfo.value) is ReproError
    assert str(excinfo.value).startswith(
        "repro.virt.ept.EptMisconfig: EPT misconfig at GPA ")
    assert "_raise_live_misconfig" in str(excinfo.value.__cause__)


def test_a_helper_that_exits_mid_cell_is_named_with_its_cells(probe):
    with pytest.raises(ReproError,
                       match="exited without a reply") as excinfo:
        run_probe("exit,exit", jobs=2)
    [here] = probe["ran_here"]
    [lost] = {"0:exit", "1:exit"} - {here}
    message = str(excinfo.value)
    assert "exit status 3" in message
    assert message.endswith(f"it held cells {PROBE}/{lost}")


def test_an_interrupted_caller_kills_and_reaps_its_helpers(probe):
    """The helper would sleep for 30 s; the fixture checks it is gone."""
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_probe("interrupt,interrupt", jobs=2)
    assert time.monotonic() - started < SIGNAL_TIMEOUT_S / 2


def test_unflushed_output_is_written_once(probe, capfd, monkeypatch):
    """Output buffered before the run is flushed before each fork, so
    no helper writes it again."""
    with io.TextIOWrapper(open(os.dup(1), "wb")) as buffered:
        monkeypatch.setattr("sys.stdout", buffered)
        print("written before the run")
        run_probe("ok,ok,ok", jobs=3)
        monkeypatch.undo()
    assert capfd.readouterr().out == "written before the run\n"


def test_default_jobs_is_every_usable_cpu(probe, forks):
    cells = 3
    report = run_probe(",".join(["ok"] * cells))
    expected = min(len(os.sched_getaffinity(0)), cells)
    assert report.jobs == expected
    assert len(forks) == expected - 1


@pytest.mark.parametrize("jobs, helpers", [(8, 1), (2, 1), (1, 0)])
def test_helpers_are_capped_by_cells(probe, forks, jobs, helpers):
    report = run_probe("ok,ok", jobs=jobs)
    assert len(forks) == helpers
    assert report.jobs == helpers + 1


def test_an_open_stats_collection_forces_a_serial_run(forks):
    """``collect_stats`` totals the machines its process builds, so the
    runner keeps every cell in that process while one is open."""
    from repro.sim.kernel import collect_stats

    serial = {}
    for jobs in (1, 2):
        with collect_stats() as stats:
            report = run_experiments(["fig6"], overrides=FAST, jobs=jobs)
        serial[jobs] = (stats.events_fired, stats.instructions)
        assert report.jobs == 1
    assert forks == []
    assert serial[2] == serial[1] and serial[1][1] > 0


def test_a_second_live_thread_forces_a_serial_run(probe, forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = run_probe("ok,ok", jobs=2)
    finally:
        stop.set()
        thread.join()
    assert forks == [] and report.jobs == 1
    assert probe["ran_here"] == ["0:ok", "1:ok"]


def test_a_batch_of_any_size_fans_out(probe, forks):
    """20,000 items need more than the 1,024 tokens the queue holds, so
    each token names 20 of them."""
    values, processes = fan_out(operator.neg, range(20_000), jobs=2)
    assert values == [-index for index in range(20_000)]
    assert processes == 2 and len(forks) == 1


def _fail_at(failing, index):
    _STATE["ran_here"].append(index)
    if index == failing:
        raise ConfigError(f"item {index} failed")
    return index


def test_a_process_stops_at_its_first_failure(probe):
    with pytest.raises(ConfigError, match="^item 1 failed$"):
        fan_out(functools.partial(_fail_at, 1), range(4), jobs=1)
    assert probe["ran_here"] == [0, 1]


def _exit_after_the_caller_fails(index):
    """In the helper: report the first item, then exit on the caller's
    signal.  In the caller: fail, and signal, on the first item of a
    token after the helper's, so the second item of that token never
    runs."""
    if os.getpid() != _STATE["pid"]:
        os.write(_STATE["report"][1], index.to_bytes(4, "little"))
        _wait()
        os._exit(3)
    if "helper" not in _STATE:
        ready, _, _ = select.select([_STATE["report"][0]], [], [],
                                    SIGNAL_TIMEOUT_S)
        if not ready:
            raise TimeoutError("the helper reported no item")
        _STATE["helper"] = int.from_bytes(os.read(_STATE["report"][0], 4),
                                          "little")
    if index > _STATE["helper"] + 1 and index % 2 == 0:
        _signal()
        raise ConfigError(f"item {index} failed")
    return index


def test_a_lost_helper_is_named_with_the_items_of_its_token(probe):
    """Of 2,047 items a token names two (the last token one).  The lost
    helper held one token, and the item the caller skipped after its
    own failure is not named."""
    probe["report"] = os.pipe()
    try:
        with pytest.raises(ReproError, match="exited without a reply") \
                as excinfo:
            fan_out(_exit_after_the_caller_fails, range(2_047), jobs=2)
    finally:
        for fd in probe.pop("report"):
            os.close(fd)
        first = probe.pop("helper", None)
    assert first % 2 == 0
    assert str(excinfo.value).endswith(
        f"it held items {first}, {first + 1}")


def test_serial_runner_matches_direct_run():
    experiment = registry.get("fig6")
    report = run_experiments(["fig6"], overrides={"iterations": 10})
    direct = experiment.run(experiment.resolve({"iterations": 10}))
    assert report.runs[0].result == direct


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_experiments(["fig6"], overrides={"iterations": 10},
                           cache=cache)
    assert cold.served == [] and cold.computed == ["fig6"]
    warm = run_experiments(["fig6"], overrides={"iterations": 10},
                           cache=cache)
    assert warm.served == ["fig6"] and warm.computed == []
    # Cache temperature must not leak into the document.
    assert warm.to_json() == cold.to_json()
    assert warm.runs[0].result == cold.runs[0].result


def test_an_entry_that_is_not_a_result_is_recomputed(tmp_path):
    """A verified entry whose body does not decode as a Result reads
    as a miss; the computed Result overwrites it."""
    cache = ResultCache(tmp_path)
    params = registry.get("fig6").resolve({"iterations": 10})
    key = cache.key("fig6", params)
    cache.store("fig6", key, params, b'{"schema": "not-a-result"}\n')
    report = run_experiments(["fig6"], overrides={"iterations": 10},
                             cache=cache)
    assert report.computed == ["fig6"]
    assert cache.load("fig6", key) \
        == report.runs[0].result.to_json().encode()


def test_cold_run_cache_host_work_is_pinned(tmp_path, cache_host_work):
    """A cold cached run keys each experiment once (the runner records
    the key and hands it to ``load`` and ``store``), digests its one
    model once per process and encodes each computed Result once, for
    its entry."""
    names = ["fig6", "table1"]
    report = run_experiments(names, cache=ResultCache(tmp_path))
    assert report.computed == names
    drift = cache_host_work.drift({"ResultCache.key": len(names),
                                   "CostModel.digest[xeon-paper]": 1,
                                   "Result.to_json": len(names)})
    assert not drift, "cold fig6 + table1: " + "; ".join(drift)


def test_document_covers_every_requested_experiment(tmp_path):
    report = run_experiments(["fig6", "table1"],
                             overrides={"iterations": 10},
                             cache=ResultCache(tmp_path))
    doc = report.to_document()
    assert sorted(doc["experiments"]) == ["fig6", "table1"]
    assert sorted(doc["meta"]["cache"]["entries"]) == ["fig6", "table1"]
    for result_doc in doc["experiments"].values():
        assert result_doc["schema"] == "repro-result/1"


def test_smoke_overlay_applies():
    report = run_experiments(["fig6"], jobs=1, smoke=True)
    assert report.runs[0].result.params_dict["iterations"] == \
        registry.get("fig6").smoke["iterations"]
