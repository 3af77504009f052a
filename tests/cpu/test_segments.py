"""Segment compiler: batching boundaries, memoization, machine parity.

``compile_program`` may only fuse instructions that can never exit or
touch machine state (ALU/PAUSE); every trap site must stay a stepwise
node so the segment replay observes interrupts, deferred I/O and fault
injection at exactly the same instruction boundaries as the stepped
per-instruction walk (:func:`_stepped`, the reference every parity
test compares ``Machine.run_program`` against).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mode import ExecutionMode
from repro.core.system import Machine, RunResult
from repro.cpu import isa, segments
from repro.cpu.costs import CostModel
from repro.cpu.interrupts import Vectors
from repro.cpu.isa import Instruction, Op, Program
from repro.fuzz.harness import final_state
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE


def compile_default(program, mode=ExecutionMode.BASELINE, level=2):
    return segments.compile_program(program, mode, level, CostModel())


# -- compiler structure ----------------------------------------------------


def test_alu_run_becomes_one_segment():
    program = Program([isa.alu(10), isa.alu(20), isa.alu(30)])
    plan = compile_default(program)
    assert plan.single is not None
    assert plan.single.costs == plan.single.costs  # materialised
    assert plan.count == 3
    assert plan.single.total == sum(plan.single.costs)


def test_trap_sites_split_segments():
    program = Program([
        isa.alu(10), isa.alu(20),
        isa.cpuid(leaf=0),
        isa.alu(30),
    ])
    plan = compile_default(program)
    assert plan.single is None
    kinds = [type(node).__name__ for node in plan.nodes]
    assert kinds == ["Segment", "int", "Segment"]
    assert plan.nodes[1] == 2            # index of the cpuid


def test_only_alu_and_pause_are_batchable():
    assert segments.BATCHABLE == frozenset({Op.ALU, Op.PAUSE})


def test_suffix_sums_cover_every_resume_point():
    program = Program([isa.alu(5), isa.alu(7), isa.alu(9)])
    plan = compile_default(program)
    segment = plan.single
    assert list(segment.suffix) == [21, 16, 9, 0]
    assert segment.total == 21


def test_all_trap_program_has_no_segments():
    program = Program([isa.cpuid(leaf=0), isa.vmcall(number=1)])
    plan = compile_default(program)
    assert plan.single is None
    assert tuple(plan.nodes) == (0, 1)


# -- memoization -----------------------------------------------------------


def test_memo_returns_identical_plan():
    program = Program([isa.alu(10), isa.alu(20)])
    first = compile_default(program)
    second = compile_default(program)
    assert first is second


def test_memo_distinguishes_mode_level_and_costs():
    program = Program([isa.alu(10)])
    base = compile_default(program)
    other_mode = compile_default(program, mode=ExecutionMode.HW_SVT)
    other_level = compile_default(program, level=3)
    expensive = segments.compile_program(
        program, ExecutionMode.BASELINE, 2,
        CostModel(cpuid_guest_work=99_999))
    assert base is not other_mode
    assert base is not other_level
    assert base is not expensive
    # An equal model built separately hits; one constant apart misses.
    rebuilt = segments.compile_program(
        program, ExecutionMode.BASELINE, 2, CostModel())
    nudged = segments.compile_program(
        program, ExecutionMode.BASELINE, 2, CostModel(memory_touch=5))
    assert rebuilt is base
    assert nudged is not base


def test_memo_keys_on_instruction_stream_not_program_identity():
    first = compile_default(Program([isa.alu(10), isa.alu(20)]))
    second = compile_default(Program([isa.alu(10), isa.alu(20)]))
    assert first is second


# -- machine parity --------------------------------------------------------


def _stepped(machine, program, level=2):
    """The reference: every instruction through ``run_instruction``,
    never a compiled segment.  Returns what ``run_program`` reports."""
    start = machine.sim.now
    exits_before = machine._total_exits()
    count = 0
    for instruction in program:
        machine.run_instruction(instruction, level)
        count += 1
    return RunResult(
        elapsed_ns=machine.sim.now - start,
        instructions=count,
        exits=machine._total_exits() - exits_before,
        start_ns=start,
        end_ns=machine.sim.now,
    )


#: All above ``COMPILE_MIN_INSTRUCTIONS`` dynamic instructions, so
#: ``run_program`` genuinely compiles and replays them (tiny programs
#: fall back to the stepwise loop; see the dedicated tests below).
PROGRAMS = {
    "alu-only": Program([isa.alu(100)] * 50, repeat=4),
    "mixed": Program([
        isa.alu(200), isa.alu(50),
        isa.cpuid(leaf=0),
        isa.alu(500),
        isa.wrmsr(MSR_TSC_DEADLINE, 40_000),
        isa.alu(125), Instruction(Op.PAUSE, work_ns=40),
    ], repeat=10),
    "trap-heavy": Program([
        isa.cpuid(leaf=0), isa.alu(10), isa.vmcall(number=1),
    ], repeat=22),
}


def _final_state(run, name):
    machine = Machine(mode=ExecutionMode.SW_SVT)
    count = run(machine, PROGRAMS[name])
    return {
        "count": count,
        "now": machine.sim.now,
        "exits": machine._total_exits(),
        "retired": machine.instructions_retired,
        "totals": dict(machine.tracer.totals),
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_segment_machine_matches_legacy(name):
    assert (_final_state(Machine.run_program, name)
            == _final_state(_stepped, name))


def test_timer_event_mid_segment_matches_legacy():
    """An event due strictly inside a fused ALU run forces stepping."""
    def run(execute):
        machine = Machine(mode=ExecutionMode.BASELINE)
        seen = []
        machine.sim.after(1_234, lambda: seen.append(machine.sim.now))
        execute(machine, Program([isa.alu(100)] * 80))
        return seen, machine.sim.now, machine.instructions_retired

    assert run(Machine.run_program) == run(_stepped)


# -- segment replay against the stepped loop, property-based --------------

#: Trapping (or state-touching) instructions mixed between batchable
#: runs: CPUID, VMCS accesses, trapped and plain MSR ops.
TRAPS = (
    isa.cpuid(leaf=0),
    isa.cpuid(leaf=7),
    isa.vmcall(number=1),
    isa.vmread(["guest_rip"]),
    isa.vmwrite({"guest_rsp": 0x2000}),
    isa.vmptrld("vmcs12"),
    isa.rdmsr(MSR_TSC_DEADLINE),
    isa.wrmsr(MSR_APIC_EOI, 0),
    isa.wrmsr(0x110, 7),
    isa.rdmsr(0x111),
)

#: The vectors the fault injector's spurious interrupts carry.
SPURIOUS_VECTORS = (Vectors.SPURIOUS, Vectors.IPI_RESCHEDULE,
                    Vectors.IPI_TLB_SHOOTDOWN)

BATCHABLE = st.one_of(
    st.builds(isa.alu, st.integers(0, 400)),
    st.builds(lambda ns: Instruction(Op.PAUSE, work_ns=ns),
              st.integers(0, 100)),
)


@st.composite
def mixed_programs(draw):
    """At least 8 ALU/PAUSE instructions cut into runs by 1-5 traps."""
    work = draw(st.lists(BATCHABLE, min_size=8, max_size=40))
    traps = draw(st.lists(st.sampled_from(TRAPS), min_size=1,
                          max_size=5))
    cuts = sorted(draw(st.lists(st.integers(0, len(work)),
                                min_size=len(traps),
                                max_size=len(traps))))
    body, last = [], 0
    for cut, trap in zip(cuts, traps):
        body.extend(work[last:cut])
        body.append(trap)
        last = cut
    body.extend(work[last:])
    return Program(body, repeat=draw(st.integers(1, 3)))


def _work_spans(mode, program, level):
    """``(start, end)`` of every batchable instruction's work charge of
    at least 2 ns in an event-free stepped run: a time strictly inside
    one lies strictly inside a segment."""
    probe = Machine(mode=mode)
    spans = []
    for instruction in program:
        probe.run_instruction(instruction, level)
        if (instruction.kind in segments.BATCHABLE
                and instruction.work_ns >= 2):
            spans.append((probe.sim.now - instruction.work_ns,
                          probe.sim.now))
    return spans


def _observe(mode, program, level, events, execute):
    """Run ``program`` on a fresh machine with ``events`` scheduled
    (``(kind, when, ctx, vector)``) and report everything the replay
    must reproduce."""
    machine = Machine(mode=mode)
    deliveries = []
    machine.interrupts.add_observer(
        lambda ctx, vector: deliveries.append((ctx, vector)))
    for kind, when, ctx, vector in events:
        if kind == "timer":
            machine.interrupts.arm_tsc_deadline(0, when)
        else:
            machine.interrupts.inject_spurious(
                ctx % machine.core.n_contexts, vector,
                delay=when - machine.sim.now)
    result = execute(machine, program, level)
    return {
        "result": result,
        "now": machine.sim.now,
        "retired": machine.instructions_retired,
        "exits": dict(machine.stack.exit_counts),
        "aux_exits": dict(machine.stack.aux_exit_counts),
        "totals": dict(machine.tracer.totals),
        "deliveries": deliveries,
        "pending": [machine.interrupts.pending_count(ctx)
                    for ctx in range(machine.core.n_contexts)],
        "state": final_state(machine),
    }


@settings(max_examples=100, deadline=None)
@given(program=mixed_programs(),
       mode=st.sampled_from(ExecutionMode.ALL),
       level=st.sampled_from((1, 2)),
       kind=st.sampled_from(("timer", "spurious")),
       picks=st.lists(st.tuples(st.integers(0, 10**6),
                                st.integers(0, 10**6),
                                st.integers(0, 2),
                                st.sampled_from(SPURIOUS_VECTORS)),
                      min_size=1, max_size=3))
def test_segment_replay_matches_stepped_loop(program, mode, level, kind,
                                             picks):
    """Events due strictly inside a segment — an armed TSC-deadline
    timer, or spurious interrupts injected the way the fuzz harness
    schedules them — leave segment replay and the stepped loop in the
    same place: same result, clock, exits, tracer totals, deliveries
    and architectural state."""
    assert (segments.batchable_dynamic(program)
            >= segments.COMPILE_MIN_INSTRUCTIONS)
    spans = _work_spans(mode, program, level)
    if kind == "timer":
        picks = picks[:1]   # one deadline; re-arming replaces it
    events = []
    for index, offset, ctx, vector in picks if spans else ():
        start, end = spans[index % len(spans)]
        events.append((kind, start + 1 + offset % (end - start - 1),
                       ctx, vector))
    assert (_observe(mode, program, level, events, Machine.run_program)
            == _observe(mode, program, level, events, _stepped))


# -- tiny-program fallback -------------------------------------------------


def test_tiny_programs_skip_the_segment_compiler(monkeypatch):
    """Below COMPILE_MIN_INSTRUCTIONS the machine steps the
    per-instruction loop — compiling a one-shot 10-instruction program
    costs more than batching saves."""
    def boom(*args, **kwargs):
        raise AssertionError("tiny program reached compile_program")

    monkeypatch.setattr(segments, "compile_program", boom)
    machine = Machine(mode=ExecutionMode.BASELINE)
    small = Program([isa.cpuid()],
                    repeat=segments.COMPILE_MIN_INSTRUCTIONS - 1)
    machine.run_program(small)
    assert machine.instructions_retired == small.repeat


def test_threshold_sized_programs_still_compile(monkeypatch):
    calls = []
    real = segments.compile_program

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(segments, "compile_program", spy)
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_program(Program(
        [isa.alu(10)], repeat=segments.COMPILE_MIN_INSTRUCTIONS))
    assert calls


def test_tiny_program_results_match_legacy():
    def run(execute):
        machine = Machine(mode=ExecutionMode.SW_SVT)
        execute(machine, Program([isa.cpuid()], repeat=10))
        return machine.sim.now, dict(machine.tracer.totals)

    assert run(Machine.run_program) == run(_stepped)


def test_machine_obs_forces_legacy_cadence():
    from repro.obs import Observer

    machine = Machine(mode=ExecutionMode.BASELINE, observer=Observer())
    program = Program([isa.alu(100)] * 10)
    machine.run_program(program)
    # Per-instruction observability requires the stepwise path; totals
    # must match a plain stepped run.
    reference = Machine(mode=ExecutionMode.BASELINE)
    _stepped(reference, program)
    assert machine.sim.now == reference.sim.now
