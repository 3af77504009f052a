"""Segment compiler: batch-replayable slices of instruction streams.

The interpreter loop in :meth:`repro.core.system.Machine.run_program`
pays a full dispatch per instruction — deferred-I/O check, interrupt
window, classification — even for instructions that *provably* cannot
exit or touch machine state (plain ``ALU`` work, ``PAUSE``).  This
module compiles a :class:`~repro.cpu.isa.Program` once into a plan of

* **segments** — maximal runs of unconditionally non-exiting,
  side-effect-free instructions (``Op.ALU``/``Op.PAUSE``), stored as a
  cost vector plus suffix sums so the replay loop can charge any
  remaining span in O(1); and
* **steps** — every other instruction, kept as an index into the
  program and dispatched through the ordinary
  :meth:`~repro.core.system.Machine.run_instruction` path, so every
  possible VM-exit, interrupt window and fault-injection site stays a
  segment boundary.

Equivalence argument (the byte-identity bar in docs/performance.md):
inside a segment the legacy loop's per-instruction checks are no-ops
unless a scheduled event fires — deferred I/O and pending interrupts
only ever appear from event callbacks or exit handling.  The replay
loop re-runs those checks at every point where an event *can* fire
(segment entry, and after each single-instruction step while the next
deadline lies inside the remaining span), and charges straight through
otherwise, so the machine passes through exactly the same state/time
trajectory as the legacy path.

Plans are structural — they depend only on the instruction kinds and
work costs, never on operand values — and are memoized per
``(structure, repeat, mode, level, cost-model fingerprint)`` so
BASELINE/SW/HW cells of the same workload share compilations without
ever crossing modes.
"""

import weakref
from dataclasses import asdict

from repro.cpu.isa import Op

#: Instructions a segment may absorb: never exit at any level in this
#: stack, and execute with no architectural side effects — `_classify`
#: returns None and `_execute_locally` ignores them, so their entire
#: legacy footprint is the `work_ns` charge.
BATCHABLE = frozenset({Op.ALU, Op.PAUSE})

#: Smallest dynamic count of *batchable* instructions
#: (:func:`batchable_dynamic`) worth compiling.  The original gate
#: counted every instruction and sat at 64, which routed the 63-ALU
#: ablation_hw_model program through the legacy loop and showed up as a
#: 0.93x "speedup" in BENCH_sim.json.  Measured sweep (same program,
#: forced compile vs legacy loop, min-of-400, this module's memo warm):
#:
#:   pure-ALU  dyn=4 0.90x | dyn=8 1.83x | dyn=63 5.94x | dyn=256 24x
#:   all-CPUID dyn=4 0.98x | dyn=8 0.95x | dyn=16 0.88x (never wins)
#:
#: The crossover tracks the *batchable* population, not the program
#: length: all-stepped programs only ever pay the memo-key build, so
#: the gate now counts ``Op.ALU``/``Op.PAUSE`` instructions times the
#: repeat and compiles from 8 up — past the measured break-even with
#: margin for the cold-memo first call.
COMPILE_MIN_INSTRUCTIONS = 8

#: Memo bound; a full wipe on overflow keeps the policy trivially
#: deterministic (no LRU ordering state).
_MEMO_MAX = 256

_memo = {}

#: Memo traffic counters: a silent full wipe mid-sweep otherwise reads
#: as an unexplained slowdown.  Plain module counters — the replay hot path
#: never branches on them — surfaced by ``repro bench`` via
#: :func:`memo_stats`.
_memo_hits = 0
_memo_misses = 0
_memo_wipes = 0


def memo_stats():
    """Compile-memo traffic since process start or the last reset."""
    return {
        "hits": _memo_hits,
        "misses": _memo_misses,
        "wipes": _memo_wipes,
        "entries": len(_memo),
    }


def reset_memo_stats():
    """Zero the memo counters (bench sections reset between kernels)."""
    global _memo_hits, _memo_misses, _memo_wipes
    _memo_hits = _memo_misses = _memo_wipes = 0


def batchable_dynamic(program):
    """Dynamic count of segment-absorbable instructions in ``program``.

    ``len(batchable statics) * repeat``, cached on the program object —
    programs are immutable after construction, so the O(len) scan runs
    once and the compile gate in ``Machine.run_program`` stays O(1) on
    the re-run path.
    """
    count = getattr(program, "_batchable_static", None)
    if count is None:
        count = sum(1 for ins in program.instructions
                    if ins.kind in BATCHABLE)
        program._batchable_static = count
    return count * program.repeat


class Segment:
    """One batchable run: per-instruction costs plus suffix sums."""

    __slots__ = ("start", "costs", "suffix", "total")

    def __init__(self, start, costs):
        self.start = start
        self.costs = costs
        suffix = [0] * (len(costs) + 1)
        for index in range(len(costs) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + costs[index]
        self.suffix = tuple(suffix)
        self.total = suffix[0]

    def __len__(self):
        return len(self.costs)

    def __repr__(self):
        return (f"Segment(start={self.start}, n={len(self.costs)}, "
                f"total={self.total})")


class CompiledProgram:
    """The replay plan for one (program, mode, level, costs) tuple.

    ``nodes`` holds :class:`Segment` objects interleaved with plain
    ``int`` step indices, in program order.  ``single`` is set when the
    whole pass is one segment — the replay loop then folds every repeat
    into a single multi-pass charge instead of looping per pass.
    """

    __slots__ = ("nodes", "single", "count")

    def __init__(self, nodes, count):
        self.nodes = tuple(nodes)
        self.count = count
        self.single = (self.nodes[0]
                       if len(self.nodes) == 1
                       and isinstance(self.nodes[0], Segment) else None)

    def __repr__(self):
        return (f"CompiledProgram(nodes={len(self.nodes)}, "
                f"count={self.count}, single={self.single is not None})")


def _freeze(value):
    """Hashable deep-freeze of a cost-model field tree."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


_cost_fp_cache = {}


def _cost_fingerprint(costs):
    """``_freeze(asdict(costs))``, cached per CostModel instance.

    ``asdict`` walks the entire (immutable) cost model and dominated
    every ``compile_program`` call for workloads that run many tiny
    programs; a CostModel never changes after construction, so the
    fingerprint is keyed by identity with a weakref guard against id
    reuse after collection.
    """
    key = id(costs)
    entry = _cost_fp_cache.get(key)
    if entry is not None and entry[0]() is costs:
        return entry[1]
    fingerprint = _freeze(asdict(costs))
    if len(_cost_fp_cache) >= _MEMO_MAX:
        _cost_fp_cache.clear()
    _cost_fp_cache[key] = (weakref.ref(costs), fingerprint)
    return fingerprint


def cost_fingerprint(costs):
    """Public, hashable fingerprint of a cost model's full contents.

    Other memo layers (e.g. the service-time memo in
    ``repro.workloads.memcached``) key on this so "same cost model" has
    one definition across the codebase — and they inherit the identity
    cache above instead of re-walking the dataclass."""
    return _cost_fingerprint(costs)


def _compile(instructions):
    nodes = []
    index = 0
    n = len(instructions)
    while index < n:
        if instructions[index].kind in BATCHABLE:
            stop = index
            while stop < n and instructions[stop].kind in BATCHABLE:
                stop += 1
            costs = tuple(ins.work_ns
                          for ins in instructions[index:stop])
            nodes.append(Segment(index, costs))
            index = stop
        else:
            nodes.append(index)
            index += 1
    return CompiledProgram(nodes, count=n)


def compile_program(program, mode, level, costs):
    """Compiled plan for ``program`` in a mode/level/cost context.

    Memoized: the structural key covers every input the plan could
    depend on (kinds and work costs per instruction, the repeat count,
    the execution mode and level, and the full cost-model contents) —
    deliberately *not* operand values, which only matter to stepped
    instructions and are read from the live program at replay time.
    """
    global _memo_hits, _memo_misses, _memo_wipes
    key = (
        tuple((ins.kind, ins.work_ns) for ins in program.instructions),
        program.repeat,
        str(mode),
        level,
        _cost_fingerprint(costs),
    )
    plan = _memo.get(key)
    if plan is None:
        _memo_misses += 1
        if len(_memo) >= _MEMO_MAX:
            _memo.clear()
            _memo_wipes += 1
        plan = _compile(program.instructions)
        _memo[key] = plan
    else:
        _memo_hits += 1
    return plan
