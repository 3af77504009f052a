"""EPT translation, MMIO misconfig, two-level composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import Machine
from repro.errors import EptFault
from repro.io.device import MmioDevice
from repro.virt.ept import EptMisconfig, EptTable


class NullDevice(MmioDevice):
    def on_kick(self, queue_index):
        pass


def test_simple_translate():
    ept = EptTable()
    ept.map_range(0x0, 0x10000, 0x100000)
    assert ept.translate(0x0) == 0x100000
    assert ept.translate(0xFFFF) == 0x10FFFF


def test_unmapped_faults():
    ept = EptTable()
    ept.map_range(0x0, 0x1000, 0x100000)
    with pytest.raises(EptFault):
        ept.translate(0x2000)


def test_mmio_raises_misconfig():
    ept = EptTable()
    device = NullDevice("d", 0xF000)
    region = ept.map_mmio(0xF000, 0x1000, device)
    with pytest.raises(EptMisconfig) as excinfo:
        ept.translate(0xF800)
    assert excinfo.value.region is region
    assert ept.lookup_mmio(0xF800).device is device
    assert ept.lookup_mmio(0x0) is None


def test_overlapping_mappings_rejected():
    ept = EptTable()
    ept.map_range(0x0, 0x2000, 0x100000)
    with pytest.raises(EptFault):
        ept.map_range(0x1000, 0x1000, 0x200000)
    with pytest.raises(EptFault):
        ept.map_mmio(0x1800, 0x1000, NullDevice("d", 0x1800))


def test_zero_size_rejected():
    ept = EptTable()
    with pytest.raises(EptFault):
        ept.map_range(0, 0, 0)


def test_inverse_translation():
    ept = EptTable()
    ept.map_range(0x1000, 0x1000, 0x500000)
    assert ept.inverse(0x500800) == 0x1800
    with pytest.raises(EptFault):
        ept.inverse(0x900000)


def test_compose_two_levels_matches_sequential_translation():
    inner = EptTable("l1for2")       # L2 GPA -> L1 GPA
    inner.map_range(0x0, 0x4000, 0x10000)
    outer = EptTable("l0for1")       # L1 GPA -> HPA
    outer.map_range(0x0, 0x100000, 0x40000000)
    composed = inner.compose(outer)
    for gpa in (0x0, 0x123, 0x3FFF):
        assert composed.translate(gpa) == outer.translate(
            inner.translate(gpa)
        )


def test_compose_preserves_inner_mmio():
    inner = EptTable()
    device = NullDevice("nic", 0xF000)
    inner.map_mmio(0xF000, 0x1000, device)
    inner.map_range(0x0, 0x1000, 0x10000)
    outer = EptTable()
    outer.map_range(0x0, 0x100000, 0x40000000)
    composed = inner.compose(outer)
    with pytest.raises(EptMisconfig):
        composed.translate(0xF010)
    assert composed.lookup_mmio(0xF010).device is device


def test_compose_splits_across_outer_discontiguity():
    inner = EptTable()
    inner.map_range(0x0, 0x4000, 0x0)    # spans two outer runs
    outer = EptTable()
    outer.map_range(0x0, 0x2000, 0x100000)
    outer.map_range(0x2000, 0x2000, 0x900000)  # discontiguous target
    composed = inner.compose(outer)
    assert composed.translate(0x1FFF) == 0x101FFF
    assert composed.translate(0x2000) == 0x900000


def test_invalidate_bumps_generation():
    ept = EptTable()
    assert ept.generation == 0
    ept.invalidate()
    assert ept.generation == 1


def test_mapped_bytes():
    ept = EptTable()
    ept.map_range(0x0, 0x1000, 0x0)
    ept.map_range(0x10000, 0x2000, 0x100000)
    assert ept.mapped_bytes == 0x3000


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=0x3FFF))
def test_property_compose_equals_two_step(gpa):
    inner = EptTable()
    inner.map_range(0x0, 0x4000, 0x20000)
    outer = EptTable()
    # 4 KiB-granular scattered outer mapping.
    for page in range(0x20000 // 0x1000, 0x24000 // 0x1000):
        outer.map_range(page * 0x1000, 0x1000,
                        0x40000000 + (page * 7 % 64) * 0x1000)
    composed = inner.compose(outer)
    assert composed.translate(gpa) == outer.translate(inner.translate(gpa))


def test_translate_around_mmio_between_ram_ranges():
    # RAM is looked up first and MMIO only on a miss; the two never
    # overlap, so the edges of a region between two RAM ranges still
    # translate exactly as a MMIO-first scan would.
    ept = EptTable()
    ept.map_range(0x0, 0xF000, 0x100000)
    region = ept.map_mmio(0xF000, 0x1000, NullDevice("d", 0xF000))
    ept.map_range(0x10000, 0x1000, 0x900000)
    assert ept.translate(0xEFFF) == 0x10EFFF
    assert ept.translate(0x10000) == 0x900000
    for gpa in (0xF000, 0xF800, 0xFFFF):
        with pytest.raises(EptMisconfig) as excinfo:
            ept.translate(gpa)
        assert excinfo.value.region is region
        assert excinfo.value.gpa == gpa
    with pytest.raises(EptFault) as excinfo:
        ept.translate(0x11000)
    assert not isinstance(excinfo.value, EptMisconfig)


# -- compose against the page-by-page walk it replaced ---------------------

PAGE = 4096


def page_walk_compose(inner, outer):
    """The reference: compose by translating every 4 KiB step of each
    inner range through ``outer`` and cutting a run wherever the next
    step is not contiguous."""
    composed = EptTable(name=f"{inner.name}*{outer.name}")
    for region in inner._mmio:
        composed.map_mmio(region.base, region.size, region.device)
    for base, size, mid in inner._ranges:
        offset = 0
        while offset < size:
            hpa = outer.translate(mid + offset)
            run = 1
            while offset + run * PAGE < size:
                nxt = outer.translate(mid + offset + run * PAGE)
                if nxt != hpa + run * PAGE:
                    break
                run += 1
            chunk = min(run * PAGE, size - offset)
            composed.map_range(base + offset, chunk, hpa)
            offset += chunk
    return composed


def _outcome(inner, outer, compose):
    try:
        table = compose(inner, outer)
    except EptFault as exc:
        return ("raised", type(exc), exc.gpa, str(exc))
    return ("table", table.name, table._bases, table._ranges, table._mmio)


def _sizes():
    return st.one_of(
        st.integers(min_value=1, max_value=6).map(lambda n: n * PAGE),
        st.integers(min_value=1, max_value=6 * PAGE),
    )


def _layout(draw, name, targets):
    """A table laid out left to right: RAM ranges (fresh targets, or
    continuing the previous range's GPA->HPA offset), MMIO regions and
    holes, with page-aligned and unaligned edges."""
    table = EptTable(name)
    cursor = draw(st.integers(min_value=0, max_value=2 * PAGE))
    delta = None
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        size = draw(_sizes())
        kind = draw(st.sampled_from(["ram", "same", "same", "mmio",
                                     "hole"]))
        if kind == "same" and delta is not None:
            table.map_range(cursor, size, cursor + delta)
        elif kind in ("ram", "same"):
            target = draw(targets)
            table.map_range(cursor, size, target)
            delta = target - cursor
        elif kind == "mmio":
            table.map_mmio(cursor, size, NullDevice("d", cursor))
            delta = None
        else:
            delta = None
        cursor += size
    return table


@st.composite
def _table_pairs(draw):
    """(inner, outer); inner RAM mostly lands on or near outer RAM."""
    outer = _layout(draw, "outer", st.one_of(
        st.integers(min_value=0, max_value=64).map(
            lambda n: 0x100000 + n * PAGE),
        st.integers(min_value=0x100000, max_value=0x200000),
    ))
    near_ram = st.tuples(
        st.sampled_from(outer._bases or [0]),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=2 * PAGE)),
    ).map(sum)
    inner = _layout(draw, "inner", st.one_of(
        near_ram, near_ram,
        st.integers(min_value=0, max_value=12 * PAGE),
    ))
    return inner, outer


@settings(max_examples=400, deadline=None)
@given(_table_pairs())
def test_property_compose_equals_page_walk(tables):
    inner, outer = tables
    assert _outcome(inner, outer, EptTable.compose) == \
        _outcome(inner, outer, page_walk_compose)


def test_compose_merges_outer_neighbours_with_one_offset():
    inner = EptTable()
    inner.map_range(0x0, 0x6000, 0x1000)
    outer = EptTable()
    outer.map_range(0x0, 0x2000, 0x100000)
    outer.map_range(0x2000, 0x3000, 0x102000)    # same GPA->HPA offset
    outer.map_range(0x5000, 0x2000, 0x105000)    # and again
    composed = inner.compose(outer)
    assert composed._ranges == [(0x0, 0x6000, 0x101000)]
    assert _outcome(inner, outer, EptTable.compose) == \
        _outcome(inner, outer, page_walk_compose)


def test_compose_follows_page_steps_across_unaligned_edges():
    # The outer edge at 0x1800 falls between two 4 KiB steps of the
    # inner range; the run is cut at the first step past it, as the
    # page walk cuts it.
    inner = EptTable()
    inner.map_range(0x0, 0x4000, 0x0)
    outer = EptTable()
    outer.map_range(0x0, 0x1800, 0x100000)
    outer.map_range(0x1800, 0x3000, 0x900000)
    composed = inner.compose(outer)
    assert composed._ranges == [(0x0, 0x2000, 0x100000),
                                (0x2000, 0x2000, 0x900800)]
    assert _outcome(inner, outer, EptTable.compose) == \
        _outcome(inner, outer, page_walk_compose)


@pytest.mark.parametrize("blocker", ["hole", "mmio"])
def test_compose_reports_the_first_untranslatable_step(blocker):
    inner = EptTable()
    inner.map_range(0x0, 0x5000, 0x800)
    outer = EptTable()
    outer.map_range(0x0, 0x2000, 0x100000)
    if blocker == "mmio":
        outer.map_mmio(0x2000, 0x1000, NullDevice("d", 0x2000))
    outer.map_range(0x3000, 0x3000, 0x200000)
    expected = EptMisconfig if blocker == "mmio" else EptFault
    with pytest.raises(expected) as excinfo:
        inner.compose(outer)
    assert type(excinfo.value) is expected
    assert excinfo.value.gpa == 0x2800
    assert _outcome(inner, outer, EptTable.compose) == \
        _outcome(inner, outer, page_walk_compose)


#: Outer-table lookups one ``Machine()`` boot may make inside
#: ``EptTable.compose``.  A page-by-page walk of the 32 MiB L2 range
#: makes ~8,200.
MAX_BOOT_COMPOSE_LOOKUPS = 16


def test_machine_boot_composes_by_range(monkeypatch):
    depth = []
    composes = []
    lookups = []
    compose = EptTable.compose

    def counted_compose(self, outer):
        composes.append(self.name)
        depth.append(outer)
        try:
            return compose(self, outer)
        finally:
            depth.pop()

    def counted(method):
        def wrapper(self, gpa):
            if depth:
                lookups.append(gpa)
            return method(self, gpa)
        return wrapper

    monkeypatch.setattr(EptTable, "compose", counted_compose)
    monkeypatch.setattr(EptTable, "translate", counted(EptTable.translate))
    monkeypatch.setattr(EptTable, "_range_at", counted(EptTable._range_at))
    Machine()
    assert composes
    assert 0 < len(lookups) <= MAX_BOOT_COMPOSE_LOOKUPS
