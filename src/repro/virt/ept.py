"""Extended page tables: guest-physical to host-physical translation.

Each virtualization level adds one level of address indirection: an L2
guest-physical address translates through L1's EPT into an L1 guest-
physical address, which translates through L0's EPT into a host-physical
address.  L0 collapses the two levels when building vmcs02 (paper §2.1),
and :meth:`EptTable.compose` is exactly that collapse.

MMIO regions are mapped as *misconfigured* entries so that any access
exits with EPT_MISCONFIG — that is how virtio device kicks trap (the
paper's profiling: "EPT_MISCONFIG traps, which largely correspond to
accesses to the network device", §6.3.1).
"""

import bisect
from dataclasses import dataclass

from repro.errors import EptFault

#: Granularity at which :meth:`EptTable.compose` checks that a run of
#: the outer table is contiguous.
PAGE_SIZE = 4096


@dataclass(frozen=True)
class MmioRegion:
    """A guest-physical range wired to a device (misconfig-on-access)."""

    base: int
    size: int
    device: object

    def contains(self, gpa):
        return self.base <= gpa < self.base + self.size


class EptMisconfig(EptFault):
    """Access hit an MMIO (misconfigured) region — exits, not a fault."""

    def __init__(self, gpa, region):
        self.region = region
        super().__init__(gpa, f"EPT misconfig at GPA {gpa:#x}")


class EptTable:
    """Sorted, non-overlapping interval map from GPA ranges to HPA bases."""

    def __init__(self, name="ept"):
        self.name = name
        self._bases = []     # sorted GPA bases
        self._ranges = []    # parallel: (gpa_base, size, hpa_base)
        self._mmio = []      # MmioRegion list (also non-overlapping)
        self.generation = 0  # bumped by invalidate(); ablation/test hook

    # -- construction -------------------------------------------------------

    def map_range(self, gpa, size, hpa):
        """Map [gpa, gpa+size) to [hpa, hpa+size)."""
        if size <= 0:
            raise EptFault(gpa, "mapping size must be positive")
        self._check_overlap(gpa, size)
        idx = bisect.bisect_left(self._bases, gpa)
        self._bases.insert(idx, gpa)
        self._ranges.insert(idx, (gpa, size, hpa))

    def map_mmio(self, gpa, size, device):
        """Wire [gpa, gpa+size) to a device via EPT misconfig."""
        if size <= 0:
            raise EptFault(gpa, "MMIO size must be positive")
        self._check_overlap(gpa, size)
        region = MmioRegion(gpa, size, device)
        self._mmio.append(region)
        return region

    def _check_overlap(self, gpa, size):
        end = gpa + size
        for base, rsize, _ in self._ranges:
            if gpa < base + rsize and base < end:
                raise EptFault(gpa, "overlapping EPT mapping")
        for region in self._mmio:
            if gpa < region.base + region.size and region.base < end:
                raise EptFault(gpa, "overlapping MMIO region")

    # -- translation ----------------------------------------------------------

    def translate(self, gpa):
        """GPA -> HPA; raises :class:`EptMisconfig` on MMIO and
        :class:`EptFault` on unmapped addresses."""
        base, _, hpa = self._range_at(gpa)
        return hpa + (gpa - base)

    def _range_at(self, gpa):
        """The RAM range ``(gpa_base, size, hpa_base)`` covering ``gpa``,
        raising as :meth:`translate` does.  RAM is bisected first and the
        MMIO list scanned only on a miss: ``_check_overlap`` keeps the two
        disjoint, so the order cannot change the answer."""
        idx = bisect.bisect_right(self._bases, gpa) - 1
        if idx >= 0:
            rng = self._ranges[idx]
            if gpa < rng[0] + rng[1]:
                return rng
        for region in self._mmio:
            if region.contains(gpa):
                raise EptMisconfig(gpa, region)
        raise EptFault(gpa)

    def lookup_mmio(self, gpa):
        """The MMIO region covering ``gpa``, or None."""
        for region in self._mmio:
            if region.contains(gpa):
                return region
        return None

    def inverse(self, hpa):
        """HPA -> GPA (used when L0 reflects state back into vmcs12)."""
        for base, size, mapped_hpa in self._ranges:
            if mapped_hpa <= hpa < mapped_hpa + size:
                return base + (hpa - mapped_hpa)
        raise EptFault(hpa, f"no mapping covers HPA {hpa:#x}")

    def compose(self, outer):
        """Collapse ``self`` (inner, e.g. L1's EPT for L2) with ``outer``
        (e.g. L0's EPT for L1) into a direct table — what L0 builds into
        vmcs02's EPT pointer.  Inner MMIO regions survive unchanged (they
        must keep trapping); inner RAM ranges are re-based through the
        outer table, splitting where they straddle outer mappings.

        The walk is by outer range, not by page, but it keeps the
        4 KiB-step semantics of a page-by-page translation: from each
        run's start it probes only the first step past the current outer
        range's end, and continues the run into the range found there
        only if that range has the same GPA->HPA offset.  A step that
        does not translate raises from :meth:`translate`'s lookup with
        that step's address."""
        composed = EptTable(name=f"{self.name}*{outer.name}")
        for region in self._mmio:
            composed.map_mmio(region.base, region.size, region.device)
        for base, size, mid in self._ranges:
            offset = 0
            outer_base, outer_size, outer_hpa = outer._range_at(mid)
            while offset < size:
                start = mid + offset
                delta = outer_hpa - outer_base
                while True:
                    # Every step before the first one at or past this
                    # outer range's end lies inside it: contiguous.
                    end = outer_base + outer_size
                    chunk = -(-(end - start) // PAGE_SIZE) * PAGE_SIZE
                    if offset + chunk >= size:
                        chunk = size - offset
                        break
                    outer_base, outer_size, outer_hpa = outer._range_at(
                        start + chunk)
                    if outer_hpa - outer_base != delta:
                        break
                composed.map_range(base + offset, chunk, start + delta)
                offset += chunk
        return composed

    def invalidate(self):
        """INVEPT: bump the generation (models TLB shootdown points)."""
        self.generation += 1

    def __repr__(self):
        return (
            f"EptTable({self.name!r}, {len(self._ranges)} ranges, "
            f"{len(self._mmio)} mmio)"
        )
