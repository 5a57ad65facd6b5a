"""Software model of per-context GPU page tables with cross-table grafting.

Every simulated GPU context owns a multi-level radix page table. Virtual
addresses are handed out by per-table allocation policies that keep one
table's ranges in a high window and the other's in a low window, so two
tables can be unioned without relocating anything. The union is built by a
top-down merge ("graft") that copies page-directory entries from a source
table into a target at the highest level where the target slot is free; from
then on both tables share the physical subtree below each copied entry, so
leaf-level changes inside a shared subtree are visible to both sides for
free. The merge is planned before anything is written, so a graft whose
leaves collide raises and writes nothing.

A page-table slot holds ``None``, the child ``PageTableNode`` itself (a
directory entry) or the ``PhysPage`` itself (a leaf). Nodes compare by
identity. A ``PhysPage`` is a slotted value: it equals another ``PhysPage``
with the same ``(id, size_class)`` and hashes like that pair, but never
equals a tuple. So two tables share a subtree exactly when a slot of each
holds the same node.

After a graft the target is registered as a subscriber of the source. Two
range-restricted walks keep subscribers coherent: after ``map_range`` every
transitive subscriber is merged once over the mapped range from the space it
subscribes to, and after ``unmap_range`` every transitive subscriber is
unmerged once over the unmapped range, clearing its copies of the removed
leaves and pruned directories. Source-side TLB invalidations are replicated
to subscribers, which keeps the merged view coherent without re-merging.
A space unmaps only pages it mapped itself, not those it sees through a
graft. Each walk visits only the slots of a node that overlap its range;
it computes their bounds inline from the level's shift and the fan-out,
since a map or unmap pays that cost once per node it visits.

The graft topology is graft-time state: each space's transitive fan-out
(the ordered (subscriber, source) pairs the two walks visit) and its
``group_mapped`` tuple (its own ``mapped`` set, then its graft peers') are
rebuilt only by ``graft``, when it adds a subscriber, since that is the only
place subscriptions change. Maps, unmaps and allocations read them as they
are.

Cost accounting follows a copy-engine model: one write per entry modified by
a graft or a propagation, one read per node compared during a merge (a
graft's, or the one a map runs against each subscriber). The counters stand
in for DMA traffic when comparing grafting against a per-buffer
export/import scheme.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress


class VmError(Exception):
    """Base class for address-space and page-table errors."""


class AddressSpaceExhausted(VmError):
    pass


class AlreadyMapped(VmError):
    pass


class NotMapped(VmError):
    pass


class OverlapDetected(VmError):
    pass


class CycleDetected(VmError):
    pass


class InconsistentUnion(VmError):
    pass


class PageFault(VmError):
    """Translation failure; carries the VA and the level where the walk stopped."""

    def __init__(self, vaddr: int, level: int):
        super().__init__(f"page fault at {vaddr:#x} (walk stopped at level {level})")
        self.vaddr = vaddr
        self.level = level


class SizeClass(enum.Enum):
    SMALL = 4 * 1024
    BIG = 2 * 1024 * 1024

    def __init__(self, nbytes: int):
        self.nbytes = nbytes  # a plain attribute: read on every map and unmap


@dataclass(frozen=True)
class PageGeometry:
    """Radix layout of the page tables.

    Level 0 is the root; small pages map as leaves at the deepest level and
    big pages at ``big_page_level``. The radix may index more bits than
    ``va_width``; addresses are only validated against ``va_width``, and any
    higher index bits are simply zero for all valid addresses.
    """

    levels: int = 5
    bits_per_level: int = 9
    page_shift: int = 12
    big_page_level: int = 3
    va_width: int = 48
    # right shift that brings a level's index bits down to bit 0
    level_shifts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    fanout: int = field(init=False, repr=False, compare=False)  # slots per node
    va_limit: int = field(init=False, repr=False, compare=False)  # 1 << va_width

    def __post_init__(self):
        object.__setattr__(self, "level_shifts", tuple(
            self.page_shift + self.bits_per_level * (self.levels - 1 - level)
            for level in range(self.levels)))
        object.__setattr__(self, "fanout", 1 << self.bits_per_level)
        object.__setattr__(self, "va_limit", 1 << self.va_width)
        if self.levels < 2:
            raise ValueError("need at least a root and a leaf level")
        if SizeClass.SMALL.nbytes != 1 << self.page_shift:
            raise ValueError("page_shift must match the small page size")
        if not 0 < self.big_page_level < self.levels:
            raise ValueError("big_page_level out of range")
        if self.entry_span(self.big_page_level) != SizeClass.BIG.nbytes:
            raise ValueError("big pages must land on a level whose entries span 2 MiB")
        if self.va_width < self.page_shift + self.bits_per_level:
            raise ValueError("va_width too small for this layout")

    def entry_span(self, level: int) -> int:
        """Bytes covered by one entry of a node at `level`."""
        return 1 << self.level_shifts[level]

    def index(self, vaddr: int, level: int) -> int:
        return (vaddr >> self.level_shifts[level]) & ((1 << self.bits_per_level) - 1)

    def leaf_level(self, size_class: SizeClass) -> int:
        if size_class is SizeClass.SMALL:
            return self.levels - 1
        return self.big_page_level


class PhysPage:
    """One physical page. Two pages are equal when their id and size class
    are; a page never equals a tuple or any other type."""

    __slots__ = ("id", "size_class")

    def __init__(self, id: int, size_class: SizeClass):
        self.id = id
        self.size_class = size_class

    def __eq__(self, other):
        if type(other) is not PhysPage:
            return NotImplemented
        return self.id == other.id and self.size_class is other.size_class

    def __hash__(self):
        return hash((self.id, self.size_class))

    def __repr__(self):
        return f"PhysPage(id={self.id!r}, size_class={self.size_class!r})"


class PageTableNode:
    __slots__ = ("id", "level", "owner", "entries")

    def __init__(self, node_id: int, level: int, owner: int, fanout: int):
        self.id = node_id
        self.level = level
        self.owner = owner  # space id that allocated the node
        self.entries: list = [None] * fanout  # None, a child PageTableNode or a PhysPage


class AllocPolicy(enum.Enum):
    HIGH_RANGE = "high"
    LOW_RANGE = "low"


DEFAULT_HIGH_BASE = 0x7000_0000_0000
DEFAULT_LOW_BASE = 0x1_0000_0000


class _IntervalSet:
    """Sorted disjoint half-open byte ranges mirroring a table's leaf coverage.

    Two parallel int lists hold them: ``_lo[k]`` and ``_hi[k]`` are where the
    k-th range starts and ends. Both lists ascend, since the ranges are
    disjoint, so every lookup is one ``bisect`` over plain ints. Ranges that
    touch are joined, so no two stored ranges touch.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self):
        self._lo: list[int] = []
        self._hi: list[int] = []

    def __iter__(self):
        return zip(self._lo, self._hi)

    def first_overlap_end(self, lo: int, hi: int) -> int | None:
        """End of the first interval overlapping [lo, hi), or None."""
        i = bisect_right(self._hi, lo)  # the first interval ending after lo
        if i < len(self._lo) and self._lo[i] < hi:
            return self._hi[i]
        return None

    def covers(self, lo: int, hi: int) -> bool:
        """Whether [lo, hi) lies inside one interval."""
        i = bisect_right(self._lo, lo) - 1
        return i >= 0 and self._hi[i] >= hi

    def add(self, lo: int, hi: int):
        los, his = self._lo, self._hi
        if not his or lo > his[-1]:
            los.append(lo)  # the allocator's pattern: past the last range
            his.append(hi)
            return
        if lo == his[-1]:
            his[-1] = hi
            return
        # [i, j): the intervals that overlap or touch [lo, hi)
        i = bisect_left(his, lo)
        j = bisect_right(los, hi)
        if i < j:
            lo = min(lo, los[i])
            hi = max(hi, his[j - 1])
        los[i:j] = (lo,)
        his[i:j] = (hi,)

    def remove(self, lo: int, hi: int):
        los, his = self._lo, self._hi
        # [i, j): the intervals that overlap [lo, hi)
        i = bisect_right(his, lo)
        j = bisect_left(los, hi)
        if i < j:
            # what is left of the first and the last of them
            kept = [(a, b) for a, b in ((los[i], lo), (hi, his[j - 1])) if a < b]
            los[i:j] = [a for a, _ in kept]
            his[i:j] = [b for _, b in kept]


class AddressSpace:
    """One context's table: root node, allocation window, subscribers, TLB."""

    def __init__(self, space_id: int, base: int, limit: int, root: PageTableNode):
        self.id = space_id
        self.base = base
        self.limit = limit
        self.root = root
        self.alloc_cursor = base
        self.subscribers: list[int] = []   # registration order
        self.graft_peers: set[int] = set()   # the rest of its graft group, transitively
        self.tlb: dict[int, tuple[PhysPage, int]] = {}  # vpn -> (page, leaf base)
        self.tlb_invalidations = 0
        self.conflicts_resolved = 0  # allocation-path address substitutions
        self.mapped = _IntervalSet()
        # `mapped`, then the peers' sets by space id. It holds no AddressSpace,
        # so that spaces form no reference cycle and are freed without the GC.
        self.group_mapped: tuple[_IntervalSet, ...] = (self.mapped,)


@dataclass
class CopyEngineLog:
    reads: int = 0
    writes: int = 0


@dataclass
class GraftReport:
    pdes_copied: int = 0
    max_depth_descended: int = 0
    entry_writes: int = 0
    tlb_invalidations: int = 0


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class MemorySystem:
    """All address spaces of one simulated device, plus copy-engine counters.

    ``propagate_tlb=False`` disables replication of TLB invalidations to
    subscribers; it exists to demonstrate the stale translations that the
    replication prevents.
    """

    def __init__(self, geometry: PageGeometry | None = None, *, propagate_tlb: bool = True):
        self.geometry = geometry or PageGeometry()
        self.nodes: dict[int, PageTableNode] = {}
        self.spaces: dict[int, AddressSpace] = {}
        self.copy_log = CopyEngineLog()
        self.propagate_tlb = propagate_tlb
        self.total_tlb_invalidations = 0
        # space id -> what _collect_subscribers yields for it; rebuilt by graft
        self._fanout: dict[int, tuple[tuple[AddressSpace, AddressSpace], ...]] = {}
        self._next_node = 0
        self._next_space = 0
        self._next_phys = 0

    # ------------------------------------------------------------------
    # construction

    def _new_node(self, level: int, owner: int) -> PageTableNode:
        node = PageTableNode(self._next_node, level, owner, self.geometry.fanout)
        self._next_node += 1
        self.nodes[node.id] = node
        return node

    def create_space(self, policy: AllocPolicy, base: int | None = None,
                     limit: int | None = None) -> AddressSpace:
        geo = self.geometry
        if base is None:
            base = DEFAULT_HIGH_BASE if policy is AllocPolicy.HIGH_RANGE else DEFAULT_LOW_BASE
        if limit is None:
            limit = geo.va_limit if policy is AllocPolicy.HIGH_RANGE else DEFAULT_HIGH_BASE
        if base % SizeClass.SMALL.nbytes:
            raise ValueError("policy base must be page aligned")
        if not 0 <= base < limit <= geo.va_limit:
            raise ValueError("policy window must lie inside the VA width")
        root = self._new_node(0, self._next_space)
        space = AddressSpace(self._next_space, base, limit, root)
        self._next_space += 1
        self.spaces[space.id] = space
        self._fanout[space.id] = ()
        return space

    def alloc_phys(self, size_class: SizeClass, count: int = 1) -> list[PhysPage]:
        start = self._next_phys
        self._next_phys = start + count
        return [PhysPage(i, size_class) for i in range(start, start + count)]

    # ------------------------------------------------------------------
    # allocation

    def allocate(self, space: AddressSpace, n_pages: int, size_class: SizeClass,
                 hint: int | None = None) -> int:
        """Reserve a free VA range under the space's policy.

        The range must not overlap any mapped leaf range in this space or in
        any space it has been grafted with. A conflicting hint falls back to
        a linear probe upward from the conflict and bumps the space's
        conflict counter.
        """
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        size = size_class.nbytes
        span = n_pages * size
        group = space.group_mapped

        def blocked(lo: int) -> int | None:
            worst = None
            for mapped in group:
                hi = mapped.first_overlap_end(lo, lo + span)
                if hi is not None and (worst is None or hi > worst):
                    worst = hi
            return worst

        if hint is not None:
            if hint % size:
                raise ValueError("hint must be aligned to the page size")
            if not space.base <= hint or hint + span > space.limit:
                raise ValueError("hint outside the policy window")
            b = blocked(hint)
            if b is None:
                if hint + span > space.alloc_cursor:
                    space.alloc_cursor = hint + span
                return hint
            space.conflicts_resolved += 1
            start = _align_up(b, size)
        else:
            start = _align_up(space.alloc_cursor, size)

        while True:
            if start + span > space.limit:
                raise AddressSpaceExhausted(
                    f"no {span:#x}-byte range left in [{space.base:#x}, {space.limit:#x})")
            b = blocked(start)
            if b is None:
                break
            start = _align_up(b, size)
        if start + span > space.alloc_cursor:
            space.alloc_cursor = start + span
        return start

    # ------------------------------------------------------------------
    # mapping

    def map_range(self, space: AddressSpace, vaddr: int, pages: list[PhysPage]) -> int:
        """Install leaf translations, creating missing directories top-down.

        Returns the number of new directory entries created. Once every page
        is installed, the range is merged into each transitive subscriber
        from the space it subscribes to; inserts that land inside an already
        shared subtree cost subscribers nothing, and a slot where a leaf
        meets a different entry is skipped. A range that overlaps a mapping
        of the space, or of any space in its graft group (directly or through
        a chain), raises AlreadyMapped before any write.
        """
        if not pages:
            raise ValueError("no pages to map")
        size_class = pages[0].size_class
        n = len(pages)
        if n > 1 and any(p.size_class is not size_class for p in pages):
            raise ValueError("mixed page sizes in one map call")
        size = size_class.nbytes
        if vaddr % size:
            raise ValueError("vaddr must be aligned to the page size")
        end = vaddr + n * size
        geo = self.geometry
        if not (0 <= vaddr and end <= geo.va_limit):
            raise ValueError("range outside the VA width")
        for mapped in space.group_mapped:
            if mapped.first_overlap_end(vaddr, end) is not None:
                raise AlreadyMapped(f"[{vaddr:#x}, {end:#x}) overlaps an existing mapping")

        leaf_level = geo.leaf_level(size_class)
        shifts = geo.level_shifts
        fanout = geo.fanout
        mask = fanout - 1
        new_pdes = 0
        # one walk per leaf node; it takes the run of pages that fall in it
        i = 0
        while i < n:
            va = vaddr + i * size
            node = space.root
            for level in range(leaf_level):
                idx = (va >> shifts[level]) & mask
                entry = node.entries[idx]
                if entry is None:
                    entry = node.entries[idx] = self._new_node(level + 1, space.id)
                    new_pdes += 1
                elif type(entry) is PhysPage:
                    raise AlreadyMapped(f"{va:#x} covered by a leaf at level {level}")
                node = entry
            idx = (va >> shifts[leaf_level]) & mask
            run = pages[i:i + fanout - idx]
            k = len(run)
            if any(node.entries[idx:idx + k]):
                raise AlreadyMapped(f"leaf slots from {va:#x} already occupied")
            node.entries[idx:idx + k] = run
            i += k
        space.mapped.add(vaddr, end)
        for sub, src in self._fanout[space.id]:
            copies, _, _ = self._merge(src, sub, vaddr, end)
            self._apply(copies)
        return new_pdes

    def unmap_range(self, space: AddressSpace, vaddr: int, n_pages: int):
        """Clear n_pages leaves starting at vaddr, pruning emptied directories.

        The space's own table is unmerged first; then every transitive
        subscriber is unmerged once, clearing its copies of the removed
        leaves and pruned directories. One TLB invalidation is issued for
        this space (replicated to subscribers unless replication is off).
        Raises NotMapped before any write, also when a page in the range is
        one the space only sees through a graft: only its owner unmaps it.
        Raises ValueError before any write when `vaddr` is not the base of
        the page it falls in.
        """
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        geo = self.geometry
        mask = geo.fanout - 1
        removed = set()
        va = vaddr
        for _ in range(n_pages):
            node = space.root
            for shift in geo.level_shifts:
                entry = node.entries[(va >> shift) & mask]
                if entry is None:
                    raise NotMapped(f"{va:#x} not mapped")
                if type(entry) is PhysPage:
                    if va & ((1 << shift) - 1):
                        raise ValueError(f"{va:#x} is not the base of its page")
                    break
                node = entry
            else:
                raise NotMapped(f"{va:#x} not mapped")
            removed.add(entry)
            va += 1 << shift
        if not space.mapped.covers(vaddr, va):
            raise NotMapped(f"[{vaddr:#x}, {va:#x}) not mapped by space {space.id}")

        self._unmerge(space.id, space.root, None, 0, vaddr, va, removed)
        for sub, src in self._fanout[space.id]:
            self.copy_log.writes += self._unmerge(sub.id, sub.root, src.root, 0, vaddr, va,
                                                  removed)
        space.mapped.remove(vaddr, va)
        self._invalidate_tlb(space)

    # ------------------------------------------------------------------
    # translation

    def translate(self, space: AddressSpace, vaddr: int) -> tuple[PhysPage, int]:
        """TLB-first translation; on a miss, walk from the root and fill the TLB."""
        geo = self.geometry
        if not 0 <= vaddr < geo.va_limit:
            raise ValueError(f"{vaddr:#x} outside the VA width")
        vpn = vaddr >> geo.page_shift
        hit = space.tlb.get(vpn)
        if hit is not None:
            page, base = hit
            return page, vaddr - base
        node = space.root
        mask = geo.fanout - 1
        for level, shift in enumerate(geo.level_shifts):
            entry = node.entries[(vaddr >> shift) & mask]
            if entry is None:
                raise PageFault(vaddr, level)
            if type(entry) is PhysPage:
                base = vaddr & ~((1 << shift) - 1)
                space.tlb[vpn] = (entry, base)
                return entry, vaddr - base
            node = entry
        raise AssertionError("walk ran past the leaf level")

    def _invalidate_tlb(self, space: AddressSpace):
        spaces = [space]
        if self.propagate_tlb:
            spaces += [sub for sub, _ in self._subscribers(space)]
        for s in spaces:
            s.tlb.clear()
            s.tlb_invalidations += 1
        self.total_tlb_invalidations += len(spaces)

    # ------------------------------------------------------------------
    # grafting

    def graft(self, source: AddressSpace, target: AddressSpace) -> GraftReport:
        """Merge source directory entries into target and subscribe the target.

        Top-down merge over the whole VA: a valid source entry over an empty
        target slot is copied (sharing the whole subtree); two valid
        directories descend one level; an empty source slot is skipped.
        Repeating a graft copies nothing. A leaf that meets a different
        entry raises OverlapDetected before any write.
        """
        if source is target or source.id == target.id:
            raise ValueError("cannot graft a space into itself")
        if self._reaches(target, source.id):
            raise CycleDetected(
                f"space {source.id} is already a transitive subscriber of {target.id}")
        reads = self.copy_log.reads
        copies, depth, collided = self._merge(source, target, 0, self.geometry.va_limit)
        if collided:
            self.copy_log.reads = reads   # a failed graft changes nothing, reads included
            raise OverlapDetected("leaf ranges of the two spaces overlap")
        self._apply(copies)
        if target.id not in source.subscribers:
            source.subscribers.append(target.id)
            for space in self.spaces.values():
                self._fanout[space.id] = tuple(self._collect_subscribers(space))
            group = source.graft_peers | target.graft_peers | {source.id, target.id}
            for sid in group:
                space = self.spaces[sid]
                space.graft_peers = group - {sid}
                space.group_mapped = (space.mapped, *(
                    self.spaces[p].mapped for p in sorted(space.graft_peers)))
        # one invalidation against the target's root; not replicated further
        target.tlb.clear()
        target.tlb_invalidations += 1
        self.total_tlb_invalidations += 1
        return GraftReport(pdes_copied=len(copies), max_depth_descended=depth,
                           entry_writes=len(copies), tlb_invalidations=1)

    def _reaches(self, space: AddressSpace, wanted: int) -> bool:
        return space.id == wanted or any(sub.id == wanted for sub, _ in self._subscribers(space))

    def _subscribers(self, space: AddressSpace) -> tuple:
        """(subscriber, the space it subscribes to) for every transitive
        subscriber of `space`, as computed at the last graft."""
        return self._fanout[space.id]

    def _collect_subscribers(self, space: AddressSpace):
        """Yield (subscriber, the space it subscribes to) for every transitive
        subscriber of `space`, once each, depth first in registration order.
        Each subscriber comes before its own subscribers, so a change applied
        to it is there when they are merged from it."""
        seen = {space.id}
        stack = [(sid, space) for sid in reversed(space.subscribers)]
        while stack:
            sid, src = stack.pop()
            if sid in seen:
                continue
            seen.add(sid)
            sub = self.spaces[sid]
            yield sub, src
            stack.extend((s, sub) for s in reversed(sub.subscribers))

    # ------------------------------------------------------------------
    # merge and unmerge: the two walks behind graft, map and unmap

    def _merge(self, source: AddressSpace, target: AddressSpace, lo: int,
               hi: int) -> tuple[list, int, bool]:
        """Plan what makes `target` show `source`'s entries inside [lo, hi).

        Writes nothing and visits only the slots that overlap the range. A
        source entry over an empty target slot becomes a (node, slot, entry)
        copy, which shares its whole subtree; two different directories
        descend; a leaf that meets a different entry is a collision and is
        skipped. Returns the copies, the deepest level descended into, and
        whether any collision was met.
        """
        geo = self.geometry
        shifts, fanout = geo.level_shifts, geo.fanout
        copies, deepest, collided = [], 0, False
        pairs = [(source.root, target.root, 0)]
        for src, dst, base in pairs:  # grows as directories descend
            shift = shifts[src.level]
            # the slots of this node that overlap [lo, hi)
            first = (lo - base) >> shift if lo > base else 0
            stop = ((hi - base - 1) >> shift) + 1 if hi - base < fanout << shift else fanout
            src_entries, dst_entries = src.entries, dst.entries
            for idx in range(first, stop):
                s = src_entries[idx]
                if s is None:
                    continue
                d = dst_entries[idx]
                if d is None:
                    copies.append((dst, idx, s))
                elif s is d:
                    continue  # already shared
                elif type(s) is type(d) is PageTableNode:
                    deepest = max(deepest, src.level + 1)
                    pairs.append((s, d, base + (idx << shift)))
                elif s != d:  # an identical leaf is not a collision
                    collided = True
        # both nodes of every pair came in through the copy engine
        self.copy_log.reads += 2 * len(pairs)
        return copies, deepest, collided

    def _apply(self, copies: list):
        for node, idx, entry in copies:
            node.entries[idx] = entry
        self.copy_log.writes += len(copies)

    def _unmerge(self, owner: int, node: PageTableNode, src: PageTableNode | None,
                 base: int, lo: int, hi: int, removed: set) -> int:
        """Clear from the table below `node` the entries of `removed` inside
        [lo, hi) that it does not share with `src`, the source's node at the
        same place (None for the space's own table), and prune each directory
        that emptied: its entry joins `removed`, and its node is deleted if
        space `owner` owns it. Returns the entries cleared.

        It recurses as a method: a nested function that calls itself is a
        reference cycle, which would keep the MemorySystem alive until the
        cyclic garbage collector runs."""
        geo = self.geometry
        shift = geo.level_shifts[node.level]
        # the slots of this node that overlap [lo, hi)
        first = (lo - base) >> shift if lo > base else 0
        stop = ((hi - base - 1) >> shift) + 1 if hi - base < geo.fanout << shift else geo.fanout
        entries = node.entries
        src_entries = src.entries if src is not None else None
        cleared = 0
        for idx in range(first, stop):
            e = entries[idx]
            if e is None:
                continue
            s = src_entries[idx] if src_entries is not None else None
            if e is s or (s is not None and e == s):
                continue  # shared: the source's change shows through
            if e not in removed:
                if type(e) is PhysPage:
                    continue
                below = self._unmerge(owner, e, s if type(s) is PageTableNode else None,
                                      base + (idx << shift), lo, hi, removed)
                cleared += below
                if not below or any(e.entries):
                    continue
                removed.add(e)  # emptied by this call: prune it
                if e.owner == owner:
                    self.nodes.pop(e.id, None)
            entries[idx] = None
            cleared += 1
        return cleared

    # ------------------------------------------------------------------
    # oracles and debugging

    def _walk(self, node: PageTableNode, prefix: int = 0):
        """Brute-force walk, depth first in slot order: (node, slot, vaddr,
        entry) for every occupied slot below `node`. The oracles are views of
        it; it shares no code with the merge and unmerge walks they check."""
        entries = node.entries
        shift = self.geometry.level_shifts[node.level]
        for idx, entry in zip(compress(range(len(entries)), entries), filter(None, entries)):
            va = prefix | (idx << shift)
            yield node, idx, va, entry
            if type(entry) is PageTableNode:
                yield from self._walk(entry, va)

    def iter_leaves(self, space: AddressSpace):
        """Brute-force walk yielding (vaddr, PhysPage) for every installed leaf."""
        for _, _, va, entry in self._walk(space.root):
            if type(entry) is PhysPage:
                yield va, entry

    def union_oracle(self, source: AddressSpace, target: AddressSpace) -> dict[int, PhysPage]:
        """Flat vaddr -> physical page map over both tables, by brute-force walk.

        Independent of the graft/propagation machinery: it only enumerates
        leaves. Raises if the two tables disagree about any address.
        """
        result: dict[int, PhysPage] = {}
        for space in (source, target):
            for vaddr, page in self.iter_leaves(space):
                prev = result.get(vaddr)
                if prev is not None and prev != page:
                    raise InconsistentUnion(
                        f"{vaddr:#x} maps to page {prev.id} and page {page.id}")
                result[vaddr] = page
        bases = sorted(result)
        for a, b in zip(bases, bases[1:]):
            if a + result[a].size_class.nbytes > b:
                raise InconsistentUnion(f"leaves at {a:#x} and {b:#x} overlap")
        return result

    def table_shape(self, space: AddressSpace) -> tuple:
        """Canonical structure of a table, independent of node ids: per
        occupied slot, depth first, its level and vaddr and either "dir" or
        the page's id and size class."""
        return tuple((node.level, va, "dir") if type(e) is PageTableNode
                     else (node.level, va, e.id, e.size_class.name)
                     for node, _, va, e in self._walk(space.root))

    def dump_tables(self, space: AddressSpace) -> dict:
        """JSON-friendly dump: every reachable node with its occupied entries."""
        root = space.root
        nodes = {root.id: {"id": root.id, "level": root.level, "entries": {}}}
        for node, idx, _, e in self._walk(root):
            if type(e) is PageTableNode:
                nodes[e.id] = {"id": e.id, "level": e.level, "entries": {}}
                entry = {"dir": e.id}
            else:
                entry = {"leaf": e.id, "size": e.size_class.name}
            nodes[node.id]["entries"][str(idx)] = entry
        return {"root": root.id, "nodes": list(nodes.values())}
