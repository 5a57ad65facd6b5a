"""Software model of per-context GPU page tables with cross-table grafting.

Every simulated GPU context owns a multi-level radix page table. Virtual
addresses are handed out by per-table allocation policies that keep one
table's ranges in a high window and the other's in a low window, so two
tables can be unioned without relocating anything. The union is built by a
top-down recursive merge ("graft") that copies page-directory entries from a
source table into a target at the highest level where the target slot is
free; from then on both tables share the physical subtree below each copied
entry, so leaf-level changes inside a shared subtree are visible to both
sides for free.

After a graft the target is registered as a subscriber of the source.
Structural changes on the source (directory entries inserted or removed) are
replayed against every subscriber, and source-side TLB invalidations are
replicated to subscribers, which keeps the merged view coherent without
re-merging.

Cost accounting follows a copy-engine model: one write per entry modified by
a graft or a propagation, one read per node compared during a merge. The
counters stand in for DMA traffic when comparing grafting against a
per-buffer export/import scheme.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from dataclasses import dataclass, field


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

    @property
    def nbytes(self) -> int:
        return self.value


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

    def __post_init__(self):
        object.__setattr__(self, "level_shifts", tuple(
            self.page_shift + self.bits_per_level * (self.levels - 1 - level)
            for level in range(self.levels)))
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

    @property
    def fanout(self) -> int:
        return 1 << self.bits_per_level

    @property
    def va_limit(self) -> int:
        return 1 << self.va_width

    def entry_span(self, level: int) -> int:
        """Bytes covered by one entry of a node at `level`."""
        return 1 << self.level_shifts[level]

    def index(self, vaddr: int, level: int) -> int:
        return (vaddr >> self.level_shifts[level]) & ((1 << self.bits_per_level) - 1)

    def leaf_level(self, size_class: SizeClass) -> int:
        if size_class is SizeClass.SMALL:
            return self.levels - 1
        return self.big_page_level


@dataclass(frozen=True)
class PhysPage:
    id: int
    size_class: SizeClass


@dataclass(frozen=True)
class DirEntry:
    child: int  # node id


@dataclass(frozen=True)
class LeafEntry:
    page: PhysPage
    perms: str = "rw"


class PageTableNode:
    __slots__ = ("id", "level", "owner", "entries", "live")

    def __init__(self, node_id: int, level: int, owner: int, fanout: int):
        self.id = node_id
        self.level = level
        self.owner = owner  # space id that allocated the node
        self.entries: list = [None] * fanout
        self.live = 0  # occupied slots


class AllocPolicy(enum.Enum):
    HIGH_RANGE = "high"
    LOW_RANGE = "low"


DEFAULT_HIGH_BASE = 0x7000_0000_0000
DEFAULT_LOW_BASE = 0x1_0000_0000
_INF = float("inf")


class _IntervalSet:
    """Sorted disjoint half-open byte ranges mirroring a table's leaf coverage."""

    def __init__(self):
        self._ivals: list[list[int]] = []  # [lo, hi), sorted by lo

    def __iter__(self):
        return iter((lo, hi) for lo, hi in self._ivals)

    def __bool__(self):
        return bool(self._ivals)

    def first_overlap_end(self, lo: int, hi: int) -> int | None:
        """End of the first interval overlapping [lo, hi), or None."""
        ivals = self._ivals
        i = bisect_right(ivals, [lo, _INF]) - 1
        if i >= 0 and ivals[i][1] > lo:
            return ivals[i][1]
        if i + 1 < len(ivals) and ivals[i + 1][0] < hi:
            return ivals[i + 1][1]
        return None

    def intersects(self, other: "_IntervalSet") -> bool:
        return any(other.first_overlap_end(lo, hi) is not None for lo, hi in self._ivals)

    def add(self, lo: int, hi: int):
        insort(self._ivals, [lo, hi])
        # merge touching neighbours
        merged = []
        for ival in self._ivals:
            if merged and ival[0] <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], ival[1])
            else:
                merged.append(ival)
        self._ivals = merged

    def remove(self, lo: int, hi: int):
        out = []
        for a, b in self._ivals:
            if b <= lo or a >= hi:
                out.append([a, b])
                continue
            if a < lo:
                out.append([a, lo])
            if b > hi:
                out.append([hi, b])
        self._ivals = out


class AddressSpace:
    """One context's table: root node, allocation window, subscribers, TLB."""

    def __init__(self, space_id: int, base: int, limit: int, root: int):
        self.id = space_id
        self.base = base
        self.limit = limit
        self.root = root
        self.alloc_cursor = base
        self.subscribers: list[int] = []   # registration order
        self.graft_peers: set[int] = set()
        self.tlb: dict[int, tuple[PhysPage, int]] = {}  # vpn -> (page, leaf base)
        self.tlb_invalidations = 0
        self.conflicts_resolved = 0  # allocation-path address substitutions
        self.mapped = _IntervalSet()


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
        space = AddressSpace(self._next_space, base, limit, root.id)
        self._next_space += 1
        self.spaces[space.id] = space
        return space

    def alloc_phys(self, size_class: SizeClass, count: int = 1) -> list[PhysPage]:
        pages = [PhysPage(self._next_phys + i, size_class) for i in range(count)]
        self._next_phys += count
        return pages

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
        peers = [space.mapped] + [self.spaces[p].mapped for p in space.graft_peers]

        def blocked(lo: int) -> int | None:
            worst = None
            for mapped in peers:
                hi = mapped.first_overlap_end(lo, lo + span)
                if hi is not None and (worst is None or hi > worst):
                    worst = hi
            return worst

        if hint is not None:
            if hint % size:
                raise ValueError("hint must be aligned to the page size")
            if not space.base <= hint or hint + span > space.limit:
                raise ValueError("hint outside the policy window")
            if blocked(hint) is None:
                if hint + span > space.alloc_cursor:
                    space.alloc_cursor = hint + span
                return hint
            space.conflicts_resolved += 1
            start = _align_up(blocked(hint), size)
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

        Returns the number of new directory entries created. Every new
        directory entry (and leaf) fires the structural-change hook toward
        subscribers; inserts that land inside an already shared subtree cost
        subscribers nothing. A range that overlaps a mapping of the space, or
        of a space it has been grafted with, raises AlreadyMapped before any
        write.
        """
        if not pages:
            raise ValueError("no pages to map")
        size_class = pages[0].size_class
        if any(p.size_class is not size_class for p in pages):
            raise ValueError("mixed page sizes in one map call")
        size = size_class.nbytes
        if vaddr % size:
            raise ValueError("vaddr must be aligned to the page size")
        end = vaddr + len(pages) * size
        if not (0 <= vaddr and end <= self.geometry.va_limit):
            raise ValueError("range outside the VA width")
        for sid in (space.id, *space.graft_peers):
            if self.spaces[sid].mapped.first_overlap_end(vaddr, end) is not None:
                raise AlreadyMapped(f"[{vaddr:#x}, {end:#x}) overlaps an existing mapping")

        geo = self.geometry
        leaf_level = geo.leaf_level(size_class)
        shifts = geo.level_shifts
        mask = geo.fanout - 1
        new_pdes = 0
        for i, page in enumerate(pages):
            va = vaddr + i * size
            node = self.nodes[space.root]
            for level in range(leaf_level):
                idx = (va >> shifts[level]) & mask
                entry = node.entries[idx]
                if entry is None:
                    child = self._new_node(level + 1, space.id)
                    entry = DirEntry(child.id)
                    node.entries[idx] = entry
                    node.live += 1
                    new_pdes += 1
                    self._propagate_insert(space, va, level, entry)
                    node = child
                    continue
                if isinstance(entry, LeafEntry):
                    raise AlreadyMapped(f"{va:#x} covered by a leaf at level {level}")
                node = self.nodes[entry.child]
            idx = (va >> shifts[leaf_level]) & mask
            if node.entries[idx] is not None:
                raise AlreadyMapped(f"leaf slot for {va:#x} already occupied")
            leaf = LeafEntry(page)
            node.entries[idx] = leaf
            node.live += 1
            self._propagate_insert(space, va, leaf_level, leaf)
        space.mapped.add(vaddr, end)
        return new_pdes

    def unmap_range(self, space: AddressSpace, vaddr: int, n_pages: int):
        """Clear n_pages leaves starting at vaddr, pruning emptied directories.

        Removals propagate to subscribers, and one TLB invalidation is issued
        for this space (replicated to subscribers unless replication is off).
        """
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        geo = self.geometry
        mask = geo.fanout - 1
        targets = []
        va = vaddr
        for _ in range(n_pages):
            chain = []  # (node, idx) per visited level, leaf last
            node = self.nodes[space.root]
            leaf_span = None
            for shift in geo.level_shifts:
                idx = (va >> shift) & mask
                entry = node.entries[idx]
                if entry is None:
                    raise NotMapped(f"{va:#x} not mapped")
                chain.append((node, idx))
                if isinstance(entry, LeafEntry):
                    leaf_span = 1 << shift
                    break
                node = self.nodes[entry.child]
            if leaf_span is None:
                raise NotMapped(f"{va:#x} not mapped")
            targets.append((va, chain))
            va += leaf_span
        total_end = va

        for va, chain in targets:
            node, idx = chain[-1]
            removed = node.entries[idx]
            node.entries[idx] = None
            node.live -= 1
            self._propagate_remove(space, va, len(chain) - 1, removed)
            # prune directories whose subtree emptied, bottom-up
            for level in range(len(chain) - 2, -1, -1):
                child_node = chain[level + 1][0]
                if child_node.live > 0:
                    break
                parent, pidx = chain[level]
                removed = parent.entries[pidx]
                parent.entries[pidx] = None
                parent.live -= 1
                if child_node.owner == space.id and child_node.id in self.nodes:
                    del self.nodes[child_node.id]
                self._propagate_remove(space, va, level, removed)

        space.mapped.remove(vaddr, total_end)
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
        node = self.nodes[space.root]
        mask = geo.fanout - 1
        for level, shift in enumerate(geo.level_shifts):
            entry = node.entries[(vaddr >> shift) & mask]
            if entry is None:
                raise PageFault(vaddr, level)
            if isinstance(entry, LeafEntry):
                base = vaddr & ~((1 << shift) - 1)
                space.tlb[vpn] = (entry.page, base)
                return entry.page, vaddr - base
            node = self.nodes[entry.child]
        raise AssertionError("walk ran past the leaf level")

    def _invalidate_tlb(self, space: AddressSpace, seen: set | None = None):
        if seen is None:
            seen = set()
        seen.add(space.id)
        space.tlb.clear()
        space.tlb_invalidations += 1
        self.total_tlb_invalidations += 1
        if not self.propagate_tlb:
            return
        for sub_id in space.subscribers:
            if sub_id not in seen:
                self._invalidate_tlb(self.spaces[sub_id], seen)

    # ------------------------------------------------------------------
    # grafting

    def graft(self, source: AddressSpace, target: AddressSpace) -> GraftReport:
        """Merge source directory entries into target and subscribe the target.

        Top-down recursive merge: a valid source entry over an empty target
        slot is copied (sharing the whole subtree); two valid directories
        descend one level; an empty source slot is skipped. Repeating a graft
        copies nothing.
        """
        if source is target or source.id == target.id:
            raise ValueError("cannot graft a space into itself")
        if self._reaches(target, source.id):
            raise CycleDetected(
                f"space {source.id} is already a transitive subscriber of {target.id}")
        if source.mapped.intersects(target.mapped):
            raise OverlapDetected("leaf ranges of the two spaces overlap")

        report = GraftReport()
        self._merge(self.nodes[source.root], self.nodes[target.root], 0, report)
        if target.id not in source.subscribers:
            source.subscribers.append(target.id)
        source.graft_peers.add(target.id)
        target.graft_peers.add(source.id)
        # one invalidation against the target's root; not replicated further
        target.tlb.clear()
        target.tlb_invalidations += 1
        self.total_tlb_invalidations += 1
        report.tlb_invalidations = 1
        return report

    def _reaches(self, space: AddressSpace, wanted: int) -> bool:
        stack, seen = [space.id], set()
        while stack:
            sid = stack.pop()
            if sid == wanted:
                return True
            if sid in seen:
                continue
            seen.add(sid)
            stack.extend(self.spaces[sid].subscribers)
        return False

    def _merge(self, src: PageTableNode, dst: PageTableNode, depth: int,
               report: GraftReport):
        self.copy_log.reads += 2  # both nodes come in through the copy engine
        for idx in range(self.geometry.fanout):
            s = src.entries[idx]
            if s is None:
                continue
            d = dst.entries[idx]
            if s == d:
                continue  # already grafted (or identical leaf)
            if d is None:
                dst.entries[idx] = s
                dst.live += 1
                report.pdes_copied += 1
                report.entry_writes += 1
                self.copy_log.writes += 1
            elif isinstance(s, DirEntry) and isinstance(d, DirEntry):
                if depth + 1 > report.max_depth_descended:
                    report.max_depth_descended = depth + 1
                self._merge(self.nodes[s.child], self.nodes[d.child], depth + 1, report)
            else:
                # unreachable when the interval pre-check passed; kept defensive
                raise OverlapDetected(
                    f"leaf collision at level {src.level}, slot {idx}")

    # ------------------------------------------------------------------
    # structural-change propagation (internal hooks of map/unmap)

    def _entry_path(self, space: AddressSpace, vaddr: int, upto_level: int) -> list[DirEntry]:
        node = self.nodes[space.root]
        path = []
        for level in range(upto_level):
            entry = node.entries[self.geometry.index(vaddr, level)]
            path.append(entry)
            node = self.nodes[entry.child]
        return path

    def _propagate_insert(self, src: AddressSpace, vaddr: int, level: int, entry,
                          seen: set | None = None):
        if not src.subscribers:
            return
        if seen is None:
            seen = {src.id}
        geo = self.geometry
        path = self._entry_path(src, vaddr, level)
        for sub_id in list(src.subscribers):
            if sub_id in seen:
                continue
            seen.add(sub_id)
            sub = self.spaces[sub_id]
            node = self.nodes[sub.root]
            wrote = None
            for l in range(level):
                idx = geo.index(vaddr, l)
                e = node.entries[idx]
                if e is None:
                    # subscriber lacks the path: graft the source's entry here,
                    # which shares the subtree holding the new insert
                    node.entries[idx] = path[l]
                    node.live += 1
                    self.copy_log.writes += 1
                    wrote = (l, path[l])
                    break
                if isinstance(e, LeafEntry):
                    wrote = None  # foreign covering leaf; nothing sane to mirror
                    break
                if e.child == path[l].child:
                    wrote = None  # shared subtree: change already visible
                    break
                node = self.nodes[e.child]
            else:
                idx = geo.index(vaddr, level)
                if node.entries[idx] is None:
                    node.entries[idx] = entry
                    node.live += 1
                    self.copy_log.writes += 1
                    wrote = (level, entry)
            if wrote is not None:
                self._propagate_insert(sub, vaddr, wrote[0], wrote[1], seen)

    def _propagate_remove(self, src: AddressSpace, vaddr: int, level: int, removed,
                          seen: set | None = None):
        if not src.subscribers:
            return
        if seen is None:
            seen = {src.id}
        geo = self.geometry
        path = self._entry_path(src, vaddr, level)
        for sub_id in list(src.subscribers):
            if sub_id in seen:
                continue
            seen.add(sub_id)
            sub = self.spaces[sub_id]
            node = self.nodes[sub.root]
            chain = []  # subscriber-owned (node, idx) above the cleared slot
            blocked = False
            for l in range(level):
                idx = geo.index(vaddr, l)
                e = node.entries[idx]
                if e is None or isinstance(e, LeafEntry) or e.child == path[l].child:
                    blocked = True  # absent, foreign, or shared: nothing to mirror
                    break
                chain.append((node, idx))
                node = self.nodes[e.child]
            if blocked:
                continue
            idx = geo.index(vaddr, level)
            if node.entries[idx] != removed:
                continue
            node.entries[idx] = None
            node.live -= 1
            self.copy_log.writes += 1
            self._propagate_remove(sub, vaddr, level, removed, seen)
            child = node
            for parent, pidx in reversed(chain):
                if child.live > 0:
                    break
                pruned = parent.entries[pidx]
                parent.entries[pidx] = None
                parent.live -= 1
                self.copy_log.writes += 1
                if child.owner == sub.id and child.id in self.nodes:
                    del self.nodes[child.id]
                self._propagate_remove(sub, vaddr, parent.level, pruned, seen)
                child = parent

    # ------------------------------------------------------------------
    # oracles and debugging

    def iter_leaves(self, space: AddressSpace):
        """Brute-force walk yielding (vaddr, LeafEntry) for every installed leaf."""
        geo = self.geometry

        def rec(node: PageTableNode, prefix: int):
            shift = geo.level_shifts[node.level]
            for idx, entry in enumerate(node.entries):
                if entry is None:
                    continue
                va = prefix | (idx << shift)
                if isinstance(entry, LeafEntry):
                    yield va, entry
                else:
                    yield from rec(self.nodes[entry.child], va)

        yield from rec(self.nodes[space.root], 0)

    def union_oracle(self, source: AddressSpace, target: AddressSpace) -> dict[int, PhysPage]:
        """Flat vaddr -> physical page map over both tables, by brute-force walk.

        Independent of the graft/propagation machinery: it only enumerates
        leaves. Raises if the two tables disagree about any address.
        """
        result: dict[int, PhysPage] = {}
        for space in (source, target):
            for vaddr, leaf in self.iter_leaves(space):
                prev = result.get(vaddr)
                if prev is not None and prev != leaf.page:
                    raise InconsistentUnion(
                        f"{vaddr:#x} maps to page {prev.id} and page {leaf.page.id}")
                result[vaddr] = leaf.page
        bases = sorted(result)
        for a, b in zip(bases, bases[1:]):
            if a + result[a].size_class.nbytes > b:
                raise InconsistentUnion(f"leaves at {a:#x} and {b:#x} overlap")
        return result

    def table_shape(self, space: AddressSpace):
        """Canonical structure of a table, independent of node ids."""

        def rec(node: PageTableNode):
            out = []
            for idx, entry in enumerate(node.entries):
                if entry is None:
                    continue
                if isinstance(entry, LeafEntry):
                    out.append((idx, "leaf", entry.page.id, entry.page.size_class.name))
                else:
                    out.append((idx, "dir", rec(self.nodes[entry.child])))
            return tuple(out)

        return rec(self.nodes[space.root])

    def dump_tables(self, space: AddressSpace) -> dict:
        """JSON-friendly dump: every reachable node with its occupied entries."""
        nodes = []
        seen = set()

        def rec(node: PageTableNode):
            if node.id in seen:
                return
            seen.add(node.id)
            entries = {}
            for idx, entry in enumerate(node.entries):
                if entry is None:
                    continue
                if isinstance(entry, LeafEntry):
                    entries[str(idx)] = {"leaf": entry.page.id,
                                         "size": entry.page.size_class.name}
                else:
                    entries[str(idx)] = {"dir": entry.child}
            nodes.append({"id": node.id, "level": node.level, "entries": entries})
            for entry in node.entries:
                if isinstance(entry, DirEntry):
                    rec(self.nodes[entry.child])

        rec(self.nodes[space.root])
        return {"root": space.root, "nodes": nodes}
