"""Page-table, allocator, graft, and propagation behavior.

Structural expectations are verified by independent brute-force walks
(iter_leaves / union_oracle / table_shape), never by trusting the counters
under test.
"""

import gc
import random
import weakref

import pytest

from gpumux.vm import (AddressSpaceExhausted, AllocPolicy, AlreadyMapped,
                       CycleDetected, DEFAULT_HIGH_BASE, DEFAULT_LOW_BASE,
                       InconsistentUnion, MemorySystem, NotMapped, OverlapDetected,
                       PageFault, PageGeometry, PhysPage, SizeClass)

SMALL = SizeClass.SMALL
BIG = SizeClass.BIG


def fresh_pair():
    mem = MemorySystem()
    high = mem.create_space(AllocPolicy.HIGH_RANGE)
    low = mem.create_space(AllocPolicy.LOW_RANGE)
    return mem, high, low


def map_new(mem, space, n_pages=1, size_class=SMALL, hint=None):
    va = mem.allocate(space, n_pages, size_class, hint=hint)
    mem.map_range(space, va, mem.alloc_phys(size_class, n_pages))
    return va


def count_dir_entries(mem, space):
    """Independent count of directory entries by walking the dump."""
    dump = mem.dump_tables(space)
    return sum(1 for node in dump["nodes"] for e in node["entries"].values()
               if "dir" in e)


# ----------------------------------------------------------------------
# allocation

def test_first_allocations_land_at_policy_bases():
    mem, high, low = fresh_pair()
    assert mem.allocate(high, 1, SMALL) == DEFAULT_HIGH_BASE
    assert mem.allocate(low, 1, SMALL) == DEFAULT_LOW_BASE


def test_allocations_advance_and_align():
    mem, high, _ = fresh_pair()
    a = mem.allocate(high, 3, SMALL)
    b = mem.allocate(high, 1, BIG)
    assert b >= a + 3 * SMALL.nbytes
    assert b % BIG.nbytes == 0


def test_hint_conflict_falls_back_and_counts():
    mem, high, _ = fresh_pair()
    va = map_new(mem, high)
    got = mem.allocate(high, 1, SMALL, hint=va)
    assert got != va
    assert high.conflicts_resolved == 1
    mem.map_range(high, got, mem.alloc_phys(SMALL))
    # overlap-scan oracle over every leaf range
    leaves = sorted(base for base, _ in mem.iter_leaves(high))
    for a, b in zip(leaves, leaves[1:]):
        assert a + SMALL.nbytes <= b


def test_hint_honored_when_free():
    mem, high, _ = fresh_pair()
    hint = DEFAULT_HIGH_BASE + 64 * SMALL.nbytes
    assert mem.allocate(high, 1, SMALL, hint=hint) == hint
    assert high.conflicts_resolved == 0


def test_allocator_exhaustion():
    mem = MemorySystem()
    tiny = mem.create_space(AllocPolicy.LOW_RANGE, base=DEFAULT_LOW_BASE,
                            limit=DEFAULT_LOW_BASE + 2 * SMALL.nbytes)
    mem.allocate(tiny, 2, SMALL)
    with pytest.raises(AddressSpaceExhausted):
        mem.allocate(tiny, 1, SMALL)


def test_allocate_checks_peer_overlap_after_graft():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    # a hint colliding with the grafted-in source range must be substituted
    got = mem.allocate(low, 1, SMALL, hint=None)
    va_high = DEFAULT_HIGH_BASE
    assert got != va_high
    assert not (va_high <= got < va_high + SMALL.nbytes)


# ----------------------------------------------------------------------
# map / unmap / translate

def test_first_small_map_creates_one_directory_per_nonleaf_level():
    mem, high, _ = fresh_pair()
    va = mem.allocate(high, 1, SMALL)
    new_pdes = mem.map_range(high, va, mem.alloc_phys(SMALL))
    # independent check: walk the table and count directory entries
    assert count_dir_entries(mem, high) == mem.geometry.levels - 1
    assert new_pdes == mem.geometry.levels - 1 == 4


def test_adjacent_map_creates_no_new_directories():
    mem, high, _ = fresh_pair()
    map_new(mem, high)
    va2 = mem.allocate(high, 1, SMALL)
    assert mem.map_range(high, va2, mem.alloc_phys(SMALL)) == 0


def test_big_page_maps_at_its_level():
    mem, high, _ = fresh_pair()
    va = mem.allocate(high, 1, BIG)
    new_pdes = mem.map_range(high, va, mem.alloc_phys(BIG))
    assert new_pdes == mem.geometry.big_page_level  # directories above the big leaf
    page, off = mem.translate(high, va + 0x12345)
    assert page.size_class is BIG and off == 0x12345


def test_double_map_raises():
    mem, high, _ = fresh_pair()
    va = map_new(mem, high)
    with pytest.raises(AlreadyMapped):
        mem.map_range(high, va, mem.alloc_phys(SMALL))


def test_map_over_graft_peer_leaves_raises_before_writing():
    mem, high, low = fresh_pair()
    va = map_new(mem, high, n_pages=4)
    mem.graft(high, low)

    def state():
        return ([list(mem.iter_leaves(s)) for s in (high, low)],
                mem.union_oracle(high, low), [list(s.mapped) for s in (high, low)])

    before = state()
    with pytest.raises(AlreadyMapped):
        mem.map_range(low, va - 2 * SMALL.nbytes, mem.alloc_phys(SMALL, 3))
    assert state() == before


def test_map_unmap_round_trip_restores_structure():
    mem, high, _ = fresh_pair()
    anchor = map_new(mem, high)  # stays mapped
    shape_before = mem.table_shape(high)
    inv_before = high.tlb_invalidations
    va = map_new(mem, high, n_pages=3)
    mem.unmap_range(high, va, 3)
    assert mem.table_shape(high) == shape_before
    assert high.tlb_invalidations == inv_before + 1  # no subscribers
    assert mem.translate(high, anchor)


def test_unmap_unmapped_raises():
    mem, high, _ = fresh_pair()
    with pytest.raises(NotMapped):
        mem.unmap_range(high, DEFAULT_HIGH_BASE, 1)


def test_unmap_of_zero_pages_rejected():
    mem, high, low = fresh_pair()
    va = map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    before = mem.total_tlb_invalidations
    with pytest.raises(ValueError):
        mem.unmap_range(high, va, 0)
    assert mem.total_tlb_invalidations == before


@pytest.mark.parametrize("size_class, offset", [(BIG, SMALL.nbytes), (SMALL, 8)])
def test_unmap_inside_a_page_raises_and_changes_nothing(size_class, offset):
    # an address past the base of its page would clear the whole page but
    # drop [vaddr, vaddr + size) from `mapped`, which spans into the next one
    mem, high, low = fresh_pair()
    mem.graft(high, low)
    va = map_new(mem, high, n_pages=2, size_class=size_class)

    def state():
        return ([mem.table_shape(s) for s in (high, low)],
                [list(s.mapped) for s in (high, low)],
                (mem.copy_log.reads, mem.copy_log.writes))

    before = state()
    with pytest.raises(ValueError):
        mem.unmap_range(high, va + offset, 1)
    assert state() == before
    mem.unmap_range(high, va + size_class.nbytes, 1)
    mem.unmap_range(high, va, 1)
    assert list(high.mapped) == [] and list(mem.iter_leaves(low)) == []


def test_translate_empty_space_faults_at_root():
    mem, high, _ = fresh_pair()
    with pytest.raises(PageFault) as exc:
        mem.translate(high, DEFAULT_HIGH_BASE)
    assert exc.value.level == 0
    assert exc.value.vaddr == DEFAULT_HIGH_BASE


def test_translate_offsets():
    mem, high, _ = fresh_pair()
    va = mem.allocate(high, 1, SMALL)
    (page,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [page])
    got_page, off = mem.translate(high, va + 0x10)
    assert got_page == page and off == 0x10


def test_partial_walk_fault_level():
    mem, high, _ = fresh_pair()
    map_new(mem, high)
    # same top levels, different leaf: the walk gets further than the root
    with pytest.raises(PageFault) as exc:
        mem.translate(high, DEFAULT_HIGH_BASE + 64 * SMALL.nbytes)
    assert exc.value.level > 0


def test_range_map_matches_one_page_per_call():
    # runs that straddle leaf-node boundaries: a 2 MiB (small-page leaf node),
    # a 512 GiB (level-1 entry) and a 1 GiB (big-page leaf node) boundary
    runs = [(DEFAULT_HIGH_BASE + BIG.nbytes - 3 * SMALL.nbytes, SMALL, 1100),
            (DEFAULT_HIGH_BASE + (1 << 39) - 2 * SMALL.nbytes, SMALL, 5),
            (DEFAULT_HIGH_BASE + (1 << 30) - 2 * BIG.nbytes, BIG, 5)]
    ranged, single = fresh_pair(), fresh_pair()
    for mem, high, low in (ranged, single):
        map_new(mem, high)
        mem.graft(high, low)
    new_pdes = [0, 0]
    for va, size_class, n in runs:
        pages = ranged[0].alloc_phys(size_class, n)
        new_pdes[0] += ranged[0].map_range(ranged[1], va, pages)
        for i, page in enumerate(pages):
            new_pdes[1] += single[0].map_range(single[1], va + i * size_class.nbytes, [page])

    def state(mem, high, low):
        return ([mem.table_shape(s) for s in (high, low)],
                [dict(mem.iter_leaves(s)) for s in (high, low)],
                [mem.dump_tables(s) for s in (high, low)], len(mem.nodes),
                mem.copy_log.writes)

    assert new_pdes[0] == new_pdes[1]
    assert state(*ranged) == state(*single)
    assert len(dict(ranged[0].iter_leaves(ranged[1]))) == 1 + 1100 + 5 + 5

    def translations(mem, high, low, va):
        out = []
        for space in (high, low):
            try:
                out.append(mem.translate(space, va))
            except PageFault as exc:
                out.append(exc.level)
        return out

    for va, size_class, n in runs:
        # every page of the run, and the small page on either side of it
        size = size_class.nbytes
        for v in (va - SMALL.nbytes, *range(va, va + n * size, size), va + n * size):
            assert translations(*ranged, v + 8) == translations(*single, v + 8)


# ----------------------------------------------------------------------
# grafting

def test_graft_two_empty_spaces():
    mem, high, low = fresh_pair()
    report = mem.graft(high, low)
    assert report.pdes_copied == 0
    assert report.tlb_invalidations == 1
    assert mem.union_oracle(high, low) == {}


def test_graft_default_layout_copies_one_pde():
    # Default bases share the (single used) root slot, so the merge descends
    # once and copies the source's level-1 entry.
    mem, high, low = fresh_pair()
    va_h = map_new(mem, high)
    va_l = map_new(mem, low)
    report = mem.graft(high, low)
    assert report.pdes_copied == 1
    assert report.max_depth_descended == 1
    assert report.entry_writes == 1
    assert mem.translate(low, va_h) == mem.translate(high, va_h)
    assert dict(mem.iter_leaves(low))[va_l] == mem.translate(low, va_l)[0]


def test_graft_distinct_top_level_indices_resolves_at_root():
    # With a VA width that spans the whole radix, bases can be placed so the
    # two tables use different root slots; the merge then copies one entry
    # without descending.
    geo = PageGeometry(va_width=57)
    mem = MemorySystem(geo)
    high = mem.create_space(AllocPolicy.HIGH_RANGE, base=1 << 48, limit=1 << 49)
    low = mem.create_space(AllocPolicy.LOW_RANGE)
    assert geo.index(1 << 48, 0) != geo.index(DEFAULT_LOW_BASE, 0)
    map_new(mem, high)
    map_new(mem, low)
    report = mem.graft(high, low)
    assert report.pdes_copied == 1
    assert report.max_depth_descended == 0
    assert dict(mem.iter_leaves(low)) == mem.union_oracle(high, low)


def test_graft_forced_deep_collision():
    # Neighbouring big pages force the merge down to the big-page level.
    mem, high, low = fresh_pair()
    map_new(mem, high, size_class=BIG)
    mem.map_range(low, DEFAULT_HIGH_BASE + BIG.nbytes, mem.alloc_phys(BIG))
    report = mem.graft(high, low)
    assert report.max_depth_descended >= 1
    walked = dict(mem.iter_leaves(low))
    assert walked == mem.union_oracle(high, low)
    assert len(walked) == 2


def test_graft_idempotent():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    again = mem.graft(high, low)
    assert again.pdes_copied == 0
    assert low.id in high.subscribers and high.subscribers.count(low.id) == 1


def test_graft_overlap_detected():
    mem, high, low = fresh_pair()
    va = map_new(mem, high)
    mem.map_range(low, va, mem.alloc_phys(SMALL))  # same VA, different page
    with pytest.raises(OverlapDetected):
        mem.graft(high, low)


def test_graft_cycles_rejected():
    mem, high, low = fresh_pair()
    mem.graft(high, low)
    with pytest.raises(CycleDetected):
        mem.graft(low, high)
    third = mem.create_space(AllocPolicy.LOW_RANGE,
                             base=DEFAULT_LOW_BASE + (1 << 32))
    mem.graft(low, third)
    with pytest.raises(CycleDetected):
        mem.graft(third, high)


def test_graft_self_rejected():
    mem, high, _ = fresh_pair()
    with pytest.raises(ValueError):
        mem.graft(high, high)


# ----------------------------------------------------------------------
# structural propagation

def test_intra_subtree_map_costs_subscribers_nothing():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    before = mem.copy_log.writes
    va = map_new(mem, high, size_class=BIG)
    assert mem.copy_log.writes == before  # shared subtree absorbs it
    assert mem.translate(low, va)[0] == mem.translate(high, va)[0]


def test_frontier_crossing_map_costs_one_write_per_subscriber():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    before = mem.copy_log.writes
    # next level-1 region, outside every subtree grafted so far
    hint = DEFAULT_HIGH_BASE + mem.geometry.entry_span(1)
    va = map_new(mem, high, size_class=BIG, hint=hint)
    assert mem.copy_log.writes == before + 1
    assert mem.translate(low, va)[0] == mem.translate(high, va)[0]


def test_two_subscribers_cost_two_writes():
    mem = MemorySystem()
    high = mem.create_space(AllocPolicy.HIGH_RANGE)
    low_a = mem.create_space(AllocPolicy.LOW_RANGE)
    low_b = mem.create_space(AllocPolicy.LOW_RANGE,
                             base=DEFAULT_LOW_BASE + (1 << 32))
    map_new(mem, high)
    map_new(mem, low_a)
    map_new(mem, low_b)
    mem.graft(high, low_a)
    mem.graft(high, low_b)
    before = mem.copy_log.writes
    hint = DEFAULT_HIGH_BASE + mem.geometry.entry_span(1)
    va = map_new(mem, high, size_class=BIG, hint=hint)
    assert mem.copy_log.writes == before + 2
    for sub in (low_a, low_b):
        assert mem.translate(sub, va)[0] == mem.translate(high, va)[0]


def test_chained_subscription_propagates_transitively():
    mem = MemorySystem()
    high = mem.create_space(AllocPolicy.HIGH_RANGE)
    mid = mem.create_space(AllocPolicy.LOW_RANGE)
    last = mem.create_space(AllocPolicy.LOW_RANGE,
                            base=DEFAULT_LOW_BASE + (1 << 32))
    map_new(mem, high)
    map_new(mem, mid)
    map_new(mem, last)
    mem.graft(high, mid)
    mem.graft(mid, last)
    va = map_new(mem, high, size_class=BIG,
                 hint=DEFAULT_HIGH_BASE + mem.geometry.entry_span(1))
    assert mem.translate(last, va)[0] == mem.translate(high, va)[0]


def test_unmap_propagates_removal():
    mem, high, low = fresh_pair()
    anchor = map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    va = map_new(mem, high, size_class=BIG)
    assert mem.translate(low, va)
    mem.unmap_range(mem.spaces[high.id], va, 1)
    with pytest.raises(PageFault):
        mem.translate(low, va)
    assert mem.translate(low, anchor)  # the rest of the graft survives
    walked = dict(mem.iter_leaves(low))
    assert walked == mem.union_oracle(high, low)


def test_source_full_unmap_prunes_subscriber_frontier():
    mem, high, low = fresh_pair()
    va = map_new(mem, high)
    keep = map_new(mem, low)
    mem.graft(high, low)
    mem.unmap_range(high, va, 1)
    with pytest.raises(PageFault):
        mem.translate(low, va)
    assert mem.translate(low, keep)
    assert dict(mem.iter_leaves(low)) == \
        mem.union_oracle(high, low)


def test_subscriber_directory_emptied_by_the_unmerge_is_pruned():
    # both roots hold their own level-1 node at slot 0, and the graft copies
    # high's level-2 node into low's; once low's own page and then all of
    # high's are gone, the unmerge clears that copy, which empties low's
    # level-1 node: it is pruned from low's root and deleted
    mem, high, low = fresh_pair()
    small = map_new(mem, high, 2)
    own = map_new(mem, low)
    mem.graft(high, low)
    big = map_new(mem, high, size_class=BIG)
    mem.unmap_range(low, own, 1)
    writes = mem.copy_log.writes
    mem.unmap_range(high, small, 2)
    mem.unmap_range(high, big, 1)
    assert mem.copy_log.writes - writes == 2   # the copied entry, then low's root slot
    assert not any(low.root.entries) and not any(high.root.entries)
    reachable = {n["id"] for s in (high, low) for n in mem.dump_tables(s)["nodes"]}
    assert set(mem.nodes) == reachable == {high.root.id, low.root.id}
    assert list(mem.iter_leaves(high)) == list(mem.iter_leaves(low)) == []


def test_unmap_through_a_graft_raises_and_changes_nothing():
    # low sees high's page only through the graft; only high may unmap it
    mem, high, low = fresh_pair()
    mem.graft(high, low)
    va = map_new(mem, high)
    page = mem.translate(high, va)

    def state():
        return ([mem.table_shape(s) for s in (high, low)],
                [list(s.mapped) for s in (high, low)],
                (mem.copy_log.reads, mem.copy_log.writes))

    before = state()
    with pytest.raises(NotMapped):
        mem.unmap_range(low, va, 1)
    assert state() == before
    assert mem.translate(high, va) == page
    mem.unmap_range(high, va, 1)
    with pytest.raises(PageFault):
        mem.translate(low, va)


# ----------------------------------------------------------------------
# TLB behavior

def test_unmap_invalidates_source_and_subscribers():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    va = map_new(mem, high)
    total_before = mem.total_tlb_invalidations
    low_before = low.tlb_invalidations
    mem.unmap_range(high, va, 1)
    assert mem.total_tlb_invalidations == total_before + 2  # source + 1 subscriber
    assert low.tlb_invalidations == low_before + 1


def test_stale_translation_without_invalidation_propagation():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    va = mem.allocate(high, 1, SMALL)
    (first,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [first])
    assert mem.translate(low, va)[0] == first  # warms the subscriber TLB
    stale = dict(low.tlb)
    mem.unmap_range(high, va, 1)
    low.tlb.update(stale)   # as if the invalidation never reached the subscriber
    (second,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [second])
    assert mem.translate(high, va)[0] == second
    assert mem.translate(low, va)[0] == first  # stale: subscriber never flushed


def test_propagated_invalidation_prevents_staleness():
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    va = mem.allocate(high, 1, SMALL)
    (first,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [first])
    assert mem.translate(low, va)[0] == first
    mem.unmap_range(high, va, 1)
    (second,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [second])
    assert mem.translate(low, va)[0] == second


# ----------------------------------------------------------------------
# union oracle

def test_union_oracle_disjoint_sizes_add():
    mem, high, low = fresh_pair()
    map_new(mem, high, n_pages=3)
    map_new(mem, low, n_pages=2)
    assert len(mem.union_oracle(high, low)) == 5


def test_union_oracle_flags_conflicts():
    mem, high, low = fresh_pair()
    va = map_new(mem, high)
    mem.map_range(low, va, mem.alloc_phys(SMALL))
    with pytest.raises(InconsistentUnion):
        mem.union_oracle(high, low)


# ----------------------------------------------------------------------
# determinism

def _scripted_run():
    mem, high, low = fresh_pair()
    ops = []
    va1 = map_new(mem, high, n_pages=2)
    va2 = map_new(mem, low, n_pages=1)
    ops.append(mem.graft(high, low))
    va3 = map_new(mem, high, size_class=BIG)
    mem.unmap_range(high, va1, 2)
    return (mem.table_shape(high), mem.table_shape(low), ops[0],
            mem.copy_log.reads, mem.copy_log.writes,
            mem.total_tlb_invalidations, va1, va2, va3)


def test_identical_sequences_produce_identical_state():
    assert _scripted_run() == _scripted_run()


def test_randomized_default_policies_never_conflict():
    # smaller sibling of the acceptance property: default policies keep a
    # grafted pair disjoint, with zero allocator conflicts
    rng = random.Random(7)
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    owned = {high.id: [], low.id: []}
    for _ in range(300):
        space = high if rng.random() < 0.5 else low
        if owned[space.id] and rng.random() < 0.3:
            va, n = owned[space.id].pop(rng.randrange(len(owned[space.id])))
            mem.unmap_range(space, va, n)
        else:
            n = rng.randint(1, 4)
            va = map_new(mem, space, n_pages=n)
            owned[space.id].append((va, n))
    assert high.conflicts_resolved == 0
    assert low.conflicts_resolved == 0
    walked = dict(mem.iter_leaves(low))
    assert walked == mem.union_oracle(high, low)


# ----------------------------------------------------------------------
# graft chains and failed grafts

GiB = 1 << 30
H = DEFAULT_HIGH_BASE


def graft_chain(map_big_first=False):
    """a -> b -> c where c's own level-2 node receives a's entries: the
    change in a lands in a subtree b shares, but c does not."""
    mem = MemorySystem()
    a = mem.create_space(AllocPolicy.HIGH_RANGE, base=H + GiB)
    b = mem.create_space(AllocPolicy.LOW_RANGE)
    c = mem.create_space(AllocPolicy.HIGH_RANGE, base=H, limit=H + GiB)
    for space in (a, b, c):
        mem.map_range(space, space.base, mem.alloc_phys(SMALL))
    if map_big_first:
        mem.map_range(a, H + 2 * GiB, mem.alloc_phys(BIG))
    mem.graft(a, b)
    mem.graft(b, c)
    return mem, a, b, c


def test_chain_insert_reaches_the_tail():
    mem, a, b, c = graft_chain()
    (page,) = mem.alloc_phys(BIG)
    mem.map_range(a, H + 2 * GiB, [page])
    assert mem.translate(c, H + 2 * GiB)[0] == page
    assert dict(mem.iter_leaves(c)) == mem.union_oracle(b, c)


def test_chain_remove_reaches_the_tail():
    mem, a, b, c = graft_chain(map_big_first=True)
    assert mem.translate(c, H + 2 * GiB)
    mem.unmap_range(a, H + 2 * GiB, 1)
    with pytest.raises(PageFault):
        mem.translate(c, H + 2 * GiB)
    walked = dict(mem.iter_leaves(c))
    assert walked == mem.union_oracle(b, c)
    assert sorted(walked) == [b.base, H, H + GiB]


def test_chain_map_into_the_heads_range_changes_nothing():
    # c sees a's page at H + GiB only through b; the second page collides
    mem, a, b, c = graft_chain()
    start = H + GiB - SMALL.nbytes

    def state():
        return [mem.table_shape(s) for s in (a, b, c)], list(c.mapped), mem.copy_log.writes

    before = state()
    with pytest.raises(AlreadyMapped):
        mem.map_range(c, start, mem.alloc_phys(SMALL, 2))
    assert state() == before
    with pytest.raises(PageFault):
        mem.translate(c, start)


# ----------------------------------------------------------------------
# unmaps that span several leaf nodes

def vm_state(mem, spaces):
    return ([mem.dump_tables(s) for s in spaces], [mem.table_shape(s) for s in spaces],
            [list(s.mapped) for s in spaces], (mem.copy_log.reads, mem.copy_log.writes),
            list(mem.nodes))


@pytest.mark.parametrize("chain", [False, True], ids=["pair_2mib", "chain_1gib"])
def test_unmap_across_leaf_nodes_restores_every_table(chain):
    # the pair's run straddles a 2 MiB boundary inside the subtree both
    # tables share; the chain's crosses a 1 GiB one, where c holds copies
    if chain:
        mem, a, b, c = graft_chain()
        spaces, source, start = (a, b, c), a, H + 2 * GiB - SMALL.nbytes
    else:
        mem, high, low = fresh_pair()
        map_new(mem, high)
        map_new(mem, low)
        mem.graft(high, low)
        spaces, source, start = (high, low), high, H + BIG.nbytes - SMALL.nbytes
    shapes = [mem.table_shape(s) for s in spaces]
    nodes = list(mem.nodes)
    assert map_new(mem, source, n_pages=3, hint=start) == start
    assert mem.translate(spaces[-1], start + 2 * SMALL.nbytes)
    mem.unmap_range(source, start, 3)
    assert [mem.table_shape(s) for s in spaces] == shapes
    assert list(mem.nodes) == nodes
    assert dict(mem.iter_leaves(spaces[-1])) == mem.union_oracle(spaces[-2], spaces[-1])


@pytest.mark.parametrize("layout", [(BIG, SMALL, SMALL), (SMALL, SMALL, BIG)],
                         ids=["big_first", "big_last"])
def test_unmap_of_big_and_small_pages_in_one_call(layout):
    mem, high, low = fresh_pair()
    map_new(mem, high)
    map_new(mem, low)
    mem.graft(high, low)
    before = vm_state(mem, (high, low))
    start = H + 4 * BIG.nbytes - (0 if layout[0] is BIG else 2 * SMALL.nbytes)
    va = start
    for size_class in layout:
        mem.map_range(high, va, mem.alloc_phys(size_class))
        va += size_class.nbytes
    mem.unmap_range(high, start, 3)
    _, shapes, mapped, _, nodes = vm_state(mem, (high, low))
    assert (shapes, mapped, nodes) == (before[1], before[2], before[4])  # copy_log has moved
    assert dict(mem.iter_leaves(low)) == mem.union_oracle(high, low)


def test_unmap_over_a_hole_raises_and_changes_nothing():
    # the hole is the first page of the second leaf node, so the first
    # node's run is checked, and must not be cleared, before it is found
    mem, high, low = fresh_pair()
    mem.graft(high, low)
    start = map_new(mem, high, n_pages=3, hint=H + BIG.nbytes - SMALL.nbytes)
    mem.unmap_range(high, H + BIG.nbytes, 1)
    before = vm_state(mem, (high, low))
    with pytest.raises(NotMapped, match=f"^{H + BIG.nbytes:#x} not mapped$"):
        mem.unmap_range(high, start, 3)
    assert vm_state(mem, (high, low)) == before


def test_unmap_unmerges_each_subscriber_once_and_not_its_own_table(monkeypatch):
    owners = []
    real = MemorySystem._unmerge

    def counting(self, owner, node, *args):
        if node.level == 0:   # a top-level call: recursive ones start below a root
            owners.append(owner)
        return real(self, owner, node, *args)

    monkeypatch.setattr(MemorySystem, "_unmerge", counting)
    mem, a, b, c = graft_chain()
    lone = mem.create_space(AllocPolicy.LOW_RANGE)
    for space in (a, b, c, lone):
        owners.clear()
        mem.unmap_range(space, map_new(mem, space, n_pages=2), 2)
        assert owners == [sub.id for sub, _ in mem._fanout[space.id]]
    assert [len(mem._fanout[s.id]) for s in (a, b, c, lone)] == [2, 1, 0, 0]


def test_copy_engine_counts_are_pinned():
    """Exact copy-engine reads and writes for two fixed sequences, with the
    values measured at the commit before the merge and unmerge walks
    computed their slot bounds inline. The golden digests see only writes,
    so this is the test that catches a miscounted read."""
    # the graftbench loop at n = 4096: 4 reads for the graft (its root pair
    # and level-1 pair), then 4 a map, which stops at the shared level-2 node
    mem, high, low = fresh_pair()
    for space in (high, low):
        map_new(mem, space, n_pages=2)
    mem.graft(high, low)
    for _ in range(4096):
        map_new(mem, high, size_class=BIG)
    assert (mem.copy_log.reads, mem.copy_log.writes) == (16388, 1)

    # a seeded map/unmap/translate mix on the chain a -> b -> c, with hints
    # spread over 1 GiB and 512 GiB regions, so that maps cross the shared
    # frontier and unmaps prune directories that subscribers copied
    rng = random.Random(2026)
    mem, a, b, c = graft_chain()
    regions = {a.id: [H + GiB * k for k in (1, 2, 512, 513, 1024)],
               b.id: [b.base + GiB * k for k in (0, 1, 512)], c.id: [H]}
    owned = {space.id: [] for space in (a, b, c)}
    for _ in range(400):
        space = rng.choice((a, b, c))
        mine = owned[space.id]
        roll = rng.random()
        if roll < 0.45 or not mine:
            size_class = BIG if rng.random() < 0.2 else SMALL
            n = 1 if size_class is BIG else rng.randint(1, 3)
            pages = mem.alloc_phys(size_class, n)
            hint = rng.choice(regions[space.id]) + rng.randrange(4) * BIG.nbytes
            va = mem.allocate(space, n, size_class, hint=hint)
            mem.map_range(space, va, pages)
            mine.append((va, pages))
        elif roll < 0.8:
            va, pages = mine.pop(rng.randrange(len(mine)))
            mem.unmap_range(space, va, len(pages))
        else:
            va, pages = rng.choice(mine)
            k = rng.randrange(len(pages))
            assert mem.translate(c, va + k * pages[0].size_class.nbytes) == (pages[k], 0)
    assert dict(mem.iter_leaves(c)) == mem.union_oracle(b, c)
    assert (mem.copy_log.reads, mem.copy_log.writes) == (928, 41)


def test_failed_graft_changes_nothing():
    mem = MemorySystem()
    s1 = mem.create_space(AllocPolicy.HIGH_RANGE, base=H + GiB)
    s2 = mem.create_space(AllocPolicy.HIGH_RANGE, base=H)
    t = mem.create_space(AllocPolicy.LOW_RANGE)
    mem.map_range(s1, H + GiB, mem.alloc_phys(SMALL))
    mem.map_range(s2, H, mem.alloc_phys(SMALL))
    mem.map_range(s2, H + GiB, mem.alloc_phys(SMALL))
    mem.map_range(t, t.base, mem.alloc_phys(SMALL))
    mem.graft(s1, t)
    spaces = (s1, s2, t)

    def state():
        return ([mem.table_shape(s) for s in spaces], [list(s.subscribers) for s in spaces],
                [set(s.graft_peers) for s in spaces],
                (mem.copy_log.reads, mem.copy_log.writes))

    before = state()
    with pytest.raises(OverlapDetected):
        mem.graft(s2, t)
    assert state() == before


# Two open graft bugs. Each test asserts the correct
# behaviour and is a strict xfail, so the fix has to flip it.

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="b's merge writes into a directory node a owns")
def test_two_sources_grafted_into_one_target_stay_apart():
    mem = MemorySystem()
    a = mem.create_space(AllocPolicy.HIGH_RANGE, base=H)
    b = mem.create_space(AllocPolicy.HIGH_RANGE, base=H + 4 * GiB)
    g = mem.create_space(AllocPolicy.LOW_RANGE)
    for space in (a, b, g):
        mem.map_range(space, space.base, mem.alloc_phys(SMALL))
    own = dict(mem.iter_leaves(a))
    mem.graft(a, g)
    mem.graft(b, g)
    assert dict(mem.iter_leaves(a)) == own


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a graft into t is not replayed to t's subscribers")
def test_graft_into_a_subscribed_space_reaches_its_subscribers():
    mem = MemorySystem()
    t = mem.create_space(AllocPolicy.HIGH_RANGE, base=H)
    u = mem.create_space(AllocPolicy.LOW_RANGE)
    s = mem.create_space(AllocPolicy.HIGH_RANGE, base=H + 600 * GiB)
    for space in (s, t, u):
        mem.map_range(space, space.base, mem.alloc_phys(SMALL))
    mem.graft(t, u)
    mem.graft(s, t)
    assert dict(mem.iter_leaves(u)) == mem.union_oracle(t, u)


def test_memory_system_is_freed_by_reference_counting():
    # graft-time state must not make a reference cycle among the spaces
    gc.disable()
    try:
        mem, a, b, c = graft_chain()
        va = map_new(mem, a)
        assert mem.translate(c, va)
        mem.unmap_range(a, va, 1)
        refs = weakref.ref(mem), weakref.ref(b)
        del mem, a, b, c
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# value types

def test_page_and_size_class_values():
    assert PhysPage(3, SMALL) == PhysPage(3, SMALL)
    assert hash(PhysPage(3, SMALL)) == hash(PhysPage(3, SMALL))
    assert PhysPage(3, SMALL) != PhysPage(3, BIG)
    assert PhysPage(3, SMALL) != PhysPage(4, SMALL)
    assert PhysPage(3, SMALL) != (3, SMALL)
    assert repr(PhysPage(3, SMALL)) == "PhysPage(id=3, size_class=<SizeClass.SMALL: 4096>)"
    for size_class in SizeClass:
        assert size_class.nbytes == size_class.value


# ----------------------------------------------------------------------
# leaf-coverage interval set

def check_interval_set(ivals, covered, qlo, qhi):
    """`ivals` against the byte-set model `covered`, and one query."""
    runs = list(ivals)
    # disjoint, sorted, not touching, and exactly the covered bytes
    assert all(a < b for a, b in runs)
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(runs, runs[1:]))
    assert {x for a, b in runs for x in range(a, b)} == covered
    hits = [b for a, b in runs if a < qhi and b > qlo]
    assert ivals.first_overlap_end(qlo, qhi) == (hits[0] if hits else None)
    assert ivals.covers(qlo, qhi) == (set(range(qlo, qhi)) <= covered)


def test_interval_set_matches_a_brute_force_model():
    from gpumux.vm import _IntervalSet
    rng = random.Random(11)
    for _ in range(300):
        ivals, covered = _IntervalSet(), set()
        for _ in range(40):
            lo = rng.randrange(64)
            hi = lo + rng.randint(1, 12)
            if rng.random() < 0.6:
                ivals.add(lo, hi)
                covered |= set(range(lo, hi))
            else:
                ivals.remove(lo, hi)
                covered -= set(range(lo, hi))
            qlo = rng.randrange(80)
            check_interval_set(ivals, covered, qlo, qlo + rng.randint(1, 12))


def test_interval_set_under_the_allocator_pattern():
    # the allocator's adds ascend: each starts at the last end (touching) or
    # past it (gapped), so they take the tail path of `add`; the removes in
    # between split interior intervals and trim the last one
    from gpumux.vm import _IntervalSet
    rng = random.Random(12)
    for _ in range(200):
        ivals, covered, cursor = _IntervalSet(), set(), 0
        for _ in range(40):
            if rng.random() < 0.7:
                lo = cursor + rng.choice((0, 0, rng.randint(1, 4)))
                cursor = hi = lo + rng.randint(1, 6)
                ivals.add(lo, hi)
                covered |= set(range(lo, hi))
            else:
                lo = rng.randrange(cursor + 1)
                hi = lo + rng.randint(1, 3)
                ivals.remove(lo, hi)
                covered -= set(range(lo, hi))
            qlo = rng.randrange(cursor + 8)
            check_interval_set(ivals, covered, qlo, qlo + rng.randint(1, 12))


# ----------------------------------------------------------------------
# argument checks: each raises its message before any change

def _vm_snapshot(mem):
    spaces = list(mem.spaces.values())
    return (len(spaces), [mem.table_shape(s) for s in spaces], [list(s.mapped) for s in spaces],
            [(s.alloc_cursor, s.conflicts_resolved) for s in spaces], len(mem.nodes),
            (mem.copy_log.reads, mem.copy_log.writes))


# (name, call builder, message); a builder takes (mem, high, low) and does its
# own allocation before the call it returns, so only the call is checked
_VM_ARGUMENT_CHECKS = {
    "create_space_unaligned_base": (
        lambda mem, high, low: lambda: mem.create_space(AllocPolicy.HIGH_RANGE, base=H + 8),
        "policy base must be page aligned"),
    "create_space_base_at_limit": (
        lambda mem, high, low: lambda: mem.create_space(AllocPolicy.LOW_RANGE, base=H, limit=H),
        "policy window must lie inside the VA width"),
    "create_space_past_the_va_width": (
        lambda mem, high, low: lambda: mem.create_space(
            AllocPolicy.HIGH_RANGE, limit=mem.geometry.va_limit + SMALL.nbytes),
        "policy window must lie inside the VA width"),
    "allocate_no_pages": (
        lambda mem, high, low: lambda: mem.allocate(high, 0, SMALL),
        "n_pages must be >= 1"),
    "allocate_misaligned_hint": (
        lambda mem, high, low: lambda: mem.allocate(high, 1, BIG, hint=H + 2 * BIG.nbytes
                                                    + SMALL.nbytes),
        "hint must be aligned to the page size"),
    "allocate_hint_below_the_window": (
        lambda mem, high, low: lambda: mem.allocate(high, 1, SMALL, hint=H - SMALL.nbytes),
        "hint outside the policy window"),
    "allocate_hint_past_the_window": (
        lambda mem, high, low: lambda: mem.allocate(low, 2, SMALL, hint=H - SMALL.nbytes),
        "hint outside the policy window"),
    "map_range_no_pages": (
        lambda mem, high, low: lambda: mem.map_range(high, H + BIG.nbytes, []),
        "no pages to map"),
    "map_range_mixed_page_sizes": (
        lambda mem, high, low: (lambda pages=mem.alloc_phys(BIG) + mem.alloc_phys(SMALL):
                                mem.map_range(high, H + 2 * BIG.nbytes, pages)),
        "mixed page sizes in one map call"),
    "map_range_misaligned_vaddr": (
        lambda mem, high, low: (lambda pages=mem.alloc_phys(BIG):
                                mem.map_range(high, H + 2 * BIG.nbytes + SMALL.nbytes, pages)),
        "vaddr must be aligned to the page size"),
    "map_range_past_the_va_width": (
        lambda mem, high, low: (lambda pages=mem.alloc_phys(SMALL, 2):
                                mem.map_range(high, mem.geometry.va_limit - SMALL.nbytes,
                                              pages)),
        "range outside the VA width"),
    "map_range_below_zero": (
        lambda mem, high, low: (lambda pages=mem.alloc_phys(SMALL):
                                mem.map_range(low, -SMALL.nbytes, pages)),
        "range outside the VA width"),
}


@pytest.mark.parametrize("build, message", _VM_ARGUMENT_CHECKS.values(),
                         ids=list(_VM_ARGUMENT_CHECKS))
def test_argument_check_raises_and_changes_nothing(build, message):
    mem, high, low = fresh_pair()
    map_new(mem, high, 2, BIG)
    map_new(mem, low, 3)
    mem.graft(high, low)
    call = build(mem, high, low)
    before = _vm_snapshot(mem)
    next_page = mem.alloc_phys(SMALL)[0].id + 1
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert _vm_snapshot(mem) == before
    assert mem.alloc_phys(SMALL)[0].id == next_page
