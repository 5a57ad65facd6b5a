"""Contexts, channels, forwarding pools, snapshot-and-swap, bootstrapping."""

import pytest

from gpumux.audits import check_all
from gpumux.channels import (AlreadyBound, ComputeConfig, ContextKind, NotBound,
                             PoolExhausted, RingFull)
from gpumux.commands import graphics_draw, kernel_dispatch
from gpumux.config import DeviceConfig
from gpumux.engine import Engine, EngineError, TimeReached
from gpumux.vm import AddressSpaceExhausted, PageFault, PageGeometry, SizeClass


def build(config=None, pool=1, streams=1):
    e = Engine(config)
    compute = e.create_context(ContextKind.COMPUTE)
    graphics = e.create_context(ContextKind.GRAPHICS)
    e.provision_forwarding_pool(graphics, pool)
    created = [e.create_stream(compute) for _ in range(streams)]
    return e, compute, graphics, created


# ----------------------------------------------------------------------
# contexts

def fault_details(trace):
    return [ev["detail"] for ev in trace.events if ev["event"] == "fault"]


def draw_on(kind):
    e = Engine()
    stream = e.create_stream(e.create_context(kind))
    e.submit(stream, [graphics_draw(1.0, 0.0, 0.5)])
    return e.run()


def test_compute_context_lacks_fixed_function_state():
    trace = draw_on(ContextKind.COMPUTE)
    assert fault_details(trace) == ["draw without fixed-function hardware state"]
    assert not trace.exec_intervals(kind="graphics_draw")


def test_graphics_context_has_fixed_function_state():
    trace = draw_on(ContextKind.GRAPHICS)
    assert fault_details(trace) == []
    assert len(trace.exec_intervals(kind="graphics_draw")) == 1


def test_contexts_get_distinct_groups_and_spaces():
    e = Engine()
    a = e.create_context(ContextKind.COMPUTE)
    b = e.create_context(ContextKind.COMPUTE)
    assert a.id != b.id
    assert a.space is not b.space


def test_a_graphics_channel_starts_without_compute_state():
    e = Engine()
    gfx = e.create_context(ContextKind.GRAPHICS)
    assert gfx.channels[0].compute_config is None


# ----------------------------------------------------------------------
# forwarding pool

def test_pool_of_four_within_hardware_limit():
    e = Engine()
    gfx = e.create_context(ContextKind.GRAPHICS)
    ids = e.provision_forwarding_pool(gfx, 4)
    assert len(ids) == 4
    for cid in ids:
        ch = e.channels[cid]
        assert ch.context_id == gfx.id
        assert ch.visible_to_app is False


def test_pool_request_clamps_to_hardware_max():
    e = Engine()  # hw_max_queues = 8
    gfx = e.create_context(ContextKind.GRAPHICS)
    assert len(e.provision_forwarding_pool(gfx, 64)) == 7


def test_app_visible_channel_count_unchanged_by_provisioning():
    e = Engine()
    gfx = e.create_context(ContextKind.GRAPHICS)
    e.provision_forwarding_pool(gfx, 5)
    visible = [c for c in gfx.channels if c.visible_to_app]
    assert len(visible) == 1


def test_pool_rejected_on_compute_context():
    e = Engine()
    ctx = e.create_context(ContextKind.COMPUTE)
    with pytest.raises(ValueError):
        e.provision_forwarding_pool(ctx, 1)


# ----------------------------------------------------------------------
# submission

def test_first_submit_advances_put_and_marks_pending():
    e, _, _, (stream,) = build()
    ch = e.channels[stream.channel_id]
    assert ch.ring.put == 0 and ch.pending is False
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    assert ch.ring.put == 1
    assert ch.pending is True
    entry = ch.ring.slots[0]
    assert entry.length == 2  # command plus the trailing semaphore write


def test_submit_counts_exactly_four_micro_ops():
    e, _, _, (stream,) = build()
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    submits = [ev for ev in e.trace.events if ev["event"] == "submit"]
    assert len(submits) == 1 and submits[0]["micro_ops"] == 4


def test_ring_full_with_engine_paused():
    cfg = DeviceConfig(ring_capacity=2)
    e, _, _, (stream,) = build(cfg)
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    with pytest.raises(RingFull):
        e.submit(stream, [kernel_dispatch(1.0, 0.1)])


def test_failed_submit_changes_nothing():
    e, compute, _, (stream,) = build(DeviceConfig(ring_capacity=2))
    ch = e.channels[stream.channel_id]
    space = compute.space
    work = [kernel_dispatch(1.0, 0.1)]

    def state():
        return (stream.next_semaphore_value, ch.ring.put, list(ch.ring.slots),
                list(e.trace.events))

    e.memory.unmap_range(space, ch.cmdbuf_base, 1)
    before = state()
    with pytest.raises(PageFault):
        e.submit(stream, work)
    assert state() == before
    e.memory.map_range(space, ch.cmdbuf_base, e.memory.alloc_phys(SizeClass.SMALL))
    assert e.submit(stream, work) == 1
    e.submit(stream, work)
    before = state()
    with pytest.raises(RingFull):
        e.submit(stream, work)
    assert state() == before


def test_doorbell_wakes_only_the_token_owner():
    e, compute, _, (stream, other) = build(streams=2)
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    assert e.channels[stream.channel_id].pending is True
    assert e.channels[other.channel_id].pending is False


# ----------------------------------------------------------------------
# bind / unbind

def test_bind_swaps_token_and_grafts_once():
    e, compute, graphics, (stream,) = build()
    ch = e.channels[stream.channel_id]
    original_token = ch.ring.token
    e.bind(stream, graphics)
    fwd = e.serving_channel(stream)
    assert ch.ring.token == fwd.ring.token != original_token
    assert ch.ring is fwd.ring
    assert compute.space.subscribers == [graphics.space.id]


def test_bind_into_an_already_grafted_pair_grafts_nothing():
    e, compute, graphics, (stream,) = build()
    mem = e.memory
    target = graphics.space
    mem.graft(compute.space, target)
    before = (mem.copy_log.reads, mem.copy_log.writes, target.tlb_invalidations)
    e.bind(stream, graphics)
    assert (mem.copy_log.reads, mem.copy_log.writes, target.tlb_invalidations) == before


@pytest.mark.parametrize("apps", [2, 7])
def test_apps_in_their_own_windows_bind_into_one_graphics_context(apps):
    # hw_max_queues = 8 leaves room for 7 forwarding channels, one per app
    e = Engine(DeviceConfig(ring_capacity=16))
    graphics = e.create_context(ContextKind.GRAPHICS)
    e.provision_forwarding_pool(graphics, apps)
    render = e.create_stream(graphics)
    computes = [e.create_context(ContextKind.COMPUTE) for _ in range(apps)]
    window = 512 << 30   # a level-1 entry: the first level low_base and high_base part at
    assert [(c.space.base, c.space.limit) for c in computes] == [
        (0x7000_0000_0000 + i * window, 0x7000_0000_0000 + (i + 1) * window)
        for i in range(apps)]
    streams = [e.create_stream(c) for c in computes]
    mem = e.memory

    def mapped(space):
        va = mem.allocate(space, 1, SizeClass.BIG)
        mem.map_range(space, va, mem.alloc_phys(SizeClass.BIG))
        return va

    before = [mapped(c.space) for c in computes]
    for s in streams:
        e.bind(s, graphics)
    after = [mapped(c.space) for c in computes]   # reaches the graphics table too
    for s, va, vb in zip(streams, before, after):
        e.submit(s, [kernel_dispatch(0.5, 0.1, touched=(va, vb))])
    e.submit(render, [graphics_draw(0.5, 0.2, 0.5, touched=(mapped(graphics.space),))])
    trace = e.run()
    check_all(trace)
    assert (fault_details(trace), trace.stalled) == ([], [])
    # the graphics table holds, above its own window, exactly every app's
    # leaves, and no two apps share an address
    leaves = [dict(mem.iter_leaves(c.space)) for c in computes]
    union = {va: page for own in leaves for va, page in own.items()}
    assert len(union) == sum(map(len, leaves))
    table = dict(mem.iter_leaves(graphics.space))
    assert {va: page for va, page in table.items() if va >= e.config.high_base} == union
    for s in streams:
        e.unbind(s)
    assert e.forward_pool(graphics) == graphics.channels[1:]


def test_compute_context_past_the_last_window_raises_and_changes_nothing():
    # three levels and a 39-bit VA: low_base and high_base part at the root,
    # whose entries span 1 GiB, and two windows fit above high_base
    geometry = PageGeometry(levels=3, big_page_level=1, va_width=39)
    e = Engine(DeviceConfig(ring_capacity=16, geometry=geometry, high_base=510 << 30))
    a, b = (e.create_context(ContextKind.COMPUTE) for _ in range(2))
    assert [(c.space.base, c.space.limit) for c in (a, b)] == [
        (510 << 30, 511 << 30), (511 << 30, 512 << 30)]
    mem = e.memory

    def state():
        return (len(e.contexts), len(e.channels), list(mem.spaces), list(mem.nodes),
                mem.alloc_phys(SizeClass.SMALL)[0].id)

    before = state()
    with pytest.raises(AddressSpaceExhausted, match="no VA window left for compute context 2"):
        e.create_context(ContextKind.COMPUTE)
    after = state()
    assert after[:4] == before[:4] and after[4] == before[4] + 1
    graphics = e.create_context(ContextKind.GRAPHICS)
    e.provision_forwarding_pool(graphics, 1)
    stream = e.create_stream(a)
    e.bind(stream, graphics)
    assert graphics.space.id in a.space.subscribers


def test_double_bind_rejected():
    e, _, graphics, (stream,) = build(pool=2)
    e.bind(stream, graphics)
    with pytest.raises(AlreadyBound):
        e.bind(stream, graphics)


def test_pool_exhaustion_on_second_stream():
    e, _, graphics, streams = build(pool=1, streams=2)
    e.bind(streams[0], graphics)
    with pytest.raises(PoolExhausted):
        e.bind(streams[1], graphics)


def test_bound_stream_writes_its_buffers_into_its_own_compute_pages():
    e, compute, graphics, (stream,) = build()
    native = e.channels[stream.channel_id]
    e.bind(stream, graphics)
    fwd = e.serving_channel(stream)
    page = SizeClass.SMALL.nbytes
    work = [kernel_dispatch(1.0, 0.1)]
    # the forwarding channel's page for the slot at PUT is not written
    slot = fwd.ring.put % fwd.ring.capacity
    e.memory.unmap_range(graphics.space, fwd.cmdbuf_base + slot * page, 1)
    seq = e.submit(stream, work)
    assert fwd.ring.slots[slot].seq == seq
    # the stream's own channel's page for that slot, in compute memory, is
    slot = fwd.ring.put % fwd.ring.capacity
    e.memory.unmap_range(compute.space, native.cmdbuf_base + slot * page,
                         1)
    before = (fwd.ring.put, stream.next_semaphore_value)
    with pytest.raises(PageFault):
        e.submit(stream, work)
    assert (fwd.ring.put, stream.next_semaphore_value) == before


def test_a_new_channel_ring_is_empty_and_holds_its_token():
    e, _, _, (stream,) = build(DeviceConfig(ring_capacity=3))
    ring = e.channels[stream.channel_id].ring
    assert (ring.capacity, ring.slots, ring.get, ring.put) == (3, [None] * 3, 0, 0)
    assert ring.token == 0x1000 + stream.channel_id


def test_submit_after_bind_lands_in_forwarding_ring():
    e, _, graphics, (stream,) = build()
    own_put = e.channels[stream.channel_id].ring.put
    e.bind(stream, graphics)
    snap = stream.saved_snapshot
    fwd = e.serving_channel(stream)
    put_before = fwd.ring.put  # bootstrap already queued one entry
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    assert fwd.ring.put == put_before + 1
    # the original ring saw nothing
    assert snap.put == own_put
    assert all(s is None for s in snap.slots)


def test_unbind_restores_snapshot_exactly():
    e, _, graphics, (stream,) = build()
    ch = e.channels[stream.channel_id]
    before = (ch.ring, ch.ring.token, ch.ring.get, ch.ring.put)
    e.bind(stream, graphics)
    snap = stream.saved_snapshot
    assert (snap, snap.token, snap.get, snap.put) == before
    e.unbind(stream)
    assert (ch.ring, ch.ring.token) == before[:2]
    assert (ch.ring.get, ch.ring.put) == before[2:]
    assert stream.saved_snapshot is None


def test_unbind_unbound_rejected():
    e, _, _, (stream,) = build()
    with pytest.raises(NotBound):
        e.unbind(stream)


def test_bind_unbind_hundred_cycles_leak_free():
    e, _, graphics, (stream,) = build(pool=3)
    pool_before = e.forward_pool(graphics)
    channels_before = set(e.channels)
    for _ in range(100):
        e.bind(stream, graphics)
        e.unbind(stream)
    assert e.forward_pool(graphics) == pool_before
    assert set(e.channels) == channels_before


def test_bind_drains_pending_work_first():
    e, _, graphics, (stream,) = build()
    e.submit(stream, [kernel_dispatch(2.5, 0.1)])
    assert e.clock == 0.0
    e.bind(stream, graphics)
    assert e.clock == 2.5
    assert e.stream_semaphore(stream) == 1


def test_failed_bind_of_a_graphics_stream_runs_nothing():
    # the stream's kind is checked with the other preconditions, before the
    # drain: the pending draw does not run and no record is added
    e = Engine()
    graphics = e.create_context(ContextKind.GRAPHICS)
    pool = e.provision_forwarding_pool(graphics, 1)
    stream = e.create_stream(graphics)
    e.submit(stream, [graphics_draw(0.3, 0.0, 0.5)])
    n_records = len(e.trace.records)
    with pytest.raises(ValueError, match="^only compute streams bind$"):
        e.bind(stream, graphics)
    assert (e.clock, len(e.trace.records)) == (0.0, n_records)
    assert (stream.bound, [ch.id for ch in e.forward_pool(graphics)]) == (False, pool)


def faulting_bound_stream(streams=1):
    """A bound stream with a kernel that faults on the forwarding channel,
    then a valid kernel."""
    e, _, graphics, created = build(pool=1, streams=streams)
    stream = created[0]
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(0x123000,))])
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    return e, graphics, created, e.serving_channel(stream)


def test_unbind_of_a_faulted_forwarding_channel_raises_and_keeps_the_binding():
    e, graphics, (stream,), fwd = faulting_bound_stream()
    # the drain ends short at the fault
    with pytest.raises(EngineError, match=f"^forwarding channel {fwd.id} faulted"):
        e.unbind(stream)
    assert fwd.faulted and e.stream_semaphore(stream) == 0
    # already faulted: raises before running anything
    before = (e.clock, len(e.trace.records), fwd.ring.get, fwd.ring.put)
    with pytest.raises(EngineError, match=f"^forwarding channel {fwd.id} faulted"):
        e.unbind(stream)
    assert (e.clock, len(e.trace.records), fwd.ring.get, fwd.ring.put) == before
    assert (e.serving_channel(stream), e.forward_pool(graphics)) == (fwd, [])
    e.reset(stream)
    e.run()
    assert e.stream_semaphore(stream) == 2
    e.unbind(stream)
    assert e.forward_pool(graphics) == [fwd]
    assert not fwd.faulted and fwd.ring.get == fwd.ring.put


def test_second_stream_never_runs_the_work_of_a_failed_unbind():
    e, graphics, (stream, second), fwd = faulting_bound_stream(streams=2)
    with pytest.raises(EngineError):
        e.unbind(stream)
    with pytest.raises(PoolExhausted):   # the channel did not go back to the pool
        e.bind(second, graphics)
    e.reset(stream)
    e.run()
    e.unbind(stream)
    e.bind(second, graphics)
    n_records = len(e.trace.records)
    e.submit(second, [kernel_dispatch(1.0, 0.1)])
    e.run()
    started = [(r[2], r[4]) for r in e.trace.records[n_records:] if r[1] == "exec_start"]
    assert started == [(fwd.id, second.id)]
    assert (e.stream_semaphore(stream), e.stream_semaphore(second)) == (2, 1)


def test_bind_of_a_faulted_stream_raises_and_changes_nothing():
    # without the check, bind went on at clock 0.0 past the fault; after a
    # reset the old valid kernel wrote 2 over the forwarded kernel's 3
    e, _, graphics, (stream,) = build(pool=1)
    native = e.channels[stream.channel_id]
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(0x123000,))])
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    # the drain ends short at the fault
    with pytest.raises(EngineError, match=f"^channel {native.id} faulted"):
        e.bind(stream, graphics)
    assert native.faulted and e.stream_semaphore(stream) == 0
    # already faulted: raises before running anything
    pool = e.forward_pool(graphics)
    before = (e.clock, len(e.trace.records), native.ring.get, native.ring.put)
    with pytest.raises(EngineError, match=f"^channel {native.id} faulted"):
        e.bind(stream, graphics)
    assert (e.clock, len(e.trace.records), native.ring.get, native.ring.put) == before
    assert (e.clock, e.forward_pool(graphics)) == (0.0, pool)
    assert (stream.bound, stream.channel_id, stream.saved_snapshot) == (False, native.id,
                                                                         None)
    assert native.ring.token == 0x1000 + native.id
    e.reset(stream)
    e.run()
    assert e.stream_semaphore(stream) == 2
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    e.run()
    e.unbind(stream)
    assert e.stream_semaphore(stream) == 3
    check_all(e.trace)


def test_forwarding_channels_reused_lowest_id_first():
    e, _, graphics, streams = build(pool=2, streams=2)
    first_pool = e.forward_pool(graphics)
    e.bind(streams[0], graphics)
    assert e.serving_channel(streams[0]) == first_pool[0]
    e.unbind(streams[0])
    e.bind(streams[1], graphics)
    assert e.serving_channel(streams[1]) == first_pool[0]


def test_the_pool_hands_out_the_lowest_free_channel_in_any_unbind_order():
    # the 7 apps of test_apps_in_their_own_windows_bind_into_one_graphics_context[7],
    # each with a kernel queued while bound, so every unbind drains work
    apps = 7
    e = Engine(DeviceConfig(ring_capacity=16))
    graphics = e.create_context(ContextKind.GRAPHICS)
    provisioned = e.provision_forwarding_pool(graphics, apps)
    streams = [e.create_stream(e.create_context(ContextKind.COMPUTE)) for _ in range(apps)]

    def free():
        return [ch.id for ch in e.forward_pool(graphics)]

    def serving(stream):
        return e.serving_channel(stream).id

    def check():
        bound = {serving(s) for s in streams if s.bound}
        assert free() == sorted(set(provisioned) - bound)
        assert [(e.channels[cid].faulted, e.channels[cid].pending) for cid in free()] == [
            (False, False)] * len(free())

    def bind(i):
        lowest = free()[0]
        e.bind(streams[i], graphics)
        assert serving(streams[i]) == lowest
        e.submit(streams[i], [kernel_dispatch(0.1, 0.1)])
        check()

    def unbind(i):
        if streams[i].bound:
            e.unbind(streams[i])
        else:
            with pytest.raises(NotBound):
                e.unbind(streams[i])
        check()

    check()
    for i in range(apps):
        bind(i)
    for i in (3, 0, 6):
        unbind(i)
    for i in (0, 3):
        bind(i)
    for i in (5, 1, 4, 2, 0, 3, 6):   # 6 is not bound: NotBound, and the pool stays
        unbind(i)
    assert free() == provisioned
    assert e.trace.stalled == [] and fault_details(e.trace) == []
    check_all(e.trace)


# ----------------------------------------------------------------------
# bootstrapping

def test_bind_bootstraps_unconfigured_channel():
    e, _, graphics, (stream,) = build()
    e.bind(stream, graphics)
    fwd = e.serving_channel(stream)
    assert fwd.compute_config is None  # queued, not yet executed
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    e.run()
    assert fwd.compute_config is not None
    assert fault_details(e.trace) == []


def test_bootstrap_skipped_for_already_configured_channel():
    e, _, graphics, streams = build(pool=1, streams=2)
    e.bind(streams[0], graphics)
    e.submit(streams[0], [kernel_dispatch(1.0, 0.1)])
    e.run()
    e.unbind(streams[0])
    count_before = sum(1 for ev in e.trace.events if ev["event"] == "bootstrap")
    e.bind(streams[1], graphics)
    count_after = sum(1 for ev in e.trace.events if ev["event"] == "bootstrap")
    assert count_after == count_before


def test_local_memory_growth_rebootstraps_bound_channels():
    e, compute, graphics, streams = build(pool=2, streams=2)
    for s in streams:
        e.bind(s, graphics)
    e.run()
    before = sum(1 for ev in e.trace.events if ev["event"] == "bootstrap")
    e.set_local_memory(compute, compute.compute_state.local_memory_bytes * 2)
    after = sum(1 for ev in e.trace.events if ev["event"] == "bootstrap")
    assert after == before + 2


def test_bind_bootstraps_a_pooled_channel_whose_compute_state_is_stale():
    # the pooled channel kept the 4 MiB it was grown to, and bind skipped
    # the bootstrap because the channel had some compute state: the kernel
    # ran on 4194304 bytes while the context held 65536
    e, compute, graphics, (stream,) = build()
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    e.run()
    e.set_local_memory(compute, 4 << 20)
    e.run()
    e.unbind(stream)
    e.set_local_memory(compute, 64 << 10)
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    e.run()
    fwd = e.serving_channel(stream)
    bootstraps = [ev["local_memory_bytes"] for ev in e.trace.events
                  if ev["event"] == "bootstrap"]
    assert bootstraps == [65536, 4194304, 65536]
    assert fwd.compute_config == compute.compute_state == ComputeConfig(65536)
    assert fault_details(e.trace) == []
    check_all(e.trace)


def test_local_memory_growth_with_a_full_ring_changes_nothing():
    e, compute, graphics, streams = build(DeviceConfig(ring_capacity=2), pool=2, streams=2)
    for s in streams:
        e.bind(s, graphics)
    e.submit(streams[1], [kernel_dispatch(1.0, 0.1)])  # its ring is now full
    fwds = [e.serving_channel(s) for s in streams]
    state = compute.compute_state
    puts = [ch.ring.put for ch in fwds]
    n_events = len(e.trace.events)
    with pytest.raises(RingFull):
        e.set_local_memory(compute, state.local_memory_bytes * 2)
    assert compute.compute_state == state
    assert [ch.ring.put for ch in fwds] == puts
    assert len(e.trace.events) == n_events


def test_local_memory_shrink_does_not_rebootstrap():
    e, compute, graphics, (stream,) = build()
    e.bind(stream, graphics)
    e.run()
    before = sum(1 for ev in e.trace.events if ev["event"] == "bootstrap")
    e.set_local_memory(compute, compute.compute_state.local_memory_bytes // 2)
    after = sum(1 for ev in e.trace.events if ev["event"] == "bootstrap")
    assert after == before


# ----------------------------------------------------------------------
# argument checks of the control plane: each raises its message before any
# change

def control_state(e, stream):
    space_state = [(list(s.subscribers), e.memory.table_shape(s))
                   for s in e.memory.spaces.values()]
    return (e.clock, len(e.trace.records), len(e.trace.segments),
            [(ch.ring.get, ch.ring.put, ch.compute_config, ch.ring.token, ch.pending,
              ch.faulted) for ch in e.channels],
            [(c.compute_state, e.forward_pool(c)) for c in e.contexts],
            [(s.bound, e.serving_channel(s).id) for s in e.streams],
            (stream.bound, stream.channel_id, stream.saved_snapshot), space_state)


def pending_kernel(e, graphics, stream):
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])   # a drain would run it


def mid_buffer(bound):
    """Leave the stream inside a buffer of three 0.2 s kernels, at 0.2 s;
    bind it first if ``bound``. Then its own channel is 3 and its forwarding
    channel is 2."""
    def setup(e, graphics, stream):
        if bound:
            e.bind(stream, graphics)
        e.submit(stream, [kernel_dispatch(0.2, 0.1)] * 3)
        e.run(until=lambda e: e.clock >= 0.1)
    return setup


@pytest.mark.parametrize("setup, call, error, message", [
    (pending_kernel,
     lambda e, compute, graphics, stream: e.bootstrap(compute.channels[0],
                                                      ComputeConfig(1 << 20)),
     ValueError, "bootstrap targets channels in the graphics group"),
    (pending_kernel,
     lambda e, compute, graphics, stream: e.set_local_memory(graphics, 1 << 20),
     ValueError, "only compute contexts carry a scratch pool"),
    (pending_kernel, lambda e, compute, graphics, stream: e.bind(stream, compute),
     ValueError, "streams bind to graphics contexts"),
    (mid_buffer(False), lambda e, compute, graphics, stream: e.reset(stream),
     EngineError, "channel 3 of stream 0 is not faulted"),
    (mid_buffer(True), lambda e, compute, graphics, stream: e.reset(stream),
     EngineError, "channel 2 of stream 0 is not faulted"),
], ids=["bootstrap_of_a_compute_channel", "local_memory_of_a_graphics_context",
        "bind_into_a_compute_context", "reset_of_an_unbound_stream_mid_buffer",
        "reset_of_a_bound_stream_mid_buffer"])
def test_control_plane_argument_check_raises_and_changes_nothing(setup, call, error,
                                                                 message):
    e, compute, graphics, (stream,) = build()
    setup(e, graphics, stream)
    before = control_state(e, stream)
    with pytest.raises(error) as info:
        call(e, compute, graphics, stream)
    assert str(info.value) == message
    assert control_state(e, stream) == before


@pytest.mark.parametrize("call, message", [
    ("bind", "bind is a control-plane call, not valid mid-run"),
    ("unbind", "unbind is a control-plane call, not valid mid-run"),
    ("run", "run is not reentrant"),
])
def test_control_plane_call_from_a_running_driver_raises_and_changes_nothing(call, message):
    e, _, graphics, (stream,) = build()
    if call == "unbind":
        e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    calls = {"bind": lambda: e.bind(stream, graphics), "unbind": lambda: e.unbind(stream),
             "run": e.run}
    seen = []

    def driver():
        yield TimeReached(0.5)
        before = control_state(e, stream)
        with pytest.raises(EngineError) as info:
            calls[call]()
        seen.append((str(info.value), control_state(e, stream) == before))

    e.spawn(driver())
    e.run()
    assert seen == [(message, True)]
    # the run went on: the kernel finished, and the engine takes calls again
    assert e.stream_semaphore(stream) == 1 and e.clock == 1.0
    check_all(e.trace)
    if call == "unbind":
        e.unbind(stream)
    else:
        e.bind(stream, graphics)
    assert stream.bound == (call != "unbind")


# ----------------------------------------------------------------------
# the control plane decides on what the channels hold

def chained(e, stream, n=4):
    """A driver that submits ``n`` 0.2 s kernels, each once the one before it
    has completed."""
    for _ in range(n):
        e.submit(stream, [kernel_dispatch(0.2, 0.1)])
        yield e.stream_condition(stream, stream.next_semaphore_value)


def test_reset_of_a_bound_stream_that_is_not_faulted_runs_each_kernel_once():
    # resetting the bound stream's own channel 3 made channels 2 and 3 both
    # work through the buffer: 6 exec_starts for 3 kernels, and check_all
    # raised "stream 0 semaphore went 1 -> 1"
    e, _, graphics, (stream,) = build()
    mid_buffer(True)(e, graphics, stream)
    assert (e.clock, stream.channel_id, e.serving_channel(stream).id) == (0.2, 3, 2)
    with pytest.raises(EngineError, match="^channel 2 of stream 0 is not faulted$"):
        e.reset(stream)
    trace = e.run()
    assert [r[2] for r in trace.records if r[1] == "exec_start"] == [2, 2, 2]
    assert e.stream_semaphore(stream) == 1
    check_all(trace)


def grow_local_memory(e, compute, graphics, stream):
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(0.2, 0.1)])
    e.run()
    e.set_local_memory(compute, 4 << 20)


def driver_submitting(e, compute, graphics, stream):
    e.bind(stream, graphics)
    e.spawn(chained(e, stream))
    e.run(until=lambda e: e.clock >= 0.1)


@pytest.mark.parametrize("setup", [
    lambda e, compute, graphics, stream: e.bind(stream, graphics),
    grow_local_memory,
    driver_submitting,
], ids=["nothing_submitted", "local_memory_grown", "driver_submitting"])
def test_unbind_pools_an_empty_channel(setup):
    # the drain waited for the stream's semaphore only: the forwarding
    # channel went back to the pool at get/put 0/1, 2/3 and 3/4 in turn, and
    # the submitting driver's third buffer then ran on the pooled channel
    e, compute, graphics, (stream,) = build()
    setup(e, compute, graphics, stream)
    fwd = e.serving_channel(stream)
    e.unbind(stream)
    assert e.forward_pool(graphics) == [fwd]
    assert (fwd.ring.get == fwd.ring.put, fwd.pending, fwd.active_entry) == (True, False,
                                                                                None)
    trace = e.run()
    assert trace.stalled == []
    assert all(r[2] == fwd.id for r in trace.records if r[1] == "exec_start")
    assert e.stream_semaphore(stream) == stream.next_semaphore_value
    check_all(trace)


def test_bind_while_a_driver_submits_strands_no_buffer():
    # the drain stopped at the semaphore value it saw first, 2, at 0.4 s; the
    # driver's third buffer stayed on the swapped-out ring at get/put 2/3,
    # and the next run stalled at semaphore 2 of 3
    e, _, graphics, (stream,) = build()
    e.spawn(chained(e, stream))
    e.run(until=lambda e: e.clock >= 0.1)
    e.bind(stream, graphics)
    snap = stream.saved_snapshot
    assert (e.clock, snap.get, snap.put) == (0.8, 4, 4)
    trace = e.run()
    assert trace.stalled == []
    assert len(trace.exec_intervals(kind="kernel_dispatch")) == 4
    assert e.stream_semaphore(stream) == 4
    check_all(trace)

