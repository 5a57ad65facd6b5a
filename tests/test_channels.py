"""Contexts, channels, forwarding pools, snapshot-and-swap, bootstrapping."""

import pytest

from gpumux.audits import check_all
from gpumux.channels import (AlreadyBound, ComputeConfig, ContextKind, NotBound,
                             PoolExhausted, RingFull)
from gpumux.commands import graphics_draw, kernel_dispatch
from gpumux.config import DeviceConfig
from gpumux.engine import Engine, EngineError, TimeReached
from gpumux.vm import PageFault, SizeClass


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
    assert a.tsg_id != b.tsg_id
    assert a.space_id != b.space_id


def test_native_compute_channels_are_preconfigured():
    e = Engine()
    ctx = e.create_context(ContextKind.COMPUTE)
    assert e.channels[ctx.channels[0]].compute_config is not None
    gfx = e.create_context(ContextKind.GRAPHICS)
    assert e.channels[gfx.channels[0]].compute_config is None


# ----------------------------------------------------------------------
# forwarding pool

def test_pool_of_four_within_hardware_limit():
    e = Engine()
    gfx = e.create_context(ContextKind.GRAPHICS)
    ids = e.provision_forwarding_pool(gfx, 4)
    assert len(ids) == 4
    for cid in ids:
        ch = e.channels[cid]
        assert ch.tsg_id == gfx.tsg_id
        assert ch.visible_to_app is False


def test_pool_request_clamps_to_hardware_max():
    e = Engine()  # hw_max_queues = 8
    gfx = e.create_context(ContextKind.GRAPHICS)
    assert len(e.provision_forwarding_pool(gfx, 64)) == 7


def test_app_visible_channel_count_unchanged_by_provisioning():
    e = Engine()
    gfx = e.create_context(ContextKind.GRAPHICS)
    e.provision_forwarding_pool(gfx, 5)
    visible = [c for c in gfx.channels if e.channels[c].visible_to_app]
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
    assert ch.userd.put == 0 and ch.pending is False
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    assert ch.userd.put == 1
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
    space = e.memory.spaces[compute.space_id]
    work = [kernel_dispatch(1.0, 0.1)]

    def state():
        return (stream.next_semaphore_value, ch.userd.put, list(ch.ring.slots),
                list(e.trace.events))

    e.memory.unmap_range(space, stream.cmdbuf_base, 1)
    before = state()
    with pytest.raises(PageFault):
        e.submit(stream, work)
    assert state() == before
    e.memory.map_range(space, stream.cmdbuf_base, e.memory.alloc_phys(SizeClass.SMALL))
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
    original_token = ch.token
    e.bind(stream, graphics)
    fwd = e.channels[stream.bound_channel_id]
    assert ch.token == fwd.token != original_token
    assert ch.ring is fwd.ring and ch.userd is fwd.userd
    spaces = e.memory.spaces
    assert spaces[compute.space_id].subscribers == [graphics.space_id]


def test_bind_into_an_already_grafted_pair_grafts_nothing():
    e, compute, graphics, (stream,) = build()
    mem = e.memory
    target = mem.spaces[graphics.space_id]
    mem.graft(mem.spaces[compute.space_id], target)
    before = (mem.copy_log.reads, mem.copy_log.writes, target.tlb_invalidations)
    e.bind(stream, graphics)
    assert (mem.copy_log.reads, mem.copy_log.writes, target.tlb_invalidations) == before


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


def test_submit_after_bind_lands_in_forwarding_ring():
    e, _, graphics, (stream,) = build()
    e.bind(stream, graphics)
    snap = stream.saved_snapshot
    fwd = e.channels[stream.bound_channel_id]
    put_before = fwd.userd.put  # bootstrap already queued one entry
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    assert fwd.userd.put == put_before + 1
    # the original ring saw nothing
    assert snap.put == snap.userd.put
    assert all(s is None for s in snap.ring.slots)


def test_unbind_restores_snapshot_exactly():
    e, _, graphics, (stream,) = build()
    ch = e.channels[stream.channel_id]
    before = (ch.ring, ch.userd, ch.token, ch.userd.get, ch.userd.put)
    e.bind(stream, graphics)
    snap = stream.saved_snapshot
    assert (snap.ring, snap.userd, snap.token, snap.get, snap.put) == before
    e.unbind(stream)
    assert (ch.ring, ch.userd, ch.token) == before[:3]
    assert (ch.userd.get, ch.userd.put) == before[3:]
    assert stream.saved_snapshot is None


def test_unbind_unbound_rejected():
    e, _, _, (stream,) = build()
    with pytest.raises(NotBound):
        e.unbind(stream)


def test_bind_unbind_hundred_cycles_leak_free():
    e, _, graphics, (stream,) = build(pool=3)
    pool_before = list(graphics.forward_pool)
    channels_before = set(e.channels)
    for _ in range(100):
        e.bind(stream, graphics)
        e.unbind(stream)
    assert graphics.forward_pool == pool_before
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
    assert (stream.bound, graphics.forward_pool) == (False, pool)


def faulting_bound_stream(streams=1):
    """A bound stream with a kernel that faults on the forwarding channel,
    then a valid kernel."""
    e, _, graphics, created = build(pool=1, streams=streams)
    stream = created[0]
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(0x123000,))])
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])
    return e, graphics, created, e.channels[stream.bound_channel_id]


def test_unbind_of_a_faulted_forwarding_channel_raises_and_keeps_the_binding():
    e, graphics, (stream,), fwd = faulting_bound_stream()
    # the drain ends short at the fault
    with pytest.raises(EngineError, match=f"^forwarding channel {fwd.id} faulted"):
        e.unbind(stream)
    assert fwd.faulted and e.stream_semaphore(stream) == 0
    # already faulted: raises before running anything
    before = (e.clock, len(e.trace.records), fwd.userd.get, fwd.userd.put)
    with pytest.raises(EngineError, match=f"^forwarding channel {fwd.id} faulted"):
        e.unbind(stream)
    assert (e.clock, len(e.trace.records), fwd.userd.get, fwd.userd.put) == before
    assert (stream.bound_channel_id, graphics.forward_pool) == (fwd.id, [])
    e.reset_channel(fwd)
    e.run()
    assert e.stream_semaphore(stream) == 2
    e.unbind(stream)
    assert graphics.forward_pool == [fwd.id]
    assert not fwd.faulted and fwd.userd.get == fwd.userd.put


def test_second_stream_never_runs_the_work_of_a_failed_unbind():
    e, graphics, (stream, second), fwd = faulting_bound_stream(streams=2)
    with pytest.raises(EngineError):
        e.unbind(stream)
    with pytest.raises(PoolExhausted):   # the channel did not go back to the pool
        e.bind(second, graphics)
    e.reset_channel(fwd)
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
    pool = list(graphics.forward_pool)
    before = (e.clock, len(e.trace.records), native.userd.get, native.userd.put)
    with pytest.raises(EngineError, match=f"^channel {native.id} faulted"):
        e.bind(stream, graphics)
    assert (e.clock, len(e.trace.records), native.userd.get, native.userd.put) == before
    assert (e.clock, graphics.forward_pool) == (0.0, pool)
    assert (stream.bound, stream.channel_id, stream.saved_snapshot) == (False, native.id,
                                                                         None)
    assert native.token == 0x1000 + native.id
    e.reset_channel(native)
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
    first_pool = list(graphics.forward_pool)
    e.bind(streams[0], graphics)
    assert streams[0].bound_channel_id == first_pool[0]
    e.unbind(streams[0])
    e.bind(streams[1], graphics)
    assert streams[1].bound_channel_id == first_pool[0]


# ----------------------------------------------------------------------
# bootstrapping

def test_bind_bootstraps_unconfigured_channel():
    e, _, graphics, (stream,) = build()
    e.bind(stream, graphics)
    fwd = e.channels[stream.bound_channel_id]
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


def test_local_memory_growth_with_a_full_ring_changes_nothing():
    e, compute, graphics, streams = build(DeviceConfig(ring_capacity=2), pool=2, streams=2)
    for s in streams:
        e.bind(s, graphics)
    e.submit(streams[1], [kernel_dispatch(1.0, 0.1)])  # its ring is now full
    fwds = [e.channels[s.bound_channel_id] for s in streams]
    state = compute.compute_state
    puts = [ch.userd.put for ch in fwds]
    n_events = len(e.trace.events)
    with pytest.raises(RingFull):
        e.set_local_memory(compute, state.local_memory_bytes * 2)
    assert compute.compute_state == state
    assert [ch.userd.put for ch in fwds] == puts
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
            [(ch.userd.get, ch.userd.put, ch.compute_config, ch.token) for ch in e.channels],
            [(c.compute_state, list(c.forward_pool), set(c.bound_stream_ids))
             for c in e.contexts],
            (stream.bound, stream.channel_id, stream.saved_snapshot), space_state)


@pytest.mark.parametrize("call, message", [
    (lambda e, compute, graphics, stream: e.bootstrap(e.channels[compute.channels[0]],
                                                      ComputeConfig(1 << 20)),
     "bootstrap targets channels in the graphics group"),
    (lambda e, compute, graphics, stream: e.set_local_memory(graphics, 1 << 20),
     "only compute contexts carry a scratch pool"),
    (lambda e, compute, graphics, stream: e.bind(stream, compute),
     "streams bind to graphics contexts"),
], ids=["bootstrap_of_a_compute_channel", "local_memory_of_a_graphics_context",
        "bind_into_a_compute_context"])
def test_control_plane_argument_check_raises_and_changes_nothing(call, message):
    e, compute, graphics, (stream,) = build()
    e.submit(stream, [kernel_dispatch(1.0, 0.1)])   # a drain would run it
    before = control_state(e, stream)
    with pytest.raises(ValueError) as info:
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
