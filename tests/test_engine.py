"""Scheduling, processor sharing, faults, semaphores, and trace determinism."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpumux.audits import check_all, check_temporal_exclusivity
from gpumux.channels import ComputeConfig, ContextKind, GpFifoEntry
from gpumux.commands import (CommandKind, GpuCommand, graphics_draw, kernel_dispatch,
                             semaphore_write, sleep)
from gpumux.config import TICKS_PER_S, DeviceConfig
from gpumux.engine import Condition, Engine, MetricsTrace, SemaphoreAtLeast, TimeReached
from gpumux.harness import encode_events
from gpumux.vm import SizeClass
from gpumux.workloads import PhaseCost, RolloutMode, RolloutSpec, run_rl_rollout


def compute_engine(n_contexts=1, streams_per=1, config=None):
    e = Engine(config or DeviceConfig())
    streams = []
    for _ in range(n_contexts):
        ctx = e.create_context(ContextKind.COMPUTE)
        streams.append([e.create_stream(ctx) for _ in range(streams_per)])
    return e, streams


def mapped_vaddr(e, ctx, size_class=SizeClass.BIG):
    space = e.memory.spaces[ctx.space_id]
    va = e.memory.allocate(space, 1, size_class)
    e.memory.map_range(space, va, e.memory.alloc_phys(size_class))
    return va


# ----------------------------------------------------------------------
# round-robin and temporal exclusivity

def test_two_groups_alternate_under_short_quantum():
    cfg = DeviceConfig(quantum=0.5)
    e, ((a,), (b,)) = compute_engine(n_contexts=2, config=cfg)
    for s in (a, b):
        for _ in range(2):
            e.submit(s, [kernel_dispatch(1.0, 0.2)])
    trace = e.run()
    order = [tsg for tsg, _, _ in trace.windows]
    assert order == [0, 1, 0, 1]
    check_temporal_exclusivity(trace)
    assert trace.makespan == pytest.approx(4.0)


def test_single_command_groups_execute_disjointly():
    cfg = DeviceConfig(quantum=0.5)
    e, ((a,), (b,)) = compute_engine(n_contexts=2, config=cfg)
    e.submit(a, [kernel_dispatch(1.0, 0.2)])
    e.submit(b, [kernel_dispatch(1.0, 0.2)])
    trace = e.run()
    intervals = trace.exec_intervals(kind="kernel_dispatch")
    assert len(intervals) == 2
    (s0, e0, t0, _), (s1, e1, t1, _) = sorted(intervals)
    assert t0 != t1 and e0 <= s1
    check_temporal_exclusivity(trace)


def test_empty_groups_are_skipped():
    e, ((a,), _) = compute_engine(n_contexts=2)
    e.submit(a, [kernel_dispatch(3.0, 0.2)])
    trace = e.run()
    assert trace.makespan == pytest.approx(3.0)  # no idle quanta for the empty group
    assert {tsg for tsg, _, _ in trace.windows} == {0}


# ----------------------------------------------------------------------
# processor sharing inside one group

def test_no_stretch_below_capacity():
    e, ((s1, s2),) = compute_engine(streams_per=2)
    e.submit(s1, [kernel_dispatch(1.0, 0.4)])
    e.submit(s2, [kernel_dispatch(1.0, 0.4)])
    trace = e.run()
    assert trace.makespan == pytest.approx(1.0, abs=1e-9)


def test_oversubscription_stretches_equally():
    e, ((s1, s2),) = compute_engine(streams_per=2)
    e.submit(s1, [kernel_dispatch(1.0, 0.8)])
    e.submit(s2, [kernel_dispatch(1.0, 0.8)])
    trace = e.run()
    assert trace.makespan == pytest.approx(1.6, abs=1e-9)
    ends = sorted(end for _, end, _, _ in trace.exec_intervals(kind="kernel_dispatch"))
    assert ends == pytest.approx([1.6, 1.6])


def test_stretch_recomputed_at_event_boundaries():
    # 0.8+0.8 share until the short one finishes, then the long one runs alone:
    # first 0.5 of work takes 0.8 wall, remaining 0.5 takes 0.5.
    e, ((s1, s2),) = compute_engine(streams_per=2)
    e.submit(s1, [kernel_dispatch(0.5, 0.8)])
    e.submit(s2, [kernel_dispatch(1.0, 0.8)])
    trace = e.run()
    assert trace.makespan == pytest.approx(1.3, abs=1e-9)


def test_stretched_step_ends_the_shorter_kernel_exactly():
    # 0.7+0.7 of compute stretches by 1.4: the 0.3 s kernel ends at 0.42 and
    # the 0.5 s one runs its last 0.2 s alone
    e, ((s1, s2),) = compute_engine(streams_per=2)
    e.submit(s1, [kernel_dispatch(0.3, 0.7)])
    e.submit(s2, [kernel_dispatch(0.5, 0.7)])
    trace = e.run()
    ends = sorted(end for _, end, _, _ in trace.exec_intervals(kind="kernel_dispatch"))
    assert ends == [0.42, 0.62]
    assert trace.makespan == 0.62


def test_thousand_kernels_end_exactly():
    # float seconds summed to 199.9999999999972 here
    e, ((s,),) = compute_engine()
    for _ in range(1000):
        e.submit(s, [kernel_dispatch(0.2, 0.5)])
    trace = e.run()
    assert trace.makespan == 200.0
    assert e.clock == 200.0


@pytest.mark.parametrize("make", [
    lambda: DeviceConfig(quantum=1e-10),
    lambda: DeviceConfig(utilization_sample_dt=1e-10),
    lambda: DeviceConfig(context_switch_penalty=math.inf),
    lambda: PhaseCost(sim_base=math.inf),
    lambda: kernel_dispatch(math.inf, 0.5),
])
def test_times_the_clock_cannot_hold_rejected(make):
    # a quantum of 0 ns would launch nothing and loop forever, and an
    # infinite time has no tick count
    with pytest.raises(ValueError):
        make()


def test_intra_group_spatial_concurrency_exists():
    e, ((s1, s2),) = compute_engine(streams_per=2)
    e.submit(s1, [kernel_dispatch(1.0, 0.3)])
    e.submit(s2, [kernel_dispatch(1.0, 0.3)])
    trace = e.run()
    iv = trace.exec_intervals(kind="kernel_dispatch")
    assert len(iv) == 2
    (a0, a1, _, _), (b0, b1, _, _) = iv
    assert max(a0, b0) < min(a1, b1)  # overlapping execution in one group


# ----------------------------------------------------------------------
# order and faults

def test_buffers_complete_in_submission_order():
    e, ((s,),) = compute_engine()
    seqs = [e.submit(s, [kernel_dispatch(0.3, 0.1)]) for _ in range(3)]
    trace = e.run()
    completed = [ev["seq"] for ev in trace.events if ev["event"] == "buffer_complete"]
    assert completed == seqs
    check_all(trace)


def test_draw_on_compute_context_faults():
    e, ((s,),) = compute_engine()
    e.submit(s, [graphics_draw(1.0, 0.2, 0.5)])
    trace = e.run()
    assert [f.kind for f in trace.faults] == ["execution_fault"]


def test_unmapped_touch_page_faults_and_halts_channel():
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    good = mapped_vaddr(e, ctx)
    bad = 0x7fff_0000_0000
    e.submit(s, [kernel_dispatch(1.0, 0.1, touched=(bad,))])
    e.submit(s, [kernel_dispatch(1.0, 0.1, touched=(good,))])
    trace = e.run()
    assert len(trace.faults) == 1
    fault = trace.faults[0]
    assert fault.kind == "page_fault" and fault.vaddr == bad
    # the channel halted: the second buffer never ran
    assert not trace.exec_intervals(kind="kernel_dispatch")
    ch = e.channels[s.channel_id]
    e.reset_channel(ch)
    trace = e.run()
    assert len(trace.exec_intervals(kind="kernel_dispatch")) == 1
    assert len(trace.faults) == 1


@pytest.mark.parametrize("write_first", [False, True],
                         ids=["write_after_timed_command", "write_at_buffer_head"])
def test_zero_duration_write_faults_and_halts_channel(write_first):
    e, ((s,),) = compute_engine()
    bad = 0x7fff_0000_0000
    buf = [kernel_dispatch(1.0, 0.1), semaphore_write(bad, 7)]
    if write_first:
        buf.reverse()
    faulting = e.submit(s, buf)
    following = e.submit(s, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    assert [(f.kind, f.vaddr) for f in trace.faults] == [("page_fault", bad)]
    completed = [ev["seq"] for ev in trace.events if ev["event"] == "buffer_complete"]
    assert faulting not in completed and following not in completed
    e.reset_channel(e.channels[s.channel_id])
    trace = e.run()
    completed = [ev["seq"] for ev in trace.events if ev["event"] == "buffer_complete"]
    assert completed == [following]
    assert len(trace.faults) == 1


def test_sleep_consumes_time_but_no_resources():
    e, ((s,),) = compute_engine()
    e.submit(s, [sleep(2.0)])
    trace = e.run()
    assert trace.makespan == pytest.approx(2.0)
    assert trace.compute_busy() == pytest.approx(0.0)


# ----------------------------------------------------------------------
# semaphores

def test_semaphore_values_strictly_increase():
    e, ((s,),) = compute_engine()
    for _ in range(4):
        e.submit(s, [kernel_dispatch(0.1, 0.1)])
    trace = e.run()
    values = [ev["value"] for ev in trace.events if ev["event"] == "semaphore"]
    assert values == [1, 2, 3, 4]
    assert e.stream_semaphore(s) == 4


def test_semaphore_lands_in_physical_memory():
    e, ((s,),) = compute_engine()
    e.submit(s, [kernel_dispatch(0.5, 0.1)])
    e.run()
    ctx = e.contexts[s.context_id]
    page, off = e.memory.translate(e.memory.spaces[ctx.space_id], s.sync_vaddr)
    assert e.phys_mem[(page.id, off)] == 1


def test_trailing_semaphore_flushes_when_slice_expires_mid_buffer():
    # quantum 0.1 expires long before the 1.0 command ends; the trailing
    # zero-duration write still lands at buffer completion time
    e, ((s,),) = compute_engine()
    e.submit(s, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    sem = [ev for ev in trace.events if ev["event"] == "semaphore"]
    assert sem[0]["time"] == pytest.approx(1.0)


def test_multi_command_buffer_suspends_at_command_granularity():
    cfg = DeviceConfig(quantum=0.5)
    e, streams = compute_engine(n_contexts=2, config=cfg)
    (a,), (b,) = streams
    e.submit(a, [kernel_dispatch(1.0, 0.1), kernel_dispatch(1.0, 0.1)])
    e.submit(b, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    # group A runs one command past its quantum, yields to B, then resumes
    order = [tsg for tsg, _, _ in trace.windows]
    assert order == [0, 1, 0]
    assert trace.makespan == pytest.approx(3.0)
    sem_a = [ev["time"] for ev in trace.events
             if ev["event"] == "semaphore" and ev["stream"] == a.id]
    assert sem_a == pytest.approx([3.0])


# ----------------------------------------------------------------------
# processes and timers

def test_process_wakes_at_exact_deadline_mid_command():
    e, ((s,),) = compute_engine()
    woke = []

    def driver():
        yield TimeReached(0.7)
        woke.append(e.clock)

    e.submit(s, [kernel_dispatch(2.0, 0.1)])
    e.spawn(driver())
    e.run()
    assert woke == [pytest.approx(0.7)]


def test_inference_requests_serialize():
    e = Engine()
    first = e.request_inference(2.0)
    second = e.request_inference(1.0)
    assert isinstance(first, TimeReached) and first.time == pytest.approx(2.0)
    assert second.time == pytest.approx(3.0)


def test_idle_engine_with_timer_advances_clock():
    e = Engine()

    def driver():
        yield e.request_inference(1.5)

    e.spawn(driver())
    trace = e.run()
    assert trace.makespan == pytest.approx(1.5)
    assert trace.stalled == []


# ----------------------------------------------------------------------
# wake order: rounds of ascending pid, re-checking resumed drivers next round

def logging_driver(e, log, pid, conditions):
    """Yields each condition in turn and logs (pid, clock) on every resume."""
    for cond in conditions:
        yield cond
        log.append((pid, e.clock))


def test_semaphore_waiters_wake_by_threshold_then_pid():
    # writes 1, 2, 3 land at t = 1, 2, 3; pids 1 and 3 share threshold 1
    e, ((s,),) = compute_engine()
    for _ in range(3):
        e.submit(s, [kernel_dispatch(1.0, 0.1)])
    log = []
    for pid, value in enumerate([3, 1, 2, 1]):
        e.spawn(logging_driver(e, log, pid, [e.stream_condition(s, value)]))
    trace = e.run()
    assert log == [(1, 1.0), (3, 1.0), (2, 2.0), (0, 3.0)]
    assert trace.stalled == []


def test_condition_already_holding_resumes_next_round():
    # all three wake at t=1 in one round; pids 0 and 2 then yield conditions
    # that already hold, so they resume in a second round at t=1, after pid 1
    # has had its turn
    e, ((s,),) = compute_engine()
    log = []
    e.spawn(logging_driver(e, log, 0, [TimeReached(1.0), e.stream_condition(s, 0)]))
    e.spawn(logging_driver(e, log, 1, [TimeReached(1.0), TimeReached(5.0)]))
    e.spawn(logging_driver(e, log, 2, [TimeReached(1.0), TimeReached(0.5)]))
    e.run()
    assert log == [(0, 1.0), (1, 1.0), (2, 1.0), (0, 1.0), (2, 1.0), (1, 5.0)]


def test_driver_spawned_mid_round_runs_at_the_round_end():
    e = Engine()
    log = []

    def child():
        log.append((2, e.clock))
        yield TimeReached(0.0)
        log.append((2, e.clock))

    def parent():
        yield TimeReached(1.0)
        log.append((0, e.clock))
        e.spawn(child())
        yield TimeReached(0.0)  # holds: next round
        log.append((0, e.clock))

    e.spawn(parent())
    e.spawn(logging_driver(e, log, 1, [TimeReached(1.0)]))
    e.run()
    assert log == [(0, 1.0), (1, 1.0), (2, 1.0), (0, 1.0), (2, 1.0)]


def test_zero_latency_inference_queues_behind_busy_inference():
    # t=0: pid 0 asks for 0 latency (due at 0, holds next round), pid 1 for 1.0
    # (due 1.0); pid 0 then asks for 1.0, queued behind pid 1 (due 2.0); at
    # t=1 pid 1 asks for 0 latency, which still finishes behind pid 0 at 2.0
    e = Engine()
    log = []

    def driver(pid, latencies):
        for latency in latencies:
            yield e.request_inference(latency)
            log.append((pid, e.clock))

    e.spawn(driver(0, [0.0, 1.0]))
    e.spawn(driver(1, [1.0, 0.0]))
    trace = e.run()
    assert log == [(0, 0.0), (1, 1.0), (0, 2.0), (1, 2.0)]
    assert trace.makespan == 2.0


def test_tied_deadlines_wake_in_pid_order():
    # 0.1 + 0.2 lies 5.6e-17 s above 0.3 but rounds to the same tick: both
    # deadlines hold when the clock reaches 0.3, and they wake in pid order
    e = Engine()
    log = []
    e.spawn(logging_driver(e, log, 0, [TimeReached(0.1 + 0.2)]))
    e.spawn(logging_driver(e, log, 1, [TimeReached(0.3)]))
    e.spawn(logging_driver(e, log, 2, [TimeReached(0.1), TimeReached(0.3)]))
    e.run()
    assert log == [(2, 0.1), (0, 0.3), (1, 0.3), (2, 0.3)]


def test_unsupported_condition_rejected():
    class Never(Condition):
        def satisfied(self, engine):
            return False

    e = Engine()

    def driver():
        yield Never()

    e.spawn(driver())
    with pytest.raises(TypeError):
        e.run()


def test_waiter_follows_a_remapped_semaphore():
    # the waiter is keyed by physical page; remapping its vaddr must re-key it
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    space = e.memory.spaces[ctx.space_id]
    va = mapped_vaddr(e, ctx, SizeClass.SMALL)
    log = []
    e.spawn(logging_driver(e, log, 0, [SemaphoreAtLeast(space.id, va, 7)]))
    assert e.run().stalled == [0]
    e.memory.unmap_range(space, va, 1)
    e.memory.map_range(space, va, e.memory.alloc_phys(SizeClass.SMALL))
    e.submit(s, [semaphore_write(va, 7)])
    assert e.run().stalled == []
    assert log == [(0, 0.0)]


def test_rl_condition_checks_do_not_exceed_trace_events(monkeypatch):
    # polling every driver on every pass made ~40 checks per event here
    checks = 0
    for cls in (SemaphoreAtLeast, TimeReached):
        def counted(self, engine, _inner=cls.satisfied):
            nonlocal checks
            checks += 1
            return _inner(self, engine)
        monkeypatch.setattr(cls, "satisfied", counted)
    metrics = run_rl_rollout(RolloutSpec(4, 512, 64, RolloutMode.INTERLEAVED),
                             PhaseCost())
    events = len(metrics.trace.events)
    assert metrics.trace.stalled == []
    assert 0 < checks <= events


# ----------------------------------------------------------------------
# utilization and determinism

def test_idle_run_has_zero_utilization_samples():
    e = Engine()

    def driver():
        yield e.request_inference(2.0)

    e.spawn(driver())
    trace = e.run()
    samples = list(trace.utilization_samples(0.5))
    assert len(samples) == 4
    assert all(cu == 0.0 and gu == 0.0 for _, cu, gu, _ in samples)


def test_utilization_reflects_resource_fractions():
    e, ((s,),) = compute_engine()
    e.submit(s, [kernel_dispatch(2.0, 0.25)])
    trace = e.run()
    assert trace.compute_busy() == pytest.approx(0.5)
    assert trace.mean_compute_util() == pytest.approx(0.25)


def _per_bin_samples(segments, makespan_ticks, width):
    """The utilization bins summed one bin at a time: the reference for
    ``MetricsTrace.utilization_samples``."""
    n_bins = -(-makespan_ticks // width)
    acc_c = [0.0] * n_bins
    acc_g = [0.0] * n_bins
    tsg_of = [None] * n_bins
    for t0, t1, cu, gu, tsg in segments:
        i = t0 // width
        while t0 < t1:
            hi = min(t1, (i + 1) * width)
            frac = (hi - t0) / width
            acc_c[i] += cu * frac
            acc_g[i] += gu * frac
            if tsg is not None and tsg_of[i] is None:
                tsg_of[i] = tsg
            t0 = hi
            i += 1
    return [(i * width / TICKS_PER_S, acc_c[i], acc_g[i], tsg_of[i]) for i in range(n_bins)]


_UTIL = st.floats(0.0, 8.0, allow_subnormal=False) | st.sampled_from([0.0, -0.0, 1.0, 0.5])


@st.composite
def _segment_runs(draw):
    """A bin width in ticks, sorted non-overlapping segments, and a makespan
    at or after the last segment's end."""
    width = draw(st.integers(1, 40))
    length = st.integers(0, 3 * width) | st.integers(1, 30).map(lambda k: k * width)
    t, segments = draw(st.integers(0, 2 * width)), []
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.sampled_from([0, 0, 0, 1, width]))   # mostly contiguous
        t1 = t + draw(length)
        segments.append((t, t1, draw(_UTIL), draw(_UTIL),
                         draw(st.none() | st.integers(0, 3))))
        t = t1
    return width, segments, t + draw(st.integers(0, 2 * width))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(run=_segment_runs())
def test_utilization_samples_match_per_bin_reference(run):
    width, segments, makespan_ticks = run
    trace = MetricsTrace()
    trace.segments = segments
    trace.makespan = makespan_ticks / TICKS_PER_S
    samples = list(trace.utilization_samples(width / TICKS_PER_S))
    # repr, not ==: 0.0 == -0.0 but they print differently
    assert [tuple(map(repr, row)) for row in samples] == \
        [tuple(map(repr, row)) for row in _per_bin_samples(segments, makespan_ticks, width)]
    # work conservation, within one tick of each segment's utilization
    binned = sum(cu * width for _, cu, _, _ in samples)
    exact = sum((t1 - t0) * cu for t0, t1, cu, _, _ in segments)
    assert abs(binned - exact) <= sum(cu for _, _, cu, _, _ in segments)


def test_whole_bins_share_their_segments_values():
    trace = MetricsTrace()
    cu, gu = 0.1 + 0.2, 0.7
    trace.segments = [(0, 5, 0.5, 0.0, None), (5, 95, cu, gu, 3), (95, 100, -0.0, -0.0, 1)]
    trace.makespan = 100 / TICKS_PER_S
    samples = list(trace.utilization_samples(10 / TICKS_PER_S))
    assert [row[3] for row in samples] == [3] * 10   # the first group seen in a bin
    # bins 1 .. 8 lie wholly inside the second segment and hold its objects
    assert all(row[1] is cu and row[2] is gu for row in samples[1:9])
    # the partial bins are sums, and a whole bin of -0.0 would be 0.0
    assert repr(samples[0][1]) == repr(0.5 * 0.5 + cu * 0.5)
    assert repr(samples[9][1]) == repr(cu * 0.5 + -0.0 * 0.5)


def _trace_bytes():
    e, ((s1, s2),) = compute_engine(streams_per=2)
    e.submit(s1, [kernel_dispatch(0.7, 0.6)])
    e.submit(s2, [kernel_dispatch(1.3, 0.6), kernel_dispatch(0.2, 0.3)])
    e.submit(s1, [kernel_dispatch(0.4, 0.2)])
    trace = e.run()
    return "\n".join(encode_events(trace.records)) + json.dumps(trace.segments)


def test_identical_runs_are_byte_identical():
    assert _trace_bytes() == _trace_bytes()


# ----------------------------------------------------------------------
# commands, ring entries and conditions are slotted values

@pytest.mark.parametrize("make", [
    lambda: kernel_dispatch(-0.1, 0.5),   # infinite: test_times_the_clock_cannot_hold_rejected
    lambda: kernel_dispatch(1.0, 1.5),
    lambda: graphics_draw(1.0, 0.5, -0.5),
    lambda: GpuCommand(CommandKind.KERNEL_DISPATCH, 1.0, 0.5, 0.25),
    lambda: GpuCommand(CommandKind.SEMAPHORE_WRITE, 1.0, sem_vaddr=0, sem_value=1),
    lambda: GpuCommand(CommandKind.INIT_COMPUTE, 0.5, config=ComputeConfig()),
])
def test_invalid_commands_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_command_entry_and_condition_values():
    cmd = kernel_dispatch(1.0, 0.1, touched=(4096,))
    assert cmd == kernel_dispatch(1.0, 0.1, touched=(4096,))
    assert hash(cmd) == hash(kernel_dispatch(1.0, 0.1, touched=(4096,)))
    assert cmd != kernel_dispatch(1.0, 0.1, touched=(8192,))
    assert cmd != graphics_draw(1.0, 0.1, 0.0, touched=(4096,))
    assert repr(cmd) == (
        "GpuCommand(kind=<CommandKind.KERNEL_DISPATCH: 'kernel_dispatch'>, "
        "base_duration=1.0, compute_frac=0.1, graphics_frac=0.0, "
        "touched_vaddrs=(4096,), sem_vaddr=None, sem_value=None, config=None)")
    buf = (cmd, semaphore_write(8192, 3))
    entry = GpFifoEntry(2, buf, 5, 1)
    assert entry == GpFifoEntry(2, (kernel_dispatch(1.0, 0.1, touched=(4096,)),
                                    semaphore_write(8192, 3)), 5, 1)
    assert hash(entry) == hash(GpFifoEntry(2, buf, 5, 1))
    assert entry != GpFifoEntry(2, buf, 6, 1)
    assert repr(GpFifoEntry(0, (), 1, None)) == \
        "GpFifoEntry(length=0, buffer=(), seq=1, stream_id=None)"
    assert TimeReached(0.5) == TimeReached(0.5)
    assert hash(TimeReached(0.5)) == hash(TimeReached(0.5))
    assert TimeReached(0.5) != TimeReached(0.25)
    assert TimeReached(0.5) != (0.5,)
    assert repr(TimeReached(0.5)) == "TimeReached(time=0.5)"
    sem = SemaphoreAtLeast(1, 4096, 3)
    assert sem == SemaphoreAtLeast(1, 4096, 3)
    assert hash(sem) == hash(SemaphoreAtLeast(1, 4096, 3))
    assert sem != SemaphoreAtLeast(1, 4096, 4)
    assert repr(sem) == "SemaphoreAtLeast(space_id=1, vaddr=4096, value=3)"
    for value in (sem, TimeReached(0.5), cmd, entry):
        assert not hasattr(value, "__dict__")
