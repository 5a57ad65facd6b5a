"""Scheduling, processor sharing, faults, semaphores, and trace determinism."""

import json
import math
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpumux.audits import check_all, check_temporal_exclusivity
from gpumux.channels import ComputeConfig, ContextKind, GpFifoEntry
from gpumux.commands import (CommandKind, GpuCommand, graphics_draw, kernel_dispatch,
                             semaphore_write, sleep)
from gpumux.config import TICKS_PER_S, DeviceConfig
from gpumux.engine import Condition, Engine, MetricsTrace, SemaphoreAtLeast, TimeReached
from gpumux.harness import encode_events, parse_config
from gpumux.vm import MemorySystem, SizeClass
from gpumux.workloads import (DatagenMode, EpisodeSpec, PhaseCost, RolloutMode, RolloutSpec,
                              SimSession, run_datagen, run_rl_rollout)
from test_golden import CASES


def compute_engine(n_contexts=1, streams_per=1, config=None):
    e = Engine(config or DeviceConfig())
    streams = []
    for _ in range(n_contexts):
        ctx = e.create_context(ContextKind.COMPUTE)
        streams.append([e.create_stream(ctx) for _ in range(streams_per)])
    return e, streams


def faults(trace):
    """The trace's ``fault`` events, as dicts."""
    return [ev for ev in trace.events if ev["event"] == "fault"]


def mapped_vaddr(e, ctx, size_class=SizeClass.BIG):
    space = ctx.space
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


def switching_engine(penalty, graphics=True):
    """A compute group with four 0.05 s kernels and, if ``graphics``, a
    graphics group with four 0.05 s draws, under a 0.1 s quantum."""
    e = Engine(DeviceConfig(quantum=0.1, context_switch_penalty=penalty))
    compute = e.create_stream(e.create_context(ContextKind.COMPUTE))
    for _ in range(4):
        e.submit(compute, [kernel_dispatch(0.05, 0.5)])
    if graphics:
        draws = e.create_stream(e.create_context(ContextKind.GRAPHICS))
        for _ in range(4):
            e.submit(draws, [graphics_draw(0.05, 0.0, 0.5)])
    return e


def test_context_switch_penalty_idles_between_groups():
    # each switch idles 0.01 s before the next group's window opens
    trace = switching_engine(0.01).run()
    assert trace.windows == [(0, 0.0, 0.1), (1, 0.11, 0.21), (0, 0.22, 0.32),
                             (1, 0.33, 0.43)]
    idle = [(t0, t1) for t0, t1, _, _, tsg in trace.segments if tsg is None]
    assert idle == [(100_000_000, 110_000_000), (210_000_000, 220_000_000),
                    (320_000_000, 330_000_000)]
    assert trace.makespan == 0.43
    assert switching_engine(0.0).run().makespan == 0.4
    check_all(trace)


def test_context_switch_penalty_not_paid_without_a_switch():
    trace = switching_engine(0.01, graphics=False).run()
    assert trace.windows == [(0, 0.0, 0.1), (0, 0.1, 0.2)]
    assert all(tsg is not None for _, _, _, _, tsg in trace.segments)
    assert trace.makespan == 0.2


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
    assert [f["kind"] for f in faults(trace)] == ["execution_fault"]


def test_unmapped_touch_page_faults_and_halts_channel():
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    good = mapped_vaddr(e, ctx)
    bad = 0x7fff_0000_0000
    e.submit(s, [kernel_dispatch(1.0, 0.1, touched=(bad,))])
    e.submit(s, [kernel_dispatch(1.0, 0.1, touched=(good,))])
    trace = e.run()
    (fault,) = faults(trace)
    assert fault["kind"] == "page_fault" and fault["vaddr"] == bad
    # the channel halted: the second buffer never ran
    assert not trace.exec_intervals(kind="kernel_dispatch")
    e.reset(s)
    trace = e.run()
    assert len(trace.exec_intervals(kind="kernel_dispatch")) == 1
    assert len(faults(trace)) == 1


def test_touch_outside_the_va_width_page_faults_and_halts_channel():
    # no root slot holds the address: a page fault at level 0 halts the
    # channel, where an error raised from translate failed every later run
    e, ((s,),) = compute_engine()
    far = 1 << 60
    e.submit(s, [kernel_dispatch(1.0, 0.1, touched=(far,))])
    e.submit(s, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    assert [(f["channel"], f["kind"], f["vaddr"], f["detail"]) for f in faults(trace)] == [
        (s.channel_id, "page_fault", far, "walk stopped at level 0")]
    ch = e.channels[s.channel_id]
    assert ch.faulted and not trace.exec_intervals(kind="kernel_dispatch")
    e.reset(s)
    trace = e.run()
    assert len(trace.exec_intervals(kind="kernel_dispatch")) == 1
    assert (trace.makespan, e.stream_semaphore(s), len(faults(trace))) == (1.0, 2, 1)
    check_all(trace)


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
    assert [(f["kind"], f["vaddr"]) for f in faults(trace)] == [("page_fault", bad)]
    completed = [ev["seq"] for ev in trace.events if ev["event"] == "buffer_complete"]
    assert faulting not in completed and following not in completed
    e.reset(s)
    trace = e.run()
    completed = [ev["seq"] for ev in trace.events if ev["event"] == "buffer_complete"]
    assert completed == [following]
    assert len(faults(trace)) == 1


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
    page, off = e.memory.translate(ctx.space, s.sync_vaddr)
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


def test_semaphore_condition_satisfied_reads_the_stream_semaphore():
    # the engine checks a yielded semaphore wait itself; ``satisfied`` stays
    # the condition's own answer, read through the semaphore's translation
    e, ((s,),) = compute_engine()
    e.submit(s, [kernel_dispatch(1.0, 0.1)])
    low, high = e.stream_condition(s, 1), e.stream_condition(s, 2)
    assert (low.satisfied(e), high.satisfied(e)) == (False, False)
    e.run()
    assert (low.satisfied(e), high.satisfied(e)) == (True, False)
    assert e.stream_semaphore(s) == 1


def test_work_submitted_on_a_launch_scan_wake_starts_at_that_instant():
    # stream 2's empty buffer completes during the launch scan, after stream
    # 1's channel was passed over; its driver then submits on stream 1, so
    # the group is scanned again and that kernel starts at once, beside the
    # running one, in the only window
    e, ((s0, s1, s2),) = compute_engine(streams_per=3)
    e.submit(s0, [kernel_dispatch(1.0, 0.2)])
    e.submit(s2, [])

    def driver():
        yield e.stream_condition(s2, 1)
        e.submit(s1, [kernel_dispatch(0.5, 0.2)])

    e.spawn(driver())
    trace = e.run()
    starts = {ev["stream"]: ev["time"] for ev in trace.events if ev["event"] == "exec_start"}
    assert starts == {s0.id: 0.0, s1.id: 0.0}
    assert [(t0, t1) for _, t0, t1 in trace.windows] == [(0.0, 1.0)]
    assert (trace.makespan, trace.stalled) == (1.0, [])


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


def test_driver_yielding_none_resumes_next_round():
    # None holds at once: pid 0 resumes in each following round, at t=0
    e = Engine()
    log = []
    e.spawn(logging_driver(e, log, 0, [None, None]))
    e.spawn(logging_driver(e, log, 1, [TimeReached(1.0)]))
    trace = e.run()
    assert log == [(0, 0.0), (0, 0.0), (1, 1.0)]
    assert trace.stalled == []


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

    # the wake path compares the stored threshold, so it would never ask a
    # subclass's own satisfied(): subclasses are rejected too
    class AlwaysAtLeast(SemaphoreAtLeast):
        def satisfied(self, engine):
            return True

    for cond in (Never(), AlwaysAtLeast(0, 0x1000, 1)):
        e = Engine()

        def driver():
            yield cond

        e.spawn(driver())
        with pytest.raises(TypeError):
            e.run()


def test_waiter_follows_a_remapped_semaphore():
    # the waiter is keyed by physical page; remapping its vaddr must re-key it
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    space = ctx.space
    va = mapped_vaddr(e, ctx, SizeClass.SMALL)
    log = []
    e.spawn(logging_driver(e, log, 0, [SemaphoreAtLeast(space.id, va, 7)]))
    assert e.run().stalled == [0]
    e.memory.unmap_range(space, va, 1)
    e.memory.map_range(space, va, e.memory.alloc_phys(SizeClass.SMALL))
    e.submit(s, [semaphore_write(va, 7)])
    assert e.run().stalled == []
    assert log == [(0, 0.0)]


def test_waiter_rekeyed_onto_a_location_that_holds_its_threshold_wakes():
    # the waiter's page is swapped for one that already holds 7; the moved
    # translation alone makes the next run collect, and the re-key marks the
    # new location dirty, so that first collection wakes the waiter with no
    # further semaphore write
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    space = ctx.space
    va, other = (mapped_vaddr(e, ctx, SizeClass.SMALL) for _ in range(2))
    e.submit(s, [semaphore_write(other, 7)])
    log = []
    e.spawn(logging_driver(e, log, 0, [SemaphoreAtLeast(space.id, va, 7)]))
    assert e.run().stalled == [0]
    page, _ = e.memory.translate(space, other)
    e.memory.unmap_range(space, va, 1)
    e.memory.map_range(space, va, [page])
    writes = dict(e.phys_mem)
    collected = []
    collect = e._collect_ready

    def recording_collect():
        collect()
        collected.append(list(e._ready))
    e._collect_ready = recording_collect
    assert e.run().stalled == []
    assert collected[0] == [0]
    assert log == [(0, 0.0)]
    assert e.phys_mem == writes


@pytest.mark.parametrize("unmap_while_waiting", [True, False],
                         ids=["unmapped_while_waiting", "unmapped_at_yield"])
def test_semaphore_that_does_not_translate_stalls_only_its_driver(unmap_while_waiting):
    # the fault is logged once, the driver leaves every wake-up structure,
    # and the rest of the device keeps running, on this run and the next
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    space = ctx.space
    va = mapped_vaddr(e, ctx, SizeClass.SMALL)
    log = []
    waiter = logging_driver(e, log, 0, [SemaphoreAtLeast(space.id, va, 7)])
    if unmap_while_waiting:
        e.spawn(waiter)
        assert e.run().stalled == [0]
    e.memory.unmap_range(space, va, 1)
    if not unmap_while_waiting:
        e.spawn(waiter)
    e.submit(s, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    assert [(f["channel"], f["tsg"], f["stream"], f["kind"], f["vaddr"], f["detail"])
            for f in faults(trace)] == [
        (None, None, None, "page_fault", va, "semaphore wait: walk stopped at level 4")]
    assert len(trace.exec_intervals(kind="kernel_dispatch")) == 1
    assert (trace.makespan, trace.stalled) == (1.0, [0])
    check_all(trace)
    # a later map does not bring the driver back
    e.memory.map_range(space, va, e.memory.alloc_phys(SizeClass.SMALL))
    e.submit(s, [semaphore_write(va, 7)])
    trace = e.run()
    assert (trace.stalled, log, len(faults(trace))) == ([0], [], 1)
    assert trace.makespan == 1.0


def test_semaphore_outside_the_va_width_stalls_only_its_driver():
    # logged as a fault at level 0 on the first run, which goes on to run the
    # kernel; the driver stays stalled and later runs proceed
    e, ((s,),) = compute_engine()
    ctx = e.contexts[s.context_id]
    far = 1 << 60
    log = []
    e.spawn(logging_driver(e, log, 0, [SemaphoreAtLeast(ctx.space.id, far, 1)]))
    e.submit(s, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    assert [(f["channel"], f["kind"], f["vaddr"], f["detail"]) for f in faults(trace)] == [
        (None, "page_fault", far, "semaphore wait: walk stopped at level 0")]
    assert (trace.makespan, trace.stalled, log) == (1.0, [0], [])
    e.submit(s, [kernel_dispatch(1.0, 0.1)])
    trace = e.run()
    assert (trace.makespan, trace.stalled, len(faults(trace))) == (2.0, [0], 1)
    check_all(trace)


def count_calls(monkeypatch, counts, owner, name):
    """Wrap ``owner.name`` to add one to ``counts[name]`` on each call."""
    inner = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return inner(*args)
    monkeypatch.setattr(owner, name, counted)


ENGINE_RUNS = {
    "rl": lambda: run_rl_rollout(RolloutSpec(10, 32768, 64, RolloutMode.INTERLEAVED),
                                 PhaseCost()),
    "datagen_sequential": lambda: run_datagen(
        EpisodeSpec(200, 128, DatagenMode.SEQUENTIAL), PhaseCost()),
    "datagen_pipelined": lambda: run_datagen(
        EpisodeSpec(200, 128, DatagenMode.PIPELINED), PhaseCost()),
}


def test_translates_per_buffer_are_pinned(monkeypatch):
    """Exact ``MemorySystem.translate`` calls per run. The semaphore write
    translates its address once and semaphore waiters wake without
    translating, so each submitted buffer costs four:
    the command-buffer write, the kernel's or draw's touched page, the
    semaphore write's check (whose translation the write reuses) and the
    one check of the condition its driver yields, whose location also keys
    the waiter. A bound stream adds one, the bind's bootstrap buffer: a
    drain reads no semaphore. The golden digests cannot see host work, so
    this is the test that catches a translation come back."""
    calls = Counter()
    count_calls(monkeypatch, calls, MemorySystem, "translate")
    counts = {}
    for name, run in ENGINE_RUNS.items():
        calls.clear()
        metrics = run()
        assert metrics.trace.stalled == []
        submits = sum(1 for r in metrics.trace.records if r[1] == "submit")
        counts[name] = (submits, calls["translate"])
    assert counts == {"rl": (1280, 5121), "datagen_sequential": (400, 1600),
                      "datagen_pipelined": (400, 1601)}


def test_session_maps_one_set_of_command_buffer_pages_per_channel():
    """Each space of a default session holds 2051 leaves: the context's
    footprint page, 1024 command-buffer pages for each of its two channels,
    one stream's semaphore page and one group's buffer. A stream writes its
    buffers into its channel's pages and maps none of its own."""
    mem = SimSession(PhaseCost(), batch=128).engine.memory
    assert [sum(1 for _ in mem.iter_leaves(space))
            for space in mem.spaces.values()] == [2051, 2051]


def test_condition_checks_equal_condition_yields(monkeypatch):
    """``satisfied`` runs once per yielded deadline and never on a wake or
    for a semaphore, whose yield is checked by one translation instead: each
    rl group yields an inference deadline on each of its 10 steps, 10 * 64
    checks, and datagen yields no deadline. Its step and render waits, 1280
    in rl, are the yields' translations that
    ``test_translates_per_buffer_are_pinned`` counts, so one check per yield
    (640 + 1280 = 1920 in rl) stays pinned."""
    calls = Counter()
    for cls in (SemaphoreAtLeast, TimeReached):
        count_calls(monkeypatch, calls, cls, "satisfied")
    counts = {}
    for name, run in ENGINE_RUNS.items():
        calls.clear()
        run()
        counts[name] = calls["satisfied"]
    assert counts == {"rl": 640, "datagen_sequential": 0, "datagen_pipelined": 0}


def test_rl_condition_checks_do_not_exceed_trace_events(monkeypatch):
    # polling every driver on every pass made ~40 checks per event here
    calls = Counter()
    for cls in (SemaphoreAtLeast, TimeReached):
        count_calls(monkeypatch, calls, cls, "satisfied")
    metrics = run_rl_rollout(RolloutSpec(4, 512, 64, RolloutMode.INTERLEAVED),
                             PhaseCost())
    events = len(metrics.trace.events)
    assert metrics.trace.stalled == []
    assert 0 < calls["satisfied"] <= events


def record_finished_commands(monkeypatch) -> list:
    """Wrap ``Engine._finish_command`` to list every timed command that ran
    to its end."""
    ran = []
    inner = Engine._finish_command

    def finish(self, ch, cmd):
        ran.append(cmd)
        return inner(self, ch, cmd)
    monkeypatch.setattr(Engine, "_finish_command", finish)
    return ran


def assert_work_conserved(trace, ran, config):
    """For each resource, the work the segments deliver, ``(t1 - t0) * util
    * capacity`` summed, equals the work the finished commands asked for,
    ``base_duration * frac`` summed, within one tick per segment."""
    assert trace.stalled == []
    segments = trace.segments
    for col, capacity, frac in ((2, config.compute_capacity, "compute_frac"),
                                (3, config.graphics_capacity, "graphics_frac")):
        done = sum((seg[1] - seg[0]) * seg[col] for seg in segments) * capacity / TICKS_PER_S
        asked = sum(cmd.base_duration * getattr(cmd, frac) for cmd in ran)
        assert abs(done - asked) <= len(segments) / TICKS_PER_S, (frac, done, asked)


@pytest.mark.parametrize("capacities", [(1.0, 1.0), (0.6, 0.7)])
@pytest.mark.parametrize("mode", list(DatagenMode))
def test_segments_deliver_the_work_the_commands_ran(monkeypatch, mode, capacities):
    ran = record_finished_commands(monkeypatch)
    config = DeviceConfig(compute_capacity=capacities[0], graphics_capacity=capacities[1])
    metrics = run_datagen(EpisodeSpec(50, 128, mode), PhaseCost(), config)
    assert len(ran) == 100
    assert_work_conserved(metrics.trace, ran, config)


def record_timed_commands(monkeypatch) -> dict:
    """Wrap ``Engine.submit`` to map each submitted buffer's ``seq`` to its
    timed commands, in buffer order."""
    timed = {}
    inner = Engine.submit

    def submit(self, stream, commands):
        seq = inner(self, stream, commands)
        timed[seq] = [cmd for cmd in commands if cmd.base_duration > 0]
        return seq
    monkeypatch.setattr(Engine, "submit", submit)
    return timed


def assert_processor_sharing(trace, timed, config):
    """Replay every timed command from its recorded ``exec_start`` under the
    resource model's definition, in exact fractions of a tick, and check
    its recorded ``exec_end``.

    A command's work is its ``base_duration``. While a set of flights runs,
    each does 1 / stretch of work per unit of time, with stretch =
    max(sum compute_frac / compute capacity, sum graphics_frac / graphics
    capacity, 1). The set changes only when a flight starts (as recorded) or
    completes (as replayed), so the replay splits time only there; a window
    never pre-empts a flight, so it needs no scheduler. The engine rounds
    each of its steps to a tick, so each recorded end must lie within one
    tick per replay step that its flight lived through."""
    assert trace.stalled == []
    starts, works, demands, ends = [], [], [], []
    open_flight, taken = {}, Counter()   # channel -> flight index; seq -> commands started
    for t, event, channel, _, _, extras in trace.records:
        if event == "exec_start":
            seq = extras[1]
            cmd = timed[seq][taken[seq]]
            taken[seq] += 1
            open_flight[channel] = len(starts)
            starts.append(round(t * TICKS_PER_S))
            works.append(Fraction(cmd.base_duration) * TICKS_PER_S)
            demands.append((Fraction(cmd.compute_frac), Fraction(cmd.graphics_frac)))
            ends.append(None)
        elif event == "exec_end":
            ends[open_flight.pop(channel)] = round(t * TICKS_PER_S)
    # every submitted timed command ran once, and all of them ended
    assert taken == Counter({seq: len(cmds) for seq, cmds in timed.items() if cmds})
    assert starts and not open_flight
    compute_cap = Fraction(config.compute_capacity)
    graphics_cap = Fraction(config.graphics_capacity)
    remaining: dict[int, Fraction] = {}   # flight index -> work left, in ticks
    lived = [0] * len(starts)
    replayed = [None] * len(starts)
    nxt, now = 0, 0
    while nxt < len(starts) or remaining:
        if not remaining:
            now = starts[nxt]
        while nxt < len(starts) and starts[nxt] == now:
            remaining[nxt] = works[nxt]
            nxt += 1
        stretch = max(sum(demands[i][0] for i in remaining) / compute_cap,
                      sum(demands[i][1] for i in remaining) / graphics_cap, Fraction(1))
        end = now + min(remaining.values()) * stretch
        if nxt < len(starts) and starts[nxt] < end:
            end = starts[nxt]
        progress = (end - now) / stretch
        now = end
        for i in list(remaining):
            remaining[i] -= progress
            lived[i] += 1
            if remaining[i] == 0:
                replayed[i] = now
                del remaining[i]
    for i, end in enumerate(ends):
        assert abs(end - replayed[i]) <= lived[i], (i, end, float(replayed[i]), lived[i])


REPLAY_RUNS = {
    "datagen_sequential": lambda config: run_datagen(
        EpisodeSpec(50, 128, DatagenMode.SEQUENTIAL), PhaseCost(), config),
    "datagen_pipelined": lambda config: run_datagen(
        EpisodeSpec(50, 128, DatagenMode.PIPELINED), PhaseCost(), config),
    "rl": lambda config: run_rl_rollout(RolloutSpec(5, 256, 8, RolloutMode.INTERLEAVED),
                                        PhaseCost(), config),
}


@pytest.mark.parametrize("capacities", [(1.0, 1.0), (0.6, 0.7)])
@pytest.mark.parametrize("run", sorted(REPLAY_RUNS))
def test_flights_end_where_a_processor_sharing_replay_ends_them(monkeypatch, run,
                                                                  capacities):
    timed = record_timed_commands(monkeypatch)
    config = DeviceConfig(compute_capacity=capacities[0], graphics_capacity=capacities[1])
    metrics = REPLAY_RUNS[run](config)
    assert_processor_sharing(metrics.trace, timed, config)


def golden_case_runs(case, tmp_path):
    """The device config of a golden case, and each run of its sweep as a call
    that runs it in this process."""
    command, text = CASES[case]
    path = tmp_path / "case.ini"
    path.write_text(text)
    cfg = parse_config(path)
    runs = []
    for batch in cfg.batches[:1] if command == "trace" else cfg.batches:
        for mode in RolloutMode if command == "rl" else DatagenMode:
            if command == "rl":
                spec = RolloutSpec(cfg.steps, batch, cfg.groups, mode)
                runs.append(partial(run_rl_rollout, spec, cfg.costs, cfg.device))
            else:
                spec = EpisodeSpec(cfg.steps, batch, mode)
                runs.append(partial(run_datagen, spec, cfg.costs, cfg.device))
    return cfg.device, runs


ENGINE_CASES = [name for name, (command, _) in CASES.items() if command != "graftbench"]


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_golden_cases_conserve_work(monkeypatch, tmp_path, case):
    device, runs = golden_case_runs(case, tmp_path)
    ran = record_finished_commands(monkeypatch)
    for run in runs:
        ran.clear()
        metrics = run()
        assert ran
        assert_work_conserved(metrics.trace, ran, device)


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_golden_cases_replay_processor_sharing(monkeypatch, tmp_path, case):
    device, runs = golden_case_runs(case, tmp_path)
    timed = record_timed_commands(monkeypatch)
    for run in runs:
        timed.clear()
        assert_processor_sharing(run().trace, timed, device)


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
