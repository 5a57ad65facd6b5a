"""Async phase API, loop dependency guards, and pipeline makespans.

Hand-derived schedules: with per-step durations s and r, a K-step sequential
episode takes K*(s+r); the pipelined one takes s + (K-1)*max(s, r) + r since
step k+1 overlaps render k.
"""

import pytest

from gpumux import workloads
from gpumux.engine import SemaphoreAtLeast
from gpumux.workloads import (DatagenMode, EpisodeSpec, PhaseCost, RolloutMode,
                              RolloutSpec, SimSession, run_datagen, run_rl_rollout)

BALANCED = PhaseCost(sim_base=1.0, sim_per_env=0.0, render_base=1.0,
                     render_per_env=0.0, inference_base=0.0, inference_per_env=0.0)


def drive(session, gen):
    session.engine.spawn(gen)
    return session.engine.run()


# ----------------------------------------------------------------------
# async API

def test_step_then_wait_advances_clock_by_sim_duration():
    costs = PhaseCost(sim_base=0.0, sim_per_env=0.01)
    s = SimSession(costs, batch=64)

    def driver():
        h = s.step_async(0)
        yield s.wait_step(h)

    trace = drive(s, driver())
    assert trace.makespan == pytest.approx(costs.sim(64))


def test_two_steps_without_wait_rejected():
    s = SimSession(BALANCED, batch=8)
    s.step_async(0)
    with pytest.raises(RuntimeError):
        s.step_async(1)


def test_render_before_step_completion_rejected():
    s = SimSession(BALANCED, batch=8)
    with pytest.raises(RuntimeError):
        s.render_async(0)


def test_second_render_before_the_first_is_waited_rejected():
    s = SimSession(BALANCED, batch=8)
    s.wait_step(s.step_async(0))
    s.wait_step(s.step_async(1))
    first = s.render_async(0)
    stream, records = s.render_stream, s.engine.trace.records
    before = stream.next_semaphore_value, len(records)
    with pytest.raises(RuntimeError) as info:
        s.render_async(1)
    assert str(info.value) == "previous render not waited"
    assert (stream.next_semaphore_value, len(records)) == before
    s.wait_render(first)   # still the open render
    s.render_async(1)


def test_session_whose_groups_do_not_divide_the_batch_rejected(monkeypatch):
    def refuse(*args):
        raise AssertionError("an engine built for a rejected session")

    monkeypatch.setattr(workloads, "Engine", refuse)
    with pytest.raises(ValueError) as info:
        SimSession(BALANCED, batch=6, groups=4)
    assert str(info.value) == "groups must divide the batch"


def test_handle_waited_at_most_once():
    s = SimSession(BALANCED, batch=8)
    h = s.step_async(0)
    s.wait_step(h)
    with pytest.raises(RuntimeError):
        s.wait_step(h)


def test_wait_rejects_a_handle_of_the_other_phase():
    s = SimSession(BALANCED, batch=8)
    s.wait_step(s.step_async(0))
    r = s.render_async(0)
    with pytest.raises(RuntimeError):
        s.wait_step(r)
    s.wait_render(r)
    s.step_async(1)  # the step count was left alone


def test_steps_must_be_issued_in_order():
    s = SimSession(BALANCED, batch=8)
    with pytest.raises(RuntimeError):
        s.step_async(3)


def test_render_duration_scales_affinely_with_batch():
    # two-point fit recovers the configured coefficients
    costs = PhaseCost(render_base=0.2, render_per_env=0.005,
                      sim_base=0.1, sim_per_env=0.0)
    durations = {}
    for batch in (32, 128):
        m = run_datagen(EpisodeSpec(1, batch, DatagenMode.SEQUENTIAL), costs)
        iv = m.trace.exec_intervals(kind="graphics_draw")
        durations[batch] = iv[0][1] - iv[0][0]
    slope = (durations[128] - durations[32]) / 96
    base = durations[32] - slope * 32
    assert slope == pytest.approx(0.005)
    assert base == pytest.approx(0.2)


def test_each_group_submits_the_same_command_objects_on_every_step():
    s = SimSession(BALANCED, batch=4, groups=2)

    def driver(group):
        for k in range(3):
            yield s.wait_step(s.step_async(k, group))
            yield s.wait_render(s.render_async(k, group))

    for group in range(2):
        s.engine.spawn(driver(group))
    assert s.engine.run().stalled == []
    for stream, vaddrs in ((s.sim_stream, s.state_vaddrs),
                           (s.render_stream, s.frame_vaddrs)):
        ring = s.engine.channels[stream.channel_id].ring
        cmds = [entry.buffer[0] for entry in ring.slots if entry is not None]
        assert len(cmds) == 6
        for va in vaddrs:
            mine = [cmd for cmd in cmds if cmd.touched_vaddrs == (va,)]
            assert len(mine) == 3 and all(cmd is mine[0] for cmd in mine)


# ----------------------------------------------------------------------
# data generation

def test_sequential_two_steps_makespan_four():
    m = run_datagen(EpisodeSpec(2, 1, DatagenMode.SEQUENTIAL), BALANCED)
    assert m.makespan == pytest.approx(4.0)


def test_pipelined_two_steps_makespan_three():
    m = run_datagen(EpisodeSpec(2, 1, DatagenMode.PIPELINED), BALANCED)
    assert m.makespan == pytest.approx(3.0)  # sim0; sim1 over render0; render1


def test_thousand_step_sequential_episode_ends_exactly():
    costs = PhaseCost(sim_base=0.2, sim_per_env=0.0, render_base=0.1, render_per_env=0.0)
    m = run_datagen(EpisodeSpec(1000, 1, DatagenMode.SEQUENTIAL), costs)
    assert m.makespan == 300.0  # float seconds gave 299.99999999999426


def test_sequential_trace_has_no_phase_overlap():
    m = run_datagen(EpisodeSpec(3, 1, DatagenMode.SEQUENTIAL), BALANCED)
    sims = sorted(m.trace.exec_intervals(kind="kernel_dispatch"))
    draws = sorted(m.trace.exec_intervals(kind="graphics_draw"))
    for (s0, s1, _, _), (r0, r1, _, _) in zip(sims, draws):
        assert r0 >= s1 - 1e-9  # render k after sim k
    for a, b in zip(draws, sims[1:]):
        assert b[0] >= a[1] - 1e-9  # sim k+1 after render k (sequential only)


def test_pipelined_trace_keeps_dependencies_and_overlaps():
    m = run_datagen(EpisodeSpec(4, 1, DatagenMode.PIPELINED), BALANCED)
    sims = sorted(m.trace.exec_intervals(kind="kernel_dispatch"))
    draws = sorted(m.trace.exec_intervals(kind="graphics_draw"))
    for (s0, s1, _, _), (r0, r1, _, _) in zip(sims, draws):
        assert r0 >= s1 - 1e-9          # render k still waits for sim k
        assert s1 >= s0                  # sanity
    overlapped = any(draws[k][0] < sims[k + 1][1] and sims[k + 1][0] < draws[k][1]
                     for k in range(len(draws) - 1))
    assert overlapped  # some sim k+1 ran concurrently with render k


def test_equal_work_across_modes():
    for mode in DatagenMode:
        m = run_datagen(EpisodeSpec(5, 16, mode), BALANCED)
        assert m.throughput * m.makespan == pytest.approx(80)   # env steps
        sem_values = [ev["value"] for ev in m.trace.events
                      if ev["event"] == "semaphore"]
        # 5 increments per stream, two streams
        assert len(sem_values) == 10
        assert max(sem_values) == 5


def test_empty_episode_is_a_no_op():
    m = run_datagen(EpisodeSpec(0, 8, DatagenMode.PIPELINED), BALANCED)
    assert m.makespan == 0.0
    assert list(m.trace.utilization_samples(0.5)) == []


def test_stall_message_names_the_logged_faults():
    # a driver that waits on a semaphore that does not translate stalls, and
    # its fault record is what the message lists
    s = SimSession(BALANCED, batch=4)

    def driver():
        yield SemaphoreAtLeast(s.compute_ctx.space.id, 0x7fff_0000_0000, 1)

    with pytest.raises(RuntimeError, match=r"^workload stalled \(processes \[0\]\); "
                                           r"faults: page_fault@0\.0$"):
        workloads._run(s, False, [driver()], "custom", "sequential", 0)


def test_pipelined_faults_clean():
    m = run_datagen(EpisodeSpec(10, 32, DatagenMode.PIPELINED), PhaseCost())
    assert all(ev["event"] != "fault" for ev in m.trace.events)


# ----------------------------------------------------------------------
# rollout

def test_rollout_group_split_uses_per_group_durations():
    costs = PhaseCost(sim_base=0.0, sim_per_env=0.01, render_base=0.0,
                      render_per_env=0.01, inference_base=0.0, inference_per_env=0.0)
    m = run_rl_rollout(RolloutSpec(2, 64, 2, RolloutMode.INTERLEAVED), costs)
    for start, end, _, _ in m.trace.exec_intervals(kind="kernel_dispatch"):
        assert end - start == pytest.approx(costs.sim(32))  # 64 -> 2 x 32


def test_rollout_groups_must_divide_batch():
    with pytest.raises(ValueError):
        RolloutSpec(2, 10, 3, RolloutMode.INTERLEAVED)


def test_single_group_matches_sequential():
    costs = PhaseCost(sim_base=0.1, sim_per_env=0.005, render_base=0.1,
                      render_per_env=0.005, inference_base=0.05,
                      inference_per_env=0.0)
    seq = run_rl_rollout(RolloutSpec(6, 32, 1, RolloutMode.SEQUENTIAL), costs)
    inter = run_rl_rollout(RolloutSpec(6, 32, 1, RolloutMode.INTERLEAVED), costs)
    assert inter.makespan == pytest.approx(seq.makespan, rel=0.02)


def test_two_groups_overlap_sim_and_render():
    costs = PhaseCost(sim_base=0.0, sim_per_env=0.01, render_base=0.0,
                      render_per_env=0.01, inference_base=0.0, inference_per_env=0.0)
    seq = run_rl_rollout(RolloutSpec(20, 64, 2, RolloutMode.SEQUENTIAL), costs)
    inter = run_rl_rollout(RolloutSpec(20, 64, 2, RolloutMode.INTERLEAVED), costs)
    assert seq.makespan / inter.makespan >= 1.5


def test_rollout_chain_dependency_per_group():
    # per group: render k ends before inference k+1 starts
    costs = PhaseCost(sim_base=0.2, sim_per_env=0.0, render_base=0.2,
                      render_per_env=0.0, inference_base=0.1, inference_per_env=0.0)
    m = run_rl_rollout(RolloutSpec(3, 8, 2, RolloutMode.INTERLEAVED), costs)
    infer_events = [ev for ev in m.trace.events if ev["event"] == "inference"]
    # 2 groups x 3 steps
    assert len(infer_events) == 6
    draws = sorted(m.trace.exec_intervals(kind="graphics_draw"))
    assert len(draws) == 6
