"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Expected
values are produced by independent oracles (brute-force table walks, hand
schedules, closed-form pipeline bounds) rather than by the code paths under
test.
"""

import json
import random
import sys
import time

import pytest

from gpumux.audits import check_all, interval_inside_windows
from gpumux.channels import ContextKind
from gpumux.commands import kernel_dispatch
from gpumux.config import DeviceConfig
from gpumux.engine import Engine
from gpumux.harness import ExperimentConfig, encode_events, graft_sweep
from gpumux.vm import AllocPolicy, MemorySystem, PageFault, SizeClass
from gpumux.workloads import (DatagenMode, EpisodeSpec, PhaseCost, RolloutMode,
                              RolloutSpec, run_datagen, run_rl_rollout)

SMALL, BIG = SizeClass.SMALL, SizeClass.BIG

_audited_traces = []


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _audit(metrics):
    check_all(metrics.trace)
    _audited_traces.append(metrics.trace)
    return metrics


def _map_new(mem, space, n=1, size_class=SMALL, hint=None):
    va = mem.allocate(space, n, size_class, hint=hint)
    mem.map_range(space, va, mem.alloc_phys(size_class, n))
    return va


# ----------------------------------------------------------------------

def test_criterion_1_graft_oracle_equivalence():
    """Randomized op sequences, graft mid-way, exhaustive translate == oracle."""
    seeds = 100
    ops_per_seed = 1000
    t0 = time.monotonic()
    for seed in range(seeds):
        rng = random.Random(seed)
        mem = MemorySystem()
        high = mem.create_space(AllocPolicy.HIGH_RANGE)
        low = mem.create_space(AllocPolicy.LOW_RANGE)
        _map_new(mem, high)  # pinned resident footprint, never unmapped
        _map_new(mem, low)
        owned = {high.id: [], low.id: []}
        grafted = False
        for op in range(ops_per_seed):
            if op == ops_per_seed // 2:
                mem.graft(high, low)
                grafted = True
                continue
            space = high if rng.random() < 0.5 else low
            roll = rng.random()
            if roll < 0.55 or not owned[space.id]:
                if rng.random() < 0.1:
                    va = _map_new(mem, space, 1, BIG)
                    owned[space.id].append((va, 1))
                else:
                    n = rng.randint(1, 3)
                    va = _map_new(mem, space, n)
                    owned[space.id].append((va, n))
            elif roll < 0.8:
                va, n = owned[space.id].pop(rng.randrange(len(owned[space.id])))
                mem.unmap_range(space, va, n)
            else:
                va, _ = owned[space.id][rng.randrange(len(owned[space.id]))]
                assert mem.translate(space, va)
                if grafted and space is high:
                    assert mem.translate(low, va) == mem.translate(high, va)
        oracle = mem.union_oracle(high, low)
        discrepancies = sum(1 for va, page in oracle.items()
                            if mem.translate(low, va)[0] != page)
        assert discrepancies == 0, f"seed {seed}: {discrepancies} mismatches"
        walked = dict(mem.iter_leaves(low))
        assert walked == oracle, f"seed {seed}: target walk != union"
        assert high.conflicts_resolved == 0 and low.conflicts_resolved == 0
    elapsed = time.monotonic() - t0
    # a line tracer (tools/uncovered.py, a debugger) slows this loop several
    # times over, so the time bound holds only for an untraced run
    traced = sys.gettrace() is not None
    _report("criterion 1: graft oracle equivalence", traced or elapsed < 10.0,
            f"{seeds} seeds, {elapsed:.2f}s"
            + (", traced: the 10 s bound was not checked" if traced else ""))


def test_criterion_2_consistency_propagation():
    """128 post-graft 2 MiB mappings resolve on the subscriber; subscriber
    writes equal newly created frontier entries (zero when intra-subtree)."""
    mem = MemorySystem()
    high = mem.create_space(AllocPolicy.HIGH_RANGE)
    low = mem.create_space(AllocPolicy.LOW_RANGE)
    _map_new(mem, high, 2)
    _map_new(mem, low, 2)
    mem.graft(high, low)
    writes_before = mem.copy_log.writes
    buffers = [_map_new(mem, high, 1, BIG) for _ in range(128)]
    subscriber_writes = mem.copy_log.writes - writes_before
    resolved = sum(1 for va in buffers
                   if mem.translate(low, va) == mem.translate(high, va))
    ok = resolved == 128 and subscriber_writes == 0
    # a mapping outside every grafted subtree must cost exactly one write
    hint = mem.geometry.entry_span(1) + 0x7000_0000_0000
    before = mem.copy_log.writes
    va = _map_new(mem, high, 1, BIG, hint=hint)
    crossing_ok = (mem.copy_log.writes - before == 1
                   and mem.translate(low, va) == mem.translate(high, va))
    _report("criterion 2: consistency propagation", ok and crossing_ok,
            f"128/128 resolved, {subscriber_writes} intra-subtree writes, "
            f"1 frontier write")


def test_criterion_3_graft_vs_export_import_scaling():
    """Export/import costs exactly 2N; graft stays flat and wins >=10x at 8192."""
    cfg = ExperimentConfig(device=DeviceConfig(), costs=PhaseCost(), env="bench",
                           steps=0, batches=[1], groups=1, buffer_counts=[])
    t0 = time.monotonic()
    counts = [4 << i for i in range(12)]  # 4 .. 8192
    rows = [graft_sweep(cfg, [n])[0] for n in counts]
    elapsed = time.monotonic() - t0
    export = [r["export_import_ops"] for r in rows]
    graft = [r["graft_ops"] for r in rows]
    by_n = dict(zip(counts, graft))
    exact_export = export == [2 * n for n in counts]
    flat_small = len({by_n[n] for n in counts if n <= 128}) == 1
    monotone = graft == sorted(graft) and export == sorted(export)
    ratio_ok = by_n[8192] <= (2 * 8192) / 10
    _report("criterion 3: graft-vs-export/import scaling",
            exact_export and flat_small and monotone and ratio_ok
            and elapsed < 5.0,
            f"graft@8192={by_n[8192]} vs export={2 * 8192}, {elapsed:.2f}s")


def _redirection_engine():
    e = Engine(DeviceConfig())
    compute = e.create_context(ContextKind.COMPUTE)
    graphics = e.create_context(ContextKind.GRAPHICS)
    e.provision_forwarding_pool(graphics, 2)
    stream = e.create_stream(compute)
    space = compute.space
    state = e.memory.allocate(space, 1, BIG)
    e.memory.map_range(space, state, e.memory.alloc_phys(BIG))
    return e, compute, graphics, stream, state


def test_criterion_4_redirection_end_to_end():
    e, compute, graphics, stream, state = _redirection_engine()
    native_channel = e.channels[stream.channel_id]
    ring = native_channel.ring
    snapshot_fields = (ring, ring.token, ring.get, ring.put)
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(state,))])
    e.run()
    trace = e.trace
    kernel = trace.exec_intervals(stream_id=stream.id, kind="kernel_dispatch")[-1]
    in_graphics_slice = (kernel[2] == graphics.id
                         and interval_inside_windows(trace, kernel[0], kernel[1],
                                                     graphics.id))
    # the semaphore landed at the compute-space sync region
    page, off = e.memory.translate(compute.space,
                                   stream.sync_vaddr)
    sem_ok = e.phys_mem[(page.id, off)] == 1
    micro_bound = [ev["micro_ops"] for ev in trace.events if ev["event"] == "submit"]
    e.unbind(stream)
    ring = native_channel.ring
    restored = (ring, ring.token, ring.get, ring.put) == snapshot_fields
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(state,))])
    e.run()
    micro_unbound = [ev["micro_ops"] for ev in e.trace.events
                     if ev["event"] == "submit"][-1]
    after = e.trace.exec_intervals(stream_id=stream.id, kind="kernel_dispatch")[-1]
    back_in_compute = (after[2] == compute.id
                       and interval_inside_windows(e.trace, after[0], after[1],
                                                   compute.id))
    zero_overhead = set(micro_bound) == {4} and micro_unbound == 4
    check_all(e.trace)
    _audited_traces.append(e.trace)
    ok = (in_graphics_slice and sem_ok and zero_overhead and restored
          and back_in_compute and not _faults(e.trace))
    _report("criterion 4: redirection end-to-end", ok,
            f"kernel in graphics slice {kernel[0]:.2f}-{kernel[1]:.2f}, "
            f"micro-ops {micro_bound[0]}=={micro_unbound}")


def _faults(trace):
    return [(ev["kind"], ev["vaddr"]) for ev in trace.events if ev["event"] == "fault"]


def test_criterion_5_fault_triad():
    # Each ablation is injected on the instance: the model has no switch for it.
    # (a) bootstrap skipped: first kernel raises an execution fault
    e, _, graphics, stream, state = _redirection_engine()
    e.bootstrap = lambda channel, config: None
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(state,))])
    e.run()
    a_ok = _faults(e.trace) == [("execution_fault", None)]

    # (b) graft skipped: first touched compute address page-faults
    e, _, graphics, stream, state = _redirection_engine()
    e.memory.graft = lambda source, target: None
    e.bind(stream, graphics)
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(state,))])
    e.run()
    b_ok = _faults(e.trace) == [("page_fault", state)]

    # (c) invalidation replication off: subscriber serves a stale page; the
    # subscriber's TLB is put back as it was before the source's unmap
    mem = MemorySystem()
    high = mem.create_space(AllocPolicy.HIGH_RANGE)
    low = mem.create_space(AllocPolicy.LOW_RANGE)
    _map_new(mem, high)
    _map_new(mem, low)
    mem.graft(high, low)
    va = mem.allocate(high, 1, SMALL)
    (old_page,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [old_page])
    mem.translate(low, va)
    stale = dict(low.tlb)
    mem.unmap_range(high, va, 1)
    low.tlb.update(stale)
    (new_page,) = mem.alloc_phys(SMALL)
    mem.map_range(high, va, [new_page])
    c_ok = (mem.translate(low, va)[0] == old_page
            and mem.translate(high, va)[0] == new_page)

    _report("criterion 5: fault triad", a_ok and b_ok and c_ok,
            f"bootstrap={a_ok} graft={b_ok} stale-tlb={c_ok}")


def test_criterion_6_pipeline_closed_forms():
    balanced = PhaseCost(sim_base=1.0, sim_per_env=0.0, render_base=1.0,
                         render_per_env=0.0, inference_base=0.0,
                         inference_per_env=0.0)
    seq = _audit(run_datagen(EpisodeSpec(100, 1, DatagenMode.SEQUENTIAL), balanced))
    pipe = _audit(run_datagen(EpisodeSpec(100, 1, DatagenMode.PIPELINED), balanced))
    speedup = seq.makespan / pipe.makespan
    seq_ok = abs(seq.makespan - 200.0) / 200.0 < 0.02
    pipe_ok = abs(pipe.makespan - 101.0) / 101.0 < 0.02
    asym = PhaseCost(sim_base=1.0, sim_per_env=0.0, render_base=3.0,
                     render_per_env=0.0, inference_base=0.0, inference_per_env=0.0)
    aseq = _audit(run_datagen(EpisodeSpec(100, 1, DatagenMode.SEQUENTIAL), asym))
    apipe = _audit(run_datagen(EpisodeSpec(100, 1, DatagenMode.PIPELINED), asym))
    asym_speedup = aseq.makespan / apipe.makespan
    asym_ok = abs(asym_speedup - 4.0 / 3.0) / (4.0 / 3.0) < 0.05
    _report("criterion 6: pipeline closed forms",
            seq_ok and pipe_ok and speedup >= 1.95 and asym_ok,
            f"seq={seq.makespan:.1f} pipe={pipe.makespan:.1f} "
            f"speedup={speedup:.3f} asym={asym_speedup:.3f}")


def test_criterion_7_speedup_hump():
    costs = PhaseCost()  # shipped default calibration
    sweep = {}
    for batch in (32, 64, 128, 256, 384):
        seq = _audit(run_datagen(EpisodeSpec(40, batch, DatagenMode.SEQUENTIAL), costs))
        pipe = _audit(run_datagen(EpisodeSpec(40, batch, DatagenMode.PIPELINED), costs))
        sweep[batch] = seq.makespan / pipe.makespan
    peak_batch = max(sweep, key=sweep.get)
    peak = sweep[peak_batch]
    interior = peak_batch not in (32, 384)
    hump = peak > sweep[32] and peak > sweep[384]
    bounded = 1.3 < peak <= 2.0
    _report("criterion 7: mid-batch speedup hump", interior and hump and bounded,
            "sweep " + " ".join(f"{b}:{s:.3f}" for b, s in sweep.items()))


def test_criterion_8_rl_interleaving():
    balanced = PhaseCost(sim_base=0.0, sim_per_env=0.01, render_base=0.0,
                         render_per_env=0.01, inference_base=0.0,
                         inference_per_env=0.0)
    seq = _audit(run_rl_rollout(RolloutSpec(30, 64, 2, RolloutMode.SEQUENTIAL), balanced))
    inter = _audit(run_rl_rollout(RolloutSpec(30, 64, 2, RolloutMode.INTERLEAVED), balanced))
    two_group = seq.makespan / inter.makespan

    seq1 = _audit(run_rl_rollout(RolloutSpec(30, 64, 1, RolloutMode.SEQUENTIAL), balanced))
    int1 = _audit(run_rl_rollout(RolloutSpec(30, 64, 1, RolloutMode.INTERLEAVED), balanced))
    single = seq1.makespan / int1.makespan

    heavy = PhaseCost(sim_base=0.2, sim_per_env=0.004, render_base=0.05,
                      render_per_env=0.004, inference_base=0.03,
                      inference_per_env=0.02)
    sweep = {}
    for batch in (32, 64, 128, 256):
        s = _audit(run_rl_rollout(RolloutSpec(20, batch, 2, RolloutMode.SEQUENTIAL), heavy))
        i = _audit(run_rl_rollout(RolloutSpec(20, batch, 2, RolloutMode.INTERLEAVED), heavy))
        sweep[batch] = s.makespan / i.makespan
    declines = sweep[256] < sweep[64]
    _report("criterion 8: rollout interleaving",
            two_group >= 1.5 and abs(single - 1.0) < 0.02 and declines,
            f"G2={two_group:.3f} G1={single:.3f} "
            f"inference sweep {sweep[64]:.3f}->{sweep[256]:.3f}")


def test_criterion_9_determinism_and_exclusivity():
    # audits already ran on every workload above; rerun them here explicitly
    assert _audited_traces, "no audited workloads collected"
    for trace in _audited_traces:
        check_all(trace)

    def run_bytes():
        m = run_datagen(EpisodeSpec(12, 48, DatagenMode.PIPELINED), PhaseCost())
        return ("\n".join(encode_events(m.trace.records))
                + json.dumps(m.trace.segments) + repr(m.makespan))

    identical = run_bytes() == run_bytes()
    _report("criterion 9: determinism and exclusivity audits", identical,
            f"{len(_audited_traces)} audited traces, byte-identical rerun")
