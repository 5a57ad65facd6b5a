"""Config validation, experiment outputs, determinism, and the CLI surface."""

import gc
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpumux.cli as cli
import gpumux.harness as harness
from gpumux.audits import InvariantViolation
from gpumux.channels import ContextKind, RingFull
from gpumux.commands import graphics_draw, kernel_dispatch
from gpumux.config import DeviceConfig
from gpumux.engine import EVENT_FIELDS, Engine
from gpumux.harness import (ConfigError, ExperimentConfig, cmd_datagen, cmd_graftbench,
                            cmd_rl, cmd_trace, encode_events, encode_utilization,
                            graft_sweep, parse_config)
from gpumux.vm import AddressSpaceExhausted, AllocPolicy, MemorySystem, PageGeometry, SizeClass
from gpumux.workloads import DatagenMode, EpisodeSpec, PhaseCost, RolloutMode, run_datagen

GOOD = """
# small but complete experiment
[device]
quantum = 0.1
ring_capacity = 64

[costs]
preset = StackCube
render_per_env = 0.007

[workload]
env = StackCube
steps = 6
batches = 16 32
groups = 2

[graftbench]
buffer_counts = 4 16 64
"""


def write_config(tmp_path, text=GOOD, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ----------------------------------------------------------------------
# config parsing

def test_parse_good_config(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.device.quantum == 0.1
    assert cfg.device.ring_capacity == 64
    assert cfg.costs.render_per_env == 0.007      # explicit override wins
    assert cfg.costs.sim_base == 0.9              # preset value kept
    assert cfg.batches == [16, 32]
    assert cfg.buffer_counts == [4, 16, 64]


def test_unknown_key_reports_line(tmp_path):
    bad = GOOD.replace("ring_capacity = 64", "ring_capcity = 64")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "ring_capcity" in str(exc.value)
    assert "line" in str(exc.value)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, GOOD + "\n[plotting]\nstyle = dark\n"))
    assert "plotting" in str(exc.value)


def test_bad_value_reports_line(tmp_path):
    bad = GOOD.replace("quantum = 0.1", "quantum = fast")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "quantum" in str(exc.value)


def test_duplicate_key_reports_both_lines(tmp_path):
    # strict like configparser: a repeated key is an error, not "last one wins",
    # also when its section is opened a second time
    bad = GOOD.replace("steps = 6", "steps = 2\nsteps = 3")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "'steps'" in str(exc.value)
    assert "line 14" in str(exc.value) and "line 13" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, GOOD + "[device]\nquantum = 0.2\n"))
    assert "'quantum'" in str(exc.value) and "line 4" in str(exc.value)


def test_invalid_device_values_rejected(tmp_path):
    bad = GOOD.replace("quantum = 0.1", "quantum = -1.0")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))


def test_unknown_preset_rejected(tmp_path):
    bad = GOOD.replace("preset = StackCube", "preset = WarpDrive")
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, bad))
    assert "WarpDrive" in str(exc.value)


def test_groups_must_divide_batches(tmp_path):
    bad = GOOD.replace("batches = 16 32", "batches = 16 33")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))


def test_hex_bases_accepted(tmp_path):
    text = GOOD + "\n[device]\nhigh_base = 0x700000000000\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.device.high_base == 0x700000000000


def test_every_device_field_is_a_config_key():
    # a field that no config file can set would be an option only code could use
    geometry_keys = harness._GEOMETRY_KEYS
    device_keys = set(harness._SCHEMA["device"]) - set(geometry_keys)
    assert set(DeviceConfig.__slots__) - {"geometry"} == device_keys
    assert set(geometry_keys) <= set(harness._SCHEMA["device"])
    assert set(PageGeometry.__slots__) == set(geometry_keys.values())


@pytest.mark.parametrize("text, message", [
    (GOOD.replace("quantum = 0.1", "quantum 0.1"), "line 4: expected 'key = value'"),
    ("steps = 6\n" + GOOD, "line 1: key outside any section"),
    (GOOD.replace("render_per_env = 0.007", "sim_compute_frac = 2"),
     "[costs]: sim_compute_frac must lie in [0, 1]"),
    (GOOD.replace("steps = 6", "steps = -1"), "[workload]: steps must be >= 0"),
    (GOOD.replace("batches = 16 32", "batches = 0"), "[workload]: batches must be positive"),
    (GOOD.replace("groups = 2", "groups = 0"), "[workload]: groups must be >= 1"),
    (GOOD.replace("buffer_counts = 4 16 64", "buffer_counts = 0"),
     "[graftbench]: buffer_counts must be positive"),
], ids=["no_equals", "outside_section", "bad_cost", "negative_steps", "zero_batch",
        "zero_groups", "zero_buffer_count"])
def test_cli_config_error_paths_exit_2(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    assert cli.main(["datagen", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# ----------------------------------------------------------------------
# commands and outputs

def test_datagen_outputs_and_speedups(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    rows = cmd_datagen(cfg, out, json_events=True)
    # no temporary file is left behind
    assert sorted(os.listdir(out)) == ["events.jsonl", "summary.csv", "utilization.jsonl"]
    assert len(rows) == 4  # 2 batches x 2 modes
    for row in rows:
        if row["mode"] == "pipelined":
            assert row["speedup_vs_sequential"] > 1.0


def test_summary_recomputable_from_event_log(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    rows = cmd_datagen(cfg, out, json_events=True)
    by_run = {}
    for line in (out / "events.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if "meta" in rec:
            continue
        by_run.setdefault(rec["run"], []).append(rec)
    for row in rows:
        run = f"B{row['B']}/{row['mode']}"
        makespan = max(ev["time"] for ev in by_run[run])
        assert makespan == pytest.approx(row["makespan"])
        assert row["throughput"] == pytest.approx(row["K"] * row["B"] / makespan)


def test_outputs_byte_identical_across_reruns(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_datagen(cfg, out_a, json_events=True)
    cmd_datagen(cfg, out_b, json_events=True)
    for name in ("summary.csv", "utilization.jsonl", "events.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_rl_outputs(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    rows = cmd_rl(cfg, tmp_path / "out")
    assert len(rows) == 4
    assert {row["mode"] for row in rows} == {"sequential", "interleaved"}


@pytest.mark.parametrize("command", [cmd_datagen, cmd_rl, cmd_trace, cmd_graftbench])
def test_events_encoded_only_when_written(tmp_path, monkeypatch, command):
    cfg = parse_config(write_config(tmp_path))
    command(cfg, tmp_path / "want")

    def refuse(*args):
        raise AssertionError("events encoded for a run that writes no events.jsonl")

    monkeypatch.setattr(harness, "encode_events", refuse)
    command(cfg, tmp_path / "got")
    for name in ("summary.csv", "utilization.jsonl"):
        assert (tmp_path / "got" / name).read_bytes() == \
            (tmp_path / "want" / name).read_bytes()
    assert not (tmp_path / "got" / "events.jsonl").exists()


@pytest.mark.parametrize("command", [cmd_datagen, cmd_rl])
def test_peak_memory_follows_one_batch(tmp_path, command):
    # each run's lines are written as the run ends: a sweep of four equal
    # batches peaks near one batch, where keeping the lines to the end grows
    # with the sweep (about 3x here)
    def traced_peak(batches):
        text = GOOD.replace("steps = 6", "steps = 20").replace(
            "batches = 16 32", "batches = " + " ".join(["16"] * batches))
        cfg = parse_config(write_config(tmp_path, text))
        gc.collect()
        tracemalloc.start()
        try:
            command(cfg, tmp_path / "out", json_events=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = traced_peak(1)
    assert traced_peak(4) < 1.5 * one


def _snapshot(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def _ring_full_at(monkeypatch, name, batch, mode):
    # the run of one (batch, mode) raises, in whichever process runs it
    real = getattr(harness, name)

    def runner(spec, *args, **kwargs):
        if (spec.batch, spec.mode) == (batch, mode):
            raise RingFull("engineered failure")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(harness, name, runner)


def _break_trace_check(monkeypatch):
    # the pipelined run first: the utilization check after the sweep must fail
    monkeypatch.setattr(harness, "_DATAGEN_MODES", harness._DATAGEN_MODES[::-1])


# batch 16 is written before batch 32 fails: in datagen its sequential run
# (the child's), in rl its interleaved run (the parent's)
@pytest.mark.parametrize("command, error, sabotage", [
    (cmd_datagen, RingFull,
     lambda mp: _ring_full_at(mp, "run_datagen", 32, DatagenMode.SEQUENTIAL)),
    (cmd_rl, RingFull,
     lambda mp: _ring_full_at(mp, "run_rl_rollout", 32, RolloutMode.INTERLEAVED)),
    (cmd_trace, InvariantViolation, _break_trace_check),
], ids=["datagen", "rl", "trace"])
def test_failed_command_leaves_out_as_it_found_it(tmp_path, monkeypatch, command, error,
                                                  sabotage):
    cfg = parse_config(write_config(tmp_path))
    previous = tmp_path / "previous"
    command(cfg, previous, json_events=True)
    before = _snapshot(previous)
    for out in (previous, tmp_path / "fresh" / "out"):
        with monkeypatch.context() as mp:
            sabotage(mp)
            with pytest.raises(error):
                command(cfg, out, json_events=True)
    assert _snapshot(previous) == before
    assert not (tmp_path / "fresh").exists()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The descriptors open in this process, or None where /proc/self/fd is absent."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("mode", [None, DatagenMode.SEQUENTIAL, DatagenMode.PIPELINED],
                         ids=["success", "child_run_fails", "parent_run_fails"])
def test_paired_sweep_leaves_no_child(tmp_path, monkeypatch, mode):
    # nor an open descriptor, nor a named file in the temporary directory
    cfg = parse_config(write_config(tmp_path))
    want = cmd_datagen(cfg, tmp_path / "want", json_events=True)
    _assert_no_child_left()
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    fds = _open_fds()
    if mode is None:
        assert cmd_datagen(cfg, tmp_path / "got", json_events=True) == want
        assert _snapshot(tmp_path / "got") == _snapshot(tmp_path / "want")
    else:
        _ring_full_at(monkeypatch, "run_datagen", 32, mode)
        with pytest.raises(RingFull, match="^engineered failure$"):
            cmd_datagen(cfg, tmp_path / "got", json_events=True)
        assert not (tmp_path / "got").exists()
    _assert_no_child_left()
    assert _open_fds() == fds
    assert os.listdir(tmp_path / "tmp") == []


def test_child_runs_larger_than_a_pipe_keep_the_order_of_one_process(tmp_path):
    # each sequential run writes more than the 1 MiB that the sweep's pipe
    # once held; the files still hold, per batch, the sequential run's lines
    # and then the overlapped run's, as one process writes them
    text = GOOD.replace("[device]", "[device]\nutilization_sample_dt = 1e-4")
    cfg = parse_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    cmd_datagen(cfg, out, json_events=True)
    sizes = {}
    with open(out / "events.jsonl") as events, open(out / "utilization.jsonl") as util:
        assert next(events) == '{"meta":{"command":"datagen","seed":0}}\n'
        for batch in cfg.batches:
            for mode in (DatagenMode.SEQUENTIAL, DatagenMode.PIPELINED):
                metrics = run_datagen(EpisodeSpec(cfg.steps, batch, mode), cfg.costs,
                                      cfg.device, env=cfg.env)
                run = f"B{batch}/{metrics.mode}"
                samples = metrics.trace.utilization_samples(cfg.device.utilization_sample_dt)
                sizes[run] = 0
                for f, lines in ((events, encode_events(metrics.trace.records, run)),
                                 (util, encode_utilization(samples, run))):
                    for line in lines:
                        assert next(f) == line + "\n"
                        sizes[run] += len(line) + 1
        assert next(events, None) is None and next(util, None) is None
    assert list(sizes) == ["B16/sequential", "B16/pipelined", "B32/sequential",
                           "B32/pipelined"]
    assert min(sizes["B16/sequential"], sizes["B32/sequential"]) > 1 << 20


def test_child_that_exits_raises_its_exit_status(tmp_path, monkeypatch):
    cfg = parse_config(write_config(tmp_path))
    previous = tmp_path / "previous"
    cmd_datagen(cfg, previous, json_events=True)
    before = _snapshot(previous)
    parent, real = os.getpid(), harness.run_datagen

    def runner(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(7)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_datagen", runner)
    for out in (previous, tmp_path / "fresh" / "out"):
        # not an OSError, which the CLI would report as an unwritable --out
        with pytest.raises(RuntimeError, match="exit status 7 ") as info:
            cli.main(["datagen", "--config", str(write_config(tmp_path)), "--out",
                      str(out), "--json-events"])
        assert not isinstance(info.value, OSError)
        _assert_no_child_left()
    assert _snapshot(previous) == before
    assert not (tmp_path / "fresh").exists()


def test_batch_that_fails_only_in_the_child_is_rewritten_whole(tmp_path, monkeypatch):
    # the child sends batch 32's events, then fails; the parent cuts those
    # lines off and runs the batch itself, so no line is written twice
    cfg = parse_config(write_config(tmp_path))
    cmd_datagen(cfg, tmp_path / "want", json_events=True)
    parent, real = os.getpid(), harness.encode_utilization

    def encode(samples, run=None):
        if os.getpid() != parent and run == "B32/sequential":
            raise MemoryError("engineered failure")
        return real(samples, run)

    monkeypatch.setattr(harness, "encode_utilization", encode)
    cmd_datagen(cfg, tmp_path / "got", json_events=True)
    assert _snapshot(tmp_path / "got") == _snapshot(tmp_path / "want")
    _assert_no_child_left()


def test_audit_failure_in_a_child_run_names_run_index_and_kind(tmp_path, monkeypatch):
    real = harness.run_datagen

    def runner(spec, *args, **kwargs):
        metrics = real(spec, *args, **kwargs)
        if (spec.batch, spec.mode) == (32, DatagenMode.SEQUENTIAL):
            # the last semaphore value of a stream seen once more: not rising
            records = metrics.trace.records
            records.append(next(r for r in reversed(records)
                                if r[1] == "semaphore" and r[4] is not None))
        return metrics

    monkeypatch.setattr(harness, "run_datagen", runner)
    with pytest.raises(InvariantViolation) as info:
        cmd_datagen(parse_config(write_config(tmp_path)), tmp_path / "out")
    # what one process raised before the sequential runs moved to a child
    assert (info.value.run, info.value.index, info.value.kind) == \
        ("B32/sequential", 72, "semaphores_monotonic")
    assert str(info.value) == "run B32/sequential: event 72: stream 1 semaphore went 6 -> 6"
    _assert_no_child_left()


def test_peak_memory_follows_one_chunk_of_utilization_rows(tmp_path):
    # the rows of a run are yielded, encoded and written a chunk at a time:
    # 21540 rows (at 1e-4) must not raise the peak much above 6 rows (at 0.5)
    def traced_peak(dt):
        text = GOOD.replace("steps = 6", "steps = 1").replace(
            "batches = 16 32", "batches = 16").replace(
            "[device]", f"[device]\nutilization_sample_dt = {dt}")
        cfg = parse_config(write_config(tmp_path, text))
        gc.collect()
        tracemalloc.start()
        try:
            cmd_datagen(cfg, tmp_path / "out")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(1e-4) < 1.5 * traced_peak(0.5)


def _fresh_graft_run(cfg, n_buffers, dump_tables):
    """One graftbench row from fresh tables mapped to exactly n buffers: the
    reference every ``graft_sweep`` row must equal, sharing no code with it."""
    mem = MemorySystem(cfg.device.geometry)
    source = mem.create_space(AllocPolicy.HIGH_RANGE, base=cfg.device.high_base)
    target = mem.create_space(AllocPolicy.LOW_RANGE, base=cfg.device.low_base,
                              limit=cfg.device.high_base)
    for space in (source, target):
        va = mem.allocate(space, 2, SizeClass.SMALL)
        mem.map_range(space, va, mem.alloc_phys(SizeClass.SMALL, 2))
    report = mem.graft(source, target)
    writes_before = mem.copy_log.writes
    for _ in range(n_buffers):
        va = mem.allocate(source, 1, SizeClass.BIG)
        mem.map_range(source, va, mem.alloc_phys(SizeClass.BIG))
    graft_ops = (report.entry_writes + mem.copy_log.writes - writes_before
                 + report.tlb_invalidations)
    result = {"n_buffers": n_buffers, "export_import_ops": 2 * n_buffers,
              "graft_ops": graft_ops}
    if dump_tables:
        result["tables"] = {"source": mem.dump_tables(source),
                            "target": mem.dump_tables(target)}
    return result


def test_graftbench_costs(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    rows = cmd_graftbench(cfg, tmp_path / "out", dump_tables=True)
    assert [r["export_import_ops"] for r in rows] == [8, 32, 128]
    graft = [r["graft_ops"] for r in rows]
    assert graft == sorted(graft)  # monotone
    tables = json.loads((tmp_path / "out" / "tables.json").read_text())
    assert tables == _fresh_graft_run(cfg, 64, True)["tables"]


def _assert_sweep_equals_fresh_runs(cfg, counts):
    try:
        rows = graft_sweep(cfg, counts, dump_tables=True)
    except AddressSpaceExhausted:
        with pytest.raises(AddressSpaceExhausted):
            _fresh_graft_run(cfg, max(counts), False)
        return
    assert rows[:-1] == [_fresh_graft_run(cfg, n, False) for n in counts[:-1]]
    # the tables are those at the last configured count, even when a larger
    # count was mapped after it
    assert rows[-1] == _fresh_graft_run(cfg, counts[-1], True)


@pytest.mark.parametrize("counts", [[300, 1, 64, 4, 16], [5, 5, 3], [7]])
def test_graft_sweep_rows_equal_fresh_runs(tmp_path, counts):
    cfg = parse_config(write_config(tmp_path))
    assert graft_sweep(cfg, counts) == [_fresh_graft_run(cfg, n, False) for n in counts]
    _assert_sweep_equals_fresh_runs(cfg, counts)


_GIB = 1 << 30


@st.composite
def _graft_devices(draw):
    """A geometry and two VA bases. The source's window often starts in the
    target's 1 GiB or 512 GiB region, where the target owns the directory the
    source maps under, so its merges copy entries one at a time; and it may
    be too small for the largest count."""
    levels = draw(st.sampled_from([3, 4, 5]))
    geometry = PageGeometry(levels=levels, big_page_level=levels - 2,
                            va_width=draw(st.integers(33, min(12 + 9 * levels, 52))))
    low = draw(st.integers(0, geometry.va_limit >> 13)) << 12   # in the lower half
    if draw(st.integers(0, 3)) == 3:
        # a source window of at most 512 MiB, often too small for the counts
        high = geometry.va_limit - (draw(st.integers(2, 1 << 17)) << 12)
    else:
        # high_base lies in low_base's region of the drawn size, with room
        # below it for the target's two pages
        region = draw(st.sampled_from([2 << 20, _GIB, 512 * _GIB, geometry.va_limit]))
        end = min(low - low % region + region, geometry.va_limit) - 4096
        high = draw(st.integers(low + 8192, max(low + 8192, end))) & ~4095
    return DeviceConfig(geometry=geometry, high_base=high, low_base=low)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(device=_graft_devices(),
       counts=st.lists(st.integers(1, 200), min_size=1, max_size=4))
def test_graft_sweep_rows_equal_fresh_runs_on_drawn_configs(device, counts):
    cfg = ExperimentConfig(device=device, costs=PhaseCost(), env="custom", steps=0,
                           batches=[1], groups=1, buffer_counts=counts)
    _assert_sweep_equals_fresh_runs(cfg, counts)


def test_graftbench_maps_each_row_with_one_call(tmp_path, monkeypatch):
    counts = [300, 1, 64, 4, 16]
    calls = {"allocate": 0, "map_range": 0}
    for name in calls:
        real = getattr(MemorySystem, name)

        def counted(self, *args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(MemorySystem, name, counted)
    text = GOOD.replace("buffer_counts = 4 16 64", "buffer_counts = 300 1 64 4 16")
    cmd_graftbench(parse_config(write_config(tmp_path, text)), tmp_path / "out")
    # one call for each space's resident pages, then one for each distinct count
    assert calls == dict.fromkeys(calls, 2 + len(set(counts)))


def test_trace_requires_utilization_gain(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    rows = cmd_trace(cfg, tmp_path / "out")
    means = {r["mode"]: r for r in rows}
    assert means["pipelined"]["makespan"] < means["sequential"]["makespan"]
    utils = [json.loads(l) for l in
             (tmp_path / "out" / "utilization.jsonl").read_text().splitlines()]
    assert utils and all("compute_util" in u for u in utils)


def test_trace_accepts_a_run_that_cannot_overlap(tmp_path):
    # one step cannot overlap, so both modes give the same mean utilization
    text = ("[costs]\npreset = StackCube\n"
            "[workload]\nenv = StackCube\nsteps = 1\nbatches = 32\n")
    rc = cli.main(["trace", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_trace_empty_workload_zeroes(tmp_path):
    text = GOOD.replace("steps = 6", "steps = 0")
    cfg = parse_config(write_config(tmp_path, text))
    rows = cmd_trace(cfg, tmp_path / "out")
    assert all(r["makespan"] == 0.0 for r in rows)
    assert (tmp_path / "out" / "utilization.jsonl").read_text() == ""


# ----------------------------------------------------------------------
# CLI surface

def test_cli_success_exit_code(tmp_path):
    path = write_config(tmp_path)
    rc = cli.main(["graftbench", "--config", str(path), "--out",
                   str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, GOOD.replace("steps = 6", "steps = maybe"))
    rc = cli.main(["datagen", "--config", str(path), "--out",
                   str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("make", [lambda tmp: tmp / "missing.ini", lambda tmp: tmp],
                         ids=["missing_file", "directory"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, make):
    out = tmp_path / "out"
    assert cli.main(["datagen", "--config", str(make(tmp_path)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read ")
    assert not out.exists()


def test_undecodable_config_is_a_config_error(tmp_path):
    path = tmp_path / "binary.ini"
    path.write_bytes(b"[device]\nquantum = \xff\xfe\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_cli_quantum_below_one_tick_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, GOOD.replace("quantum = 0.1", "quantum = 1e-10"))
    assert cli.main(["datagen", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert "quantum" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("high_base = 0x700000000001", "aligned"),
    ("low_base = 0x100000800", "aligned"),
    ("low_base = 0x700000000000", "low_base < high_base"),
    ("high_base = 0x1000000000000", "high_base < 2**va_width"),
], ids=["high_unaligned", "low_unaligned", "low_not_below_high", "high_at_va_limit"])
def test_cli_bad_va_base_exits_2(tmp_path, capsys, line, message):
    path = write_config(tmp_path, GOOD.replace("[device]", f"[device]\n{line}"))
    out = tmp_path / "out"
    assert cli.main(["datagen", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_naming_a_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started for an --out that cannot be written")

    monkeypatch.setattr(harness, "run_datagen", refuse)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert cli.main(["datagen", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 2
    assert "cannot write outputs to --out" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("groups, rc", [(8, 2), (3, 0)])
def test_cli_rl_ring_too_small_for_the_groups_exits_2(tmp_path, capsys, groups, rc):
    text = GOOD.replace("ring_capacity = 64", "ring_capacity = 4").replace(
        "batches = 16 32", "batches = 24").replace("groups = 2", f"groups = {groups}")
    out = tmp_path / "out"
    assert cli.main(["rl", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == rc
    assert (out / "summary.csv").exists() == (rc == 0)
    if rc:
        assert "ring_capacity" in capsys.readouterr().err


def test_cli_graftbench_window_too_small_exits_2(tmp_path, capsys):
    previous = tmp_path / "previous"
    assert cli.main(["graftbench", "--config", str(write_config(tmp_path)),
                     "--out", str(previous), "--json-events", "--dump-tables"]) == 0
    before = _snapshot(previous)
    # 16 MiB above high_base: row 4 fits, row 8's four more buffers do not
    text = GOOD.replace("[device]", "[device]\nhigh_base = 0xffffff000000").replace(
        "buffer_counts = 4 16 64", "buffer_counts = 4 8")
    path = write_config(tmp_path, text, "small.ini")
    for out in (previous, tmp_path / "fresh" / "out"):
        capsys.readouterr()
        assert cli.main(["graftbench", "--config", str(path), "--out", str(out),
                         "--json-events", "--dump-tables"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: no 0x800000-byte range left")
        assert "high_base to 2**va_width" in err
    assert _snapshot(previous) == before
    assert not (tmp_path / "fresh").exists()


def test_cli_va_width_wider_than_the_radix_exits_2(tmp_path, capsys):
    # three levels index 39 bits, so the default va_width = 48 would alias
    previous = tmp_path / "previous"
    assert cli.main(["graftbench", "--config", str(write_config(tmp_path)),
                     "--out", str(previous), "--json-events", "--dump-tables"]) == 0
    before = _snapshot(previous)
    text = GOOD.replace("[device]", "[device]\npage_levels = 3\nbig_page_level = 1")
    path = write_config(tmp_path, text, "aliasing.ini")
    capsys.readouterr()
    assert cli.main(["graftbench", "--config", str(path), "--out", str(previous),
                     "--json-events", "--dump-tables"]) == 2
    assert capsys.readouterr().err.startswith("config error: [device]: va_width too large")
    assert _snapshot(previous) == before


@pytest.mark.parametrize("command, bases", [
    ("datagen", "high_base = 0xfffffff00000"),
    ("graftbench", "low_base = 0x1000\nhigh_base = 0x2000"),
], ids=["datagen_high_window", "graftbench_low_window"])
def test_cli_any_window_too_small_exits_2(tmp_path, capsys, command, bases):
    path = write_config(tmp_path, GOOD.replace("[device]", f"[device]\n{bases}"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "widen that window in [device]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_invariant_violation_exit_code(tmp_path, monkeypatch):
    def broken(cfg, out, seed=0, json_events=False, dump_tables=False):
        raise InvariantViolation("engineered failure")

    monkeypatch.setitem(cli._COMMANDS, "trace", (broken, "broken"))
    rc = cli.main(["trace", "--config", str(write_config(tmp_path)), "--out",
                   str(tmp_path / "out")])
    assert rc == 3


def test_cli_seed_changes_only_metadata(tmp_path):
    path = write_config(tmp_path)
    cli.main(["graftbench", "--config", str(path), "--out", str(tmp_path / "s0"),
              "--seed", "0", "--json-events"])
    cli.main(["graftbench", "--config", str(path), "--out", str(tmp_path / "s1"),
              "--seed", "1", "--json-events"])
    assert (tmp_path / "s0" / "summary.csv").read_bytes() == \
        (tmp_path / "s1" / "summary.csv").read_bytes()


# ----------------------------------------------------------------------
# fixed-schema JSONL writer

def _dumps_line(row):
    return json.dumps(row, separators=(",", ":")) + "\n"


_TEXT = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", 'say "hi"\\n', "\x00\x1f\x7f", "\t\r\n", "caf\u00e9 \u2028 \U0001f600",
     "%s %r %%", "walk stopped at level 2"])
_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-07, 1e+16, 5e-324, 0.1 + 0.2, -0.0, 1.7976931348623157e308])
_INT = st.integers() | st.sampled_from([2**53 + 1, -(2**63), 2**64 - 1])
_NULLABLE_ID = st.none() | _INT
_EXTRA = st.none() | _INT | _FLOAT | _TEXT
_RUN = _TEXT | st.sampled_from(['B32/"quoted"', "N16", "%d"])


@st.composite
def _records(draw):
    kind = draw(st.sampled_from(sorted(EVENT_FIELDS)))
    extras = tuple(draw(_EXTRA) for _ in EVENT_FIELDS[kind])
    return (draw(_FLOAT), kind, draw(_NULLABLE_ID), draw(_NULLABLE_ID),
            draw(_NULLABLE_ID), extras)


_WRITER_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                            database=None)


@_WRITER_SETTINGS
@given(records=st.lists(_records(), max_size=6), run=_RUN)
def test_event_writer_matches_json_dumps(records, run):
    lines = list(encode_events(records, run))
    assert len(lines) == len(records)
    for line, (t, kind, ch, tsg, stream, extras) in zip(lines, records):
        row = {"run": run, "time": t, "event": kind, "channel": ch, "tsg": tsg,
               "stream": stream, **dict(zip(EVENT_FIELDS[kind], extras))}
        assert line + "\n" == _dumps_line(row)


@_WRITER_SETTINGS
@given(rows=st.lists(st.tuples(_FLOAT, _FLOAT, _FLOAT, _NULLABLE_ID), max_size=6),
       run=_RUN)
def test_utilization_writer_matches_json_dumps(rows, run):
    lines = encode_utilization(rows, run)
    # the keys of the fields of a utilization_samples row, in order
    keys = ("time", "compute_util", "graphics_util", "tsg")
    assert [line + "\n" for line in lines] == [_dumps_line({"run": run, **dict(zip(keys, r))})
                                               for r in rows]


def _event_lines(records, run):
    label = {} if run is None else {"run": run}
    return [_dumps_line({**label, "time": t, "event": kind, "channel": ch, "tsg": tsg,
                         "stream": stream, **dict(zip(EVENT_FIELDS[kind], extras))})
            for t, kind, ch, tsg, stream, extras in records]


def _copy_float(value):
    """The same float value, held in a new object."""
    return float(repr(value))


_SHARED_TIME = 0.1 + 0.2


@pytest.mark.parametrize("times", [
    [_SHARED_TIME] * 40,
    [_SHARED_TIME, _copy_float(_SHARED_TIME), 0.30000000000000004, _SHARED_TIME, 1e16,
     _copy_float(1e16)],
    [0.0, -0.0, 0.0, -0.0, _copy_float(-0.0), 1.5, -0.0],
    [-0.0, 0.0, _copy_float(0.0), -0.0],
], ids=["one_object", "equal_values_in_different_objects", "zero_then_negative_zero",
        "negative_zero_first"])
def test_event_writer_shares_times_exactly(times):
    records = [(t, "semaphore", i % 3, None, i, (i, None)) for i, t in enumerate(times)]
    records += [(t, "doorbell", None, 2, None, (7,)) for t in reversed(times)]
    for run in ("B1/x", None):
        assert [line + "\n" for line in encode_events(records, run)] == \
            _event_lines(records, run)


_UTIL_KEYS = ("time", "compute_util", "graphics_util", "tsg")
_CU, _GU = 0.1 + 0.2, 2 / 3


@pytest.mark.parametrize("rows", [
    [(i / 10, _CU, _GU, 4) for i in range(30)],
    [(0.0, _CU, _GU, 4), (0.1, _CU, _GU, None), (0.2, _CU, _copy_float(_GU), None),
     (0.3, _copy_float(_CU), _copy_float(_GU), None), (0.4, 0.0, 0.0, None),
     (0.5, 0.0, 0.0, None)],
    [(0.0, 0.0, 0.0, 1), (0.1, -0.0, 0.0, 1), (0.2, 0.0, 0.0, 1), (0.3, 0.0, -0.0, 1),
     (0.4, _copy_float(-0.0), 0.0, 1)],
    [(0.0, 0.5, 0.5, 1), (0.1, 0.5, 0.5, 1), (0.2, 0.5, 0.5, 2), (0.3, 0.5, 0.5, 2)],
], ids=["shared_tails", "equal_tails_in_different_objects",
        "zero_then_negative_zero", "same_utils_new_group"])
def test_utilization_writer_shares_tails_exactly(rows):
    assert [line + "\n" for line in encode_utilization(rows, "B1/x")] == \
        [_dumps_line({"run": "B1/x", **dict(zip(_UTIL_KEYS, r))}) for r in rows]


def test_fault_events_write_as_json_dumps_and_round_trip():
    # no golden run faults: a page fault (vaddr set) and an execution fault
    # (vaddr None), each with a free-text detail
    e = Engine()
    ctx = e.create_context(ContextKind.COMPUTE)
    stream = e.create_stream(ctx)
    bad = 0x7fff_0000_0000
    e.submit(stream, [kernel_dispatch(1.0, 0.1, touched=(bad,))])
    e.submit(stream, [graphics_draw(1.0, 0.2, 0.5)])
    trace = e.run()
    e.reset_channel(e.channels[stream.channel_id])
    trace = e.run()
    faults = [ev for ev in trace.events if ev["event"] == "fault"]
    assert [(ev["kind"], ev["vaddr"]) for ev in faults] == [("page_fault", bad),
                                                             ("execution_fault", None)]
    assert all(ev["detail"] for ev in faults)

    run = 'B1/"faults"'
    assert [line + "\n" for line in encode_events(trace.records, run)] == \
        [_dumps_line({"run": run, **ev}) for ev in trace.events]
    assert list(encode_events(trace.records)) == [json.dumps(ev, separators=(",", ":"))
                                                  for ev in trace.events]

    base = ["time", "event", "channel", "tsg", "stream"]
    for ev, rec in zip(trace.events, trace.records, strict=True):
        assert list(ev) == base + list(EVENT_FIELDS[rec[1]])
        assert tuple(ev.values()) == rec[:5] + rec[5]
