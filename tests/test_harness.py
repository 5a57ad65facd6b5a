"""Config validation, experiment outputs, determinism, and the CLI surface."""

import contextlib
import errno
import gc
import json
import os
import signal
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpumux.cli as cli
import gpumux.harness as harness
from gpumux.audits import InvariantViolation, check_all
from gpumux.channels import ContextKind, RingFull
from gpumux.commands import graphics_draw, kernel_dispatch
from gpumux.config import DeviceConfig
from gpumux.engine import EVENT_FIELDS, Engine
from gpumux.harness import (ConfigError, ExperimentConfig, cmd_datagen, cmd_graftbench,
                            cmd_rl, cmd_trace, encode_events, encode_utilization,
                            graft_sweep, parse_config)
from gpumux.vm import AddressSpaceExhausted, AllocPolicy, MemorySystem, PageGeometry, SizeClass
from gpumux.workloads import (DatagenMode, EpisodeSpec, PhaseCost, RolloutMode, RolloutSpec,
                               run_datagen, run_rl_rollout)

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


def test_groups_must_divide_batches(tmp_path, capsys):
    # only rl reads the groups: it exits 2 before its first run, the rest run
    path = write_config(tmp_path, GOOD.replace("batches = 16 32", "batches = 16 33"))
    out = tmp_path / "rl"
    assert cli.main(["rl", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: [workload]: groups=2 does not divide batch 33\n"
    assert not out.exists()
    for command in ("datagen", "trace", "graftbench"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()


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
    # summary.csv writes each value unquoted: csv would shift the row's columns
    *((GOOD.replace("env = StackCube", f"env = {env}"),
       f"line 12: bad value for 'env': {env!r}: summary.csv cannot hold ',' or '\"'")
      for env in ("Stack,Cube", 'Stack"Cube')),
], ids=["no_equals", "outside_section", "bad_cost", "negative_steps", "zero_batch",
        "zero_groups", "zero_buffer_count", "comma_in_env", "quote_in_env"])
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


def _tree(path):
    """Every file under ``path`` with its bytes, and every directory (None)."""
    return {p.relative_to(path): None if p.is_dir() else p.read_bytes()
            for p in path.rglob("*")}


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


def _repeat_last_semaphore(records):
    # the last semaphore value of a stream seen once more: not rising
    records.append(next(r for r in reversed(records)
                        if r[1] == "semaphore" and r[4] is not None))


def _audit_fails_in(monkeypatch, name, batch, mode):
    # the trace of one (batch, mode) fails the semaphore audit, in whichever
    # process audits it
    real = getattr(harness, name)

    def runner(spec, *args, **kwargs):
        metrics = real(spec, *args, **kwargs)
        if (spec.batch, spec.mode) == (batch, mode):
            _repeat_last_semaphore(metrics.trace.records)
        return metrics

    monkeypatch.setattr(harness, name, runner)


# The last batch's overlapped run (B32/pipelined in GOOD's datagen) is handed
# over by the child while it runs, once this process waits for it; these fail
# in that batch. ``_force_child`` fixes whether the child finds this process
# idle: idle, the child hands the chunks over at once, as if this process
# were done with its last sequential run; busy, it hands none over and writes
# the run itself. Chunks of 8 records make an idle hand-over send several
# before the failure.

def _force_child(monkeypatch, idle):
    monkeypatch.setattr(harness, "_parent_idle", lambda fd: idle)


def _ring_full_mid_stream(monkeypatch, idle=True):
    # the streamed run raises at its 4th window, in whichever process runs it
    _force_child(monkeypatch, idle)
    monkeypatch.setattr(harness, "_HANDOFF", 8)
    real = harness.run_datagen

    def runner(spec, *args, on_window=None, **kwargs):
        if (spec.batch, spec.mode) != (32, DatagenMode.PIPELINED):
            return real(spec, *args, on_window=on_window, **kwargs)
        windows = []

        def window(trace):
            if on_window is not None:
                on_window(trace)
            windows.append(trace)
            if len(windows) == 4:
                raise RingFull("engineered failure")

        return real(spec, *args, on_window=window, **kwargs)

    monkeypatch.setattr(harness, "run_datagen", runner)


def _child_exits_mid_stream(monkeypatch, idle=True):
    # the child exits after it hands over the first chunk of the streamed
    # run, the last of any command's sweep, which this process then encodes;
    # busy, the child hands no chunk over and exits as it starts to write
    # that run itself
    _force_child(monkeypatch, idle)
    monkeypatch.setattr(harness, "_HANDOFF", 1)   # a chunk after every window
    streamed, real_write, real_hand_over, real_send = ([], harness._write_run,
                                                      harness._OverlappedRuns._hand_over,
                                                      harness._OverlappedRuns._send_chunk)

    def hand_over(self, trace):   # called only in the child, in the streamed run
        streamed.append(True)
        real_hand_over(self, trace)

    def write_run(*args):
        if streamed:
            os._exit(7)
        real_write(*args)

    def send_chunk(self, trace, closing):
        real_send(self, trace, closing)
        os._exit(7)

    monkeypatch.setattr(harness._OverlappedRuns, "_hand_over", hand_over)
    monkeypatch.setattr(harness, "_write_run", write_run)
    monkeypatch.setattr(harness._OverlappedRuns, "_send_chunk", send_chunk)


def _audit_fails_in_stream(monkeypatch, idle=True):
    _force_child(monkeypatch, idle)
    monkeypatch.setattr(harness, "_HANDOFF", 8)
    _audit_fails_in(monkeypatch, "run_datagen", 32, DatagenMode.PIPELINED)


def _busy(sabotage):
    return lambda monkeypatch: sabotage(monkeypatch, idle=False)


# (sabotage, error, message pattern), by id; not an OSError, which the CLI
# would report as an unwritable --out
_STREAM_FAILURES = {
    "ring_full_mid_stream": (_ring_full_mid_stream, RingFull, "^engineered failure$"),
    "audit_fails_in_stream": (_audit_fails_in_stream, InvariantViolation,
                              "^run B32/pipelined: "),
}
_STREAM_FAILURES |= {f"{name}_busy": (_busy(sabotage), error, message)
                     for name, (sabotage, error, message) in _STREAM_FAILURES.items()}


def _summary_csv_is_a_directory(monkeypatch, out):
    # os.replace cannot move a file onto a directory
    (out / "summary.csv").unlink(missing_ok=True)
    (out / "summary.csv").mkdir(parents=True)


# batch 16 is written before batch 32 fails: in datagen its sequential run
# (this process's), in rl its interleaved run (the child's). A target that is
# a directory fails before the first run.
@pytest.mark.parametrize("command, error, sabotage", [
    (cmd_datagen, RingFull,
     lambda mp, out: _ring_full_at(mp, "run_datagen", 32, DatagenMode.SEQUENTIAL)),
    (cmd_rl, RingFull,
     lambda mp, out: _ring_full_at(mp, "run_rl_rollout", 32, RolloutMode.INTERLEAVED)),
    (cmd_trace, InvariantViolation, lambda mp, out: _break_trace_check(mp)),
    *((cmd_datagen, error, lambda mp, out, sabotage=sabotage: sabotage(mp))
      for sabotage, error, _ in _STREAM_FAILURES.values()),
    (cmd_datagen, IsADirectoryError, _summary_csv_is_a_directory),
], ids=["datagen", "rl", "trace", *_STREAM_FAILURES, "summary_csv_is_a_directory"])
def test_failed_command_leaves_out_as_it_found_it(tmp_path, monkeypatch, command, error,
                                                  sabotage):
    cfg = parse_config(write_config(tmp_path))
    command(cfg, tmp_path / "previous", json_events=True)
    for out in (tmp_path / "previous", tmp_path / "fresh" / "out"):
        with monkeypatch.context() as mp:
            sabotage(mp, out)
            before = _tree(tmp_path)
            with pytest.raises(error):
                command(cfg, out, json_events=True)
        assert _tree(tmp_path) == before


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """The descriptors open in this process, or None where /proc/self/fd is absent."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@contextlib.contextmanager
def _leaves_nothing_behind(tmp_path, monkeypatch):
    """Asserts that the block leaves no child, no open descriptor and no
    named file in the temporary directory."""
    _assert_no_child_left()
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    fds = _open_fds()
    yield
    _assert_no_child_left()
    assert _open_fds() == fds
    assert os.listdir(tmp_path / "tmp") == []


def _fork_fails(monkeypatch):
    # after the pipes and the unnamed files are open
    def fork():
        raise OSError(errno.EAGAIN, "engineered failure")

    monkeypatch.setattr(os, "fork", fork)


def _child_ends(monkeypatch, end):
    # the child calls ``end`` instead of sending its first result
    monkeypatch.setattr(harness._OverlappedRuns, "_send", lambda self, message: end())


# sabotage by id: the child is lost, and the sweep runs on in this process
_LOST_CHILDREN = {
    "child_exits": lambda mp: _child_ends(mp, lambda: os._exit(7)),
    "child_killed": lambda mp: _child_ends(mp, lambda: os.kill(os.getpid(), signal.SIGKILL)),
    "child_exits_mid_stream": _child_exits_mid_stream,
    "child_exits_mid_stream_busy": _busy(_child_exits_mid_stream),
    "fork_fails": _fork_fails,
}


@pytest.mark.parametrize("sabotage, error, message", [
    (None, None, None),
    *((sabotage, None, None) for sabotage in _LOST_CHILDREN.values()),
    *((lambda mp, mode=mode: _ring_full_at(mp, "run_datagen", 32, mode), RingFull,
       "^engineered failure$") for mode in (DatagenMode.PIPELINED, DatagenMode.SEQUENTIAL)),
    *_STREAM_FAILURES.values(),
], ids=["success", *_LOST_CHILDREN, "child_run_fails", "parent_run_fails", *_STREAM_FAILURES])
def test_paired_sweep_leaves_no_child(tmp_path, monkeypatch, sabotage, error, message):
    # nor an open descriptor, nor a named file in the temporary directory;
    # a lost child leaves the outputs of one process
    cfg = parse_config(write_config(tmp_path))
    want = cmd_datagen(cfg, tmp_path / "want", json_events=True)
    with _leaves_nothing_behind(tmp_path, monkeypatch):
        if sabotage is not None:
            sabotage(monkeypatch)
        if error is None:
            assert cmd_datagen(cfg, tmp_path / "got", json_events=True) == want
            assert _snapshot(tmp_path / "got") == _snapshot(tmp_path / "want")
        else:
            with pytest.raises(error, match=message):
                cmd_datagen(cfg, tmp_path / "got", json_events=True)
            assert not (tmp_path / "got").exists()


@pytest.mark.parametrize("sabotage", _LOST_CHILDREN.values(), ids=list(_LOST_CHILDREN))
@pytest.mark.parametrize("command", ["datagen", "rl", "trace"])
def test_cli_sweep_without_its_child_exits_0_with_the_outputs_of_one_process(
        tmp_path, monkeypatch, command, sabotage):
    path = write_config(tmp_path)
    argv = [command, "--config", str(path), "--json-events", "--out"]
    assert cli.main([*argv, str(tmp_path / "want")]) == 0
    with _leaves_nothing_behind(tmp_path, monkeypatch):
        sabotage(monkeypatch)
        assert cli.main([*argv, str(tmp_path / "got")]) == 0
    assert _snapshot(tmp_path / "got") == _snapshot(tmp_path / "want")


@pytest.mark.parametrize("json_events", [False, True], ids=["no_events", "events"])
@pytest.mark.parametrize("command", [cmd_datagen, cmd_rl, cmd_trace])
def test_sweeps_make_no_reference_cycles(tmp_path, command, json_events):
    # the sweep pauses the cyclic collector, so all that its runs allocate
    # must be freed by reference counting: in this process, the command and
    # every run of its sweep (the child's included) leave nothing to collect
    cfg = parse_config(write_config(tmp_path))
    gc.collect()
    gc.disable()
    try:
        command(cfg, tmp_path / "out", json_events=json_events)
        for run, trace in _one_process_runs(cfg, command):
            check_all(trace, run)
            "".join(encode_events(trace.records, run))
            "".join(encode_utilization(trace.utilization_samples(0.5), run))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("sabotage, error, message, child_runs", [
    (None, None, None, 2),
    (_LOST_CHILDREN["child_exits"], None, None, 1),
    (lambda mp: _ring_full_at(mp, "run_datagen", 32, DatagenMode.SEQUENTIAL), RingFull,
     "^engineered failure$", None),   # up to 2, as far as the child gets
], ids=["success", "child_fails", "parent_run_fails"])
def test_paired_sweep_restores_the_collector_setting(tmp_path, monkeypatch, enabled,
                                                      sabotage, error, message, child_runs):
    # paused during every run, in both processes (the child notes each of its
    # runs in a file), and as the caller left it after
    cfg = parse_config(write_config(tmp_path))
    if sabotage is not None:
        sabotage(monkeypatch)
    parent, real, paused = os.getpid(), harness.run_datagen, []
    notes = tmp_path / "child_runs"
    notes.touch()

    def runner(*args, **kwargs):
        if os.getpid() == parent:
            paused.append(not gc.isenabled())
        else:
            with open(notes, "a") as f:
                f.write("collecting\n" if gc.isenabled() else "paused\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_datagen", runner)
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            cmd_datagen(cfg, tmp_path / "out")
        else:
            with pytest.raises(error, match=message):
                cmd_datagen(cfg, tmp_path / "out")
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert paused and all(paused)
    _assert_no_child_left()
    child = notes.read_text().splitlines()
    assert set(child) <= {"paused"}
    assert len(child) == child_runs if child_runs is not None else len(child) <= 2


def test_child_runs_larger_than_a_pipe_keep_the_order_of_one_process(tmp_path):
    # each run writes more than the 1 MiB that the sweep's pipe once held;
    # the files still hold, per batch, the sequential run's lines and then
    # the overlapped run's, as one process writes them
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
    assert min(sizes.values()) > 1 << 20


def _one_process_runs(cfg, command):
    """(label, trace) of each run of ``command``'s sweep, in order, each run
    in this process."""
    if command is cmd_rl:
        run = lambda batch, mode: run_rl_rollout(  # noqa: E731
            RolloutSpec(cfg.steps, batch, cfg.groups, mode), cfg.costs, cfg.device,
            env=cfg.env)
        modes = (RolloutMode.SEQUENTIAL, RolloutMode.INTERLEAVED)
    else:
        run = lambda batch, mode: run_datagen(  # noqa: E731
            EpisodeSpec(cfg.steps, batch, mode), cfg.costs, cfg.device, env=cfg.env)
        modes = (DatagenMode.SEQUENTIAL, DatagenMode.PIPELINED)
    label = "" if command is cmd_trace else "B{}/"
    for batch in cfg.batches[:1] if command is cmd_trace else cfg.batches:
        for mode in modes:
            metrics = run(batch, mode)
            yield label.format(batch) + metrics.mode, metrics.trace


_STREAMED_SWEEPS = {
    "rl": (cmd_rl, GOOD.replace("steps = 6", "steps = 24").replace("groups = 2", "groups = 16"),
           True),
    "trace": (cmd_trace, GOOD, True),
    "datagen_fine_bins": (
        cmd_datagen, GOOD.replace("[device]", "[device]\nutilization_sample_dt = 1e-4"), False),
}


@pytest.mark.parametrize("command, text, json_events, idle", [
    *(pytest.param(*case, idle, id=name + ("" if idle else "_busy"))
      for idle in (True, False) for name, case in _STREAMED_SWEEPS.items())])
def test_streamed_run_keeps_the_lines_of_one_process(tmp_path, monkeypatch, command, text,
                                                     json_events, idle):
    # this process, once idle, writes the lines of the last overlapped run
    # from the chunks the child hands over while it runs; busy, it gets none,
    # and the child writes them; either way they equal what one process writes
    cfg = parse_config(write_config(tmp_path, text))
    _force_child(monkeypatch, idle)
    handed, real = [], harness._OverlappedRuns._message

    def message(self):
        result = real(self)
        if result is not None and len(result) == 2:   # a chunk, received here
            handed.append(len(result[0] or ()))
        return result

    monkeypatch.setattr(harness._OverlappedRuns, "_message", message)
    out = tmp_path / "out"
    command(cfg, out, json_events=json_events)
    if not idle:
        assert handed == []
    elif command is cmd_rl:   # 4997 records: four chunks and the rest
        assert len(handed) == 5 and sum(handed) == 4997
    names = ["utilization.jsonl"] + ["events.jsonl"] * json_events
    files = {name: open(out / name) for name in names}
    try:
        if json_events:
            assert next(files["events.jsonl"]) == \
                f'{{"meta":{{"command":"{command.__name__[4:]}","seed":0}}}}\n'
        for run, trace in _one_process_runs(cfg, command):
            samples = trace.utilization_samples(cfg.device.utilization_sample_dt)
            want = {"utilization.jsonl": encode_utilization(samples, run),
                    "events.jsonl": encode_events(trace.records, run)}
            for name, f in files.items():
                for line in want[name]:
                    assert next(f) == line + "\n"
        assert [next(f, None) for f in files.values()] == [None] * len(files)
    finally:
        for f in files.values():
            f.close()
    assert os.path.exists(out / "events.jsonl") == json_events


def test_audit_failure_in_the_streamed_run_names_what_one_process_names(tmp_path,
                                                                       monkeypatch):
    cfg = parse_config(write_config(tmp_path))
    metrics = run_datagen(EpisodeSpec(cfg.steps, 32, DatagenMode.PIPELINED), cfg.costs,
                          cfg.device, env=cfg.env)
    _repeat_last_semaphore(metrics.trace.records)
    with pytest.raises(InvariantViolation) as want:
        check_all(metrics.trace, "B32/pipelined")
    _audit_fails_in_stream(monkeypatch)
    with pytest.raises(InvariantViolation) as got:
        cmd_datagen(cfg, tmp_path / "out", json_events=True)
    assert (got.value.run, got.value.index, got.value.kind, str(got.value)) == \
        (want.value.run, want.value.index, want.value.kind, str(want.value))
    _assert_no_child_left()


def test_child_that_exits_leaves_the_outputs_of_one_process(tmp_path, monkeypatch):
    # the child exits before its first result: this process runs every
    # overlapped run, over the outputs of an earlier run or into a new --out
    cfg = parse_config(write_config(tmp_path))
    previous = tmp_path / "previous"
    cmd_datagen(cfg, previous, json_events=True)
    want = _snapshot(previous)
    with _leaves_nothing_behind(tmp_path, monkeypatch):
        _LOST_CHILDREN["child_exits"](monkeypatch)
        for out in (previous, tmp_path / "fresh" / "out"):
            assert cli.main(["datagen", "--config", str(write_config(tmp_path)), "--out",
                             str(out), "--json-events"]) == 0
            assert _snapshot(out) == want


def test_batch_that_fails_only_in_the_child_is_rewritten_whole(tmp_path, monkeypatch):
    # the child encodes B32/pipelined's events into its own files, then
    # fails; this process runs that run itself, so no line is written twice
    cfg = parse_config(write_config(tmp_path))
    cmd_datagen(cfg, tmp_path / "want", json_events=True)
    _force_child(monkeypatch, idle=False)   # the child encodes the run itself
    parent, real = os.getpid(), harness.encode_utilization

    def encode(samples, run=None):
        if os.getpid() != parent and run == "B32/pipelined":
            raise MemoryError("engineered failure")
        return real(samples, run)

    monkeypatch.setattr(harness, "encode_utilization", encode)
    cmd_datagen(cfg, tmp_path / "got", json_events=True)
    assert _snapshot(tmp_path / "got") == _snapshot(tmp_path / "want")
    _assert_no_child_left()


def test_child_failure_after_a_handed_over_chunk_is_rewritten_here(tmp_path, monkeypatch):
    # the child hands over the first chunk of B32/pipelined, whose lines this
    # process writes, and then fails; this process cuts those lines off and
    # runs the overlapped run itself, so no line is written twice
    cfg = parse_config(write_config(tmp_path))
    cmd_datagen(cfg, tmp_path / "want", json_events=True)
    _force_child(monkeypatch, idle=True)
    monkeypatch.setattr(harness, "_HANDOFF", 8)
    real = harness._OverlappedRuns._send_chunk   # called only in the child

    def send_chunk(self, trace, closing):
        real(self, trace, closing)
        raise MemoryError("engineered failure")

    monkeypatch.setattr(harness._OverlappedRuns, "_send_chunk", send_chunk)
    cmd_datagen(cfg, tmp_path / "got", json_events=True)
    assert _snapshot(tmp_path / "got") == _snapshot(tmp_path / "want")
    _assert_no_child_left()


def test_audit_failure_in_a_child_run_names_run_index_and_kind(tmp_path, monkeypatch):
    # B16/pipelined, the child's run of a batch before the last, is never
    # handed over
    _audit_fails_in(monkeypatch, "run_datagen", 16, DatagenMode.PIPELINED)
    with pytest.raises(InvariantViolation) as info:
        cmd_datagen(parse_config(write_config(tmp_path)), tmp_path / "out")
    # what one process raises
    assert (info.value.run, info.value.index, info.value.kind) == \
        ("B16/pipelined", 77, "semaphores_monotonic")
    assert str(info.value) == "run B16/pipelined: event 77: stream 1 semaphore went 6 -> 6"
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


@pytest.mark.parametrize("argv, name", [
    (["datagen"], "summary.csv"),
    (["datagen", "--json-events"], "events.jsonl"),
    (["graftbench", "--dump-tables"], "tables.json"),
], ids=["summary_csv", "events_jsonl", "tables_json"])
def test_cli_out_holding_a_directory_named_like_an_output_exits_2_before_any_run(
        tmp_path, monkeypatch, capsys, argv, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started for an --out that cannot be written")

    monkeypatch.setattr(harness, "run_datagen", refuse)
    monkeypatch.setattr(harness, "graft_sweep", refuse)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert cli.main([*argv, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    assert "cannot write outputs to --out" in capsys.readouterr().err
    assert os.listdir(out) == [name] and os.listdir(out / name) == []


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
    # compute context 0's window ends at the root entry's end, not at 2**va_width
    ("datagen", "high_base = 0x707ffff00000"),
    ("graftbench", "low_base = 0x1000\nhigh_base = 0x2000"),
], ids=["datagen_high_window", "datagen_first_compute_window", "graftbench_low_window"])
def test_cli_any_window_too_small_exits_2(tmp_path, capsys, command, bases):
    path = write_config(tmp_path, GOOD.replace("[device]", f"[device]\n{bases}"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "widen that window in [device]" in err
    assert "compute context i gets the i-th window from high_base" in err
    assert not out.exists()


def test_cli_datagen_runs_on_a_three_level_table(tmp_path):
    # low_base and high_base part at the root, whose entries span 1 GiB: the
    # compute window is one of those, not one 2 MiB level-1 entry, which could
    # not hold a 1024-page command-buffer ring
    text = GOOD.replace("[device]", "[device]\npage_levels = 3\nbig_page_level = 1\n"
                        "va_width = 39\nhigh_base = 0x4000000000").replace(
        "ring_capacity = 64", "ring_capacity = 1024").replace(
        "steps = 6", "steps = 5").replace("batches = 16 32", "batches = 32")
    out = tmp_path / "out"
    assert cli.main(["datagen", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
    assert len((out / "summary.csv").read_text().splitlines()) == 3


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


@pytest.mark.parametrize("command", ["datagen", "rl", "trace"])
def test_cli_dump_tables_outside_graftbench_exits_2(tmp_path, capsys, command):
    # an unknown option to argparse: it exits before any output is written
    path = write_config(tmp_path)
    cli.main([command, "--config", str(path), "--out", str(tmp_path / "previous")])
    before = _tree(tmp_path)
    for out in (tmp_path / "previous", tmp_path / "fresh"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", str(path), "--out", str(out), "--dump-tables"])
        assert info.value.code == 2
        assert "unrecognized arguments: --dump-tables" in capsys.readouterr().err
    assert _tree(tmp_path) == before


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
    e.reset(stream)
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
