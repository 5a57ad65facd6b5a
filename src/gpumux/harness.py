"""Experiment runner: config files, sweeps, and golden-file-friendly outputs.

Configs are flat ``key = value`` text grouped in sections. Unknown sections or
keys, and a key given twice in one section, are rejected with the offending
line number, a file that cannot be read is rejected too, and all values
validate before any engine is constructed. Each command writes a
``summary.csv``, a ``utilization.jsonl``, and (on request) an ``events.jsonl``
whose rows carry a ``run`` label so the CSV is recomputable from the event
log. Outputs are byte-identical for identical config and seed.

The JSONL files are written run by run, as each run is audited and encoded,
in blocks of ``_CHUNK`` lines, so memory follows one run and one block of its
lines rather than the whole sweep. They go to temporary files in the output
directory, and every file moves into place only when the command succeeds: a
failed command leaves the directory as it found it.

A paired sweep (``datagen``, ``rl``, ``trace``) uses two processes, so it
needs POSIX ``os.fork``: this process runs, audits and writes each batch's
sequential run straight into the outputs, while a forked child runs, audits
and encodes the overlapped runs into unnamed temporary files, with one pipe
message per run. After each sequential run this process copies in the
overlapped run's lines when its message arrives, in the order of one
process. If this process waits for the last overlapped run while the child
still runs it, the child hands the run over on the same pipe, in chunks of
records and segments, and this process encodes them straight into the
outputs. The memory of each process follows one run. The cyclic garbage
collector is paused for the sweep in both processes, since the runs make no
reference cycles. A failure in this process is the exception one process
raises. If the child cannot start, or ends before it sends a run for any
cause (a run that raises, an exit, a signal), this process runs that run
and the rest as one process does, so the command writes or raises the same.
"""

from __future__ import annotations

import errno
import gc
import json
import marshal
import os
import tempfile
from collections.abc import Iterable, Iterator
from itertools import islice, takewhile
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .audits import InvariantViolation, check_all
from .config import DeviceConfig
from .engine import EVENT_FIELDS, MetricsTrace, utilization_bins
from .vm import AllocPolicy, MemorySystem, PageGeometry, SizeClass, _SlotValue
from .workloads import (ENV_PRESETS, DatagenMode, EpisodeSpec, Metrics, PhaseCost,
                        RolloutMode, RolloutSpec, run_datagen, run_rl_rollout)


class ConfigError(Exception):
    pass


def _parse_int(text: str) -> int:
    return int(text, 0)  # accepts hex for the VA bases


def _parse_int_list(text: str) -> list[int]:
    return [int(tok, 0) for tok in text.replace(",", " ").split()]


def _parse_env(text: str) -> str:
    if "," in text or '"' in text:   # summary.csv writes each value unquoted
        raise ValueError(f"{text!r}: summary.csv cannot hold ',' or '\"'")
    return text


def _keys(cls) -> dict:
    """The parser of each constructor argument of ``cls`` but ``geometry``, by name."""
    return {name: {"int": _parse_int, "float": float}[kind]
            for name, kind in cls.__init__.__annotations__.items() if name != "geometry"}


_GEOMETRY_KEYS = {"page_levels": "levels", "page_bits_per_level": "bits_per_level",
                  "big_page_level": "big_page_level", "va_width": "va_width"}

_SCHEMA = {
    "device": _keys(DeviceConfig) | {key: _keys(PageGeometry)[name]
                                     for key, name in _GEOMETRY_KEYS.items()},
    "costs": {"preset": str} | _keys(PhaseCost),
    "workload": {"env": _parse_env, "steps": _parse_int, "batches": _parse_int_list,
                 "groups": _parse_int},
    "graftbench": {"buffer_counts": _parse_int_list},
}


class ExperimentConfig(_SlotValue):
    __slots__ = ("device", "costs", "env", "steps", "batches", "groups", "buffer_counts")
    __hash__ = None   # a mutable record

    def __init__(self, device: DeviceConfig, costs: PhaseCost, env: str, steps: int,
                 batches: list[int], groups: int, buffer_counts: list[int]):
        self.device = device
        self.costs = costs
        self.env = env
        self.steps = steps
        self.batches = batches
        self.groups = groups
        self.buffer_counts = buffer_counts


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a config file; raises ConfigError with the
    offending line number on any problem, and for a file that cannot be read."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    section = None
    values: dict[tuple[str, str], tuple[object, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if (section, key) in values:
            first = values[(section, key)][1]
            raise ConfigError(f"line {lineno}: key '{key}' in [{section}] already set "
                              f"on line {first}")
        try:
            parsed = _SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from None
        values[(section, key)] = (parsed, lineno)

    def section_dict(name: str) -> dict:
        return {k: v for (s, k), (v, _) in values.items() if s == name}

    device_kv = section_dict("device")
    geometry_kv = {}
    for cfg_key, geo_key in _GEOMETRY_KEYS.items():
        if cfg_key in device_kv:
            geometry_kv[geo_key] = device_kv.pop(cfg_key)
    try:
        geometry = PageGeometry(**geometry_kv)
        device = DeviceConfig(geometry=geometry, **device_kv)
    except ValueError as exc:
        raise ConfigError(f"[device]: {exc}") from None

    costs_kv = section_dict("costs")
    workload_kv = section_dict("workload")
    env = workload_kv.get("env", "custom")
    preset = costs_kv.pop("preset", None)
    if preset is not None and preset not in ENV_PRESETS:
        lineno = values[("costs", "preset")][1]
        raise ConfigError(f"line {lineno}: unknown preset '{preset}' "
                          f"(known: {', '.join(sorted(ENV_PRESETS))})")
    base_costs = ENV_PRESETS.get(preset or env, PhaseCost())
    fields = {name: getattr(base_costs, name) for name in PhaseCost.__slots__}
    try:
        costs = PhaseCost(**(fields | costs_kv))
    except ValueError as exc:
        raise ConfigError(f"[costs]: {exc}") from None

    steps = workload_kv.get("steps", 50)
    batches = workload_kv.get("batches", [32, 64, 128, 256, 384])
    groups = workload_kv.get("groups", 2)
    if steps < 0:
        raise ConfigError("[workload]: steps must be >= 0")
    if not batches or any(b < 1 for b in batches):
        raise ConfigError("[workload]: batches must be positive")
    if groups < 1:
        raise ConfigError("[workload]: groups must be >= 1")

    counts = section_dict("graftbench").get(
        "buffer_counts", [4 << i for i in range(12)])  # 4 .. 8192
    if not counts or any(n < 1 for n in counts):
        raise ConfigError("[graftbench]: buffer_counts must be positive")

    return ExperimentConfig(device=device, costs=costs, env=env, steps=steps,
                            batches=batches, groups=groups, buffer_counts=counts)


# ----------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
    return "\n".join(lines) + "\n"


# Fixed-schema JSONL writer. Each line is exactly what
# ``json.dumps({"run": run, **row}, separators=(",", ":"))`` gives for a row
# with finite floats: one ``%`` template per event kind, built once, with the
# keys and the event name baked in. ``time`` and the utilization values are
# floats (``repr``), channel, TSG and stream are ints or None, and only the
# extras go through ``_json``: None, str (quoted by the C function that
# ``json.dumps`` itself uses for a str), int or float.
#
# Each distinct value is formatted once. An event time is shared by several
# records, so ``encode_events`` keeps one text per time for the run; a zero
# is formatted in place, since ``0.0 == -0.0`` but they print differently.
# The bins of ``utilization_samples`` that lie wholly inside one segment hold
# that segment's value objects, so ``encode_utilization`` reuses the previous
# row's text after the time when the row holds the same objects (``is``, not
# ``==``, for the same reason).
#
# Both encoders yield their lines one at a time, and ``_write`` joins them
# ``_CHUNK`` lines at a time, so a run's lines are never held at once.

def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return repr(value)


_GRAFTBENCH_FIELDS = ("export_import_ops", "graft_ops")
_EVENT_BODIES = {
    kind: ('"time":%s,"event":' + json.dumps(kind) + ',"channel":%s,"tsg":%s,"stream":%s'
           + "".join(f",{json.dumps(f)}:%s" for f in fields) + "}")
    for kind, fields in {**EVENT_FIELDS, "graftbench": _GRAFTBENCH_FIELDS}.items()}
_UTIL_HEAD = '"time":%r,"compute_util":%s'
_UTIL_TAIL = '%r,"graphics_util":%r,"tsg":%s}'


def _prefix(run: str | None) -> str:
    """Start of every line of one run: ``{`` and the JSON-quoted label."""
    if run is None:
        return "{"
    return '{"run":' + json.dumps(run).replace("%", "%%") + ","


class _TimeTexts(dict):
    """``repr`` of each event time, formatted on first use; zeros are not kept."""

    def __missing__(self, t):
        text = repr(t)
        if t:
            self[t] = text
        return text


def encode_events(records: list[tuple], run: str | None = None) -> Iterator[str]:
    """One JSON line (without newline) per ``MetricsTrace.records`` entry."""
    prefix = _prefix(run)
    templates = {kind: prefix + body for kind, body in _EVENT_BODIES.items()}
    times = _TimeTexts()
    return (templates[kind] % (times[t], "null" if ch is None else ch,
                               "null" if tsg is None else tsg,
                               "null" if stream is None else stream, *map(_json, extras))
            for t, kind, ch, tsg, stream, extras in records)


def encode_utilization(samples: Iterable[tuple], run: str | None = None) -> Iterator[str]:
    """One JSON line (without newline) per ``utilization_samples`` row."""
    template = _prefix(run) + _UTIL_HEAD
    last_cu = last_gu = last_tsg = object()
    for t, cu, gu, tsg in samples:
        if cu is not last_cu or gu is not last_gu or tsg is not last_tsg:
            last_cu, last_gu, last_tsg = cu, gu, tsg
            tail = _UTIL_TAIL % (cu, gu, "null" if tsg is None else tsg)
        yield template % (t, tail)


_CHUNK = 256   # lines per block written to a file
_COPY = 1 << 14   # bytes per read of the child's files: this process's peak follows it


def _write(f, lines: Iterable[str]):
    """Write ``lines`` (none empty), each ended by a newline, ``_CHUNK`` at a time."""
    lines = iter(lines)
    while block := "\n".join(islice(lines, _CHUNK)):
        f.write(block)
        f.write("\n")


class _Outputs:
    """The output files of one command, written while it runs.

    Each file goes to a temporary ``.<name>.tmp`` in ``out_dir``:
    ``utilization.jsonl``, and ``events.jsonl`` (which starts with the meta
    line) when ``json_events`` is set, are opened on entering the ``with``
    block, before the first run, and are in ``files`` by final name.
    Entering the block also checks that no target of the command, including
    ``summary.csv`` and (with ``tables``) ``tables.json``, is a directory,
    which ``os.replace`` could not replace. ``commit`` writes ``summary.csv``
    and moves every file into place. Leaving the block without a commit, as
    an exception does, deletes the temporary files that have not moved and
    the directories that this writer created, so a failed command leaves
    ``out_dir`` as it found it.
    """

    def __init__(self, out_dir: Path, command: str, seed: int, json_events: bool,
                 tables: bool = False):
        self.out_dir = out_dir
        self._meta = (json.dumps({"meta": {"command": command, "seed": seed}},
                                 separators=(",", ":")) + "\n" if json_events else None)
        self._targets = (["utilization.jsonl", "summary.csv"] + ["events.jsonl"] * json_events
                         + ["tables.json"] * tables)
        self.files = {}       # final name -> open temporary file
        self._created = []    # directories made by __enter__, deepest first

    def __enter__(self) -> _Outputs:
        for name in self._targets:
            if (self.out_dir / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, "an output is a directory",
                                        str(self.out_dir / name))
        missing = list(takewhile(lambda d: not d.exists(),
                                 (self.out_dir, *self.out_dir.parents)))
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._created = missing
            self.add("utilization.jsonl", "")
            if self._meta:
                self.add("events.jsonl", self._meta)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for name, f in self.files.items():
            f.close()
            self._temp(name).unlink()
        self.files.clear()
        for d in self._created:
            d.rmdir()

    def _temp(self, name: str) -> Path:
        return self.out_dir / f".{name}.tmp"

    def tell(self) -> dict:
        """The position of each open file, flushed, for ``rewind``."""
        return {name: f.tell() for name, f in self.files.items()}

    def rewind(self, marks: dict):
        """Cut each file back to its position in ``marks``."""
        for name, pos in marks.items():
            self.files[name].seek(pos)
            self.files[name].truncate()

    def add(self, name: str, text: str):
        """Open the temporary file of ``name`` and write ``text`` to it."""
        self.files[name] = f = open(self._temp(name), "w")
        f.write(text)

    def commit(self, header: list[str], rows: list[dict]):
        """Write ``summary.csv`` and move every file into place."""
        self.add("summary.csv", _csv(header, rows))
        self._created = []
        for name, f in list(self.files.items()):
            f.close()
            os.replace(self._temp(name), self.out_dir / name)
            del self.files[name]


_WORKLOAD_HEADER = ["env", "mode", "K", "B", "G", "makespan", "throughput",
                    "speedup_vs_sequential"]


def _write_run(metrics: Metrics, run: str, cfg: ExperimentConfig, files: dict):
    """Audit a run and write its lines to the open JSONL ``files`` by name."""
    check_all(metrics.trace, run)
    if "events.jsonl" in files:
        _write(files["events.jsonl"], encode_events(metrics.trace.records, run))
    samples = metrics.trace.utilization_samples(cfg.device.utilization_sample_dt)
    _write(files["utilization.jsonl"], encode_utilization(samples, run))


def _row(metrics: Metrics) -> dict:
    """The summary row of a run, with a speedup of 1.0."""
    return {"env": metrics.env, "mode": metrics.mode, "K": metrics.steps,
            "B": metrics.batch, "G": metrics.groups, "makespan": metrics.makespan,
            "throughput": metrics.throughput, "speedup_vs_sequential": 1.0}


def _copy(dst, src: int, pos: int, end: int):
    """Append bytes ``pos`` to ``end`` of the file ``src`` to the open text
    file ``dst``, after what was written to it before."""
    dst.flush()
    while pos < end:
        pos += dst.buffer.write(os.pread(src, min(_COPY, end - pos), pos))


# ----------------------------------------------------------------------
# commands

_HANDOFF = 1024   # new records of the streamed run per chunk handed over


def _parent_idle(fd: int) -> bool:
    """Whether the command's process has closed the write end of the pipe
    whose read end is ``fd``, without waiting: it does so once it waits for
    the last overlapped run."""
    from select import select
    return bool(select([fd], [], [], 0)[0])


class _OverlappedRuns:
    """A forked child that runs the overlapped run of each batch of a paired
    sweep, audits it and writes its lines to an unnamed temporary file per
    output in ``names``, opened before the fork.

    After each run the child sends one ``marshal`` message through a pipe,
    ``(summary row, mean compute utilization, end offset of each file)``,
    after its 4-byte length. A run that raises ends the child: the end of
    the pipe before a result is the one sign of a lost child, whatever the
    cause. ``pid`` is 0 if the pipes, the files or the fork failed. The
    processes share each file's offset, so this one reads with ``os.pread``
    and never seeks. The child leaves only through ``os._exit``, since
    returning into the caller would run the clean-up of the parent's
    ``_Outputs``.

    The last run is handed over instead if the parent waits for it while the
    child still runs it. The parent closes a second pipe, which carries no
    data, when it starts to wait. After each window of the run, once
    ``_HANDOFF`` new records have built up, the child checks for that
    (``_parent_idle``); from then on it sends the new records (only with an
    ``events.jsonl``) and segments as chunk messages ``(records or None,
    segments)`` on the result pipe, the last one with the closing segment,
    and then the run's result with None for the offsets. The parent encodes
    the chunks straight into the outputs as they arrive.
    """

    def __init__(self, cfg: ExperimentConfig, batches: list[int], label: str, run, mode,
                 names: Iterable[str]):
        fds = []
        self.pid, self._files = 0, {}
        try:
            fds += os.pipe()   # the results, and the chunks of the streamed run
            fds += os.pipe()   # closed by the parent once it waits for the last run
            for name in names:
                self._files[name] = tempfile.TemporaryFile("w+")
            self.pid = os.fork()
        except OSError:   # no child: every run of the sweep runs in this process
            for fd in fds:
                os.close(fd)
            self.close(kill=False)
            return
        r, w, idle_r, idle_w = fds
        if self.pid == 0:
            try:
                os.close(r)
                os.close(idle_w)
                self._send_runs(cfg, batches, label, run, mode, w, idle_r)
            finally:
                os._exit(0)
        os.close(w)
        os.close(idle_r)
        self._results = open(r, "rb")
        self._idle = idle_w   # None once closed
        self._left = len(batches)   # runs not yet received
        self._stream = label.format(batches[-1]) + mode.value, cfg.device.utilization_sample_dt
        self._ends = [0] * len(self._files)   # offsets of the last run copied in

    def receive(self, files: dict) -> tuple[dict, float] | None:
        """Copy the next run's lines into the open output ``files``, or encode
        them there from its chunks; return its summary row and mean compute
        utilization, or None if the child ended before sending it, after any
        chunks it handed over were written."""
        self._left -= 1
        if not self._left:   # the last run: the child may hand it over from now on
            os.close(self._idle)
            self._idle = None
        result = self._message()
        if result is not None and len(result) == 2:
            result = self._write_stream(result, files)
        if result is None:
            return None
        row, util, ends = result
        if ends is not None:
            for (name, src), pos, end in zip(self._files.items(), self._ends, ends):
                _copy(files[name], src.fileno(), pos, end)
            self._ends = ends
        return row, util

    def _message(self):
        """The child's next message, or None if it ended before sending one."""
        size = int.from_bytes(self._results.read(4), "little")
        message = self._results.read(size)
        return marshal.loads(message) if size and len(message) == size else None

    def _write_stream(self, chunk: tuple, files: dict):
        """Encode the lines of the streamed run into the open output
        ``files`` from ``chunk`` and the chunks after it, as they arrive;
        returns the message that follows the last chunk."""
        run, sample_dt = self._stream
        events = files.get("events.jsonl")
        message = chunk

        def segments():
            nonlocal message
            while message is not None and len(message) == 2:
                records, part = message
                if events is not None:
                    _write(events, encode_events(records, run))
                yield from part
                message = self._message()

        _write(files["utilization.jsonl"],
               encode_utilization(utilization_bins(segments(), sample_dt), run))
        return message

    def close(self, kill: bool):
        """Close the files and reap the child, killing it first if ``kill``."""
        for f in self._files.values():
            f.close()
        if not self.pid:
            return
        pid, self.pid = self.pid, 0
        self._results.close()
        if self._idle is not None:
            os.close(self._idle)
            self._idle = None
        if kill:
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)

    # the child's side

    def _send_runs(self, cfg: ExperimentConfig, batches: list[int], label: str, run, mode,
                   pipe: int, idle: int):
        """Run, audit and write each overlapped run, or hand the last one
        over, each followed by its result on ``pipe``; ``idle`` is the read
        end of the pipe that the parent closes. An exception ends the child
        through the caller's ``os._exit``."""
        self._pipe, self._idle = pipe, idle
        self._sent = (0, 0)   # records and segments of the last run handed over
        for i, batch in enumerate(batches, 1):
            metrics = None   # free the last run's trace before this one runs
            metrics = run(batch, mode,
                          on_window=self._hand_over if i == len(batches) else None)
            trace, name = metrics.trace, label.format(batch) + metrics.mode
            if self._sent[0]:   # the parent writes the lines
                self._send_chunk(trace, [trace.closing_segment(
                    cfg.device.utilization_sample_dt)])
                check_all(trace, name)
                ends = None
            else:
                _write_run(metrics, name, cfg, self._files)
                # tell() flushes: each file holds the run's lines up to its offset
                ends = [f.tell() for f in self._files.values()]
            self._send((_row(metrics), trace.mean_compute_util(), ends))

    def _hand_over(self, trace: MetricsTrace):
        """Hand the parent the new records and segments of the last run once
        ``_HANDOFF`` records have built up and the parent is idle
        (``Engine.run``'s ``on_window``)."""
        sent = self._sent[0]   # not 0 once a chunk went
        if len(trace.records) - sent >= _HANDOFF and (sent or _parent_idle(self._idle)):
            self._send_chunk(trace, [])

    def _send_chunk(self, trace: MetricsTrace, closing: list):
        r, s = self._sent
        records, segments = trace.records, trace.segments
        self._sent = len(records), len(segments)
        self._send((records[r:] if "events.jsonl" in self._files else None,
                    segments[s:] + closing))

    def _send(self, message):
        message = marshal.dumps(message)
        message = len(message).to_bytes(4, "little") + message
        while message:
            message = message[os.write(self._pipe, message):]


def _pair(cfg: ExperimentConfig, batch: int, label: str, run, modes: tuple,
          out: _Outputs, child: _OverlappedRuns
          ) -> tuple[list[dict], tuple[float, float]]:
    """One batch of ``_paired_sweep``: both summary rows, and both mean
    compute utilizations. The sequential run is run, audited and written
    here, then the overlapped run's lines come from ``child``. If the child
    ended before it sent that run, or never started, it is killed and
    reaped, any of the run's lines that came in are cut off, and the run
    runs here."""
    seq = run(batch, modes[0])
    _write_run(seq, label.format(batch) + seq.mode, cfg, out.files)
    marks = out.tell()
    over = child.pid and child.receive(out.files)
    if not over:
        child.close(kill=True)
        out.rewind(marks)
        metrics = run(batch, modes[1])
        _write_run(metrics, label.format(batch) + metrics.mode, cfg, out.files)
        over = _row(metrics), metrics.trace.mean_compute_util()
    row, util = over
    if row["makespan"] > 0:
        row["speedup_vs_sequential"] = seq.makespan / row["makespan"]
    return [_row(seq), row], (seq.trace.mean_compute_util(), util)


def _paired_sweep(cfg: ExperimentConfig, batches: list[int], label: str, run,
                  modes: tuple, out: _Outputs
                  ) -> tuple[list[dict], tuple[float, float]]:
    """Run every batch in the sequential and then the overlapped mode of
    ``modes`` with ``run(batch, mode, on_window=None)``, writing each run's
    lines to ``out``. Returns the summary rows (the overlapped row carries
    the speedup) and the mean compute utilizations of the last pair. Run
    labels are ``label.format(batch)`` followed by the mode.

    This process runs, audits and writes the sequential runs while a forked
    child runs, audits and encodes the overlapped ones; if this process
    waits for the last overlapped run while the child still runs it, the
    child hands it over and this process encodes it. The lines go to
    ``out`` in the order one process writes them. A failure in this process
    raises as one process raises it. If the child ends before it sends an
    overlapped run, for whatever cause, that run and the rest of the sweep
    run here, and if it cannot start, the whole sweep does; so the sweep
    writes, or raises, what one process writes or raises.

    The cyclic garbage collector is paused for the sweep, in both processes,
    and the caller's setting comes back on every path: the runs make no
    reference cycles, so reference counting frees all they allocate."""
    rows = []
    collecting = gc.isenabled()
    gc.disable()   # before the fork, so the child inherits the pause
    try:
        child = _OverlappedRuns(cfg, batches, label, run, modes[1], out.files)
        try:
            for batch in batches:
                pair, utils = _pair(cfg, batch, label, run, modes, out, child)
                rows += pair
        except BaseException:
            child.close(kill=True)
            raise
        child.close(kill=False)
    finally:
        if collecting:
            gc.enable()
    return rows, utils


def _run_datagen(cfg: ExperimentConfig):
    return lambda batch, mode, on_window=None: run_datagen(
        EpisodeSpec(cfg.steps, batch, mode), cfg.costs, cfg.device, env=cfg.env,
        on_window=on_window)


_DATAGEN_MODES = (DatagenMode.SEQUENTIAL, DatagenMode.PIPELINED)


def cmd_datagen(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
                json_events: bool = False) -> list[dict]:
    """Sequential vs pipelined data generation across the batch sweep."""
    with _Outputs(out_dir, "datagen", seed, json_events) as out:
        rows, _ = _paired_sweep(cfg, cfg.batches, "B{}/", _run_datagen(cfg),
                                _DATAGEN_MODES, out)
        out.commit(_WORKLOAD_HEADER, rows)
    return rows


def cmd_rl(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
           json_events: bool = False) -> list[dict]:
    """Sequential vs interleaved rollout across the batch sweep."""
    for b in cfg.batches:
        if b % cfg.groups:
            raise ConfigError(f"[workload]: groups={cfg.groups} does not divide batch {b}")

    def run(batch, mode, on_window=None):
        return run_rl_rollout(RolloutSpec(cfg.steps, batch, cfg.groups, mode),
                              cfg.costs, cfg.device, env=cfg.env, on_window=on_window)

    with _Outputs(out_dir, "rl", seed, json_events) as out:
        rows, _ = _paired_sweep(cfg, cfg.batches, "B{}/", run,
                                (RolloutMode.SEQUENTIAL, RolloutMode.INTERLEAVED), out)
        out.commit(_WORKLOAD_HEADER, rows)
    return rows


def graft_sweep(cfg: ExperimentConfig, counts: list[int],
                dump_tables: bool = False) -> list[dict]:
    """Op-count cost of sharing n 2 MiB buffers, for each n in ``counts``:
    graft-and-propagate vs a 2-ops-per-buffer export/import model.

    One run serves every row: both sides get a small resident footprint, the
    graft runs once, then each row's new buffers are mapped on the source as
    one contiguous range (one ``allocate``, ``alloc_phys`` and ``map_range``),
    up to ``max(counts)``. That is the state n single maps leave, the same as
    a fresh run to n: nothing blocks the source's window, so one k-page
    allocation returns the range k one-page calls would; pages and nodes are
    numbered in the same order; and one subscriber merge over the range
    copies each entry the per-buffer merges would copy, since every later
    map under a copied entry is shared. Graft cost is the initial merge's
    entry writes, plus subscriber writes caused by the new mappings, plus the
    merge's TLB invalidation. Rows come back in ``counts`` order.
    With ``dump_tables`` the last row also carries both tables under
    ``"tables"``, dumped when the count reaches ``counts[-1]``, which need not
    be the largest count.
    """
    mem = MemorySystem(cfg.device.geometry)
    source = mem.create_space(AllocPolicy.HIGH_RANGE, base=cfg.device.high_base)
    target = mem.create_space(AllocPolicy.LOW_RANGE, base=cfg.device.low_base,
                              limit=cfg.device.high_base)
    for space in (source, target):
        va = mem.allocate(space, 2, SizeClass.SMALL)
        mem.map_range(space, va, mem.alloc_phys(SizeClass.SMALL, 2))
    report = mem.graft(source, target)
    writes_before = mem.copy_log.writes
    graft_ops, tables, mapped = {}, None, 0
    for n in sorted(set(counts)):
        va = mem.allocate(source, n - mapped, SizeClass.BIG)
        mem.map_range(source, va, mem.alloc_phys(SizeClass.BIG, n - mapped))
        mapped = n
        subscriber_writes = mem.copy_log.writes - writes_before
        graft_ops[n] = report.entry_writes + subscriber_writes + report.tlb_invalidations
        if dump_tables and n == counts[-1]:
            tables = {"source": mem.dump_tables(source), "target": mem.dump_tables(target)}
    rows = [{"n_buffers": n, "export_import_ops": 2 * n, "graft_ops": graft_ops[n]}
            for n in counts]
    if dump_tables:
        rows[-1]["tables"] = tables
    return rows


def cmd_graftbench(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
                   json_events: bool = False, dump_tables: bool = False) -> list[dict]:
    """Scaling of memory-sharing cost with the number of shared 2 MiB buffers."""
    with _Outputs(out_dir, "graftbench", seed, json_events, dump_tables) as out:
        rows = graft_sweep(cfg, cfg.buffer_counts, dump_tables)
        tables = rows[-1].pop("tables", None)
        if json_events:
            for row in rows:
                record = (0.0, "graftbench", None, None, None,
                          tuple(row[f] for f in _GRAFTBENCH_FIELDS))
                _write(out.files["events.jsonl"],
                       encode_events([record], f"N{row['n_buffers']}"))
        if tables is not None:
            out.add("tables.json", json.dumps(tables, indent=2) + "\n")
        out.commit(["n_buffers", "export_import_ops", "graft_ops"], rows)
    return rows


def cmd_trace(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
              json_events: bool = False) -> list[dict]:
    """Paired utilization traces of one workload, sequential vs pipelined.

    Fails with an invariant violation if overlap lowers the mean compute
    utilization. It need not raise it: one step cannot overlap, and compute
    may be saturated in both modes.
    """
    with _Outputs(out_dir, "trace", seed, json_events) as out:
        rows, (seq_util, pipe_util) = _paired_sweep(
            cfg, cfg.batches[:1], "", _run_datagen(cfg), _DATAGEN_MODES, out)
        if pipe_util < seq_util:
            raise InvariantViolation("pipelined mean compute utilization below "
                                     f"sequential ({pipe_util} < {seq_util})")
        out.commit(_WORKLOAD_HEADER, rows)
    return rows
