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
needs POSIX ``os.fork``: a forked child runs, audits and encodes the
sequential runs and sends their lines through a pipe, while this process runs
the overlapped runs, and the lines are written in the order of one process.
The memory of each process follows one run. A failure in a batch is
reproduced by running that batch again in this process, as one process runs
it, so the command raises the exception one process raises.
"""

from __future__ import annotations

import json
import marshal
import os
from collections.abc import Iterable, Iterator
from itertools import islice, takewhile
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .audits import InvariantViolation, check_all
from .config import DeviceConfig
from .engine import EVENT_FIELDS
from .vm import AllocPolicy, MemorySystem, PageGeometry, SizeClass, _SlotValue
from .workloads import (ENV_PRESETS, DatagenMode, EpisodeSpec, Metrics, PhaseCost,
                        RolloutMode, RolloutSpec, run_datagen, run_rl_rollout)


class ConfigError(Exception):
    pass


def _parse_int(text: str) -> int:
    return int(text, 0)  # accepts hex for the VA bases


def _parse_int_list(text: str) -> list[int]:
    return [int(tok, 0) for tok in text.replace(",", " ").split()]


_SCHEMA = {
    "device": {
        "quantum": float,
        "context_switch_penalty": float,
        "hw_max_queues": _parse_int,
        "ring_capacity": _parse_int,
        "compute_capacity": float,
        "graphics_capacity": float,
        "utilization_sample_dt": float,
        "page_levels": _parse_int,
        "page_bits_per_level": _parse_int,
        "big_page_level": _parse_int,
        "va_width": _parse_int,
        "high_base": _parse_int,
        "low_base": _parse_int,
    },
    "costs": {
        "preset": str,
        "sim_base": float,
        "sim_per_env": float,
        "render_base": float,
        "render_per_env": float,
        "inference_base": float,
        "inference_per_env": float,
        "sim_compute_frac": float,
        "render_compute_frac": float,
        "render_graphics_frac": float,
    },
    "workload": {
        "env": str,
        "steps": _parse_int,
        "batches": _parse_int_list,
        "groups": _parse_int,
    },
    "graftbench": {
        "buffer_counts": _parse_int_list,
    },
}

_GEOMETRY_KEYS = {"page_levels": "levels", "page_bits_per_level": "bits_per_level",
                  "big_page_level": "big_page_level", "va_width": "va_width"}


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
    for b in batches:
        if b % groups:
            raise ConfigError(f"[workload]: groups={groups} does not divide batch {b}")

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
# Both encoders yield their lines one at a time, and ``_blocks`` joins them
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


_CHUNK = 256   # lines per block written to a file or sent between processes


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined by newlines ``_CHUNK`` at a time (no line is empty)."""
    lines = iter(lines)
    while block := "\n".join(islice(lines, _CHUNK)):
        yield block


class _Outputs:
    """The output files of one command, written while it runs.

    Each file goes to a temporary ``.<name>.tmp`` in ``out_dir``:
    ``utilization.jsonl``, and ``events.jsonl`` (which starts with the meta
    line) when ``json_events`` is set, are opened on entering the ``with``
    block, before the first run, and take the lines of each run in blocks.
    ``commit`` writes ``summary.csv`` and moves every file into place.
    Leaving the block without a commit, as an exception does, deletes the
    temporary files and the directories that this writer created, so a failed
    command leaves ``out_dir`` as it found it.
    """

    def __init__(self, out_dir: Path, command: str, seed: int, json_events: bool):
        self.out_dir = out_dir
        self.json_events = json_events
        self._meta = json.dumps({"meta": {"command": command, "seed": seed}},
                                separators=(",", ":")) + "\n"
        self._files = {}      # final name -> open temporary file
        self._created = []    # directories made by __enter__, deepest first

    def __enter__(self) -> _Outputs:
        missing = list(takewhile(lambda d: not d.exists(),
                                 (self.out_dir, *self.out_dir.parents)))
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._created = missing
            self.add("utilization.jsonl", "")
            if self.json_events:
                self.add("events.jsonl", self._meta)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for name, f in self._files.items():
            f.close()
            self._temp(name).unlink()
        self._files.clear()
        for d in self._created:
            d.rmdir()

    def _temp(self, name: str) -> Path:
        return self.out_dir / f".{name}.tmp"

    def write(self, name: str, block: str):
        """Append a block of ``_blocks`` lines to an open JSONL file."""
        f = self._files[name]
        f.write(block)
        f.write("\n")

    def tell(self) -> dict:
        """The position of each open file, flushed, for ``rewind``."""
        return {name: f.tell() for name, f in self._files.items()}

    def rewind(self, marks: dict):
        """Cut each file back to its position in ``marks``."""
        for name, pos in marks.items():
            self._files[name].seek(pos)
            self._files[name].truncate()

    def add(self, name: str, text: str):
        """Open the temporary file of ``name`` and write ``text`` to it."""
        self._files[name] = f = open(self._temp(name), "w")
        f.write(text)

    def commit(self, header: list[str], rows: list[dict]):
        """Write ``summary.csv`` and move every file into place."""
        self.add("summary.csv", _csv(header, rows))
        self._created = []
        for name in list(self._files):
            self._files.pop(name).close()
            os.replace(self._temp(name), self.out_dir / name)


_WORKLOAD_HEADER = ["env", "mode", "K", "B", "G", "makespan", "throughput",
                    "speedup_vs_sequential"]


def _collect(metrics: Metrics, run: str, speedup: float, cfg: ExperimentConfig,
             out: _Outputs | _PipeOutputs) -> dict:
    check_all(metrics.trace, run)
    if out.json_events:
        for block in _blocks(encode_events(metrics.trace.records, run)):
            out.write("events.jsonl", block)
    samples = metrics.trace.utilization_samples(cfg.device.utilization_sample_dt)
    for block in _blocks(encode_utilization(samples, run)):
        out.write("utilization.jsonl", block)
    return {"env": metrics.env, "mode": metrics.mode, "K": metrics.steps,
            "B": metrics.batch, "G": metrics.groups, "makespan": metrics.makespan,
            "throughput": metrics.throughput, "speedup_vs_sequential": speedup}


# ----------------------------------------------------------------------
# commands

class _SequentialRuns:
    """A forked child that runs the sequential run of each batch of a paired
    sweep, audits and encodes it, and sends it to this process in a pipe.

    Per run the child sends ``marshal`` pairs: ``(file name, block)`` for
    each block of its lines, then ``(None, (summary row, mean compute
    utilization))``, or ``(None, None)`` if the run raised. The exception
    itself is not sent: the parent runs the batch again to raise it. The
    child leaves only through ``os._exit``, since returning into the caller
    would run the clean-up of the parent's ``_Outputs``.
    """

    def __init__(self, cfg: ExperimentConfig, batches: list[int], label: str, run,
                 mode, json_events: bool):
        r, w = os.pipe()
        try:   # room for a run's lines, so that the child need not wait for this process
            import fcntl
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
        except (AttributeError, OSError):   # not Linux, or over the user's pipe quota
            pass
        try:
            self.pid = os.fork()
        except OSError as exc:   # not an --out error, which is what cli.main takes it for
            os.close(r)
            os.close(w)
            raise RuntimeError(f"cannot fork the sequential runs: {exc}") from None
        if self.pid == 0:
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    _send_runs(cfg, batches, label, run, mode, json_events, pipe)
            finally:
                os._exit(0)
        os.close(w)
        self._pipe = open(r, "rb")

    def receive(self, out: _Outputs) -> tuple[dict, float]:
        """Write the next run's blocks to ``out``; return its summary row and
        mean compute utilization."""
        name, payload = self._load()
        while name is not None:
            out.write(name, payload)
            name, payload = self._load()
        if payload is None:
            raise RuntimeError("a sequential run raised in the child")
        return payload

    def _load(self):
        try:
            return marshal.load(self._pipe)
        except EOFError:
            code = self.close(kill=False)
            raise RuntimeError(f"the process of the sequential runs ended with exit "
                               f"status {code} before sending its result") from None

    def close(self, kill: bool):
        """Reap the child, killing it first if ``kill``; returns its exit
        status (minus the signal number if a signal ended it), or None if it
        was reaped before."""
        if not self.pid:
            return None
        pid, self.pid = self.pid, 0
        self._pipe.close()
        if kill:
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class _PipeOutputs:
    """What ``_collect`` writes to in the child: each block goes to the parent."""

    def __init__(self, pipe, json_events: bool):
        self.pipe = pipe
        self.json_events = json_events

    def write(self, name: str | None, block):
        marshal.dump((name, block), self.pipe)


def _send_runs(cfg: ExperimentConfig, batches: list[int], label: str, run, mode,
               json_events: bool, pipe):
    """The child's side of ``_SequentialRuns``."""
    out = _PipeOutputs(pipe, json_events)
    for batch in batches:
        metrics = None   # free the last run's trace before this one runs
        try:
            metrics = run(batch, mode)
            row = _collect(metrics, label.format(batch) + metrics.mode, 1.0, cfg, out)
            result = row, metrics.trace.mean_compute_util()
        except Exception:
            out.write(None, None)
            return
        out.write(None, result)
        pipe.flush()


def _pair(cfg: ExperimentConfig, batch: int, label: str, run, modes: tuple,
          out: _Outputs, child: _SequentialRuns | None
          ) -> tuple[list[dict], tuple[float, float]]:
    """One batch of ``_paired_sweep``: both summary rows, and both mean
    compute utilizations. The sequential run comes from ``child``; without
    one, both run here, in the order and with the calls of one process."""
    seq = None if child else run(batch, modes[0])
    over = run(batch, modes[1])
    if child:
        seq_row, seq_util = child.receive(out)
    else:
        seq_row = _collect(seq, label.format(batch) + seq.mode, 1.0, cfg, out)
        seq_util = seq.trace.mean_compute_util()
    speedup = seq_row["makespan"] / over.makespan if over.makespan > 0 else 1.0
    over_row = _collect(over, label.format(batch) + over.mode, speedup, cfg, out)
    return [seq_row, over_row], (seq_util, over.trace.mean_compute_util())


def _paired_sweep(cfg: ExperimentConfig, batches: list[int], label: str, run,
                  modes: tuple, out: _Outputs
                  ) -> tuple[list[dict], tuple[float, float]]:
    """Run every batch in the sequential and then the overlapped mode of
    ``modes`` with ``run(batch, mode)``, writing each run's lines to ``out``.
    Returns the summary rows (the overlapped row carries the speedup) and the
    mean compute utilizations of the last pair. Run labels are
    ``label.format(batch)`` followed by the mode.

    A forked child runs the sequential runs while this process runs the
    overlapped ones; the lines go to ``out`` in the order one process writes
    them. If anything in a batch fails, the child is killed, the batch's
    lines are cut off, and that batch and the rest run here, so the command
    raises what one process raises. A child that ends without sending its
    run raises a RuntimeError naming its exit status."""
    rows = []
    marks = out.tell()   # this flushes the files: the child inherits no unwritten text
    child = _SequentialRuns(cfg, batches, label, run, modes[0], out.json_events)
    try:
        for batch in batches:
            if child.pid:
                try:
                    pair, utils = _pair(cfg, batch, label, run, modes, out, child)
                except Exception:
                    if not child.pid:   # it ended without sending its run
                        raise
                    child.close(kill=True)
                    out.rewind(marks)
            if not child.pid:
                pair, utils = _pair(cfg, batch, label, run, modes, out, None)
            rows += pair
            marks = out.tell()
    except BaseException:
        child.close(kill=True)
        raise
    child.close(kill=False)
    return rows, utils


def _run_datagen(cfg: ExperimentConfig):
    return lambda batch, mode: run_datagen(EpisodeSpec(cfg.steps, batch, mode),
                                           cfg.costs, cfg.device, env=cfg.env)


_DATAGEN_MODES = (DatagenMode.SEQUENTIAL, DatagenMode.PIPELINED)


def cmd_datagen(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
                json_events: bool = False, dump_tables: bool = False) -> list[dict]:
    """Sequential vs pipelined data generation across the batch sweep."""
    with _Outputs(out_dir, "datagen", seed, json_events) as out:
        rows, _ = _paired_sweep(cfg, cfg.batches, "B{}/", _run_datagen(cfg),
                                _DATAGEN_MODES, out)
        out.commit(_WORKLOAD_HEADER, rows)
    return rows


def cmd_rl(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
           json_events: bool = False, dump_tables: bool = False) -> list[dict]:
    """Sequential vs interleaved rollout across the batch sweep."""
    def run(batch, mode):
        return run_rl_rollout(RolloutSpec(cfg.steps, batch, cfg.groups, mode),
                              cfg.costs, cfg.device, env=cfg.env)

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
    graft runs once, then ``max(counts)`` buffers are mapped on the source.
    The map sequence is deterministic, so the row for n is the state after
    the first n maps, the same as a fresh run to n. Graft cost is the initial
    merge's entry writes, plus subscriber writes caused by the new mappings,
    plus the merge's TLB invalidation. Rows come back in ``counts`` order.
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
        for _ in range(n - mapped):
            va = mem.allocate(source, 1, SizeClass.BIG)
            mem.map_range(source, va, mem.alloc_phys(SizeClass.BIG))
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
    with _Outputs(out_dir, "graftbench", seed, json_events) as out:
        rows = graft_sweep(cfg, cfg.buffer_counts, dump_tables)
        tables = rows[-1].pop("tables", None)
        if json_events:
            for row in rows:
                record = (0.0, "graftbench", None, None, None,
                          tuple(row[f] for f in _GRAFTBENCH_FIELDS))
                for block in _blocks(encode_events([record], f"N{row['n_buffers']}")):
                    out.write("events.jsonl", block)
        if tables is not None:
            out.add("tables.json", json.dumps(tables, indent=2) + "\n")
        out.commit(["n_buffers", "export_import_ops", "graft_ops"], rows)
    return rows


def cmd_trace(cfg: ExperimentConfig, out_dir: Path, seed: int = 0,
              json_events: bool = False, dump_tables: bool = False) -> list[dict]:
    """Paired utilization traces of one workload, sequential vs pipelined.

    Fails with an invariant violation if overlap does not raise the mean
    compute utilization.
    """
    with _Outputs(out_dir, "trace", seed, json_events) as out:
        rows, (seq_util, pipe_util) = _paired_sweep(
            cfg, cfg.batches[:1], "", _run_datagen(cfg), _DATAGEN_MODES, out)
        if cfg.steps > 0 and pipe_util <= seq_util:
            raise InvariantViolation("pipelined mean compute utilization not above "
                                     f"sequential ({pipe_util} <= {seq_util})")
        out.commit(_WORKLOAD_HEADER, rows)
    return rows
