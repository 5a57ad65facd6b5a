"""Workloads of the gpumux benchmark: seeded inputs, one timed pass, checks.

Each workload is built from a seed in ``setup`` and then run pass after pass
by ``iterate``. The program sees only what the seed generated: a config file
for the ``gpumux`` CLI and, for ``vm_graft``, a list of page-table operations.
Every pass is checked against oracles that do not share the code path under
test, and every pass hashes its outputs into a digest that must repeat.

Nothing here imports ``gpumux`` at module level; the caller imports it (that
import is part of the measured set-up) and passes the package in as ``gm``.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    """How much work one pass and the traced run's sweeps (``exp_*``) do.
    ``FULL`` is the benchmark; ``TINY`` is for the self-test."""

    rl_groups: int = 64
    rl_batch: int = 32768           # 512 envs per group; see README.md
    rl_steps: int = 10
    dg_steps: int = 200
    dg_batches: tuple = (32, 64, 128, 256, 384)
    vm_ops: int = 20_000
    vm_checkpoints: int = 5
    gb_counts: tuple = tuple(4 << i for i in range(13))        # 4 .. 16384
    exp_groups: tuple = (8, 16, 32, 64)
    exp_batch: int = 512            # small, so polling and not output dominates
    exp_steps: int = 50
    exp_buffers: tuple = (4096, 8192, 16384, 32768, 65536)


FULL = Sizes()
TINY = Sizes(rl_groups=4, rl_batch=2048, rl_steps=2, dg_steps=3, dg_batches=(8, 16),
             vm_ops=600, vm_checkpoints=2, gb_counts=(4, 8, 16),
             exp_groups=(1, 2, 4), exp_batch=4, exp_steps=2,
             exp_buffers=(4, 8, 16))


@dataclass
class Pass:
    """What one pass produced: host time of its timed part, units of work,
    the simulated gain, failures and the output digest."""

    wall_s: float
    units: int
    attempted: int
    failed: int
    sim_gain: float
    digest: str
    errors: list = field(default_factory=list)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _file_digest(out: Path, names) -> str:
    return _sha(*((out / n).read_bytes() if (out / n).exists() else b"<missing>"
                  for n in names))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def log_log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) over log(x): the scaling exponent."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den if den else 0.0


def run_cli(gm, argv) -> tuple[int | None, float, str | None]:
    """One timed ``gpumux`` CLI call: (exit code or None if it raised, host
    seconds, error text)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        rc = gm.cli.main([str(a) for a in argv])
        err = None if rc == 0 else f"{argv[0]} exited with {rc}"
    except Exception as exc:  # a raising run is a failed run, not a crash
        rc, err = None, f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0, err


def _write_config(path: Path, sections: dict) -> Path:
    lines = ["# generated by the gpumux benchmark"]
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


PRESET = "StackCube"
DURATIONS = ("sim_base", "sim_per_env", "render_base", "render_per_env",
             "inference_base", "inference_per_env")


def seeded_costs(gm, seed: int) -> dict:
    """The ``PRESET`` phase durations, each scaled by a seeded factor in
    [0.97, 1.03].

    Not a seeded choice among presets: the presets differ in simulated
    makespan by up to 60%, and the utilization output grows with it, so the
    host time of a run would depend on which preset the seed drew.
    """
    rng = random.Random(seed)
    base = gm.workloads.ENV_PRESETS[PRESET]
    return {k: f"{getattr(base, k) * rng.uniform(0.97, 1.03):.6g}" for k in DURATIONS}


def engine_config(path: Path, costs: dict, steps: int, batches, groups: int) -> Path:
    return _write_config(path, {
        "costs": {"preset": PRESET, **costs},
        "workload": {"env": PRESET, "steps": steps,
                     "batches": " ".join(map(str, batches)), "groups": groups}})


def graftbench_config(path: Path, counts) -> Path:
    return _write_config(path, {"graftbench": {
        "buffer_counts": " ".join(map(str, counts))}})


def _best_wall(gm, argv, reps: int) -> tuple[float, int]:
    walls = [run_cli(gm, argv) for _ in range(reps)]
    return min(w for _, w, _ in walls), sum(rc != 0 for rc, _, _ in walls)


def groups_exponent(gm, seed: int, sizes: Sizes, work: Path, out: Path,
                    reps: int = 2) -> tuple[float, int, int]:
    """(exponent of ``rl`` wall time over the group count, runs, failed runs);
    best of ``reps`` calls per point."""
    costs = seeded_costs(gm, seed)
    walls, failed = [], 0
    for g in sizes.exp_groups:
        cfg = engine_config(work / f"rl-g{g}.ini", costs, sizes.exp_steps,
                            [sizes.exp_batch], g)
        wall, bad = _best_wall(gm, ["rl", "--config", cfg, "--out", out], reps)
        walls.append(wall)
        failed += bad
    return log_log_slope(sizes.exp_groups, walls), reps * len(walls), failed


def buffers_exponent(gm, sizes: Sizes, work: Path, out: Path,
                     reps: int = 2) -> tuple[float, int, int]:
    """(exponent of ``graftbench`` wall time over the buffer count, runs,
    failed runs); best of ``reps`` calls per point."""
    walls, failed = [], 0
    for n in sizes.exp_buffers:
        cfg = graftbench_config(work / f"graftbench-n{n}.ini", [n])
        wall, bad = _best_wall(gm, ["graftbench", "--config", cfg, "--out", out], reps)
        walls.append(wall)
        failed += bad
    return log_log_slope(sizes.exp_buffers, walls), reps * len(walls), failed


# ----------------------------------------------------------------------
# engine workloads: rl_wide and datagen_long

class EngineWorkload:
    """A CLI sweep that compares a sequential mode against an overlapped one.

    Correctness, checked from the output files alone:
    - the CLI exits 0, so the harness audits passed on every run;
    - per run, completions are FIFO per channel and semaphore values rise
      per stream (a re-run of two audits from the event log);
    - every ``summary.csv`` row is recomputed from ``events.jsonl``;
    - the sweep's simulated gain is at least 1.
    """

    OUTPUTS = ("summary.csv", "utilization.jsonl", "events.jsonl")

    def __init__(self, gm, seed: int, work: Path, command: str, overlapped: str,
                 batches, steps: int, groups: int):
        self.gm = gm
        self.seed = seed
        self.command = command
        self.overlapped = overlapped
        self.batches = list(batches)
        self.steps = steps
        self.groups = groups
        work.mkdir(parents=True, exist_ok=True)
        self.config = engine_config(work / f"{command}.ini", seeded_costs(gm, seed),
                                    steps, self.batches, groups)
        gm.harness.parse_config(self.config)   # reject a bad input during set-up

    @property
    def runs(self) -> int:
        return 2 * len(self.batches)

    def iterate(self, out: Path, ref: Pass | None = None, pause=None) -> Pass:
        """One CLI call. Outputs byte-identical to ``ref`` reuse its check."""
        rc, wall, err = run_cli(self.gm, [self.command, "--config", self.config,
                                          "--out", out, "--seed", self.seed,
                                          "--json-events"])
        digest = _file_digest(out, self.OUTPUTS)
        if err is not None:
            return Pass(wall, 1, self.runs, self.runs, 0.0, digest, [err])
        if ref is not None and ref.digest == digest:
            return Pass(wall, ref.units, self.runs, ref.failed, ref.sim_gain, digest,
                        list(ref.errors))
        units, failed, gain, errors = self.check(out)
        return Pass(wall, max(units, 1), self.runs, min(failed, self.runs), gain, digest,
                    errors)

    def check(self, out: Path) -> tuple[int, int, float, list]:
        """(events, failed runs, simulated gain, error texts) from the files."""
        errors = []
        makespan: dict[str, float] = {}
        bad_runs: set[str] = set()
        last_seq: dict = {}
        last_sem: dict = {}
        events = 0
        with open(out / "events.jsonl") as f:
            next(f)  # meta row
            for line in f:
                ev = json.loads(line)
                run, t, kind = ev["run"], ev["time"], ev["event"]
                events += 1
                if run not in makespan or t > makespan[run]:
                    makespan[run] = t
                if kind == "buffer_complete":
                    key = (run, ev["channel"])
                    if key in last_seq and ev["seq"] <= last_seq[key]:
                        bad_runs.add(run)
                    last_seq[key] = ev["seq"]
                elif kind == "semaphore" and ev["stream"] is not None:
                    key = (run, ev["stream"])
                    if key in last_sem and ev["value"] <= last_sem[key]:
                        bad_runs.add(run)
                    last_sem[key] = ev["value"]
        if bad_runs:
            errors.append(f"event-log audit failed for {sorted(bad_runs)}")

        with open(out / "summary.csv", newline="") as f:
            table = list(csv.DictReader(f))
        rows = {f"B{r['B']}/{r['mode']}": r for r in table}
        failed = max(0, len(table) - self.runs)
        seq_total = ovl_total = 0.0
        for batch in self.batches:
            seq_label, ovl_label = f"B{batch}/sequential", f"B{batch}/{self.overlapped}"
            for label in (seq_label, ovl_label):
                row = rows.get(label)
                ok = row is not None and label in makespan and label not in bad_runs
                if ok:
                    span = makespan[label]
                    overlapped = label == ovl_label
                    base = makespan.get(seq_label, 0.0)
                    speedup = base / span if overlapped and span > 0 else 1.0
                    try:
                        ok = (row["env"] == PRESET
                              and int(row["K"]) == self.steps and int(row["B"]) == batch
                              and int(row["G"]) == (self.groups if overlapped else 1)
                              and _close(float(row["makespan"]), span)
                              and _close(float(row["throughput"]),
                                         self.steps * batch / span if span > 0 else 0.0)
                              and _close(float(row["speedup_vs_sequential"]), speedup))
                    except ValueError:
                        ok = False
                if not ok:
                    failed += 1
                    errors.append(f"summary row {label} does not match the event log")
            seq_total += makespan.get(seq_label, 0.0)
            ovl_total += makespan.get(ovl_label, 0.0)
        gain = seq_total / ovl_total if ovl_total > 0 else 0.0
        if gain < 1.0:
            failed += len(self.batches)
            errors.append(f"simulated gain {gain} is below 1")
        return events, failed, gain, errors


def rl_wide(gm, seed, sizes: Sizes, work: Path) -> EngineWorkload:
    return EngineWorkload(gm, seed, work, "rl", "interleaved",
                          [sizes.rl_batch], sizes.rl_steps, sizes.rl_groups)


def datagen_long(gm, seed, sizes: Sizes, work: Path) -> EngineWorkload:
    return EngineWorkload(gm, seed, work, "datagen", "pipelined",
                          sizes.dg_batches, sizes.dg_steps, 1)


# ----------------------------------------------------------------------
# vm_graft

MAP, UNMAP, TRANSLATE = 0, 1, 2


def vm_op_stream(seed: int, n_ops: int) -> list[tuple]:
    """Seeded operations over a grafted high/low pair: about 30% maps (one
    in ten of them a 2 MiB page, the rest 1 to 3 small pages), 15% unmaps
    and 55% translates.

    Operations name mappings by a fraction into the live list, so the stream
    needs no addresses; a space is only unmapped or translated while the
    generator knows it holds a mapping.
    """
    rng = random.Random(seed)
    live = [0, 0]
    ops = []
    for _ in range(n_ops):
        s = rng.randrange(2)
        roll = rng.random()
        if roll < 0.30 or not live[s]:
            ops.append((MAP, s, rng.randint(1, 3), rng.random() < 0.1))
            live[s] += 1
        elif roll < 0.45:
            ops.append((UNMAP, s, rng.random()))
            live[s] -= 1
        else:
            ops.append((TRANSLATE, s, rng.random(), rng.random(), rng.random() < 0.5))
    return ops


class VmGraftWorkload:
    """Phase 1 drives ``MemorySystem`` with the seeded op stream; phase 2 runs
    the ``graftbench`` sweep through the CLI.

    Correctness: every translate returns the page and offset that was mapped
    there; at each checkpoint the subscriber's ``translate`` agrees with
    ``union_oracle`` and the oracle agrees with the mappings the benchmark
    made; each graftbench row has ``export_import_ops == 2n`` and matches
    its event row; graft beats export/import at the largest buffer count.
    """

    OUTPUTS = ("summary.csv", "events.jsonl")

    def __init__(self, gm, seed: int, sizes: Sizes, work: Path):
        self.gm = gm
        self.seed = seed
        self.sizes = sizes
        self.ops = vm_op_stream(seed, sizes.vm_ops)
        step = max(1, len(self.ops) // sizes.vm_checkpoints)
        self.checkpoints = set(range(step, len(self.ops), step)) | {len(self.ops)}
        work.mkdir(parents=True, exist_ok=True)
        self.config = graftbench_config(work / "graftbench.ini", sizes.gb_counts)
        gm.harness.parse_config(self.config)

    def iterate(self, out: Path, ref: Pass | None = None, pause=None) -> Pass:
        """Both phases, checked in full every pass, so ``ref`` is not used.
        ``pause`` is entered around the checkpoint checks, so that a tracer
        can leave them out."""
        vm = self.gm.vm
        small, big = vm.SizeClass.SMALL, vm.SizeClass.BIG
        mem = vm.MemorySystem()
        high = mem.create_space(vm.AllocPolicy.HIGH_RANGE)
        low = mem.create_space(vm.AllocPolicy.LOW_RANGE)
        spaces = (high, low)
        live = ([], [])
        pinned = []   # resident footprint, never unmapped
        for space in spaces:
            va = mem.allocate(space, 1, small)
            pages = mem.alloc_phys(small)
            mem.map_range(space, va, pages)
            pinned.append((va, pages))
        results = []
        errors = []
        failed = ck_failed = 0
        checked_leaves = []
        gc.collect()
        timed = 0.0
        t0 = time.perf_counter()
        try:
            mem.graft(high, low)
        except Exception as exc:  # counted like any other failed operation
            failed += 1
            errors.append(f"graft: {type(exc).__name__}: {exc}")
        for i, op in enumerate(self.ops):
            if i in self.checkpoints:
                timed += time.perf_counter() - t0
                bad, leaves = self.checkpoint(mem, high, low, pinned, live, pause)
                ck_failed += bad
                checked_leaves.append(leaves)
                t0 = time.perf_counter()
            kind, s = op[0], op[1]
            try:
                if kind == MAP:
                    sc = big if op[3] else small
                    n = 1 if op[3] else op[2]
                    va = mem.allocate(spaces[s], n, sc)
                    pages = mem.alloc_phys(sc, n)
                    mem.map_range(spaces[s], va, pages)
                    live[s].append((va, pages))
                elif kind == UNMAP:
                    lst = live[s]
                    j = int(op[2] * len(lst))
                    va, pages = lst[j]
                    lst[j] = lst[-1]
                    lst.pop()
                    mem.unmap_range(spaces[s], va, len(pages))
                else:
                    va, pages = live[s][int(op[2] * len(live[s]))]
                    size = pages[0].size_class.nbytes
                    off = int(op[3] * len(pages) * size) & ~7
                    page, got = mem.translate(low if op[4] else spaces[s], va + off)
                    results.append((page.id, got, pages[off // size].id, off % size))
            except Exception as exc:  # a raising operation is a failed operation
                failed += 1
                if len(errors) < 5:
                    errors.append(f"op {i} {op}: {type(exc).__name__}: {exc}")
        timed += time.perf_counter() - t0
        bad, leaves = self.checkpoint(mem, high, low, pinned, live, pause)
        ck_failed += bad
        checked_leaves.append(leaves)
        wrong = sum(1 for p, o, ep, eo in results if p != ep or o != eo)
        if wrong:
            errors.append(f"{wrong} translates returned the wrong page or offset")
        if ck_failed:
            errors.append(f"{ck_failed} checkpoints disagree with union_oracle")

        rc, gb_wall, err = run_cli(self.gm, ["graftbench", "--config", self.config,
                                             "--out", out, "--seed", self.seed,
                                             "--json-events"])
        rows = len(self.sizes.gb_counts)
        if err is not None:
            gb_failed, gain = rows, 0.0
            errors.append(err)
        else:
            gb_failed, gain, gb_errors = self.check_graftbench(out)
            errors += gb_errors
        digest = _sha(repr(results).encode(), repr(checked_leaves).encode(),
                      _file_digest(out, self.OUTPUTS).encode())
        units = len(self.ops) + sum(self.sizes.gb_counts)
        attempted = 1 + len(self.ops) + len(self.checkpoints) + rows  # 1: the graft
        return Pass(timed + gb_wall, units, attempted,
                    min(failed + wrong + ck_failed + gb_failed, attempted), gain, digest,
                    errors)

    def checkpoint(self, mem, high, low, pinned, live, pause) -> tuple[int, int]:
        """(1 if the subscriber view or the oracle is wrong else 0, leaves)."""
        if pause is not None:
            with pause():
                return self.checkpoint(mem, high, low, pinned, live, None)
        try:
            oracle = mem.union_oracle(high, low)
            expected = {}
            for mappings in (pinned, *live):
                for va, pages in mappings:
                    size = pages[0].size_class.nbytes
                    for k, page in enumerate(pages):
                        expected[va + k * size] = page
            ok = oracle == expected and all(
                mem.translate(low, va)[0] == page for va, page in oracle.items())
        except Exception:  # a raising check is a failed check
            return 1, -1
        return (0 if ok else 1), len(oracle)

    def check_graftbench(self, out: Path) -> tuple[int, float, list]:
        """(failed rows, export/import ops over graft ops at the largest n,
        error texts)."""
        with open(out / "summary.csv", newline="") as f:
            table = list(csv.DictReader(f))
        with open(out / "events.jsonl") as f:
            next(f)
            evs = {ev["run"]: ev for ev in map(json.loads, f)}
        rows = {r["n_buffers"]: r for r in table}
        counts = self.sizes.gb_counts
        failed, errors, gain = max(0, len(table) - len(counts)), [], 0.0
        for n in counts:
            row, ev = rows.get(str(n)), evs.get(f"N{n}")
            try:
                graft_ops = int(row["graft_ops"])
                ok = (int(row["export_import_ops"]) == 2 * n and graft_ops > 0
                      and ev["export_import_ops"] == 2 * n and ev["graft_ops"] == graft_ops)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                failed += 1
                errors.append(f"graftbench row N{n} is wrong")
            elif n == max(counts):
                gain = 2 * n / graft_ops
        if gain < 1.0:
            failed += 1
            errors.append(f"graft gain {gain} is below 1")
        return failed, gain, errors


WORKLOADS = {"rl_wide": rl_wide, "datagen_long": datagen_long, "vm_graft": VmGraftWorkload}
