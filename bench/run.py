"""gpumux benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload rl_wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; it imports ``gpumux`` from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics listed in
``BENCHMARK.json``. With ``--trace 1`` it measures the same passes untraced,
then runs one traced pass and the scaling sweeps, and reports the per-layer
metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the run metadata and the output digest. See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_PASSES = 4
PROBE_INTERVAL_S = 0.002     # of process CPU time
PROBE_REF_NS = 17_000        # probe time on the quiet 2-core VM the bounds were set on
PROBE_SENSITIVITY = 0.75     # measured d log(pass time) / d log(probe time)


def probe_kernel() -> int:
    """A few microseconds of fixed interpreter work: small dict and str
    allocation, then integer arithmetic."""
    d = {}
    for i in range(40):
        d[i] = (i, str(i))
    s = 0
    for i in range(300):
        s += i
    return s + len(d)


class SpeedProbe:
    """Times ``probe_kernel`` every 2 ms of CPU time while a pass runs.

    Other tenants of a shared host slow a whole run down for tens of
    seconds. The probe runs inside the pass, from a ``SIGPROF`` handler (no
    thread), so it sees the same slow-down. ``scale`` turns a pass's host
    time into the time it would have taken at the reference speed.
    """

    def __init__(self):
        self.samples: list[int] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        probe_kernel()
        self.samples.append(time.perf_counter_ns() - t0)

    def scale(self, since: int) -> float:
        """Reference speed over the speed seen since sample ``since``."""
        window = self.samples[since:]
        if not window:
            return 1.0
        return (PROBE_REF_NS / statistics.median(window)) ** PROBE_SENSITIVITY


def fast_end(times: list) -> float:
    """10th percentile of host times (at least two).

    Other tenants of a shared host slow a pass down for seconds at a time and
    never speed it up. The fast end of many short passes is therefore the
    steady figure, while the median moves with how much of a run they
    overlapped.
    """
    return statistics.quantiles(times, n=10)[0]


def import_gpumux(src: Path):
    """Import ``gpumux`` afresh, so that every set-up pays for the import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gpumux" or m.startswith("gpumux.")]:
        del sys.modules[name]
    gm = importlib.import_module("gpumux")
    importlib.import_module("gpumux.cli")
    if not Path(gm.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gpumux was imported from {gm.__file__}, not from {src}")
    return gm


def run_metadata(seed: int) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        try:
            commit = git("rev-parse", "HEAD") or None
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "commit": commit, "dirty": dirty, "seed": seed}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall_s: float, overhead: float, out_bytes: int,
                  groups_exp: float, buffers_exp: float) -> dict:
    """Per-layer numbers from one traced pass of ``wall_s`` host seconds. A
    layer the workload does not reach reads 0."""
    wall_ns = wall_s * 1e9
    c = tr.counts

    def self_per_call(name, unit_ns):
        return _ratio(tr.self_ns(name), tr.calls(name)) / unit_ns

    api = ("workloads.step_async", "workloads.render_async",
           "workloads.wait_step", "workloads.wait_render")
    conds = tr.calls("engine.satisfied")
    events = c["audits.events"]
    harness_s = tr.layer_self_ns("harness") / 1e9
    audit_s = tr.total_ns("audits.check_all") / 1e9
    return {
        "vm.translate.calls": tr.calls("vm.translate"),
        "vm.translate.self_ns": self_per_call("vm.translate", 1),
        "vm.translate.tlb_hit_ratio": _ratio(c["vm.tlb_hits"], tr.calls("vm.translate")),
        "vm.map_range.calls": tr.calls("vm.map_range"),
        "vm.map_range.self_us": self_per_call("vm.map_range", 1e3),
        "vm.allocate.self_us": self_per_call("vm.allocate", 1e3),
        "vm.copy_writes_per_map": _ratio(c["vm.copy_writes"], tr.calls("vm.map_range")),
        "vm.unmap_range.self_us": self_per_call("vm.unmap_range", 1e3),
        "vm.graft.self_us": self_per_call("vm.graft", 1e3),
        "vm.nodes_live": c["vm.nodes_live"],
        "vm.self_share": tr.layer_self_ns("vm") / wall_ns,
        "vm.buffers_exponent": buffers_exp,
        "engine.cond_evals": conds,
        "engine.cond_evals_per_event": _ratio(conds, events),
        "engine.cond_hit_ratio": _ratio(c["engine.cond_hits"], conds),
        "engine.events": events,
        "engine.windows": c["audits.windows"],
        "engine.self_share": tr.layer_self_ns("engine") / wall_ns,
        "engine.submit.calls": tr.calls("engine.submit"),
        "engine.submit.self_us": self_per_call("engine.submit", 1e3),
        "engine.bind.self_ms": tr.total_ns("engine.bind", "engine.unbind") / 1e6,
        "engine.groups_exponent": groups_exp,
        "workloads.session_setup_s": tr.total_ns("workloads.__init__") / 1e9,
        "workloads.api.self_us": _ratio(tr.self_ns(*api), tr.calls(*api)) / 1e3,
        "harness.output_bytes": out_bytes,
        "harness.write_mib_per_s": _ratio(out_bytes / 2**20, harness_s),
        "harness.self_share": harness_s * 1e9 / wall_ns,
        "harness.parse_config_ms": _ratio(tr.total_ns("harness.parse_config"),
                                          tr.calls("harness.parse_config")) / 1e6,
        "audits.check_all_s": audit_s,
        "audits.events_per_s": _ratio(events, audit_s),
        "trace.overhead_ratio": overhead,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path,
            sizes: suite.Sizes = suite.FULL, spans_path: Path | None = None) -> dict:
    """Set up, run passes for ``seconds``, check, and return the result record
    (with ``metrics`` as bare numbers, plus ``digest``, ``errors`` and the
    host time of each pass)."""
    # Set-up is repeated before every pass, so that its samples spread over
    # the run like the passes do. Both are scaled to the reference speed.
    out = work / "out"
    passes: list[suite.Pass] = []
    ref = None
    setups, scaled = [], []
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            since = len(probe.samples)
            t0 = time.perf_counter()
            gm = import_gpumux(ROOT / "src")
            wl = suite.WORKLOADS[workload](gm, seed, sizes, work / "inputs")
            setups.append((time.perf_counter() - t0) * probe.scale(since))
            since = len(probe.samples)
            p = wl.iterate(out, ref)
            scaled.append(p.wall_s * probe.scale(since))
            if ref is None:
                ref = p
            elif p.digest != ref.digest:
                p.failed = p.attempted
                p.errors.append("outputs differ from the first pass at the same seed")
            passes.append(p)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_wall_s = fast_end([p.wall_s for p in passes])
    wall_s = fast_end(scaled)

    if not traced:
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        metrics = {
            "wall_s": wall_s,
            "throughput_per_s": ref.units / wall_s,
            "setup_s": fast_end(setups),
            "peak_rss_mib": peak_rss_mib,
            "ok_frac": 1 - failed / attempted,
            "sim_gain": ref.sim_gain,
        }
    else:
        tracer = Tracer()
        tracer.install(gm)
        try:
            tp = wl.iterate(out, ref, pause=tracer.pause)
        finally:
            tracer.uninstall(gm)
        overhead = tp.wall_s / raw_wall_s
        if tp.digest != ref.digest:
            tp.failed = tp.attempted
            tp.errors.append("traced outputs differ from the untraced ones")
        passes.append(tp)
        out_bytes = sum(f.stat().st_size for f in out.iterdir())
        if spans_path is not None:
            tracer.write(spans_path)
        sweep = work / "sweep"
        groups_exp, g_runs, g_failed = suite.groups_exponent(gm, seed, sizes, work, sweep)
        buffers_exp, b_runs, b_failed = suite.buffers_exponent(gm, sizes, work, sweep)
        metrics = layer_metrics(tracer, tp.wall_s, overhead, out_bytes, groups_exp,
                                buffers_exp)
        attempted = sum(p.attempted for p in passes) + g_runs + b_runs
        failed = sum(p.failed for p in passes) + g_failed + b_failed

    errors = sorted({e for p in passes for e in p.errors})
    return {"correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics, "digest": ref.digest,
            "errors": errors, "pass_walls": [p.wall_s for p in passes],
            "raw_wall_s": raw_wall_s}


def main(argv=None, sizes: suite.Sizes = suite.FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "gpumux" / "__init__.py").is_file():
        print(f"no gpumux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = ROOT / ".bench_out"
    work = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.csv"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work,
                         sizes, spans_path if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = result["metrics"]
    if set(values) != {m["name"] for m in listed}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    info = {"workload": args.workload, "meta": run_metadata(args.seed),
            "digest": result["digest"], "pass_walls_s": result["pass_walls"],
            "raw_wall_s": result["raw_wall_s"]}
    if args.trace:
        info["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
