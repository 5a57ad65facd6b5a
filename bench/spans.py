"""Span tracer for the traced benchmark run.

It wraps public functions of ``gpumux`` at run time, from the benchmark's own
files; nothing under ``src/`` changes. Each wrapped call is a span with a
name, a start, an end and the span that called it. A span's self time is its
duration minus the time of the wrapped calls made inside it. Spans stay in
memory and are written once, at the end.

The hottest leaf calls (``translate`` and the wait conditions, millions per
pass) are aggregated instead of stored one by one; their time still comes
off their parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total_ns, self_ns]
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []   # (id, parent id, name, start_ns, end_ns)
        self.paused = False
        self._stack: list[list] = []   # per open span: [child_ns, span id]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, name: str, keep: bool = True, before=None, after=None):
        """Traced version of ``fn``. ``before(args)`` runs first and its
        value goes to ``after(args, result, token)`` when the call returns."""
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            token = before(args) if before is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep:
                    spans.append((span_id, parent, name, t0, t1))
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kwargs))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- gpumux instrumentation -----------------------------------------

    def install(self, gm):
        """Wrap each layer's public entry points.

        ``gpumux.cli`` binds the harness functions at import, so it is
        reloaded after they are wrapped, and again by ``uninstall``.
        """
        vm, eng, wl, h = gm.vm, gm.engine, gm.workloads, gm.harness
        c = self.counts

        def tlb_before(args):
            return len(args[1].tlb)

        def tlb_after(args, result, size):
            c["vm.tlb_hits"] += len(args[1].tlb) == size

        def writes_before(args):
            return args[0].copy_log.writes

        def writes_after(args, result, writes):
            c["vm.copy_writes"] += args[0].copy_log.writes - writes
            c["vm.nodes_live"] = max(c["vm.nodes_live"], len(args[0].nodes))

        def cond_after(args, result, token):
            c["engine.cond_hits"] += bool(result)

        def audit_after(args, result, token):
            c["audits.events"] += len(args[0].events)
            c["audits.windows"] += len(args[0].windows)

        for attr, fn in list(vars(vm.MemorySystem).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or inspect.isgeneratorfunction(fn):
                continue
            kw = {}
            if attr == "translate":
                kw = dict(keep=False, before=tlb_before, after=tlb_after)
            elif attr == "map_range":
                kw = dict(before=writes_before, after=writes_after)
            elif attr == "alloc_phys":
                kw = dict(keep=False)
            self.patch(vm.MemorySystem, attr, f"vm.{attr}", **kw)
        for attr in ("run", "submit", "bind", "unbind"):
            self.patch(eng.Engine, attr, f"engine.{attr}")
        for cls in (eng.SemaphoreAtLeast, eng.TimeReached):
            self.patch(cls, "satisfied", "engine.satisfied", keep=False, after=cond_after)
        for attr, fn in list(vars(wl.SimSession).items()):
            if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                self.patch(wl.SimSession, attr, f"workloads.{attr}")
        for attr in ("cmd_datagen", "cmd_rl", "cmd_graftbench", "cmd_trace",
                     "parse_config"):
            self.patch(h, attr, f"harness.{attr}")
        self.patch(h, "check_all", "audits.check_all", after=audit_after)
        importlib.reload(gm.cli)
        self.patch(gm.cli, "main", "harness.cli_main")

    def uninstall(self, gm):
        self.restore()
        importlib.reload(gm.cli)

    # -- results --------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_ns(self, *names) -> int:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_ns(self, *names) -> int:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def layer_self_ns(self, layer: str) -> int:
        return sum(s[2] for n, s in self.stats.items() if n.startswith(layer + "."))

    def write(self, path):
        """All kept spans as CSV, then one aggregate row per name."""
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            f.writelines(f"{i},{p},{n},{t0},{t1}\n" for i, p, n, t0, t1 in self.spans)
            f.write("\nname,calls,total_ns,self_ns\n")
            f.writelines(f"{n},{s[0]},{s[1]},{s[2]}\n" for n, s in sorted(self.stats.items()))
