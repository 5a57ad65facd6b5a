"""Deterministic discrete-event execution core.

One Engine owns a simulated device: contexts with their page tables, channels
grouped into timeslice groups, a round-robin runlist, and a small physical
memory for semaphore values. Exactly one timeslice group is active at a time.
While a group is active, the head commands of all its pending channels run
concurrently under a two-resource model (compute and graphics): if the
combined demand of the running commands exceeds a resource's capacity, every
running command stretches by the same factor, recomputed at each event
boundary. Commands are never preempted mid-flight; when a group's quantum
expires, in-flight commands finish, trailing zero-duration commands of the
same buffer (semaphore writes) flush with them, and only then does the next
group take over. Suspended buffers resume in the group's next slice.

Time is whole nanoseconds (``Engine.now``); inputs and outputs stay in float
seconds, each rounded to the nearest tick once, where it enters the engine.
Under a stretch factor ``s >= 1`` a step lasts ``round(min_remaining * s)``
ticks and each running command's remaining work drops by ``round(step / s)``,
so the command that set the step reaches exactly zero.

Workload drivers are generator processes. They submit work, then yield wait
conditions (a stream semaphore threshold, or an absolute deadline) and are
resumed when the condition holds. A yielded condition is checked once, with
its ``satisfied``; after that, waiting drivers are not polled. A semaphore
waiter sits in a min-heap keyed by the physical location its semaphore
translates to, as a ``(threshold, pid)`` entry, and is looked at only after a
write to that location, by comparing the value there with its threshold; an
unmap or graft that may move a translation re-keys every waiter first. A
deadline sits in a timer heap keyed by its tick, whose top alone is compared
with the clock. Drivers resume in rounds, each in ascending pid order (see
``Engine._run_ready_processes``). A semaphore write translates its address
once, when it is checked, and writes through that translation.
Resumption order, completion ties, and channel launch order are all broken on
ids, so identical inputs produce byte-identical traces.

Each trace event is a record, a plain tuple ``(time, event, channel, tsg,
stream, extras)``: the time in float seconds, the event kind, the ids involved
(or None), and ``extras``, the values of the kind's ``EVENT_FIELDS`` in that
order. ``MetricsTrace.events`` rebuilds them as dicts with the keys in the same
order; ``harness.encode_events`` writes them as lines byte-identical to
``json.dumps(row, separators=(",", ":"))``. The utilization rows are
``utilization_bins`` of the run's segments, which need not be held at once.
``Engine.run`` calls an optional ``on_window(trace)`` after each window, when
every record and segment so far is final, so a caller can hand them on while
the run goes on; the trace still keeps them all.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Iterator
from heapq import heappop, heappush
from itertools import chain

from .channels import (AlreadyBound, Channel, ComputeConfig, Context,
                       ContextKind, GpFifoEntry, NotBound, PoolExhausted, Ring,
                       RingFull, StreamHandle, restore_snapshot,
                       swap_submission_state, take_snapshot)
from .commands import CommandKind, GpuCommand, init_compute, semaphore_write
from .config import TICKS_PER_S, DeviceConfig, ticks
from .vm import AllocPolicy, MemorySystem, PageFault, SizeClass, _SlotValue

# the command kinds the per-command path compares, read as module globals: on
# Python 3.11 a ``CommandKind.X`` read goes through the enum's class
# descriptor and costs about 15 times as much
_DISPATCH, _DRAW, _INIT, _SEM_WRITE = (CommandKind.KERNEL_DISPATCH, CommandKind.GRAPHICS_DRAW,
                                       CommandKind.INIT_COMPUTE, CommandKind.SEMAPHORE_WRITE)
_GRAPHICS = ContextKind.GRAPHICS   # likewise, for the draw and dispatch checks


class EngineError(Exception):
    pass


class Condition(_SlotValue):
    """What a waiting driver waits for. A condition is an immutable value:
    nothing writes one after it is built."""

    __slots__ = ()


class SemaphoreAtLeast(Condition):
    """The semaphore at ``vaddr`` in space ``space_id`` holds at least ``value``."""

    __slots__ = ("space_id", "vaddr", "value")

    def __init__(self, space_id: int, vaddr: int, value: int):
        self.space_id = space_id
        self.vaddr = vaddr
        self.value = value

    def satisfied(self, engine):
        return engine._read_semaphore(self.space_id, self.vaddr) >= self.value


class TimeReached(Condition):
    """The clock has reached ``time`` (float seconds)."""

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time

    def satisfied(self, engine):
        return engine.now >= ticks(self.time)


class _Process:
    __slots__ = ("pid", "gen", "condition", "done")

    def __init__(self, pid, gen):
        self.pid = pid
        self.gen = gen
        self.condition: Condition | None = None
        self.done = False


# The extra fields of each event kind, in the order they are logged and written.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "submit": ("seq", "micro_ops"),
    "bootstrap": ("local_memory_bytes",),
    "doorbell": ("token",),
    "bind": ("forwarding",),
    "unbind": ("forwarding",),
    "inference": ("start", "finish"),
    "exec_start": ("kind", "seq"),
    "exec_end": ("kind", "seq"),
    "buffer_complete": ("seq",),
    "fault": ("kind", "vaddr", "detail"),
    "semaphore": ("value", "vaddr"),
}


def utilization_bins(segments: Iterable[tuple], sample_dt: float) -> Iterator[tuple]:
    """Fixed-interval averages of exact utilization segments, one
    ``(time, compute_util, graphics_util, tsg)`` row per ``sample_dt`` bin.

    ``segments`` are a run's ``MetricsTrace.segments`` in order, followed by
    its ``closing_segment``, which closes every bin. A bin is the sum of
    ``util * overlap / width`` over the segments that overlap it, in segment
    order. The rows are yielded segment by segment: a bin is final, and
    yielded, once the next segment starts past it, so neither the segments
    nor the rows need be held at once. Segments do not overlap, so a bin
    that lies wholly inside a segment gets only that segment's values: those
    rows share the segment's value objects (which lets the writer format them
    once). At most two partial bins per segment are summed.
    """
    width = ticks(sample_dt)
    i, c, g, k = 0, 0.0, 0.0, None   # the open bin and its sums; bins before i are out
    for t0, t1, cu, gu, tsg in segments:
        lo, hi = -(-t0 // width), t1 // width   # bins lo .. hi-1 lie wholly inside
        # a whole bin holds what 0.0 + cu * 1.0 gives: cu itself, but -0.0 becomes 0.0
        whole_c, whole_g = cu or 0.0, gu or 0.0
        # the part in t0's bin (all of the segment if t1 is in that bin
        # too), then the part in bin hi
        for j, a, b in ((lo - 1, t0, min(lo * width, t1)),
                        (hi, max(lo, hi) * width, t1)):
            while i < j:   # every bin before j is final
                if i < lo:
                    yield i * width / TICKS_PER_S, c, g, k
                    c, g, k = 0.0, 0.0, None
                else:
                    yield i * width / TICKS_PER_S, whole_c, whole_g, tsg
                i += 1
            if a < b:
                frac = (b - a) / width
                c += cu * frac
                g += gu * frac
                if tsg is not None and k is None:
                    k = tsg


class MetricsTrace:
    """Everything one run produced: events (faults among them), utilization,
    windows."""

    def __init__(self):
        self.records: list[tuple] = []    # (time, event, channel, tsg, stream, extras)
        self.segments: list[tuple] = []   # (t0, t1 in ticks, compute_util, graphics_util, tsg)
        self.windows: list[tuple] = []    # (tsg, t0, t1)
        self.makespan = 0.0
        self.stalled: list[int] = []

    def compute_busy(self) -> float:
        return sum((t1 - t0) * cu for t0, t1, cu, _, _ in self.segments) / TICKS_PER_S

    def mean_compute_util(self) -> float:
        return self.compute_busy() / self.makespan if self.makespan > 0 else 0.0

    def closing_segment(self, sample_dt: float) -> tuple:
        """The empty segment at the end of the last ``sample_dt`` bin of the
        run, which ends the segments that ``utilization_bins`` takes."""
        width = ticks(sample_dt)
        end = -(-ticks(self.makespan) // width) * width
        return (end, end, 0.0, 0.0, None)

    def utilization_samples(self, sample_dt: float) -> Iterator[tuple]:
        """``utilization_bins`` of this run's segments."""
        return utilization_bins(chain(self.segments, [self.closing_segment(sample_dt)]),
                                sample_dt)

    @property
    def events(self) -> list[dict]:
        """The records as dicts: ``time``, ``event``, ``channel``, ``tsg``,
        ``stream``, then the kind's ``EVENT_FIELDS``. Built on each access."""
        return [{"time": t, "event": kind, "channel": ch, "tsg": tsg, "stream": stream,
                 **dict(zip(EVENT_FIELDS[kind], extras))}
                for t, kind, ch, tsg, stream, extras in self.records]

    def exec_intervals(self, stream_id: int | None = None,
                       kind: str | None = None) -> list[tuple]:
        """(start, end, tsg, channel) per executed timed command, paired from events."""
        open_by_channel: dict[int, dict] = {}
        out = []
        for ev in self.events:
            if ev["event"] == "exec_start":
                open_by_channel[ev["channel"]] = ev
            elif ev["event"] == "exec_end":
                start = open_by_channel.pop(ev["channel"])
                if stream_id is not None and start.get("stream") != stream_id:
                    continue
                if kind is not None and start.get("kind") != kind:
                    continue
                out.append((start["time"], ev["time"], ev["tsg"], ev["channel"]))
        return out


class _Inflight:
    __slots__ = ("remaining", "cmd")

    def __init__(self, remaining, cmd):
        self.remaining = remaining
        self.cmd = cmd


class Engine:
    """A whole simulated device plus its deterministic event loop."""

    def __init__(self, config: DeviceConfig | None = None):
        self.config = config or DeviceConfig()
        # nothing writes a DeviceConfig, so its times convert to ticks once
        self._quantum = ticks(self.config.quantum)
        self._switch_penalty = ticks(self.config.context_switch_penalty)
        self.memory = MemorySystem(self.config.geometry)
        self.now = 0   # ticks
        # registries indexed by id: ids are dense, taken as len() at creation
        # and never reused; a timeslice group is the list of its channel ids
        self.contexts: list[Context] = []
        self.channels: list[Channel] = []
        self.streams: list[StreamHandle] = []
        self.tsgs: list[list[int]] = []
        self.trace = MetricsTrace()
        self.phys_mem: dict[tuple[int, int], int] = {}
        self.processes: list[_Process] = []
        # wake-up structures; every live process is in exactly one of them,
        # but for a driver whose semaphore faulted, which is in none
        self._ready: list[int] = []      # pids to resume in the next round
        self._yielded: list[int] = []    # pids whose new condition is unchecked
        self._sem_waiters: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._dirty: set[tuple[int, int]] = set()   # written since last checked
        self._timers: list[tuple[int, int]] = []   # (deadline tick, pid)
        self._waiters_resolved_at = self.memory.total_tlb_invalidations
        self._token_owner: dict[int, int] = {}
        self._last_tsg = -1   # the group of the last window; round robin starts after it
        self._infer_busy_until = 0
        self._running = False
        self._seq = 0

    @property
    def clock(self) -> float:
        """Simulated seconds."""
        return self.now / TICKS_PER_S

    # ------------------------------------------------------------------
    # event log

    def _log(self, event: str, channel: int | None, tsg: int | None,
             stream: int | None, *extras):
        """Record one event; ``extras`` follow ``EVENT_FIELDS[event]``."""
        self.trace.records.append((self.now / TICKS_PER_S, event, channel, tsg, stream,
                                   extras))

    # ------------------------------------------------------------------
    # construction

    def create_context(self, kind: ContextKind) -> Context:
        """New context with a fresh timeslice group, table, and default channel."""
        mem = self.memory
        if kind is ContextKind.COMPUTE:
            space = mem.create_space(AllocPolicy.HIGH_RANGE, base=self.config.high_base)
        else:
            space = mem.create_space(AllocPolicy.LOW_RANGE, base=self.config.low_base,
                                     limit=self.config.high_base)
        ctx = Context(len(self.contexts), kind, space.id, len(self.tsgs))
        self.tsgs.append([])
        self.contexts.append(ctx)
        # small always-present footprint standing in for runtime-internal state
        va = mem.allocate(space, 1, SizeClass.SMALL)
        mem.map_range(space, va, mem.alloc_phys(SizeClass.SMALL))
        channel = self._create_channel(ctx, visible_to_app=True)
        if kind is ContextKind.COMPUTE:
            # natively provisioned compute channels come pre-configured
            channel.compute_config = ctx.compute_state
        return ctx

    def _create_channel(self, ctx: Context, visible_to_app: bool) -> Channel:
        mem = self.memory
        space = mem.spaces[ctx.space_id]
        cap = self.config.ring_capacity
        cmdbuf_base = mem.allocate(space, cap, SizeClass.SMALL)
        mem.map_range(space, cmdbuf_base, mem.alloc_phys(SizeClass.SMALL, cap))
        channel_id = len(self.channels)
        token = 0x1000 + channel_id
        channel = Channel(channel_id, ctx.id, ctx.tsg_id, Ring(cap), token,
                          cmdbuf_base, visible_to_app)
        self.channels.append(channel)
        ctx.channels.append(channel_id)
        self.tsgs[ctx.tsg_id].append(channel_id)
        self._token_owner[token] = channel_id
        return channel

    def create_stream(self, ctx: Context) -> StreamHandle:
        """Client work queue. Compute streams get their own channel; graphics
        streams share the context's single app-visible channel."""
        mem = self.memory
        space = mem.spaces[ctx.space_id]
        if ctx.kind is ContextKind.COMPUTE:
            channel = self._create_channel(ctx, visible_to_app=True)
        else:
            channel = self.channels[ctx.channels[0]]
        sync_vaddr = mem.allocate(space, 1, SizeClass.SMALL)
        mem.map_range(space, sync_vaddr, mem.alloc_phys(SizeClass.SMALL))
        cap = self.config.ring_capacity
        cmdbuf_base = mem.allocate(space, cap, SizeClass.SMALL)
        mem.map_range(space, cmdbuf_base, mem.alloc_phys(SizeClass.SMALL, cap))
        stream = StreamHandle(len(self.streams), ctx.id, channel.id, sync_vaddr,
                              cmdbuf_base)
        self.streams.append(stream)
        return stream

    def provision_forwarding_pool(self, graphics_ctx: Context, requested: int) -> list[int]:
        """Create up to hw_max_queues-1 app-invisible channels in the graphics group."""
        if graphics_ctx.kind is not ContextKind.GRAPHICS:
            raise ValueError("forwarding channels live in a graphics context")
        room = max(0, self.config.hw_max_queues - len(graphics_ctx.channels))
        ids = []
        for _ in range(min(requested, room)):
            ch = self._create_channel(graphics_ctx, visible_to_app=False)
            ids.append(ch.id)
        graphics_ctx.forward_pool.extend(ids)
        return ids

    # ------------------------------------------------------------------
    # submission path

    def submit(self, stream: StreamHandle, commands: list[GpuCommand]):
        """Append the commands plus a trailing semaphore write to the stream's
        ring, in the same micro-ops whether or not the stream is redirected.
        A failed submit (RingFull, PageFault) changes nothing."""
        value = stream.next_semaphore_value + 1
        buf = tuple(commands) + (semaphore_write(stream.sync_vaddr, value),)
        seq, owner, micro_ops = self._append(
            self.channels[stream.channel_id], self.contexts[stream.context_id],
            stream.cmdbuf_base, buf, stream.id)
        stream.next_semaphore_value = value
        self._log("submit", owner.id, owner.tsg_id, stream.id, seq, micro_ops)
        return seq

    def bootstrap(self, channel: Channel, config: ComputeConfig):
        """Queue compute-state initialization through the channel's own ring."""
        ctx = self.contexts[channel.context_id]
        if ctx.kind is not ContextKind.GRAPHICS:
            raise ValueError("bootstrap targets channels in the graphics group")
        self._append(channel, ctx, channel.cmdbuf_base, (init_compute(config),), None)
        self._log("bootstrap", channel.id, channel.tsg_id, None,
                  config.local_memory_bytes)

    def _check_room(self, ch: Channel):
        if ch.userd.put - ch.userd.get >= ch.ring.capacity:
            raise RingFull(f"channel {ch.id} ring is full")

    def _append(self, ch: Channel, ctx: Context, cmdbuf_base: int, buf: tuple,
                stream_id: int | None) -> tuple[int, Channel, int]:
        """Four micro-ops: write the command buffer into ``ctx`` memory at
        ``cmdbuf_base``, append a ring entry, advance PUT, ring the doorbell
        with the channel's current token. Raises before the first write.

        Returns the sequence number, the channel that owns the token, and
        the number of micro-ops."""
        self._check_room(ch)
        put = ch.userd.put
        slot = put % ch.ring.capacity
        # 1: command buffer written
        self.memory.translate(self.memory.spaces[ctx.space_id],
                              cmdbuf_base + slot * SizeClass.SMALL.nbytes)
        micro_ops = 1
        # 2: ring entry appended
        self._seq += 1
        seq = self._seq
        ch.ring.slots[slot] = GpFifoEntry(len(buf), buf, seq, stream_id)
        micro_ops += 1
        # 3: PUT advanced
        ch.userd.put = put + 1
        micro_ops += 1
        # 4: doorbell rung
        owner = self.channels[self._token_owner[ch.token]]
        owner.pending = True
        self._log("doorbell", owner.id, owner.tsg_id, stream_id, ch.token)
        micro_ops += 1
        return seq, owner, micro_ops

    def set_local_memory(self, ctx: Context, nbytes: int):
        """Grow the context's scratch size; growth is re-pushed to every
        forwarding channel currently serving one of the context's streams.
        Raises RingFull before any change if one of those rings is full."""
        if ctx.kind is not ContextKind.COMPUTE:
            raise ValueError("only compute contexts carry a scratch pool")
        fwds = []
        if nbytes > ctx.compute_state.local_memory_bytes:
            fwds = [self.channels[self.streams[sid].bound_channel_id]
                    for sid in sorted(ctx.bound_stream_ids)]
        for fwd in fwds:
            self._check_room(fwd)
        ctx.compute_state = ComputeConfig(nbytes)
        for fwd in fwds:
            self.bootstrap(fwd, ctx.compute_state)

    # ------------------------------------------------------------------
    # stream redirection

    def bind(self, stream: StreamHandle, graphics_ctx: Context):
        """Snapshot-and-swap the stream onto a forwarding channel.

        Drains the stream, makes sure the context pair's tables are grafted,
        bootstraps the forwarding channel if it has never run compute, then
        swaps ring/cursors/token. Control-plane call: not valid from inside a
        running driver process. If the stream's channel is faulted (checked
        before the drain too), it still holds the stream's work: EngineError
        before the graft, and the stream stays unbound.
        """
        if self._running:
            raise EngineError("bind is a control-plane call, not valid mid-run")
        if stream.bound:
            raise AlreadyBound(f"stream {stream.id} is already bound")
        ctx = self.contexts[stream.context_id]
        if ctx.kind is not ContextKind.COMPUTE:
            raise ValueError("only compute streams bind")
        if graphics_ctx.kind is not ContextKind.GRAPHICS:
            raise ValueError("streams bind to graphics contexts")
        if not graphics_ctx.forward_pool:
            raise PoolExhausted("no forwarding channels available")
        ch = self.channels[stream.channel_id]
        if ch.faulted or not self._drain_stream(stream):
            raise EngineError(f"channel {ch.id} faulted with stream {stream.id}'s work; "
                              "reset it and run before bind")
        src = self.memory.spaces[ctx.space_id]
        if graphics_ctx.space_id not in src.subscribers:
            self.memory.graft(src, self.memory.spaces[graphics_ctx.space_id])
        fwd = self.channels[graphics_ctx.forward_pool.pop(0)]
        if fwd.compute_config is None:
            self.bootstrap(fwd, ctx.compute_state)
        stream.saved_snapshot = take_snapshot(ch)
        swap_submission_state(ch, fwd)
        stream.bound_channel_id = fwd.id
        ctx.bound_stream_ids.add(stream.id)
        self._log("bind", ch.id, graphics_ctx.tsg_id, stream.id, fwd.id)

    def unbind(self, stream: StreamHandle):
        """Drain, restore the saved snapshot, and return the forwarding channel.
        If the channel is faulted (checked before the drain too), it still holds
        the stream's work: EngineError, and the stream stays bound."""
        if self._running:
            raise EngineError("unbind is a control-plane call, not valid mid-run")
        if not stream.bound:
            raise NotBound(f"stream {stream.id} is not bound")
        fwd = self.channels[stream.bound_channel_id]
        if fwd.faulted or not self._drain_stream(stream):
            raise EngineError(f"forwarding channel {fwd.id} faulted with stream "
                              f"{stream.id}'s work; reset it and run before unbind")
        ch = self.channels[stream.channel_id]
        restore_snapshot(ch, stream.saved_snapshot)
        ctx = self.contexts[stream.context_id]
        insort(self.contexts[fwd.context_id].forward_pool, fwd.id)
        stream.saved_snapshot = None
        stream.bound_channel_id = None
        ctx.bound_stream_ids.discard(stream.id)
        self._log("unbind", ch.id, ctx.tsg_id, stream.id, fwd.id)

    def _drain_stream(self, stream: StreamHandle) -> bool:
        """Run until the stream's semaphore holds its last buffer's value;
        returns whether it does (not if the stream's channel faulted)."""
        target = stream.next_semaphore_value
        if target and self.stream_semaphore(stream) < target:
            self.run(until=lambda e: e.stream_semaphore(stream) >= target)
            return self.stream_semaphore(stream) >= target
        return True

    # ------------------------------------------------------------------
    # semaphores and processes

    def _read_semaphore(self, space_id: int, vaddr: int) -> int:
        page, off = self.memory.translate(self.memory.spaces[space_id], vaddr)
        return self.phys_mem.get((page.id, off), 0)

    def stream_semaphore(self, stream: StreamHandle) -> int:
        ctx = self.contexts[stream.context_id]
        return self._read_semaphore(ctx.space_id, stream.sync_vaddr)

    def stream_condition(self, stream: StreamHandle, value: int) -> SemaphoreAtLeast:
        ctx = self.contexts[stream.context_id]
        return SemaphoreAtLeast(ctx.space_id, stream.sync_vaddr, value)

    def request_inference(self, latency: float) -> TimeReached:
        """One shared off-device inference queue: requests serialize FIFO."""
        start = max(self.now, self._infer_busy_until)
        finish = start + ticks(latency)
        self._infer_busy_until = finish
        self._log("inference", None, None, None, start / TICKS_PER_S,
                  finish / TICKS_PER_S)
        return TimeReached(finish / TICKS_PER_S)

    def spawn(self, gen) -> _Process:
        proc = _Process(len(self.processes), gen)
        self.processes.append(proc)
        # the newest pid is the largest, so a process spawned by a running
        # driver still takes its turn at the end of the current round
        self._ready.append(proc.pid)
        return proc

    def _run_ready_processes(self) -> bool:
        """Resume every driver whose condition holds, in rounds, until none does.

        A round resumes the ready pids in ascending order. A resumed driver's
        next condition is checked at the start of the following round, and
        joins it if it already holds. Drivers only submit work and request
        inference, so no semaphore value or clock reading changes during this
        call; the rounds are therefore exactly the passes of re-checking every
        process in pid order until a pass resumes nothing. ``_collect_ready``
        runs only when one of the things that can make a condition hold has
        happened: a dirty location, a yielded driver, a due timer or a moved
        translation.

        Returns whether any driver was resumed.
        """
        ran_any = False
        ready = self._ready
        timers = self._timers
        mem = self.memory
        while True:
            if (self._dirty or self._yielded or timers and timers[0][0] <= self.now
                    or mem.total_tlb_invalidations != self._waiters_resolved_at):
                self._collect_ready()
            if not ready:
                return ran_any
            ready.sort()
            for pid in ready:  # spawn() may append during the round
                self._resume(self.processes[pid])
            ready.clear()
            ran_any = True

    def _resume(self, proc: _Process):
        try:
            proc.condition = next(proc.gen)
        except StopIteration:
            proc.done = True
            return
        cond = proc.condition
        # exactly these two types: the wake path compares a waiter's stored
        # threshold or deadline and never asks a subclass's ``satisfied``
        if cond is not None and type(cond) not in (SemaphoreAtLeast, TimeReached):
            raise TypeError("drivers must yield SemaphoreAtLeast or TimeReached conditions")
        self._yielded.append(proc.pid)

    def _collect_ready(self):
        """Move the processes whose condition now holds into the ready list.

        Only three things can make a condition hold: a semaphore write (its
        location is dirty), the clock moving (timers), or a driver's new
        condition. A moved translation re-keys the semaphore waiters first,
        so every waiter's key is the location its semaphore translates to
        now, and the waiters of a dirty location are woken by comparing the
        value stored there with the threshold in their heap entries, with no
        translation. A driver's new condition is checked with ``satisfied``,
        once per yield. A semaphore that does not translate, at the yield or
        at a re-key, logs a ``fault`` and leaves its driver in no wake-up
        structure: it stays stalled, also after a later map.
        """
        ready = self._ready
        if self.memory.total_tlb_invalidations != self._waiters_resolved_at:
            self._resolve_waiters()
        phys_mem = self.phys_mem
        for loc in self._dirty:
            heap = self._sem_waiters.get(loc)
            if heap:
                value = phys_mem.get(loc, 0)
                while heap and heap[0][0] <= value:
                    ready.append(heappop(heap)[1])
        self._dirty.clear()
        timers = self._timers
        while timers and timers[0][0] <= self.now:
            ready.append(heappop(timers)[1])
        # entries pushed below do not hold now: the dirty-only check above
        # stays exact, and every deadline left in the heap is in the future
        procs = self.processes
        while self._yielded:
            pid = self._yielded.pop()
            cond = procs[pid].condition
            try:
                if cond is None or cond.satisfied(self):
                    ready.append(pid)
                elif type(cond) is TimeReached:
                    heappush(timers, (ticks(cond.time), pid))
                else:
                    self._wait_semaphore(self._sem_waiters, pid)
            except PageFault as pf:
                self._semaphore_fault(pf)

    def _wait_semaphore(self, index: dict, pid: int):
        """Key the waiting process ``pid`` in ``index`` by the location its
        semaphore translates to now, in a min-heap of ``(threshold, pid)``
        entries; ``_collect_ready`` compares that threshold with the location's
        value after each write to it."""
        cond = self.processes[pid].condition
        page, off = self.memory.translate(self.memory.spaces[cond.space_id], cond.vaddr)
        heappush(index.setdefault((page.id, off), []), (cond.value, pid))

    def _semaphore_fault(self, pf: PageFault):
        """Log a waiting driver's semaphore that does not translate."""
        self._log("fault", None, None, None, "page_fault", pf.vaddr,
                  f"semaphore wait: walk stopped at level {pf.level}")

    def _resolve_waiters(self):
        """Re-key every semaphore waiter after an unmap or graft may have moved
        a translation, and re-check each location. A waiter whose semaphore
        no longer translates is dropped (see ``_collect_ready``)."""
        index: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for heap in self._sem_waiters.values():
            for _, pid in heap:
                try:
                    self._wait_semaphore(index, pid)
                except PageFault as pf:
                    self._semaphore_fault(pf)
        self._sem_waiters = index
        self._dirty.update(index)
        self._waiters_resolved_at = self.memory.total_tlb_invalidations

    # ------------------------------------------------------------------
    # scheduling

    def _tsg_runnable(self, tsg_id: int) -> bool:
        channels = self.channels
        for cid in self.tsgs[tsg_id]:
            ch = channels[cid]
            if ch.pending and not ch.faulted:
                return True
        return False

    def _next_runnable_tsg(self) -> int | None:
        n = len(self.tsgs)
        for step in range(1, n + 1):
            tsg_id = (self._last_tsg + step) % n
            if self._tsg_runnable(tsg_id):
                return tsg_id
        return None

    def run(self, until=None, on_window=None) -> MetricsTrace:
        """Process events until idle (or `until(engine)` turns true).

        ``on_window(trace)``, if given, is called after each window: the
        records and segments added so far are final, so a caller can hand
        them on while the run goes on. The trace keeps them all."""
        if self._running:
            raise EngineError("run is not reentrant")
        self._running = True
        try:
            # every window and timer jump ends with the ready drivers drained,
            # so a window that finds no group runnable leaves only the timers
            self._run_ready_processes()
            while until is None or not until(self):
                if self._run_window():
                    if on_window is not None:
                        on_window(self.trace)
                    continue
                if not self._timers:
                    break
                self.trace.segments.append((self.now, self._timers[0][0], 0.0, 0.0, None))
                self.now = self._timers[0][0]
                self._run_ready_processes()
        finally:
            self._running = False
        self.trace.makespan = self.clock
        self.trace.stalled = sorted(p.pid for p in self.processes if not p.done)
        return self.trace

    def _run_window(self) -> bool:
        tsg = self._next_runnable_tsg()
        if tsg is None:
            return False
        penalty = self._switch_penalty
        if penalty and self._last_tsg not in (-1, tsg):
            t = self.now + penalty
            self.trace.segments.append((self.now, t, 0.0, 0.0, None))
            self.now = t
        self._last_tsg = tsg
        start = self.clock
        expiry = self.now + self._quantum
        inflight: dict[int, _Inflight] = {}
        while True:
            if self.now < expiry:
                self._launch_ready(tsg, inflight)
            if not inflight:
                break
            flights = inflight.values()
            # plain + in flight order, as sum() adds on 3.11 (3.12's compensates)
            compute = graphics = 0
            least = None
            for f in flights:
                cmd = f.cmd
                compute += cmd.compute_frac
                graphics += cmd.graphics_frac
                if least is None or f.remaining < least:
                    least = f.remaining
            stretch = max(compute / self.config.compute_capacity,
                          graphics / self.config.graphics_capacity, 1.0)
            t_next = self.now + round(least * stretch)
            timer_cut = self._timers and self._timers[0][0] < t_next
            if timer_cut:
                t_next = self._timers[0][0]
            dt = t_next - self.now
            if dt > 0:  # 0 after a timer cut that rounded a flight down to 0
                cu = compute / stretch / self.config.compute_capacity
                gu = graphics / stretch / self.config.graphics_capacity
                self.trace.segments.append((self.now, t_next, cu, gu, tsg))
                progress = round(dt / stretch)
                for f in flights:
                    f.remaining -= progress
            self.now = t_next
            if not timer_cut:
                done_ids = [cid for cid, f in inflight.items() if f.remaining <= 0]
                done_ids.sort()
                for cid in done_ids:
                    flight = inflight.pop(cid)
                    self._finish_command(self.channels[cid], flight.cmd)
            self._run_ready_processes()
        self.trace.windows.append((tsg, start, self.clock))
        return True

    def _launch_ready(self, tsg: int, inflight: dict):
        """Start head commands on every pending channel of the active group.
        Loops because zero-duration completions can wake drivers that submit
        more work eligible to start at the same instant."""
        while True:
            progressed = False
            for cid in self.tsgs[tsg]:
                ch = self.channels[cid]
                if ch.faulted or cid in inflight or not ch.pending:
                    continue
                cmd = self._next_timed_command(ch)
                if cmd is None:
                    continue
                inflight[cid] = _Inflight(ticks(cmd.base_duration), cmd)
                self._log("exec_start", ch.id, tsg, ch.active_entry.stream_id,
                          cmd.kind._value_, ch.active_entry.seq)
                progressed = True
            if self._run_ready_processes():
                progressed = True
            if not progressed:
                return

    def _next_timed_command(self, ch: Channel) -> GpuCommand | None:
        """Advance the channel to its next timed command, executing
        zero-duration commands inline. Returns None when the channel has
        nothing runnable (drained, or just faulted)."""
        while True:
            if ch.active_entry is None:
                if ch.userd.get >= ch.userd.put:
                    ch.pending = False
                    return None
                ch.active_entry = ch.ring.slots[ch.userd.get % ch.ring.capacity]
                ch.active_index = 0
            if not self._flush_zero_duration(ch):
                return None
            if ch.active_entry is not None:
                cmd = ch.active_entry.buffer[ch.active_index]
                return cmd if self._start_command(ch, cmd) else None

    def _finish_command(self, ch: Channel, cmd: GpuCommand):
        entry = ch.active_entry
        # _value_ is what Enum.value returns, without its two Python calls
        self._log("exec_end", ch.id, ch.tsg_id, entry.stream_id, cmd.kind._value_,
                  entry.seq)
        ch.active_index += 1
        # trailing zero-duration commands (semaphore writes) flush with the
        # completing command even if the slice has already expired
        self._flush_zero_duration(ch)

    def _flush_zero_duration(self, ch: Channel) -> bool:
        """Execute the zero-duration commands at the channel's cursor, up to
        the next timed command, and finish the buffer if they end it.
        Returns False when one of them faulted."""
        entry = ch.active_entry
        while ch.active_index < len(entry.buffer):
            cmd = entry.buffer[ch.active_index]
            if cmd.base_duration > 0:
                return True
            where = self._start_command(ch, cmd)
            if not where:
                return False
            self._apply_effects(ch, cmd, where)
            ch.active_index += 1
        ch.userd.get += 1
        ch.active_entry = None
        ch.active_index = 0
        ch.pending = ch.userd.get < ch.userd.put
        self._log("buffer_complete", ch.id, ch.tsg_id, entry.stream_id, entry.seq)
        return True

    def _start_command(self, ch: Channel, cmd: GpuCommand) -> tuple | bool:
        """Check that the command can run on the channel. If it cannot, record
        the fault, halt the channel and return False. Otherwise return the
        translation ``(page, offset)`` of the last address it checked (for a
        semaphore write, its semaphore), or True if it touches none."""
        ctx = self.contexts[ch.context_id]
        kind = cmd.kind
        if kind is _DISPATCH:
            if ch.compute_config is None and ctx.kind is _GRAPHICS:
                return self._record_fault(ch, "execution_fault",
                                          "kernel dispatch on a channel without compute state")
        elif kind is _DRAW:
            if ctx.kind is not _GRAPHICS:
                return self._record_fault(ch, "execution_fault",
                                          "draw without fixed-function hardware state")
        space = self.memory.spaces[ctx.space_id]
        vaddrs = cmd.touched_vaddrs
        if kind is _SEM_WRITE:
            vaddrs += (cmd.sem_vaddr,)
        where = True
        for va in vaddrs:
            try:
                where = self.memory.translate(space, va)
            except PageFault as pf:
                return self._record_fault(ch, "page_fault",
                                          f"walk stopped at level {pf.level}", pf.vaddr)
        return where

    def _record_fault(self, ch: Channel, kind: str, detail: str,
                      vaddr: int | None = None) -> bool:
        """Halt the channel on a fault; returns False for ``_start_command``."""
        ch.faulted = True
        self._log("fault", ch.id, ch.tsg_id, ch.active_entry.stream_id, kind, vaddr,
                  detail)
        return False

    def _apply_effects(self, ch: Channel, cmd: GpuCommand, where):
        """Run a zero-duration command's effect; ``where`` is what
        ``_start_command`` returned for it."""
        kind = cmd.kind
        if kind is _SEM_WRITE:
            page, off = where
            loc = (page.id, off)
            self.phys_mem[loc] = cmd.sem_value
            self._dirty.add(loc)
            self._log("semaphore", ch.id, ch.tsg_id, ch.active_entry.stream_id,
                      cmd.sem_value, cmd.sem_vaddr)
        elif kind is _INIT:
            ch.compute_config = cmd.config

    def reset_channel(self, ch: Channel):
        """Clear a fault, discard the faulting buffer, resume at the next entry."""
        ch.faulted = False
        if ch.active_entry is not None:
            ch.userd.get += 1
            ch.active_entry = None
            ch.active_index = 0
        ch.pending = ch.userd.get < ch.userd.put

