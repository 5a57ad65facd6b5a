"""Stateful check of the engine's control plane.

A small device (rings of 2-4 entries, 3-4 queues per group) with one
graphics context and two compute contexts, each compute context in its own
VA window. Streams are created, submit kernels, draws and sleeps that touch
mapped, unmapped, freshly mapped and never mapped addresses, bind, unbind,
reset, grow or shrink their context's scratch size and run, with and without
an end time; touched buffers are unmapped. A call that raises must leave a
fingerprint of the engine unchanged, but for a ``bind`` or ``unbind`` whose
drain ran and then stopped at a fault: its run stays, and the stream, the
pool and the tables are as before. After every step:

- the free forwarding channels and the channels serving the bound streams
  are the provisioned ones, each once, and a free one is not faulted and
  holds no entry; a bound stream's saved ring holds no entry;
- every submitted buffer is completed, discarded by a reset, or still in a
  ring, and after a run to idle only a faulted channel holds one;
- each stream's semaphore holds the value of its last completed buffer (0
  before the first);
- the three audits pass on the whole trace after every run.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from gpumux.audits import check_all
from gpumux.channels import ChannelError, ContextKind, RingFull
from gpumux.commands import graphics_draw, kernel_dispatch, sleep
from gpumux.config import DeviceConfig
from gpumux.engine import Engine, EngineError
from gpumux.vm import SizeClass

TOKEN_BASE = 0x1000   # a ring's token less the id of the channel that owns it


class ControlPlane(RuleBasedStateMachine):
    @initialize(capacity=st.integers(2, 4), queues=st.integers(3, 4))
    def device(self, capacity, queues):
        self.e = e = Engine(DeviceConfig(ring_capacity=capacity, hw_max_queues=queues))
        self.graphics = e.create_context(ContextKind.GRAPHICS)
        self.contexts = [self.graphics] + [e.create_context(ContextKind.COMPUTE)
                                           for _ in range(2)]
        self.provisioned = e.provision_forwarding_pool(self.graphics, queues)
        self.mapped = [[] for _ in self.contexts]     # touchable buffers, per context
        self.unmapped = [[] for _ in self.contexts]   # buffers unmapped since
        self.value_of = {}      # seq -> semaphore value of each submitted buffer
        self.discarded = set()  # seqs a reset retired
        self.completed = set()
        self.last_value = {}    # stream id -> value of its last completed buffer
        self.seen = 0           # records already read into the two above
        for i in range(len(self.contexts)):
            self._map(i)
        for i in (1, 2, 1):
            self.create_stream(i)

    # ------------------------------------------------------------------
    # the fingerprint a raising call must leave unchanged

    def binding(self):
        """The stream, pool and table part of the fingerprint."""
        e, mem = self.e, self.e.memory
        return ([(s.bound, e.serving_channel(s).id, s.saved_snapshot) for s in e.streams],
                [ch.ring for ch in e.channels],
                [[ch.id for ch in e.forward_pool(c)] for c in self.contexts],
                [c.compute_state for c in self.contexts],
                [(mem.table_shape(s), list(s.subscribers)) for s in mem.spaces.values()],
                (mem.copy_log.reads, mem.copy_log.writes))

    def fingerprint(self):
        e = self.e
        channels = [(ch.ring.token, ch.ring.get, ch.ring.put, list(ch.ring.slots),
                     ch.compute_config, ch.pending, ch.faulted, ch.active_entry,
                     ch.active_index) for ch in e.channels]
        streams = [(s.next_semaphore_value, s.saved_snapshot and (s.saved_snapshot.get,
                                                                 s.saved_snapshot.put))
                   for s in e.streams]
        return (self.binding(), channels, streams, e.now, len(e.trace.records),
                len(e.trace.segments), dict(e.phys_mem))

    # ------------------------------------------------------------------
    # rules

    @precondition(lambda self: len(self.e.streams) < 6)
    @rule(i=st.integers(0, 2))
    def create_stream(self, i):
        self.e.create_stream(self.contexts[i])

    def _map(self, i):
        mem, space = self.e.memory, self.contexts[i].space
        va = mem.allocate(space, 1, SizeClass.SMALL)
        mem.map_range(space, va, mem.alloc_phys(SizeClass.SMALL))
        self.mapped[i].append(va)
        return va

    @precondition(lambda self: any(self.mapped))
    @rule(data=st.data())
    def unmap_buffer(self, data):
        i = data.draw(st.sampled_from([i for i, m in enumerate(self.mapped) if m]))
        va = self.mapped[i].pop(data.draw(st.integers(0, len(self.mapped[i]) - 1)))
        self.e.memory.unmap_range(self.contexts[i].space, va, 1)
        self.unmapped[i].append(va)

    @rule(data=st.data(), kind=st.sampled_from(["kernel", "draw", "sleep"]),
          touch=st.sampled_from(["none", "mapped", "unmapped", "fresh", "never"]),
          duration=st.sampled_from([0.05, 0.1, 0.25]))
    def submit(self, data, kind, touch, duration):
        stream = self.pick(data, lambda s: s.bound)
        i = stream.context_id
        if touch == "fresh":
            touched = (self._map(i),)
        elif touch == "never":   # the top page of the context's window
            touched = (self.contexts[i].space.limit - SizeClass.SMALL.nbytes,)
        else:
            vas = {"none": [], "mapped": self.mapped[i], "unmapped": self.unmapped[i]}[touch]
            touched = (data.draw(st.sampled_from(vas)),) if vas else ()
        command = (kernel_dispatch(duration, 0.5, touched) if kind == "kernel" else
                   graphics_draw(duration, 0.2, 0.5, touched) if kind == "draw" else
                   sleep(duration))
        before = self.fingerprint()
        try:
            seq = self.e.submit(stream, [command])
        except RingFull:
            assert self.fingerprint() == before
        else:
            self.value_of[seq] = stream.next_semaphore_value

    def pick(self, data, wanted):
        """A stream for which ``wanted`` holds half the time, if there is one;
        any stream otherwise."""
        good = [s for s in self.e.streams if wanted(s)]
        anyone = st.sampled_from(self.e.streams)
        return data.draw(st.sampled_from(good) | anyone if good else anyone)

    @rule(data=st.data(), into=st.sampled_from([0, 0, 0, 1]))
    def bind(self, data, into):
        stream = self.pick(data, lambda s: not s.bound and s.context_id != self.graphics.id)
        self.drained_call(lambda: self.e.bind(stream, self.contexts[into]))

    @rule(data=st.data())
    def unbind(self, data):
        stream = self.pick(data, lambda s: s.bound)
        self.drained_call(lambda: self.e.unbind(stream))

    def drained_call(self, call):
        """``bind`` or ``unbind``: a raising call changes nothing, unless its
        drain ran and stopped at a fault, which leaves the channel faulted
        and the stream, the pool and the tables as they were."""
        before, binding = self.fingerprint(), self.binding()
        n_records = len(self.e.trace.records)
        try:
            call()
        except EngineError as exc:
            if len(self.e.trace.records) == n_records:
                assert self.fingerprint() == before
            else:
                assert "faulted" in str(exc)
                assert self.binding() == binding
                check_all(self.e.trace)
        except (ValueError, ChannelError):
            assert self.fingerprint() == before

    @rule(data=st.data())
    def reset(self, data):
        stream = self.pick(data, lambda s: self.e.serving_channel(s).faulted)
        ch = self.e.serving_channel(stream)
        faulted, entry = ch.faulted, ch.active_entry
        before = self.fingerprint()
        try:
            self.e.reset(stream)
        except EngineError:
            assert not faulted and self.fingerprint() == before
        else:
            assert faulted
            if entry.stream_id is not None:
                self.discarded.add(entry.seq)

    @rule(i=st.integers(0, 2), nbytes=st.sampled_from([32 << 10, 64 << 10, 1 << 20, 4 << 20]))
    def set_local_memory(self, i, nbytes):
        before = self.fingerprint()
        try:
            self.e.set_local_memory(self.contexts[i], nbytes)
        except (ValueError, RingFull):
            assert self.fingerprint() == before

    @rule(for_s=st.none() | st.sampled_from([0.05, 0.15, 0.4]))
    def run(self, for_s):
        e = self.e
        if for_s is None:
            e.run()
            # only a faulted channel still holds work
            for ch in e.channels:
                assert ch.ring.get == ch.ring.put or e.channels[ch.ring.token - TOKEN_BASE].faulted
        else:
            end = e.clock + for_s
            e.run(until=lambda e: e.clock >= end)
        check_all(e.trace)

    # ------------------------------------------------------------------
    # invariants

    @invariant()
    def the_pool_and_the_bound_streams_share_out_the_provisioned_channels(self):
        e = self.e
        free = [ch.id for ch in e.forward_pool(self.graphics)]
        serving = [e.serving_channel(s).id for s in e.streams if s.bound]
        assert sorted(free + serving) == self.provisioned
        for ch in e.forward_pool(self.graphics):
            assert (ch.faulted, ch.pending, ch.active_entry) == (False, False, None)
            assert ch.ring.get == ch.ring.put
        for s in e.streams:
            if s.bound:
                assert s.saved_snapshot.get == s.saved_snapshot.put

    def read_records(self):
        """Take the completions logged since the last call into the model."""
        records = self.e.trace.records
        for _, kind, _, _, stream, extras in records[self.seen:]:
            if kind == "buffer_complete" and stream is not None:
                self.completed.add(extras[0])
                self.last_value[stream] = self.value_of[extras[0]]
        self.seen = len(records)

    @invariant()
    def every_buffer_is_completed_discarded_or_queued(self):
        e = self.e
        self.read_records()
        rings = {id(ch.ring): ch.ring for ch in e.channels}
        queued = [r.slots[i % r.capacity].seq for r in rings.values()
                  for i in range(r.get, r.put) if r.slots[i % r.capacity].stream_id is not None]
        assert len(queued) == len(set(queued))
        assert not (self.completed & self.discarded or self.completed & set(queued)
                    or self.discarded & set(queued))
        assert self.completed | self.discarded | set(queued) == self.value_of.keys()

    @invariant()
    def each_semaphore_holds_its_last_completed_value(self):
        self.read_records()
        for s in self.e.streams:
            assert self.e.stream_semaphore(s) == self.last_value.get(s.id, 0)


ControlPlane.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, derandomize=True, deadline=None,
    database=None)
TestControlPlane = ControlPlane.TestCase
