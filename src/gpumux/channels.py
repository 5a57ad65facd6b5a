"""Submission-side structures: contexts, channels, streams.

A channel is the hardware submission primitive. Its submission state is one
``Ring``: the work entries, the free-running GET/PUT cursors and the doorbell
token that identifies the channel to the device. A channel also has its own
command-buffer pages, one per ring slot, in its context's memory. Streams
are the client-facing handles; a stream normally submits through its own
channel, but that channel's ring can be swapped whole for a forwarding
channel's (and the saved ring put back later), which is how compute work is
redirected into the graphics group. The command buffers are still written
into the stream's own channel's pages, in compute memory. A ring's token
names its channel, so which channel serves a stream, and which forwarding
channels are free, is read off the rings. Each context is one timeslice
group, whose id is the context's, so a channel's group is its
``context_id``. A context holds its ``AddressSpace`` (``Context.space``) and
its group's ``Channel`` objects (``Context.channels``), which the engine uses
without a lookup by id; a channel holds only its context's id, so the two
make no reference cycle.
"""

from __future__ import annotations

import enum

from .vm import AddressSpace, _SlotValue


class ChannelError(Exception):
    pass


class RingFull(ChannelError):
    pass


class PoolExhausted(ChannelError):
    pass


class AlreadyBound(ChannelError):
    pass


class NotBound(ChannelError):
    pass


class ContextKind(enum.Enum):
    COMPUTE = "compute"
    GRAPHICS = "graphics"


class ComputeConfig(_SlotValue):
    """Hardware state a channel needs before it can run compute kernels."""

    __slots__ = ("local_memory_bytes",)

    def __init__(self, local_memory_bytes: int = 64 * 1024):
        if local_memory_bytes < 0:
            raise ValueError("local_memory_bytes must be >= 0")
        self.local_memory_bytes = local_memory_bytes


class GpFifoEntry(_SlotValue):
    """One ring entry: a submitted buffer of commands, its sequence number and
    the submitting stream (None for a bootstrap). Nothing writes an entry after
    it is built."""

    __slots__ = ("length", "buffer", "seq", "stream_id")

    def __init__(self, length: int, buffer: tuple, seq: int, stream_id: int | None):
        self.length = length
        self.buffer = buffer
        self.seq = seq
        self.stream_id = stream_id


class Ring:
    """A channel's submission state: ``capacity`` entry slots, the free-running
    producer/consumer cursors shared with the device, and the doorbell token.
    Swapping a channel's ring swaps all of it at once."""

    __slots__ = ("capacity", "slots", "get", "put", "token")

    def __init__(self, capacity: int, token: int):
        self.capacity = capacity
        self.slots: list = [None] * capacity
        self.get = 0
        self.put = 0
        self.token = token


class Channel:
    def __init__(self, channel_id: int, context_id: int, ring: Ring, cmdbuf_base: int,
                 visible_to_app: bool):
        self.id = channel_id
        self.context_id = context_id   # also its timeslice group, fixed at creation
        self.ring = ring
        self.cmdbuf_base = cmdbuf_base
        self.visible_to_app = visible_to_app
        self.compute_config: ComputeConfig | None = None
        self.pending = False
        self.faulted = False
        # execution cursor: entry being worked through, and position inside it
        self.active_entry: GpFifoEntry | None = None
        self.active_index = 0


class Context:
    def __init__(self, context_id: int, kind: ContextKind, space: AddressSpace):
        self.id = context_id
        self.kind = kind
        self.space = space   # the context's own address space (its page table)
        self.channels: list[Channel] = []   # its group's channels, in creation order
        self.compute_state = ComputeConfig()


class StreamHandle:
    def __init__(self, stream_id: int, context_id: int, channel_id: int,
                 sync_vaddr: int):
        self.id = stream_id
        self.context_id = context_id
        self.channel_id = channel_id
        self.sync_vaddr = sync_vaddr      # semaphore region in the owning space
        self.next_semaphore_value = 0
        self.saved_snapshot: Ring | None = None   # the channel's own ring while bound

    @property
    def bound(self) -> bool:
        return self.saved_snapshot is not None

