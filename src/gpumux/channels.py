"""Submission-side structures: contexts, channels, streams, snapshots.

A channel is the hardware submission primitive: a ring of work entries, a
control block with free-running GET/PUT cursors, and a doorbell token that
identifies the channel to the device. Channels belong to a timeslice group
fixed at creation. Streams are the client-facing handles; a stream normally
submits through its own channel, but its channel's ring/cursors/token fields
can be swapped for a forwarding channel's (and later restored from a saved
snapshot), which is how compute work is redirected into the graphics group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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


@dataclass(frozen=True)
class ComputeConfig:
    """Hardware state a channel needs before it can run compute kernels."""
    local_memory_bytes: int = 64 * 1024
    warp_sched_mode: str = "balanced"

    def __post_init__(self):
        if self.local_memory_bytes < 0:
            raise ValueError("local_memory_bytes must be >= 0")


class _SlotValue:
    """Base of the small values built on every submission: equality, hash and
    a dataclass-style repr over the fields named in the class's own
    ``__slots__``. Two values are equal when they are of the same class and
    their fields are equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class UserD:
    """Free-running producer/consumer cursors shared with the device."""

    __slots__ = ("get", "put")

    def __init__(self):
        self.get = 0
        self.put = 0


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
    __slots__ = ("capacity", "slots")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: list = [None] * capacity


class Channel:
    def __init__(self, channel_id: int, context_id: int, tsg_id: int, ring: Ring,
                 token: int, cmdbuf_base: int, visible_to_app: bool):
        self.id = channel_id
        self.context_id = context_id
        self.tsg_id = tsg_id  # fixed at creation
        self.ring = ring
        self.userd = UserD()
        self.token = token
        self.cmdbuf_base = cmdbuf_base
        self.visible_to_app = visible_to_app
        self.compute_config: ComputeConfig | None = None
        self.pending = False
        self.faulted = False
        # execution cursor: entry being worked through, and position inside it
        self.active_entry: GpFifoEntry | None = None
        self.active_index = 0


class Context:
    def __init__(self, context_id: int, kind: ContextKind, space_id: int, tsg_id: int):
        self.id = context_id
        self.kind = kind
        self.space_id = space_id
        self.tsg_id = tsg_id
        self.channels: list[int] = []
        self.fixed_function_ready = kind is ContextKind.GRAPHICS
        self.compute_state = ComputeConfig()
        self.forward_pool: list[int] = []   # free forwarding channels, ascending id
        self.bound_stream_ids: set[int] = set()


@dataclass
class Snapshot:
    """Pre-swap submission state of a stream's channel; restoring it must be exact."""
    ring: Ring
    userd: UserD
    token: int
    get: int
    put: int


class StreamHandle:
    def __init__(self, stream_id: int, context_id: int, channel_id: int,
                 sync_vaddr: int, cmdbuf_base: int):
        self.id = stream_id
        self.context_id = context_id
        self.channel_id = channel_id
        self.sync_vaddr = sync_vaddr      # semaphore region in the owning space
        self.cmdbuf_base = cmdbuf_base
        self.next_semaphore_value = 0
        self.saved_snapshot: Snapshot | None = None
        self.bound_channel_id: int | None = None

    @property
    def bound(self) -> bool:
        return self.saved_snapshot is not None


def take_snapshot(channel: Channel) -> Snapshot:
    return Snapshot(ring=channel.ring, userd=channel.userd, token=channel.token,
                    get=channel.userd.get, put=channel.userd.put)


def swap_submission_state(channel: Channel, forwarding: Channel):
    """Point the channel's submission fields at the forwarding channel's."""
    channel.ring = forwarding.ring
    channel.userd = forwarding.userd
    channel.token = forwarding.token


def restore_snapshot(channel: Channel, snapshot: Snapshot):
    channel.ring = snapshot.ring
    channel.userd = snapshot.userd
    channel.token = snapshot.token
