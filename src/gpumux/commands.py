"""Simulated GPU commands: units of work with resource demands and durations.

Commands are immutable values; a buffer may share them with other buffers."""

from __future__ import annotations

import enum
import math

from .channels import ComputeConfig
from .vm import _SlotValue


class CommandKind(enum.Enum):
    KERNEL_DISPATCH = "kernel_dispatch"
    GRAPHICS_DRAW = "graphics_draw"
    INIT_COMPUTE = "init_compute"
    SEMAPHORE_WRITE = "semaphore_write"
    SLEEP = "sleep"


class GpuCommand(_SlotValue):
    """One command: its kind, duration, resource demand, the addresses it
    touches and, for a semaphore write or a compute bootstrap, its payload.

    A command is an immutable value: nothing writes one after it is built, so
    the same object may sit in any number of submitted buffers (a session
    submits the same step and render commands on every step). Equal fields
    give equal commands with equal hashes."""

    __slots__ = ("kind", "base_duration", "compute_frac", "graphics_frac",
                 "touched_vaddrs", "sem_vaddr", "sem_value", "config")

    def __init__(self, kind: CommandKind, base_duration: float = 0.0,
                 compute_frac: float = 0.0, graphics_frac: float = 0.0,
                 touched_vaddrs: tuple[int, ...] = (), sem_vaddr: int | None = None,
                 sem_value: int | None = None, config: ComputeConfig | None = None):
        if not 0 <= base_duration < math.inf:
            raise ValueError("durations must be finite and >= 0")
        if not (0.0 <= compute_frac <= 1.0 and 0.0 <= graphics_frac <= 1.0):
            raise ValueError("resource fractions must lie in [0, 1]")
        # the cheap float test first: most commands stop there
        if graphics_frac != 0.0 and kind is CommandKind.KERNEL_DISPATCH:
            raise ValueError("kernel dispatches use no graphics-specific hardware")
        if base_duration != 0.0 and kind in (CommandKind.INIT_COMPUTE,
                                             CommandKind.SEMAPHORE_WRITE):
            raise ValueError(f"{kind.value} must have zero duration")
        self.kind = kind
        self.base_duration = base_duration
        self.compute_frac = compute_frac
        self.graphics_frac = graphics_frac
        self.touched_vaddrs = touched_vaddrs
        self.sem_vaddr = sem_vaddr
        self.sem_value = sem_value
        self.config = config


def kernel_dispatch(duration: float, compute_frac: float,
                    touched: tuple[int, ...] = ()) -> GpuCommand:
    return GpuCommand(CommandKind.KERNEL_DISPATCH, duration, compute_frac, 0.0,
                      tuple(touched))


def graphics_draw(duration: float, compute_frac: float, graphics_frac: float,
                  touched: tuple[int, ...] = ()) -> GpuCommand:
    return GpuCommand(CommandKind.GRAPHICS_DRAW, duration, compute_frac,
                      graphics_frac, tuple(touched))


def init_compute(config: ComputeConfig) -> GpuCommand:
    return GpuCommand(CommandKind.INIT_COMPUTE, config=config)


def semaphore_write(vaddr: int, value: int) -> GpuCommand:
    return GpuCommand(CommandKind.SEMAPHORE_WRITE, sem_vaddr=vaddr, sem_value=value)


def sleep(duration: float) -> GpuCommand:
    return GpuCommand(CommandKind.SLEEP, duration)
