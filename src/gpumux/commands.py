"""Simulated GPU commands: units of work with resource demands and durations."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .channels import ComputeConfig


class CommandKind(enum.Enum):
    KERNEL_DISPATCH = "kernel_dispatch"
    GRAPHICS_DRAW = "graphics_draw"
    INIT_COMPUTE = "init_compute"
    SEMAPHORE_WRITE = "semaphore_write"
    SLEEP = "sleep"


@dataclass(frozen=True)
class GpuCommand:
    kind: CommandKind
    base_duration: float = 0.0
    compute_frac: float = 0.0
    graphics_frac: float = 0.0
    touched_vaddrs: tuple[int, ...] = ()
    sem_vaddr: int | None = None
    sem_value: int | None = None
    config: ComputeConfig | None = None

    def __post_init__(self):
        if not 0 <= self.base_duration < math.inf:
            raise ValueError("durations must be finite and >= 0")
        if not (0.0 <= self.compute_frac <= 1.0 and 0.0 <= self.graphics_frac <= 1.0):
            raise ValueError("resource fractions must lie in [0, 1]")
        if self.kind is CommandKind.KERNEL_DISPATCH and self.graphics_frac != 0.0:
            raise ValueError("kernel dispatches use no graphics-specific hardware")
        if self.kind in (CommandKind.INIT_COMPUTE, CommandKind.SEMAPHORE_WRITE):
            if self.base_duration != 0.0:
                raise ValueError(f"{self.kind.value} must have zero duration")


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
