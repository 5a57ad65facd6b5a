"""Device-level configuration shared by the scheduler, channels, and tables."""

from __future__ import annotations

import math

from .vm import DEFAULT_HIGH_BASE, DEFAULT_LOW_BASE, PageGeometry, SizeClass, _SlotValue

TICKS_PER_S = 10**9   # the engine clock counts whole nanoseconds


def ticks(seconds: float) -> int:
    """Seconds to the nearest whole tick."""
    return round(seconds * TICKS_PER_S)


class DeviceConfig(_SlotValue):
    """Device parameters: ``hw_max_queues`` channels per timeslice group and
    ``ring_capacity`` entries per submission ring. Compute contexts allocate
    VAs from ``high_base`` up, graphics contexts from ``low_base`` up to it."""

    __slots__ = ("quantum", "context_switch_penalty", "hw_max_queues", "ring_capacity",
                 "compute_capacity", "graphics_capacity", "utilization_sample_dt",
                 "geometry", "high_base", "low_base")

    def __init__(self, quantum: float = 0.1, context_switch_penalty: float = 0.0,
                 hw_max_queues: int = 8, ring_capacity: int = 1024,
                 compute_capacity: float = 1.0, graphics_capacity: float = 1.0,
                 utilization_sample_dt: float = 0.5,
                 geometry: PageGeometry = PageGeometry(),
                 high_base: int = DEFAULT_HIGH_BASE, low_base: int = DEFAULT_LOW_BASE):
        for name, value in (("quantum", quantum),
                            ("utilization_sample_dt", utilization_sample_dt)):
            if not 1 <= value * TICKS_PER_S < math.inf:
                raise ValueError(f"{name} must be finite and at least 1 ns")
        if not 0 <= context_switch_penalty < math.inf:
            raise ValueError("context_switch_penalty must be finite and >= 0")
        if hw_max_queues < 2:
            raise ValueError("need at least one app queue and one spare")
        if ring_capacity < 2:
            raise ValueError("ring_capacity must be >= 2")
        if compute_capacity <= 0 or graphics_capacity <= 0:
            raise ValueError("resource capacities must be positive")
        if high_base % SizeClass.SMALL.nbytes or low_base % SizeClass.SMALL.nbytes:
            raise ValueError("high_base and low_base must be 4 KiB aligned")
        if not 0 <= low_base < high_base < geometry.va_limit:
            raise ValueError("need 0 <= low_base < high_base < 2**va_width")
        self.quantum = quantum
        self.context_switch_penalty = context_switch_penalty
        self.hw_max_queues = hw_max_queues
        self.ring_capacity = ring_capacity
        self.compute_capacity = compute_capacity
        self.graphics_capacity = graphics_capacity
        self.utilization_sample_dt = utilization_sample_dt
        self.geometry = geometry
        self.high_base = high_base
        self.low_base = low_base
