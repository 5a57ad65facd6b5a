"""Device-level configuration shared by the scheduler, channels, and tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .vm import DEFAULT_HIGH_BASE, DEFAULT_LOW_BASE, PageGeometry

TICKS_PER_S = 10**9   # the engine clock counts whole nanoseconds


def ticks(seconds: float) -> int:
    """Seconds to the nearest whole tick."""
    return round(seconds * TICKS_PER_S)


@dataclass(frozen=True)
class DeviceConfig:
    quantum: float = 0.1
    context_switch_penalty: float = 0.0
    hw_max_queues: int = 8          # channels per timeslice group
    ring_capacity: int = 1024       # submission ring entries per channel
    compute_capacity: float = 1.0
    graphics_capacity: float = 1.0
    utilization_sample_dt: float = 0.5
    geometry: PageGeometry = field(default_factory=PageGeometry)
    high_base: int = DEFAULT_HIGH_BASE
    low_base: int = DEFAULT_LOW_BASE

    # Diagnostic knobs. Each one skips a coherence step (the graft at bind,
    # the bootstrap of a forwarding channel) so tests can show the failure it
    # normally prevents; both default off.
    disable_graft: bool = False
    skip_bootstrap: bool = False

    def __post_init__(self):
        for name in ("quantum", "utilization_sample_dt"):
            if not 1 <= getattr(self, name) * TICKS_PER_S < math.inf:
                raise ValueError(f"{name} must be finite and at least 1 ns")
        if not 0 <= self.context_switch_penalty < math.inf:
            raise ValueError("context_switch_penalty must be finite and >= 0")
        if self.hw_max_queues < 2:
            raise ValueError("need at least one app queue and one spare")
        if self.ring_capacity < 2:
            raise ValueError("ring_capacity must be >= 2")
        if self.compute_capacity <= 0 or self.graphics_capacity <= 0:
            raise ValueError("resource capacities must be positive")
