"""gpumux: deterministic simulator of GPU work submission, scheduling, and
virtual memory, built to study spatial sharing of compute and graphics work
through stream redirection and page-table grafting."""

from .audits import InvariantViolation, check_all
from .channels import (AlreadyBound, ChannelError, ComputeConfig, ContextKind,
                       NotBound, PoolExhausted, RingFull)
from .commands import (CommandKind, GpuCommand, graphics_draw, init_compute,
                       kernel_dispatch, semaphore_write, sleep)
from .config import DeviceConfig
from .engine import Engine, MetricsTrace, SemaphoreAtLeast, TimeReached
from .harness import (ConfigError, ExperimentConfig, cmd_datagen, cmd_graftbench,
                      cmd_rl, cmd_trace, parse_config)
from .vm import (AddressSpace, AddressSpaceExhausted, AllocPolicy, AlreadyMapped,
                 CopyEngineLog, CycleDetected, GraftReport, InconsistentUnion,
                 MemorySystem, NotMapped, OverlapDetected, PageFault, PageGeometry,
                 PhysPage, SizeClass, VmError)
from .workloads import (ENV_PRESETS, AsyncHandle, DatagenMode, EpisodeSpec, Metrics,
                        PhaseCost, RolloutMode, RolloutSpec, SimSession, run_datagen,
                        run_rl_rollout)

__version__ = "0.1.0"
