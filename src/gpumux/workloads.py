"""Application-facing layer: async step/render API and the two training loops.

A SimSession stands for one simulator-backed application: a compute context
driving physics steps, a graphics context driving rendering, and the streams
connecting them. Phase durations come from a PhaseCost model, affine in the
environment batch size. ``run_datagen`` plays the episode-generation loop
(sequential, or pipelined so step k+1 overlaps render k); ``run_rl_rollout``
plays the rollout loop (sequential, or with the batch split into groups whose
simulation and rendering interleave). Inference is a fixed-latency phase on a
serialized off-device queue; it consumes no simulated GPU resources. Both
entry points pass ``on_window`` on to ``Engine.run``.

The async calls submit immediately and return handles; the wait calls return
conditions that driver generators yield to the engine. Commands are immutable
values, so a session builds each group's step and render command once and
submits the same objects on every step. Drivers enforce the loop dependencies
(a step must be waited before the matching render is issued), and the emitted
trace lets tests verify them independently.
"""

from __future__ import annotations

import enum
import math

from .commands import graphics_draw, kernel_dispatch
from .config import DeviceConfig
from .channels import ContextKind
from .engine import Condition, Engine, MetricsTrace
from .vm import SizeClass, _SlotValue


class PhaseCost(_SlotValue):
    """Phase durations, affine in batch size, plus per-phase resource demand.

    The shipped fractions are a calibration choice, not a measurement:
    simulation keeps compute demand low, rendering saturates the graphics
    units and uses a substantial compute share.
    """

    __slots__ = ("sim_base", "sim_per_env", "render_base", "render_per_env",
                 "inference_base", "inference_per_env", "sim_compute_frac",
                 "render_compute_frac", "render_graphics_frac")

    def __init__(self, sim_base: float = 0.9, sim_per_env: float = 0.002,
                 render_base: float = 0.033, render_per_env: float = 0.0065,
                 inference_base: float = 0.03, inference_per_env: float = 0.0005,
                 sim_compute_frac: float = 0.1, render_compute_frac: float = 0.6,
                 render_graphics_frac: float = 1.0):
        values = (sim_base, sim_per_env, render_base, render_per_env, inference_base,
                  inference_per_env, sim_compute_frac, render_compute_frac,
                  render_graphics_frac)
        for name, value in zip(self.__slots__[:6], values):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name, value in zip(self.__slots__[6:], values[6:]):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def sim(self, batch: int) -> float:
        return self.sim_base + self.sim_per_env * batch

    def render(self, batch: int) -> float:
        return self.render_base + self.render_per_env * batch

    def inference(self, batch: int) -> float:
        return self.inference_base + self.inference_per_env * batch


# Illustrative per-task calibrations. The coefficients are fiction shaped to
# the qualitative profile of each task (heavier articulated bodies simulate
# slower, locomotion renders cheaply); nothing here is a measurement.
ENV_PRESETS: dict[str, PhaseCost] = {
    "StackCube": PhaseCost(),
    "PickCube": PhaseCost(sim_base=0.8, sim_per_env=0.0022,
                          render_base=0.05, render_per_env=0.006),
    "PushCube": PhaseCost(sim_base=0.6, sim_per_env=0.0018,
                          render_base=0.05, render_per_env=0.0058),
    "AntRun": PhaseCost(sim_base=1.1, sim_per_env=0.0035,
                        render_base=0.02, render_per_env=0.007),
    "HumanoidRun": PhaseCost(sim_base=1.9, sim_per_env=0.006,
                             render_base=0.02, render_per_env=0.0065),
}


class DatagenMode(enum.Enum):
    SEQUENTIAL = "sequential"
    PIPELINED = "pipelined"


class RolloutMode(enum.Enum):
    SEQUENTIAL = "sequential"
    INTERLEAVED = "interleaved"


class EpisodeSpec(_SlotValue):
    __slots__ = ("steps", "batch", "mode")

    def __init__(self, steps: int, batch: int, mode: DatagenMode):
        if steps < 0:
            raise ValueError("steps must be >= 0 (0 means an empty workload)")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.steps = steps
        self.batch = batch
        self.mode = mode


class RolloutSpec(_SlotValue):
    __slots__ = ("horizon", "batch", "groups", "mode")

    def __init__(self, horizon: int, batch: int, groups: int = 2,
                 mode: RolloutMode = RolloutMode.INTERLEAVED):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        if batch < 1 or groups < 1:
            raise ValueError("batch and groups must be >= 1")
        if batch % groups:
            raise ValueError("groups must divide the batch")
        self.horizon = horizon
        self.batch = batch
        self.groups = groups
        self.mode = mode


class AsyncHandle(_SlotValue):
    """An issued step or render: its group, and the value the stream's
    semaphore reaches when it completes. Nothing writes a handle after it is
    built."""

    __slots__ = ("group", "target_value", "stream")

    def __init__(self, group: int, target_value: int, stream: object):
        self.group = group
        self.target_value = target_value
        self.stream = stream


class Metrics(_SlotValue):
    __slots__ = ("env", "mode", "steps", "batch", "groups", "makespan", "throughput",
                 "trace")
    __hash__ = None   # a mutable record

    def __init__(self, env: str, mode: str, steps: int, batch: int, groups: int,
                 makespan: float, throughput: float, trace: MetricsTrace):
        self.env = env
        self.mode = mode
        self.steps = steps
        self.batch = batch
        self.groups = groups
        self.makespan = makespan
        self.throughput = throughput
        self.trace = trace


class SimSession:
    """One application: compute + graphics contexts, streams, env buffers."""

    def __init__(self, costs: PhaseCost, batch: int, config: DeviceConfig | None = None,
                 groups: int = 1):
        if batch % groups:
            raise ValueError("groups must divide the batch")
        self.engine = Engine(config)
        self.costs = costs
        self.batch = batch
        self.groups = groups
        self.group_batch = batch // groups
        e = self.engine
        self.compute_ctx = e.create_context(ContextKind.COMPUTE)
        self.graphics_ctx = e.create_context(ContextKind.GRAPHICS)
        e.provision_forwarding_pool(self.graphics_ctx, 1)
        self.sim_stream = e.create_stream(self.compute_ctx)
        self.render_stream = e.create_stream(self.graphics_ctx)
        mem = e.memory
        cspace = mem.spaces[self.compute_ctx.space_id]
        gspace = mem.spaces[self.graphics_ctx.space_id]
        self.state_vaddrs = []   # per-group physics state, in compute memory
        self.frame_vaddrs = []   # per-group framebuffer, in graphics memory
        for _ in range(groups):
            va = mem.allocate(cspace, 1, SizeClass.BIG)
            mem.map_range(cspace, va, mem.alloc_phys(SizeClass.BIG))
            self.state_vaddrs.append(va)
            fb = mem.allocate(gspace, 1, SizeClass.SMALL)
            mem.map_range(gspace, fb, mem.alloc_phys(SizeClass.SMALL))
            self.frame_vaddrs.append(fb)
        # a group's step and render depend only on the costs, the group's
        # batch and its buffer, so each is built once and submitted every step
        self._step_commands = [
            (kernel_dispatch(costs.sim(self.group_batch), costs.sim_compute_frac,
                             touched=(va,)),)
            for va in self.state_vaddrs]
        self._render_commands = [
            (graphics_draw(costs.render(self.group_batch), costs.render_compute_frac,
                           costs.render_graphics_frac, touched=(fb,)),)
            for fb in self.frame_vaddrs]
        self._open_step: list[AsyncHandle | None] = [None] * groups
        self._open_render: list[AsyncHandle | None] = [None] * groups
        self._steps_waited = [0] * groups

    # -- stream co-scheduling control plane ----------------------------

    def custream_bind(self):
        self.engine.bind(self.sim_stream, self.graphics_ctx)

    def custream_unbind(self):
        self.engine.unbind(self.sim_stream)

    # -- async phase API ------------------------------------------------

    def step_async(self, k: int, group: int = 0) -> AsyncHandle:
        if self._open_step[group] is not None:
            raise RuntimeError("previous simulation step not waited")
        if k != self._steps_waited[group]:
            raise RuntimeError(f"steps must be issued in order; expected "
                               f"{self._steps_waited[group]}, got {k}")
        self.engine.submit(self.sim_stream, self._step_commands[group])
        handle = AsyncHandle(group, self.sim_stream.next_semaphore_value, self.sim_stream)
        self._open_step[group] = handle
        return handle

    def wait_step(self, handle: AsyncHandle) -> Condition:
        cond = self._wait(handle, self._open_step)
        self._steps_waited[handle.group] += 1
        return cond

    def render_async(self, k: int, group: int = 0) -> AsyncHandle:
        if self._open_render[group] is not None:
            raise RuntimeError("previous render not waited")
        if self._steps_waited[group] <= k:
            raise RuntimeError(f"render {k} issued before its simulation step completed")
        self.engine.submit(self.render_stream, self._render_commands[group])
        handle = AsyncHandle(group, self.render_stream.next_semaphore_value,
                             self.render_stream)
        self._open_render[group] = handle
        return handle

    def wait_render(self, handle: AsyncHandle) -> Condition:
        return self._wait(handle, self._open_render)

    def _wait(self, handle: AsyncHandle, open_handles: list) -> Condition:
        if open_handles[handle.group] is not handle:
            raise RuntimeError("handle not open in this phase (already waited, "
                               "or issued by the other phase)")
        open_handles[handle.group] = None
        return self.engine.stream_condition(handle.stream, handle.target_value)

    def infer(self, batch: int) -> Condition:
        return self.engine.request_inference(self.costs.inference(batch))


# ----------------------------------------------------------------------
# loop drivers

def _datagen_sequential(s: SimSession, steps: int):
    for k in range(steps):
        h = s.step_async(k)
        yield s.wait_step(h)
        r = s.render_async(k)
        yield s.wait_render(r)


def _datagen_pipelined(s: SimSession, steps: int):
    if steps == 0:
        return
    h = s.step_async(0)
    yield s.wait_step(h)
    for k in range(steps):
        r = s.render_async(k)
        nxt = s.step_async(k + 1) if k + 1 < steps else None
        yield s.wait_render(r)
        if nxt is not None:
            yield s.wait_step(nxt)


def _rollout_group(s: SimSession, horizon: int, group: int, batch: int):
    for k in range(horizon):
        yield s.infer(batch)
        h = s.step_async(k, group)
        yield s.wait_step(h)
        r = s.render_async(k, group)
        yield s.wait_render(r)


# ----------------------------------------------------------------------
# entry points

def _finish(session: SimSession, env: str, mode: str, steps: int, batch: int,
            groups: int, on_window=None) -> Metrics:
    trace = session.engine.run(on_window=on_window)
    if trace.stalled:
        faults = ", ".join(f"{extras[0]}@{t}" for t, event, _, _, _, extras in trace.records
                           if event == "fault") or "none"
        raise RuntimeError(f"workload stalled (processes {trace.stalled}); "
                           f"faults: {faults}")
    makespan = trace.makespan
    throughput = steps * batch / makespan if makespan > 0 else 0.0
    return Metrics(env=env, mode=mode, steps=steps, batch=batch, groups=groups,
                   makespan=makespan, throughput=throughput, trace=trace)


def run_datagen(spec: EpisodeSpec, costs: PhaseCost,
                config: DeviceConfig | None = None, env: str = "custom",
                on_window=None) -> Metrics:
    session = SimSession(costs, spec.batch, config)
    pipelined = spec.mode is DatagenMode.PIPELINED
    if pipelined:
        session.custream_bind()
    driver = (_datagen_pipelined if pipelined else _datagen_sequential)(session, spec.steps)
    session.engine.spawn(driver)
    metrics = _finish(session, env, spec.mode.value, spec.steps, spec.batch, 1,
                      on_window)
    if pipelined:
        session.custream_unbind()
    return metrics


def run_rl_rollout(spec: RolloutSpec, costs: PhaseCost,
                   config: DeviceConfig | None = None, env: str = "custom",
                   on_window=None) -> Metrics:
    interleaved = spec.mode is RolloutMode.INTERLEAVED
    groups = spec.groups if interleaved else 1
    session = SimSession(costs, spec.batch, config, groups=groups)
    if interleaved:
        session.custream_bind()
    for g in range(groups):
        session.engine.spawn(_rollout_group(session, spec.horizon, g,
                                            session.group_batch))
    metrics = _finish(session, env, spec.mode.value, spec.horizon, spec.batch, groups,
                      on_window)
    if interleaved:
        session.custream_unbind()
    return metrics
