"""Value semantics of the package's small records: field order, defaults,
equality, hashing, repr and argument checks."""

import inspect

import pytest

from gpumux.channels import ComputeConfig
from gpumux.config import DeviceConfig
from gpumux.engine import MetricsTrace
from gpumux.harness import ExperimentConfig
from gpumux.vm import (DEFAULT_HIGH_BASE, DEFAULT_LOW_BASE, CopyEngineLog, GraftReport,
                       PageGeometry)
from gpumux.workloads import (DatagenMode, EpisodeSpec, Metrics, PhaseCost, RolloutMode,
                              RolloutSpec)

_TRACE = MetricsTrace()

# class, its fields in positional order, the values of one instance, and a
# keyword change that gives an unequal one
FROZEN = [
    (PageGeometry, ("levels", "bits_per_level", "big_page_level", "va_width"),
     (4, 9, 2, 39), {"va_width": 40}),
    (DeviceConfig, ("quantum", "context_switch_penalty", "hw_max_queues",
                    "ring_capacity", "compute_capacity", "graphics_capacity",
                    "utilization_sample_dt", "geometry", "high_base", "low_base"),
     (0.2, 0.01, 4, 64, 2.0, 0.5, 0.25, PageGeometry(), 0x6000_0000_0000,
      0x2_0000_0000), {"ring_capacity": 65}),
    (ComputeConfig, ("local_memory_bytes",), (4096,), {"local_memory_bytes": 8192}),
    (PhaseCost, ("sim_base", "sim_per_env", "render_base", "render_per_env",
                 "inference_base", "inference_per_env", "sim_compute_frac",
                 "render_compute_frac", "render_graphics_frac"),
     (1.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), {"render_graphics_frac": 0.9}),
    (EpisodeSpec, ("steps", "batch", "mode"), (3, 8, DatagenMode.PIPELINED),
     {"mode": DatagenMode.SEQUENTIAL}),
    (RolloutSpec, ("horizon", "batch", "groups", "mode"),
     (3, 8, 4, RolloutMode.SEQUENTIAL), {"groups": 2}),
]
MUTABLE = [
    (CopyEngineLog, ("reads", "writes"), (3, 4), {"writes": 5}),
    (GraftReport, ("pdes_copied", "max_depth_descended", "entry_writes",
                   "tlb_invalidations"), (1, 2, 3, 4), {"entry_writes": 0}),
    (Metrics, ("env", "mode", "steps", "batch", "groups", "makespan", "throughput",
               "trace"),
     ("PickCube", "pipelined", 5, 16, 2, 4.5, 17.7, _TRACE), {"makespan": 4.25}),
    (ExperimentConfig, ("device", "costs", "env", "steps", "batches", "groups",
                        "buffer_counts"),
     (DeviceConfig(), PhaseCost(), "custom", 6, [16, 32], 2, [4, 16]), {"groups": 1}),
]


def _cases(specs):
    return pytest.mark.parametrize("cls, names, values, change", specs,
                                   ids=[spec[0].__name__ for spec in specs])


@_cases(FROZEN + MUTABLE)
def test_fields_in_positional_order(cls, names, values, change):
    assert list(inspect.signature(cls).parameters) == list(names)
    value = cls(*values)
    assert [getattr(value, name) for name in names] == list(values)


@_cases(FROZEN + MUTABLE)
def test_equal_fields_give_equal_values(cls, names, values, change):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    other = cls(**{**dict(zip(names, values)), **change})
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != values


@_cases(FROZEN)
def test_frozen_values_hash_by_field(cls, names, values, change):
    assert hash(cls(*values)) == hash(cls(*values))
    assert len({cls(*values), cls(*values)}) == 1


@_cases(MUTABLE)
def test_mutable_records_are_unhashable(cls, names, values, change):
    with pytest.raises(TypeError):
        hash(cls(*values))


def test_defaults():
    geometry = PageGeometry()
    assert (geometry.levels, geometry.bits_per_level, geometry.big_page_level,
            geometry.va_width) == (5, 9, 3, 48)
    assert (geometry.page_shift, geometry.level_shifts) == (12, (48, 39, 30, 21, 12))
    assert (geometry.fanout, geometry.va_limit) == (512, 1 << 48)
    device = DeviceConfig()
    assert (device.quantum, device.context_switch_penalty, device.hw_max_queues,
            device.ring_capacity, device.compute_capacity, device.graphics_capacity,
            device.utilization_sample_dt, device.geometry, device.high_base,
            device.low_base) == (
        0.1, 0.0, 8, 1024, 1.0, 1.0, 0.5, geometry, DEFAULT_HIGH_BASE, DEFAULT_LOW_BASE)
    assert ComputeConfig().local_memory_bytes == 64 * 1024
    costs = PhaseCost()
    assert (costs.sim_base, costs.sim_per_env, costs.render_base, costs.render_per_env,
            costs.inference_base, costs.inference_per_env, costs.sim_compute_frac,
            costs.render_compute_frac, costs.render_graphics_frac) == (
        0.9, 0.002, 0.033, 0.0065, 0.03, 0.0005, 0.1, 0.6, 1.0)
    spec = RolloutSpec(4, 8)
    assert (spec.groups, spec.mode) == (2, RolloutMode.INTERLEAVED)
    assert (CopyEngineLog().reads, CopyEngineLog().writes) == (0, 0)
    report = GraftReport()
    assert (report.pdes_copied, report.max_depth_descended, report.entry_writes,
            report.tlb_invalidations) == (0, 0, 0, 0)


def test_repr_names_the_compared_fields():
    assert repr(PageGeometry()) == ("PageGeometry(levels=5, bits_per_level=9, "
                                    "big_page_level=3, va_width=48)")
    assert repr(CopyEngineLog(1, 2)) == "CopyEngineLog(reads=1, writes=2)"
    assert repr(EpisodeSpec(1, 2, DatagenMode.SEQUENTIAL)) == (
        "EpisodeSpec(steps=1, batch=2, mode=<DatagenMode.SEQUENTIAL: 'sequential'>)")


def test_mutable_records_take_new_field_values():
    log = CopyEngineLog()
    log.writes += 3
    assert log == CopyEngineLog(0, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: PageGeometry(levels=1), "root and a leaf"),
    (lambda: PageGeometry(big_page_level=0), "big_page_level out of range"),
    (lambda: PageGeometry(big_page_level=5), "big_page_level out of range"),
    (lambda: PageGeometry(big_page_level=2), "span 2 MiB"),
    (lambda: PageGeometry(va_width=20), "va_width too small"),
    (lambda: PageGeometry(levels=3, big_page_level=1), "va_width too large"),
    (lambda: PageGeometry(va_width=58), "va_width too large"),
    (lambda: DeviceConfig(quantum=1e-10), "quantum"),
    (lambda: DeviceConfig(quantum=float("inf")), "quantum"),
    (lambda: DeviceConfig(utilization_sample_dt=0.0), "utilization_sample_dt"),
    (lambda: DeviceConfig(context_switch_penalty=-1.0), "context_switch_penalty"),
    (lambda: DeviceConfig(hw_max_queues=1), "app queue"),
    (lambda: DeviceConfig(ring_capacity=1), "ring_capacity"),
    (lambda: DeviceConfig(compute_capacity=0.0), "capacities"),
    (lambda: DeviceConfig(graphics_capacity=-1.0), "capacities"),
    (lambda: ComputeConfig(-1), "local_memory_bytes"),
    (lambda: PhaseCost(sim_base=-0.1), "sim_base"),
    (lambda: PhaseCost(sim_per_env=float("inf")), "sim_per_env"),
    (lambda: PhaseCost(render_base=-1.0), "render_base"),
    (lambda: PhaseCost(render_per_env=-1.0), "render_per_env"),
    (lambda: PhaseCost(inference_base=-1.0), "inference_base"),
    (lambda: PhaseCost(inference_per_env=-1.0), "inference_per_env"),
    (lambda: PhaseCost(sim_compute_frac=1.5), "sim_compute_frac"),
    (lambda: PhaseCost(render_compute_frac=-0.5), "render_compute_frac"),
    (lambda: PhaseCost(render_graphics_frac=2.0), "render_graphics_frac"),
    (lambda: EpisodeSpec(-1, 1, DatagenMode.SEQUENTIAL), "steps"),
    (lambda: EpisodeSpec(1, 0, DatagenMode.SEQUENTIAL), "batch"),
    (lambda: RolloutSpec(-1, 4), "horizon"),
    (lambda: RolloutSpec(1, 0), "batch and groups"),
    (lambda: RolloutSpec(1, 4, 0), "batch and groups"),
    (lambda: RolloutSpec(1, 10, 3), "divide"),
])
def test_argument_checks_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
