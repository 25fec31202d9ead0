"""Multi-GPU sharded execution on the simulated substrate.

Four layers, mirroring how real serving stacks shard:

* :mod:`repro.parallel.interconnect` — the collective-communication cost
  model: α–β links (NVLink, PCIe, IB) with NCCL-style ring estimators,
  hierarchical two-level collectives across nodes, and a memoized
  pricing cache.
* :mod:`repro.parallel.overlap` — the timeline algebra: comm–compute
  overlap windows under a contention factor, and 1F1B pipeline
  makespans with explicit bubble terms.
* :mod:`repro.parallel.compile` — Megatron-style tensor/pipeline-parallel
  model compilation: per-rank shards priced by the existing roofline,
  plus the layout's (bucketed, overlapped) collectives and micro-batch
  pipeline schedule.
* :mod:`repro.parallel.serving` — data-parallel fleets of TP/PP serving
  replicas (fixed or autoscaled width), merged into one fleet report.

Entry points: ``compile_model(..., parallel="tp2pp2")`` from
:mod:`repro.api`, the ``repro shard-sim`` CLI subcommand, and the classes
re-exported here.
"""

from repro.parallel.compile import (
    ShardedCompiledModel,
    compile_sharded,
    validate_divisibility,
)
from repro.parallel.interconnect import (
    IB,
    KNOWN_LINKS,
    NVLINK,
    PCIE,
    Interconnect,
    LinkSpec,
    clear_collective_cache,
    collective_cache_info,
    get_link,
)
from repro.parallel.overlap import (
    DEFAULT_CONTENTION,
    bubble_fraction,
    overlap_window,
    overlapped_layer_time,
    pipeline_bubble_time,
    pipeline_time,
)
from repro.parallel.serving import (
    AutoscalingServingEngine,
    FrontierPoint,
    ShardedServingEngine,
    ShardedServingReport,
    cost_throughput_frontier,
)
from repro.parallel.shard import GRAMMAR, ROUTES, FleetConfig, ShardConfig

__all__ = [
    "Interconnect",
    "LinkSpec",
    "KNOWN_LINKS",
    "NVLINK",
    "PCIE",
    "IB",
    "get_link",
    "collective_cache_info",
    "clear_collective_cache",
    "DEFAULT_CONTENTION",
    "overlap_window",
    "overlapped_layer_time",
    "pipeline_time",
    "pipeline_bubble_time",
    "bubble_fraction",
    "GRAMMAR",
    "ShardConfig",
    "ShardedCompiledModel",
    "compile_sharded",
    "validate_divisibility",
    "ROUTES",
    "AutoscalingServingEngine",
    "FleetConfig",
    "FrontierPoint",
    "ShardedServingEngine",
    "ShardedServingReport",
    "cost_throughput_frontier",
]
