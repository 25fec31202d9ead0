"""Continuous-batching serving simulation (S12; extension beyond the paper).

The paper evaluates single static batches; production inference serves a
*stream* of requests.  This package simulates that regime on the existing
substrate — the decode/var-len attention problems of :mod:`repro.mha`
priced by the :mod:`repro.gpu` cost model — with request-level (static)
and iteration-level (continuous) batching policies, a paged KV-cache
manager bounded by the device spec, and fleet latency/throughput metrics.

* :mod:`repro.serving.request`   — requests, trackers, synthetic traces.
* :mod:`repro.serving.workload`  — arrival processes and tenant mixes.
* :mod:`repro.serving.kvcache`   — paged KV allocation + prefix sharing.
* :mod:`repro.serving.scheduler` — static vs continuous batch assembly.
* :mod:`repro.serving.slo`       — per-tenant SLO targets and scheduling.
* :mod:`repro.serving.spec_decode` — draft-propose / target-verify steps.
* :mod:`repro.serving.lora`      — multi-LoRA pricing and residency.
* :mod:`repro.serving.engine`    — the step pricing and the steppable run.
* :mod:`repro.serving.metrics`   — TTFT / ITL / tokens-per-second reports.
"""

from repro.serving.engine import ReplicaRun, ServingConfig, ServingEngine, simulate_serving
from repro.serving.kvcache import KVCacheConfig, PagedKVCache
from repro.serving.lora import AdapterRegistry, LoRAConfig
from repro.serving.metrics import (
    UNSET_S,
    RequestMetrics,
    ServingReport,
    TenantReport,
    percentile,
    tenant_reports,
)
from repro.serving.request import (
    Request,
    RequestState,
    RequestTracker,
    synthetic_trace,
)
from repro.serving.scheduler import (
    SCHEDULERS,
    ContinuousBatchScheduler,
    Scheduler,
    StaticBatchScheduler,
    make_scheduler,
)
from repro.serving.slo import SLOPolicy, SLOScheduler, TenantSLO
from repro.serving.spec_decode import SpeculativeConfig
from repro.serving.workload import (
    SCENARIOS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TenantSpec,
    WorkloadSpec,
    assign_adapters,
    make_scenario,
)

__all__ = [
    "AdapterRegistry",
    "ArrivalProcess",
    "assign_adapters",
    "BurstyArrivals",
    "ContinuousBatchScheduler",
    "DiurnalArrivals",
    "KVCacheConfig",
    "LoRAConfig",
    "PagedKVCache",
    "percentile",
    "PoissonArrivals",
    "ReplicaRun",
    "Request",
    "RequestMetrics",
    "RequestState",
    "RequestTracker",
    "Scheduler",
    "SCHEDULERS",
    "SCENARIOS",
    "ServingConfig",
    "ServingEngine",
    "ServingReport",
    "simulate_serving",
    "SLOPolicy",
    "SLOScheduler",
    "SpeculativeConfig",
    "StaticBatchScheduler",
    "TenantReport",
    "TenantSLO",
    "TenantSpec",
    "UNSET_S",
    "WorkloadSpec",
    "make_scenario",
    "make_scheduler",
    "synthetic_trace",
    "tenant_reports",
]
