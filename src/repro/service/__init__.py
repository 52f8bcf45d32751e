"""The experiment service: one resolution pipeline.

``repro.service`` is the experiment layer's machinery;
:class:`repro.experiments.Runner` is a synchronous call into it, and
:class:`ExperimentService` is its concurrent job API:

* :class:`ResultStore` -- content-addressed durable layer: entries
  keyed by spec hash, store versioning, LRU size-bounded eviction,
  integrity sweep with quarantine, and hit/miss/corrupt/evict
  metrics (:class:`StoreStats`);
* :class:`InflightTable` -- cross-request deduplication: identical
  spec hashes in concurrent jobs share one in-flight future;
* :func:`plan` -- execution planning (replay-class grouping), kept
  out of the executor so the execution layer stays policy-free;
* :class:`ExecutionBackend` -- runs planned groups inline or in a
  process pool (:func:`execute` is the per-spec entry point);
* :class:`ExperimentService` -- memo -> store -> in-flight -> plan ->
  execute -> backfill: ``submit(ExperimentSpec) ->``
  :class:`JobHandle` streams partial summaries via ``as_completed()``
  while serving many concurrent clients over one shared backend and
  one store; ``run_experiment`` resolves on the calling thread.
"""

from repro.service.executor import (
    ExecutionBackend, execute, execute_captured, execute_replay_group,
    run_group,
)
from repro.service.inflight import InflightStats, InflightTable
from repro.service.planner import plan, replay_class
from repro.service.service import (
    ExperimentService, JobHandle, ServiceStats, options_from_env,
    service_from_env,
)
from repro.service.store import (
    STORE_VERSION, ResultStore, StoreStats, StoreStatsSnapshot,
    SweepReport, store_from_env,
)

__all__ = [
    "ExecutionBackend", "execute", "execute_captured",
    "execute_replay_group", "run_group",
    "InflightStats", "InflightTable",
    "plan", "replay_class",
    "ExperimentService", "JobHandle", "ServiceStats", "options_from_env",
    "service_from_env",
    "STORE_VERSION", "ResultStore", "StoreStats", "StoreStatsSnapshot",
    "SweepReport", "store_from_env",
]
