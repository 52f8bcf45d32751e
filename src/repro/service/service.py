"""The experiment service: the one resolution pipeline.

:class:`ExperimentService` is the serving-system face of the
experiment layer.  Many concurrent clients ``submit()`` experiment
grids and get back :class:`JobHandle`\\ s; each job resolves through
the shared layers -- in-process memo, content-addressed
:class:`~repro.service.store.ResultStore`, cross-request
:class:`~repro.service.inflight.InflightTable`, and one shared
:class:`~repro.service.executor.ExecutionBackend` -- so

* a figure request repeated by N clients costs one execution;
* two different grids sharing a baseline run share its simulation
  even while both are still in flight;
* finished runs stream back through
  :meth:`JobHandle.as_completed` *as they finish*, not when the whole
  grid does.

Resolution order per job::

    memo  ->  store  ->  inflight table  ->  plan  ->  execute
    (hits)    (hits)     (join a run        (replay     (claim + run,
                          already in         classes)    resolve joiners)
                          the air)

Everything an executed run produces is backfilled upward (store and
memo), so the next request short-circuits as early as possible.
:meth:`ExperimentService.run_experiment` runs the same pipeline
synchronously on the calling thread; :class:`repro.experiments.Runner`
is that call.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue
import threading
from concurrent.futures import Future
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union,
)

from repro.obs.metrics import (
    MetricsRegistry, StatsView, get_registry, new_run_id,
)
from repro.obs.spans import SpanTracer
from repro.service.executor import ExecutionBackend
from repro.service.inflight import InflightTable
from repro.service.planner import plan
from repro.service.store import (
    ResultStore, StoreStatsSnapshot, store_from_env,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult
    from repro.experiments.spec import ExperimentSpec, RunSpec
    from repro.experiments.summary import RunSummary

_service_ids = itertools.count()


class ServiceStats(StatsView):
    """Where the service's runs came from, across all jobs (a
    :class:`~repro.experiments.Runner`'s ``stats`` is its service's).

    A view over ``repro_service_events_total{service=...,event=...}``
    in the metrics registry (see :class:`repro.obs.metrics.StatsView`).
    """

    #: requested -- grid members submitted; deduplicated -- duplicate
    #: members within submitted grids; inflight_joined -- specs folded
    #: onto an execution another job already had in flight; executed --
    #: execution-driven simulations (each replay class executes exactly
    #: one capture; its trace-driven members count in ``replayed``, so
    #: ``executed + replayed`` is the number of summaries produced);
    #: failed -- specs whose simulation raised (a failed replay class
    #: counts every member)
    FIELDS = ("requested", "deduplicated", "memo_hits", "store_hits",
              "inflight_joined", "executed", "captured", "replayed",
              "failed", "jobs")

    __slots__ = ("instance",)

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        family = (registry if registry is not None
                  else get_registry()).counter(
            "repro_service_events_total",
            "ExperimentService resolution outcomes",
            labels=("service", "event"))
        if instance is None:
            instance = f"service-{next(_service_ids)}"
        object.__setattr__(self, "instance", instance)
        super().__init__({field: family.labels(service=instance, event=field)
                          for field in self.FIELDS})

    def __str__(self) -> str:
        extra = (f" ({self.captured} captured, {self.replayed} replayed)"
                 if self.captured or self.replayed else "")
        if self.failed:
            extra += f" [{self.failed} failed]"
        return (f"{self.jobs} jobs / {self.requested} requested = "
                f"{self.executed + self.replayed} executed "
                f"+ {self.deduplicated} deduplicated "
                f"+ {self.memo_hits} memoized + {self.store_hits} stored "
                f"+ {self.inflight_joined} joined in-flight{extra}")


class JobHandle:
    """A submitted experiment: stream it, or wait for the result.

    One summary is delivered per *unique* spec in the grid; duplicate
    members share their delivery (and the final
    :class:`~repro.experiments.runner.ExperimentResult` resolves them
    all).  :meth:`as_completed` is a single-consumer stream; it may be
    combined freely with a final :meth:`result` call.
    """

    def __init__(self, experiment: "ExperimentSpec",
                 expected: int, job_id: Optional[str] = None) -> None:
        self.experiment = experiment
        self.expected = expected
        #: correlation id tagging this job's spans and metrics
        self.job_id = job_id or new_run_id("job")
        self._queue: "queue.Queue" = queue.Queue()
        self._consumed = 0
        self._lock = threading.Lock()
        self._delivered = 0
        self._results: dict[str, "RunSummary"] = {}
        self._failures: list[tuple["RunSpec", BaseException]] = []
        self._failed: set[str] = set()
        #: wall seconds per resolution phase (memo/store/plan/...)
        self._phase_seconds: dict[str, float] = {}
        self._done = threading.Event()
        if expected == 0:
            self._done.set()

    def _note_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self._phase_seconds[name] = (
                self._phase_seconds.get(name, 0.0) + seconds)

    # -- delivery (service side; the first delivery per key wins) -----
    def _deliver(self, key: str, summary: "RunSummary") -> None:
        with self._lock:
            if key in self._results or key in self._failed:
                return
            self._results[key] = summary
            self._delivered += 1
            last = self._delivered == self.expected
        self._queue.put(summary)
        if last:
            self._done.set()

    def _deliver_failure(self, key: str, spec: "RunSpec",
                         exc: BaseException) -> None:
        with self._lock:
            if key in self._results or key in self._failed:
                return
            self._failed.add(key)
            self._failures.append((spec, exc))
            self._delivered += 1
            last = self._delivered == self.expected
        self._queue.put(None)      # keeps the stream's count moving
        if last:
            self._done.set()

    # -- consumption (client side) -------------------------------------
    def done(self) -> bool:
        """True once every unique spec has resolved or failed."""
        return self._done.is_set()

    @property
    def failures(self) -> list[tuple["RunSpec", BaseException]]:
        with self._lock:
            return list(self._failures)

    def as_completed(self, timeout: Optional[float] = None):
        """Yield each finished :class:`RunSummary` as it lands.

        Completion order, not grid order -- a cache hit streams out
        before a long simulation submitted earlier.  Failed specs are
        skipped here (they surface in :meth:`result` /
        :attr:`failures`).  ``timeout`` bounds the wait for *each*
        summary; on expiry a :class:`TimeoutError` is raised.
        """
        while self._consumed < self.expected:
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no run finished within {timeout}s "
                    f"({self._consumed}/{self.expected} streamed)") from None
            self._consumed += 1
            if item is not None:
                yield item

    def metrics(self) -> dict:
        """Observability snapshot of this job: correlation id, delivery
        progress, and wall-time attribution per resolution phase.

        ``phases`` maps each pipeline phase the service ran for this
        job (``submit``/``memo``/``store``/``plan``/``execute``/
        ``backfill``) to wall seconds spent in it.
        """
        with self._lock:
            return {
                "job_id": self.job_id,
                "experiment": self.experiment.name,
                "expected": self.expected,
                "delivered": self._delivered,
                "failed": len(self._failures),
                "done": self._done.is_set(),
                "phases": dict(self._phase_seconds),
            }

    def critpath(self) -> dict:
        """Phase-level bottleneck attribution for this job.

        The service-side analogue of the simulator's critical-path
        analysis (:mod:`repro.obs.critpath`): ranks the resolution
        phases the job's wall time went to and names the bottleneck,
        so "why was this job slow" is answered by the same taxonomy
        move -- attribute, rank, point -- one layer up.  Phases
        overlap only trivially here (resolution is sequential per
        job), so their seconds sum to approximately the job's total.
        """
        with self._lock:
            phases = dict(self._phase_seconds)
        total = sum(phases.values())
        ranked = [
            {"phase": name,
             "seconds": round(seconds, 6),
             "fraction": round(seconds / total, 4) if total else 0.0}
            for name, seconds in sorted(phases.items(),
                                        key=lambda kv: (-kv[1], kv[0]))
        ]
        return {
            "job_id": self.job_id,
            "experiment": self.experiment.name,
            "total_seconds": round(total, 6),
            "phases": ranked,
            "bottleneck": ranked[0]["phase"] if ranked else None,
        }

    def result(self, timeout: Optional[float] = None) -> "ExperimentResult":
        """Block until the whole grid resolved; raise if any run failed."""
        from repro.errors import ExperimentExecutionError
        from repro.experiments.runner import ExperimentResult

        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job incomplete after {timeout}s "
                f"({self._delivered}/{self.expected} resolved)")
        if self._failures:
            raise ExperimentExecutionError(self.failures)
        return ExperimentResult(self.experiment, dict(self._results))


class ExperimentService:
    """Serve experiment grids to many concurrent clients.

    One service owns one memo, one (optional) content-addressed store,
    one in-flight table, and one execution backend; every job submitted
    to it shares all four.  ``parallel=False`` executes inline on the
    resolving thread (deterministic, and registry-local
    backends/timing models stay visible); otherwise a batch of more
    than one group runs in the backend's shared process pool.
    """

    def __init__(self,
                 store: Optional[Union[ResultStore, str, os.PathLike]] = None,
                 max_workers: Optional[int] = None,
                 parallel: bool = True,
                 replay: bool = False,
                 run_group_fn: Optional[Callable] = None,
                 registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        if instance is None:
            instance = f"service-{next(_service_ids)}"
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store, registry=registry,
                                instance=instance)
        self.store: Optional[ResultStore] = store
        self.replay = replay
        self.inflight = InflightTable(registry=registry, instance=instance)
        self.backend = ExecutionBackend(max_workers=max_workers,
                                        parallel=parallel,
                                        run_group_fn=run_group_fn)
        #: span tracer attributing wall time to pipeline phases; share
        #: one tracer across services to aggregate a whole deployment
        self.tracer = tracer or SpanTracer()
        self.stats = ServiceStats(registry=registry, instance=instance)
        self._stats_lock = threading.Lock()
        #: the in-process memo: spec hash -> summary, shared by all jobs
        self._memo: dict[str, "RunSummary"] = {}
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, experiment: Union["ExperimentSpec",
                                       Iterable["RunSpec"]]) -> JobHandle:
        """Accept a grid; resolution starts immediately in the
        background.  Returns the job's :class:`JobHandle`."""
        return self._accept(experiment, background=True)

    def run_experiment(self,
                       experiment: Union["ExperimentSpec",
                                         Iterable["RunSpec"]],
                       timeout: Optional[float] = None
                       ) -> "ExperimentResult":
        """Resolve a grid synchronously, on the calling thread.

        The same pipeline as :meth:`submit`; ``timeout`` bounds only
        the wait for runs another job already had in flight.  Raises
        :class:`~repro.errors.ExperimentExecutionError` naming every
        failed spec.
        """
        return self._accept(experiment, background=False).result(timeout)

    def store_stats(self) -> Optional[StoreStatsSnapshot]:
        """Snapshot of the backing store's hit/miss/evict/corrupt
        counters (None when the service runs store-less)."""
        return self.store.stats.snapshot() if self.store else None

    def close(self) -> None:
        """Shut down the shared worker pool (jobs already submitted
        finish first; a later job starts a new pool)."""
        self.backend.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Job resolution
    # ------------------------------------------------------------------
    def _accept(self, experiment: Union["ExperimentSpec",
                                        Iterable["RunSpec"]],
                background: bool) -> JobHandle:
        from repro.experiments.spec import ExperimentSpec

        if not isinstance(experiment, ExperimentSpec):
            experiment = ExperimentSpec("adhoc", tuple(experiment))
        unique: dict[str, "RunSpec"] = {}
        for spec in experiment.runs:
            unique.setdefault(spec.spec_hash(), spec)
        job = JobHandle(experiment, expected=len(unique))
        with self._phase(job, "submit"):
            self._count(jobs=1, requested=len(experiment.runs),
                        deduplicated=len(experiment.runs) - len(unique))
            if background:
                threading.Thread(target=self._run_job,
                                 args=(job, unique, False),
                                 name=f"repro-{job.job_id}",
                                 daemon=True).start()
        if not background:
            self._run_job(job, unique, True)
        return job

    def _run_job(self, job: JobHandle, unique: dict[str, "RunSpec"],
                 sync: bool) -> None:
        try:
            self._resolve_job(job, unique, sync)
        except BaseException as exc:
            # never leave a job hanging: fail whatever has not resolved
            for key, spec in unique.items():
                job._deliver_failure(key, spec, exc)
            if not isinstance(exc, Exception):
                raise           # KeyboardInterrupt reaches the caller

    @contextlib.contextmanager
    def _phase(self, job: JobHandle, name: str) -> Iterator[None]:
        """Span one pipeline phase for ``job`` (correlation = job id)
        and fold its wall time into the job's phase attribution."""
        with self.tracer.span(name, correlation=job.job_id,
                              experiment=job.experiment.name) as sp:
            yield
        job._note_phase(name, sp.duration)

    def _remember(self, key: str, summary: "RunSummary") -> None:
        with self._memo_lock:
            self._memo[key] = summary

    def _store_get(self, spec: "RunSpec") -> Optional["RunSummary"]:
        """Store lookup; in replay mode an exact execution-driven entry
        satisfies either key, while a replay entry only ever satisfies
        replay mode."""
        summary = self.store.get(spec)
        if summary is None and self.replay:
            summary = self.store.get(spec, timing="replay")
        return summary

    def _resolve_job(self, job: JobHandle, unique: dict[str, "RunSpec"],
                     sync: bool) -> None:
        # 1. in-process memo
        with self._phase(job, "memo"):
            with self._memo_lock:
                hits = {key: self._memo[key] for key in unique
                        if key in self._memo}
            self._count(memo_hits=len(hits))
            for key, summary in hits.items():
                job._deliver(key, summary)
        remaining = [key for key in unique if key not in hits]

        # 2. content-addressed store (backfills the memo); every lookup
        # finishes before delivery starts, so the lookups' file I/O
        # does not hand the GIL back and forth with a streaming client
        if self.store is not None and remaining:
            with self._phase(job, "store"):
                found = {}
                for key in remaining:
                    summary = self._store_get(unique[key])
                    if summary is not None:
                        found[key] = summary
                self._count(store_hits=len(found))
                for key, summary in found.items():
                    self._remember(key, summary)
                    job._deliver(key, summary)
            remaining = [key for key in remaining if key not in found]

        if not remaining:
            return

        # 3. cross-request in-flight dedup
        owned, joined = self.inflight.claim(remaining)
        self._count(inflight_joined=len(joined))
        try:
            for key, future in {**owned, **joined}.items():
                future.add_done_callback(
                    partial(self._on_future, job, key, unique[key]))

            # double-check the memo for owned keys: another job may
            # have resolved (and retired) the run between our memo miss
            # and the claim -- serve it rather than re-executing
            for key in list(owned):
                with self._memo_lock:
                    summary = self._memo.get(key)
                if summary is not None:
                    self.inflight.resolve(key, summary)
                    del owned[key]

            # 4. plan and execute what this job owns
            if owned:
                with self._phase(job, "plan"):
                    groups = plan([unique[key] for key in owned],
                                  self.replay)
                with self._phase(job, "execute"):
                    self.backend.run(groups,
                                     partial(self._settle_group, job),
                                     sync=sync)
        except BaseException as exc:
            # an aborted resolution (a KeyboardInterrupt, a store write
            # error) retires every claim it still holds -- only this
            # thread resolves them -- or later requests for those specs
            # would join futures nobody resolves
            abandoned = [key for key, future in owned.items()
                         if not future.done()]
            self._count(failed=len(abandoned))
            for key in abandoned:
                self.inflight.fail(key, exc)
            raise

    def _settle_group(self, job: JobHandle, group: Sequence["RunSpec"],
                      result: Callable[[], list["RunSummary"]]) -> None:
        try:
            summaries = result()
        except Exception as exc:
            self._count(failed=len(group))
            for spec in group:
                self.inflight.fail(spec.spec_hash(), exc)
            return
        self._count(executed=1,
                    captured=1 if len(group) > 1 else 0,
                    replayed=len(group) - 1)
        with self._phase(job, "backfill"):
            for spec, summary in zip(group, summaries):
                key = spec.spec_hash()
                self._remember(key, summary)
                if self.store is not None:
                    self.store.put(spec, summary)
                # resolving the future delivers to this job and every
                # joiner
                self.inflight.resolve(key, summary)

    def _on_future(self, job: JobHandle, key: str, spec: "RunSpec",
                   future: Future) -> None:
        exc = future.exception()
        if exc is not None:
            job._deliver_failure(key, spec, exc)
        else:
            job._deliver(key, future.result())

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name,
                        getattr(self.stats, name) + delta)


def options_from_env(
        store_dir: Optional[Union[str, os.PathLike]] = None) -> dict:
    """Constructor options for a :class:`~repro.experiments.Runner` or
    :class:`ExperimentService` from the documented environment knobs:
    ``REPRO_CACHE_DIR`` locates the store (overridden by
    ``store_dir``), ``REPRO_STORE_MAX_ENTRIES`` /
    ``REPRO_STORE_MAX_BYTES`` bound it, ``REPRO_MAX_WORKERS`` sizes
    the worker pool, ``REPRO_SERIAL=1`` forces inline execution, and
    ``REPRO_REPLAY=1`` enables the capture-once/replay-rest fast
    path."""
    root = store_dir or os.environ.get("REPRO_CACHE_DIR") or None
    max_workers = os.environ.get("REPRO_MAX_WORKERS")
    return dict(
        store=store_from_env(root) if root else None,
        max_workers=int(max_workers) if max_workers else None,
        parallel=os.environ.get("REPRO_SERIAL", "") not in ("1", "true"),
        replay=os.environ.get("REPRO_REPLAY", "") in ("1", "true"),
    )


def service_from_env(
        store_dir: Optional[Union[str, os.PathLike]] = None
) -> ExperimentService:
    """An :class:`ExperimentService` configured by
    :func:`options_from_env`."""
    return ExperimentService(**options_from_env(store_dir))
