"""The execution layer: policy-free simulation running.

:func:`execute` is the single entry point that maps a spec to a
finished summary; it is a module-level function so
``ProcessPoolExecutor`` can ship it to workers.  The layer never
decides *what* to run together -- :func:`~repro.service.planner.plan`
hands it task groups (singletons, or capture-plus-replay classes) and
:class:`ExecutionBackend` runs them, inline or in its process pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import repro.workloads  # noqa: F401  -- populates the workload registry
from repro.sim.captrace import ReplayMachine
from repro.systems import Session, get_system
from repro.workloads.base import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary


def execute(spec: "RunSpec") -> "RunSummary":
    """Run one spec to completion and return its plain-data summary.

    Deterministic: the simulation is a pure function of the spec, so
    equal specs produce equal summaries in any process.  The system is
    resolved purely through :data:`repro.systems.SYSTEM_REGISTRY`, so
    any registered backend -- built-in or custom -- executes the same
    way.  (Backends registered at runtime exist only in the
    registering process; run them through a serial Runner.)
    """
    backend = get_system(spec.system)
    workload = REGISTRY.build(spec.workload, spec.scale, **dict(spec.args))
    run = (Session(backend, spec.config)
           .params(spec.params).policy(spec.policy).limit(spec.limit)
           .background(spec.background).timing(spec.timing_model)
           .run(workload))
    return backend.summarize(run, spec)


def execute_captured(spec: "RunSpec"):
    """Run one spec execution-driven with trace capture.

    Returns ``(summary, trace)`` where ``trace`` is a
    :class:`~repro.sim.captrace.CapturedTrace` with the summary
    attached as its snapshot (everything picklable, so workers can
    ship it back).
    """
    backend = get_system(spec.system)
    workload = REGISTRY.build(spec.workload, spec.scale, **dict(spec.args))
    run = (Session(backend, spec.config)
           .params(spec.params).policy(spec.policy).limit(spec.limit)
           .background(spec.background).timing(spec.timing_model)
           .capture().run(workload))
    summary = backend.summarize(run, spec)
    trace = run.trace
    trace.snapshot = summary
    return summary, trace


def execute_replay_group(specs: Sequence["RunSpec"]) -> list["RunSummary"]:
    """Run one replay class: capture ``specs[0]``, replay the rest.

    Returns summaries in input order; the first is execution-driven
    (``timing="execute"``), the rest trace-driven re-pricings of it
    (``timing="replay"``).
    """
    summary, trace = execute_captured(specs[0])
    replayer = ReplayMachine(trace)
    return [summary] + [replayer.run(spec=spec) for spec in specs[1:]]


def run_group(group: Sequence["RunSpec"]) -> list["RunSummary"]:
    """Run one planned task group (singleton or replay class)."""
    if len(group) > 1:
        return execute_replay_group(group)
    return [execute(group[0])]


class ExecutionBackend:
    """Runs planned groups: inline, or in a process pool.

    With ``parallel=False`` every group runs inline on the calling
    thread (deterministic, picklability-free, and registry-local
    backends/timing models stay visible).  Otherwise:

    * a *synchronous* batch -- its caller only waits for it, as a
      :class:`~repro.experiments.Runner` call does -- runs a lone group
      inline, so a single-spec request never spawns workers, and a
      larger batch in a pool of its own, sized to the batch and shut
      down before :meth:`run` returns, so no worker idles between
      calls;
    * a background job's groups go to one persistent pool of
      ``max_workers`` shared by every job, until :meth:`close`
      releases it.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 parallel: bool = True,
                 run_group_fn: Optional[Callable] = None) -> None:
        self.max_workers = max_workers or os.cpu_count() or 1
        self.parallel = parallel and self.max_workers > 1
        self.run_group = run_group_fn or run_group
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def run(self, groups: Sequence[Sequence["RunSpec"]],
            settle: Callable[[Sequence["RunSpec"], Callable], None],
            sync: bool = False) -> None:
        """Run every group; ``settle(group, result)`` is called on this
        thread as each finishes, where ``result()`` returns the group's
        summaries or raises its failure."""
        if not self.parallel or (sync and len(groups) < 2):
            for group in groups:
                settle(group, partial(self.run_group, group))
        elif sync:
            workers = min(self.max_workers, len(groups))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                self._settle_all(self._submit(pool, groups), settle)
        else:
            with self._lock:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers)
                futures = self._submit(self._pool, groups)
            self._settle_all(futures, settle)

    def _submit(self, pool: ProcessPoolExecutor,
                groups: Sequence[Sequence["RunSpec"]]
                ) -> dict[Future, Sequence["RunSpec"]]:
        return {pool.submit(self.run_group, group): group
                for group in groups}

    @staticmethod
    def _settle_all(futures: dict[Future, Sequence["RunSpec"]],
                    settle: Callable) -> None:
        for future in as_completed(futures):
            settle(futures[future], future.result)

    def close(self) -> None:
        """Shut the shared pool down (running groups finish first); the
        next background job starts a new one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
