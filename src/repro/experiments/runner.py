"""Execute experiment grids: a synchronous call into ``repro.service``.

The :class:`Runner` takes :class:`~repro.experiments.spec.RunSpec`
grids and returns :class:`~repro.experiments.summary.RunSummary`
values, guaranteeing that each *unique* simulation executes exactly
once per process (in-memory memo), at most once per machine when an
on-disk store directory is configured, and that independent runs
execute concurrently in worker processes.

The Runner owns no mechanism of its own: it wraps one
:class:`~repro.service.ExperimentService` (``runner.service``) and
resolves every call through that service's pipeline -- memo, store,
in-flight table, plan, execute, backfill -- on the calling thread.
``runner.stats`` is the service's
:class:`~repro.service.ServiceStats`.

With ``replay=True`` (or ``REPRO_REPLAY=1``) the planner additionally
exploits the trace-driven fast path (:mod:`repro.sim.captrace`): specs
that differ only in replay-safe timing parameters form a *replay
class*, and each class runs as one execution-driven capture plus cheap
trace replays -- a figure's ``mem_cost``/``signal_cost`` sweep
simulates once instead of once per point.  Replay summaries carry
``timing="replay"`` and are stored under a distinct key, so they never
alias execution-driven numbers.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.experiments.summary import RunSummary
from repro.obs.metrics import MetricsRegistry
from repro.service.service import ExperimentService, options_from_env
from repro.service.store import ResultStore


class ExperimentResult:
    """Summaries of one executed :class:`ExperimentSpec`.

    Index with the member RunSpec (``result[spec]``) -- lookup is by
    content hash, so any spec describing the same simulation resolves.
    """

    def __init__(self, experiment: ExperimentSpec,
                 summaries: dict[str, RunSummary]) -> None:
        self.experiment = experiment
        self._by_hash = summaries

    def __getitem__(self, spec: RunSpec) -> RunSummary:
        try:
            return self._by_hash[spec.spec_hash()]
        except KeyError:
            raise KeyError(f"no run for {spec.describe()}") from None

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.spec_hash() in self._by_hash

    def __len__(self) -> int:
        return len(self._by_hash)

    def summaries(self) -> list[RunSummary]:
        """Summaries in experiment order (duplicates included)."""
        return [self[spec] for spec in self.experiment.runs]

    def find(self, **attrs) -> RunSummary:
        """The unique summary whose fields match ``attrs``."""
        matches = [s for s in self._by_hash.values()
                   if all(getattr(s, k) == v for k, v in attrs.items())]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} summaries match {attrs}")
        return matches[0]


class Runner:
    """Deduplicating, caching, parallel experiment executor.

    * duplicate specs within and across calls run once (in-memory memo);
    * with ``cache_dir`` (or an explicit ``store``), completed runs
      persist on disk keyed by spec hash in a content-addressed
      :class:`~repro.service.store.ResultStore`, so re-invocations
      (new processes) are served from the store;
    * independent specs execute in parallel worker processes via
      :class:`concurrent.futures.ProcessPoolExecutor` (``parallel=False``
      or ``max_workers=1`` forces in-process serial execution; a batch
      that plans to a single group always runs in-process);
    * with ``replay=True``, specs differing only in replay-safe timing
      parameters share one execution-driven capture and replay the
      rest through :class:`~repro.sim.captrace.ReplayMachine`
      (replayed summaries carry ``timing="replay"``).

    Every call releases the worker pool before it returns: batches run
    for seconds to minutes, so spawn cost is noise, and a long-lived
    Runner (the process-wide default) never holds idle worker
    processes between experiments.  A failing simulation neither
    discards the rest of its batch (completed runs are memoized and
    stored first) nor shadows other failures: one
    :class:`~repro.errors.ExperimentExecutionError` names every failed
    spec, so a retry only re-runs what failed.
    """

    def __init__(self, cache_dir: Optional[Union[str, os.PathLike]] = None,
                 max_workers: Optional[int] = None,
                 parallel: bool = True,
                 replay: bool = False,
                 store: Optional[ResultStore] = None,
                 registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        #: the service every call resolves through
        self.service = ExperimentService(
            store=store if store is not None else cache_dir or None,
            max_workers=max_workers, parallel=parallel, replay=replay,
            registry=registry, instance=instance)
        #: the on-disk layer (None without ``cache_dir``/``store``)
        self.store = self.service.store
        self.stats = self.service.stats

    def run(self, spec: RunSpec) -> RunSummary:
        """Run (or recall) a single spec."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Iterable[RunSpec]) -> list[RunSummary]:
        """Run a grid; returns summaries in input order.

        Each unique simulation is resolved once -- memo, then store,
        then execution -- and duplicates share the result.
        """
        specs = list(specs)
        result = self.run_experiment(ExperimentSpec("adhoc", tuple(specs)))
        return [result[spec] for spec in specs]

    def run_experiment(self, experiment: ExperimentSpec) -> ExperimentResult:
        """Run every member of an experiment grid."""
        return self.service.run_experiment(experiment)


# ----------------------------------------------------------------------
# Process-wide default runner (shared memo across analysis modules)
# ----------------------------------------------------------------------
_default_runner: Optional[Runner] = None


def runner_from_env() -> Runner:
    """A Runner configured by
    :func:`~repro.service.service.options_from_env`."""
    return Runner(**options_from_env())


def default_runner() -> Runner:
    """The process-wide shared Runner (built via :func:`runner_from_env`).

    Sharing one memo across the analysis drivers is what lets a single
    1P baseline serve Figure 4, Figure 5, and Table 1 in one process.
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = runner_from_env()
    return _default_runner


def set_default_runner(runner: Optional[Runner]) -> None:
    """Replace (or with None, reset) the process-wide default Runner."""
    global _default_runner
    _default_runner = runner
