"""The benchmark's workloads: paper_exec, sweep_replay, serve_mixed.

Each workload is a sequence of *passes*; a pass is a fixed list of
requests, and a request is one grid of RunSpecs handed to the
program's front door (a serial ``Runner`` or a serial
``ExperimentService`` with this one client thread).  The seed fixes
the order of requests and of the specs inside them, and, for
serve_mixed, the whole request stream.  Every simulation builds a
fresh ``MemoryHierarchy``, so simulated caches start empty.

Why these three (see README.md for the metric map):

* paper_exec -- the paper's execution-driven artifacts (a Figure 4
  slice under ``fixed`` timing, the Figure-pipeline FU sweep under
  ``scoreboard``); the simulator hot loop does nearly all the work.
* sweep_replay -- a timing-only design-space sweep through the replay
  fast path plus critical-path analysis; ``sim.captrace`` and
  ``obs.critpath`` work here and almost nowhere else.
* serve_mixed -- a closed-loop client mixing memo hits, store hits and
  misses against a bounded store; the only workload where the service
  and experiment layers set the latency.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import shutil
import time
from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.figure4 import figure4_experiment
from repro.analysis.figure_pipeline import figure_pipeline_experiment
from repro.experiments import ExperimentSpec, Runner, RunSpec, RunSummary
from repro.obs.critpath import analyze_result
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS
from repro.service import ExperimentService, ResultStore
from repro.sim.captrace import ReplayMachine
from repro.systems import Session, get_system
from repro.workloads.base import REGISTRY

import checks
from hostspeed import HostSpeed, main_thread_signals
from probe import Tracer

#: the three Figure 4 systems, as (system, config)
SYSTEMS = (("1p", "smp1"), ("misp", "1x8"), ("smp", "smp8"))

# -- paper_exec --------------------------------------------------------
PAPER_SCALE = 0.05
#: both suites; working sets that fit the modelled L2 (dense_mvm_sym,
#: sparse_mvm_trans) and ones far larger (gauss, swim, equake, art)
PAPER_WORKLOADS = ("gauss", "dense_mvm_sym", "sparse_mvm_trans", "swim",
                   "equake", "art")

# -- sweep_replay ------------------------------------------------------
SWEEP_SCALE = 0.05
#: replay classes: (workload, system, config) captured at the defaults
SWEEP_CLASSES = (("gauss", "smp", "smp8"), ("gauss", "misp", "1x8"),
                 ("RayTracer", "misp", "1x8"), ("RayTracer", "smp", "smp8"))
MEM_COSTS = (15, 30, 60, 120, 240, 480, 960, 1920)
SIGNAL_COSTS = (0, 500, 1000, 2500, 5000, 10000, 20000, 40000)
#: cache-geometry points: replay re-drives the access stream
L2_SIZES = (128 * 1024, 1024 * 1024)
GEOMETRY_MEM_COSTS = (60, 240)
#: sweep points whose replayed cycles are checked against execution;
#: smp/gauss at mem_cost=960 is the known bad corner
HELD_OUT = (("gauss", "smp", "smp8", {"mem_cost": 960}),
            ("gauss", "smp", "smp8", {"l2_size": 128 * 1024}),
            ("RayTracer", "misp", "1x8", {"signal_cost": 20000}))
#: the classes the critical-path analysis runs on
ANALYZED = (("gauss", "smp", "smp8"), ("RayTracer", "misp", "1x8"))

# -- serve_mixed -------------------------------------------------------
# The request mix is a synthetic assumption, not a measured one: nothing
# in the repository records how the service is used.  Each number below
# is fixed by the one rule in its comment.
SERVE_SCALE = 0.05
#: the figure grid set-up fills the store with: six workloads on the
#: three Figure 4 systems
HOT_WORKLOADS = ("ADAt", "dense_mmm", "dense_mvm", "sparse_mvm",
                 "sparse_mvm_sym", "RayTracer")
#: a miss request is one new ``mem_cost`` point on the two systems a
#: MISP-vs-SMP comparison runs; reference.json holds every such spec
MISS_WORKLOAD = "sparse_mvm"
MISS_SYSTEMS = (("misp", "1x8"), ("smp", "smp8"))
MISS_MEM_COSTS = range(61, 1061)
#: a store request re-reads as many entries as the figure grid holds:
#: the most recently used ones
STORE_REQUEST_SIZE = len(HOT_WORKLOADS) * len(SYSTEMS)
#: twice a store request: the half a store request reads is never the
#: half eviction takes from (the store orders entries by file mtime,
#: which a coarse-clock file system may tie), and set-up fills only the
#: one half, so a pass's new specs evict
STORE_BOUND = 2 * STORE_REQUEST_SIZE
#: one block of the mix, in 20ths: misses are 2 (10%), so the p99 falls
#: inside the miss latencies, at their 90th percentile, not on the
#: slowest one; memo requests (the figure grid again, to the service
#: that served it) are 5 (a quarter), so memo < 50% < memo + store and
#: the median request is a store hit; store requests are the rest
BLOCK = ("memo",) * 5 + ("store",) * 13 + ("miss",) * 2
#: a pass is the figure grid, then PASS_BLOCKS shuffled blocks: about a
#: second at the reference host speed, so a 30 s run has ten or more
#: passes to take medians over even on a host at half that speed
PASS_BLOCKS = 10
#: a pass draws one new mem_cost from each of this many equal slices of
#: MISS_MEM_COSTS, so every pass and seed executes a like spread of them
MISSES_PER_PASS = PASS_BLOCKS * BLOCK.count("miss")


def sweep_spec(workload: str, system: str, config: str,
               **changes) -> RunSpec:
    params = DEFAULT_PARAMS.with_changes(**changes) if changes \
        else DEFAULT_PARAMS
    return RunSpec(workload, system, config, scale=SWEEP_SCALE,
                   params=params)


def class_points(workload: str, system: str, config: str) -> list[RunSpec]:
    """The sweep points of one replay class, its base excluded."""
    points = [sweep_spec(workload, system, config, mem_cost=m,
                         signal_cost=s)
              for m in MEM_COSTS for s in SIGNAL_COSTS]
    points += [sweep_spec(workload, system, config, l2_size=size,
                          mem_cost=m)
               for size in L2_SIZES for m in GEOMETRY_MEM_COSTS]
    return [p for p in points if p.params != DEFAULT_PARAMS]


def held_out_specs() -> list[RunSpec]:
    return [sweep_spec(w, s, c, **changes) for w, s, c, changes in HELD_OUT]


def miss_grid(mem_cost: int) -> list[RunSpec]:
    params = DEFAULT_PARAMS.with_changes(mem_cost=mem_cost)
    return [RunSpec(MISS_WORKLOAD, system, config, scale=SERVE_SCALE,
                    params=params) for system, config in MISS_SYSTEMS]


def miss_universe() -> list[RunSpec]:
    return [spec for m in MISS_MEM_COSTS for spec in miss_grid(m)]


def hot_specs() -> list[RunSpec]:
    return list(ExperimentSpec.grid("hot", HOT_WORKLOADS, systems=SYSTEMS,
                                    scale=SERVE_SCALE).runs)


def paper_requests() -> list[tuple[RunSpec, ...]]:
    """Figure 4 bar groups, then Figure-pipeline FU points."""
    fig4 = figure4_experiment(PAPER_WORKLOADS, scale=PAPER_SCALE).runs
    pipe = figure_pipeline_experiment(scale=PAPER_SCALE).runs
    return [tuple(runs[i:i + 3]) for runs in (fig4, pipe)
            for i in range(0, len(runs), 3)]


def execution_specs() -> list[RunSpec]:
    """Every spec any workload executes (the reference digest set)."""
    specs = [s for grid in paper_requests() for s in grid]
    specs += [sweep_spec(*c) for c in SWEEP_CLASSES]
    specs += held_out_specs() + hot_specs() + miss_universe()
    return specs


@dataclass
class PassLog:
    """What one pass did; ``wall`` excludes the output checks."""

    index: int
    tracer: Optional[Tracer] = None
    traced: bool = False
    #: perf_counter() when the pass started and ended
    start: float = 0.0
    end: float = 0.0
    #: host seconds of the pass, less the untimed ones and the samples'
    wall: float = 0.0
    #: (submit, first result, done) perf_counter() instants per request
    requests: list = field(default_factory=list)
    #: (spec, summary, expected-or-None) for the checker
    delivered: list = field(default_factory=list)
    #: (what, reason) for operations that raised
    failures: list = field(default_factory=list)
    #: extra checks: (what, problems)
    checks: list = field(default_factory=list)
    #: (start, end) of what the harness did between requests (excluded
    #: from wall)
    untimed: list = field(default_factory=list)
    #: exact work counts
    counts: Counter = field(default_factory=Counter)
    #: host seconds the workload measured itself, by metric name
    times: Counter = field(default_factory=Counter)
    #: simulated ops of the delivered summaries
    ops: int = 0
    #: digest of the delivered outputs (first two passes only)
    outputs: str = ""
    #: set by settle(), at the reference host speed: the pass seconds,
    #: and per request the submit-to-done and submit-to-first-result ms
    wall_ref: float = 0.0
    latency_ms: array = field(default_factory=lambda: array("d"))
    first_ms: array = field(default_factory=lambda: array("d"))

    def settle(self, speed: HostSpeed, keep: bool) -> None:
        """Reduce a checked pass to its figures at the reference host
        speed, dropping what would make memory grow with the number of
        passes: the summaries, the raw records and, unless ``keep``,
        the counts and spans."""
        self.wall = speed.work(self.start, self.end) - sum(
            speed.work(t0, t1) for t0, t1 in self.untimed)
        self.wall_ref = speed.scale(self.wall, self.start, self.end)
        for t0, first, done in self.requests:
            self.latency_ms.append(
                speed.scale(speed.work(t0, done), t0, done) * 1e3)
            self.first_ms.append(
                speed.scale(speed.work(t0, first), t0, first) * 1e3)
        self.delivered, self.requests = [], []
        if not keep:
            self.counts, self.times, self.tracer = Counter(), Counter(), None

    def request(self, t0: float, first: float, done: float) -> None:
        self.requests.append((t0, first, done))

    def span(self, name: str, layer: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)

    def spawning(self):
        """Context for calls that start the threads a job runs in."""
        return main_thread_signals()

    def count_executed(self, summary: RunSummary) -> None:
        """Exact work of one execution-driven simulation."""
        m = summary.mem
        c = self.counts
        c["core.ops"] += summary.utilization.ops_executed
        c["mem.l1_accesses"] += m.l1_hits + m.l1_misses
        c["mem.l2_accesses"] += m.l2_hits + m.l2_misses
        c["mem.mem_accesses"] += m.mem_accesses
        c["mem.tlb_misses"] += m.tlb_misses


def _timed(log: PassLog, grid, call) -> Optional[list]:
    """Run one request, logging its latency; failures are recorded.

    A full garbage collection first, outside the timing, lets every
    request start from the same heap, so peak memory does not depend
    on the seeded request order."""
    t0 = time.perf_counter()
    gc.collect()
    log.untimed.append((t0, time.perf_counter()))
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed request is a failed operation
        for spec in grid:
            log.failures.append((checks.label(spec), repr(exc)))
        return None
    done = time.perf_counter()
    log.request(t0, done, done)
    return out


def _add_stats(counts: Counter, stats, fields) -> None:
    for name in fields:
        counts[f"runner.{name}"] += getattr(stats, name)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: summaries delivered during set-up, checked once
        self.setup_delivered: list = []

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def setup(self) -> None:
        """Build inputs and warm lazy state."""

    def prepare(self) -> None:
        """Reset inputs before a pass, outside the timing."""

    def run_pass(self, log: PassLog) -> None:
        raise NotImplementedError

    def replayed_held_out(self) -> Optional[dict]:
        """Replayed held-out summaries from the timed passes, if the
        workload produces them itself."""
        return None

    def close(self) -> None:
        pass


class PaperExec(Workload):
    name = "paper_exec"

    def setup(self) -> None:
        self.requests = paper_requests()
        for workload in PAPER_WORKLOADS:
            REGISTRY.build(workload, PAPER_SCALE)
        warm = [RunSpec("RayTracer", system, config, scale=0.02)
                for system, config in SYSTEMS]
        warm.append(RunSpec("RayTracer", "misp", "1x8", scale=0.02,
                            timing_model="scoreboard"))
        Runner(parallel=False).run_many(warm)

    def run_pass(self, log: PassLog) -> None:
        rng = self.rng(log.index)
        order = list(self.requests)
        rng.shuffle(order)
        runner = Runner(parallel=False)
        for grid in order:
            grid = rng.sample(grid, len(grid))
            got = _timed(log, grid, lambda: runner.run_many(grid))
            for spec, summary in zip(grid, got or ()):
                log.delivered.append((spec, summary, None))
                log.count_executed(summary)
        _add_stats(log.counts, runner.stats,
                   ("executed", "captured", "replayed", "memo_hits"))


class SweepReplay(Workload):
    name = "sweep_replay"

    def setup(self) -> None:
        self.grids = {c: class_points(*c) for c in SWEEP_CLASSES}
        self.held_out = {checks.label(s) for s in held_out_specs()}
        self.replayed: dict[str, RunSummary] = {}
        warm = [RunSpec("RayTracer", "smp", "smp8", scale=0.02,
                        params=DEFAULT_PARAMS.with_changes(mem_cost=m))
                for m in (60, 120)]
        Runner(parallel=False, replay=True).run_many(warm)
        self._analyze(PassLog(-1), warm[0])

    def run_pass(self, log: PassLog) -> None:
        rng = self.rng(log.index)
        items = [("sweep", c) for c in SWEEP_CLASSES]
        items += [("analyze", c) for c in ANALYZED]
        rng.shuffle(items)
        runner = Runner(parallel=False, replay=True)
        for kind, cls in items:
            base = sweep_spec(*cls)
            if kind == "analyze":
                _timed(log, [base], lambda: self._analyze(log, base))
                continue
            # the base goes first: it is the one the class captures
            grid = [base] + rng.sample(self.grids[cls],
                                       len(self.grids[cls]))
            got = _timed(log, grid, lambda: runner.run_many(grid))
            for spec, summary in zip(grid, got or ()):
                log.delivered.append((spec, summary, None))
                if summary.timing == "execute":
                    log.count_executed(summary)
                elif checks.label(spec) in self.held_out:
                    self.replayed[checks.label(spec)] = summary
        _add_stats(log.counts, runner.stats,
                   ("executed", "captured", "replayed", "memo_hits"))

    def _analyze(self, log: PassLog, spec: RunSpec) -> None:
        """Capture, analyse the critical path, and replay at the
        capture's own params (which must reproduce it exactly)."""
        backend = get_system(spec.system)
        workload = REGISTRY.build(spec.workload, spec.scale)
        run = Session(backend, spec.config).params(spec.params) \
            .capture().run(workload)
        summary = backend.summarize(run, spec)
        run.trace.snapshot = summary
        t0 = time.perf_counter()
        with log.span("analyze_result", "critpath"):
            doc = analyze_result(run)
        log.times["critpath.analyze_s"] += time.perf_counter() - t0
        log.counts["critpath.runs"] += 1
        replay = ReplayMachine(run.trace).run(spec=spec)
        log.delivered.append((spec, summary, None))
        log.count_executed(summary)
        problems = []
        if checks.digest(replay) != checks.digest(summary):
            problems.append("replay at the capture params differs from "
                            "execution")
        if doc["wall_cycles"] != summary.cycles:
            problems.append(f"critical-path wall {doc['wall_cycles']} != "
                            f"cycles {summary.cycles}")
        log.checks.append((f"replay-exact {checks.label(spec)}", problems))

    def replayed_held_out(self) -> Optional[dict]:
        return self.replayed


class ServeMixed(Workload):
    """Every pass starts from the store set-up filled, with a new
    long-lived service, so what a pass does and holds does not depend
    on how many passes ran before it."""

    name = "serve_mixed"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.root = workdir / f"store-{os.getpid()}"
        self.filled = self.root / "filled"
        self.live = self.root / "pass"

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.stream = random.Random(f"{self.name}/{self.seed}")
        self.hot = hot_specs()
        store = ResultStore(self.filled, max_entries=STORE_BOUND,
                            registry=MetricsRegistry())
        log = PassLog(-1)
        with ExperimentService(store=store, parallel=False,
                               registry=MetricsRegistry()) as service:
            self._request(log, service, self.hot, {})
        self.setup_delivered = log.delivered
        #: spec hash -> the checked summary set-up stored for it
        self.hot_summaries = {s.spec_hash: s for _, s, _ in log.delivered}

    def prepare(self) -> None:
        # outside the timing: reset the store to what set-up left
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.filled, self.live)

    def _request(self, log: PassLog, service: ExperimentService,
                 grid: list[RunSpec], canonical: dict) -> None:
        """One request; ``canonical`` maps a spec hash to the summary
        first delivered for it, which any later delivery must equal."""
        by_hash = {s.spec_hash(): s for s in grid}
        t0 = time.perf_counter()
        first = None
        got = []
        try:
            with log.span("submit", "service"), log.spawning():
                job = service.submit(ExperimentSpec("request", tuple(grid)))
            # the client's wait overlaps the job thread's spans; it is
            # no layer's work (see run.layer_metrics)
            with log.span("as_completed", "client"):
                for summary in job.as_completed():
                    if first is None:
                        first = time.perf_counter()
                    got.append(summary)
        except Exception as exc:  # a failed request is a failed operation
            for spec in grid:
                log.failures.append((checks.label(spec), repr(exc)))
            return
        done = time.perf_counter()
        log.request(t0, first or done, done)
        for spec, exc in job.failures:
            log.failures.append((checks.label(spec), repr(exc)))
        if len(got) + len(job.failures) != len(by_hash):
            log.failures.append(("request", f"{len(got)} of "
                                 f"{len(by_hash)} summaries delivered"))
        for summary in got:
            spec = by_hash[summary.spec_hash]
            prior = canonical.get(summary.spec_hash)
            log.delivered.append((spec, summary, prior))
            if prior is None:
                canonical[summary.spec_hash] = summary
                log.count_executed(summary)
        if log.tracer is not None:
            for phase, seconds in job.metrics()["phases"].items():
                log.times[f"service.{phase}_s"] += seconds

    def run_pass(self, log: PassLog) -> None:
        rng = self.stream
        canonical = dict(self.hot_summaries)
        store = ResultStore(self.live, max_entries=STORE_BOUND,
                            registry=MetricsRegistry())
        # private registries: services made per pass or per request
        # must not grow the process-wide one
        service = ExperimentService(store=store, parallel=False,
                                    registry=MetricsRegistry())
        #: spec hash -> spec, least recently used store entry first
        recent: OrderedDict[str, RunSpec] = OrderedDict()

        def used(grid: list[RunSpec]) -> None:
            for spec in grid:
                recent[spec.spec_hash()] = spec
                recent.move_to_end(spec.spec_hash())
            while len(recent) > STORE_BOUND:
                recent.popitem(last=False)

        fresh = Counter()
        width = len(MISS_MEM_COSTS) // MISSES_PER_PASS
        costs = [rng.choice(MISS_MEM_COSTS[i * width:(i + 1) * width])
                 for i in range(MISSES_PER_PASS)]
        rng.shuffle(costs)
        new_costs = iter(costs)
        # the figure grid opens the pass: served by the store, it fills
        # the long-lived service's memo
        self._request(log, service, self.hot, canonical)
        used(self.hot)
        for _ in range(PASS_BLOCKS):
            block = list(BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "memo":
                    self._request(log, service, self.hot, canonical)
                elif kind == "store":
                    grid = list(recent.values())[-STORE_REQUEST_SIZE:]
                    rng.shuffle(grid)
                    reader = ExperimentService(store=store, parallel=False,
                                               registry=MetricsRegistry())
                    self._request(log, reader, grid, canonical)
                    reader.close()
                    fresh.update(reader.stats.as_dict())
                    used(grid)
                else:
                    grid = miss_grid(next(new_costs))
                    rng.shuffle(grid)
                    self._request(log, service, grid, canonical)
                    used(grid)
        service.close()
        totals = service.stats.as_dict()
        for name in ("executed", "captured", "replayed", "memo_hits"):
            log.counts[f"runner.{name}"] += totals[name] + fresh[name]
        for name in ("hits", "misses", "evictions", "puts"):
            log.counts[f"store.{name}"] += getattr(store.stats, name)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "serve_mixed":
        return ServeMixed(seed, workdir)
    return {"paper_exec": PaperExec, "sweep_replay": SweepReplay}[name](seed)


def replay_error(replayed: Optional[dict], checker: checks.Checker) -> float:
    """Largest |replayed - executed| / executed cycles over HELD_OUT, %.

    Executes the held-out points (and, when ``replayed`` is None,
    first captures their classes and replays them)."""
    specs = held_out_specs()
    if replayed is None:
        # each base first: the replay planner captures a class's first
        # member (the Runner drops the repeated bases)
        grid = []
        for spec in specs:
            grid += [sweep_spec(spec.workload, spec.system, spec.config), spec]
        got = Runner(parallel=False, replay=True).run_many(grid)
        replayed = {}
        for spec, summary in zip(grid, got):
            if summary.timing == "replay":
                replayed[checks.label(spec)] = summary
            checker.summary(spec, summary)
    executed = Runner(parallel=False).run_many(specs)
    worst = 0.0
    for spec, summary in zip(specs, executed):
        checker.summary(spec, summary)
        replay = replayed.get(checks.label(spec))
        if replay is None:
            checker.record(f"held-out {checks.label(spec)}",
                           ["no replayed summary"])
            continue
        err = abs(replay.cycles - summary.cycles) / summary.cycles * 100.0
        worst = max(worst, err)
    return worst
