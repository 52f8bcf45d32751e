"""Benchmark of the MISP simulator: one workload per invocation.

    python3 perfbench/run.py --workload paper_exec --seed 1 \\
        --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``).
After set-up, passes of the workload run until ``--seconds`` have
elapsed (at least ``MIN_PASSES``; with ``--trace 1`` untraced and
traced passes alternate).  With ``--trace 0`` the run then starts
``SETUP_REPS - 1`` more processes that only set up, so ``setup_s`` is
the median of that many cold set-ups.  Every delivered summary is
checked (see checks.py).  End-to-end times are put at a reference host
speed by samples of a calibration loop taken all through the run (see
hostspeed.py).

Prints readable progress lines and, last, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced passes only),
``--trace 1`` the per-layer metrics of the first traced pass, plus the
tracing overhead.  See README.md for what each one means.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_SAMPLE_S, HostSpeed  # noqa: E402
from probe import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space inside the checkout (the store, the span trace)
OUT = ROOT / ".perfbench_out"
#: setup_s is the median of this many cold set-ups, one per process
SETUP_REPS = 3
#: every run makes at least this many passes, and peak_rss_mb is read
#: when the last of them ends: after a fixed amount of work, so a faster
#: program, which fits more passes into --seconds, does not read higher
MIN_PASSES = 3

#: name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "host_us_per_op": "us", "replay_err_pct": "%", "req_p50_ms": "ms",
    "req_p99_ms": "ms", "first_result_p50_ms": "ms",
}

_COUNTS = ("engine.events", "core.ops", "mem.l1_accesses", "mem.l2_accesses",
           "mem.mem_accesses", "mem.tlb_misses", "captrace.captures",
           "captrace.capture_events", "captrace.replays",
           "captrace.profile_builds", "critpath.runs", "runner.executed",
           "runner.captured", "runner.replayed", "runner.memo_hits",
           "store.hits", "store.misses", "store.evictions", "bench.requests",
           "bench.summaries")
_SERVICE_PHASES = ("submit", "memo", "store", "plan", "execute", "backfill")

#: name -> unit; every workload reports all of them (0 where a layer
#: does no work)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in _COUNTS},
    "workloads.build_s": "s",
    "captrace.capture_overhead_s": "s", "captrace.replay_s": "s",
    "captrace.replay_events_per_s": "1/s", "captrace.profile_s": "s",
    "captrace.profile_reuse": "ratio", "critpath.analyze_s": "s",
    "experiments.summary_decode_s": "s",
    **{f"service.{phase}_s": "s" for phase in _SERVICE_PHASES},
    "store.get_p50_ms": "ms", "store.put_p50_ms": "ms",
    "store.hit_ratio": "ratio",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
    "host.calibration_ms": "ms",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper_exec", "sweep_replay", "serve_mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print setup_s and exit (the extra cold set-ups)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def instrument(tracer, log) -> None:
    """Wrap the program's entry points for one traced pass."""
    from repro.experiments import RunSummary
    from repro.service import ResultStore
    from repro.sim.captrace import ReplayMachine
    from repro.systems import Session
    from repro.workloads.base import REGISTRY

    counts = log.counts

    def on_run(sp, result, *args):
        events = result.machine.engine.events_executed
        sp.attrs.update(run=f"{result.workload}/{result.system}:"
                            f"{result.config}",
                        events=events, captured=result.trace is not None)
        counts["engine.events"] += events
        if result.trace is not None:
            counts["captrace.captures"] += 1
            counts["captrace.capture_events"] += result.trace.num_events

    def on_replay(sp, result, machine, *args):
        sp.attrs["events"] = machine.trace.num_events
        counts["captrace.replays"] += 1

    # a profile is built when the machine's per-geometry cache grows
    def before_profile(sp, machine, *args):
        sp.attrs["cached"] = len(machine._profiles)

    def after_profile(sp, result, machine, *args):
        sp.attrs["built"] = len(machine._profiles) > sp.attrs["cached"]
        counts["captrace.profile_builds"] += sp.attrs["built"]

    tracer.wrap(REGISTRY, "build", "REGISTRY.build", "workloads")
    tracer.wrap(Session, "run", "Session.run", "other", sample=True,
                on_exit=on_run)
    tracer.wrap(ReplayMachine, "run", "ReplayMachine.run", "captrace",
                sample=True, on_exit=on_replay)
    tracer.wrap(ReplayMachine, "_access_profile", "ReplayMachine.profile",
                "mem", sample=True, on_enter=before_profile,
                on_exit=after_profile)
    tracer.wrap(ResultStore, "get", "ResultStore.get", "service")
    tracer.wrap(ResultStore, "put", "ResultStore.put", "service")
    tracer.wrap(RunSummary, "from_dict", "RunSummary.from_dict",
                "experiments")
    tracer.start_sampler()


def layer_metrics(log, capture_overhead: float) -> dict:
    """Per-layer metrics of one traced pass."""
    tracer = log.tracer
    # the client's wait in ``as_completed`` (layer "client") is left
    # out: the job thread's spans and samples hold that time
    own = tracer.self_seconds()
    m = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    for name in _COUNTS:
        m[name] = log.counts.get(name, 0)
    total = lambda name: sum(sp.duration for sp in tracer.named(name))
    m["workloads.build_s"] = total("REGISTRY.build")
    profile_s = total("ReplayMachine.profile")
    replay_s = total("ReplayMachine.run") - profile_s
    replays = m["captrace.replays"]
    events = sum(sp.attrs["events"]
                 for sp in tracer.named("ReplayMachine.run"))
    m["captrace.capture_overhead_s"] = capture_overhead
    m["captrace.replay_s"] = replay_s
    m["captrace.replay_events_per_s"] = events / replay_s if replay_s else 0
    m["captrace.profile_s"] = profile_s
    m["captrace.profile_reuse"] = (
        (replays - m["captrace.profile_builds"]) / replays if replays else 0)
    m["critpath.analyze_s"] = log.times.get("critpath.analyze_s", 0.0)
    m["experiments.summary_decode_s"] = total("RunSummary.from_dict")
    for phase in _SERVICE_PHASES:
        m[f"service.{phase}_s"] = log.times.get(f"service.{phase}_s", 0.0)
    for op in ("get", "put"):
        ms = [sp.duration * 1e3 for sp in tracer.named(f"ResultStore.{op}")]
        m[f"store.{op}_p50_ms"] = statistics.median(ms) if ms else 0
    lookups = m["store.hits"] + m["store.misses"]
    m["store.hit_ratio"] = m["store.hits"] / lookups if lookups else 0
    return m


def capture_overhead(traffic, tracer) -> float:
    """Capture run minus plain run of each captured sweep base."""
    from repro.service.executor import execute
    from probe import Tracer

    captures: dict = {}
    for sp in tracer.named("Session.run"):
        if sp.attrs.get("captured"):
            captures.setdefault(sp.attrs["run"], []).append(sp.duration)
    plain = Tracer()
    instrument(plain, traffic.PassLog(-1, plain))
    try:
        for cls in traffic.SWEEP_CLASSES:
            execute(traffic.sweep_spec(*cls))
    finally:
        plain.uninstall()
    overhead = 0.0
    for sp in plain.named("Session.run"):
        runs = captures.get(sp.attrs["run"])
        if runs:
            overhead += statistics.mean(runs) - sp.duration
    return overhead


def output_digest(log, checks) -> str:
    items = sorted((checks.label(spec), checks.digest(summary))
                   for spec, summary, _ in log.delivered)
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:20]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    speed = HostSpeed()
    speed.start()
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import traffic
    from probe import Tracer

    OUT.mkdir(exist_ok=True)
    workload = traffic.make(args.workload, args.seed, OUT)
    try:
        return run(args, workload, speed, checks, traffic, Tracer)
    finally:
        speed.stop()
        workload.close()


def cold_setup(args) -> float:
    """``setup_s`` of a new process that only sets up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run(args, workload, speed, checks, traffic, Tracer) -> int:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    # set-up: from this file's first line to the end of the first (cold)
    # set-up, the imports included
    t0 = time.perf_counter()
    workload.setup()
    end = time.perf_counter()
    setup_s = speed.scale(speed.work(_T0, end), _T0, end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"setup: import {speed.work(_T0, t0):.3f} s + set-up "
          f"{speed.work(t0, end):.3f} s (host seconds)")
    checker = checks.Checker(checks.load_reference())
    for spec, summary, expected in workload.setup_delivered:
        checker.summary(spec, summary, expected)

    #: the pass whose counts and spans are reported: the first traced
    #: one, or the first one
    shown = 1 if args.trace else 0
    logs = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(logs) % 2 == 1
        workload.prepare()
        log = traffic.PassLog(len(logs), Tracer() if traced else None)
        log.traced = traced
        if traced:
            instrument(log.tracer, log)
        log.start = time.perf_counter()
        try:
            workload.run_pass(log)
        finally:
            log.end = time.perf_counter()
            if traced:
                log.tracer.uninstall()
        logs.append(log)
        for spec, summary, expected in log.delivered:
            checker.summary(spec, summary, expected)
        for what, reason in log.failures:
            checker.record(what, [reason])
        for what, problems in log.checks:
            checker.record(what, problems)
        log.counts["bench.requests"] = len(log.requests)
        log.counts["bench.summaries"] = len(log.delivered)
        log.ops = sum(s.utilization.ops_executed
                      for _, s, _ in log.delivered)
        if log.index < 2:
            log.outputs = output_digest(log, checks)
        tally = f"{len(log.requests)} requests, {len(log.delivered)} summaries"
        log.settle(speed, keep=log.index == shown)
        print(f"pass {log.index}: {log.wall:.3f} s, {tally}"
              f"{' (traced)' if traced else ''}", flush=True)
        if len(logs) == MIN_PASSES:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        done = time.perf_counter() - start >= args.seconds
        if done and len(logs) >= MIN_PASSES:
            break

    plain = [log for log in logs if not log.traced]
    replay_err = traffic.replay_error(workload.replayed_held_out(), checker)

    first = logs[shown]
    print("caches: every simulation starts with empty simulated caches "
          "(a fresh MemoryHierarchy per run)")
    print("model: no hardware reference exists, so the model is "
          "unvalidated; replay_err_pct is replay against execution-driven "
          "simulation")
    print("counts " + json.dumps(dict(sorted(
        (k, v) for k, v in first.counts.items())), separators=(",", ":")))
    print(f"outputs {first.outputs}")
    for reason in checker.reasons:
        print(f"FAILED {reason}")

    calibration_ms = statistics.median(speed.seconds) * 1e3
    print(f"host: {len(speed.seconds)} speed samples, median "
          f"{calibration_ms:.3f} ms (reference "
          f"{REFERENCE_SAMPLE_S * 1e3:g} ms), raw pass seconds "
          f"{', '.join(f'{log.wall:.3f}' for log in logs)}")

    if args.trace:
        overhead = 0.0
        if args.workload == "sweep_replay":
            overhead = capture_overhead(traffic, first.tracer)
        metrics = layer_metrics(first, overhead)
        untraced = statistics.median(log.wall_ref for log in plain)
        extra = statistics.median(log.wall_ref for log in logs
                                  if log.traced) - untraced
        metrics["trace.overhead_s"] = extra
        metrics["trace.overhead_pct"] = extra / untraced * 100
        metrics["host.calibration_ms"] = calibration_ms
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        first.tracer.write_chrome_trace(str(path), first.tracer.spans[0].start)
        print(f"spans: {len(first.tracer.spans)} written to {path}")
        own = {k[:-7]: v for k, v in metrics.items() if k.endswith(".self_s")}
        whole = sum(own.values()) or 1.0
        print("self time: " + ", ".join(
            f"{k} {v / whole * 100:.1f}%"
            for k, v in sorted(own.items(), key=lambda kv: -kv[1])))
    else:
        setups = [setup_s] + [cold_setup(args)
                              for _ in range(SETUP_REPS - 1)]
        print("setup_s: median of cold set-ups " + ", ".join(
            f"{v:.4f}" for v in setups) + " s (one per process)")
        # per-pass figures, then the median over passes, so a pass run
        # while the host is slow moves the result only if most are
        latency = [t for log in plain for t in log.latency_ms]
        per_pass = lambda f: statistics.median(f(log) for log in plain)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": per_pass(lambda log: log.wall_ref),
            "peak_rss_mb": peak_rss_mb,
            "host_us_per_op": per_pass(
                lambda log: log.wall_ref * 1e6 / log.ops),
            "replay_err_pct": replay_err,
            "req_p50_ms": per_pass(
                lambda log: statistics.median(log.latency_ms)),
            "req_p99_ms": percentile(latency, 0.99),
            "first_result_p50_ms": per_pass(
                lambda log: statistics.median(log.first_ms)),
        }
        units = END_TO_END
        beyond = len(latency) - math.ceil(0.99 * len(latency))
        print(f"requests: {len(latency)} timed in {len(plain)} passes "
              f"({beyond} beyond p99), "
              f"{sum(log.ops for log in plain)} simulated ops delivered")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
