"""Multiprogramming driver for the Figure 7 experiment (Section 5.4).

"Figure 7 shows the performance of RayTracer as non-shredded
applications are gradually added to the system."  The measured
application is the multi-shredded RayTracer; the load is N
single-threaded, CPU-bound background processes.  The kernel scheduler
is shred-oblivious, so on configurations with few OMSs the background
processes time-share the OMS that drives RayTracer's AMSs -- and every
quantum the RayTracer thread loses also idles its AMSs, which is the
effect the figure quantifies.

Configurations are the Figure 6 partitions of eight sequencers
("4x2", "2x4", "1x8", "1x7+1", ... "1x4+4"), plus "smp" (the 8-way SMP
baseline running RayTracer as eight worker threads) and "ideal" (the
per-load uneven partition 1x(8-N)+N that gives each background process
its own AMS-less OMS).

The staging and drive loop live in
:class:`repro.systems.backends.MultiprogBackend`;
:func:`run_multiprogram` is a compatibility wrapper over a
``Session("multiprog", ...)``.  This module keeps the driver-level
constants, the CPU-bound :func:`background_body` the backend stages,
and the Figure 7 curve helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.core.machine import Machine
from repro.core.notation import (
    FIGURE7_SEQUENCERS, config_name, ideal_config_for_load,
)
from repro.exec.ops import Compute, Op
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.shredlib.runtime import QueuePolicy
from repro.workloads.base import WorkloadSpec
from repro.workloads.rms.raytracer import make_raytracer

#: RayTracer size used for the sweep (full scale is unnecessarily slow
#: for a 45-run experiment; the curve is a ratio of its own runtimes)
DEFAULT_RT_SCALE = 0.15

#: simulation slice while polling for application completion
MULTIPROG_SLICE = 100_000_000

#: absolute per-run budget before declaring a hang (shared with the
#: experiment layer so both drivers time out identically)
MULTIPROG_HORIZON = 200_000_000_000


def background_body() -> Iterator[Op]:
    """A single-threaded, CPU-bound process that never exits."""
    while True:
        yield Compute(100_000)


@dataclass(frozen=True)
class MultiprogResult:
    config: str
    background: int
    raytracer_cycles: int
    machine: Machine


def run_multiprogram(config: str, background: int,
                     rt_scale: float = DEFAULT_RT_SCALE,
                     params: MachineParams = DEFAULT_PARAMS,
                     horizon: int = MULTIPROG_HORIZON,
                     workload: Optional[WorkloadSpec] = None,
                     policy: QueuePolicy = QueuePolicy.FIFO
                     ) -> MultiprogResult:
    """Run a shredded workload (default: RayTracer at ``rt_scale``)
    plus N background processes on one configuration."""
    from repro.systems import Session
    if workload is None:
        workload = make_raytracer(scale=rt_scale)
    run = (Session("multiprog", config)
           .params(params).policy(policy).limit(horizon)
           .background(background).run(workload))
    # keep the caller's series name ("ideal", "smp") on the result
    return MultiprogResult(config, background, run.cycles, run.machine)


def speedup_curve(config: str, loads: Sequence[int] = range(5),
                  rt_scale: float = DEFAULT_RT_SCALE,
                  params: MachineParams = DEFAULT_PARAMS) -> list[float]:
    """Speedup (vs unloaded) of RayTracer as load increases (one line
    of Figure 7).

    Every Figure 7 curve is normalized to its own configuration
    running unloaded -- that is why all curves start at 1.0 even
    though, say, 4x2 gives RayTracer only two sequencers.  For the
    per-load "ideal" partition the configuration changes with the
    load, so the baseline is re-measured per point: background
    processes on their own AMS-less OMSs leave RayTracer at 1.0.
    """
    curve: list[float] = []
    baseline: Optional[int] = None
    for load in loads:
        result = run_multiprogram(config, load, rt_scale, params)
        if config == "ideal":
            unloaded = _ideal_unloaded(load, rt_scale, params)
            curve.append(unloaded / result.raytracer_cycles)
            continue
        if baseline is None:
            baseline = result.raytracer_cycles
        curve.append(baseline / result.raytracer_cycles)
    return curve


def _ideal_unloaded(load: int, rt_scale: float,
                    params: MachineParams) -> int:
    """Unloaded RayTracer runtime on the load-``load`` ideal partition."""
    partition = config_name(ideal_config_for_load(FIGURE7_SEQUENCERS, load))
    return run_multiprogram(partition, 0, rt_scale, params).raytracer_cycles
