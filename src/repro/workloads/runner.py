"""Staging primitives and legacy run functions for the system backends.

This module holds the building blocks every system backend composes
(Section 5.2's methodology):

* :func:`misp_group_body` / :func:`misp_thread_body` -- the body of a
  multi-shredded OS thread (Figure 3): register the proxy handler,
  push the main shred, ``SIGNAL`` a gang scheduler onto every AMS,
  then run a gang scheduler on the OMS;
* :func:`smp_main_body` / :func:`smp_worker_body` -- the same
  application code run as ``ncpus`` OS threads (one gang scheduler
  each), the way an OpenMP runtime would run it on a real SMP;
* :func:`_setup` -- process + runtime + API plumbing shared by all.

The actual system assembly lives in :mod:`repro.systems`: backends
(``misp``, ``smp``, ``1p``, ``multiprog``, ``hybrid``, ...) stage
these bodies onto machines, and the composable
:class:`~repro.systems.session.Session` builder drives them.
:func:`run_misp`, :func:`run_smp`, :func:`run_1p`, and
:func:`run_hybrid` are thin compatibility wrappers over sessions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.machine import Machine
from repro.core.notation import config_name
from repro.exec.context import ExecContext
from repro.exec.ops import Op, SignalShred, SyscallOp
from repro.kernel.process import OSThread, Process
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.shredlib.api import ShredAPI
from repro.shredlib.proxyhandler import GenericProxyHandler
from repro.shredlib.runtime import QueuePolicy, ShredRuntime
from repro.shredlib.scheduler import gang_scheduler
from repro.sim.trace import EventKind
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.captrace import CapturedTrace

#: default per-run cycle budget before declaring a hang
DEFAULT_LIMIT = 2_000_000_000_000


@dataclass
class RunResult:
    """Outcome of one workload execution."""

    workload: str
    system: str           # a SYSTEM_REGISTRY name (possibly redirected)
    config: str           # e.g. "1x8", "smp8", "1x4+1x2"
    cycles: int           # process completion time
    machine: Machine
    runtime: ShredRuntime
    main_thread: OSThread
    #: background single-threaded processes (multiprogramming runs)
    background: int = 0
    #: captured execution trace (Session.capture() runs only)
    trace: Optional["CapturedTrace"] = None
    #: observability state (Session.observe() runs only); a
    #: repro.obs.observe.ObservedRun with the run's correlation id
    obs: Optional[object] = None

    # ------------------------------------------------------------------
    # Event accounting (the Table 1 view of this run)
    # ------------------------------------------------------------------
    def oms_event_count(self, kind: EventKind) -> int:
        return self.machine.trace.total(kind, self.machine.oms_ids())

    def ams_event_count(self, kind: EventKind) -> int:
        return self.machine.trace.total(kind, self.machine.ams_ids())

    def serializing_events(self) -> dict[str, int]:
        """Counts in the paper's Table 1 layout."""
        return {
            "oms_syscall": self.oms_event_count(EventKind.SYSCALL),
            "oms_pf": self.oms_event_count(EventKind.PAGE_FAULT),
            "oms_timer": self.oms_event_count(EventKind.TIMER),
            "oms_interrupt": self.oms_event_count(EventKind.INTERRUPT),
            "ams_syscall": self.ams_event_count(EventKind.SYSCALL),
            "ams_pf": self.ams_event_count(EventKind.PAGE_FAULT),
        }


def _workload_seed(workload: WorkloadSpec) -> int:
    return workload.seed or zlib.crc32(workload.name.encode())


def _setup(machine: Machine, workload: WorkloadSpec,
           params: MachineParams) -> tuple[Process, ShredRuntime, ShredAPI]:
    process = machine.spawn_process(workload.name)
    ctx = ExecContext(process, params, seed=_workload_seed(workload))
    ctx.machine = machine
    rt = ShredRuntime(params, name=workload.name)
    # place the runtime's shared state (work-queue lock + sync-object
    # lines) in the application's address space; the loader maps it
    # up front, so runtime lock traffic hits the cache hierarchy
    # without compulsory-fault noise
    shared = process.address_space.reserve("shredlib", 1)
    process.address_space.handle_fault(shared.start_vpn)
    rt.attach_shared(shared.base_vaddr, shared.size_bytes)
    api = ShredAPI(rt, ctx)
    return process, rt, api


def misp_group_body(machine: Machine, proc_index: int, rt: ShredRuntime,
                    api: ShredAPI, workload: Optional[WorkloadSpec],
                    nworkers: int, worker_base: int = 0) -> Iterator[Op]:
    """Body of one multi-shredded OS thread driving one MISP processor.

    The generalization behind Figure 3 that multi-processor (hybrid)
    partitions stage once per MISP processor: gang-scheduler worker
    ids start at ``worker_base`` (they must be unique runtime-wide),
    and only the *primary* group -- the one given a ``workload`` --
    instantiates and pushes the main shred.
    """
    processor = machine.processors[proc_index]
    handler = GenericProxyHandler()
    handler.register(processor)
    yield from GenericProxyHandler.registration_ops(rt.params)
    if workload is not None:
        main = rt.new_shred(workload.instantiate(api, nworkers), name="main")
        # the main shred is the primary OS thread's own execution
        main.affinity = worker_base
        rt.set_main(main)
        rt.push(main)
    for sid in range(1, len(processor.amss) + 1):
        yield SignalShred(sid, gang_scheduler(rt, worker_id=worker_base + sid),
                          label=f"gang-{worker_base + sid}")
    yield from gang_scheduler(rt, worker_id=worker_base)


def misp_thread_body(machine: Machine, proc_index: int, rt: ShredRuntime,
                     api: ShredAPI, workload: WorkloadSpec,
                     nworkers: int) -> Iterator[Op]:
    """Body of the single multi-shredded OS thread (Figure 3).

    Exposed publicly so the Figure 7 driver can build mixed workloads.
    """
    yield from misp_group_body(machine, proc_index, rt, api, workload,
                               nworkers, worker_base=0)


def smp_worker_body(rt: ShredRuntime, worker_id: int) -> Iterator[Op]:
    """One SMP worker OS thread: a bare gang scheduler."""
    yield from gang_scheduler(rt, worker_id)


def smp_main_body(machine: Machine, process: Process, rt: ShredRuntime,
                  api: ShredAPI, workload: WorkloadSpec,
                  nworkers: int) -> Iterator[Op]:
    """Main OS thread on SMP: spawn workers, then join the gang."""
    main = rt.new_shred(workload.instantiate(api, nworkers), name="main")
    main.affinity = 0  # runs on the main OS thread's gang scheduler
    rt.set_main(main)
    rt.push(main)
    for i in range(1, nworkers):
        # thread creation is an OS service on SMP
        yield SyscallOp("thread_create", cost=rt.params.syscall_service_cost)
        machine.spawn_thread(process, f"{workload.name}-w{i}",
                             smp_worker_body(rt, i))
    yield from gang_scheduler(rt, worker_id=0)


# ----------------------------------------------------------------------
# Legacy run functions: thin wrappers over repro.systems.Session
# ----------------------------------------------------------------------
def run_misp(workload: WorkloadSpec, ams_count: int = 7,
             params: MachineParams = DEFAULT_PARAMS,
             limit: int = DEFAULT_LIMIT,
             policy: QueuePolicy = QueuePolicy.FIFO) -> RunResult:
    """Run a workload on a MISP uniprocessor with ``ams_count`` AMSs."""
    from repro.systems import Session
    return (Session("misp", config_name([ams_count]))
            .params(params).policy(policy).limit(limit).run(workload))


def run_smp(workload: WorkloadSpec, ncpus: int = 8,
            params: MachineParams = DEFAULT_PARAMS,
            limit: int = DEFAULT_LIMIT,
            policy: QueuePolicy = QueuePolicy.FIFO) -> RunResult:
    """Run a workload on the ``ncpus``-way SMP baseline."""
    from repro.systems import Session
    return (Session("smp", f"smp{ncpus}")
            .params(params).policy(policy).limit(limit).run(workload))


def run_1p(workload: WorkloadSpec,
           params: MachineParams = DEFAULT_PARAMS,
           limit: int = DEFAULT_LIMIT,
           policy: QueuePolicy = QueuePolicy.FIFO) -> RunResult:
    """Single-sequencer baseline run (Figure 4's denominator)."""
    return run_smp(workload, ncpus=1, params=params, limit=limit,
                   policy=policy)


def run_hybrid(workload: WorkloadSpec, config: str = "1x4+1x2",
               params: MachineParams = DEFAULT_PARAMS,
               limit: int = DEFAULT_LIMIT,
               policy: QueuePolicy = QueuePolicy.FIFO) -> RunResult:
    """Run a workload shredded across a multi-group MISP partition.

    Every MISP processor in ``config`` (e.g. ``"1x4+1x2"``) drives its
    own gang of shreds via its own OS thread; plain CPUs, if any, run
    bare gang-scheduler worker threads.
    """
    from repro.systems import Session
    return (Session("hybrid", config)
            .params(params).policy(policy).limit(limit).run(workload))
