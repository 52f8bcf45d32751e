"""MISP multiprocessor construction (Section 2.6, Figure 6).

The partition notation itself (``"4x2"``, ``"1x4+4"``, ``"smp8"``,
...) lives in :mod:`repro.core.notation`; this module builds live
machines from it.

:func:`build_machine` is the single machine factory the system
backends (:mod:`repro.systems.backends`) build on: all-plain-CPU
partitions are routed through :func:`build_smp_machine` so that every
SMP-shaped machine is complete (``thread_create`` registered) at
construction.

The SMP baseline is the paper's comparison system (Section 5): "a
similarly configured SMP machine" -- the same number of cores, all
OS-visible, with threads scheduled by the kernel.  In this model an
SMP system is simply a machine whose processors all have zero AMSs --
every MISP mechanism (AMS serialization, proxy execution, SIGNAL) is
then structurally unreachable, and every core services its own
faults, syscalls, and timer interrupts locally.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.machine import Machine
from repro.core.notation import parse_config
from repro.errors import ConfigurationError
from repro.kernel.syscalls import SyscallSpec
from repro.mem.hierarchy import HierarchyFactory, private_l2_per_sequencer
from repro.params import DEFAULT_PARAMS, MachineParams

__all__ = ["build_machine", "build_smp_machine", "ensure_thread_create"]


def build_machine(config: str | Sequence[int],
                  params: MachineParams = DEFAULT_PARAMS,
                  record_fine_trace: bool = False,
                  hierarchy: Optional[HierarchyFactory] = None) -> Machine:
    """Build a machine from a name or an AMS-count tuple.

    ``hierarchy`` selects the cache topology (default: one L2 shared
    per processor); all-plain-CPU partitions are routed through
    :func:`build_smp_machine`, whose default is a private L2 per core.
    """
    counts = parse_config(config) if isinstance(config, str) else tuple(config)
    if counts and not any(counts):
        return build_smp_machine(len(counts), params=params,
                                 record_fine_trace=record_fine_trace,
                                 hierarchy=hierarchy)
    return Machine(counts, params=params,
                   record_fine_trace=record_fine_trace,
                   hierarchy=hierarchy)


def ensure_thread_create(machine: Machine) -> Machine:
    """Register the thread_create syscall if this kernel lacks it."""
    try:
        machine.kernel.syscalls.lookup("thread_create")
    except ConfigurationError:
        machine.kernel.syscalls.register(SyscallSpec("thread_create"))
    return machine


def build_smp_machine(num_cpus: int,
                      params: MachineParams = DEFAULT_PARAMS,
                      record_fine_trace: bool = False,
                      hierarchy: Optional[HierarchyFactory] = None) -> Machine:
    """Build an SMP machine with ``num_cpus`` OS-visible cores.

    SMP machines are complete at construction: because an SMP
    application spawns its worker team through the OS, the
    ``thread_create`` syscall is registered up front.  SMP cores get
    *private* L2s by default -- cross-core sharing pays coherence
    invalidations instead, the cost the paper's shreds avoid by
    sharing one processor's hierarchy.
    """
    return ensure_thread_create(
        Machine([0] * num_cpus, params=params,
                record_fine_trace=record_fine_trace,
                hierarchy=hierarchy or private_l2_per_sequencer))
