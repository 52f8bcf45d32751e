"""Output checks: reference digests, cache invariants, failure tally.

The reference digests in ``reference.json`` were generated by
``make_reference.py`` from the same program the benchmark measures.
The simulator is deterministic, so an execution-driven summary whose
digest differs from its reference is wrong output, not noise.

A digest covers the simulated statistics only (cycles, Table-1 events,
proxy, utilization and memory counters), each read by name, and a run
is keyed by a label built from its spec's description and the
parameters it changes from the defaults; neither depends on the
spec-hash format, so unrelated changes to hashing or to the summary's
metadata do not invalidate the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.params import DEFAULT_PARAMS

REFERENCE = Path(__file__).resolve().parent / "reference.json"

_MEM = ("l1_hits", "l1_misses", "l1_invalidations", "l2_hits", "l2_misses",
        "l2_invalidations", "mem_accesses", "tlb_hits", "tlb_misses",
        "tlb_flushes")
_UTIL = ("oms_busy_cycles", "ams_busy_cycles", "ams_suspended_cycles",
         "ops_executed", "num_oms", "num_ams")
_PROXY = ("requests", "page_faults", "syscalls", "total_latency",
          "max_queue_depth")
_DEFAULTS = dataclasses.asdict(DEFAULT_PARAMS)


def label(spec) -> str:
    """Stable name of a run: its description plus changed params."""
    changed = {k: v for k, v in dataclasses.asdict(spec.params).items()
               if _DEFAULTS.get(k) != v}
    extra = ",".join(f"{k}={v}" for k, v in sorted(changed.items()))
    return f"{spec.describe()}[{extra}]"


def digest(summary) -> str:
    """Hash of a summary's simulated statistics."""
    payload = {
        "cycles": summary.cycles,
        "events": dict(sorted(summary.events.items())),
        "mem": [getattr(summary.mem, k) for k in _MEM],
        "utilization": [getattr(summary.utilization, k) for k in _UTIL],
        "proxy": [getattr(summary.proxy, k) for k in _PROXY],
        "shreds_unjoined": summary.shreds_unjoined,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def invariant_problems(summary) -> list[str]:
    """Accesses reaching a cache level must be its hits plus misses."""
    m = summary.mem
    out = []
    if m.l2_hits + m.l2_misses != m.l1_misses:
        out.append(f"L2 hits+misses {m.l2_hits + m.l2_misses} != "
                   f"L1 misses {m.l1_misses}")
    if m.mem_accesses != m.l2_misses:
        out.append(f"memory accesses {m.mem_accesses} != "
                   f"L2 misses {m.l2_misses}")
    return out


class Checker:
    """Counts operations attempted and failed, keeping a few reasons."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")

    def summary(self, spec, summary, expected=None) -> None:
        """Check one delivered summary.

        Execution-driven summaries must match their reference digest;
        one delivered again (from a memo or a store) must instead equal
        ``expected``, the checked summary it was first delivered as.
        """
        problems = invariant_problems(summary)
        if expected is not None:
            if summary != expected:
                problems.append("differs from the summary it was stored "
                                "from")
        elif summary.timing == "execute":
            want = self.reference.get(label(spec))
            got = digest(summary)
            if want is None:
                problems.append("no reference digest")
            elif got != want:
                problems.append(f"digest {got} != reference {want}")
        self.record(label(spec), problems)


def load_reference() -> dict[str, str]:
    with REFERENCE.open(encoding="utf-8") as fh:
        return json.load(fh)["digests"]
