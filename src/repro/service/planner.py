"""Execution planning: how a batch of specs becomes pool tasks.

Planning is *policy*; running tasks is *mechanism*.  Keeping the two
apart is what lets the executor stay dumb: :func:`plan` partitions
unique specs into task groups, and the executor runs each group
without knowing (or caring) why the groups look the way they do.
Without replay every spec is its own singleton task (execution-driven,
maximally parallel); with replay, specs differing only in replay-safe
timing parameters (see :data:`repro.sim.captrace.REPLAY_SAFE_FIELDS`)
form one *replay class* per group: the first member executes with
trace capture, the rest are cheap trace replays.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.captrace import REPLAY_SAFE_FIELDS
from repro.systems import get_system
from repro.timing import get_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec


def replay_class(spec: "RunSpec") -> Optional[str]:
    """Grouping key for specs replayable from one shared capture.

    Two specs share a class when they differ only in
    :data:`~repro.sim.captrace.REPLAY_SAFE_FIELDS` timing parameters.
    Returns None when the spec's backend cannot capture at all, or
    when its timing model prices ops from occupancy (only the
    constant-cost ``fixed`` model records replayable decompositions).
    """
    if not get_system(spec.system).supports_capture:
        return None
    if not get_timing(spec.timing_model).supports_capture:
        return None
    ident = spec.to_dict()
    ident["params"] = {k: v for k, v in ident["params"].items()
                      if k not in REPLAY_SAFE_FIELDS}
    return json.dumps(ident, sort_keys=True)


def plan(specs: Sequence["RunSpec"],
         replay: bool = False) -> list[list["RunSpec"]]:
    """Partition unique specs into executor task groups.

    With ``replay``, specs in the same replay class become one
    multi-spec task whose first member (in request order) is captured
    and the rest replayed; classes of one -- and specs whose backend
    or timing model cannot capture -- stay singleton execution-driven
    tasks, as every spec does without ``replay``.
    """
    if not replay:
        return [[spec] for spec in specs]
    groups: dict[str, list["RunSpec"]] = {}
    tasks: list[list["RunSpec"]] = []
    for spec in specs:
        key = replay_class(spec)
        if key is None:
            tasks.append([spec])
        else:
            groups.setdefault(key, []).append(spec)
    tasks.extend(groups.values())
    return tasks
