"""Span recorder and stack sampler for the traced benchmark run.

Everything here lives outside the program: spans are recorded by
wrapping the public calls the benchmark makes into each layer
(``REGISTRY.build``, ``Session.run``, ``ReplayMachine.run``,
``ResultStore.get/put`` ...), and host time *inside* a simulation is
split across packages by a ``SIGPROF`` stack sampler.  Nothing is
installed in an untraced pass, so end-to-end metrics are measured with
tracing off.

Spans stay in memory and are written out once, at the end of the run,
as a Chrome trace-event file (open it in Perfetto).
"""

from __future__ import annotations

import contextlib
import functools
import json
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

#: sampler period in seconds of process CPU time
SAMPLE_INTERVAL = 0.001

#: modules whose sub-module is its own layer (repro.sim.captrace ->
#: "captrace"); every other repro package is one layer (repro.mem.* ->
#: "mem")
_SPLIT_PACKAGES = {"sim": {"engine": "engine", "captrace": "captrace"},
                   "timing": {"fixed": "timing.fixed",
                              "scoreboard": "timing.scoreboard"},
                   "obs": {"critpath": "critpath"}}

#: layers reported by name; any other repro module counts as "other"
LAYERS = ("engine", "core", "mem", "timing.fixed", "timing.scoreboard",
          "shredlib", "exec", "kernel", "workloads", "captrace", "critpath",
          "experiments", "service", "other")


def layer_of(module: str) -> str:
    """Layer name of a ``repro.*`` module."""
    parts = module.split(".")
    if len(parts) < 2:
        return "other"
    split = _SPLIT_PACKAGES.get(parts[1])
    if split is not None:
        return split.get(parts[2] if len(parts) > 2 else "", "other")
    return parts[1] if parts[1] in LAYERS else "other"


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    #: layer charged with the span's self time when it holds no samples
    layer: str
    thread: int
    start: float
    end: float = 0.0
    #: free-form attributes (spec label, event counts ...)
    attrs: dict = field(default_factory=dict)
    #: sampler hits by layer, for spans that split their self time
    samples: Optional[Counter] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans plus a sampler; :meth:`wrap` instruments the program's
    entry points, :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread ident -> innermost open sampled span on that thread
        self._sampled: dict[int, Span] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._module_layer: dict[str, str] = {}
        self._old_handler = None

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, layer: str, sample: bool = False,
             **attrs: Any) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        ident = threading.get_ident()
        with self._lock:
            sp = Span(len(self.spans), stack[-1].sid if stack else -1,
                      name, layer, ident, 0.0, attrs=attrs,
                      samples=Counter() if sample else None)
            self.spans.append(sp)
        stack.append(sp)
        outer = self._sampled.get(ident)
        if sample:
            self._sampled[ident] = sp
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if sample:
                if outer is None:
                    self._sampled.pop(ident, None)
                else:
                    self._sampled[ident] = outer

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             sample: bool = False,
             on_enter: Optional[Callable[..., None]] = None,
             on_exit: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``on_enter(span, *args)`` and ``on_exit(span, result, *args)``
        may add attributes to the span from the call's arguments and
        result."""
        raw = vars(owner).get(attr) if isinstance(owner, type) \
            else owner.__dict__.get(attr)
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        target = raw.__func__ if kind else getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer, sample) as sp:
                if on_enter is not None:
                    on_enter(sp, *args)
                result = target(*args, **kwargs)
                if on_exit is not None:
                    on_exit(sp, result, *args)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and stop the sampler."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGPROF, self._old_handler)
            self._old_handler = None
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- sampler -------------------------------------------------------
    def start_sampler(self) -> None:
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)

    def _on_sample(self, signum: int, frame: Any) -> None:
        if not self._sampled:
            return
        frames = sys._current_frames()
        for ident, sp in list(self._sampled.items()):
            f = frames.get(ident)
            while f is not None:
                module = f.f_globals.get("__name__", "")
                if module.startswith("repro."):
                    break
                f = f.f_back
            if f is None:
                continue
            layer = self._module_layer.get(module)
            if layer is None:
                layer = self._module_layer[module] = layer_of(module)
            sp.samples[layer] += 1

    # -- results -------------------------------------------------------
    def self_seconds(self) -> Counter:
        """Host seconds per layer: each span's duration minus its child
        spans, split by the span's samples when it was sampled."""
        child = Counter()
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.duration
        out: Counter = Counter()
        for sp in self.spans:
            own = sp.duration - child[sp.sid]
            hits = sum(sp.samples.values()) if sp.samples else 0
            if hits:
                for layer, n in sp.samples.items():
                    out[layer] += own * n / hits
            else:
                out[sp.layer] += own
        return out

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Chrome trace-event JSON, one track per thread."""
        tids: dict[int, int] = {}
        events = []
        for sp in self.spans:
            tid = tids.setdefault(sp.thread, len(tids))
            args = {k: v for k, v in sp.attrs.items()
                    if isinstance(v, (str, int, float, bool))}
            if sp.samples:
                args.update({f"samples.{k}": v
                             for k, v in sorted(sp.samples.items())})
            events.append({"name": sp.name, "cat": sp.layer, "ph": "X",
                           "pid": 1, "tid": tid,
                           "ts": round((sp.start - origin) * 1e6, 3),
                           "dur": round(sp.duration * 1e6, 3),
                           "args": args})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)
