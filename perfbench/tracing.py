"""Spans around calls into `twrelay`, installed from the benchmark's side.

`Tracer.install` wraps every public function that a `twrelay` module
defines, under every module attribute through which it is reachable, plus
`ChannelStream.draw_block` and `mpmath.workdps` (a call that enters it is a
closed-form mpmath rescue).  Functions are found by walking the loaded
modules, so one that the program no longer defines simply reports zero
calls.  Classes are not wrapped: replacing them would break isinstance
checks and enum access; their construction counts toward the caller.

Each wrapped call records a span (name, start, end, parent).  The hot
scalar functions of `specfun` only count their calls; their time stays in
the caller's self time.  Spans are kept in memory and reduced by
`layer_metrics` after the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "twrelay"
# specfun functions are counted only, except the table build, which is timed
COUNT_ONLY_LAYER = "specfun"
TIMED_IN_COUNT_ONLY_LAYER = ("wishart_max_eig_coeffs",)
RESCUE_SPAN = "analysis.mp_rescue"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.trials_drawn = 0
        self._patches = []       # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE)
                        and not obj.__name__.startswith("_")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    name = f"{layer}.{obj.__name__}"
                    if layer == COUNT_ONLY_LAYER and obj.__name__ not in TIMED_IN_COUNT_ONLY_LAYER:
                        wrappers[obj] = self.count_wrapper(name, obj)
                    else:
                        wrappers[obj] = self.span_wrapper(name, obj)
                self._patch(mod, attr, wrappers[obj])
        simulate = sys.modules.get(PACKAGE + ".simulate")
        stream = getattr(simulate, "ChannelStream", None)
        if stream is not None and hasattr(stream, "draw_block"):
            self._patch(stream, "draw_block", self._draw_block_wrapper(stream.draw_block))
        import mpmath
        self._patch(mpmath, "workdps", self._workdps_wrapper(mpmath.workdps))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _draw_block_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def draw_block(*args, **kwargs):
            idx = tracer.begin("simulate.draw_block")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.trials_drawn += len(out[0])
            return out
        return draw_block

    def _workdps_wrapper(self, fn):
        tracer = self

        class _Rescue:
            def __init__(self, ctx):
                self.ctx = ctx

            def __enter__(self):
                self.idx = tracer.begin(RESCUE_SPAN)
                return self.ctx.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.ctx.__exit__(*exc)
                finally:
                    tracer.end(self.idx)

        @functools.wraps(fn)
        def workdps(*args, **kwargs):
            return _Rescue(fn(*args, **kwargs))
        return workdps


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (children clipped to the parent and merged)."""
    children = defaultdict(list)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer figure the spans and counters give, by metric name:
    <layer>.<function>.{self_s, calls, p90_ms}, <layer>.self_s, plus the
    rescue and trial counters."""
    selfs = self_times(tracer.spans)
    durations = defaultdict(list)
    func_self = defaultdict(float)
    layer_self = defaultdict(float)
    for (name, start, end, _), s in zip(tracer.spans, selfs):
        durations[name].append(end - start)
        func_self[name] += s
        layer_self[name.split(".", 1)[0]] += s
    out = {}
    for name, durs in durations.items():
        out[f"{name}.self_s"] = func_self[name]
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.p90_ms"] = 1e3 * (statistics.quantiles(durs, n=10)[-1] if len(durs) > 1 else durs[0])
    for name, n in tracer.counts.items():
        out[f"{name}.calls"] = n
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    rescues = durations.get(RESCUE_SPAN, [])
    out["analysis.mp_rescues"] = len(rescues)
    out["analysis.mp_rescue_s"] = sum(rescues)
    out["simulate.trials_drawn"] = tracer.trials_drawn
    out["trace.spans"] = len(tracer.spans)
    out["trace.attributed_s"] = sum(layer_self.values())
    return out
