"""Span recorder that times calls into unifmm's layer functions from outside.

:meth:`SpanRecorder.install` replaces each function named in
:data:`LAYER_FUNCTIONS` with a timing wrapper, on its defining module and
on every other ``unifmm`` module that imported it by name (``distributed``
does, so its calls would otherwise bypass a wrapper placed only on the
defining module). A span keeps the rank, taken from the ``fmm-rank-<r>``
thread name, the wall time, the thread CPU time and the self time (wall
minus the spans nested in it). Calls from threads that are not rank
threads are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYER_FUNCTIONS = (
    ("kernels", "p2p_uli"),
    ("operators", "get_operator_set"),
    ("operators", "upward_pass"),
    ("operators", "leaf_s2u_all"),
    ("operators", "u2u_level"),
    ("operators", "vli_downward"),
    ("operators", "apply_m2l"),
    ("operators", "d2d_level"),
    ("operators", "d2t"),
    ("partition", "redistribute"),
    ("partition", "sort_local"),
    ("partition", "build_layout"),
    ("tree", "build_tree"),
    ("tree", "build_interaction_lists"),
    ("morton", "encode_points"),
    ("distributed", "setup"),
    ("distributed", "evaluate"),
    ("distributed", "update_charges"),
)

# (stat, unit) reported for every layer function; layer_stats() also gives
# self_wall_max_s and wall_cpu_ratio, which are reported for a few.
SPAN_STATS = (("wall_max_s", "s"), ("cpu_max_s", "s"), ("cpu_sum_s", "s"), ("calls", "count"))

_RANK_THREAD = re.compile(r"fmm-rank-(\d+)$")


def thread_rank():
    """Rank of the calling simulated-rank thread, or None."""
    match = _RANK_THREAD.match(threading.current_thread().name)
    return int(match.group(1)) if match else None


@dataclass
class Span:
    name: str
    rank: int
    sample: int
    start: float
    wall: float
    cpu: float
    self_wall: float


class SpanRecorder:
    """Collects spans in memory; ``sample`` tags them with the current step."""

    def __init__(self):
        self.spans = []
        self.sample = -1
        self.enabled = False
        self._stacks = threading.local()
        self._installed = []

    def install(self):
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"unifmm.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "unifmm" and getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._installed.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rank = thread_rank() if self.enabled else None
            if rank is None:
                return fn(*args, **kwargs)
            stack = self._stacks.__dict__.setdefault("frames", [])
            child_wall = [0.0]
            stack.append(child_wall)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                wall = t1 - t0
                if stack:
                    stack[-1][0] += wall
                self.spans.append(
                    Span(name, rank, self.sample, t0, wall, cpu, wall - child_wall[0])
                )

        return wrapper

    def layer_stats(self, samples):
        """Per function: median over ``samples`` of the max/sum over ranks.

        Per sample and rank the calls of one function are summed first.
        Functions absent from a sample are skipped for that sample.
        """
        per = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0, 0.0]))
        for s in self.spans:
            if s.sample in samples:
                acc = per[(s.name, s.sample)][s.rank]
                acc[0] += s.wall
                acc[1] += s.cpu
                acc[2] += 1
                acc[3] += s.self_wall
        by_name = defaultdict(lambda: defaultdict(list))
        for (name, _), ranks in per.items():
            rows = ranks.values()
            by_name[name]["wall_max_s"].append(max(r[0] for r in rows))
            by_name[name]["cpu_max_s"].append(max(r[1] for r in rows))
            by_name[name]["cpu_sum_s"].append(sum(r[1] for r in rows))
            by_name[name]["calls"].append(sum(r[2] for r in rows))
            by_name[name]["self_wall_max_s"].append(max(r[3] for r in rows))
            by_name[name]["wall_cpu_ratio"].append(
                max(r[0] for r in rows) / max(max(r[1] for r in rows), 1e-9)
            )
        return {
            name: {stat: (statistics.median_low if stat == "calls" else statistics.median)(vals)
                   for stat, vals in stats.items()}
            for name, stats in by_name.items()
        }

    def write_chrome_trace(self, path):
        """Chrome trace-event JSON, one thread id per rank."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": r,
             "args": {"name": f"fmm-rank-{r}"}}
            for r in sorted({s.rank for s in self.spans})
        ]
        events += [
            {"name": s.name, "ph": "X", "pid": 0, "tid": s.rank,
             "ts": (s.start - origin) * 1e6, "dur": s.wall * 1e6,
             "args": {"sample": s.sample, "thread_cpu_s": s.cpu}}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)
