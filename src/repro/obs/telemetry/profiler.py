"""Low-overhead background sampling profiler.

A daemon thread wakes every ``interval_s`` seconds, grabs
``sys._current_frames()``, and folds each thread's Python stack into a
root→leaf tuple counted in a dict.  No tracing hooks are installed, so
the profiled code runs at full speed between samples — the only cost
is the sampler's own wall time, which the profiler measures about
itself (:attr:`overhead_fraction`) so the bound can be asserted rather
than assumed (``benchmarks/test_telemetry.py`` gates
``telemetry.profiler_overhead_pct``).

Exports:

* :meth:`SamplingProfiler.collapsed` — the collapsed-stack format
  (``frame;frame;frame count`` per line) consumed by every flamegraph
  tool (Brendan Gregg's ``flamegraph.pl``, speedscope, …).
* :meth:`SamplingProfiler.write_flamegraph` — a self-contained HTML
  flamegraph (nested divs, no external assets) for the CI artifact.
* :meth:`SamplingProfiler.top_functions` — self-sample ranking, the
  quick "where is the time going" answer.

Frames inside this repository render as dotted module paths
(``repro.core.kernels.fused:fused_conv_pool_f32``), so the acceptance
check "top frame of a lenet5 forward run is a ``repro.core.kernels``
function" is a string prefix test.
"""

from __future__ import annotations

import html
import sys
import threading
import time
from collections import Counter as _TallyCounter
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["SamplingProfiler"]

#: frames with these function names are dropped from stacks
#: (the sampler observing itself, threading scaffolding)
_SKIP_NAMES = {"_sample_once", "_loop"}

#: threads whose name starts with this are the observability machinery
#: itself (this sampler, the telemetry exporter); they are not sampled
_OWN_THREAD_PREFIX = "telemetry-"


def _frame_name(frame) -> str:
    """``repro.core.kernels.fused:fn`` for repo frames, ``file.py:fn`` otherwise."""
    path = frame.f_code.co_filename.replace("\\", "/")
    marker = "/repro/"
    idx = path.rfind(marker)
    if idx >= 0 and path.endswith(".py"):
        module = path[idx + 1 : -3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        return f"{module}:{frame.f_code.co_name}"
    short = path.rsplit("/", 1)[-1]
    return f"{short}:{frame.f_code.co_name}"


class SamplingProfiler:
    """Background stack sampler with collapsed-stack/flamegraph export.

    >>> with SamplingProfiler(interval_s=0.005) as prof:
    ...     work()
    >>> prof.write_collapsed("profile.txt")
    >>> prof.top_functions(5)

    ``interval_s`` trades resolution for overhead: 5 ms (the default)
    resolves anything that takes more than a few dozen milliseconds
    while keeping measured overhead well under a percent on workloads
    that spend their time in numpy.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = max(0.0005, float(interval_s))
        #: root→leaf stack tuple -> number of samples observed there
        self.stacks: "_TallyCounter[Tuple[str, ...]]" = _TallyCounter()
        self.sample_count = 0
        #: wall seconds spent inside the sampler itself
        self.sampling_wall_s = 0.0
        self._started_at: Optional[float] = None
        self.elapsed_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: id(code) -> (rendered frame name or "" for a skipped frame, the
        #: code object); holding the code keeps its id from being reused.
        #: Keyed by id because hashing a code object hashes its constants.
        self._frame_names: Dict[int, Tuple[str, object]] = {}
        #: thread idents at the last read of the thread names, and those
        #: among them that belong to the observability machinery
        self._known_threads: Set[int] = set()
        self._own_threads: Set[int] = set()

    # -- sampling ------------------------------------------------------------
    def _sample_once(self) -> None:
        t0 = time.perf_counter()
        frames = sys._current_frames()
        if frames.keys() != self._known_threads:
            # a thread started or exited: read the thread names again
            threads = threading.enumerate()
            self._known_threads = {t.ident for t in threads}
            self._own_threads = {
                t.ident for t in threads if t.name.startswith(_OWN_THREAD_PREFIX)
            }
        names = self._frame_names
        for tid, top in frames.items():
            if tid in self._own_threads:
                continue
            stack: List[str] = []
            frame = top
            while frame is not None:
                code = frame.f_code
                entry = names.get(id(code))
                if entry is None:
                    name = "" if code.co_name in _SKIP_NAMES else _frame_name(frame)
                    entry = names[id(code)] = (name, code)
                if entry[0]:
                    stack.append(entry[0])
                frame = frame.f_back
            if stack:
                stack.reverse()
                self.stacks[tuple(stack)] += 1
                self.sample_count += 1
        del frames
        self.sampling_wall_s += time.perf_counter() - t0

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample_once()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._started_at = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._started_at is not None:
            self.elapsed_s = time.perf_counter() - self._started_at
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- analysis ------------------------------------------------------------
    @property
    def overhead_fraction(self) -> float:
        """Sampler wall time / profiled wall time (measured, not modeled)."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.sampling_wall_s / self.elapsed_s

    def top_functions(self, n: int = 10) -> List[Tuple[str, int]]:
        """Functions ranked by *self* samples (observed on top of stack)."""
        leaf: "_TallyCounter[str]" = _TallyCounter()
        for stack, count in self.stacks.items():
            leaf[stack[-1]] += count
        return leaf.most_common(n)

    def top_frame(self) -> Optional[str]:
        """The single hottest leaf frame, or None without samples."""
        top = self.top_functions(1)
        return top[0][0] if top else None

    # -- export --------------------------------------------------------------
    def collapsed(self) -> str:
        """Collapsed-stack text: ``root;child;leaf count`` per line,
        sorted by count descending then stack for determinism."""
        rows = sorted(self.stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(f"{';'.join(stack)} {count}" for stack, count in rows) + (
            "\n" if rows else ""
        )

    def write_collapsed(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.collapsed())

    def write_flamegraph(self, path: str, title: str = "repro sampling profile") -> None:
        """Self-contained HTML flamegraph (no external assets).

        Widths are proportional to sample counts; hover shows
        ``frame (samples, pct)``.  Deliberately minimal — the collapsed
        export feeds real tooling; this is the one-click CI artifact.
        """
        total = sum(self.stacks.values())

        # fold the stack multiset into a tree of (name -> [count, children])
        root: Dict[str, list] = {}
        for stack, count in self.stacks.items():
            level = root
            for frame in stack:
                node = level.setdefault(frame, [0, {}])
                node[0] += count
                level = node[1]

        def render(level: Dict[str, list], depth: int) -> str:
            parts = []
            for name in sorted(level, key=lambda n: -level[n][0]):
                count, children = level[name]
                pct = 100.0 * count / total if total else 0.0
                if pct < 0.25:
                    continue
                hue = 20 + (hash(name) % 25)
                label = html.escape(name)
                parts.append(
                    f'<div class="fr" style="width:{pct:.2f}%;'
                    f'background:hsl({hue},85%,{70 - min(depth, 8) * 2}%)" '
                    f'title="{label} ({count} samples, {pct:.1f}%)">'
                    f"<span>{label}</span>"
                    + render(children, depth + 1)
                    + "</div>"
                )
            return "".join(parts)

        body = render(root, 0) if total else "<p>no samples collected</p>"
        doc = (
            "<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title><style>"
            "body{font:12px monospace;margin:12px}"
            ".fr{box-sizing:border-box;border:1px solid #fff;overflow:hidden;"
            "white-space:nowrap;min-height:16px}"
            ".fr span{padding:0 3px}"
            "</style></head><body>"
            f"<h1>{html.escape(title)}</h1>"
            f"<p>{self.sample_count} samples, {self.elapsed_s:.2f}s wall, "
            f"measured sampler overhead {100 * self.overhead_fraction:.3f}%</p>"
            f"{body}</body></html>"
        )
        with open(path, "w") as fh:
            fh.write(doc)
