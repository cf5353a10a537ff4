"""Span recording for the traced window, done entirely from outside the program.

Spans are recorded by wrapping callables the benchmark can reach without
touching ``src/``: ``forward`` on every module *instance* of a model,
``step``/``zero_grad`` on an optimizer instance, and the names
``repro.accel.simulator`` resolves at call time.  Each span keeps its name,
layer, start, end, parent span and op id.  Spans stay in memory until the
window ends and are then written as JSON lines.

A span's self time is its duration minus the time its direct children
cover, so the self times of one op's span tree add up to the op's wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class Recorder:
    """In-memory span recorder for one single-threaded traced window."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = -1

    def begin(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        def traced(*args, **kwargs):
            sid = self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, covered)]

    def aggregate(self) -> Dict[str, Tuple[int, float, float]]:
        """span name -> (count, total duration s, total self time s)."""
        out: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[0]]
            row[0] += 1
            row[1] += span[3] - span[2]
            row[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def table(self) -> Tuple[List[Tuple[str, str, int, float]], float, float]:
        """Self-time rows per (name, layer), the residual and the op wall.

        Every span below an ``op`` span is a row; the residual is the op
        spans' own self time (work no layer span covers).  Rows plus the
        residual add up to the op wall time.
        """
        rows: Dict[Tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        residual = wall = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            if span[0] == "op":
                residual += self_s
                wall += span[3] - span[2]
                continue
            row = rows[(span[0], span[1])]
            row[0] += 1
            row[1] += self_s
        ordered = sorted(
            ((name, layer, n, s) for (name, layer), (n, s) in rows.items()),
            key=lambda r: -r[3],
        )
        return ordered, residual, wall

    def write_jsonl(self, path: Path, t0: float) -> None:
        """Write one span per line; times are seconds since ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "layer": layer,
                            "start": round(start - t0, 9),
                            "end": round(end - t0, 9),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def instrument_model(rec: Recorder, model, category: Callable[[object], str]) -> Callable[[], None]:
    """Wrap ``forward`` on every module instance of ``model``; return the undo.

    The root span is named ``model.train`` or ``model.eval`` after the mode
    the model is in when called; every other module gets ``category(mod)``
    as its span name and its module path as its layer.
    """
    wrapped = []
    seen = set()
    for path, mod in model.named_modules():
        if id(mod) in seen:
            continue
        seen.add(id(mod))
        fwd = mod.forward
        if path == "":

            def root(*args, _fwd=fwd, **kwargs):
                sid = rec.begin("model.train" if model.training else "model.eval", "model")
                try:
                    return _fwd(*args, **kwargs)
                finally:
                    rec.end(sid)

            mod.forward = root
        else:
            mod.forward = rec.wrap(fwd, category(mod), path)
        wrapped.append(mod)

    def undo() -> None:
        for mod in wrapped:
            del mod.forward

    return undo


def instrument_attrs(rec: Recorder, owner, names: Dict[str, str]) -> Callable[[], None]:
    """Wrap attributes ``owner.<attr>`` as spans named ``names[attr]``; return the undo.

    ``owner`` is an instance (its class attributes are shadowed, then
    deleted again) or a module (its globals are replaced, then restored).
    """
    saved = {}
    for attr, span_name in names.items():
        saved[attr] = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, rec.wrap(getattr(owner, attr), span_name, attr))

    def undo() -> None:
        for attr, old in saved.items():
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    return undo


_MISSING = object()
