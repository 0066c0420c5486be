"""Span recording for the traced pass.

The traced pass wraps named dkmsim functions and methods from outside the
package. Each wrapped call records one span: the span name, start and end
from time.perf_counter_ns, and the index of the span that was open when the
call began (-1 at the top). Spans accumulate in flat arrays while the pass
runs and are written to an .npz file when it ends.

A span's self time is its duration minus the durations of its children.
Spans nest strictly (one thread, stack discipline), so the children never
overlap and self times partition every span's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MARK = "__perfbench_span__"


class SpanRecorder:
    """Flat in-memory span store plus the wrapper factory that fills it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """A callable that records a span named `name` around each call of fn."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        setattr(traced, MARK, name)
        return traced

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def _dkmsim_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "dkmsim" or n.startswith("dkmsim.")]


class Patches:
    """Installs wrappers in place of dkmsim names and puts the originals back."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    def function(self, span: str, module: str, attr: str, everywhere: bool = True) -> None:
        """Wrap module.attr in every dkmsim module that bound it, or in `module` only."""
        orig = getattr(sys.modules[module], attr)
        wrapped = self.recorder.wrap(span, orig)
        owners = _dkmsim_modules() if everywhere else [sys.modules[module]]
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, key, orig, True))
                    setattr(mod, key, wrapped)

    def method(self, span: str, cls: type, attr: str) -> None:
        """Wrap cls.attr on the class itself, inherited or not, never wrapping a wrapper."""
        own = attr in vars(cls)
        fn = getattr(cls, attr)
        if hasattr(fn, MARK):
            fn = fn.__wrapped__
        self._saved.append((cls, attr, vars(cls).get(attr), own))
        setattr(cls, attr, self.recorder.wrap(span, fn))

    def restore(self) -> None:
        while self._saved:
            owner, key, orig, own = self._saved.pop()
            if own:
                setattr(owner, key, orig)
            else:
                delattr(owner, key)


def leftover_wrappers() -> list[str]:
    """Every dkmsim module or class attribute that is still a span wrapper."""
    found = []
    for mod in _dkmsim_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("dkmsim"):
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return sorted(set(found))


class SpanSummary:
    """Per-name call counts and self times of one pass, read from its span file."""

    def __init__(self, path: Path):
        with np.load(path) as spans:
            names = [str(n) for n in spans["names"]]
            nid, parent, start, end = (spans[k] for k in ("name_id", "parent", "start", "end"))
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur)).astype(np.int64)
        self_ns = dur - child

        self.problems: list[str] = []
        if np.any(dur < 0) or np.any(end == 0):
            self.problems.append("a span was never closed")
        if np.any(start[inner] < start[parent[inner]]) or np.any(end[inner] > end[parent[inner]]):
            self.problems.append("a span lies outside its parent")
        if np.any(self_ns < 0):
            self.problems.append("children cover more than their parent")

        self.calls = {n: int(c) for n, c in zip(names, np.bincount(nid, minlength=len(names)))}
        self.self_ns = {
            n: int(s) for n, s in zip(names, np.bincount(nid, weights=self_ns, minlength=len(names)))
        }
        self.total_ns = {n: int(s) for n, s in zip(names, np.bincount(nid, weights=dur, minlength=len(names)))}
        self._names, self._nid, self._parent, self._dur, self._self = names, nid, parent, dur, self_ns

    def module_self_ns(self, root: str) -> tuple[int, dict[str, int]]:
        """(summed duration of `root` spans, self time per module inside them).

        A span counts toward the outermost `root` span above it, and its name's
        first dotted part is its module.
        """
        if root not in self._names:
            return 0, {}
        root_id = self._names.index(root)
        module_of = [n.split(".", 1)[0] for n in self._names]
        owner: list[int] = []
        total = 0
        modules: dict[str, int] = {}
        for i, (n, p, d, s) in enumerate(
            zip(self._nid.tolist(), self._parent.tolist(), self._dur.tolist(), self._self.tolist())
        ):
            up = owner[p] if p >= 0 else -1
            if up < 0 and n == root_id:
                up = i
                total += d
            owner.append(up)
            if up >= 0:
                modules[module_of[n]] = modules.get(module_of[n], 0) + s
        return total, modules
