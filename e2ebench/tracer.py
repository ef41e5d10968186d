"""In-memory span recorder that times calls into the program's layers.

The traced run wraps the public functions of each layer (graph build,
plan compile, sampling, ...) from the outside: :meth:`Tracer.instrument`
swaps every reference to a target function or method, in every loaded
``repro`` module, for a wrapper that records a span around the call, and
restores the originals on exit.  Nothing in the program changes.

Spans nest per thread; a span's *self time* is its duration minus the
durations of its direct children, so the self times of all spans plus
the uncovered remainder add up to the wall time of the traced work.
Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


def current_rss_mb() -> float:
    """Resident set size of this process, in MB (Linux ``/proc``)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * 4096 / (1024 * 1024)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    rss_before_mb: float = 0.0
    rss_after_mb: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans from any thread; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        rec = Span(
            name,
            start=0.0,
            parent=stack[-1] if stack else -1,
            thread=threading.get_ident(),
            rss_before_mb=current_rss_mb(),
            attrs=dict(attrs),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.rss_after_mb = current_rss_mb()
            stack.pop()
            if rec.parent >= 0:
                self.spans[rec.parent].child_time += rec.duration

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``note(span, args, result)``,
        when given, runs after the span closed to annotate it."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                note(rec, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(
        self, targets: dict[str, str], notes: dict[str, Callable] | None = None
    ) -> Iterator["Tracer"]:
        """Wrap each ``"module:attr"`` / ``"module:Class.method"`` target
        under its span name for the duration of the block; ``notes`` maps
        a target to its annotation callback (see :meth:`wrap`)."""
        notes = notes or {}
        undo: list[tuple[Any, str, Any]] = []
        try:
            for target, name in targets.items():
                note = notes.get(target)
                modname, _, path = target.partition(":")
                module = importlib.import_module(modname)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, note))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, note)
                # Rebind every module-level reference (``from x import f``
                # copies the name into the importer's namespace).
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self.by_name(name))

    def inclusive_time(self, name: str) -> float:
        """Summed duration of the outermost spans of ``name`` (a recursive
        call inside a span of the same name is not counted twice)."""
        total = 0.0
        for s in self.by_name(name):
            p = s.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                total += s.duration
        return total

    def covered(self, start: float, end: float) -> float:
        """Length of ``[start, end]`` covered by at least one span."""
        intervals = sorted(
            (max(s.start, start), min(s.end, end)) for s in self.spans if s.end > start
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def write(self, path: Path, origin: float) -> None:
        records = [
            {
                "name": s.name,
                "start_s": s.start - origin,
                "dur_s": s.duration,
                "self_s": s.self_time,
                "parent": s.parent,
                "thread": s.thread,
                "rss_before_mb": s.rss_before_mb,
                "rss_after_mb": s.rss_after_mb,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": "e2ebench-spans/1", "spans": records}) + "\n")
