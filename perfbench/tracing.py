"""Outside-in span recorder for the benchmark's traced run.

The program has no spans of its own yet, so the benchmark wraps the
public entry point of each layer from here: :meth:`Tracer.patch_function`
swaps a module-level function everywhere a ``repro`` module bound it by
name, :meth:`Tracer.patch_method` swaps a method on a base class and on
every subclass that overrides it. :meth:`Tracer.restore` undoes both.

Each call becomes a span: name, start, end, parent span, process id,
optional counts derived from the call's arguments and result, and — in
a memory pass — the peak of ``tracemalloc``-traced allocations above the
span's starting level. Tracing allocations slows object-heavy Python
code several times over and numeric code hardly at all, which would
reorder the layers, so the benchmark times layers in a pass without it
and takes the peaks from a second pass with it.

Spans stay in memory. Fused pool workers are forked from the traced
process, so they inherit the wrappers; a worker appends its finished
spans to a spool file each time its outermost span closes, and
:meth:`Tracer.collect` merges those files into the parent's list once
the traced campaign has returned.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Derives counts from a wrapped call: (bound arguments, result) -> counts.
CountFn = Callable[[Dict[str, Any], Any], Dict[str, float]]


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Records nested spans of the wrapped layer calls of one process tree."""

    def __init__(self, spool_dir: Path, memory: bool) -> None:
        self._memory = memory
        self._owner = os.getpid()
        self._pid = self._owner
        self._seq = 0
        self._stack: List[Dict[str, Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._spool_dir = spool_dir
        self.spans: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _adopt_fork(self) -> None:
        """A forked worker starts with an empty span list of its own."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._stack = []
            self.spans = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Record one span; yields its record so callers can add counts."""
        self._adopt_fork()
        parent = self._stack[-1] if self._stack else None
        base = 0
        if self._memory:
            if parent is not None:
                # reset_peak() below forgets the parent's peak so far.
                parent["_peak"] = max(
                    parent["_peak"], tracemalloc.get_traced_memory()[1]
                )
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        record: Dict[str, Any] = {
            "id": f"{self._pid}:{self._seq}",
            "parent": None if parent is None else parent["id"],
            "name": name,
            "pid": self._pid,
            "counts": {},
            "_base": base,
            "_peak": base,
        }
        self._seq += 1
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            peak = record.pop("_peak")
            if self._memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            record["peak_bytes"] = peak - record.pop("_base")
            self._stack.pop()
            if self._stack:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
            self.spans.append(record)
            if not self._stack and self._pid != self._owner:
                self._spool()

    def _spool(self) -> None:
        path = self._spool_dir / f"spans-{self._pid}.jsonl"
        with path.open("a") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self, adopt_parent: Optional[str]) -> None:
        """Merge the workers' spooled spans into :attr:`spans`.

        A worker's outermost spans have no parent in their own process;
        they become children of ``adopt_parent`` (the traced campaign's
        span), which their wall-clock interval lies inside.
        """
        for path in sorted(self._spool_dir.glob("spans-*.jsonl")):
            with path.open() as fh:
                for line in fh:
                    record = json.loads(line)
                    if record["parent"] is None:
                        record["parent"] = adopt_parent
                    self.spans.append(record)
            path.unlink()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(
        self, original: Callable, name: str, count: Optional[CountFn]
    ) -> Callable:
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    record["counts"].update(count(bound, result))
                return result

        return wrapper

    def _set(self, target: Any, attr: str, value: Any) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def patch_function(
        self,
        module: Any,
        attr: str,
        name: str,
        count: Optional[CountFn] = None,
    ) -> int:
        """Wrap ``module.attr`` in every ``repro`` module that bound it.

        Returns how many bindings were replaced.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, count)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    replaced += 1
        return replaced

    def patch_method(
        self,
        base: type,
        attr: str,
        name: str,
        count: Optional[CountFn] = None,
    ) -> int:
        """Wrap ``attr`` on ``base`` and every subclass that defines it.

        Abstract declarations are skipped. Returns how many classes were
        patched.
        """
        replaced = 0
        for cls in [base, *_subclasses(base)]:
            original = vars(cls).get(attr)
            if original is None or getattr(
                original, "__isabstractmethod__", False
            ):
                continue
            self._set(cls, attr, self._wrapper(original, name, count))
            replaced += 1
        return replaced

    def restore(self) -> None:
        """Put every wrapped binding back."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)
