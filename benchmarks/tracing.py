"""In-memory span recorder wrapped around rhomean's public layer calls.

``Tracer.install`` replaces each target function in every loaded ``rhomean``
module namespace that holds it (``from .x import f`` copies the reference, so
patching the defining module alone would miss most call sites).  Each call
then records one span ``(name, start, end, parent, run_id)``; an optional
observer turns the call's arguments and result into computed counts.
Targets missing from the code under test are skipped and listed, so the same
benchmark runs on a commit that renamed or removed a layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets: dict[str, object]) -> None:
        """Wrap each ``"module.function"`` target; values are observers or None."""
        modules = [m for k, m in sys.modules.items() if k == "rhomean" or k.startswith("rhomean.")]
        for target, observe in targets.items():
            mod_name, func_name = target.rsplit(".", 1)
            mod = sys.modules.get(f"rhomean.{mod_name}")
            original = getattr(mod, func_name, None)
            if original is None:
                self.missing.append(target)
                continue
            wrapped = self._wrap(target, original, observe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def child_total(self, parent_name: str, child_name: str | None = None) -> float:
        """Time spent in direct children of ``parent_name`` spans (any child if None)."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if parent in parents and (child_name is None or n == child_name)
        )

    def nested_total(self, outer: str, inner: str) -> float:
        """Time in ``inner`` spans that run anywhere below an ``outer`` span."""
        outer_idx = {i for i, s in enumerate(self.spans) if s[0] == outer}
        total = 0.0
        for n, start, end, parent in self.spans:
            if n != inner:
                continue
            while parent is not None and parent not in outer_idx:
                parent = self.spans[parent][3]
            if parent is not None:
                total += end - start
        return total

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "run_id": self.run_id}
                    )
                    + "\n"
                )
