"""In-memory spans and counters recorded around calls into a package.

A :class:`Tracer` replaces module-level functions of the traced package
with wrappers, in every module namespace that binds them, so calls made
through ``from .x import f`` aliases are seen too.  Spans are kept as
plain tuples ``(name, start, end, parent)`` in call order, where
``parent`` is the index of the enclosing span or -1; nothing is written
until the caller asks.  :meth:`Tracer.restore` puts every original
object back and :meth:`Tracer.unrestored` proves it did.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list = []
        self.counts: Counter = Counter()
        self.values: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _patch_everywhere(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def span(self, module, func: str, name: str, on_return=None) -> None:
        """Record a span around every call of ``module.func``.

        ``on_return(tracer, result, args)`` runs after the span has ended,
        so the counters it derives from the result cost no span time.
        """
        original = getattr(module, func)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(self, result, args)
            return result

        wrapper.__wrapped__ = original
        self._patch_everywhere(original, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls without a span, for hot functions.

        ``owner`` is the defining module, or a class whose method, such as
        ``__post_init__``, is looked up on the class at each call.
        """
        original = vars(owner)[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
        else:
            self._patch_everywhere(original, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
