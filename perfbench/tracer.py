"""In-memory span tracer that wraps baxter's public functions from outside.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span (-1 for a root, which is one benchmark operation), and
``note`` is whatever small summary the target's ``note`` callback extracted
from the call's arguments and result.  A span's self time is its duration
minus the durations of its direct children.

Wrapping replaces the function object in every ``baxter`` module namespace
that holds it, so calls made through ``from .x import f`` bindings are seen
too.  ``restore`` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Trace ``owner.attr`` under span ``name`` wherever baxter binds it."""
        self.replace(owner, attr, lambda fn: self._wrap(name, fn, note))

    def patch_public(self, module, layer: str) -> None:
        """Trace every plain function named in ``module.__all__``."""
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                self.patch(module, attr, f"{layer}.{attr}")

    def replace(self, owner, attr: str, make) -> None:
        """Swap ``owner.attr`` for ``make(original)`` in every baxter
        module that binds the same function object."""
        raw = vars(owner).get(attr)
        if isinstance(raw, classmethod):
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(make(getattr(owner, attr))))
            return
        orig = getattr(owner, attr)
        new = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname != "baxter" and not modname.startswith("baxter."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- queries over the recorded spans ---------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def under(self, index: int, name: str) -> bool:
        """Whether span ``index`` has an ancestor called ``name``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
