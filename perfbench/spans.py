"""In-memory span recorder that wraps public functions from the outside.

A :class:`Tracer` replaces a module or class attribute with a wrapper that
records ``(index, parent, name, start, end)`` around each call.  The parent
is the innermost open span on the same thread, so self time (span minus
children, see :func:`pbstats.self_times`) needs no cooperation from the
program.  An optional ``key`` function tags a span with the request ids it
served, which is how per-request stage sums are attributed.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Key = Callable[[tuple, dict, object], Sequence[str]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: span index -> request ids it served
        self.keys: Dict[int, Sequence[str]] = {}
        #: span name -> list of numbers recorded by ``note`` callbacks
        self.notes: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        key: Optional[Key] = None,
        note: Optional[Callable[[tuple, dict, object], float]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``key(args, kwargs, result)`` returns the request ids the call
        served; ``note(args, kwargs, result)`` returns one number to keep
        under ``name`` (for example the size of the input).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append((index, parent, name, 0.0, 0.0))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (index, parent, name, start, end)
            if key is not None:
                ids = key(args, kwargs, result)
                if ids:
                    tracer.keys[index] = ids
            if note is not None:
                tracer.notes.setdefault(name, []).append(float(note(args, kwargs, result)))
            return result

        setattr(owner, attr, wrapper)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "keys": {str(k): list(v) for k, v in self.keys.items()},
                    "notes": self.notes,
                },
                handle,
            )


def load(path: str):
    """``(spans, keys, notes)`` as written by :meth:`Tracer.dump`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    spans = [tuple(span) for span in data["spans"]]
    keys = {int(k): v for k, v in data["keys"].items()}
    return spans, keys, data["notes"]
