"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start, an end, the span that caused it and the round
(trace) it belongs to. Spans stay in memory until ``write`` is called at the
end of the run. The layer of a span is the part of its name before the
first dot.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self.trace,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, targets: list[tuple[object, str, str, object]]):
        """Record a span around every call of ``module.attr`` while active.

        Each target is ``(module, attr, span name, counts)``; ``counts`` maps
        ``(args, result)`` to a dict of work counts stored on the span, or is
        None. The span name may hold ``{0}`` for the first positional
        argument after the first (used to tell feature sets apart).
        """
        saved = []
        for module, attr, name, counts in targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name.format(*args[1:2]) if "{0}" in name else name
            with self.span(label) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec["counts"] = counts(args, result)
            return result

        return traced

    def children(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                out.setdefault(s["parent"], []).append(s)
        return out

    def self_time(self, span: dict, kids: dict[int, list[dict]]) -> float:
        # Children of one span run one after another, so their durations add.
        inner = sum(c["end"] - c["start"] for c in kids.get(span["id"], ()))
        return (span["end"] - span["start"]) - inner

    def ancestor(self, span: dict, prefix: str) -> dict | None:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            if span["name"].startswith(prefix):
                return span
        return None

    def self_time_table(self) -> list[str]:
        kids = self.children()
        by_layer: dict[str, list] = {}
        for s in self.spans:
            acc = by_layer.setdefault(s["name"].split(".", 1)[0], [0.0, 0])
            acc[0] += self.self_time(s, kids)
            acc[1] += 1
        total = sum(v[0] for v in by_layer.values())
        lines = [f"{'layer':<12} {'self_s':>9} {'share':>6} {'spans':>7}"]
        for layer, (own, n) in sorted(by_layer.items(), key=lambda kv: -kv[1][0]):
            lines.append(f"{layer:<12} {own:9.3f} {own / total:6.1%} {n:7d}")
        return lines

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter seconds", "spans": self.spans}, fh)
            fh.write("\n")
