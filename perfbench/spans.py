"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start_ns, end_ns, parent_id).  Spans are appended to
a list while the run executes and written out as JSON lines only when the
run has ended, so tracing never touches the disk inside a timed region.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, perf_counter_ns(), 0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _, _ = self.spans[sid]
            self.spans[sid] = (sid, name, start, perf_counter_ns(), parent)

    def seconds(self, name: str, under: int | None = None) -> float:
        """Summed duration of the spans called ``name`` (below span ``under``)."""
        keep = None if under is None else self._descendants(under)
        return sum(
            end - start
            for sid, n, start, end, _ in self.spans
            if n == name and (keep is None or sid in keep)
        ) / 1e9

    def duration(self, sid: int) -> float:
        _, _, start, end, _ = self.spans[sid]
        return (end - start) / 1e9

    def last(self, name: str) -> int:
        return max(sid for sid, n, *_ in self.spans if n == name)

    def _descendants(self, root: int) -> set[int]:
        out = {root}
        for sid, _, _, _, parent in self.spans:  # parents precede children
            if parent in out:
                out.add(sid)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )
