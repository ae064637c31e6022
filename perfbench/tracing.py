"""In-memory spans that the benchmark records around its calls into each layer.

A span is named ``"<layer>/<operation>"``.  Spans nest: the span open when
another starts is its parent.  A layer's self time is the time its spans
cover minus the time covered by their child spans, so the self times of
all layers under one root span add up to the root's duration minus the
benchmark's own glue (the root's self time).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List

__all__ = ["Span", "Tracer", "NULL_TRACER", "write_trace"]


@dataclass
class Span:
    """One timed call: name, start and end (``perf_counter`` seconds), parent."""

    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split("/", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str):
        """Context manager timing the enclosed block as span ``name``."""
        if not self.enabled:
            return nullcontext()
        return self._record(name)

    @contextmanager
    def _record(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every closed span called ``name``, in start order."""
        return [span.duration for span in self.spans if span.name == name]

    def self_times(self, root: Span) -> Dict[str, float]:
        """Self time per layer, in seconds, over ``root`` and its descendants."""
        index = self.spans.index(root)
        covered = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        inside[index] = True
        # Children always start after their parent, so one forward pass
        # sees every parent's membership before its children.
        for position in range(index + 1, len(self.spans)):
            parent = self.spans[position].parent
            if parent >= 0 and inside[parent]:
                inside[position] = True
                covered[parent] += self.spans[position].duration
        out: Dict[str, float] = {}
        for position, span in enumerate(self.spans):
            if inside[position]:
                own = span.duration - covered[position]
                out[span.layer] = out.get(span.layer, 0.0) + own
        return out


#: Shared disabled tracer for untimed code paths.
NULL_TRACER = Tracer("untraced", enabled=False)


def write_trace(path: Path, env: Dict[str, object], tracers: List[Tracer]) -> None:
    """Write every span of ``tracers`` (plus the machine description) as JSON."""
    spans = []
    for tracer in tracers:
        offset = len(spans)
        for span in tracer.spans:
            record = asdict(span)
            if span.parent >= 0:
                record["parent"] = span.parent + offset
            spans.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"env": env, "spans": spans}) + "\n", encoding="utf-8")
