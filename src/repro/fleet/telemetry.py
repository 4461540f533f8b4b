"""Fleet telemetry: counters, histograms, and a JSONL event log.

Production sampled detectors live or die by their observability — GWP-
ASan ships with per-process counters precisely because a 1-in-1000
sampler that silently stops arming watchpoints looks identical to a
bug-free fleet.  This module is the simulation's counterpart: a tiny
dependency-free metrics registry (counters and histograms) plus an
append-only JSONL event log, one line per execution and per aggregated
report, that survives the run for offline analysis.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Histogram:
    """Stores observations; summarises count/mean/min/max/percentiles.

    Fleet campaigns observe thousands of values at most, so keeping the
    raw samples is cheaper than bucketing would be — and exact
    percentiles make the telemetry assertions in tests deterministic.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (nearest-rank), q in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(1, -(-len(ordered) * q // 100)) if q else 1
        return ordered[int(rank) - 1]

    def summary(self) -> dict:
        if not self._values:
            return {"count": 0}
        ordered = sorted(self._values)
        return {
            "count": self.count,
            "mean": self.mean,
            "min": ordered[0],
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Lazily-created named counters and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def snapshot(self) -> dict:
        """All metrics as one JSON-ready dict (names sorted)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }


class JsonlEventLog:
    """An append-only JSONL log: one self-describing event per line.

    Writes are **line-atomic**: the file is opened in unbuffered binary
    append mode and each event is a single ``write()`` of one complete
    ``line + "\\n"`` — there is no userspace buffer that could flush
    half a line, and on POSIX an ``O_APPEND`` write lands as one
    contiguous span.  A concurrent reader tailing the file (the
    service's streaming layer, ``tail -f``, :func:`tail_jsonl`) can
    therefore only ever observe whole lines plus at most one still-
    growing final line — never an interleaving of two events.
    """

    def __init__(self, path: Optional[str] = None):
        """``path=None`` buffers events in memory only (for tests)."""
        self.path = path
        self.events_written = 0
        self._handle: Optional[BinaryIO] = (
            open(path, "ab", buffering=0) if path else None
        )
        self._buffer: List[dict] = []

    def emit(self, event: str, **fields) -> dict:
        """Append one event; returns the record as written."""
        record = {"event": event, **fields}
        if self._handle is not None:
            data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            self._handle.write(data)  # one write() syscall: line-atomic
        else:
            self._buffer.append(record)
        self.events_written += 1
        return record

    def buffered(self) -> List[dict]:
        """In-memory events (only populated when path is None)."""
        return list(self._buffer)

    def flush(self) -> None:
        """Force events to disk (a no-op: every emit already is)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def tail_jsonl(path: str, offset: int = 0) -> Tuple[List[dict], int]:
    """Read complete events appended at or after byte ``offset``.

    The follow-reader half of the line-atomicity contract: only lines
    terminated by ``\\n`` are parsed, and the returned offset points
    just past the last complete line — a final line still being written
    is left for the next call rather than surfaced torn.  Returns
    ``([], offset)`` for a file that does not exist yet, so pollers can
    start before the writer.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except FileNotFoundError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    events = []
    for raw in data[: end + 1].splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            events.append(json.loads(raw))
        except json.JSONDecodeError:
            continue
    return events, offset + end + 1


def read_jsonl(path: str) -> List[dict]:
    """Load every event from a JSONL log (skipping malformed lines)."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events
