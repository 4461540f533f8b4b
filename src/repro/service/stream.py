"""The streaming layer: per-job channels plus a fleet-wide firehose.

Every event the service emits — job state transitions, per-wave
progress, dedup ratios, evidence-epoch advances, bug-database status
changes — is published to the submitting job's channel (named by its
job id) **and** mirrored onto the ``firehose`` channel that dashboards
and the CI smoke test watch.  Channels are independent monotonic
sequences, so a client can resume either kind from ``since=<seq>``
after a disconnect without gaps or duplicates (up to the bounded
history).

The bus is the bridge between the blocking fleet world and asyncio:
``publish`` may be called from the service loop *or* from a campaign
worker thread (bug-database listeners fire inside ``run_in_executor``);
off-loop publishes hop through ``call_soon_threadsafe`` so subscriber
queues are only ever touched on the loop.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.fleet.telemetry import JsonlEventLog

FIREHOSE = "firehose"


class Subscription:
    """One live subscriber: an asyncio queue fed by the bus."""

    def __init__(self, bus: "EventBus", channel: str):
        self.bus = bus
        self.channel = channel
        self.queue: "asyncio.Queue[dict]" = asyncio.Queue()

    async def get(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Next event, or None on timeout."""
        try:
            if timeout is None:
                return await self.queue.get()
            return await asyncio.wait_for(self.queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    def close(self) -> None:
        self.bus.unsubscribe(self)


class EventBus:
    """Bounded-history, sequence-numbered event channels."""

    def __init__(
        self,
        history: int = 4096,
        sink: Optional[JsonlEventLog] = None,
    ):
        self.history = history
        # Every event (its firehose copy) is appended to the sink, so a
        # service run leaves a replayable JSONL artifact behind.
        self.sink = sink
        self._lock = threading.Lock()
        self._events: Dict[str, Deque[dict]] = {}
        self._seqs: Dict[str, int] = {}
        self._subscribers: Dict[str, List[Subscription]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(self, channel: str, event: str, **fields) -> dict:
        """Emit one event to ``channel`` and mirror it to the firehose.

        Returns the channel's copy (with its per-channel ``seq``).
        Thread-safe: history and sequence assignment happen under a
        lock immediately, so a poller never misses an event published
        just before its read; only subscriber-queue delivery is
        deferred to the loop.
        """
        base = {"channel": channel, "event": event, "ts": time.time()}
        base.update(fields)
        with self._lock:
            record = self._append(channel, base)
            mirror = None
            if channel != FIREHOSE:
                mirror = self._append(FIREHOSE, dict(base))
        if self.sink is not None:
            # The JSONL record keeps event="service"; the bus-level event
            # name moves to service_event so both survive round-trips.
            payload = dict(mirror or record)
            payload["service_event"] = payload.pop("event")
            self.sink.emit("service", **payload)
        self._deliver(channel, record)
        if mirror is not None:
            self._deliver(FIREHOSE, mirror)
        return record

    def _append(self, channel: str, base: dict) -> dict:
        seq = self._seqs.get(channel, 0) + 1
        self._seqs[channel] = seq
        record = dict(base, seq=seq)
        ring = self._events.get(channel)
        if ring is None:
            ring = self._events[channel] = deque(maxlen=self.history)
        ring.append(record)
        return record

    def _deliver(self, channel: str, record: dict) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._fanout(channel, record)
        else:
            try:
                loop.call_soon_threadsafe(self._fanout, channel, record)
            except RuntimeError:
                # Loop already closed (service shutting down): history
                # and the sink still got the event; live delivery is
                # moot with no loop to deliver on.
                pass

    def _fanout(self, channel: str, record: dict) -> None:
        for sub in list(self._subscribers.get(channel, ())):
            sub.queue.put_nowait(record)

    # ------------------------------------------------------------------
    # Consume
    # ------------------------------------------------------------------
    def latest_seq(self, channel: str) -> int:
        with self._lock:
            return self._seqs.get(channel, 0)

    def events_since(
        self, channel: str, since: int = 0, limit: Optional[int] = None
    ) -> List[dict]:
        """History replay: events with ``seq > since``, oldest first."""
        with self._lock:
            ring = self._events.get(channel, ())
            events = [event for event in ring if event["seq"] > since]
        if limit is not None:
            events = events[:limit]
        return events

    def subscribe(self, channel: str, since: int = 0) -> Subscription:
        """Live subscription, seeded with history newer than ``since``.

        Must be called on the service loop (subscriber queues are
        loop-affine).  Replay and registration happen under one lock
        pass, so no event between them can be dropped or duplicated.
        """
        sub = Subscription(self, channel)
        with self._lock:
            backlog = [
                event
                for event in self._events.get(channel, ())
                if event["seq"] > since
            ]
            self._subscribers.setdefault(channel, []).append(sub)
        for event in backlog:
            sub.queue.put_nowait(event)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            subs = self._subscribers.get(sub.channel)
            if subs and sub in subs:
                subs.remove(sub)
                if not subs:
                    del self._subscribers[sub.channel]

    def drop(self, channel: str) -> None:
        """Forget a channel's history and sequence (its job was evicted).

        Live subscribers keep every event already delivered to them.
        """
        with self._lock:
            self._events.pop(channel, None)
            self._seqs.pop(channel, None)

    # ------------------------------------------------------------------
    async def poll(
        self,
        channel: str,
        since: int = 0,
        timeout: float = 10.0,
        limit: Optional[int] = None,
    ) -> Tuple[List[dict], int]:
        """Long-poll: immediate backlog, else wait up to ``timeout``.

        Returns ``(events, next_since)`` — the cursor to pass back on
        the next poll.  An empty list after the timeout is a normal
        keep-alive answer, not an error.
        """
        events = self.events_since(channel, since, limit)
        if events:
            return events, events[-1]["seq"]
        sub = self.subscribe(channel, since)
        try:
            event = await sub.get(timeout)
        finally:
            sub.close()
        if event is None:
            return [], since
        # The wakeup event plus anything that raced in behind it.
        events = [event] + self.events_since(channel, event["seq"], limit)
        if limit is not None:
            events = events[:limit]
        return events, events[-1]["seq"]


def render_sse(event: dict) -> bytes:
    """One event in Server-Sent-Events wire form."""
    payload = json.dumps(event, sort_keys=True)
    return (
        f"id: {event.get('seq', 0)}\n"
        f"event: {event.get('event', 'message')}\n"
        f"data: {payload}\n\n"
    ).encode("utf-8")
