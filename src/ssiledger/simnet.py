"""Deterministic in-process network simulation.

Simulated time is integer milliseconds. Every message delivery, timer, and
injected event sits in one priority queue ordered by (time, sequence counter),
and all latency/drop sampling comes from a single seeded RNG, so a run is a
pure function of (seed, configuration, injected events).

A send makes exactly the draws of ``rng.random() < drop_prob`` (on a lossy
link only) and ``rng.randint(lo, max(lo, hi))``: its latency is ``lo`` plus
``rng._randbelow(width)``, the one draw ``randint`` makes. Each link's band,
scaled by its sender's slow factor, is worked out once, when the network is
built.

Per-link latency profiles, drop probabilities, outbound slow-down factors and
partition windows are the fault-injection surface the consensus tests drive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Iterable, NamedTuple

DELIVER = "deliver"
TIMER = "timer"
SUBMIT = "submit"
CONTROL = "control"


@dataclass(frozen=True)
class LinkProfile:
    """Latency band (inclusive, ms) and drop probability for one link. A band
    with ``max_latency < min_latency`` is the single latency ``min_latency``."""

    min_latency: int = 5
    max_latency: int = 15
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("min_latency", "max_latency"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a non-negative integer of ms, got {value!r}")
        if type(self.drop_prob) not in (int, float) or not 0 <= self.drop_prob <= 1:
            raise ValueError(f"drop_prob must be a probability in [0, 1], got {self.drop_prob!r}")


@dataclass(frozen=True)
class Partition:
    """During [start, end) messages between the two groups are dropped."""

    start: int
    end: int
    group_a: frozenset[int]
    group_b: frozenset[int]

    def blocks(self, now: int, src: int, dst: int) -> bool:
        if not self.start <= now < self.end:
            return False
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


class SimEvent(NamedTuple):
    """A queued event, and its own heap entry: ``seq`` is unique, so the heap
    orders by (time, seq) and never compares payloads."""

    time: int
    seq: int
    kind: str
    node: int
    payload: Any = None
    src: int = -1


@dataclass
class NetworkConfig:
    n: int = 4
    default_link: LinkProfile = field(default_factory=LinkProfile)
    link_overrides: dict[tuple[int, int], LinkProfile] = field(default_factory=dict)
    slow_nodes: dict[int, float] = field(default_factory=dict)  # node -> outbound factor
    partitions: list[Partition] = field(default_factory=list)

    def __post_init__(self) -> None:
        for node, factor in self.slow_nodes.items():
            if type(factor) not in (int, float) or not (math.isfinite(factor) and factor >= 0):
                raise ValueError(f"slow factor of node {node} must be finite and non-negative, got {factor!r}")

    def band(self, src: int, dst: int) -> tuple[float, int, int]:
        """(drop probability, lowest latency, number of latencies) of one link."""
        profile = self.link_overrides.get((src, dst), self.default_link)
        low, high = profile.min_latency, profile.max_latency
        factor = self.slow_nodes.get(src)
        if factor:
            low, high = int(low * factor), int(high * factor)
        return profile.drop_prob, low, max(low, high) - low + 1


class SimNetwork:
    """Event queue plus link model. The network owns simulated time."""

    def __init__(self, config: NetworkConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)
        self._randbelow = self.rng._randbelow  # the one draw randint(lo, hi) makes
        self._bands = [[config.band(src, dst) for dst in range(config.n)] for src in range(config.n)]
        self.now = 0
        self._queue: list[SimEvent] = []
        self._counter = 0
        self.sent = 0
        self.dropped = 0

    def send(self, src: int, dst: int, message: Any) -> None:
        """Queue a message for delivery, subject to drops and partitions."""
        self.sent += 1
        now = self.now
        for partition in self.config.partitions:
            if partition.blocks(now, src, dst):
                self.dropped += 1
                return
        drop_prob, low, width = self._bands[src][dst]
        if drop_prob > 0 and self.rng.random() < drop_prob:
            self.dropped += 1
            return
        self._counter += 1
        heappush(self._queue, SimEvent(now + low + self._randbelow(width), self._counter, DELIVER, dst, message, src))

    def broadcast(self, src: int, peers: Iterable[int], message: Any) -> None:
        for dst in peers:
            self.send(src, dst, message)

    def timer(self, node: int, delay: int, payload: Any) -> None:
        self._counter += 1
        heappush(self._queue, SimEvent(self.now + delay, self._counter, TIMER, node, payload))

    def inject(self, at: int, kind: str, node: int, payload: Any) -> None:
        """Schedule an external event (client submission, fault activation)."""
        self._counter += 1
        heappush(self._queue, SimEvent(max(at, self.now), self._counter, kind, node, payload))

    def pop(self) -> SimEvent | None:
        if not self._queue:
            return None
        event = heappop(self._queue)
        self.now = event.time
        return event

    def __len__(self) -> int:
        return len(self._queue)
