"""Deterministic in-process network simulation.

Simulated time is integer milliseconds. Every message delivery, timer, and
injected event is popped in (time, sequence counter) order, and all
latency/drop sampling comes from a single seeded RNG, so a run is a pure
function of (seed, configuration, injected events). Injected events, often a
whole workload scheduled ahead, wait in a heap of their own, so the heap that
every message and timer goes through holds only what is in flight.

A send makes exactly the draws of ``rng.random() < drop_prob`` (on a lossy
link only) and ``rng.randint(lo, max(lo, hi))``: its latency is ``lo`` plus
the one draw ``randint`` makes, ``rng._randbelow(width)``, which is inlined:
``getrandbits(width.bit_length())`` until the result is below ``width``. Each
link's band, scaled by its sender's slow factor, is worked out once, when the
network is built.

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
    orders by (time, seq) and never compares payloads. Entries are built with
    ``tuple.__new__``, which skips the Python-level ``__new__`` and its defaults."""

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


_entry = tuple.__new__  # _entry(SimEvent, fields): a SimEvent heap entry


class SimNetwork:
    """Event queue plus link model. The network owns simulated time."""

    def __init__(self, config: NetworkConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)
        self._getrandbits = self.rng.getrandbits
        bands = [[config.band(src, dst) for dst in range(config.n)] for src in range(config.n)]
        # each band with the bits of one draw below its width
        self._bands = [[(*band, band[2].bit_length()) for band in row] for row in bands]
        self.now = 0
        self._queue: list[SimEvent] = []  # messages and timers
        self._injected: list[SimEvent] = []
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
        drop_prob, low, width, bits = self._bands[src][dst]
        if drop_prob > 0 and self.rng.random() < drop_prob:
            self.dropped += 1
            return
        draw = self._getrandbits(bits)
        while draw >= width:
            draw = self._getrandbits(bits)
        self._counter += 1
        heappush(self._queue, _entry(SimEvent, (now + low + draw, self._counter, DELIVER, dst, message, src)))

    def broadcast(self, src: int, peers: Iterable[int], message: Any) -> None:
        for dst in peers:
            self.send(src, dst, message)

    def timer(self, node: int, delay: int, payload: Any) -> None:
        self._counter += 1
        heappush(self._queue, _entry(SimEvent, (self.now + delay, self._counter, TIMER, node, payload, -1)))

    def inject(self, at: int, kind: str, node: int, payload: Any) -> None:
        """Schedule an external event (client submission, fault activation)."""
        self._counter += 1
        heappush(self._injected, _entry(SimEvent, (max(at, self.now), self._counter, kind, node, payload, -1)))

    def pop(self) -> SimEvent | None:
        """The earliest event of the two heaps: seqs are unique, so no two
        entries tie."""
        queue, injected = self._queue, self._injected
        if injected and (not queue or injected[0] < queue[0]):
            event = heappop(injected)
        elif queue:
            event = heappop(queue)
        else:
            return None
        self.now = event.time
        return event

    def __len__(self) -> int:
        return len(self._queue) + len(self._injected)
