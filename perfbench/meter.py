"""Wall time in reference seconds.

The effective speed of a small shared virtual machine drifts: on the 2-vCPU
Xeon VM the baseline in README.md was measured on, the same fixed work ran up
to 1.9x faster one minute than the next, and process CPU time drifted with
it. Raw wall times of runs made minutes apart then differ by more than any
useful bound.

So every timed section samples the machine's speed while it runs: a timer
signal interrupts the section ten times a second to run a fixed reference
task, built from the stdlib and the installed ``cryptography`` and never from
``ssiledger``, so no change to the program can change it. The section's
time, minus the time spent in the reference task, is scaled by
``reference.seconds / mean(reference task time)``: the seconds the section
would have taken on a machine where the task takes ``reference.seconds``. A
slowdown that hits both the program and the reference task cancels; a change
that makes the program slower does not.

Contention slows different kinds of work by different amounts, so a workload
is timed against the task that does its kind of work: ``INTERPRETER`` for
interpreted code, JSON, hashing and signature checks; ``WALLET`` adds a
memory-hard scrypt, for work dominated by the wallet's key derivation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

PERIOD_S = 0.1  # seconds between speed samples inside a section

_DATA = {f"k{i}": [i, "v" * (i % 17), {"x": i}] for i in range(40)}
_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_MESSAGE = b"reference" * 8
_SIGNATURE = _KEY.sign(_MESSAGE)
_PUBLIC = _KEY.public_key()


def _interpreter_task() -> None:
    for _ in range(12):
        text = json.dumps(_DATA, sort_keys=True, separators=(",", ":"))
        hashlib.sha256(text.encode()).digest()
        sorted(_DATA.items(), key=lambda item: item[0][::-1])
    for _ in range(4):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)


def _wallet_task() -> None:
    _interpreter_task()
    hashlib.scrypt(_MESSAGE, salt=b"perfbench", n=2**10, r=8, p=1, dklen=32)  # 1 MiB


@dataclass(frozen=True)
class Reference:
    """A reference task and the seconds it takes at reference speed (about
    its median on the VM above)."""

    name: str
    task: Callable[[], None]
    seconds: float


INTERPRETER = Reference("interpreter", _interpreter_task, 1.6e-3)
WALLET = Reference("wallet", _wallet_task, 4.5e-3)


@dataclass
class Section:
    """One timed section: ``seconds`` is what the benchmark reports, ``raw_s``
    the wall seconds it spent on the measured work."""

    seconds: float = 0.0
    raw_s: float = 0.0


@contextlib.contextmanager
def wall_section():
    """A section timed in plain wall seconds."""
    section = Section()
    start = time.perf_counter()
    try:
        yield section
    finally:
        section.raw_s = section.seconds = time.perf_counter() - start


@contextlib.contextmanager
def reference_section(reference: Reference):
    """A section timed in reference seconds, sampling speed with SIGALRM."""
    samples: list[float] = []

    def sample(signum, frame) -> None:
        start = time.perf_counter()
        reference.task()
        samples.append(time.perf_counter() - start)

    section = Section()
    previous = signal.signal(signal.SIGALRM, sample)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield section
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        section.raw_s = elapsed - sum(samples)
        if not samples:  # shorter than one period: sample once, right after
            sample(signal.SIGALRM, None)
        section.seconds = section.raw_s * reference.seconds / statistics.fmean(samples)
