"""Public-key challenge-response authentication.

The verifier encrypts a random nonce to the subject's agreement key and sends
only the ciphertext. Decrypting it and echoing the nonce back proves control
of the matching private key. Challenges expire and are single-use: without a
ttl and replay tracking the protocol would be trivially replayable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from .crypto import encrypt_to

NONCE_SIZE = 32
DEFAULT_TTL = 120  # seconds


@dataclass(frozen=True)
class Challenge:
    """One issued challenge. Only ``ciphertext`` is ever transmitted; the
    nonce stays with the verifier."""

    nonce: bytes
    ciphertext: bytes


@dataclass(frozen=True)
class AuthResult:
    authenticated: bool
    reason: str | None = None  # Mismatch | Expired | Replayed


AUTHENTICATED = AuthResult(True)


@dataclass
class ChallengeVerifier:
    """Issues challenges and tracks them for one verifying party: ``pending``
    maps each nonce to the time it expires.

    Every response is checked exactly once: a correct nonce authenticates the
    first time and is Replayed thereafter; expiry consumes the challenge too.
    """

    pending: dict[bytes, int] = field(default_factory=dict)
    consumed: set[bytes] = field(default_factory=set)

    def issue(
        self,
        subject_agreement_key: bytes,
        ttl: int = DEFAULT_TTL,
        now: int = 0,
        rng: Callable[[int], bytes] = os.urandom,
    ) -> Challenge:
        """A fresh challenge for a subject's agreement key, pending until ``now + ttl``."""
        if ttl <= 0:
            raise ValueError("challenge ttl must be positive")
        nonce = rng(NONCE_SIZE)
        ciphertext = encrypt_to(subject_agreement_key, nonce)
        self.pending[nonce] = now + ttl
        return Challenge(nonce, ciphertext)

    def check(self, response: bytes, now: int) -> AuthResult:
        """Match a response against pending challenges."""
        if response in self.consumed:
            return AuthResult(False, "Replayed")
        expires = self.pending.pop(response, None)
        if expires is None:
            return AuthResult(False, "Mismatch")
        self.consumed.add(response)
        if now > expires:
            return AuthResult(False, "Expired")
        return AUTHENTICATED
