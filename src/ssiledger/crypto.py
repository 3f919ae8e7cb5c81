"""Hashing, signing, key derivation and public-key encryption primitives.

Signatures are Ed25519 (deterministic, 64-byte signatures, 32-byte keys), so
signing the same message twice yields identical bytes and golden tests stay
stable. Ed25519 and the wallet's memory-hard scrypt (RFC 7914) run on
libsodium alone, so every node and verifier reaches the same verdict on the
same bytes. Public-key encryption is an X25519 sealed box: an ephemeral
keypair per message, HKDF-SHA256, ChaCha20-Poly1305 AEAD. All key and
signature material is raw bytes; hex rendering is lowercase everywhere.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import os
from dataclasses import dataclass
from typing import Any

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .canonical import canonicalize

DIGEST_SIZE = 32
SEED_SIZE = 32
KEY_SIZE = 32
SIGNATURE_SIZE = 64
MAX_SEALED_PLAINTEXT = 4096

_SEAL_INFO = b"ssiledger/sealed-box/v1"
_RAW = serialization.Encoding.Raw
_RAW_PUBLIC = serialization.PublicFormat.Raw
_RAW_PRIVATE = serialization.PrivateFormat.Raw
_NO_ENCRYPTION = serialization.NoEncryption()

_SODIUM_PATH = ctypes.util.find_library("sodium")
if _SODIUM_PATH is None:
    raise ImportError("ssiledger.crypto needs libsodium (>= 1.0.18) for Ed25519 and scrypt")
_sodium = ctypes.CDLL(_SODIUM_PATH)
if _sodium.sodium_init() < 0:
    raise ImportError("libsodium failed to initialise")
_verify_detached = _sodium.crypto_sign_ed25519_verify_detached
_verify_detached.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
_verify_detached.restype = ctypes.c_int
_seed_keypair = _sodium.crypto_sign_ed25519_seed_keypair
_seed_keypair.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
_seed_keypair.restype = ctypes.c_int
_sign_detached = _sodium.crypto_sign_ed25519_detached
_sign_detached.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p)
_sign_detached.restype = ctypes.c_int
_scrypt = _sodium.crypto_pwhash_scryptsalsa208sha256_ll
_scrypt.argtypes = (ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_size_t, ctypes.c_uint64,
                    ctypes.c_uint32, ctypes.c_uint32, ctypes.c_char_p, ctypes.c_size_t)
_scrypt.restype = ctypes.c_int


class CryptoError(Exception):
    """Base class for crypto failures."""


class InvalidSeed(CryptoError):
    """Key generation seed has the wrong length."""


class InvalidKey(CryptoError):
    """Key bytes do not form a usable key."""


class PlaintextTooLarge(CryptoError):
    """Sealed-box plaintext exceeds the size bound."""


class DecryptFailed(CryptoError):
    """Ciphertext is tampered, truncated, or for a different key."""


@dataclass(frozen=True)
class Digest:
    """A SHA-256 output: exactly 32 bytes, rendered as 64 lowercase hex chars."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != DIGEST_SIZE:
            raise ValueError("digest must be exactly 32 bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.value.hex()

    def __bytes__(self) -> bytes:
        return self.value

    def __repr__(self) -> str:
        return f"Digest({self.hex})"


ZERO_DIGEST = Digest(b"\x00" * DIGEST_SIZE)


@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 keypair; the private part must never leave a wallet unencrypted."""

    public: bytes
    private: bytes


@dataclass(frozen=True)
class EncryptionKeyPair:
    """X25519 keypair used for sealed-box encryption (e.g. auth challenges)."""

    public: bytes
    private: bytes


def sha256(data: bytes) -> Digest:
    """Standard SHA-256 digest of a byte sequence."""
    return Digest(hashlib.sha256(data).digest())


def digest_of(value: Any) -> Digest:
    """SHA-256 over the canonical JSON encoding of a structured value."""
    return sha256(canonicalize(value))


def _ed25519(seed: bytes, message: bytes | None = None) -> tuple[bytes, bytes]:
    public = ctypes.create_string_buffer(KEY_SIZE)
    expanded = ctypes.create_string_buffer(SIGNATURE_SIZE)  # seed || public: zeroed before return
    signature = ctypes.create_string_buffer(SIGNATURE_SIZE)
    _seed_keypair(public, expanded, seed)
    if message is not None:
        _sign_detached(signature, None, message, len(message), expanded)
    ctypes.memset(expanded, 0, SIGNATURE_SIZE)
    return public.raw, signature.raw


def scrypt(secret: bytes, salt: bytes, n: int, r: int, p: int, length: int = 32) -> bytes:
    """RFC 7914 scrypt; memory-hard, it holds 128·n·r bytes while it runs."""
    out = ctypes.create_string_buffer(length)
    in_range = min(n, r, p) >= 1 and r * p < 1 << 30 and n < 1 << 32  # ctypes truncates wider ints
    if not in_range or _scrypt(secret, len(secret), salt, len(salt), n, r, p, out, length):
        raise CryptoError(f"scrypt refused n={n}, r={r}, p={p}")
    return out.raw


def generate_signing_keypair(seed: bytes) -> SigningKeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed. Deterministic."""
    if len(seed) != SEED_SIZE:
        raise InvalidSeed(f"signing seed must be {SEED_SIZE} bytes, got {len(seed)}")
    public, _ = _ed25519(memoryview(seed).tobytes())
    return SigningKeyPair(public=public, private=seed)


def generate_encryption_keypair(seed: bytes) -> EncryptionKeyPair:
    """Derive an X25519 keypair from a 32-byte seed. Deterministic."""
    if len(seed) != SEED_SIZE:
        raise InvalidSeed(f"encryption seed must be {SEED_SIZE} bytes, got {len(seed)}")
    key = X25519PrivateKey.from_private_bytes(seed)
    public = key.public_key().public_bytes(_RAW, _RAW_PUBLIC)
    private = key.private_bytes(_RAW, _RAW_PRIVATE, _NO_ENCRYPTION)
    return EncryptionKeyPair(public=public, private=private)


def sign(private: bytes, message: bytes) -> bytes:
    """Sign a message; returns a 64-byte deterministic signature."""
    if not isinstance(private, bytes) or len(private) != KEY_SIZE:
        raise InvalidKey("signing key must be 32 raw private bytes")
    message = message if isinstance(message, bytes) else memoryview(message).tobytes()
    return _ed25519(private, message)[1]


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature was produced over message by the matching key.

    Total over keys and signatures: malformed ones simply fail verification.
    Beyond the RFC 8032 equation, libsodium requires a canonical S (below the
    group order) and refuses a key or an R that is of small order or not
    canonically encoded; such a key would otherwise let anyone sign. The
    message may be any bytes-like object; anything else raises TypeError.
    """
    if not isinstance(public, bytes) or len(public) != KEY_SIZE:
        return False
    if not isinstance(signature, bytes) or len(signature) != SIGNATURE_SIZE:
        return False
    message = message if isinstance(message, bytes) else memoryview(message).tobytes()
    return _verify_detached(signature, message, len(message), public) == 0


def _sealed_key(shared: bytes, ephemeral_public: bytes, recipient_public: bytes) -> bytes:
    return HKDF(
        algorithm=SHA256(),
        length=KEY_SIZE + 12,
        salt=ephemeral_public + recipient_public,
        info=_SEAL_INFO,
    ).derive(shared)


def encrypt_to(public: bytes, plaintext: bytes) -> bytes:
    """Encrypt to an X25519 public key. Randomized: a fresh ephemeral keypair
    per call, so two encryptions of the same plaintext differ.

    Output layout: ephemeral public key (32 bytes) || AEAD ciphertext.
    """
    if len(plaintext) > MAX_SEALED_PLAINTEXT:
        raise PlaintextTooLarge(
            f"plaintext of {len(plaintext)} bytes exceeds {MAX_SEALED_PLAINTEXT}"
        )
    try:
        recipient = X25519PublicKey.from_public_bytes(public)
    except ValueError as exc:
        raise InvalidKey("recipient key must be 32 raw X25519 public bytes") from exc
    ephemeral = X25519PrivateKey.from_private_bytes(os.urandom(KEY_SIZE))
    ephemeral_public = ephemeral.public_key().public_bytes(_RAW, _RAW_PUBLIC)
    material = _sealed_key(ephemeral.exchange(recipient), ephemeral_public, public)
    sealed = ChaCha20Poly1305(material[:KEY_SIZE]).encrypt(material[KEY_SIZE:], plaintext, None)
    return ephemeral_public + sealed


def decrypt_from(private: bytes, ciphertext: bytes) -> bytes:
    """Open a sealed box. Raises DecryptFailed for any mismatch or tampering."""
    if len(ciphertext) < KEY_SIZE + 16:
        raise DecryptFailed("ciphertext too short")
    try:
        recipient = X25519PrivateKey.from_private_bytes(private)
    except ValueError as exc:
        raise DecryptFailed("malformed private key") from exc
    ephemeral_public = ciphertext[:KEY_SIZE]
    recipient_public = recipient.public_key().public_bytes(_RAW, _RAW_PUBLIC)
    try:
        shared = recipient.exchange(X25519PublicKey.from_public_bytes(ephemeral_public))
        material = _sealed_key(shared, ephemeral_public, recipient_public)
        return ChaCha20Poly1305(material[:KEY_SIZE]).decrypt(
            material[KEY_SIZE:], ciphertext[KEY_SIZE:], None
        )
    except (InvalidTag, ValueError) as exc:
        raise DecryptFailed("sealed box did not open") from exc
