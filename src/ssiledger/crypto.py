"""Hashing, signing, key derivation and public-key encryption primitives.

Signatures are Ed25519 (deterministic, 64-byte signatures, 32-byte keys), so
signing the same message twice yields identical bytes and golden tests stay
stable. Public-key encryption is an X25519 sealed box: an ephemeral keypair
per message, HKDF-SHA256, ChaCha20-Poly1305 AEAD. Every primitive runs on
libsodium alone, bar HKDF on the stdlib ``hmac``, so every node and verifier
reaches the same verdict on the same bytes. All key and signature material
is raw bytes; hex rendering is lowercase everywhere.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Any

from .canonical import canonicalize

DIGEST_SIZE = 32
SEED_SIZE = 32
KEY_SIZE = 32
SIGNATURE_SIZE = 64
NONCE_SIZE = 12
TAG_SIZE = 16
MAX_SEALED_PLAINTEXT = 4096

_SEAL_INFO = b"ssiledger/sealed-box/v1"
PUBLIC_KEYS_MAX = 4096  # entries of _PUBLIC_KEYS; it is emptied when full

_SODIUM_PATH = ctypes.util.find_library("sodium")
if _SODIUM_PATH is None:
    raise ImportError("ssiledger.crypto needs libsodium (>= 1.0.18)")
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
_scalarmult = _sodium.crypto_scalarmult_curve25519
_scalarmult.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
_scalarmult.restype = ctypes.c_int
_scalarmult_base = _sodium.crypto_scalarmult_curve25519_base
_scalarmult_base.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
_scalarmult_base.restype = ctypes.c_int
_aead_encrypt = _sodium.crypto_aead_chacha20poly1305_ietf_encrypt
_aead_encrypt.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p,
                          ctypes.c_ulonglong, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_char_p)
_aead_encrypt.restype = ctypes.c_int
_aead_decrypt = _sodium.crypto_aead_chacha20poly1305_ietf_decrypt
_aead_decrypt.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong,
                          ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p, ctypes.c_char_p)
_aead_decrypt.restype = ctypes.c_int


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

    def __repr__(self) -> str:
        return f"Digest({self.hex})"


ZERO_DIGEST = Digest(b"\x00" * DIGEST_SIZE)


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 signing or X25519 sealed-box keypair; the private part must
    never leave a wallet unencrypted."""

    public: bytes
    private: bytes


def sha256(data: bytes) -> Digest:
    """Standard SHA-256 digest of a byte sequence."""
    return Digest(hashlib.sha256(data).digest())


def digest_of(value: Any) -> Digest:
    """SHA-256 over the canonical JSON encoding of a structured value."""
    return sha256(canonicalize(value))


# SHA-256(seed) -> the Ed25519 public key libsodium derived from that seed.
# It holds no seed and no expanded key, and only _ed25519 writes it. Threads
# may race on it without a lock: every entry any of them writes is right, so
# a lost entry or one past the bound costs a derivation, never a wrong key.
_PUBLIC_KEYS: dict[bytes, bytes] = {}


def _ed25519(seed: bytes, message: bytes | None = None) -> tuple[bytes, bytes]:
    """The public key of a seed and, given a message, its signature.

    The public key is derived from the seed here, or was in an earlier call
    (``_PUBLIC_KEYS``); no key from a caller or a file is ever used. Signing
    one seed under two public keys would leak its private scalar.
    """
    expanded = ctypes.create_string_buffer(SIGNATURE_SIZE)  # seed || public: zeroed before return
    tag = hashlib.sha256(seed).digest()
    public = _PUBLIC_KEYS.get(tag)
    if public is None:
        derived = ctypes.create_string_buffer(KEY_SIZE)
        _seed_keypair(derived, expanded, seed)
        public = derived.raw
        if len(_PUBLIC_KEYS) >= PUBLIC_KEYS_MAX:
            _PUBLIC_KEYS.clear()
        _PUBLIC_KEYS[tag] = public
    else:
        ctypes.memmove(expanded, seed, SEED_SIZE)
        ctypes.memmove(ctypes.addressof(expanded) + SEED_SIZE, public, KEY_SIZE)
    signature = ctypes.create_string_buffer(SIGNATURE_SIZE)
    if message is not None:
        _sign_detached(signature, None, message, len(message), expanded)
    ctypes.memset(expanded, 0, SIGNATURE_SIZE)
    return public, signature.raw


def scrypt(secret: bytes, salt: bytes, n: int, r: int, p: int, length: int = 32) -> bytes:
    """RFC 7914 scrypt; memory-hard, it holds 128·n·r bytes while it runs."""
    out = ctypes.create_string_buffer(length)
    in_range = min(n, r, p) >= 1 and r * p < 1 << 30 and n < 1 << 32  # ctypes truncates wider ints
    if not in_range or _scrypt(secret, len(secret), salt, len(salt), n, r, p, out, length):
        raise CryptoError(f"scrypt refused n={n}, r={r}, p={p}")
    return out.raw


def generate_signing_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed. Deterministic."""
    if len(seed) != SEED_SIZE:
        raise InvalidSeed(f"signing seed must be {SEED_SIZE} bytes, got {len(seed)}")
    public, _ = _ed25519(memoryview(seed).tobytes())
    return KeyPair(public=public, private=seed)


def generate_encryption_keypair(seed: bytes) -> KeyPair:
    """Derive an X25519 keypair from a 32-byte seed, which is its private key."""
    seed = _raw(seed)
    if len(seed) != SEED_SIZE:
        raise InvalidSeed(f"encryption seed must be {SEED_SIZE} bytes, got {len(seed)}")
    return KeyPair(public=_x25519_base(seed), private=seed)


def sign(private: bytes, message: bytes) -> bytes:
    """Sign a message; returns a 64-byte deterministic signature."""
    if not isinstance(private, bytes) or len(private) != KEY_SIZE:
        raise InvalidKey("signing key must be 32 raw private bytes")
    return _ed25519(private, _raw(message))[1]


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
    message = _raw(message)
    return _verify_detached(signature, message, len(message), public) == 0


def _raw(data: bytes) -> bytes:
    """The bytes of a bytes-like object; anything else raises TypeError."""
    return data if isinstance(data, bytes) else memoryview(data).tobytes()


def _x25519(scalar: bytes, point: bytes) -> bytes | None:
    """RFC 7748 X25519 of two 32-byte strings; None where the result is all
    zeros, which is what a point of small order gives."""
    out = ctypes.create_string_buffer(KEY_SIZE)
    return None if _scalarmult(out, scalar, point) else out.raw


def _x25519_base(scalar: bytes) -> bytes:
    """X25519 of a 32-byte scalar and the base point u = 9 (RFC 7748): the
    public key of that scalar. A clamped scalar never gives all zeros here."""
    out = ctypes.create_string_buffer(KEY_SIZE)
    _scalarmult_base(out, scalar)
    return out.raw


def _hkdf(secret: bytes, length: int, info: bytes, salt: bytes = b"") -> bytes:
    """RFC 5869 HKDF-SHA256; an empty salt is the RFC's string of zeros."""
    prk = hmac.digest(salt, secret, "sha256")
    block = okm = b""
    for counter in range(1, -(-length // DIGEST_SIZE) + 1):
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        okm += block
    return okm[:length]


def _aead_seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """RFC 8439 ChaCha20-Poly1305 without associated data: ciphertext || tag."""
    if len(key) != KEY_SIZE or len(nonce) != NONCE_SIZE:
        raise InvalidKey(f"AEAD takes a {KEY_SIZE}-byte key and a {NONCE_SIZE}-byte nonce")
    out = ctypes.create_string_buffer(len(plaintext) + TAG_SIZE)
    _aead_encrypt(out, None, plaintext, len(plaintext), None, 0, None, nonce, key)
    return out.raw


def _aead_open(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """The plaintext of ``_aead_seal``; DecryptFailed for a bad tag or size."""
    if len(key) != KEY_SIZE or len(nonce) != NONCE_SIZE or len(ciphertext) < TAG_SIZE:
        raise DecryptFailed(f"AEAD takes a {KEY_SIZE}-byte key, a {NONCE_SIZE}-byte nonce and a {TAG_SIZE}-byte tag")
    out = ctypes.create_string_buffer(len(ciphertext) - TAG_SIZE)
    if _aead_decrypt(out, None, None, ciphertext, len(ciphertext), None, 0, nonce, key):
        raise DecryptFailed("ciphertext did not authenticate")
    return out.raw


def encrypt_to(public: bytes, plaintext: bytes) -> bytes:
    """Encrypt to an X25519 public key. Randomized: a fresh ephemeral keypair
    per call, so two encryptions of the same plaintext differ.

    Output layout: ephemeral public key (32 bytes) || AEAD ciphertext.
    """
    plaintext, public = _raw(plaintext), _raw(public)
    if len(plaintext) > MAX_SEALED_PLAINTEXT:
        raise PlaintextTooLarge(
            f"plaintext of {len(plaintext)} bytes exceeds {MAX_SEALED_PLAINTEXT}"
        )
    if len(public) != KEY_SIZE:
        raise InvalidKey("recipient key must be 32 raw X25519 public bytes")
    ephemeral = os.urandom(KEY_SIZE)
    ephemeral_public, shared = _x25519_base(ephemeral), _x25519(ephemeral, public)
    if shared is None:
        raise InvalidKey("recipient key is a point of small order")
    material = _hkdf(shared, KEY_SIZE + NONCE_SIZE, _SEAL_INFO, ephemeral_public + public)
    return ephemeral_public + _aead_seal(material[:KEY_SIZE], material[KEY_SIZE:], plaintext)


def decrypt_from(private: bytes, ciphertext: bytes) -> bytes:
    """Open a sealed box. Raises DecryptFailed for any mismatch or tampering."""
    private, ciphertext = _raw(private), _raw(ciphertext)
    if len(ciphertext) < KEY_SIZE + TAG_SIZE:
        raise DecryptFailed("ciphertext too short")
    if len(private) != KEY_SIZE:
        raise DecryptFailed("malformed private key")
    ephemeral_public = ciphertext[:KEY_SIZE]
    shared = _x25519(private, ephemeral_public)
    if shared is None:
        raise DecryptFailed("sealed box did not open")
    material = _hkdf(shared, KEY_SIZE + NONCE_SIZE, _SEAL_INFO, ephemeral_public + _x25519_base(private))
    return _aead_open(material[:KEY_SIZE], material[KEY_SIZE:], ciphertext[KEY_SIZE:])
