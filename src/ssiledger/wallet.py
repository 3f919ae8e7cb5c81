"""The identity owner's wallet: pairwise DIDs and encrypted key storage.

A wallet holds one pairwise identity per relation, each with its own signing
and agreement keypair, so compromising one relation's keys tells an attacker
nothing about the others. Private keys are sealed at rest under a key scrypt
derives from the unlock secret, by HKDF-SHA256 and ChaCha20-Poly1305, all on
libsodium and ``hmac``; the wallet file never holds plaintext private keys.

The unlock secret stands in for a biometric unlock: anything that yields a
stable high-entropy byte string can be plugged in.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .canonical import canonical_json, write_atomic
from .crypto import (
    NONCE_SIZE,
    CryptoError,
    DecryptFailed,
    KeyPair,
    _aead_open,
    _aead_seal,
    _hkdf,
    decrypt_from,
    generate_encryption_keypair,
    generate_signing_keypair,
    scrypt,
    sha256,
)
from .ledger import LedgerTransaction, TxnType
from .state import DidDocument, derive_did

if TYPE_CHECKING:
    from .credentials import VerifiableCredential
    from .state import NodeState

WALLET_FORMAT = "ssiledger-wallet/1"


class WalletError(Exception):
    pass


class WeakSecret(WalletError):
    """Unlock secret is empty."""


class UnlockFailed(WalletError):
    """Unlock secret does not match this wallet."""


class WalletLocked(WalletError):
    """Operation needs private keys but the wallet is locked."""


class RelationExists(WalletError):
    """A pairwise identity for this relation already exists."""


class UnknownRelation(WalletError):
    pass


class MalformedWallet(WalletError):
    """A wallet file whose content does not decode into a wallet."""


class CredentialNotStored(WalletError):
    """Credential failed verification at storage time."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class KdfParams:
    """scrypt cost (n, r, p: the security parameter); ``derive`` runs on libsodium."""

    salt: bytes
    n: int = 2**14
    r: int = 8
    p: int = 1

    def derive(self, secret: bytes) -> bytes:
        return scrypt(secret, self.salt, self.n, self.r, self.p)


@dataclass
class PairwiseIdentity:
    """One relation's identity: a DID and its keypairs."""

    did: str
    signing: KeyPair
    agreement: KeyPair
    endpoint: str

    def document(self, metadata: dict | None = None) -> DidDocument:
        return DidDocument(
            verification_key=self.signing.public,
            agreement_key=self.agreement.public,
            endpoint=self.endpoint,
            metadata=metadata or {},
        )

    def sign_txn(self, txn_type: TxnType, payload: dict, timestamp: int) -> LedgerTransaction:
        """A public record this identity authors, signed with its own key."""
        return LedgerTransaction.create(txn_type, payload, self.did, self.signing.private, timestamp)


@dataclass
class StoredCredential:
    credential: "VerifiableCredential"
    received_at: int


@dataclass
class _EncryptedRelation:
    did: str
    peer_did: str
    endpoint: str
    verification_key: bytes
    agreement_key: bytes
    signing_blob: dict
    agreement_blob: dict


def _seal(kek: bytes, relation: str, kind: str, secret: bytes) -> dict:
    nonce = os.urandom(NONCE_SIZE)
    ciphertext = _aead_seal(_hkdf(kek, 32, f"wallet:{relation}:{kind}".encode()), nonce, secret)
    return {
        "nonce": base64.b64encode(nonce).decode(),
        "ciphertext": base64.b64encode(ciphertext).decode(),
    }


def _open(kek: bytes, relation: str, kind: str, blob: dict) -> bytes:
    """The secret ``_seal`` sealed; DecryptFailed where the blob is damaged."""
    try:
        nonce, ciphertext = base64.b64decode(blob["nonce"]), base64.b64decode(blob["ciphertext"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DecryptFailed(f"{kind} key blob does not decode: {type(exc).__name__}: {exc}") from exc
    return _aead_open(_hkdf(kek, 32, f"wallet:{relation}:{kind}".encode()), nonce, ciphertext)


class Wallet:
    """Single-owner key store. Operations on one wallet are not thread-safe."""

    def __init__(self, owner_label: str, kdf: KdfParams, check: bytes):
        self.owner_label = owner_label
        self._kdf = kdf
        self._check = check
        self._kek: bytes | None = None
        self._relations: dict[str, _EncryptedRelation] = {}
        self.credentials: list[StoredCredential] = []

    @classmethod
    def create(cls, owner_label: str, unlock_secret: bytes) -> "Wallet":
        if not unlock_secret:
            raise WeakSecret("unlock secret must be non-empty")
        kdf = KdfParams(salt=os.urandom(16))
        kek = kdf.derive(unlock_secret)
        wallet = cls(owner_label, kdf, sha256(b"wallet-check:" + kek).value)
        wallet._kek = kek
        return wallet

    def unlock(self, unlock_secret: bytes) -> None:
        kek = self._kdf.derive(unlock_secret)
        if sha256(b"wallet-check:" + kek).value != self._check:
            raise UnlockFailed("wrong unlock secret")
        self._kek = kek

    def _require_unlocked(self) -> bytes:
        if self._kek is None:
            raise WalletLocked("wallet is locked")
        return self._kek

    def new_pairwise(
        self,
        relation: str,
        seed: bytes | None = None,
        endpoint: str | None = None,
        metadata: dict | None = None,
    ) -> tuple[str, DidDocument]:
        """Mint a fresh pairwise identity for a relation.

        The optional seed makes key generation reproducible; it is mixed with
        the relation name so the same seed never yields the same DID twice.
        """
        kek = self._require_unlocked()
        if relation in self._relations:
            raise RelationExists(f"wallet already has relation {relation!r}")
        base = seed if seed is not None else os.urandom(32)
        signing = generate_signing_keypair(
            sha256(b"sign:" + relation.encode() + b":" + base).value
        )
        agreement = generate_encryption_keypair(
            sha256(b"agree:" + relation.encode() + b":" + base).value
        )
        did = derive_did(signing.public)
        endpoint = endpoint if endpoint is not None else f"sim://{self.owner_label}/{relation}"
        self._relations[relation] = _EncryptedRelation(
            did=did,
            peer_did="",
            endpoint=endpoint,
            verification_key=signing.public,
            agreement_key=agreement.public,
            signing_blob=_seal(kek, relation, "sign", signing.private),
            agreement_blob=_seal(kek, relation, "agree", agreement.private),
        )
        return did, self.identity(relation).document(metadata)

    def identity(self, relation: str) -> PairwiseIdentity:
        """Decrypt and return the full pairwise identity for a relation."""
        kek = self._require_unlocked()
        entry = self._relations.get(relation)
        if entry is None:
            raise UnknownRelation(relation)
        try:
            signing = _open(kek, relation, "sign", entry.signing_blob)
            agreement = _open(kek, relation, "agree", entry.agreement_blob)
            public = generate_signing_keypair(signing).public
        except CryptoError as exc:
            raise MalformedWallet(f"relation {relation!r} does not open: {exc}") from exc
        if public != entry.verification_key:
            raise MalformedWallet(f"relation {relation!r} stores a verification key its signing key does not derive")
        return PairwiseIdentity(
            did=entry.did,
            signing=KeyPair(public=entry.verification_key, private=signing),
            agreement=KeyPair(public=entry.agreement_key, private=agreement),
            endpoint=entry.endpoint,
        )

    def did(self, relation: str) -> str:
        entry = self._relations.get(relation)
        if entry is None:
            raise UnknownRelation(relation)
        return entry.did

    def respond_challenge(self, relation: str, challenge_ciphertext: bytes) -> bytes:
        """Decrypt an authentication challenge with the relation's agreement
        key and return the recovered nonce (to be echoed to the verifier)."""
        identity = self.identity(relation)
        return decrypt_from(identity.agreement.private, challenge_ciphertext)

    def store_credential(
        self, credential: "VerifiableCredential", ledger_view: "NodeState", received_at: int
    ) -> StoredCredential:
        """Accept a received credential only if it verifies against the ledger:
        issuer signature checks out under the on-ledger key and the credential
        has not been revoked."""
        from .credentials import verify_credential

        self._require_unlocked()
        result = verify_credential(credential, ledger_view)
        if not result.valid:
            reason = result.reason or "invalid"
            if reason == "UnknownCredDef":
                reason = "UnknownIssuer"
            raise CredentialNotStored(reason)
        stored = StoredCredential(credential=credential, received_at=received_at)
        self.credentials.append(stored)
        return stored

    def find_credentials(self, subject_did: str | None = None) -> list["VerifiableCredential"]:
        found = [s.credential for s in self.credentials]
        if subject_did is not None:
            found = [c for c in found if c.subject_did == subject_did]
        return found

    def to_dict(self) -> dict:
        return {
            "format": WALLET_FORMAT,
            "owner_label": self.owner_label,
            "kdf": {
                "salt": self._kdf.salt.hex(),
                "n": self._kdf.n,
                "r": self._kdf.r,
                "p": self._kdf.p,
            },
            "check": self._check.hex(),
            "relations": {
                relation: {
                    "did": entry.did,
                    "peer_did": entry.peer_did,
                    "endpoint": entry.endpoint,
                    "verification_key": entry.verification_key.hex(),
                    "agreement_key": entry.agreement_key.hex(),
                    "signing_private": entry.signing_blob,
                    "agreement_private": entry.agreement_blob,
                }
                for relation, entry in sorted(self._relations.items())
            },
            "credentials": [
                {"credential": s.credential.to_dict(), "received_at": s.received_at}
                for s in self.credentials
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Wallet":
        from .credentials import VerifiableCredential

        kdf = data["kdf"]
        n, r, p = kdf["n"], kdf["r"], kdf["p"]
        if not all(type(v) is int for v in (n, r, p)) or n < 2 or n & (n - 1) or min(r, p) < 1:
            raise MalformedWallet("kdf n must be an int power of two above 1, r and p ints of at least 1")
        if r * p >= 1 << 30 or n >= 1 << 32:
            raise MalformedWallet("kdf r*p must be below 2**30 and n below 2**32")
        wallet = cls(
            owner_label=data["owner_label"],
            kdf=KdfParams(salt=bytes.fromhex(kdf["salt"]), n=n, r=r, p=p),
            check=bytes.fromhex(data["check"]),
        )
        for relation, entry in data["relations"].items():
            wallet._relations[relation] = _EncryptedRelation(
                did=entry["did"],
                peer_did=entry["peer_did"],
                endpoint=entry["endpoint"],
                verification_key=bytes.fromhex(entry["verification_key"]),
                agreement_key=bytes.fromhex(entry["agreement_key"]),
                signing_blob=entry["signing_private"],
                agreement_blob=entry["agreement_private"],
            )
        for item in data["credentials"]:
            wallet.credentials.append(
                StoredCredential(
                    credential=VerifiableCredential.from_dict(item["credential"]),
                    received_at=item["received_at"],
                )
            )
        return wallet

    def save(self, path: str | Path) -> None:
        """Write the wallet file, replacing it whole (``canonical.write_atomic``).
        Private keys appear only as ciphertext."""
        write_atomic(path, canonical_json(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Wallet":
        """Read a wallet file; the result is locked until ``unlock``. Content
        that does not decode into a wallet raises ``MalformedWallet``."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            canonical_json(data)  # ``save`` wrote it: a value the encoding rejects is a hand edit
            return cls.from_dict(data)
        except (MalformedWallet, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise MalformedWallet(f"{path} is not a wallet file: {type(exc).__name__}: {exc}") from exc
