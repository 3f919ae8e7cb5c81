"""Verifiable credentials: issuance, presentation, verification, revocation,
and consent receipts.

A credential binds schema-conformant attribute claims to a subject DID under
a credential definition and carries the issuer's signature over the canonical
credential body. Presentations wrap credentials with the holder's signature
and bind to an audience DID so they cannot be replayed to another verifier.
Consent receipts are dual-signed and structurally value-free; only their hash
goes on the ledger.

Credential and presentation verification read a ledger view (``NodeState``):
issuer keys come from the on-ledger credential definition, holder keys from
the DID registry, and revocation status from the registry accumulator.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .auth import AuthResult, ChallengeVerifier
from .canonical import UnsupportedType, _member, _quoted_hex, canonicalize, map_layout
from .crypto import Digest, digest_of, sign, verify
from .ledger import LedgerTransaction, TxnType
from .state import (
    AttrType,
    CredDefRecord,
    NodeState,
    SchemaRecord,
    consent_proof_payload,
    resolve_did,
    revoc_entry_payload,
)

if TYPE_CHECKING:
    from .wallet import Wallet


class CredentialError(Exception):
    pass


class SchemaMismatch(CredentialError):
    """Attributes do not conform to the schema (missing/extra/ill-typed)."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field}: {problem}")
        self.field = field


class NothingToPresent(CredentialError):
    pass


class NotHolder(CredentialError):
    """A presented credential belongs to a different subject DID."""


class NotIssuer(CredentialError):
    """Revocation attempted by someone other than the credential definition's issuer."""


class ConsentDeclined(CredentialError):
    pass


class AuthenticationFailed(CredentialError):
    def __init__(self, party: str, reason: str):
        super().__init__(f"{party}: {reason}")
        self.party = party
        self.reason = reason


class VerificationFailed(CredentialError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: str | None = None


VALID = VerificationResult(True)

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")  # the one ISO date form every supported Python reads alike

# The credential hash, a credential's record in a presentation and a presentation body are
# canonical maps with fixed keys, so each is framed around its members' canonical bytes.
_HASH_KEYS = ("attributes", "cred_def_id", "issued_at", "issuer_did", "subject_did")
_HASH_LAYOUT = map_layout(*_HASH_KEYS)
_RECORD_LAYOUT = map_layout(*sorted(_HASH_KEYS + ("credential_hash", "issuer_signature")))
_BODY_LAYOUT = map_layout("audience_did", "credentials", "holder_did", "presented_at")


def _hash_members(cred_def_id: Digest, issuer_did: str, subject_did: str, attributes: dict, issued_at: int) -> tuple:
    """The canonical bytes of the credential hash's members, in ``_HASH_KEYS`` order."""
    return canonicalize(attributes), _quoted_hex(cred_def_id.value), *map(_member, (issued_at, issuer_did, subject_did))


def check_attributes(schema: SchemaRecord, attributes: dict) -> str | None:
    """Schema conformance: exact attribute set, each value of the declared type.
    Returns a description of the first problem, or None."""
    expected = schema.attribute_types()
    for attr in attributes:
        if attr not in expected:
            return f"unexpected attribute {attr!r}"
    for attr, attr_type in expected.items():
        if attr not in attributes:
            return f"missing attribute {attr!r}"
        value = attributes[attr]
        if attr_type == AttrType.STRING and not isinstance(value, str):
            return f"attribute {attr!r} must be a string"
        if attr_type == AttrType.INTEGER and (isinstance(value, bool) or not isinstance(value, int)):
            return f"attribute {attr!r} must be an integer"
        if attr_type == AttrType.BOOLEAN and not isinstance(value, bool):
            return f"attribute {attr!r} must be a boolean"
        if attr_type == AttrType.DATE:
            if not isinstance(value, str):
                return f"attribute {attr!r} must be an ISO date string"
            try:
                datetime.date.fromisoformat(value if _ISO_DATE.fullmatch(value) else "")
            except ValueError:
                return f"attribute {attr!r} is not a valid ISO date"
    return None


@dataclass(frozen=True)
class VerifiableCredential:
    """Issuer-signed attribute claims about a subject DID."""

    cred_def_id: Digest
    issuer_did: str
    subject_did: str
    attributes: dict
    issued_at: int
    credential_hash: Digest
    issuer_signature: bytes

    @staticmethod
    def compute_hash(
        cred_def_id: Digest, issuer_did: str, subject_did: str, attributes: dict, issued_at: int
    ) -> Digest:
        try:
            members = _hash_members(cred_def_id, issuer_did, subject_did, attributes, issued_at)
        except (UnsupportedType, UnicodeEncodeError):
            # raise what encoding the whole map raises: it names the value's path or position
            digest_of(dict(zip(_HASH_KEYS, (attributes, cred_def_id.hex, issued_at, issuer_did, subject_did))))
            raise
        return Digest(hashlib.sha256(_HASH_LAYOUT % members).digest())

    def hash_recomputes(self) -> bool:
        fields = (self.cred_def_id, self.issuer_did, self.subject_did, self.attributes, self.issued_at)
        return self.compute_hash(*fields) == self.credential_hash

    def to_dict(self) -> dict:
        return {
            "cred_def_id": self.cred_def_id.hex,
            "issuer_did": self.issuer_did,
            "subject_did": self.subject_did,
            "attributes": self.attributes,
            "issued_at": self.issued_at,
            "credential_hash": self.credential_hash.hex,
            "issuer_signature": self.issuer_signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifiableCredential":
        return cls(
            cred_def_id=Digest.from_hex(data["cred_def_id"]),
            issuer_did=data["issuer_did"],
            subject_did=data["subject_did"],
            attributes=data["attributes"],
            issued_at=data["issued_at"],
            credential_hash=Digest.from_hex(data["credential_hash"]),
            issuer_signature=bytes.fromhex(data["issuer_signature"]),
        )


def issue(
    issuer_signing_private: bytes,
    cred_def: CredDefRecord,
    schema: SchemaRecord,
    subject_did: str,
    attributes: dict,
    issued_at: int,
) -> VerifiableCredential:
    """Construct and sign a credential. Self-attested credentials are the
    same thing with issuer_did == subject_did."""
    problem = check_attributes(schema, attributes)
    if problem is not None:
        raise SchemaMismatch(schema.name, problem)
    credential_hash = VerifiableCredential.compute_hash(
        cred_def.cred_def_id, cred_def.issuer_did, subject_did, attributes, issued_at
    )
    return VerifiableCredential(
        cred_def_id=cred_def.cred_def_id,
        issuer_did=cred_def.issuer_did,
        subject_did=subject_did,
        attributes=attributes,
        issued_at=issued_at,
        credential_hash=credential_hash,
        issuer_signature=sign(issuer_signing_private, credential_hash.value),
    )


def verify_credential(cred: VerifiableCredential, ledger_view: NodeState) -> VerificationResult:
    """Check a credential against the ledger, whose state decides revocation. A record that
    does not encode canonically raises ``UnsupportedType`` or ``UnicodeEncodeError``."""
    return _verify_credential(cred, ledger_view, cred.hash_recomputes)


def _verify_credential(
    cred: VerifiableCredential, ledger_view: NodeState, hash_recomputes: Callable[[], bool]
) -> VerificationResult:
    cred_def = ledger_view.cred_defs.get(cred.cred_def_id.hex)
    if cred_def is None:
        return VerificationResult(False, "UnknownCredDef")
    if cred.issuer_did != cred_def.issuer_did or not hash_recomputes():
        return VerificationResult(False, "BadSignature")
    if not verify(cred_def.issuer_verification_key, cred.credential_hash.value, cred.issuer_signature):
        return VerificationResult(False, "BadSignature")
    registry = ledger_view.registries.get(cred_def.registry_key)
    if registry is None:
        return VerificationResult(False, "UnknownCredDef")
    if cred.credential_hash in registry.revoked:
        return VerificationResult(False, "Revoked")
    schema = ledger_view.schemas.get(cred_def.schema_id.hex)
    if schema is None:
        return VerificationResult(False, "UnknownCredDef")
    if check_attributes(schema, cred.attributes) is not None:
        return VerificationResult(False, "SchemaMismatch")
    return VALID


@dataclass(frozen=True)
class Presentation:
    """Holder-signed bundle of credentials, bound to one audience DID."""

    credentials: tuple[VerifiableCredential, ...]
    holder_did: str
    audience_did: str
    presented_at: int
    holder_signature: bytes

    @staticmethod
    def body(
        credentials: Iterable[VerifiableCredential],
        holder_did: str,
        audience_did: str,
        presented_at: int,
    ) -> dict:
        return {
            "credentials": [c.to_dict() for c in credentials],
            "holder_did": holder_did,
            "audience_did": audience_did,
            "presented_at": presented_at,
        }

    def to_dict(self) -> dict:
        data = self.body(self.credentials, self.holder_did, self.audience_did, self.presented_at)
        data["holder_signature"] = self.holder_signature.hex()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Presentation":
        return cls(
            credentials=tuple(VerifiableCredential.from_dict(c) for c in data["credentials"]),
            holder_did=data["holder_did"],
            audience_did=data["audience_did"],
            presented_at=data["presented_at"],
            holder_signature=bytes.fromhex(data["holder_signature"]),
        )


def _presentation_digest(
    credentials: Sequence[VerifiableCredential], holder_did: str, audience_did: str, presented_at: int
) -> tuple[bytes, list[bytes]]:
    """SHA-256 of ``Presentation.body`` and of each credential's hash map, encoding each one's attributes once."""
    try:
        records, hashes = [], []
        for c in credentials:
            members = _hash_members(c.cred_def_id, c.issuer_did, c.subject_did, c.attributes, c.issued_at)
            hashes.append(hashlib.sha256(_HASH_LAYOUT % members).digest())
            attributes, cred_def_id, issued_at, issuer_did, subject_did = members
            record = attributes, cred_def_id, _quoted_hex(c.credential_hash.value), issued_at, issuer_did
            records.append(_RECORD_LAYOUT % (*record, _quoted_hex(c.issuer_signature), subject_did))
        listed = b"[" + b",".join(records) + b"]"
        body = _BODY_LAYOUT % (_member(audience_did), listed, _member(holder_did), _member(presented_at))
    except (UnsupportedType, UnicodeEncodeError):
        # raise what encoding the whole body raises: its path or position names the value
        digest_of(Presentation.body(credentials, holder_did, audience_did, presented_at))
        raise
    return hashlib.sha256(body).digest(), hashes


def present(
    wallet: "Wallet",
    relation: str,
    credentials: list[VerifiableCredential],
    audience_did: str,
    now: int,
) -> Presentation:
    """Sign a presentation with the wallet's pairwise identity for ``relation``.
    Every presented credential must name that identity as its subject."""
    if not credentials:
        raise NothingToPresent("empty credential list")
    identity = wallet.identity(relation)
    for cred in credentials:
        if cred.subject_did != identity.did:
            raise NotHolder(f"credential subject {cred.subject_did} is not {identity.did}")
    body_digest, _ = _presentation_digest(credentials, identity.did, audience_did, now)
    return Presentation(
        credentials=tuple(credentials),
        holder_did=identity.did,
        audience_did=audience_did,
        presented_at=now,
        holder_signature=sign(identity.signing.private, body_digest),
    )


def verify_presentation(
    presentation: Presentation,
    ledger_view: NodeState,
    expected_audience: str | None = None,
) -> VerificationResult:
    """Check holder signature, audience binding, and every embedded credential."""
    if expected_audience is not None and presentation.audience_did != expected_audience:
        return VerificationResult(False, "WrongAudience")
    holder = resolve_did(ledger_view, presentation.holder_did)
    if holder is None:
        return VerificationResult(False, "UnknownHolder")
    body_digest, hashes = _presentation_digest(
        presentation.credentials, presentation.holder_did, presentation.audience_did, presentation.presented_at
    )
    if not verify(holder.verification_key, body_digest, presentation.holder_signature):
        return VerificationResult(False, "BadSignature")
    if not presentation.credentials:
        return VerificationResult(False, "SchemaMismatch")
    for cred, recomputed in zip(presentation.credentials, hashes):
        if cred.subject_did != presentation.holder_did:
            return VerificationResult(False, "NotHolder")
        result = _verify_credential(cred, ledger_view, lambda: recomputed == cred.credential_hash.value)
        if not result.valid:
            return result
    return VALID


def ledger_reads(record: Presentation | VerifiableCredential) -> set[str]:
    """The state keys ``verify_presentation`` or ``verify_credential`` reads for
    a record, as ``fold_read_set`` takes them: each credential's cred def (its
    schema and issuer follow from the cred def's record) and a presentation's
    holder DID. A holder DID that is not a string is never registered, so it
    is left out: the verifier rejects it on the full state as well."""
    if isinstance(record, VerifiableCredential):
        return {record.cred_def_id.hex}
    reads = {cred.cred_def_id.hex for cred in record.credentials}
    if isinstance(record.holder_did, str):
        reads.add(record.holder_did)
    return reads


@dataclass(frozen=True)
class ConsentReceipt:
    """Dual-signed record of a data-sharing agreement. Carries attribute names
    and types only — the type has no slot for values."""

    owner_did: str
    verifier_did: str
    shared_attributes: tuple[tuple[str, AttrType], ...]
    purpose: str
    timestamp: int
    owner_signature: bytes
    verifier_signature: bytes

    @staticmethod
    def body(
        owner_did: str,
        verifier_did: str,
        shared_attributes: Iterable[tuple[str, AttrType]],
        purpose: str,
        timestamp: int,
    ) -> dict:
        return {
            "owner_did": owner_did,
            "verifier_did": verifier_did,
            "shared": [[attr, attr_type.value] for attr, attr_type in shared_attributes],
            "purpose": purpose,
            "timestamp": timestamp,
        }

    def to_dict(self) -> dict:
        data = self.body(
            self.owner_did,
            self.verifier_did,
            self.shared_attributes,
            self.purpose,
            self.timestamp,
        )
        data["owner_signature"] = self.owner_signature.hex()
        data["verifier_signature"] = self.verifier_signature.hex()
        return data

    def receipt_hash(self) -> Digest:
        """Hash of the full dual-signed receipt; this is what goes on ledger."""
        return digest_of(self.to_dict())


def record_consent(
    owner_wallet: "Wallet",
    owner_relation: str,
    verifier_did: str,
    verifier_signing_private: bytes,
    shared_attributes: Iterable[tuple[str, AttrType]],
    purpose: str,
    now: int,
) -> tuple[ConsentReceipt, LedgerTransaction]:
    """Build the dual-signed receipt and the on-ledger proof transaction.

    The receipt stays off-ledger with both parties; the transaction carries
    only the receipt hash, the two DIDs, and the timestamp.
    """
    identity = owner_wallet.identity(owner_relation)
    shared = tuple((attr, AttrType(attr_type)) for attr, attr_type in shared_attributes)
    body = ConsentReceipt.body(identity.did, verifier_did, shared, purpose, now)
    body_digest = digest_of(body)
    receipt = ConsentReceipt(
        owner_did=identity.did,
        verifier_did=verifier_did,
        shared_attributes=shared,
        purpose=purpose,
        timestamp=now,
        owner_signature=sign(identity.signing.private, body_digest.value),
        verifier_signature=sign(verifier_signing_private, body_digest.value),
    )
    txn = identity.sign_txn(
        TxnType.CONSENT_PROOF, consent_proof_payload(receipt.receipt_hash(), identity.did, verifier_did, now), now
    )
    return receipt, txn


def verify_consent_receipt(receipt: ConsentReceipt, ledger_view: NodeState) -> VerificationResult:
    """Check both signatures against on-ledger keys and that the receipt hash
    is recorded as a consent proof."""
    owner = resolve_did(ledger_view, receipt.owner_did)
    verifier = resolve_did(ledger_view, receipt.verifier_did)
    if owner is None or verifier is None:
        return VerificationResult(False, "UnknownHolder")
    body_digest = digest_of(
        ConsentReceipt.body(
            receipt.owner_did,
            receipt.verifier_did,
            receipt.shared_attributes,
            receipt.purpose,
            receipt.timestamp,
        )
    )
    if not verify(owner.verification_key, body_digest.value, receipt.owner_signature):
        return VerificationResult(False, "MissingSignature")
    if not verify(verifier.verification_key, body_digest.value, receipt.verifier_signature):
        return VerificationResult(False, "MissingSignature")
    recorded = receipt.receipt_hash()
    if not any(rec.receipt_hash == recorded for rec in ledger_view.consent_proofs):
        return VerificationResult(False, "NotRecorded")
    return VALID


def revoke(
    issuer_did: str,
    issuer_signing_private: bytes,
    cred_def: CredDefRecord,
    credential_hash: Digest,
    timestamp: int,
) -> LedgerTransaction:
    """Produce the revocation-registry transaction for one credential hash.
    Only the credential definition's issuer may revoke; idempotent on commit."""
    if issuer_did != cred_def.issuer_did:
        raise NotIssuer(f"{issuer_did} does not own cred def {cred_def.cred_def_id.hex[:12]}")
    return LedgerTransaction.create(
        TxnType.REVOC_ENTRY,
        revoc_entry_payload(cred_def.cred_def_id, [credential_hash]),
        author_did=issuer_did,
        signing_private=issuer_signing_private,
        timestamp=timestamp,
    )


def authenticate(
    verifier: ChallengeVerifier, wallet: "Wallet", relation: str, now: int, rng: Callable[[int], bytes] = os.urandom
) -> AuthResult:
    """One challenge-response round: ``verifier`` challenges the wallet's
    identity for ``relation`` under its agreement key, the wallet answers,
    and the verifier checks the answer."""
    identity = wallet.identity(relation)
    challenge = verifier.issue(identity.agreement.public, now=now, rng=rng)
    return verifier.check(wallet.respond_challenge(relation, challenge.ciphertext), now)


@dataclass
class IssuerParty:
    """A credential provider: on-ledger DID, signing key, published schema and
    credential definition, and a verifier for authenticating owners."""

    did: str
    signing_private: bytes
    schema: SchemaRecord
    cred_def: CredDefRecord
    auth: ChallengeVerifier


@dataclass
class VerifierParty:
    """A credential requester: on-ledger DID, signing key, and an authenticator."""

    did: str
    signing_private: bytes
    auth: ChallengeVerifier


@dataclass
class ThirdPartyFlowResult:
    credential: VerifiableCredential
    verification: VerificationResult
    receipt: ConsentReceipt
    consent_txn: LedgerTransaction
    steps: list[str]


def third_party_flow(
    requester: VerifierParty,
    provider: IssuerParty,
    owner_wallet: "Wallet",
    provider_relation: str,
    requester_relation: str,
    requested_attributes: dict,
    ledger: NodeState | Callable[[], NodeState],
    now: int,
    consent: bool = True,
    purpose: str = "third-party attestation",
    rng: Callable[[int], bytes] = os.urandom,
) -> ThirdPartyFlowResult:
    """The redirect-style attestation dance: the requester authenticates the
    owner, the owner authenticates with the provider, the provider issues a
    credential for the owner's requester-facing DID, the owner presents it,
    the requester verifies via on-ledger keys, and a consent receipt is
    recorded. Any failing step aborts the flow with that step's error.

    ``ledger`` may be a state snapshot or a callable returning the current
    snapshot, so commits that land mid-flow are observed.
    """
    current = ledger if callable(ledger) else (lambda: ledger)
    steps: list[str] = []

    for party, verifier, relation in (
        ("requester", requester.auth, requester_relation),
        ("provider", provider.auth, provider_relation),
    ):
        result = authenticate(verifier, owner_wallet, relation, now, rng)
        if not result.authenticated:
            raise AuthenticationFailed(party, result.reason or "auth failed")
        steps.append(f"owner authenticated with {party}")

    if not consent:
        raise ConsentDeclined("owner declined to share")
    steps.append("owner consented to share")

    credential = issue(
        provider.signing_private,
        provider.cred_def,
        provider.schema,
        subject_did=owner_wallet.did(requester_relation),
        attributes=requested_attributes,
        issued_at=now,
    )
    owner_wallet.store_credential(credential, current(), received_at=now)
    steps.append("provider issued credential")

    presentation = present(
        owner_wallet, requester_relation, [credential], audience_did=requester.did, now=now
    )
    steps.append("owner presented credential to requester")

    verification = verify_presentation(presentation, current(), expected_audience=requester.did)
    if not verification.valid:
        raise VerificationFailed(verification.reason or "invalid")
    steps.append("requester verified presentation")

    receipt, consent_txn = record_consent(
        owner_wallet,
        requester_relation,
        requester.did,
        requester.signing_private,
        [(attr, provider.schema.attribute_types()[attr]) for attr in sorted(requested_attributes)],
        purpose,
        now,
    )
    steps.append("consent receipt recorded")

    return ThirdPartyFlowResult(
        credential=credential,
        verification=verification,
        receipt=receipt,
        consent_txn=consent_txn,
        steps=steps,
    )
