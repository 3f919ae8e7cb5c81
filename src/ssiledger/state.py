"""The replicated state machine behind the ledger.

Committed transactions fold into a ``NodeState``: the DID registry, published
schemas and credential definitions, revocation registries, and consent-proof
records. ``apply`` is total and deterministic — every (state, txn) pair yields
either a new state or an unchanged state plus a rejection reason — so nodes
that execute the same committed sequence hold byte-identical state.

Write rules enforce the privacy constraint: nothing private goes on the
ledger, not even hashed. ``privacy_lint`` is a deny-list tripwire over payload
field names; the real guarantee is the byte-level privacy scan the scenario
suite runs over serialized ledgers and states.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from .canonical import canonicalize
from .crypto import Digest, digest_of
from .ledger import LedgerTransaction, TxnType

DID_PREFIX = "did:sample:"

DEFAULT_DENIED_FIELDS = frozenset(
    {
        "name",
        "surname",
        "birth_date",
        "address",
        "phone",
        "email",
        "national_id",
        "diagnosis",
        "salary",
        "account_number",
    }
)

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_PAIRS = [high + low for high in _B58_ALPHABET for low in _B58_ALPHABET]


def b58encode(data: bytes) -> str:
    """Base58 (Bitcoin alphabet) without checksum: two digits per ``divmod``."""
    num = int.from_bytes(data, "big")
    encoded = ""
    while num:
        num, rem = divmod(num, 58 * 58)
        encoded = _B58_PAIRS[rem] + encoded
    # the top pair may start with a zero digit; each leading zero byte is one "1"
    return "1" * (len(data) - len(data.lstrip(b"\0"))) + encoded.lstrip("1")


def derive_did(verification_key: bytes) -> str:
    """DID string for a verification key: method prefix plus base58 of the
    first 16 bytes of the key's SHA-256."""
    return DID_PREFIX + b58encode(hashlib.sha256(verification_key).digest()[:16])


class UnknownRegistry(KeyError):
    """Revocation lookup against a registry id that does not exist."""


class RejectReason(str, enum.Enum):
    DUPLICATE_DID = "DuplicateDid"
    UNKNOWN_SCHEMA = "UnknownSchema"
    UNKNOWN_DID = "UnknownDid"
    UNKNOWN_CRED_DEF = "UnknownCredDef"
    UNAUTHORIZED_ISSUER = "UnauthorizedIssuer"
    PRIVACY_VIOLATION = "PrivacyViolation"
    MALFORMED = "Malformed"


class AttrType(str, enum.Enum):
    STRING = "string"
    INTEGER = "integer"
    DATE = "date"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class DidDocument:
    """Public face of a DID: one verification key, one agreement key, an
    endpoint, and optional public metadata."""

    verification_key: bytes
    agreement_key: bytes
    endpoint: str
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verification_key": self.verification_key.hex(),
            "agreement_key": self.agreement_key.hex(),
            "endpoint": self.endpoint,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DidDocument":
        return cls(
            verification_key=bytes.fromhex(data["verification_key"]),
            agreement_key=bytes.fromhex(data["agreement_key"]),
            endpoint=data["endpoint"],
            metadata=data.get("metadata", {}),
        )


@dataclass(frozen=True)
class DidRecord:
    did: str
    document: DidDocument


@dataclass(frozen=True)
class SchemaRecord:
    """A published attribute schema. The id is the digest of the canonical body."""

    schema_id: Digest
    name: str
    version: str
    attributes: tuple[tuple[str, AttrType], ...]

    @staticmethod
    def body(name: str, version: str, attributes: Iterable[tuple[str, AttrType]]) -> dict:
        return {
            "schema_name": name,
            "version": version,
            "attributes": [[attr, attr_type.value] for attr, attr_type in attributes],
        }

    @classmethod
    def create(
        cls, name: str, version: str, attributes: Iterable[tuple[str, AttrType]]
    ) -> "SchemaRecord":
        attributes = tuple((attr, AttrType(attr_type)) for attr, attr_type in attributes)
        if not attributes:
            raise ValueError("schema needs at least one attribute")
        names = [attr for attr, _ in attributes]
        if len(set(names)) != len(names):
            raise ValueError("schema attribute names must be unique")
        return cls(
            schema_id=digest_of(cls.body(name, version, attributes)),
            name=name,
            version=version,
            attributes=attributes,
        )

    def attribute_types(self) -> dict[str, AttrType]:
        return dict(self.attributes)


@dataclass(frozen=True)
class CredDefRecord:
    """On-ledger binding of a schema to an issuer and its verification key."""

    cred_def_id: Digest
    schema_id: Digest
    issuer_did: str
    issuer_verification_key: bytes

    @staticmethod
    def body(schema_id: Digest, issuer_did: str, issuer_verification_key: bytes) -> dict:
        return {
            "schema_id": schema_id.hex,
            "issuer_did": issuer_did,
            "issuer_verification_key": issuer_verification_key.hex(),
        }

    @classmethod
    def create(
        cls, schema_id: Digest, issuer_did: str, issuer_verification_key: bytes
    ) -> "CredDefRecord":
        return cls(
            cred_def_id=digest_of(cls.body(schema_id, issuer_did, issuer_verification_key)),
            schema_id=schema_id,
            issuer_did=issuer_did,
            issuer_verification_key=issuer_verification_key,
        )


def registry_id_for(cred_def_id: Digest) -> Digest:
    return digest_of({"revocation_registry_for": cred_def_id.hex})


@dataclass(frozen=True)
class RevocationRegistryState:
    """Hash-set accumulator of revoked credentials for one credential
    definition. Append-only: entries are never removed. Inside ``apply_all``
    a registry it touched holds a working ``set``, frozen again at the end."""

    registry_id: Digest
    cred_def_id: Digest
    revoked: frozenset[Digest] = frozenset()


@dataclass(frozen=True)
class ConsentProofRecord:
    """What the ledger remembers about a data-sharing agreement: the receipt
    hash, the two DIDs, and when. Never any attribute values."""

    receipt_hash: Digest
    owner_did: str
    verifier_did: str
    timestamp: int


def privacy_lint(payload: Any, denied_fields: frozenset[str] = DEFAULT_DENIED_FIELDS) -> str | None:
    """Walk a payload looking for field names that must never reach the ledger.

    Returns the offending field name, or None when the payload passes. Any map
    key in the deny list fails, as does any map stored under a key named
    ``attributes_values`` (a credential's value map, whatever its field names).
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in denied_fields:
                return key
            if key == "attributes_values":
                return key
            found = privacy_lint(value, denied_fields)
            if found is not None:
                return found
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            found = privacy_lint(item, denied_fields)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class NodeState:
    """Immutable snapshot of the replicated state. ``apply`` returns new values."""

    dids: dict = field(default_factory=dict)
    schemas: dict = field(default_factory=dict)
    cred_defs: dict = field(default_factory=dict)
    registries: dict = field(default_factory=dict)
    consent_proofs: tuple[ConsentProofRecord, ...] = ()
    denied_fields: frozenset[str] = DEFAULT_DENIED_FIELDS

    def to_dict(self) -> dict:
        return {
            "dids": {
                did: record.document.to_dict() for did, record in sorted(self.dids.items())
            },
            "schemas": {
                sid: SchemaRecord.body(rec.name, rec.version, rec.attributes)
                for sid, rec in sorted(self.schemas.items())
            },
            "cred_defs": {
                cid: CredDefRecord.body(
                    rec.schema_id, rec.issuer_did, rec.issuer_verification_key
                )
                for cid, rec in sorted(self.cred_defs.items())
            },
            "registries": {
                rid: {
                    "cred_def_id": reg.cred_def_id.hex,
                    "revoked": sorted(d.hex for d in reg.revoked),
                }
                for rid, reg in sorted(self.registries.items())
            },
            "consent_proofs": [
                {
                    "receipt_hash": rec.receipt_hash.hex,
                    "owner_did": rec.owner_did,
                    "verifier_did": rec.verifier_did,
                    "timestamp": rec.timestamp,
                }
                for rec in self.consent_proofs
            ],
        }

    def digest(self) -> Digest:
        return digest_of(self.to_dict())

    def dump(self, path: str | Path) -> None:
        Path(path).write_bytes(canonicalize(self.to_dict()))


def resolve_did(state: NodeState, did: str) -> DidDocument | None:
    """The document a DID currently resolves to, or None."""
    record = state.dids.get(did)
    return record.document if record is not None else None


def is_revoked(state: NodeState, registry_id: Digest, credential_hash: Digest) -> bool:
    """Membership check against a revocation registry."""
    registry = state.registries.get(registry_id.hex)
    if registry is None:
        raise UnknownRegistry(registry_id.hex)
    return credential_hash in registry.revoked


def get_cred_def(state: NodeState, cred_def_id: Digest) -> CredDefRecord | None:
    return state.cred_defs.get(cred_def_id.hex)


def get_schema(state: NodeState, schema_id: Digest) -> SchemaRecord | None:
    return state.schemas.get(schema_id.hex)


def apply_all(
    state: NodeState, txns: Iterable[LedgerTransaction]
) -> tuple[NodeState, list[RejectReason | None]]:
    """Fold committed transactions into the state in order: the new state, and per
    txn None if it applied or the reason it was rejected. Never raises: unparseable
    payloads reject as Malformed. The maps, and the revoked set of each registry a
    txn touches, are copied once per call, and handlers check before they write, so
    a rejected txn leaves no trace and the input state is never mutated."""
    work = replace(state, dids=dict(state.dids), schemas=dict(state.schemas), cred_defs=dict(state.cred_defs),
                   registries=dict(state.registries), consent_proofs=list(state.consent_proofs))
    reasons: list[RejectReason | None] = []
    for txn in txns:
        try:
            private = privacy_lint(txn.payload, state.denied_fields) is not None
            reasons.append(RejectReason.PRIVACY_VIOLATION if private else _HANDLERS[txn.txn_type](work, txn))
        except (KeyError, ValueError, TypeError, AttributeError):
            reasons.append(RejectReason.MALFORMED)
    registries = {
        key: replace(registry, revoked=frozenset(registry.revoked)) if isinstance(registry.revoked, set) else registry
        for key, registry in work.registries.items()
    }
    return replace(work, registries=registries, consent_proofs=tuple(work.consent_proofs)), reasons


def apply(state: NodeState, txn: LedgerTransaction) -> tuple[NodeState, RejectReason | None]:
    """Fold one committed transaction into the state: ``apply_all`` of one txn.
    Returns (new_state, None), or (state unchanged, reason) on rejection."""
    new_state, (reason,) = apply_all(state, (txn,))
    return (new_state, None) if reason is None else (state, reason)


def _apply_did_reg(state: NodeState, txn: LedgerTransaction) -> RejectReason | None:
    payload = txn.payload
    did = payload["did"]
    document = DidDocument.from_dict(payload["document"])
    if did != derive_did(document.verification_key) or txn.author_did != did:
        return RejectReason.MALFORMED
    if did in state.dids:
        return RejectReason.DUPLICATE_DID
    state.dids[did] = DidRecord(did=did, document=document)
    return None


def _apply_schema(state: NodeState, txn: LedgerTransaction) -> RejectReason | None:
    payload = txn.payload
    if txn.author_did not in state.dids:
        return RejectReason.UNKNOWN_DID
    record = SchemaRecord.create(
        payload["schema_name"],
        payload["version"],
        [(attr, AttrType(attr_type)) for attr, attr_type in payload["attributes"]],
    )
    if record.schema_id.hex != payload["schema_id"]:
        return RejectReason.MALFORMED
    state.schemas.setdefault(record.schema_id.hex, record)  # republish is idempotent
    return None


def _apply_cred_def(state: NodeState, txn: LedgerTransaction) -> RejectReason | None:
    payload = txn.payload
    schema_id = Digest.from_hex(payload["schema_id"])
    issuer_did = payload["issuer_did"]
    issuer_key = bytes.fromhex(payload["issuer_verification_key"])
    if schema_id.hex not in state.schemas:
        return RejectReason.UNKNOWN_SCHEMA
    issuer = state.dids.get(issuer_did)
    if issuer is None:
        return RejectReason.UNKNOWN_DID
    if txn.author_did != issuer_did or issuer.document.verification_key != issuer_key:
        return RejectReason.UNAUTHORIZED_ISSUER
    record = CredDefRecord.create(schema_id, issuer_did, issuer_key)
    if record.cred_def_id.hex != payload["cred_def_id"]:
        return RejectReason.MALFORMED
    if record.cred_def_id.hex in state.cred_defs:
        return None  # idempotent republish
    registry = RevocationRegistryState(
        registry_id=registry_id_for(record.cred_def_id), cred_def_id=record.cred_def_id
    )
    state.cred_defs[record.cred_def_id.hex] = record
    state.registries[registry.registry_id.hex] = registry
    return None


def _apply_revoc_entry(state: NodeState, txn: LedgerTransaction) -> RejectReason | None:
    payload = txn.payload
    cred_def_id = Digest.from_hex(payload["cred_def_id"])
    cred_def = state.cred_defs.get(cred_def_id.hex)
    if cred_def is None:
        return RejectReason.UNKNOWN_CRED_DEF
    if txn.author_did != cred_def.issuer_did:
        return RejectReason.UNAUTHORIZED_ISSUER
    hashes = [Digest.from_hex(h) for h in payload["revoked"]]
    registry_key = registry_id_for(cred_def_id).hex
    registry = state.registries[registry_key]
    if not isinstance(registry.revoked, set):  # first touch in this apply_all call
        registry = state.registries[registry_key] = replace(registry, revoked=set(registry.revoked))
    registry.revoked.update(hashes)
    return None


def _apply_consent_proof(state: NodeState, txn: LedgerTransaction) -> RejectReason | None:
    payload = txn.payload
    owner_did = payload["owner_did"]
    verifier_did = payload["verifier_did"]
    if owner_did not in state.dids or verifier_did not in state.dids:
        return RejectReason.UNKNOWN_DID
    if txn.author_did not in (owner_did, verifier_did):
        return RejectReason.UNAUTHORIZED_ISSUER
    record = ConsentProofRecord(
        receipt_hash=Digest.from_hex(payload["receipt_hash"]),
        owner_did=owner_did,
        verifier_did=verifier_did,
        timestamp=payload["timestamp"],
    )
    state.consent_proofs.append(record)
    return None


_HANDLERS = {
    TxnType.DID_REG: _apply_did_reg,
    TxnType.SCHEMA: _apply_schema,
    TxnType.CRED_DEF: _apply_cred_def,
    TxnType.REVOC_ENTRY: _apply_revoc_entry,
    TxnType.CONSENT_PROOF: _apply_consent_proof,
}


def did_reg_payload(did: str, document: DidDocument) -> dict:
    return {"did": did, "document": document.to_dict()}


def schema_payload(record: SchemaRecord) -> dict:
    body = SchemaRecord.body(record.name, record.version, record.attributes)
    body["schema_id"] = record.schema_id.hex
    return body


def cred_def_payload(record: CredDefRecord) -> dict:
    body = CredDefRecord.body(record.schema_id, record.issuer_did, record.issuer_verification_key)
    body["cred_def_id"] = record.cred_def_id.hex
    return body


def revoc_entry_payload(cred_def_id: Digest, credential_hashes: Iterable[Digest]) -> dict:
    return {
        "cred_def_id": cred_def_id.hex,
        "revoked": sorted(d.hex for d in credential_hashes),
    }


def consent_proof_payload(
    receipt_hash: Digest, owner_did: str, verifier_did: str, timestamp: int
) -> dict:
    return {
        "receipt_hash": receipt_hash.hex,
        "owner_did": owner_did,
        "verifier_did": verifier_did,
        "timestamp": timestamp,
    }


def fold_chain(chain) -> NodeState:
    """Replay a committed chain into the state it produces, with one ``apply_all``
    call. Transactions in stored blocks were accepted at commit time, so
    rejections here only occur for chains assembled outside consensus."""
    state, _ = apply_all(NodeState(), (txn for block in chain.blocks for txn in block.txns))
    return state


def verify_txn_signature(state: NodeState, txn: LedgerTransaction) -> bool:
    """Signature gate run before a transaction is admitted for ordering.

    DID_REG is self-certifying: it must verify under the key it registers.
    Everything else verifies under the author DID's registered key.
    """
    try:
        if txn.txn_type == TxnType.DID_REG:
            document = DidDocument.from_dict(txn.payload["document"])
            if txn.payload["did"] != derive_did(document.verification_key):
                return False
            return txn.verify_signature(document.verification_key)
        document = resolve_did(state, txn.author_did)
        if document is None:
            return False
        return txn.verify_signature(document.verification_key)
    except (KeyError, ValueError, TypeError):
        return False
