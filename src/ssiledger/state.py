"""The replicated state machine behind the ledger.

Committed transactions fold into a ``NodeState``: the DID registry, published
schemas and credential definitions, revocation registries, and consent-proof
records. ``fold_into`` is total and deterministic — every txn either applies
or leaves no trace and yields a rejection reason — so nodes that execute the
same committed sequence hold byte-identical state.

Write rules enforce the privacy constraint: nothing private goes on the
ledger, not even hashed. ``privacy_lint`` is a deny-list tripwire over payload
field names; the real guarantee is the byte-level privacy scan the scenario
suite runs over serialized ledgers and states.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Iterable

from .canonical import canonical_json, write_atomic
from .crypto import Digest, digest_of
from .ledger import LedgerTransaction, TxnType, _built

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

    @cached_property
    def registry_key(self) -> str:
        """``registry_id_for(self.cred_def_id).hex``, computed once per record."""
        return registry_id_for(self.cred_def_id).hex


def registry_id_for(cred_def_id: Digest) -> Digest:
    return digest_of({"revocation_registry_for": cred_def_id.hex})


@dataclass(frozen=True)
class RevocationRegistryState:
    """Hash-set accumulator of revoked credentials for one credential
    definition. Append-only: entries are never removed. The record is frozen,
    but its ``revoked`` set belongs to one state and grows in place."""

    cred_def_id: Digest
    revoked: set[Digest] = field(default_factory=set)


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


def _map_keys(value: Any, keys: set) -> set:
    """``keys`` plus every map key at any depth of ``value``: the names ``privacy_lint`` tests."""
    if isinstance(value, dict):
        keys.update(value)
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return keys
    for item in value:
        if isinstance(item, (dict, list, tuple)):
            _map_keys(item, keys)
    return keys


# one shared object per distinct key set, so a record's cached names cost one pointer
_shared_key_set = lru_cache(maxsize=256)(lambda keys: keys)


def _key_names(txn: LedgerTransaction) -> frozenset:
    """The map keys of a record's payload, walked once per record and cached
    on it: a payload is never mutated in place. ``privacy_lint`` of the payload
    is not None exactly when they meet the denied fields or hold
    ``attributes_values``."""
    keys = txn._key_names
    if keys is None:
        keys = _shared_key_set(frozenset(_map_keys(txn.payload, set())))
        object.__setattr__(txn, "_key_names", keys)
    return keys


@dataclass
class NodeState:
    """The replicated state. A consensus node owns one and folds each executed
    batch into it in place (``fold_into``), so a node's state is live, not a
    snapshot. No code path copies a state."""

    dids: dict = field(default_factory=dict)
    schemas: dict = field(default_factory=dict)
    cred_defs: dict = field(default_factory=dict)
    registries: dict = field(default_factory=dict)
    consent_proofs: list[ConsentProofRecord] = field(default_factory=list)
    denied_fields: frozenset[str] = DEFAULT_DENIED_FIELDS

    def to_dict(self) -> dict:
        return {
            "dids": {
                did: document.to_dict() for did, document in sorted(self.dids.items())
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
                consent_proof_payload(rec.receipt_hash, rec.owner_did, rec.verifier_did, rec.timestamp)
                for rec in self.consent_proofs
            ],
        }

    def digest(self) -> Digest:
        return digest_of(self.to_dict())

    def dump(self, path: str | Path) -> None:
        write_atomic(path, canonical_json(self.to_dict()))


def resolve_did(state: NodeState, did: str) -> DidDocument | None:
    """The document a DID currently resolves to, or None."""
    return state.dids.get(did)


def fold_into(state: NodeState, txns: Iterable[LedgerTransaction]) -> list[RejectReason | None]:
    """Fold committed transactions into ``state`` in place, in order: per txn
    None if it applied or the reason it was rejected. Never raises: unparseable
    payloads reject as Malformed. Handlers check before they write, so a
    rejected txn leaves no trace."""
    lint = state.denied_fields | {"attributes_values"}
    reasons: list[RejectReason | None] = []
    for txn in txns:
        try:
            private = not _key_names(txn).isdisjoint(lint)
            reasons.append(RejectReason.PRIVACY_VIOLATION if private else _HANDLERS[txn.txn_type](state, txn))
        except (KeyError, ValueError, TypeError, AttributeError):
            reasons.append(RejectReason.MALFORMED)
    return reasons


def apply(state: NodeState, txn: LedgerTransaction) -> tuple[NodeState, RejectReason | None]:
    """``fold_into`` one committed transaction: mutates ``state`` and returns
    it with None, or with the reason it was rejected (and left no trace)."""
    (reason,) = fold_into(state, (txn,))
    return state, reason


def _self_certified(txn: LedgerTransaction) -> DidDocument | None:
    """A DID_REG's document if the DID it registers derives from the document's
    key, else None. Checked once per record: the outcome is cached on the txn,
    while a payload that does not parse raises, uncached, on every call."""
    document = txn._did_document
    if document is None:
        document = DidDocument.from_dict(txn.payload["document"])
        if txn.payload["did"] != derive_did(document.verification_key):
            document = False
        object.__setattr__(txn, "_did_document", document)
    return document or None


def _apply_did_reg(state: NodeState, txn: LedgerTransaction) -> RejectReason | None:
    document = _self_certified(txn)
    did = txn.payload["did"]
    if document is None or txn.author_did != did:
        return RejectReason.MALFORMED
    if did in state.dids:
        return RejectReason.DUPLICATE_DID
    state.dids[did] = document
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
    if txn.author_did != issuer_did or issuer.verification_key != issuer_key:
        return RejectReason.UNAUTHORIZED_ISSUER
    record = CredDefRecord.create(schema_id, issuer_did, issuer_key)
    if record.cred_def_id.hex != payload["cred_def_id"]:
        return RejectReason.MALFORMED
    if record.cred_def_id.hex in state.cred_defs:
        return None  # idempotent republish
    state.cred_defs[record.cred_def_id.hex] = record
    state.registries[record.registry_key] = RevocationRegistryState(cred_def_id=record.cred_def_id)
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
    state.registries[cred_def.registry_key].revoked.update(hashes)
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

# Per txn type: (the one state key its handler can write, the keys it reads
# besides that one), each parsed as the handler parses it, so that ids in
# upper-case hex or with spaces map to the key the handler writes. A cred def
# key also stands for its revocation registry. A CONSENT_PROOF writes no key a
# verifier reads. Where a key cannot be derived or hashed, the handler raises
# before it writes.
_KEYS = {
    TxnType.DID_REG: lambda p, author: (p["did"], ()),
    TxnType.SCHEMA: lambda p, author: (p["schema_id"], (author,)),
    TxnType.CRED_DEF: lambda p, author: (p["cred_def_id"], (Digest.from_hex(p["schema_id"]).hex, p["issuer_did"])),
    TxnType.REVOC_ENTRY: lambda p, author: (Digest.from_hex(p["cred_def_id"]).hex, ()),
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
    """Replay a committed chain into the state it produces: one ``fold_into``
    into a new ``NodeState``. Transactions in stored blocks were accepted at
    commit time, so rejections here only occur for chains assembled outside
    consensus."""
    state = NodeState()
    fold_into(state, [txn for block in chain.blocks for txn in block.txns])
    return state


def fold_read_set(records: list[tuple], reads: set[str]) -> NodeState:
    """The fold of a valid chain's records (``ledger.check_file``'s) on the
    keys a verdict reads. ``reads`` is a set of state keys (DIDs, schema ids,
    cred def ids); only the records that can write a key in its closure are
    built and folded: the closure grows by the keys those records' handlers
    read until nothing is added. The result equals ``fold_chain`` of the chain
    on every key of the closure, and may lack anything else."""
    state = NodeState()
    fold_into(state, [_built(records[index]) for index in _writers_of(records, reads)[1]])
    return state


def _writers_of(records: list[tuple], reads: set[str]) -> tuple[set[str], list[int]]:
    """The closure of ``reads`` over the records' apply-time reads, and the
    indices of the records that can write a key in it, in chain order. A
    record is read as its first three fields: (txn_type, payload, author_did)."""
    writers: dict[str, list[tuple[int, tuple]]] = {}
    for index, record in enumerate(records):
        keys = _KEYS.get(record[0])
        if keys is None:
            continue
        try:
            key, needs = keys(record[1], record[2])
            hash(needs)  # an unhashable read: the handler raises on it before it writes
            writers.setdefault(key, []).append((index, needs))
        except (KeyError, ValueError, TypeError, AttributeError):
            continue  # the handler rejects it without writing
    closure, todo, picked = set(), list(reads), set()
    while todo:
        key = todo.pop()
        if key not in closure:
            closure.add(key)
            for index, needs in writers.get(key, ()):
                picked.add(index)
                todo.extend(needs)
    return closure, sorted(picked)


def signing_key(state: NodeState, txn: LedgerTransaction) -> bytes | None:
    """The key a transaction's signature must verify under before it is
    admitted for ordering, or None where there is none.

    DID_REG is self-certifying: it must verify under the key it registers.
    Everything else verifies under the author DID's registered key.
    """
    try:
        if txn.txn_type == TxnType.DID_REG:
            document = _self_certified(txn)
        else:
            document = resolve_did(state, txn.author_did)
    except (KeyError, ValueError, TypeError):
        return None
    return None if document is None else document.verification_key


def verify_txn_signature(state: NodeState, txn: LedgerTransaction) -> bool:
    """Signature gate run before a transaction is admitted for ordering."""
    key = signing_key(state, txn)
    try:
        return key is not None and txn.verify_signature(key)
    except (KeyError, ValueError, TypeError):
        return False
