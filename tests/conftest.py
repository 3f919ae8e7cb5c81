from __future__ import annotations

from dataclasses import dataclass

import pytest

from ssiledger.crypto import (
    generate_encryption_keypair,
    generate_signing_keypair,
    sha256,
)
from ssiledger import ledger
from ssiledger.ledger import LedgerTransaction, TxnType
from ssiledger.state import (
    AttrType,
    CredDefRecord,
    DidDocument,
    NodeState,
    SchemaRecord,
    apply,
    cred_def_payload,
    derive_did,
    did_reg_payload,
    schema_payload,
)
from ssiledger.wallet import Wallet


def seed(label: str) -> bytes:
    return sha256(f"test-seed:{label}".encode()).value


@dataclass
class Identity:
    """A bare keyholder with an on-ledger DID (no wallet)."""

    did: str
    signing_public: bytes
    signing_private: bytes
    agreement_public: bytes
    agreement_private: bytes
    document: DidDocument

    @classmethod
    def create(cls, label: str) -> "Identity":
        signing = generate_signing_keypair(seed(f"{label}:sign"))
        agreement = generate_encryption_keypair(seed(f"{label}:agree"))
        document = DidDocument(
            verification_key=signing.public,
            agreement_key=agreement.public,
            endpoint=f"sim://{label}",
        )
        return cls(
            did=derive_did(signing.public),
            signing_public=signing.public,
            signing_private=signing.private,
            agreement_public=agreement.public,
            agreement_private=agreement.private,
            document=document,
        )

    def registration_txn(self, timestamp: int = 0) -> LedgerTransaction:
        return LedgerTransaction.create(
            TxnType.DID_REG,
            did_reg_payload(self.did, self.document),
            author_did=self.did,
            signing_private=self.signing_private,
            timestamp=timestamp,
        )


# The identity point, a key of small order. With R = identity and S = 0 as the
# signature, the cofactorless equation [S]B = R + [k]A holds for every message.
IDENTITY_POINT = b"\x01" + bytes(31)
IDENTITY_SIGNATURE = IDENTITY_POINT + bytes(32)
IDENTITY_DID = derive_did(IDENTITY_POINT)


def signed_by_no_one(txn_type: TxnType, payload: dict, timestamp: int) -> LedgerTransaction:
    """A record in the name of the identity point's DID, with the constant
    signature that a verifier accepting small-order keys takes for any payload."""
    return LedgerTransaction(
        txn_type=txn_type,
        payload=payload,
        author_did=IDENTITY_DID,
        author_signature=IDENTITY_SIGNATURE,
        timestamp=timestamp,
        txn_id=LedgerTransaction.compute_id(txn_type, payload, IDENTITY_DID, timestamp),
    )


def small_order_registration(timestamp: int = 0) -> LedgerTransaction:
    document = DidDocument(verification_key=IDENTITY_POINT, agreement_key=bytes(32), endpoint="sim://nobody")
    return signed_by_no_one(TxnType.DID_REG, did_reg_payload(IDENTITY_DID, document), timestamp)


def must_apply(state: NodeState, txn: LedgerTransaction) -> NodeState:
    state, rejection = apply(state, txn)
    assert rejection is None, f"unexpected rejection: {rejection}"
    return state


def verified_signatures(monkeypatch) -> list[bytes]:
    """The signature of each ``ledger.verify`` call from here on, from either thread."""
    signatures = []
    real_verify = ledger.verify

    def verify(key: bytes, message: bytes, signature: bytes) -> bool:
        signatures.append(signature)
        return real_verify(key, message, signature)

    monkeypatch.setattr(ledger, "verify", verify)
    return signatures


DIPLOMA_ATTRS = [
    ("degree", AttrType.STRING),
    ("field", AttrType.STRING),
    ("year", AttrType.INTEGER),
]


@dataclass
class CredEnv:
    """An issuer with a published schema and cred def, plus a registered holder."""

    state: NodeState
    issuer: Identity
    schema: SchemaRecord
    cred_def: CredDefRecord
    holder_wallet: Wallet
    holder_relation: str
    holder_did: str


@pytest.fixture
def cred_env() -> CredEnv:
    return make_cred_env()


def make_cred_env() -> CredEnv:
    issuer = Identity.create("university")
    state = must_apply(NodeState(), issuer.registration_txn())

    schema = SchemaRecord.create("diploma", "1.0", DIPLOMA_ATTRS)
    state = must_apply(
        state,
        LedgerTransaction.create(
            TxnType.SCHEMA,
            schema_payload(schema),
            author_did=issuer.did,
            signing_private=issuer.signing_private,
            timestamp=1,
        ),
    )
    cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)
    state = must_apply(
        state,
        LedgerTransaction.create(
            TxnType.CRED_DEF,
            cred_def_payload(cred_def),
            author_did=issuer.did,
            signing_private=issuer.signing_private,
            timestamp=2,
        ),
    )

    holder_wallet = Wallet.create("alice", b"alice-secret")
    holder_did, holder_doc = holder_wallet.new_pairwise("employer", seed=seed("alice:employer"))
    holder_identity = holder_wallet.identity("employer")
    state = must_apply(
        state,
        LedgerTransaction.create(
            TxnType.DID_REG,
            did_reg_payload(holder_did, holder_doc),
            author_did=holder_did,
            signing_private=holder_identity.signing.private,
            timestamp=3,
        ),
    )
    return CredEnv(
        state=state,
        issuer=issuer,
        schema=schema,
        cred_def=cred_def,
        holder_wallet=holder_wallet,
        holder_relation="employer",
        holder_did=holder_did,
    )


def diploma_attributes() -> dict:
    return {"degree": "BSc", "field": "computer engineering", "year": 2019}
