import dataclasses
import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Identity, must_apply
from test_acceptance import Budget
from ssiledger.crypto import ZERO_DIGEST, sha256
from ssiledger.ledger import LedgerTransaction, TxnType
from ssiledger.state import (
    AttrType,
    CredDefRecord,
    NodeState,
    RejectReason,
    SchemaRecord,
    UnknownRegistry,
    apply,
    apply_all,
    b58encode,
    cred_def_payload,
    derive_did,
    did_reg_payload,
    fold_chain,
    is_revoked,
    privacy_lint,
    registry_id_for,
    resolve_did,
    revoc_entry_payload,
    schema_payload,
    verify_txn_signature,
)


class TestDidDerivation:
    def test_prefix_and_determinism(self):
        identity = Identity.create("whoever")
        assert identity.did.startswith("did:sample:")
        assert derive_did(identity.signing_public) == identity.did

    def test_b58_zero_padding(self):
        assert b58encode(b"\x00\x00\x01") == "112"

    def test_distinct_keys_distinct_dids(self):
        assert Identity.create("a").did != Identity.create("b").did


_B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def _b58_one_digit_at_a_time(data: bytes) -> str:
    num = int.from_bytes(data, "big")
    encoded = ""
    while num > 0:
        num, rem = divmod(num, 58)
        encoded = _B58[rem] + encoded
    pad = 0
    for byte in data:
        if byte == 0:
            pad += 1
        else:
            break
    return "1" * pad + encoded


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4).map(lambda zeros: bytes(len(zeros))), st.binary(max_size=40))
@example(b"", b"")
@example(b"\0\0", b"")
def test_b58_matches_one_digit_at_a_time(zeros, data):
    assert b58encode(zeros + data) == _b58_one_digit_at_a_time(zeros + data)


class TestDidRegistry:
    def test_register_and_resolve(self):
        identity = Identity.create("alice")
        state = must_apply(NodeState(), identity.registration_txn())
        document = resolve_did(state, identity.did)
        assert document is not None
        assert document.verification_key == identity.signing_public

    def test_unknown_did_resolves_to_none(self):
        assert resolve_did(NodeState(), "did:sample:nobody") is None

    def test_duplicate_registration_rejected(self):
        identity = Identity.create("alice")
        state = must_apply(NodeState(), identity.registration_txn())
        again, rejection = apply(state, identity.registration_txn(timestamp=9))
        assert rejection == RejectReason.DUPLICATE_DID
        assert again.digest() == state.digest()

    def test_did_must_derive_from_key(self):
        identity = Identity.create("alice")
        txn = identity.registration_txn()
        payload = dict(txn.payload)
        payload["did"] = "did:sample:forged"
        forged = dataclasses.replace(txn, payload=payload)
        _, rejection = apply(NodeState(), forged)
        assert rejection == RejectReason.MALFORMED


def _published(issuer: Identity):
    state = must_apply(NodeState(), issuer.registration_txn())
    schema = SchemaRecord.create("record", "1.0", [("ref", AttrType.STRING)])
    state = must_apply(
        state,
        LedgerTransaction.create(
            TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 1
        ),
    )
    cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)
    state = must_apply(
        state,
        LedgerTransaction.create(
            TxnType.CRED_DEF, cred_def_payload(cred_def), issuer.did, issuer.signing_private, 2
        ),
    )
    return state, schema, cred_def


class TestSchemaAndCredDef:
    def test_publish_creates_registry(self):
        issuer = Identity.create("issuer")
        state, schema, cred_def = _published(issuer)
        assert schema.schema_id.hex in state.schemas
        assert cred_def.cred_def_id.hex in state.cred_defs
        assert registry_id_for(cred_def.cred_def_id).hex in state.registries

    def test_cred_def_requires_known_schema(self):
        issuer = Identity.create("issuer")
        state = must_apply(NodeState(), issuer.registration_txn())
        ghost = SchemaRecord.create("ghost", "9.9", [("x", AttrType.STRING)])
        cred_def = CredDefRecord.create(ghost.schema_id, issuer.did, issuer.signing_public)
        _, rejection = apply(
            state,
            LedgerTransaction.create(
                TxnType.CRED_DEF, cred_def_payload(cred_def), issuer.did, issuer.signing_private, 1
            ),
        )
        assert rejection == RejectReason.UNKNOWN_SCHEMA

    def test_cred_def_requires_registered_issuer(self):
        issuer = Identity.create("issuer")
        stranger = Identity.create("stranger")
        state, schema, _ = _published(issuer)
        cred_def = CredDefRecord.create(schema.schema_id, stranger.did, stranger.signing_public)
        _, rejection = apply(
            state,
            LedgerTransaction.create(
                TxnType.CRED_DEF,
                cred_def_payload(cred_def),
                stranger.did,
                stranger.signing_private,
                3,
            ),
        )
        assert rejection == RejectReason.UNKNOWN_DID

    def test_schema_republish_is_idempotent(self):
        issuer = Identity.create("issuer")
        state, schema, _ = _published(issuer)
        again = must_apply(
            state,
            LedgerTransaction.create(
                TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 5
            ),
        )
        assert again.digest() == state.digest()


def _revocation(cred_def_id, author_did: str, revoked: list[str], timestamp: int) -> LedgerTransaction:
    """An unsigned REVOC_ENTRY record: ``apply`` checks no signatures."""
    payload = {"cred_def_id": cred_def_id.hex, "revoked": revoked}
    return LedgerTransaction(TxnType.REVOC_ENTRY, payload, author_did, b"", timestamp, ZERO_DIGEST)


class TestRevocation:
    def test_revoke_and_query(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        target = sha256(b"credential-one")
        state = must_apply(
            state,
            LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_def.cred_def_id, [target]),
                issuer.did,
                issuer.signing_private,
                4,
            ),
        )
        registry = registry_id_for(cred_def.cred_def_id)
        assert is_revoked(state, registry, target)
        assert not is_revoked(state, registry, sha256(b"credential-two"))

    def test_fresh_registry_empty(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        assert not is_revoked(state, registry_id_for(cred_def.cred_def_id), sha256(b"any"))

    def test_unknown_registry_raises(self):
        with pytest.raises(UnknownRegistry):
            is_revoked(NodeState(), sha256(b"no-such"), sha256(b"any"))

    def test_only_issuer_may_revoke(self):
        issuer = Identity.create("issuer")
        imposter = Identity.create("imposter")
        state, _, cred_def = _published(issuer)
        state = must_apply(state, imposter.registration_txn(timestamp=5))
        _, rejection = apply(
            state,
            LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_def.cred_def_id, [sha256(b"x")]),
                imposter.did,
                imposter.signing_private,
                6,
            ),
        )
        assert rejection == RejectReason.UNAUTHORIZED_ISSUER

    def test_one_call_equals_one_txn_at_a_time(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        before = state.to_dict()
        entries = [
            _revocation(cred_def.cred_def_id, issuer.did, [sha256(b"a").hex, sha256(b"b").hex], 4),
            _revocation(cred_def.cred_def_id, issuer.did, [sha256(b"b").hex], 5),  # already revoked
            _revocation(cred_def.cred_def_id, "did:sample:nobody", [sha256(b"c").hex], 6),  # not the issuer
            _revocation(cred_def.cred_def_id, issuer.did, [sha256(b"d").hex, "zz"], 7),  # malformed
            _revocation(cred_def.cred_def_id, issuer.did, [], 8),
            _revocation(cred_def.cred_def_id, issuer.did, [sha256(b"e").hex], 9),
        ]
        folded, reasons = apply_all(state, entries)
        stepped, stepped_reasons = _one_by_one(state, entries)
        assert folded.digest() == stepped.digest() and reasons == stepped_reasons
        assert reasons == [None, None, RejectReason.UNAUTHORIZED_ISSUER, RejectReason.MALFORMED, None, None]
        assert all(type(reg.revoked) is frozenset for reg in folded.registries.values())
        assert state.to_dict() == before

    def test_many_single_hash_revocations_fold_in_linear_time(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        hashes = [sha256(i.to_bytes(4, "big")) for i in range(20_000)]
        entries = [_revocation(cred_def.cred_def_id, issuer.did, [h.hex], i) for i, h in enumerate(hashes)]
        with Budget("20k single-hash revocations, one apply_all call", 2.0):
            folded, reasons = apply_all(state, entries)
        assert reasons == [None] * len(entries)
        registry = folded.registries[registry_id_for(cred_def.cred_def_id).hex]
        assert registry.revoked == frozenset(hashes)

    def test_revocation_is_monotonic_and_idempotent(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        target = sha256(b"cred")
        entry = LedgerTransaction.create(
            TxnType.REVOC_ENTRY,
            revoc_entry_payload(cred_def.cred_def_id, [target]),
            issuer.did,
            issuer.signing_private,
            4,
        )
        state = must_apply(state, entry)
        registry = registry_id_for(cred_def.cred_def_id)
        assert is_revoked(state, registry, target)
        after = must_apply(state, dataclasses.replace(entry, timestamp=8, txn_id=LedgerTransaction.compute_id(entry.txn_type, entry.payload, entry.author_did, 8)))
        assert is_revoked(after, registry, target)


class TestPrivacyLint:
    def test_benign_metadata_passes(self):
        assert privacy_lint({"org": "Hospital A"}) is None

    @pytest.mark.parametrize(
        "field",
        ["name", "surname", "birth_date", "address", "phone", "email",
         "national_id", "diagnosis", "salary", "account_number"],
    )
    def test_denied_fields_fail(self, field):
        assert privacy_lint({field: "anything"}) == field

    def test_nested_denied_field_found(self):
        assert privacy_lint({"meta": {"contact": {"phone": "+90"}}}) == "phone"
        assert privacy_lint([{"ok": 1}, {"salary": 5}]) == "salary"

    def test_attribute_value_maps_fail(self):
        assert privacy_lint({"attributes_values": {"whatever": "x"}}) == "attributes_values"

    def test_consent_payload_with_names_only_passes(self):
        payload = {
            "receipt_hash": "ab" * 32,
            "owner_did": "did:sample:x",
            "verifier_did": "did:sample:y",
            "timestamp": 5,
            "shared": [["credit_score", "integer"], ["diagnosis", "string"]],
        }
        assert privacy_lint(payload) is None

    def test_custom_deny_list(self):
        assert privacy_lint({"blood_type": "0+"}, frozenset({"blood_type"})) == "blood_type"

    def test_applied_on_every_txn(self):
        identity = Identity.create("leaky")
        document = dataclasses.replace(identity.document, metadata={"phone": "+90 555"})
        txn = LedgerTransaction.create(
            TxnType.DID_REG,
            did_reg_payload(identity.did, document),
            identity.did,
            identity.signing_private,
            0,
        )
        _, rejection = apply(NodeState(), txn)
        assert rejection == RejectReason.PRIVACY_VIOLATION


class TestConsentProofs:
    def test_consent_proof_applies(self):
        owner = Identity.create("owner")
        verifier = Identity.create("verifier")
        state = must_apply(NodeState(), owner.registration_txn())
        state = must_apply(state, verifier.registration_txn(timestamp=1))
        payload = {
            "receipt_hash": sha256(b"receipt").hex,
            "owner_did": owner.did,
            "verifier_did": verifier.did,
            "timestamp": 2,
        }
        state = must_apply(
            state,
            LedgerTransaction.create(
                TxnType.CONSENT_PROOF, payload, owner.did, owner.signing_private, 2
            ),
        )
        assert len(state.consent_proofs) == 1
        assert state.consent_proofs[0].receipt_hash == sha256(b"receipt")

    def test_third_party_cannot_record(self):
        owner = Identity.create("owner")
        verifier = Identity.create("verifier")
        other = Identity.create("other")
        state = must_apply(NodeState(), owner.registration_txn())
        state = must_apply(state, verifier.registration_txn(timestamp=1))
        state = must_apply(state, other.registration_txn(timestamp=2))
        payload = {
            "receipt_hash": sha256(b"receipt").hex,
            "owner_did": owner.did,
            "verifier_did": verifier.did,
            "timestamp": 3,
        }
        _, rejection = apply(
            state,
            LedgerTransaction.create(
                TxnType.CONSENT_PROOF, payload, other.did, other.signing_private, 3
            ),
        )
        assert rejection == RejectReason.UNAUTHORIZED_ISSUER


class TestTotalityAndDeterminism:
    def test_garbage_payloads_reject_not_raise(self):
        identity = Identity.create("author")
        state = must_apply(NodeState(), identity.registration_txn())
        for payload in (None, [], {"nonsense": 1}, {"did": 5}, "string"):
            for txn_type in TxnType:
                txn = LedgerTransaction.create(
                    txn_type, payload, identity.did, identity.signing_private, 7
                )
                after, rejection = apply(state, txn)
                if rejection is not None:
                    assert after.digest() == state.digest()

    def test_replicated_determinism(self):
        issuer = Identity.create("issuer")
        holder = Identity.create("holder")
        schema = SchemaRecord.create("s", "1.0", [("ref", AttrType.STRING)])
        cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)
        txns = [
            issuer.registration_txn(),
            holder.registration_txn(timestamp=1),
            LedgerTransaction.create(
                TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 2
            ),
            LedgerTransaction.create(
                TxnType.CRED_DEF, cred_def_payload(cred_def), issuer.did, issuer.signing_private, 3
            ),
            LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_def.cred_def_id, [sha256(b"c1")]),
                issuer.did,
                issuer.signing_private,
                4,
            ),
        ]
        one = NodeState()
        two = NodeState()
        for txn in txns:
            one, _ = apply(one, txn)
        for txn in txns:
            two, _ = apply(two, txn)
        assert one.digest() == two.digest()

    def test_state_dump_is_canonical(self, tmp_path):
        identity = Identity.create("alice")
        state = must_apply(NodeState(), identity.registration_txn())
        path = tmp_path / "node.state.json"
        state.dump(path)
        import json

        parsed = json.loads(path.read_text())
        assert identity.did in parsed["dids"]


class TestSubmissionGate:
    def test_did_reg_self_certifies(self):
        identity = Identity.create("alice")
        assert verify_txn_signature(NodeState(), identity.registration_txn())

    def test_non_did_reg_requires_registered_author(self):
        issuer = Identity.create("issuer")
        schema = SchemaRecord.create("s", "1.0", [("ref", AttrType.STRING)])
        txn = LedgerTransaction.create(
            TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 1
        )
        assert not verify_txn_signature(NodeState(), txn)
        registered = must_apply(NodeState(), issuer.registration_txn())
        assert verify_txn_signature(registered, txn)

    def test_wrong_key_fails_gate(self):
        identity = Identity.create("alice")
        imposter = Identity.create("imposter")
        txn = LedgerTransaction.create(
            TxnType.DID_REG,
            did_reg_payload(identity.did, identity.document),
            identity.did,
            imposter.signing_private,
            0,
        )
        assert not verify_txn_signature(NodeState(), txn)


def test_fold_chain_matches_incremental():
    from ssiledger.ledger import Chain, build_block

    issuer = Identity.create("issuer")
    chain = Chain.new()
    chain = chain.append(build_block(chain.head, [issuer.registration_txn()], 1))
    schema = SchemaRecord.create("s", "1.0", [("ref", AttrType.STRING)])
    chain = chain.append(
        build_block(
            chain.head,
            [
                LedgerTransaction.create(
                    TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 2
                )
            ],
            2,
        )
    )
    folded = fold_chain(chain)
    assert issuer.did in folded.dids
    assert schema.schema_id.hex in folded.schemas


@functools.cache
def _txn_pool() -> tuple[LedgerTransaction, ...]:
    """Records that apply, reject, or depend on one another in either order."""
    owner, verifier = Identity.create("pool-owner"), Identity.create("pool-verifier")
    schema = SchemaRecord.create("pool", "1.0", [("ref", AttrType.STRING)])
    cred_def = CredDefRecord.create(schema.schema_id, owner.did, owner.signing_public)
    consent = {
        "receipt_hash": sha256(b"pool-receipt").hex,
        "owner_did": owner.did,
        "verifier_did": verifier.did,
        "timestamp": 6,
    }

    def signed(txn_type, payload, timestamp, author=owner):
        return LedgerTransaction.create(txn_type, payload, author.did, author.signing_private, timestamp)

    return (
        owner.registration_txn(),
        signed(TxnType.SCHEMA, schema_payload(schema), 1),
        owner.registration_txn(timestamp=2),  # duplicate DID
        verifier.registration_txn(timestamp=3),
        signed(TxnType.CRED_DEF, cred_def_payload(cred_def), 4),
        signed(TxnType.REVOC_ENTRY, revoc_entry_payload(cred_def.cred_def_id, [sha256(b"c")]), 5),
        signed(TxnType.CONSENT_PROOF, consent, 6),
        signed(TxnType.SCHEMA, {"schema_name": "x", "email": "a@b"}, 7),  # privacy violation
        signed(TxnType.CRED_DEF, {"schema_id": "zz"}, 8),  # malformed
        signed(TxnType.CRED_DEF, cred_def_payload(cred_def), 9, author=verifier),  # not the issuer
        signed(TxnType.REVOC_ENTRY, revoc_entry_payload(cred_def.cred_def_id, []), 10, author=verifier),
    )


def _one_by_one(state: NodeState, txns) -> tuple[NodeState, list]:
    reasons = []
    for txn in txns:
        state, reason = apply(state, txn)
        reasons.append(reason)
    return state, reasons


class TestApplyAll:
    def test_batch_equals_one_txn_at_a_time(self):
        base = must_apply(NodeState(), Identity.create("pool-earlier").registration_txn())
        before = base.to_dict()
        reg, schema, duplicate, verifier_reg = _txn_pool()[:4]
        batch = [reg, schema, duplicate, verifier_reg]
        state, reasons = apply_all(base, batch)
        assert reasons == [None, None, RejectReason.DUPLICATE_DID, None]
        assert (state, reasons) == _one_by_one(base, batch)
        assert apply_all(base, [reg, schema, verifier_reg])[0] == state  # the rejection left no trace
        assert base.to_dict() == before and len(base.dids) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=len(_txn_pool()) - 1), max_size=14))
    def test_any_sequence_equals_one_txn_at_a_time(self, picks):
        txns = [_txn_pool()[i] for i in picks]
        base = NodeState()
        state, reasons = apply_all(base, txns)
        assert (state, reasons) == _one_by_one(base, txns)
        assert base == NodeState()
