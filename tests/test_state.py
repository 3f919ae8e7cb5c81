import copy
import dataclasses
import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Identity, must_apply, signed_by_no_one, small_order_registration
from test_acceptance import Budget
import ssiledger.ledger as ledger_mod
from ssiledger.consensus import ConsensusConfig, FaultPlan
from ssiledger.credentials import Presentation, issue, ledger_reads, verify_credential, verify_presentation
from ssiledger.crypto import ZERO_DIGEST, digest_of, sha256, sign
from ssiledger.ledger import Chain, LedgerTransaction, TxnType, build_block, check_file, write_chain
from ssiledger.simulation import Simulation, WorkloadItem, run_simulation, synthetic_did_workload
from ssiledger.state import (
    DEFAULT_DENIED_FIELDS,
    AttrType,
    CredDefRecord,
    NodeState,
    RejectReason,
    SchemaRecord,
    apply,
    b58encode,
    cred_def_payload,
    derive_did,
    did_reg_payload,
    fold_chain,
    fold_into,
    fold_read_set,
    privacy_lint,
    registry_id_for,
    resolve_did,
    revoc_entry_payload,
    schema_payload,
    verify_txn_signature,
    _writers_of,
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
        before = state.to_dict()
        _, rejection = apply(state, identity.registration_txn(timestamp=9))
        assert rejection == RejectReason.DUPLICATE_DID
        assert state.to_dict() == before

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

    def test_cred_def_whose_id_is_not_its_digest_is_malformed(self):
        issuer = Identity.create("issuer")
        schema = SchemaRecord.create("record", "1.0", [("ref", AttrType.STRING)])
        state = must_apply(NodeState(), issuer.registration_txn())
        state = must_apply(
            state, LedgerTransaction.create(TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 1)
        )
        cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)
        payload = {**cred_def_payload(cred_def), "cred_def_id": "ab" * 32}
        txn = LedgerTransaction.create(TxnType.CRED_DEF, payload, issuer.did, issuer.signing_private, 2)
        assert fold_into(state, (txn,)) == [RejectReason.MALFORMED]
        assert not state.cred_defs and not state.registries

    def test_schema_with_no_attributes_is_malformed(self):
        issuer = Identity.create("issuer")
        schema = SchemaRecord.create("record", "1.0", [("ref", AttrType.STRING)])
        state = must_apply(NodeState(), issuer.registration_txn())
        payload = {**schema_payload(schema), "attributes": []}
        txn = LedgerTransaction.create(TxnType.SCHEMA, payload, issuer.did, issuer.signing_private, 1)
        assert fold_into(state, (txn,)) == [RejectReason.MALFORMED]
        assert not state.schemas

    def test_schema_republish_is_idempotent(self):
        issuer = Identity.create("issuer")
        state, schema, _ = _published(issuer)
        before = state.to_dict()
        must_apply(
            state,
            LedgerTransaction.create(
                TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 5
            ),
        )
        assert state.to_dict() == before


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
        revoked = state.registries[cred_def.registry_key].revoked
        assert target in revoked
        assert sha256(b"credential-two") not in revoked

    def test_fresh_registry_empty(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        assert state.registries[cred_def.registry_key].revoked == set()

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
        folded = copy.deepcopy(state)
        reasons = fold_into(folded, entries)
        stepped, stepped_reasons = _one_by_one(copy.deepcopy(state), entries)
        assert folded.digest() == stepped.digest() and reasons == stepped_reasons
        assert reasons == [None, None, RejectReason.UNAUTHORIZED_ISSUER, RejectReason.MALFORMED, None, None]
        assert state.to_dict() == before

    def test_many_single_hash_revocations_fold_in_linear_time(self):
        issuer = Identity.create("issuer")
        state, _, cred_def = _published(issuer)
        hashes = [sha256(i.to_bytes(4, "big")) for i in range(20_000)]
        entries = [_revocation(cred_def.cred_def_id, issuer.did, [h.hex], i) for i, h in enumerate(hashes)]
        with Budget("20k single-hash revocations, one fold_into call", 2.0):
            reasons = fold_into(state, entries)
        assert reasons == [None] * len(entries)
        registry = state.registries[registry_id_for(cred_def.cred_def_id).hex]
        assert registry.revoked == set(hashes)

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
        assert target in state.registries[cred_def.registry_key].revoked
        after = must_apply(state, dataclasses.replace(entry, timestamp=8, txn_id=LedgerTransaction.compute_id(entry.txn_type, entry.payload, entry.author_did, 8)))
        assert after.registries[cred_def.registry_key].revoked == {target}


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
                before = state.to_dict()
                _, rejection = apply(state, txn)
                if rejection is not None:
                    assert state.to_dict() == before

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

    def test_payload_that_does_not_encode_fails_the_gate(self):
        issuer = Identity.create("issuer")
        schema = SchemaRecord.create("s", "1.0", [("ref", AttrType.STRING)])
        txn = LedgerTransaction.create(TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 1)
        registered = must_apply(NodeState(), issuer.registration_txn())
        assert not verify_txn_signature(registered, dataclasses.replace(txn, payload={**txn.payload, "version": 1.5}))

    def test_small_order_key_registers_no_did(self):
        registration = small_order_registration()
        assert registration.id_recomputes()
        assert not verify_txn_signature(NodeState(), registration)

    def test_small_order_key_signs_nothing_in_its_did_name(self):
        state = must_apply(NodeState(), small_order_registration())  # apply checks no signature
        schema = SchemaRecord.create("s", "1.0", [("ref", AttrType.STRING)])
        forged = signed_by_no_one(TxnType.SCHEMA, schema_payload(schema), 1)
        assert forged.id_recomputes()
        assert not verify_txn_signature(state, forged)


class TestDidSelfCheckCache:
    """A DID_REG's DID-from-key check runs once per record and its outcome is
    cached on the record; every use must still give the uncached verdict."""

    @staticmethod
    def _mismatched() -> LedgerTransaction:
        identity = Identity.create("alice")
        imposter = Identity.create("imposter")
        # signed by the key it registers, but the DID is another key's
        return LedgerTransaction.create(
            TxnType.DID_REG,
            did_reg_payload(imposter.did, identity.document),
            imposter.did,
            identity.signing_private,
            0,
        )

    def test_mismatch_refused_at_admission_every_time(self):
        txn = self._mismatched()
        sim = Simulation(ConsensusConfig(f=1), seed=3, horizon=0)
        for at, node in ((5, 1), (6, 1), (7, 2)):
            sim.submit_at(at, node, txn)
        sim.run()
        rejected = [(e["time"], e["node"]) for e in sim.events if e["event_type"] == "submit_rejected"]
        assert rejected == [(5, 1), (6, 1), (7, 2)]
        assert sim.accepted == 0 and all(node.chain.height == 0 for node in sim.nodes)
        # the outcome cached at admission is the one fold_into reads
        reasons = fold_into(NodeState(), [txn, txn])
        assert reasons == [RejectReason.MALFORMED, RejectReason.MALFORMED]

    def test_mismatch_malformed_in_apply_all_every_time(self):
        txn = self._mismatched()
        for _ in range(2):
            reasons = fold_into(NodeState(), [txn, txn])
            assert reasons == [RejectReason.MALFORMED, RejectReason.MALFORMED]
            assert not verify_txn_signature(NodeState(), txn)

    def test_replace_starts_with_an_empty_cache(self):
        identity = Identity.create("alice")
        txn = identity.registration_txn()
        assert verify_txn_signature(NodeState(), txn) and txn._did_document is not None
        forged = dataclasses.replace(txn, payload={**txn.payload, "did": Identity.create("bob").did})
        assert forged._did_document is None
        assert not verify_txn_signature(NodeState(), forged)
        assert apply(NodeState(), forged)[1] == RejectReason.MALFORMED
        assert must_apply(NodeState(), txn).dids[identity.did] == identity.document

    def test_unparseable_document_is_never_cached(self):
        identity = Identity.create("alice")
        txn = LedgerTransaction.create(
            TxnType.DID_REG, {"did": identity.did, "document": "junk"}, identity.did, identity.signing_private, 0
        )
        for _ in range(2):
            assert not verify_txn_signature(NodeState(), txn)
            assert apply(NodeState(), txn)[1] == RejectReason.MALFORMED
            assert txn._did_document is None

    def test_every_node_verifies_every_did_reg(self, monkeypatch):
        calls = []
        real_verify = ledger_mod.verify
        monkeypatch.setattr(ledger_mod, "verify", lambda *args: calls.append(1) or real_verify(*args))
        config = ConsensusConfig(f=1, batch_max=5, batch_timeout=50)
        workload = synthetic_did_workload(6, seed=9, start=10, interval=40, node=1)
        for _ in range(2):  # the second run finds every record's caches warm
            calls.clear()
            _, sim = run_simulation(config, None, None, workload, 2000, seed=10)
            assert all(node.chain.txn_count() == 6 for node in sim.nodes)
            assert len(calls) == config.n * 6

    @staticmethod
    def _verified_signatures(monkeypatch) -> list[bytes]:
        """The signature of each ``ledger.verify`` call from here on, from either thread."""
        signatures = []
        real_verify = ledger_mod.verify

        def verify(key: bytes, message: bytes, signature: bytes) -> bool:
            signatures.append(signature)
            return real_verify(key, message, signature)

        monkeypatch.setattr(ledger_mod, "verify", verify)
        return signatures

    def test_every_node_verifies_every_did_reg_of_a_burst(self, monkeypatch):
        """64 DID_REGs due at one ms, and a junk-signed one with them: each
        ms's admissions are verified ahead as one group, and still each node
        verifies each record once. The junk record is refused at its node and
        reaches no chain; submitted again in a later group, it is verified again."""
        signatures = self._verified_signatures(monkeypatch)
        groups = []
        real_verify_signatures = ledger_mod.verify_signatures
        monkeypatch.setattr(
            ledger_mod, "verify_signatures", lambda checks: groups.append(len(checks)) or real_verify_signatures(checks)
        )
        config = ConsensusConfig(f=1, batch_max=16, batch_timeout=50)
        *burst, extra = synthetic_did_workload(65, seed=9, start=10, interval=0)
        junk = dataclasses.replace(extra.txn, author_signature=bytes(64))
        workload = [WorkloadItem(item.time, 1 + i % 3, item.txn) for i, item in enumerate(burst)]
        workload += [WorkloadItem(10, 2, junk), WorkloadItem(1000, 2, junk)]
        report, sim = run_simulation(config, None, None, workload, 2000, seed=10)
        assert groups[0] == 65  # the 64 submissions and the junk one, verified ahead
        assert all(node.chain.txn_count() == 64 for node in sim.nodes)
        assert len(signatures) == config.n * 64 + 2
        assert {signatures.count(item.txn.author_signature) for item in burst} == {config.n}
        assert signatures.count(junk.author_signature) == 2
        assert report.accepted == 64 and [node.rejected_submissions for node in sim.nodes] == [0, 0, 2, 0]
        rejected = [(e["time"], e["node"]) for e in sim.events if e["event_type"] == "submit_rejected"]
        assert rejected == [(10, 2), (1000, 2)]
        assert not any(junk.txn_id.hex in node.first_seen for node in sim.nodes)

    def test_a_node_that_crashes_in_a_burst_verifies_none_of_it(self, monkeypatch):
        """The crash of node 1 is due at the ms of a burst submitted to nodes 1
        and 2, and comes first: node 1 takes none of its share in, so no node
        verifies that share, ahead or not, and the three live nodes verify node 2's."""
        signatures = self._verified_signatures(monkeypatch)
        config = ConsensusConfig(f=1, batch_max=16, batch_timeout=50)
        burst = synthetic_did_workload(64, seed=9, start=10, interval=0)
        workload = [WorkloadItem(item.time, 1 + i % 2, item.txn) for i, item in enumerate(burst)]
        report, sim = run_simulation(config, None, FaultPlan(crash={1: 10}), workload, 2000, seed=10)
        assert report.accepted == 32 and all(node.chain.txn_count() == 32 for node in sim.nodes if node.id != 1)
        assert {signatures.count(item.txn.author_signature) for item in workload if item.node == 2} == {3}
        assert len(signatures) == 3 * 32


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


_pool_picks = st.lists(st.integers(min_value=0, max_value=len(_txn_pool()) - 1), max_size=14)


def _one_by_one(state: NodeState, txns) -> tuple[NodeState, list]:
    """``apply`` each record in turn into ``state``, in place."""
    reasons = []
    for txn in txns:
        state, reason = apply(state, txn)
        reasons.append(reason)
    return state, reasons


class TestApplyAll:
    def test_batch_equals_one_txn_at_a_time(self):
        base = must_apply(NodeState(), Identity.create("pool-earlier").registration_txn())
        reg, schema, duplicate, verifier_reg = _txn_pool()[:4]
        batch = [reg, schema, duplicate, verifier_reg]
        state = copy.deepcopy(base)
        reasons = fold_into(state, batch)
        assert reasons == [None, None, RejectReason.DUPLICATE_DID, None]
        assert (state, reasons) == _one_by_one(copy.deepcopy(base), batch)
        fold_into(base, [reg, schema, verifier_reg])
        assert base == state  # the rejection left no trace

    @settings(max_examples=60, deadline=None)
    @given(_pool_picks)
    def test_any_sequence_equals_one_txn_at_a_time(self, picks):
        txns = [_txn_pool()[i] for i in picks]
        state = NodeState()
        reasons = fold_into(state, txns)
        assert (state, reasons) == _one_by_one(NodeState(), txns)

    @settings(max_examples=100, deadline=None)
    @given(_pool_picks)
    @example([0, 1, 9, 4])  # a cred def by one who is not its issuer, with all it needs on the ledger
    def test_a_rejected_record_leaves_no_trace(self, picks):
        """Folded one record at a time into one state, every record the fold
        rejects leaves the state's ``to_dict()`` as it was. A handler that
        writes before it rejects fails here."""
        state = NodeState()
        for i in picks:
            before = state.to_dict()
            if fold_into(state, [_txn_pool()[i]]) != [None]:
                assert state.to_dict() == before


# --- folding only what a verdict reads --------------------------------------------

_ID_FORMS = (str, str.upper, lambda h: " ".join(h[i : i + 2] for i in range(0, len(h), 2)))


@functools.cache
def _reads_universe():
    """Three parties, two schemas, a cred def for each (schema, issuer) with
    parties 0 and 1 issuing, and a credential for each (cred def, subject):
    cred def ``c`` is issued by party ``c % 2`` over schema ``c // 2``, and
    its credential to party ``h`` is ``credentials[3 * c + h]``."""
    parties = tuple(Identity.create(f"reads-{i}") for i in range(3))
    schemas = (
        SchemaRecord.create("reads-a", "1.0", [("ref", AttrType.STRING)]),
        SchemaRecord.create("reads-b", "1.0", [("ref", AttrType.STRING), ("year", AttrType.INTEGER)]),
    )
    cred_defs = tuple(
        CredDefRecord.create(schemas[c // 2].schema_id, parties[c % 2].did, parties[c % 2].signing_public)
        for c in range(4)
    )
    attributes = ({"ref": "r"}, {"ref": "r", "year": 2019})
    credentials = tuple(
        issue(parties[c % 2].signing_private, cred_defs[c], schemas[c // 2], holder.did, attributes[c // 2], 5)
        for c in range(4)
        for holder in parties
    )
    return parties, schemas, cred_defs, credentials


def _adversarial_record(op: tuple[int, int, int, int, int], timestamp: int) -> LedgerTransaction:
    """An unsigned record (``apply`` checks no signatures), with its own id so
    that a file of such records is valid, from five small ints:
    (kind, a, b, id form, variant). Variant 1 swaps in party b's DID as the
    author, 2 adds a private field, 3 wraps the payload in a list, 4 gives a
    DID_REG party b's document and writes a cred def's own id in the chosen
    form; any other variant is honest. Forms are lower-case, upper-case and
    spaced hex."""
    kind, a, b, form, variant = op
    parties, schemas, cred_defs, credentials = _reads_universe()
    other = parties[b % 3].did
    as_form = _ID_FORMS[form]
    if kind == 0:  # DID_REG of party a
        party = parties[a % 3]
        txn_type, author = TxnType.DID_REG, party.did
        document = parties[b % 3].document if variant == 4 else party.document
        payload = did_reg_payload(party.did, document)
    elif kind == 1:  # SCHEMA, by any party, so possibly by an unregistered one
        schema = schemas[a % 2]
        txn_type, author = TxnType.SCHEMA, other
        payload = {**schema_payload(schema), "schema_id": as_form(schema.schema_id.hex)}
    elif kind == 2:  # CRED_DEF, possibly before its schema or its issuer's DID
        cred_def = cred_defs[a % 4]
        txn_type, author = TxnType.CRED_DEF, cred_def.issuer_did
        payload = {**cred_def_payload(cred_def), "schema_id": as_form(cred_def.schema_id.hex)}
        if variant == 4:
            payload["cred_def_id"] = as_form(cred_def.cred_def_id.hex)
    elif kind == 3:  # REVOC_ENTRY of the credentials of the holders in bit mask b
        c = a % 4
        txn_type, author = TxnType.REVOC_ENTRY, cred_defs[c].issuer_did
        revoked = [credentials[3 * c + h].credential_hash for h in range(3) if b >> h & 1]
        payload = revoc_entry_payload(cred_defs[c].cred_def_id, revoked)
        payload["cred_def_id"] = as_form(payload["cred_def_id"])
    elif kind == 4:  # CONSENT_PROOF
        txn_type, author = TxnType.CONSENT_PROOF, parties[a % 3].did
        payload = {"receipt_hash": sha256(bytes([b])).hex, "owner_did": author, "verifier_did": other, "timestamp": 1}
    else:  # a record of any type with a junk payload
        txn_type, author, payload = list(TxnType)[a % 5], other, [None, "x", 7, {}][b % 4]
    if variant == 1:
        author = other
    elif variant == 2 and isinstance(payload, dict):
        payload = {**payload, "email": "e@x"}
    elif variant == 3:
        payload = [payload]
    return _own_id(LedgerTransaction(txn_type, payload, author, b"", timestamp, ZERO_DIGEST))


def _own_id(txn: LedgerTransaction) -> LedgerTransaction:
    return dataclasses.replace(txn, txn_id=LedgerTransaction.compute_id(txn.txn_type, txn.payload, txn.author_did, txn.timestamp))


def _chain_of(txns: list[LedgerTransaction]) -> Chain:
    chain = Chain.new()
    for start in range(0, len(txns), 3):
        chain = chain.append(build_block(chain.head, txns[start : start + 3], start + 1))
    return chain


def _file_records(chain: Chain, tmp_path_factory) -> list[tuple]:
    """The records ``check_file`` reads back from ``chain`` written to a file."""
    path = tmp_path_factory.mktemp("reads") / "net.ledger.jsonl"
    write_chain(chain, path)
    check, records, _ = check_file(path)
    assert check.ok
    return records


def _on(state: NodeState, keys: set[str]) -> tuple:
    """The part of a state a fold over ``keys`` must agree on."""
    return (
        {k: v for k, v in state.dids.items() if k in keys},
        {k: v for k, v in state.schemas.items() if k in keys},
        {k: v for k, v in state.cred_defs.items() if k in keys},
        {k: v for k, v in state.registries.items() if v.cred_def_id.hex in keys},
    )


# the honest records: three DID_REGs, two schemas and four cred defs
_HONEST = [(0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 2, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 0, 0, 0)] + [
    (2, c, 0, 0, 0) for c in range(4)
]
_revocations = st.tuples(st.just(3), st.integers(0, 3), st.integers(1, 7), st.integers(0, 2), st.just(0))
_ops = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 7), st.integers(0, 2), st.integers(0, 6))
# the honest records less at most one, revocations and any others, in any
# order: a record's dependencies may come before or after it
_ledgers = st.tuples(
    st.integers(0, len(_HONEST)), st.lists(_revocations, max_size=4), st.lists(_ops, max_size=10)
).flatmap(lambda drawn: st.permutations(_HONEST[: drawn[0]] + _HONEST[drawn[0] + 1 :] + drawn[1] + drawn[2]))
# an honest issuer and holder, then a revocation that names its cred def in upper-case hex
_UPPER_CASE_REVOCATION = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (0, 1, 0, 0, 0), (3, 0, 2, 1, 0)]
# the same issuer and holder, with a cred def that names its schema in upper-case hex
_UPPER_CASE_SCHEMA = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 1, 0), (0, 1, 0, 0, 0)]


class TestReadSetFold:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ledgers, holder=st.integers(0, 2), cred_defs=st.lists(st.integers(0, 3), min_size=1, max_size=2))
    @example(ops=_UPPER_CASE_REVOCATION, holder=1, cred_defs=[0])
    @example(ops=_UPPER_CASE_SCHEMA, holder=1, cred_defs=[0])
    def test_verdicts_and_read_keys_equal_the_full_fold(self, tmp_path_factory, ops, holder, cred_defs):
        txns = [_adversarial_record(op, t) for t, op in enumerate(ops)]
        chain = _chain_of(txns)
        full = fold_chain(chain)
        records = _file_records(chain, tmp_path_factory)
        parties, _, _, credentials = _reads_universe()
        presented = tuple(credentials[3 * c + holder] for c in cred_defs)
        body = Presentation.body(presented, parties[holder].did, "did:sample:audience", 9)
        presentation = Presentation(
            presented, parties[holder].did, "did:sample:audience", 9,
            sign(parties[holder].signing_private, digest_of(body).value),
        )
        for record in (presentation, *presented):
            verify = verify_presentation if isinstance(record, Presentation) else verify_credential
            reads = ledger_reads(record)
            closure = _writers_of(records, reads)[0]
            partial = fold_read_set(records, reads)
            assert verify(record, partial) == verify(record, full)
            assert reads <= closure
            assert _on(partial, closure) == _on(full, closure)
            assert _on(partial, closure) == (partial.dids, partial.schemas, partial.cred_defs, partial.registries)

    def test_upper_case_revocation_is_folded(self, tmp_path_factory):
        _, _, _, credentials = _reads_universe()
        chain = _chain_of([_adversarial_record(op, t) for t, op in enumerate(_UPPER_CASE_REVOCATION)])
        records = _file_records(chain, tmp_path_factory)
        credential = credentials[1]
        assert verify_credential(credential, fold_chain(chain)).reason == "Revoked"
        assert verify_credential(credential, fold_read_set(records, ledger_reads(credential))).reason == "Revoked"

    def test_records_with_unhashable_reads_are_skipped(self, tmp_path_factory):
        # a SCHEMA authored by a list and a CRED_DEF issued by one: their handlers raise before they write
        txns = [_adversarial_record(op, t) for t, op in enumerate(_UPPER_CASE_SCHEMA)]
        schema = next(txn for txn in txns if txn.txn_type == TxnType.SCHEMA)
        cred_def = next(txn for txn in txns if txn.txn_type == TxnType.CRED_DEF)
        odd = [
            _own_id(dataclasses.replace(schema, author_did=["x"])),
            _own_id(dataclasses.replace(cred_def, payload={**cred_def.payload, "issuer_did": ["x"]})),
        ]
        chain = _chain_of(odd + txns)
        records = _file_records(chain, tmp_path_factory)
        reads = {schema.payload["schema_id"], cred_def.payload["cred_def_id"]}
        closure, picked = _writers_of(records, reads)
        picked = [(odd + txns)[index] for index in picked]
        assert not any(txn in picked for txn in odd)
        assert _on(fold_read_set(records, reads), closure) == _on(fold_chain(chain), closure)

    def test_no_reads_fold_nothing(self, tmp_path_factory):
        txns = [_adversarial_record(op, t) for t, op in enumerate(_UPPER_CASE_REVOCATION)]
        assert fold_read_set(_file_records(_chain_of(txns), tmp_path_factory), set()) == NodeState()


# --- folding in place ---------------------------------------------------------


class TestFoldInPlace:
    def test_one_key_set_object_per_distinct_key_set(self):
        a, b = Identity.create("a").registration_txn(), Identity.create("b").registration_txn()
        fold_into(NodeState(), [a, b])
        assert a._key_names is b._key_names
        assert a._key_names == {"did", "document", "verification_key", "agreement_key", "endpoint", "metadata"}


_field_names = st.sampled_from(sorted(DEFAULT_DENIED_FIELDS)[:4] + ["attributes_values", "org", "ref", "x", ""])
_payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _field_names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_field_names, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_payloads, st.lists(st.frozensets(_field_names, max_size=4), min_size=1, max_size=3))
def test_cached_key_names_decide_as_privacy_lint_does(payload, deny_lists):
    """One record folded under several deny lists: the names cached on it at
    the first fold decide every later one exactly as a fresh ``privacy_lint``
    walk would. A cached verdict, or a walk that misses a nested key, fails."""
    author = Identity.create("lint")
    txn = LedgerTransaction.create(TxnType.SCHEMA, payload, author.did, author.signing_private, 0)
    for denied in deny_lists:
        (reason,) = fold_into(NodeState(denied_fields=denied), [txn])
        assert (reason == RejectReason.PRIVACY_VIOLATION) == (privacy_lint(payload, denied) is not None)
