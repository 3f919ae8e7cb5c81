import dataclasses

import pytest

from conftest import CredEnv, Identity, diploma_attributes, must_apply, seed
from ssiledger.auth import ChallengeVerifier
from ssiledger.credentials import (
    AuthenticationFailed,
    ConsentDeclined,
    IssuerParty,
    NotHolder,
    NotIssuer,
    NothingToPresent,
    Presentation,
    SchemaMismatch,
    VerifiableCredential,
    VerifierParty,
    authenticate,
    issue,
    present,
    record_consent,
    revoke,
    third_party_flow,
    verify_consent_receipt,
    verify_credential,
    verify_presentation,
)
from ssiledger.crypto import sha256
from ssiledger.ledger import LedgerTransaction, TxnType
from ssiledger.state import AttrType, apply


def _issue(env: CredEnv, attributes=None, subject=None) -> VerifiableCredential:
    return issue(
        env.issuer.signing_private,
        env.cred_def,
        env.schema,
        subject or env.holder_did,
        attributes or diploma_attributes(),
        issued_at=10,
    )


class TestIssue:
    def test_round_trip_verifies(self, cred_env):
        credential = _issue(cred_env)
        assert verify_credential(credential, cred_env.state).valid

    def test_self_attested(self, cred_env):
        # issuer issues about itself: subject == issuer
        credential = _issue(cred_env, subject=cred_env.issuer.did)
        assert credential.issuer_did == credential.subject_did
        assert verify_credential(credential, cred_env.state).valid

    def test_missing_attribute(self, cred_env):
        attributes = diploma_attributes()
        del attributes["degree"]
        with pytest.raises(SchemaMismatch):
            _issue(cred_env, attributes)

    def test_extra_attribute(self, cred_env):
        with pytest.raises(SchemaMismatch):
            _issue(cred_env, {**diploma_attributes(), "gpa": "3.9"})

    def test_ill_typed_attribute(self, cred_env):
        with pytest.raises(SchemaMismatch):
            _issue(cred_env, {**diploma_attributes(), "year": "2019"})
        with pytest.raises(SchemaMismatch):
            _issue(cred_env, {**diploma_attributes(), "year": True})

    def test_date_validation(self, cred_env):
        from ssiledger.state import SchemaRecord, CredDefRecord, cred_def_payload, schema_payload

        schema = SchemaRecord.create("dated", "1.0", [("issued_on", AttrType.DATE)])
        state = must_apply(
            cred_env.state,
            LedgerTransaction.create(
                TxnType.SCHEMA,
                schema_payload(schema),
                cred_env.issuer.did,
                cred_env.issuer.signing_private,
                20,
            ),
        )
        cred_def = CredDefRecord.create(
            schema.schema_id, cred_env.issuer.did, cred_env.issuer.signing_public
        )
        state = must_apply(
            state,
            LedgerTransaction.create(
                TxnType.CRED_DEF,
                cred_def_payload(cred_def),
                cred_env.issuer.did,
                cred_env.issuer.signing_private,
                21,
            ),
        )
        good = issue(
            cred_env.issuer.signing_private,
            cred_def,
            schema,
            cred_env.holder_did,
            {"issued_on": "2026-02-02"},
            issued_at=22,
        )
        assert verify_credential(good, state).valid
        with pytest.raises(SchemaMismatch):
            issue(
                cred_env.issuer.signing_private,
                cred_def,
                schema,
                cred_env.holder_did,
                {"issued_on": "02/02/2026"},
                issued_at=22,
            )


class TestVerify:
    def test_unknown_cred_def(self, cred_env):
        credential = _issue(cred_env)
        orphan = dataclasses.replace(credential, cred_def_id=sha256(b"no-such-def"))
        assert verify_credential(orphan, cred_env.state).reason == "UnknownCredDef"

    def test_changed_attribute_is_bad_signature(self, cred_env):
        credential = _issue(cred_env)
        tampered = dataclasses.replace(
            credential, attributes={**credential.attributes, "degree": "PhD"}
        )
        assert verify_credential(tampered, cred_env.state).reason == "BadSignature"

    def test_every_field_mutation_flips_to_invalid(self, cred_env):
        credential = _issue(cred_env)
        mutations = [
            dataclasses.replace(credential, cred_def_id=sha256(b"other")),
            dataclasses.replace(credential, issuer_did=credential.issuer_did + "x"),
            dataclasses.replace(credential, subject_did=credential.subject_did + "x"),
            dataclasses.replace(credential, attributes={**credential.attributes, "year": 2020}),
            dataclasses.replace(credential, issued_at=credential.issued_at + 1),
            dataclasses.replace(credential, credential_hash=sha256(b"forged")),
            dataclasses.replace(
                credential,
                issuer_signature=credential.issuer_signature[:-1]
                + bytes([credential.issuer_signature[-1] ^ 1]),
            ),
        ]
        for mutated in mutations:
            assert not verify_credential(mutated, cred_env.state).valid

    def test_revoked_after_entry_commits(self, cred_env):
        from ssiledger.state import revoc_entry_payload

        credential = _issue(cred_env)
        assert verify_credential(credential, cred_env.state).valid
        revoked_state = must_apply(
            cred_env.state,
            LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_env.cred_def.cred_def_id, [credential.credential_hash]),
                cred_env.issuer.did,
                cred_env.issuer.signing_private,
                30,
            ),
        )
        assert verify_credential(credential, revoked_state).reason == "Revoked"
        # other credentials from the same definition stay valid
        other = _issue(cred_env, {**diploma_attributes(), "year": 2021})
        assert verify_credential(other, revoked_state).valid

    def test_serialization_round_trip(self, cred_env):
        credential = _issue(cred_env)
        again = VerifiableCredential.from_dict(credential.to_dict())
        assert again == credential
        assert verify_credential(again, cred_env.state).valid


class TestRevokeOp:
    def test_issuer_builds_entry(self, cred_env):
        credential = _issue(cred_env)
        txn = revoke(
            cred_env.issuer.did,
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            credential.credential_hash,
            timestamp=31,
        )
        state, rejection = apply(cred_env.state, txn)
        assert rejection is None
        assert verify_credential(credential, state).reason == "Revoked"

    def test_non_issuer_rejected_locally(self, cred_env):
        stranger = Identity.create("stranger")
        with pytest.raises(NotIssuer):
            revoke(
                stranger.did,
                stranger.signing_private,
                cred_env.cred_def,
                sha256(b"h"),
                timestamp=31,
            )

    def test_double_revocation_idempotent(self, cred_env):
        credential = _issue(cred_env)
        txn = revoke(
            cred_env.issuer.did,
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            credential.credential_hash,
            timestamp=31,
        )
        state = must_apply(cred_env.state, txn)
        once = state.to_dict()
        again = revoke(
            cred_env.issuer.did,
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            credential.credential_hash,
            timestamp=32,
        )
        _, rejection = apply(state, again)
        assert rejection is None
        assert state.to_dict() == once


class TestPresentations:
    def test_present_and_verify(self, cred_env):
        credential = _issue(cred_env)
        audience = Identity.create("audience")
        presentation = present(
            cred_env.holder_wallet, cred_env.holder_relation, [credential], audience.did, now=40
        )
        result = verify_presentation(presentation, cred_env.state, expected_audience=audience.did)
        assert result.valid

    def test_wrong_audience_rejected(self, cred_env):
        credential = _issue(cred_env)
        presentation = present(
            cred_env.holder_wallet, cred_env.holder_relation, [credential], "did:sample:bankB", 40
        )
        result = verify_presentation(presentation, cred_env.state, expected_audience="did:sample:bankC")
        assert result.reason == "WrongAudience"

    def test_empty_presentation_rejected(self, cred_env):
        with pytest.raises(NothingToPresent):
            present(cred_env.holder_wallet, cred_env.holder_relation, [], "did:sample:aud", 40)

    def test_not_holder_rejected(self, cred_env):
        someone_else = _issue(cred_env, subject=Identity.create("someone-else").did)
        with pytest.raises(NotHolder):
            present(
                cred_env.holder_wallet,
                cred_env.holder_relation,
                [someone_else],
                "did:sample:aud",
                40,
            )

    def test_tampered_holder_signature_rejected(self, cred_env):
        credential = _issue(cred_env)
        presentation = present(
            cred_env.holder_wallet, cred_env.holder_relation, [credential], "did:sample:aud", 40
        )
        forged = dataclasses.replace(
            presentation,
            holder_signature=presentation.holder_signature[:-1]
            + bytes([presentation.holder_signature[-1] ^ 1]),
        )
        assert verify_presentation(forged, cred_env.state).reason == "BadSignature"

    def test_embedded_revoked_credential_rejected(self, cred_env):
        from ssiledger.state import revoc_entry_payload

        credential = _issue(cred_env)
        presentation = present(
            cred_env.holder_wallet, cred_env.holder_relation, [credential], "did:sample:aud", 40
        )
        revoked_state = must_apply(
            cred_env.state,
            LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_env.cred_def.cred_def_id, [credential.credential_hash]),
                cred_env.issuer.did,
                cred_env.issuer.signing_private,
                42,
            ),
        )
        assert verify_presentation(presentation, revoked_state).reason == "Revoked"

    def test_unregistered_holder_rejected(self, cred_env):
        wallet = cred_env.holder_wallet
        wallet.new_pairwise("ghost", seed=seed("ghost"))
        ghost_cred = _issue(cred_env, subject=wallet.did("ghost"))
        presentation = present(wallet, "ghost", [ghost_cred], "did:sample:aud", 40)
        assert verify_presentation(presentation, cred_env.state).reason == "UnknownHolder"

    def test_round_trip_serialization(self, cred_env):
        credential = _issue(cred_env)
        presentation = present(
            cred_env.holder_wallet, cred_env.holder_relation, [credential], "did:sample:aud", 40
        )
        assert Presentation.from_dict(presentation.to_dict()) == presentation


class TestConsent:
    def test_receipt_and_proof(self, cred_env):
        verifier = Identity.create("bank-b")
        state = must_apply(cred_env.state, verifier.registration_txn(timestamp=50))
        receipt, txn = record_consent(
            cred_env.holder_wallet,
            cred_env.holder_relation,
            verifier.did,
            verifier.signing_private,
            [("credit_score", AttrType.INTEGER)],
            purpose="loan application",
            now=51,
        )
        state, rejection = apply(state, txn)
        assert rejection is None
        assert verify_consent_receipt(receipt, state).valid
        # dispute resolution: recompute the hash from the held receipt
        assert any(
            record.receipt_hash == receipt.receipt_hash() for record in state.consent_proofs
        )

    def test_receipt_has_no_value_slot(self, cred_env):
        verifier = Identity.create("bank-b")
        receipt, _ = record_consent(
            cred_env.holder_wallet,
            cred_env.holder_relation,
            verifier.did,
            verifier.signing_private,
            [("credit_score", AttrType.INTEGER), ("salary", AttrType.STRING)],
            purpose="loan",
            now=51,
        )
        data = receipt.to_dict()
        assert data["shared"] == [["credit_score", "integer"], ["salary", "string"]]
        # names and types only: every shared entry is a [name, type] pair
        assert all(len(entry) == 2 for entry in data["shared"])

    def test_tampered_receipt_hash_mismatch(self, cred_env):
        verifier = Identity.create("bank-b")
        state = must_apply(cred_env.state, verifier.registration_txn(timestamp=50))
        receipt, txn = record_consent(
            cred_env.holder_wallet,
            cred_env.holder_relation,
            verifier.did,
            verifier.signing_private,
            [("credit_score", AttrType.INTEGER)],
            purpose="loan",
            now=51,
        )
        state, _ = apply(state, txn)
        forged = dataclasses.replace(receipt, purpose="different purpose")
        result = verify_consent_receipt(forged, state)
        assert not result.valid

    def test_missing_signature_detected(self, cred_env):
        verifier = Identity.create("bank-b")
        state = must_apply(cred_env.state, verifier.registration_txn(timestamp=50))
        receipt, txn = record_consent(
            cred_env.holder_wallet,
            cred_env.holder_relation,
            verifier.did,
            verifier.signing_private,
            [("credit_score", AttrType.INTEGER)],
            purpose="loan",
            now=51,
        )
        state, _ = apply(state, txn)
        unsigned = dataclasses.replace(receipt, verifier_signature=b"\x00" * 64)
        assert verify_consent_receipt(unsigned, state).reason == "MissingSignature"


def _flow_env(cred_env: CredEnv):
    requester_identity = Identity.create("bank-b")
    state = must_apply(cred_env.state, requester_identity.registration_txn(timestamp=60))
    wallet = cred_env.holder_wallet
    wallet.new_pairwise("provider", seed=seed("alice:provider"))
    requester_did, requester_doc = wallet.new_pairwise("requester", seed=seed("alice:requester"))
    identity = wallet.identity("requester")
    state = must_apply(
        state,
        LedgerTransaction.create(
            TxnType.DID_REG,
            {"did": requester_did, "document": requester_doc.to_dict()},
            requester_did,
            identity.signing.private,
            61,
        ),
    )
    provider = IssuerParty(
        did=cred_env.issuer.did,
        signing_private=cred_env.issuer.signing_private,
        schema=cred_env.schema,
        cred_def=cred_env.cred_def,
        auth=ChallengeVerifier(),
    )
    requester = VerifierParty(
        did=requester_identity.did,
        signing_private=requester_identity.signing_private,
        auth=ChallengeVerifier(),
    )
    return state, provider, requester, wallet


class TestThirdPartyFlow:
    def test_happy_path(self, cred_env):
        state, provider, requester, wallet = _flow_env(cred_env)
        result = third_party_flow(
            requester,
            provider,
            wallet,
            provider_relation="provider",
            requester_relation="requester",
            requested_attributes=diploma_attributes(),
            ledger=state,
            now=70,
        )
        assert result.verification.valid
        assert result.receipt.verifier_did == requester.did
        after, rejection = apply(state, result.consent_txn)
        assert rejection is None
        assert verify_consent_receipt(result.receipt, after).valid

    def test_consent_declined_aborts(self, cred_env):
        state, provider, requester, wallet = _flow_env(cred_env)
        with pytest.raises(ConsentDeclined):
            third_party_flow(
                requester,
                provider,
                wallet,
                provider_relation="provider",
                requester_relation="requester",
                requested_attributes=diploma_attributes(),
                ledger=state,
                now=70,
                consent=False,
            )

    def test_revocation_midflow_fails_verification(self, cred_env):
        from ssiledger.state import revoc_entry_payload

        state, provider, requester, wallet = _flow_env(cred_env)
        box = {"state": state}

        issued_hash = {}
        original_store = wallet.store_credential

        def store_and_revoke(credential, ledger_view, received_at):
            stored = original_store(credential, ledger_view, received_at)
            # the issuer publishes a revocation right after delivery
            txn = LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_env.cred_def.cred_def_id, [credential.credential_hash]),
                cred_env.issuer.did,
                cred_env.issuer.signing_private,
                received_at,
            )
            box["state"], rejection = apply(box["state"], txn)
            assert rejection is None
            return stored

        wallet.store_credential = store_and_revoke
        from ssiledger.credentials import VerificationFailed

        with pytest.raises(VerificationFailed) as excinfo:
            third_party_flow(
                requester,
                provider,
                wallet,
                provider_relation="provider",
                requester_relation="requester",
                requested_attributes=diploma_attributes(),
                ledger=lambda: box["state"],
                now=70,
            )
        assert excinfo.value.reason == "Revoked"

    def test_auth_failure_aborts(self, cred_env):
        state, provider, requester, wallet = _flow_env(cred_env)

        class AlwaysExpired(ChallengeVerifier):
            def check(self, response, now):
                return super().check(response, now=now + 10_000)

        requester.auth = AlwaysExpired()
        with pytest.raises(AuthenticationFailed) as excinfo:
            third_party_flow(
                requester,
                provider,
                wallet,
                provider_relation="provider",
                requester_relation="requester",
                requested_attributes=diploma_attributes(),
                ledger=state,
                now=70,
            )
        assert excinfo.value.party == "requester"

    def test_steps_and_the_party_that_fails(self, cred_env):
        state, provider, requester, wallet = _flow_env(cred_env)
        args = dict(provider_relation="provider", requester_relation="requester",
                    requested_attributes=diploma_attributes(), ledger=state, now=70)
        assert third_party_flow(requester, provider, wallet, **args).steps == [
            "owner authenticated with requester",
            "owner authenticated with provider",
            "owner consented to share",
            "provider issued credential",
            "owner presented credential to requester",
            "requester verified presentation",
            "consent receipt recorded",
        ]
        provider.auth.consumed.add(b"\x07" * 32)
        with pytest.raises(AuthenticationFailed) as excinfo:
            third_party_flow(requester, provider, wallet, rng=lambda size: b"\x07" * size, **args)
        assert (excinfo.value.party, excinfo.value.reason) == ("provider", "Replayed")


class TestAuthenticate:
    def test_one_round_then_a_replay(self, cred_env):
        _, provider, _, wallet = _flow_env(cred_env)
        draws = []

        def rng(size):
            draws.append(size)
            return b"\x07" * size

        assert authenticate(provider.auth, wallet, "provider", 70, rng).authenticated
        assert provider.auth.consumed == {b"\x07" * draws[0]} and not provider.auth.pending
        replay = authenticate(provider.auth, wallet, "provider", 70, rng)
        assert (replay.authenticated, replay.reason) == (False, "Replayed")
        assert len(draws) == 2
