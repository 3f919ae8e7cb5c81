import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CredEnv, Identity, diploma_attributes, make_cred_env, must_apply, seed
from ssiledger.auth import ChallengeVerifier
from ssiledger.canonical import UnsupportedType
from ssiledger.credentials import (
    AuthenticationFailed,
    ConsentDeclined,
    IssuerParty,
    NotHolder,
    NotIssuer,
    NothingToPresent,
    Presentation,
    SchemaMismatch,
    VALID,
    VerifiableCredential,
    VerificationResult,
    VerifierParty,
    _presentation_digest,
    authenticate,
    check_attributes,
    issue,
    present,
    record_consent,
    revoke,
    third_party_flow,
    verify_consent_receipt,
    verify_credential,
    verify_presentation,
)
from ssiledger.crypto import Digest, digest_of, sha256, sign
from ssiledger.ledger import LedgerTransaction, TxnType
from ssiledger.state import AttrType, SchemaRecord, apply


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
        state, schema, cred_def = _dated(cred_env)
        good = _issue_dated(cred_env, schema, cred_def, "2026-02-02")
        assert verify_credential(good, state).valid
        with pytest.raises(SchemaMismatch):
            _issue_dated(cred_env, schema, cred_def, "02/02/2026")

    @pytest.mark.parametrize("value", ["20190630", "2019-W26-7", "2019-02-30", "２０１９-06-30", "2019-06-30 ", "0000-01-01"])
    def test_only_a_real_yyyy_mm_dd_is_a_date(self, cred_env, value):
        """Some Pythons' ``date.fromisoformat`` read the basic and week forms, others
        refuse them: a date is exactly YYYY-MM-DD in ASCII digits, on every Python."""
        state, schema, cred_def = _dated(cred_env)
        with pytest.raises(SchemaMismatch):
            _issue_dated(cred_env, schema, cred_def, value)
        fields = (cred_def.cred_def_id, cred_env.issuer.did, cred_env.holder_did, {"issued_on": value}, 22)
        credential_hash = VerifiableCredential.compute_hash(*fields)
        signature = sign(cred_env.issuer.signing_private, credential_hash.value)
        signed = VerifiableCredential(*fields, credential_hash=credential_hash, issuer_signature=signature)
        assert verify_credential(signed, state).reason == "SchemaMismatch"
        assert verify_credential(_issue_dated(cred_env, schema, cred_def, "2019-06-30"), state).valid


def _dated(env: CredEnv):
    """``env``'s state with a one-DATE-attribute schema and its cred def published."""
    from ssiledger.state import CredDefRecord, SchemaRecord, cred_def_payload, schema_payload

    schema = SchemaRecord.create("dated", "1.0", [("issued_on", AttrType.DATE)])
    cred_def = CredDefRecord.create(schema.schema_id, env.issuer.did, env.issuer.signing_public)

    def published(txn_type, payload, timestamp):
        return LedgerTransaction.create(txn_type, payload, env.issuer.did, env.issuer.signing_private, timestamp)

    state = must_apply(env.state, published(TxnType.SCHEMA, schema_payload(schema), 20))
    state = must_apply(state, published(TxnType.CRED_DEF, cred_def_payload(cred_def), 21))
    return state, schema, cred_def


def _issue_dated(env: CredEnv, schema, cred_def, value: str) -> VerifiableCredential:
    return issue(env.issuer.signing_private, cred_def, schema, env.holder_did, {"issued_on": value}, issued_at=22)


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


SURROGATE = "'utf-8' codec can't encode character '\\ud800' in position {}: surrogates not allowed"


class TestRecordsThatDoNotEncode:
    """A record that does not encode canonically raises what the encoding of the
    whole signed map raises: the value's path in it, or its position in its bytes."""

    CASES = {
        "float": (
            {"attributes": {**diploma_attributes(), "year": 1.5}},
            UnsupportedType,
            "float not allowed in canonical values at $.attributes.year",
            "float not allowed in canonical values at $.credentials[0].attributes.year",
        ),
        "non-string key": (
            {"attributes": {**diploma_attributes(), 1: "x"}},
            UnsupportedType,
            "non-string map key 1 at $.attributes",
            "non-string map key 1 at $.credentials[0].attributes",
        ),
        "surrogate in an attribute": (
            {"attributes": {**diploma_attributes(), "degree": "\ud800"}},
            UnicodeEncodeError,
            SURROGATE.format(25),
            SURROGATE.format(73),
        ),
        "surrogate in the subject": ({"subject_did": "\ud800"}, UnicodeEncodeError, SURROGATE.format(267), SURROGATE.format(550)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_what_the_whole_map_raises(self, cred_env, case):
        change, error, in_credential, in_presentation = self.CASES[case]
        credential = _issue(cred_env)
        presentation = present(cred_env.holder_wallet, cred_env.holder_relation, [credential], "did:sample:aud", 40)
        if "subject_did" in change:
            change = {"subject_did": credential.subject_did + change["subject_did"]}
        bad = dataclasses.replace(credential, **change)
        with pytest.raises(error) as raised:
            verify_credential(bad, cred_env.state)
        assert str(raised.value) == in_credential
        with pytest.raises(error) as raised:
            verify_presentation(dataclasses.replace(presentation, credentials=(bad,)), cred_env.state)
        assert str(raised.value) == in_presentation


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


# --- the framed digests against the canonical encoding of the whole map --------

_texts = st.text(max_size=8) | st.sampled_from(['did:"q"', "did:\\x", "a\u2028b", "\u00fc\u5b57", ""])
_leaves = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**130) | _texts
_values = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3), max_leaves=8
)
_digests = st.binary(min_size=32, max_size=32).map(Digest)
_credentials = st.builds(
    VerifiableCredential,
    cred_def_id=_digests,
    issuer_did=_texts | st.integers(),
    subject_did=_texts | st.none(),
    attributes=st.dictionaries(_texts, _values, max_size=4),
    issued_at=st.integers() | st.integers(min_value=2**64, max_value=2**130) | st.booleans() | st.none(),
    credential_hash=_digests,
    issuer_signature=st.binary(max_size=64),
)


def _hash_map(c: VerifiableCredential) -> dict:
    return {
        "cred_def_id": c.cred_def_id.hex,
        "issuer_did": c.issuer_did,
        "subject_did": c.subject_did,
        "attributes": c.attributes,
        "issued_at": c.issued_at,
    }


@settings(max_examples=300, deadline=None)
@given(_credentials)
def test_credential_hash_is_the_digest_of_its_map(c):
    fields = (c.cred_def_id, c.issuer_did, c.subject_did, c.attributes, c.issued_at)
    assert VerifiableCredential.compute_hash(*fields) == digest_of(_hash_map(c))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0, 1, 3]).flatmap(lambda n: st.lists(_credentials, min_size=n, max_size=n)),
    _texts | st.none(),
    _texts,
    st.integers() | st.booleans(),
)
def test_presentation_digest_is_the_digest_of_its_body(credentials, holder_did, audience_did, presented_at):
    body_digest, hashes = _presentation_digest(credentials, holder_did, audience_did, presented_at)
    assert body_digest == digest_of(Presentation.body(credentials, holder_did, audience_did, presented_at)).value
    assert hashes == [digest_of(_hash_map(c)).value for c in credentials]


# --- present, then verify: valid, and one changed field gives today's reason ------


@pytest.fixture(scope="module")
def shared_env() -> CredEnv:
    return make_cred_env()


def _flipped(raw: bytes) -> bytes:
    return raw[:-1] + bytes([raw[-1] ^ 1])


PRESENTATION_CHANGES = {
    "audience_did": (lambda p: dataclasses.replace(p, audience_did=p.audience_did + "x"), "WrongAudience"),
    "holder_did": (lambda p: dataclasses.replace(p, holder_did=p.holder_did + "x"), "UnknownHolder"),
    "presented_at": (lambda p: dataclasses.replace(p, presented_at=p.presented_at + 1), "BadSignature"),
    "holder_signature": (lambda p: dataclasses.replace(p, holder_signature=_flipped(p.holder_signature)), "BadSignature"),
}
# the reason once the holder signs the changed presentation again
CREDENTIAL_CHANGES = {
    "cred_def_id": (lambda c: dataclasses.replace(c, cred_def_id=sha256(b"other")), "UnknownCredDef"),
    "issuer_did": (lambda c: dataclasses.replace(c, issuer_did=c.issuer_did + "x"), "BadSignature"),
    "subject_did": (lambda c: dataclasses.replace(c, subject_did=c.subject_did + "x"), "NotHolder"),
    "attributes": (
        lambda c: dataclasses.replace(c, attributes={**c.attributes, "year": c.attributes["year"] + 1}),
        "BadSignature",
    ),
    "issued_at": (lambda c: dataclasses.replace(c, issued_at=c.issued_at + 1), "BadSignature"),
    "credential_hash": (lambda c: dataclasses.replace(c, credential_hash=sha256(b"forged")), "BadSignature"),
    "issuer_signature": (lambda c: dataclasses.replace(c, issuer_signature=_flipped(c.issuer_signature)), "BadSignature"),
}
_diplomas = st.fixed_dictionaries({"degree": _texts, "field": _texts, "year": st.integers()})


def _presented(env: CredEnv, attributes: dict, now: int) -> Presentation:
    credential = issue(env.issuer.signing_private, env.cred_def, env.schema, env.holder_did, attributes, issued_at=now)
    presentation = present(env.holder_wallet, env.holder_relation, [credential], "did:sample:aud", now)
    assert verify_presentation(presentation, env.state, expected_audience="did:sample:aud") == VALID
    return presentation


@pytest.mark.parametrize("field", sorted(PRESENTATION_CHANGES))
@settings(max_examples=20, deadline=None)
@given(attributes=_diplomas, now=st.integers(min_value=0, max_value=2**40))
def test_changed_presentation_field(shared_env, field, attributes, now):
    change, reason = PRESENTATION_CHANGES[field]
    changed = change(_presented(shared_env, attributes, now))
    assert verify_presentation(changed, shared_env.state, expected_audience="did:sample:aud").reason == reason


@pytest.mark.parametrize("field", sorted(CREDENTIAL_CHANGES))
@settings(max_examples=20, deadline=None)
@given(attributes=_diplomas, now=st.integers(min_value=0, max_value=2**40))
def test_changed_credential_field(shared_env, field, attributes, now):
    change, reason = CREDENTIAL_CHANGES[field]
    presentation = _presented(shared_env, attributes, now)
    changed = dataclasses.replace(presentation, credentials=(change(presentation.credentials[0]),))
    assert verify_presentation(changed, shared_env.state).reason == "BadSignature"  # the holder signed the original
    body = Presentation.body(changed.credentials, changed.holder_did, changed.audience_did, changed.presented_at)
    holder_key = shared_env.holder_wallet.identity(shared_env.holder_relation).signing.private
    resigned = dataclasses.replace(changed, holder_signature=sign(holder_key, digest_of(body).value))
    assert verify_presentation(resigned, shared_env.state).reason == reason


class TestRarelyGivenVerdicts:
    """Verdicts and messages that only a hand-made record reaches."""

    def _receipt(self, env: CredEnv, verifier: Identity, relation: str | None = None):
        return record_consent(
            env.holder_wallet,
            relation or env.holder_relation,
            verifier.did,
            verifier.signing_private,
            [("credit_score", AttrType.INTEGER)],
            purpose="loan",
            now=51,
        )

    def test_receipt_with_an_unregistered_verifier_is_unknown_holder(self, cred_env):
        receipt, _ = self._receipt(cred_env, Identity.create("bank-b"))
        assert verify_consent_receipt(receipt, cred_env.state) == VerificationResult(False, "UnknownHolder")

    def test_receipt_with_an_unregistered_owner_is_unknown_holder(self, cred_env):
        verifier = Identity.create("bank-b")
        state = must_apply(cred_env.state, verifier.registration_txn(timestamp=50))
        cred_env.holder_wallet.new_pairwise("ghost", seed=seed("ghost"))
        receipt, _ = self._receipt(cred_env, verifier, "ghost")
        assert verify_consent_receipt(receipt, state) == VerificationResult(False, "UnknownHolder")

    def test_receipt_whose_proof_is_not_on_the_ledger_is_not_recorded(self, cred_env):
        verifier = Identity.create("bank-b")
        state = must_apply(cred_env.state, verifier.registration_txn(timestamp=50))
        receipt, txn = self._receipt(cred_env, verifier)
        assert verify_consent_receipt(receipt, state) == VerificationResult(False, "NotRecorded")
        assert verify_consent_receipt(receipt, must_apply(state, txn)) == VALID

    @pytest.mark.parametrize(
        "attributes, message",
        [
            ({"name": 7, "flag": True, "on": "2026-01-31"}, "attribute 'name' must be a string"),
            ({"name": "n", "flag": 1, "on": "2026-01-31"}, "attribute 'flag' must be a boolean"),
            ({"name": "n", "flag": False, "on": 20260131}, "attribute 'on' must be an ISO date string"),
        ],
    )
    def test_ill_typed_attribute_messages(self, attributes, message):
        schema = SchemaRecord.create(
            "mixed", "1.0", [("name", AttrType.STRING), ("flag", AttrType.BOOLEAN), ("on", AttrType.DATE)]
        )
        assert check_attributes(schema, attributes) == message
        assert check_attributes(schema, {"name": "n", "flag": False, "on": "2026-01-31"}) is None

    def test_holder_signed_presentation_of_no_credentials_is_schema_mismatch(self, cred_env):
        body_digest, _ = _presentation_digest((), cred_env.holder_did, "did:sample:aud", 40)
        signing = cred_env.holder_wallet.identity(cred_env.holder_relation).signing
        presentation = Presentation((), cred_env.holder_did, "did:sample:aud", 40, sign(signing.private, body_digest))
        assert verify_presentation(presentation, cred_env.state) == VerificationResult(False, "SchemaMismatch")
