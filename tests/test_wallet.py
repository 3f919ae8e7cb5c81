import dataclasses
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import CredEnv, diploma_attributes, seed
from ssiledger.canonical import canonical_json
from ssiledger.cli import main
from ssiledger.credentials import issue
from ssiledger.crypto import decrypt_from, encrypt_to, generate_signing_keypair, sign, verify
from ssiledger.ledger import LedgerTransaction, TxnType
from ssiledger.state import derive_did, revoc_entry_payload
from ssiledger.wallet import (
    CredentialNotStored,
    MalformedWallet,
    RelationExists,
    UnknownRelation,
    UnlockFailed,
    Wallet,
    WalletLocked,
    WeakSecret,
)


class TestLifecycle:
    def test_create_empty(self):
        wallet = Wallet.create("alice", b"secret")
        assert wallet.to_dict()["relations"] == {} and wallet.credentials == []
        with pytest.raises(UnknownRelation):  # not WalletLocked: a created wallet is unlocked
            wallet.identity("bank")

    def test_empty_secret_rejected(self):
        with pytest.raises(WeakSecret):
            Wallet.create("alice", b"")

    def test_unlock_round_trip(self, tmp_path):
        wallet = Wallet.create("alice", b"right-secret")
        wallet.new_pairwise("bank", seed=seed("alice:bank"))
        path = tmp_path / "alice.wallet.json"
        wallet.save(path)
        loaded = Wallet.load(path)
        with pytest.raises(WalletLocked):
            loaded.identity("bank")
        loaded.unlock(b"right-secret")
        assert loaded.identity("bank").did == wallet.identity("bank").did

    def test_wrong_secret_fails(self, tmp_path):
        wallet = Wallet.create("alice", b"right-secret")
        path = tmp_path / "alice.wallet.json"
        wallet.save(path)
        loaded = Wallet.load(path)
        with pytest.raises(UnlockFailed):
            loaded.unlock(b"wrong-secret")

    def test_locked_wallet_refuses_key_operations(self, tmp_path):
        """A loaded wallet, never unlocked, as ``wallet list`` holds it."""
        created = Wallet.create("alice", b"secret")
        created.new_pairwise("bank", seed=seed("alice:bank"))
        created.save(tmp_path / "alice.wallet.json")
        wallet = Wallet.load(tmp_path / "alice.wallet.json")
        with pytest.raises(WalletLocked):
            wallet.identity("bank")
        with pytest.raises(WalletLocked):
            wallet.new_pairwise("other")
        with pytest.raises(WalletLocked):
            wallet.respond_challenge("bank", b"\x00" * 60)


class TestWalletFileCompatibility:
    """``fixtures/parent.wallet.json`` was written by the scrypt and Ed25519 of
    ``cryptography`` (OpenSSL); the libsodium ones must open and use it."""

    PATH = Path(__file__).parent / "fixtures" / "parent.wallet.json"

    def test_unlocks_and_keys_match(self):
        wallet = Wallet.load(self.PATH)
        with pytest.raises(UnlockFailed):
            wallet.unlock(b"fixture-wrong-secret")
        wallet.unlock(b"fixture-unlock-secret")
        identity = wallet.identity("employer")
        assert identity.did == "did:sample:49iuitMkvZzXK7Fa6hQi8J" == derive_did(identity.signing.public)
        assert generate_signing_keypair(identity.signing.private).public == identity.signing.public
        assert verify(identity.signing.public, b"m", sign(identity.signing.private, b"m"))
        assert wallet.respond_challenge("employer", encrypt_to(identity.agreement.public, b"nonce")) == b"nonce"


class TestPairwiseIdentities:
    def test_distinct_relations_distinct_dids(self):
        wallet = Wallet.create("alice", b"secret")
        did_a, _ = wallet.new_pairwise("hospital-a", seed=seed("x"))
        did_b, _ = wallet.new_pairwise("hospital-b", seed=seed("x"))
        assert did_a != did_b  # same base seed, still mixed per relation

    def test_duplicate_relation_rejected(self):
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("bank", seed=seed("y"))
        with pytest.raises(RelationExists):
            wallet.new_pairwise("bank")

    def test_unknown_relation(self):
        wallet = Wallet.create("alice", b"secret")
        with pytest.raises(UnknownRelation):
            wallet.identity("nope")
        with pytest.raises(UnknownRelation):
            wallet.did("nope")

    def test_document_carries_both_keys(self):
        wallet = Wallet.create("alice", b"secret")
        _, document = wallet.new_pairwise("bank", seed=seed("z"))
        identity = wallet.identity("bank")
        assert document.verification_key == identity.signing.public
        assert document.agreement_key == identity.agreement.public

    def test_peer_tracking(self, tmp_path):
        """A relation's ``peer_did`` in the wallet file survives ``load`` and
        ``save`` byte for byte, and ``wallet list --json`` shows it."""
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("bank", seed=seed("w"))
        data = wallet.to_dict()
        data["relations"]["bank"]["peer_did"] = "did:sample:bankdid"
        path, again = tmp_path / "alice.wallet.json", tmp_path / "again.wallet.json"
        path.write_text(canonical_json(data) + "\n", encoding="utf-8")
        Wallet.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()
        result = CliRunner().invoke(main, ["wallet", "list", "--wallet", str(path), "--json"], catch_exceptions=False)
        assert json.loads(result.output)["relations"]["bank"] == {"did": wallet.did("bank"), "peer_did": "did:sample:bankdid"}

    def test_edited_verification_key_is_refused(self, tmp_path):
        """A wallet file whose relation names a key its sealed signing key does
        not derive opens no identity for that relation: the key would be
        handed out in its DID document."""
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("bank", seed=seed("v"))
        wallet.new_pairwise("shop", seed=seed("v"))
        data = wallet.to_dict()
        data["relations"]["bank"]["verification_key"] = data["relations"]["shop"]["verification_key"]
        path = tmp_path / "alice.wallet.json"
        path.write_text(canonical_json(data) + "\n", encoding="utf-8")
        edited = Wallet.load(path)
        edited.unlock(b"secret")
        with pytest.raises(MalformedWallet, match="relation 'bank' stores a verification key"):
            edited.identity("bank")
        assert edited.identity("shop").signing == wallet.identity("shop").signing

    def test_relation_keys_decrypt_independently(self, tmp_path):
        # compromise of one relation's plaintext keys reveals nothing about
        # the other relation's: each blob opens on its own
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("a", seed=seed("a"))
        wallet.new_pairwise("b", seed=seed("b"))
        id_a = wallet.identity("a")
        id_b = wallet.identity("b")
        assert id_a.signing.private != id_b.signing.private
        message = encrypt_to(id_b.agreement.public, b"for b only")
        with pytest.raises(Exception):
            decrypt_from(id_a.agreement.private, message)
        assert decrypt_from(id_b.agreement.private, message) == b"for b only"


class TestAtRestSecrecy:
    def test_file_contains_no_private_key_material(self, tmp_path):
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("bank", seed=seed("k1"))
        wallet.new_pairwise("clinic", seed=seed("k2"))
        path = tmp_path / "alice.wallet.json"
        wallet.save(path)
        raw = path.read_bytes()
        import base64

        for relation in ("bank", "clinic"):
            identity = wallet.identity(relation)
            for private in (identity.signing.private, identity.agreement.private):
                assert private not in raw
                assert private.hex().encode() not in raw
                assert base64.b64encode(private) not in raw
            # public halves are stored in the clear by design
            assert identity.signing.public.hex().encode() in raw

    def test_save_load_preserves_credentials(self, tmp_path, cred_env: CredEnv):
        credential = issue(
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            cred_env.schema,
            cred_env.holder_did,
            diploma_attributes(),
            issued_at=10,
        )
        wallet = cred_env.holder_wallet
        wallet.store_credential(credential, cred_env.state, received_at=11)
        path = tmp_path / "alice.wallet.json"
        wallet.save(path)
        loaded = Wallet.load(path)
        assert len(loaded.credentials) == 1
        assert loaded.credentials[0].credential == credential


class TestStoreCredential:
    def test_valid_credential_stored(self, cred_env: CredEnv):
        credential = issue(
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            cred_env.schema,
            cred_env.holder_did,
            diploma_attributes(),
            issued_at=10,
        )
        stored = cred_env.holder_wallet.store_credential(credential, cred_env.state, received_at=11)
        assert stored.received_at == 11
        assert cred_env.holder_wallet.find_credentials(subject_did=cred_env.holder_did)

    def test_tampered_credential_rejected(self, cred_env: CredEnv):
        credential = issue(
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            cred_env.schema,
            cred_env.holder_did,
            diploma_attributes(),
            issued_at=10,
        )
        tampered = dataclasses.replace(
            credential, attributes={**credential.attributes, "degree": "PhD"}
        )
        with pytest.raises(CredentialNotStored) as excinfo:
            cred_env.holder_wallet.store_credential(tampered, cred_env.state, received_at=11)
        assert excinfo.value.reason == "BadSignature"

    def test_revoked_before_delivery_rejected(self, cred_env: CredEnv):
        from conftest import must_apply

        credential = issue(
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            cred_env.schema,
            cred_env.holder_did,
            diploma_attributes(),
            issued_at=10,
        )
        revoked_state = must_apply(
            cred_env.state,
            LedgerTransaction.create(
                TxnType.REVOC_ENTRY,
                revoc_entry_payload(cred_env.cred_def.cred_def_id, [credential.credential_hash]),
                cred_env.issuer.did,
                cred_env.issuer.signing_private,
                12,
            ),
        )
        with pytest.raises(CredentialNotStored) as excinfo:
            cred_env.holder_wallet.store_credential(credential, revoked_state, received_at=13)
        assert excinfo.value.reason == "Revoked"

    def test_unknown_issuer_rejected(self, cred_env: CredEnv):
        from ssiledger.state import NodeState

        credential = issue(
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            cred_env.schema,
            cred_env.holder_did,
            diploma_attributes(),
            issued_at=10,
        )
        with pytest.raises(CredentialNotStored) as excinfo:
            cred_env.holder_wallet.store_credential(credential, NodeState(), received_at=11)
        assert excinfo.value.reason == "UnknownIssuer"
