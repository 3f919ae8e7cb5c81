import os

import pytest

from conftest import seed
from ssiledger.auth import ChallengeVerifier
from ssiledger.crypto import DecryptFailed, decrypt_from, generate_encryption_keypair
from ssiledger.wallet import Wallet


@pytest.fixture
def subject():
    return generate_encryption_keypair(seed("auth-subject"))


class TestChallenge:
    def test_nonces_are_fresh(self, subject):
        a = ChallengeVerifier().issue(subject.public, ttl=60, now=0)
        b = ChallengeVerifier().issue(subject.public, ttl=60, now=0)
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_ciphertext_decrypts_to_nonce(self, subject):
        challenge = ChallengeVerifier().issue(subject.public, ttl=60, now=0)
        assert decrypt_from(subject.private, challenge.ciphertext) == challenge.nonce

    def test_zero_ttl_rejected(self, subject):
        verifier = ChallengeVerifier()
        with pytest.raises(ValueError):
            verifier.issue(subject.public, ttl=0, now=0)
        assert not verifier.pending


class TestVerifier:
    def test_correct_response_authenticates(self, subject):
        verifier = ChallengeVerifier()
        challenge = verifier.issue(subject.public, ttl=60, now=100)
        response = decrypt_from(subject.private, challenge.ciphertext)
        assert verifier.check(response, now=120).authenticated

    def test_expired_response_rejected(self, subject):
        verifier = ChallengeVerifier()
        challenge = verifier.issue(subject.public, ttl=60, now=100)
        response = decrypt_from(subject.private, challenge.ciphertext)
        result = verifier.check(response, now=161)
        assert not result.authenticated
        assert result.reason == "Expired"

    def test_boundary_is_inclusive(self, subject):
        verifier = ChallengeVerifier()
        challenge = verifier.issue(subject.public, ttl=60, now=100)
        response = decrypt_from(subject.private, challenge.ciphertext)
        assert verifier.check(response, now=160).authenticated

    def test_replay_rejected(self, subject):
        verifier = ChallengeVerifier()
        challenge = verifier.issue(subject.public, ttl=60, now=100)
        response = decrypt_from(subject.private, challenge.ciphertext)
        assert verifier.check(response, now=110).authenticated
        result = verifier.check(response, now=111)
        assert result.reason == "Replayed"

    def test_expired_then_replayed(self, subject):
        verifier = ChallengeVerifier()
        challenge = verifier.issue(subject.public, ttl=60, now=100)
        response = decrypt_from(subject.private, challenge.ciphertext)
        assert verifier.check(response, now=200).reason == "Expired"
        assert verifier.check(response, now=201).reason == "Replayed"

    def test_random_guesses_rejected(self, subject):
        verifier = ChallengeVerifier()
        verifier.issue(subject.public, ttl=60, now=0)
        for _ in range(200):
            assert verifier.check(os.urandom(32), now=1).reason == "Mismatch"


class TestWalletResponder:
    def test_wallet_decrypts_challenge_for_its_relation(self):
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("website", seed=seed("alice:website"))
        verifier = ChallengeVerifier()
        challenge = verifier.issue(wallet.identity("website").agreement.public, ttl=60, now=0)
        response = wallet.respond_challenge("website", challenge.ciphertext)
        assert verifier.check(response, now=10).authenticated

    def test_wrong_relation_cannot_decrypt(self):
        wallet = Wallet.create("alice", b"secret")
        wallet.new_pairwise("website", seed=seed("alice:website"))
        wallet.new_pairwise("other", seed=seed("alice:other"))
        challenge = ChallengeVerifier().issue(wallet.identity("website").agreement.public, ttl=60, now=0)
        with pytest.raises(DecryptFailed):
            wallet.respond_challenge("other", challenge.ciphertext)
