import ctypes
import hashlib

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import IDENTITY_SIGNATURE

from ssiledger.crypto import (
    CryptoError,
    DecryptFailed,
    Digest,
    InvalidSeed,
    PlaintextTooLarge,
    ZERO_DIGEST,
    decrypt_from,
    digest_of,
    encrypt_to,
    generate_encryption_keypair,
    generate_signing_keypair,
    scrypt,
    sha256,
    sign,
    verify,
)

# Published SHA-256 vectors, cross-checked against hashlib before freezing.
KNOWN_HASHES = {
    b"tubitak": "8c9b3371a4cae382bad1d752000902f871f8f78b1a2b62e4fe3ac47f40a2b742",
    b"Tubitak": "50ae8005208300584bd519ecfca19a083ad2831930668cee1b594bc8bb1b353c",
    b"The Scientific and Technological Research Council of Turkey (TUBITAK)":
        "e18dd11e01d89410631d22829ea7786c64228785669d6a5f665e33fa348f3fc2",
    b"": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


class TestSha256:
    @pytest.mark.parametrize("message,expected", sorted(KNOWN_HASHES.items()))
    def test_known_vectors(self, message, expected):
        assert sha256(message).hex == expected

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=512))
    def test_matches_hashlib_and_is_32_bytes(self, data):
        digest = sha256(data)
        assert len(digest.value) == 32
        assert digest.value == hashlib.sha256(data).digest()
        assert sha256(data) == digest  # referentially transparent

    def test_hex_is_lowercase_64_chars(self):
        rendered = sha256(b"anything").hex
        assert len(rendered) == 64
        assert rendered == rendered.lower()


class TestDigest:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Digest(b"\x00" * 31)

    def test_hex_round_trip(self):
        d = sha256(b"x")
        assert Digest.from_hex(d.hex) == d

    def test_zero_digest(self):
        assert ZERO_DIGEST.value == b"\x00" * 32


class TestSigning:
    def test_same_seed_same_keys(self):
        a = generate_signing_keypair(b"\x07" * 32)
        b = generate_signing_keypair(b"\x07" * 32)
        assert a.public == b.public

    def test_different_seeds_different_keys(self):
        a = generate_signing_keypair(b"\x07" * 32)
        b = generate_signing_keypair(b"\x08" * 32)
        assert a.public != b.public

    def test_short_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            generate_signing_keypair(b"\x07" * 16)

    def test_signatures_are_deterministic_64_bytes(self):
        pair = generate_signing_keypair(b"\x01" * 32)
        first = sign(pair.private, b"message")
        assert first == sign(pair.private, b"message")
        assert len(first) == 64

    def test_round_trip_accepts(self):
        pair = generate_signing_keypair(b"\x02" * 32)
        assert verify(pair.public, b"hello", sign(pair.private, b"hello"))

    def test_flipped_bit_rejects(self):
        pair = generate_signing_keypair(b"\x03" * 32)
        signature = sign(pair.private, b"hello")
        tampered = bytes([b"hello"[0] ^ 0x01]) + b"ello"
        assert not verify(pair.public, tampered, signature)

    def test_wrong_key_rejects(self):
        a = generate_signing_keypair(b"\x04" * 32)
        b = generate_signing_keypair(b"\x05" * 32)
        assert not verify(b.public, b"hello", sign(a.private, b"hello"))

    def test_malformed_inputs_reject_without_raising(self):
        pair = generate_signing_keypair(b"\x06" * 32)
        signature = sign(pair.private, b"m")
        assert not verify(b"short", b"m", signature)
        assert not verify(pair.public, b"m", b"not-a-signature")
        assert not verify(b"\xff" * 32, b"m", signature)

    def test_malformed_signing_key_raises(self):
        from ssiledger.crypto import InvalidKey

        with pytest.raises(InvalidKey):
            sign(b"too-short", b"m")

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=0))
    def test_any_single_bit_flip_rejects(self, message, position):
        pair = generate_signing_keypair(b"\x09" * 32)
        signature = sign(pair.private, message)
        bit = position % (len(message) * 8)
        mutated = bytearray(message)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify(pair.public, bytes(mutated), signature)


# The eight points of small order, canonically encoded, then the identity
# encoded as y = p + 1, which is not canonical.
SMALL_ORDER_KEYS = {
    "identity": "01" + "00" * 31,
    "order-2": "ec" + "ff" * 30 + "7f",
    "order-4": "00" * 32,
    "order-4-neg": "00" * 31 + "80",
    "order-8-a": "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "order-8-a-neg": "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "order-8-b": "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "order-8-b-neg": "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    "identity-p+1": "ee" + "ff" * 30 + "7f",
}


def _reference_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """RFC 8032 verification as ``cryptography`` (OpenSSL) does it."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


class TestVerifyRules:
    @pytest.mark.parametrize("key", SMALL_ORDER_KEYS.values(), ids=SMALL_ORDER_KEYS.keys())
    @settings(max_examples=20, deadline=None)
    @given(message=st.binary(max_size=64))
    def test_small_order_and_non_canonical_keys_are_refused(self, key, message):
        """R = identity and S = 0 satisfy the cofactorless equation whenever
        [k]A is the identity: for every message at the identity key."""
        assert not verify(bytes.fromhex(key), message, IDENTITY_SIGNATURE)

    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(min_size=32, max_size=32),
        st.binary(max_size=128),
        st.one_of(st.none(), st.tuples(st.sampled_from(["key", "signature", "message"]), st.integers(min_value=0))),
    )
    def test_same_verdict_as_cryptography(self, seed, message, flip):
        pair = generate_signing_keypair(seed)
        parts = {"key": pair.public, "signature": sign(pair.private, message), "message": message}
        if flip is not None and parts[flip[0]]:
            target, position = flip
            mutated = bytearray(parts[target])
            bit = position % (len(mutated) * 8)
            mutated[bit // 8] ^= 1 << (bit % 8)
            parts[target] = bytes(mutated)
        args = parts["key"], parts["message"], parts["signature"]
        assert verify(*args) == _reference_verify(*args)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_message_verifies_like_bytes(self, kind):
        pair = generate_signing_keypair(b"\x0a" * 32)
        assert verify(pair.public, kind(b"hello"), sign(pair.private, b"hello"))

    @pytest.mark.parametrize("message", ["hello", 5, None], ids=["str", "int", "None"])
    def test_message_that_is_not_bytes_like_raises(self, message):
        pair = generate_signing_keypair(b"\x0a" * 32)
        with pytest.raises(TypeError):
            verify(pair.public, message, sign(pair.private, b"hello"))


# RFC 8032 section 7.1, TEST 1: the empty message.
RFC8032_SEED = "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
RFC8032_PUBLIC = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
RFC8032_SIGNATURE = (
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def _reference_keys(seed: bytes) -> tuple[bytes, Ed25519PrivateKey]:
    """The public key and signer of a seed as ``cryptography`` (OpenSSL) computes them."""
    key = Ed25519PrivateKey.from_private_bytes(seed)
    raw = serialization.Encoding.Raw, serialization.PublicFormat.Raw
    return key.public_key().public_bytes(*raw), key


class TestSignRules:
    def test_rfc8032_test_1(self):
        seed = bytes.fromhex(RFC8032_SEED)
        public, reference = _reference_keys(seed)
        assert generate_signing_keypair(seed).public.hex() == RFC8032_PUBLIC == public.hex()
        assert sign(seed, b"").hex() == RFC8032_SIGNATURE == reference.sign(b"").hex()

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=512))
    def test_same_keys_and_signatures_as_cryptography(self, seed, message):
        public, reference = _reference_keys(seed)
        assert generate_signing_keypair(seed).public == public
        assert sign(seed, message) == reference.sign(message)

    def test_expanded_key_is_zeroed_after_use(self, monkeypatch):
        zeroed = []
        real_memset = ctypes.memset

        def memset(buffer, value, size):
            zeroed.append(buffer)
            return real_memset(buffer, value, size)

        monkeypatch.setattr(ctypes, "memset", memset)
        generate_signing_keypair(b"\x0c" * 32)
        sign(b"\x0c" * 32, b"hello")
        assert [buf.raw for buf in zeroed] == [b"\x00" * 64] * 2

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_message_signs_like_bytes(self, kind):
        pair = generate_signing_keypair(b"\x0b" * 32)
        assert sign(pair.private, kind(b"hello")) == sign(pair.private, b"hello")

    @pytest.mark.parametrize("message", ["hello", 5, None], ids=["str", "int", "None"])
    def test_message_that_is_not_bytes_like_raises(self, message):
        pair = generate_signing_keypair(b"\x0b" * 32)
        with pytest.raises(TypeError):
            sign(pair.private, message)


class TestScrypt:
    # RFC 7914 section 12, vectors 1 and 2; vectors 3 and 4 need 16 MiB and
    # 1 GiB and add nothing the differential test below does not cover.
    @pytest.mark.parametrize(
        "secret,salt,n,r,p,expected",
        [
            (b"", b"", 16, 1, 1,
             "77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442"
             "fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906"),
            (b"password", b"NaCl", 1024, 8, 16,
             "fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b373162"
             "2eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640"),
        ],
        ids=["vector-1", "vector-2"],
    )
    def test_rfc7914_vectors(self, secret, salt, n, r, p, expected):
        assert scrypt(secret, salt, n, r, p, length=64).hex() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(max_size=40),
        st.binary(max_size=32),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=64),
    )
    @example(b"a\x00b", b"s", 4, 1, 1, 32)
    def test_same_bytes_as_hashlib(self, secret, salt, log_n, r, p, length):
        expected = hashlib.scrypt(secret, salt=salt, n=2**log_n, r=r, p=p, dklen=length)
        assert scrypt(secret, salt, 2**log_n, r, p, length) == expected

    @pytest.mark.parametrize(
        "n,r,p", [(3, 1, 1), (1, 1, 1), (16, 0, 1), (16, -1, 1), (16, 32768, 32768), (2**32, 1, 1), (16, 2**32 + 1, 1)]
    )
    def test_parameters_outside_the_domain_are_refused(self, n, r, p):
        with pytest.raises(CryptoError, match=f"n={n}, r={r}, p={p}"):
            scrypt(b"secret", b"salt", n, r, p)


class TestSealedBox:
    def test_round_trip(self):
        pair = generate_encryption_keypair(b"\x11" * 32)
        assert decrypt_from(pair.private, encrypt_to(pair.public, b"nonce")) == b"nonce"

    def test_wrong_recipient_fails(self):
        a = generate_encryption_keypair(b"\x12" * 32)
        b = generate_encryption_keypair(b"\x13" * 32)
        with pytest.raises(DecryptFailed):
            decrypt_from(b.private, encrypt_to(a.public, b"nonce"))

    def test_two_encryptions_differ(self):
        pair = generate_encryption_keypair(b"\x14" * 32)
        assert encrypt_to(pair.public, b"nonce") != encrypt_to(pair.public, b"nonce")

    def test_tampered_ciphertext_fails(self):
        pair = generate_encryption_keypair(b"\x15" * 32)
        ciphertext = bytearray(encrypt_to(pair.public, b"nonce"))
        ciphertext[-1] ^= 0x01
        with pytest.raises(DecryptFailed):
            decrypt_from(pair.private, bytes(ciphertext))

    def test_oversize_plaintext_rejected(self):
        pair = generate_encryption_keypair(b"\x16" * 32)
        with pytest.raises(PlaintextTooLarge):
            encrypt_to(pair.public, b"\x00" * 4097)
        # the boundary itself is fine
        assert len(decrypt_from(pair.private, encrypt_to(pair.public, b"\x00" * 4096))) == 4096

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=256))
    def test_round_trip_property(self, plaintext):
        pair = generate_encryption_keypair(b"\x17" * 32)
        assert decrypt_from(pair.private, encrypt_to(pair.public, plaintext)) == plaintext


def test_digest_of_is_canonical():
    assert digest_of({"b": 1, "a": 2}) == digest_of({"a": 2, "b": 1})
    assert digest_of({"a": 1}) != digest_of({"a": 2})
