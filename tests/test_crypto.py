import base64
import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import IDENTITY_SIGNATURE

from ssiledger import crypto, wallet
from ssiledger.crypto import (
    CryptoError,
    DecryptFailed,
    Digest,
    InvalidKey,
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


# RFC 7748 section 5.2: the two single-iteration vectors (scalar, u, result).
RFC7748_VECTORS = [
    ("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
     "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
     "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
    ("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
     "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
     "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
]
# RFC 7748 section 6.1: Alice's and Bob's keys and their shared secret.
ALICE = ("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
         "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
BOB = ("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
       "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
SHARED = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"

# u-coordinates of small order, on which X25519 with any clamped scalar is zero.
SMALL_ORDER_POINTS = {
    "zero": "00" * 32,
    "one": "01" + "00" * 31,
    "order-8-a": "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
    "order-8-b": "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
    "p-1": "ec" + "ff" * 30 + "7f",
    "p": "ed" + "ff" * 30 + "7f",
    "p+1": "ee" + "ff" * 30 + "7f",
}

_RAW = serialization.Encoding.Raw, serialization.PublicFormat.Raw
_SEAL_INFO = b"ssiledger/sealed-box/v1"


def _reference_public(private: bytes) -> bytes:
    return X25519PrivateKey.from_private_bytes(private).public_key().public_bytes(*_RAW)


def _reference_seal(public: bytes, plaintext: bytes) -> bytes:
    """A sealed box as ``cryptography`` (OpenSSL) builds it."""
    ephemeral = X25519PrivateKey.from_private_bytes(os.urandom(32))
    ephemeral_public = ephemeral.public_key().public_bytes(*_RAW)
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(public))
    material = HKDF(SHA256(), 44, salt=ephemeral_public + public, info=_SEAL_INFO).derive(shared)
    return ephemeral_public + ChaCha20Poly1305(material[:32]).encrypt(material[32:], plaintext, None)


def _reference_open(private: bytes, box: bytes) -> bytes:
    recipient = X25519PrivateKey.from_private_bytes(private)
    shared = recipient.exchange(X25519PublicKey.from_public_bytes(box[:32]))
    salt = box[:32] + recipient.public_key().public_bytes(*_RAW)
    material = HKDF(SHA256(), 44, salt=salt, info=_SEAL_INFO).derive(shared)
    return ChaCha20Poly1305(material[:32]).decrypt(material[32:], box[32:], None)


def _reference_blob_key(kek: bytes, relation: str, kind: str) -> ChaCha20Poly1305:
    return ChaCha20Poly1305(HKDF(SHA256(), 32, salt=None, info=f"wallet:{relation}:{kind}".encode()).derive(kek))


class TestX25519:
    @pytest.mark.parametrize("scalar,u,expected", RFC7748_VECTORS, ids=["vector-1", "vector-2"])
    def test_rfc7748_single_iteration(self, scalar, u, expected):
        assert crypto._x25519(bytes.fromhex(scalar), bytes.fromhex(u)).hex() == expected

    def test_rfc7748_diffie_hellman(self):
        alice = generate_encryption_keypair(bytes.fromhex(ALICE[0]))
        bob = generate_encryption_keypair(bytes.fromhex(BOB[0]))
        assert (alice.public.hex(), bob.public.hex()) == (ALICE[1], BOB[1])
        assert alice.private.hex() == ALICE[0]  # the seed itself; X25519 clamps it on use
        assert crypto._x25519(alice.private, bob.public).hex() == SHARED
        assert crypto._x25519(bob.private, alice.public).hex() == SHARED

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=32, max_size=32))
    def test_same_keys_as_cryptography(self, seed):
        pair = generate_encryption_keypair(seed)
        assert pair.public == _reference_public(seed)
        assert pair.private == seed

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    @example(b"\x01" * 32, bytes.fromhex("ee" + "ff" * 30 + "7f"))  # p + 1, which is 1 once reduced
    @example(b"\x01" * 32, bytes.fromhex("f0" + "ff" * 31))  # top bit set: masked, then above p
    def test_any_point_as_cryptography_computes_it(self, scalar, point):
        """Non-canonical u-coordinates included: masked and reduced alike, and
        refused alike where the result is zero."""
        try:
            expected = X25519PrivateKey.from_private_bytes(scalar).exchange(X25519PublicKey.from_public_bytes(point))
        except ValueError:
            expected = None
        assert crypto._x25519(scalar, point) == expected

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytes_like_seed(self, kind):
        assert generate_encryption_keypair(kind(b"\x18" * 32)) == generate_encryption_keypair(b"\x18" * 32)

    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_seed_of_another_length_is_refused(self, size):
        with pytest.raises(InvalidSeed):
            generate_encryption_keypair(b"\x18" * size)


class TestHkdf:
    # RFC 5869 appendix A.1 to A.3: (ikm, salt, info, length, okm).
    @pytest.mark.parametrize(
        "ikm,salt,info,length,okm",
        [
            ("0b" * 22, "000102030405060708090a0b0c", "f0f1f2f3f4f5f6f7f8f9", 42,
             "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"),
            (bytes(range(0x00, 0x50)).hex(), bytes(range(0x60, 0xb0)).hex(), bytes(range(0xb0, 0x100)).hex(), 82,
             "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09"
             "da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"),
            ("0b" * 22, "", "", 42,
             "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"),
        ],
        ids=["A.1", "A.2", "A.3"],
    )
    def test_rfc5869_vectors(self, ikm, salt, info, length, okm):
        assert crypto._hkdf(bytes.fromhex(ikm), length, bytes.fromhex(info), bytes.fromhex(salt)).hex() == okm

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64), st.binary(max_size=64), st.binary(max_size=40), st.integers(1, 255 * 32))
    def test_same_bytes_as_cryptography(self, secret, salt, info, length):
        expected = HKDF(SHA256(), length, salt=salt or None, info=info).derive(secret)
        assert crypto._hkdf(secret, length, info, salt) == expected


# RFC 8439 section 2.8.2: the AEAD vector, with its 12 bytes of associated data.
RFC8439_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
)
RFC8439_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
RFC8439_KEY = bytes(range(0x80, 0xa0))
RFC8439_NONCE = bytes.fromhex("070000004041424344454647")
RFC8439_CIPHERTEXT = (
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d63dbea45e8ca9671282fafb69da92728b"
    "1a71de0a9e060b2905d6a5b67ecd3b3692ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116"
)
RFC8439_TAG = "1ae10b594f09e26a7e902ecbd0600691"


class TestAead:
    def test_rfc8439_vector(self):
        """The full vector through the libsodium handle, associated data
        included; the helpers, which take none, give the same ciphertext and
        the tag ``cryptography`` gives without it."""
        out = ctypes.create_string_buffer(len(RFC8439_PLAINTEXT) + 16)
        crypto._aead_encrypt(out, None, RFC8439_PLAINTEXT, len(RFC8439_PLAINTEXT), RFC8439_AAD, len(RFC8439_AAD),
                             None, RFC8439_NONCE, RFC8439_KEY)
        assert out.raw.hex() == RFC8439_CIPHERTEXT + RFC8439_TAG
        sealed = crypto._aead_seal(RFC8439_KEY, RFC8439_NONCE, RFC8439_PLAINTEXT)
        assert sealed[:-16].hex() == RFC8439_CIPHERTEXT
        assert sealed == ChaCha20Poly1305(RFC8439_KEY).encrypt(RFC8439_NONCE, RFC8439_PLAINTEXT, None)
        assert crypto._aead_open(RFC8439_KEY, RFC8439_NONCE, sealed) == RFC8439_PLAINTEXT

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=12, max_size=12), st.binary(max_size=300))
    def test_both_directions_against_cryptography(self, key, nonce, plaintext):
        reference = ChaCha20Poly1305(key)
        assert crypto._aead_seal(key, nonce, plaintext) == reference.encrypt(nonce, plaintext, None)
        assert crypto._aead_open(key, nonce, reference.encrypt(nonce, plaintext, None)) == plaintext

    @pytest.mark.parametrize("position", [0, 5, -1])
    def test_any_changed_byte_does_not_open(self, position):
        sealed = bytearray(crypto._aead_seal(RFC8439_KEY, RFC8439_NONCE, b"secret"))
        sealed[position] ^= 0x01
        with pytest.raises(DecryptFailed, match="did not authenticate"):
            crypto._aead_open(RFC8439_KEY, RFC8439_NONCE, bytes(sealed))

    @pytest.mark.parametrize(
        "key,nonce,ciphertext",
        [(31, 12, 16), (33, 12, 16), (32, 11, 16), (32, 13, 16), (32, 8, 40), (32, 12, 15), (32, 12, 0)],
    )
    def test_sizes_libsodium_does_not_read_are_refused_before_the_call(self, key, nonce, ciphertext, monkeypatch):
        monkeypatch.setattr(crypto, "_aead_encrypt", None)  # any call would raise TypeError
        monkeypatch.setattr(crypto, "_aead_decrypt", None)
        with pytest.raises(DecryptFailed):
            crypto._aead_open(bytes(key), bytes(nonce), bytes(ciphertext))
        if (key, nonce) != (32, 12):
            with pytest.raises(InvalidKey):
                crypto._aead_seal(bytes(key), bytes(nonce), b"")


class TestSealedBoxInterop:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=256))
    def test_reference_boxes_open(self, seed, plaintext):
        pair = generate_encryption_keypair(seed)
        assert decrypt_from(pair.private, _reference_seal(pair.public, plaintext)) == plaintext

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=256))
    def test_boxes_open_with_the_reference(self, seed, plaintext):
        pair = generate_encryption_keypair(seed)
        assert _reference_open(pair.private, encrypt_to(pair.public, plaintext)) == plaintext

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytes_like_inputs(self, kind):
        pair = generate_encryption_keypair(b"\x19" * 32)
        box = encrypt_to(kind(pair.public), kind(b"nonce"))
        assert decrypt_from(kind(pair.private), kind(box)) == b"nonce"

    @pytest.mark.parametrize("key", [bytes(5), bytes(31), bytes(33)], ids=["5", "31", "33"])
    def test_recipient_key_of_another_length(self, key):
        with pytest.raises(InvalidKey, match="must be 32 raw X25519 public bytes"):
            encrypt_to(key, b"nonce")

    @pytest.mark.parametrize("point", SMALL_ORDER_POINTS.values(), ids=SMALL_ORDER_POINTS.keys())
    def test_small_order_recipient_key(self, point):
        with pytest.raises(ValueError):  # the reference refuses it too
            _reference_seal(bytes.fromhex(point), b"nonce")
        with pytest.raises(InvalidKey, match="small order"):
            encrypt_to(bytes.fromhex(point), b"nonce")

    @pytest.mark.parametrize("point", SMALL_ORDER_POINTS.values(), ids=SMALL_ORDER_POINTS.keys())
    def test_small_order_ephemeral_key(self, point):
        pair = generate_encryption_keypair(b"\x1a" * 32)
        box = bytes.fromhex(point) + encrypt_to(pair.public, b"nonce")[32:]
        with pytest.raises(DecryptFailed):
            decrypt_from(pair.private, box)

    @pytest.mark.parametrize("size", [0, 47])
    def test_ciphertext_shorter_than_a_key_and_a_tag(self, size):
        pair = generate_encryption_keypair(b"\x1c" * 32)
        with pytest.raises(DecryptFailed, match="^ciphertext too short$"):
            decrypt_from(pair.private, encrypt_to(pair.public, b"")[:size])

    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_private_key_of_another_length(self, size):
        pair = generate_encryption_keypair(b"\x1b" * 32)
        with pytest.raises(DecryptFailed, match="malformed private key"):
            decrypt_from(b"\x1b" * size, encrypt_to(pair.public, b"nonce"))


class TestWalletBlobInterop:
    """A relation's key blob in the wallet file: HKDF-SHA256 of the wallet key
    under ``wallet:<relation>:<kind>``, then ChaCha20-Poly1305 with a random
    nonce, both fields in base64."""

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.text(max_size=12), st.sampled_from(["sign", "agree"]),
           st.binary(min_size=32, max_size=32))
    def test_both_directions_against_cryptography(self, kek, relation, kind, secret):
        blob = wallet._seal(kek, relation, kind, secret)
        nonce, ciphertext = (base64.b64decode(blob[field]) for field in ("nonce", "ciphertext"))
        assert _reference_blob_key(kek, relation, kind).decrypt(nonce, ciphertext, None) == secret
        nonce = os.urandom(12)
        reference = {
            "nonce": base64.b64encode(nonce).decode(),
            "ciphertext": base64.b64encode(_reference_blob_key(kek, relation, kind).encrypt(nonce, secret, None)).decode(),
        }
        assert wallet._open(kek, relation, kind, reference) == secret

    @pytest.mark.parametrize(
        "blob",
        [
            {"nonce": base64.b64encode(bytes(8)).decode(), "ciphertext": base64.b64encode(bytes(48)).decode()},
            {"nonce": "AAAA-", "ciphertext": base64.b64encode(bytes(48)).decode()},
            {"nonce": base64.b64encode(bytes(12)).decode(), "ciphertext": "abc"},
            {"nonce": 5, "ciphertext": "abc"},
            {"ciphertext": "abc"},
        ],
        ids=["8-byte-nonce", "nonce-not-base64", "ciphertext-not-base64", "nonce-not-text", "no-nonce"],
    )
    def test_damaged_blob_is_a_crypto_error(self, blob):
        with pytest.raises(CryptoError):
            wallet._open(b"\x1c" * 32, "bank", "sign", blob)


GUARD = r"""
import importlib, json, os, pkgutil, sys
sys.modules["cryptography"] = None  # any import of it now raises ImportError
import ssiledger
for module in pkgutil.iter_modules(ssiledger.__path__):
    importlib.import_module("ssiledger." + module.name)
from click.testing import CliRunner
from ssiledger.cli import main

golden, workdir = sys.argv[1:]
runner = CliRunner()
for name in ("medical", "employment", "loan"):
    result = runner.invoke(main, ["scenario", "run", name, "--seed", "1", "--json"],
                           env={"WALLET_SECRET": "acceptance"}, catch_exceptions=False)
    with open(os.path.join(golden, name + ".transcript.json"), encoding="utf-8") as handle:
        assert (result.exit_code, result.output) == (0, handle.read()), name
os.chdir(workdir)
env = {"WALLET_SECRET": "guard"}
did = None
for args in (
    ["wallet", "create", "--wallet", "w.json", "--owner", "o"],
    ["ledger", "init", "--out", "l.jsonl"],
    ["did", "new", "--wallet", "w.json", "--relation", "r", "--txn-out", "t.json", "--now", "1", "--json"],
    ["ledger", "append", "--ledger", "l.jsonl", "--now", "2", "t.json"],
    ["auth", "challenge", "--ledger", "l.jsonl", "--did", "DID", "--out", "c.json", "--state", "s.json", "--now", "3"],
    ["auth", "respond", "--wallet", "w.json", "--relation", "r", "--out", "p.json", "c.json"],
    ["auth", "check", "--state", "s.json", "--now", "4", "p.json"],
):
    result = runner.invoke(main, [did if arg == "DID" else arg for arg in args], env=env, catch_exceptions=False)
    assert result.exit_code == 0, (args, result.output)
    did = json.loads(result.output)["did"] if "--json" in args else did
assert result.output == "authenticated\n"
assert not [name for name in sys.modules if name.startswith("cryptography.")]
print("ok")
"""


def test_runs_without_cryptography(tmp_path):
    """Every module imports, the three scenarios replay to their goldens, and
    a wallet answers a challenge, all with ``cryptography`` unimportable."""
    tests = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", GUARD, str(tests / "golden"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr
