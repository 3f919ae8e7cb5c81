import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Identity
from ssiledger import ledger
from ssiledger.canonical import UnsupportedType, canonicalize
from ssiledger.consensus import Batch
from ssiledger.crypto import Digest, ZERO_DIGEST, digest_of, sha256
from ssiledger.ledger import (
    Block,
    Chain,
    ChainFault,
    EmptyBlock,
    EmptyLeaves,
    LedgerTransaction,
    TxnType,
    build_block,
    merkle_proof,
    merkle_root,
    read_chain,
    validate_chain,
    verify_inclusion,
    write_chain,
)
from ssiledger.state import NodeState, did_reg_payload, verify_txn_signature


def h(n: int) -> Digest:
    return sha256(bytes([n]))


def _oracle_pair(a: Digest, b: Digest) -> bytes:
    # independent of ledger.merkle_root: plain hashlib over concatenated bytes
    return hashlib.sha256(a.value + b.value).digest()


class TestMerkle:
    def test_single_leaf_is_identity(self):
        assert merkle_root([h(1)]) == h(1)

    def test_two_leaves_hand_computed(self):
        assert merkle_root([h(1), h(2)]).value == _oracle_pair(h(1), h(2))

    def test_three_leaves_duplicates_last(self):
        left = Digest(_oracle_pair(h(1), h(2)))
        right = Digest(_oracle_pair(h(3), h(3)))
        assert merkle_root([h(1), h(2), h(3)]).value == _oracle_pair(left, right)

    def test_empty_rejected(self):
        with pytest.raises(EmptyLeaves):
            merkle_root([])

    def test_deterministic(self):
        leaves = [h(i) for i in range(7)]
        assert merkle_root(leaves) == merkle_root(leaves)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=33), st.data())
    def test_matches_hashlib_oracle(self, raw, data):
        leaves = [Digest(value) for value in raw]
        levels = [raw]  # plain hashlib: each level up pairs an odd last node with itself
        while len(levels[-1]) > 1:
            level = levels[-1] + levels[-1][-1:] * (len(levels[-1]) % 2)
            levels.append([hashlib.sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)])
        root = Digest(levels[-1][0])
        assert merkle_root(leaves) == root
        index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        proof = merkle_proof(leaves, index)
        expected = []
        for depth, level in enumerate(levels[:-1]):
            pos = index >> depth
            sibling = min(pos ^ 1, len(level) - 1)
            expected.append((Digest(level[sibling]), "left" if pos % 2 else "right"))
        assert proof == expected
        assert verify_inclusion(leaves[index], proof, root)
        assert not verify_inclusion(leaves[index], proof, Digest(hashlib.sha256(root.value).digest()))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.randoms(use_true_random=False))
    def test_permutation_changes_root(self, n, rng):
        leaves = [h(i) for i in range(n)]
        shuffled = leaves[:]
        rng.shuffle(shuffled)
        if shuffled != leaves:
            assert merkle_root(shuffled) != merkle_root(leaves)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
    def test_proofs_round_trip(self, n):
        leaves = [h(i) for i in range(n)]
        root = merkle_root(leaves)
        for i in range(n):
            proof = merkle_proof(leaves, i)
            assert verify_inclusion(leaves[i], proof, root)

    def test_proof_against_wrong_root_rejects(self):
        leaves = [h(i) for i in range(4)]
        proof = merkle_proof(leaves, 2)
        assert not verify_inclusion(leaves[2], proof, h(9))

    def test_single_leaf_empty_proof(self):
        assert verify_inclusion(h(5), [], h(5))
        assert not verify_inclusion(h(5), [], h(6))


def _txn(n: int, identity: Identity | None = None) -> LedgerTransaction:
    identity = identity or Identity.create(f"txn-author-{n}")
    return LedgerTransaction.create(
        TxnType.DID_REG,
        did_reg_payload(identity.did, identity.document),
        author_did=identity.did,
        signing_private=identity.signing_private,
        timestamp=n,
    )


def _chain(blocks: int, txns_per_block: int = 2, start: int = 0) -> Chain:
    chain = Chain.new()
    counter = start
    for _ in range(blocks):
        txns = [_txn(counter + i) for i in range(txns_per_block)]
        counter += txns_per_block
        chain = chain.append(build_block(chain.head, txns, timestamp=counter))
    return chain


class TestBlocks:
    def test_genesis_shape(self):
        genesis = Block.genesis()
        assert genesis.height == 0
        assert genesis.prev_hash == ZERO_DIGEST
        assert genesis.txns == ()

    def test_build_block_links_and_heights(self):
        genesis = Block.genesis()
        block = build_block(genesis, [_txn(1)], timestamp=5)
        assert block.height == 1
        assert block.prev_hash == genesis.block_hash

    def test_build_is_deterministic(self):
        genesis = Block.genesis()
        txns = [_txn(1), _txn(2)]
        assert build_block(genesis, txns, 5).block_hash == build_block(genesis, txns, 5).block_hash

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlock):
            build_block(Block.genesis(), [], timestamp=5)

    def test_mutated_txn_breaks_merkle(self):
        import dataclasses

        block = build_block(Block.genesis(), [_txn(1), _txn(2)], timestamp=5)
        tampered_txn = dataclasses.replace(block.txns[0], timestamp=99)
        tampered = dataclasses.replace(block, txns=(tampered_txn, block.txns[1]))
        from ssiledger.ledger import merkle_root as mr

        assert mr([t.leaf() for t in tampered.txns]) != tampered.merkle_root


class TestChainValidation:
    def test_fresh_chain_valid(self):
        assert validate_chain(_chain(5))

    def test_txn_tamper_detected_at_its_height(self):
        import dataclasses

        chain = _chain(5)
        victim = chain.blocks[2]
        payload = json.loads(json.dumps(victim.txns[0].payload))
        payload["document"]["endpoint"] = payload["document"]["endpoint"] + "x"
        tampered_txn = dataclasses.replace(victim.txns[0], payload=payload)
        tampered_block = dataclasses.replace(victim, txns=(tampered_txn,) + victim.txns[1:])
        tampered = Chain(blocks=chain.blocks[:2] + (tampered_block,) + chain.blocks[3:])
        result = validate_chain(tampered)
        assert not result.ok
        assert result.height == 2
        assert result.reason == ChainFault.BAD_MERKLE

    def test_replaced_selfconsistent_block_breaks_link_at_next(self):
        chain = _chain(5)
        # adversary rebuilds block 2 from scratch, fully self-consistent
        replacement = build_block(chain.blocks[1], [_txn(900)], timestamp=77)
        forged = Chain(blocks=chain.blocks[:2] + (replacement,) + chain.blocks[3:])
        result = validate_chain(forged)
        assert not result.ok
        assert result.height == 3
        assert result.reason == ChainFault.BAD_LINK

    def test_bad_height_detected(self):
        import dataclasses

        chain = _chain(3)
        wrong = dataclasses.replace(chain.blocks[2], height=5)
        result = validate_chain(Chain(blocks=chain.blocks[:2] + (wrong,) + chain.blocks[3:]))
        assert not result.ok
        assert result.reason == ChainFault.BAD_HEIGHT

    def test_header_tamper_detected_as_bad_hash(self):
        import dataclasses

        chain = _chain(3)
        wrong = dataclasses.replace(chain.blocks[2], timestamp=123456)
        result = validate_chain(Chain(blocks=chain.blocks[:2] + (wrong,) + chain.blocks[3:]))
        assert not result.ok
        assert result.height == 2
        assert result.reason == ChainFault.BAD_HASH


def mutate_one_bit(chain: Chain, rng: random.Random) -> tuple[Chain, int]:
    """Flip one random bit somewhere in a random non-genesis block, at the
    serialized representation level, and reparse."""
    import dataclasses

    height = rng.randrange(1, len(chain.blocks))
    block = chain.blocks[height]
    fields = ["height", "prev_hash", "merkle_root", "timestamp", "block_hash", "txn"]
    field = rng.choice(fields)
    if field == "height":
        block = dataclasses.replace(block, height=block.height ^ (1 << rng.randrange(8)))
    elif field == "timestamp":
        block = dataclasses.replace(block, timestamp=block.timestamp ^ (1 << rng.randrange(16)))
    elif field in ("prev_hash", "merkle_root", "block_hash"):
        digest: Digest = getattr(block, field)
        raw = bytearray(digest.value)
        raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
        block = dataclasses.replace(block, **{field: Digest(bytes(raw))})
    else:
        index = rng.randrange(len(block.txns))
        txn = block.txns[index]
        choice = rng.choice(["payload", "author", "signature", "timestamp", "txn_id"])
        if choice == "payload":
            payload = json.loads(json.dumps(txn.payload))
            payload["document"]["endpoint"] = _flip_char(payload["document"]["endpoint"], rng)
            txn = dataclasses.replace(txn, payload=payload)
        elif choice == "author":
            txn = dataclasses.replace(txn, author_did=_flip_char(txn.author_did, rng))
        elif choice == "signature":
            raw = bytearray(txn.author_signature)
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            txn = dataclasses.replace(txn, author_signature=bytes(raw))
        elif choice == "timestamp":
            txn = dataclasses.replace(txn, timestamp=txn.timestamp ^ (1 << rng.randrange(16)))
        else:
            raw = bytearray(txn.txn_id.value)
            raw[rng.randrange(32)] ^= 1 << rng.randrange(8)
            txn = dataclasses.replace(txn, txn_id=Digest(bytes(raw)))
        txns = block.txns[:index] + (txn,) + block.txns[index + 1 :]
        block = dataclasses.replace(block, txns=txns)
    blocks = chain.blocks[:height] + (block,) + chain.blocks[height + 1 :]
    return Chain(blocks=blocks), height


def _flip_char(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text))
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]


class TestTamperPropagation:
    def test_random_single_bit_mutations_always_detected(self):
        rng = random.Random(1234)
        chain = _chain(6, txns_per_block=2)
        assert validate_chain(chain)
        for _ in range(40):
            mutated, height = mutate_one_bit(chain, rng)
            result = validate_chain(mutated)
            assert not result.ok, "mutation went undetected"
            assert result.height <= height + 1


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        chain = _chain(4)
        path = tmp_path / "test.ledger.jsonl"
        write_chain(chain, path)
        first = path.read_bytes()
        reread = read_chain(path)
        assert validate_chain(reread)
        write_chain(reread, path)
        assert path.read_bytes() == first

    def test_txn_dict_round_trip(self):
        txn = _txn(3)
        assert LedgerTransaction.from_dict(txn.to_dict()) == txn

    def test_block_dict_round_trip(self):
        block = build_block(Block.genesis(), [_txn(1)], timestamp=9)
        assert Block.from_dict(block.to_dict()) == block

    def test_chain_digest_commits_to_content(self):
        assert _chain(3, start=0).digest() != _chain(3, start=50).digest()


def _warm(txn: LedgerTransaction) -> LedgerTransaction:
    """Fill every per-record cache: payload bytes, id check and leaf."""
    assert txn.id_recomputes()
    assert verify_txn_signature(NodeState(), txn)
    txn.leaf()
    return txn


def _tamper(txn: LedgerTransaction, part: str) -> LedgerTransaction:
    if part == "payload":
        payload = json.loads(json.dumps(txn.payload))
        payload["document"]["endpoint"] += "x"
        return dataclasses.replace(txn, payload=payload)
    if part == "author":
        return dataclasses.replace(txn, author_did=txn.author_did + "x")
    if part == "signature":
        flipped = bytes([txn.author_signature[0] ^ 1]) + txn.author_signature[1:]
        return dataclasses.replace(txn, author_signature=flipped)
    return dataclasses.replace(txn, timestamp=txn.timestamp + 1)


class TestRecordCaches:
    @pytest.mark.parametrize("part", ["payload", "author", "signature", "timestamp"])
    def test_tamper_after_warm_caches_is_caught(self, part):
        chain = _chain(3)
        for block in chain.blocks:
            for txn in block.txns:
                _warm(txn)
        assert validate_chain(chain)
        victim = chain.blocks[2]
        tampered_txn = _tamper(victim.txns[0], part)
        # the id covers everything but the signature; the signature covers the payload
        assert tampered_txn.id_recomputes() is (part == "signature")
        signed = verify_txn_signature(NodeState(), tampered_txn)
        assert signed is (part not in ("payload", "signature"))
        assert tampered_txn.leaf() != victim.txns[0].leaf()
        tampered_block = dataclasses.replace(victim, txns=(tampered_txn,) + victim.txns[1:])
        result = validate_chain(Chain(blocks=chain.blocks[:2] + (tampered_block,) + chain.blocks[3:]))
        assert (result.ok, result.height, result.reason) == (False, 2, ChainFault.BAD_MERKLE)
        assert victim.txns[0].id_recomputes() and verify_txn_signature(NodeState(), victim.txns[0])

    def test_filled_caches_do_not_affect_equality(self):
        warm = _warm(_txn(4))
        cold = LedgerTransaction.from_dict(warm.to_dict())
        assert warm == cold
        assert repr(warm) == repr(cold)

    def test_create_encodes_the_payload_once(self, monkeypatch):
        identity = Identity.create("encode-once")
        payload = did_reg_payload(identity.did, identity.document)
        encoded = []

        def counting(value):
            encoded.append(value)
            return canonicalize(value)

        monkeypatch.setattr(ledger, "canonicalize", counting)
        txn = LedgerTransaction.create(TxnType.DID_REG, payload, identity.did, identity.signing_private, 7)
        assert verify_txn_signature(NodeState(), txn) and txn.id_recomputes()
        leaf = txn.leaf()
        assert [value is payload for value in encoded].count(True) == 1
        monkeypatch.undo()
        assert txn.txn_id == _plain_id(txn)
        assert leaf == digest_of(txn.to_dict())

    def test_batch_digest_binds_each_signature_bit(self):
        txns = (_txn(1), _txn(2))
        batch = Batch(0, 1, 5, txns)
        flipped = _tamper(txns[1], "signature")
        assert Batch(0, 1, 5, (txns[0], flipped)).digest_hex() != batch.digest_hex()
        same = Batch(0, 1, 5, tuple(LedgerTransaction.from_dict(t.to_dict()) for t in txns))
        assert same.digest_hex() == batch.digest_hex()
        # a replaced batch (an equivocating primary's twin) gets its own digest
        assert dataclasses.replace(batch, timestamp=6).digest_hex() != batch.digest_hex()


class TestUnencodableRecords:
    @pytest.mark.parametrize(
        "field, value",
        [("endpoint", 1.5), ("endpoint", "\ud800"), ("author_did", 2.5), ("timestamp", 3.0)],
    )
    def test_hand_edited_file_reports_bad_merkle(self, tmp_path, field, value):
        path = tmp_path / "net.ledger.jsonl"
        write_chain(_chain(3), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        block = json.loads(lines[2])
        record = block["txns"][1]
        if field == "endpoint":
            record["payload"]["document"]["endpoint"] = value
        else:
            record[field] = value
        lines[2] = json.dumps(block)  # ASCII escapes carry a lone surrogate through the file
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        chain = read_chain(path)
        assert not chain.blocks[2].txns[1].id_recomputes()
        result = validate_chain(chain)
        assert (result.ok, result.height, result.reason) == (False, 2, ChainFault.BAD_MERKLE)


# what a hand-edited file can hold, plus str-enum members and floats
scalar_fields = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=8)
    | st.sampled_from(list(TxnType))
    | st.floats(allow_nan=False)
)
json_like = st.recursive(
    scalar_fields,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
records = st.builds(
    LedgerTransaction,
    txn_type=st.sampled_from(list(TxnType)),
    payload=json_like,
    author_did=scalar_fields,
    author_signature=st.binary(max_size=64),
    timestamp=scalar_fields,
    txn_id=st.binary(min_size=32, max_size=32).map(Digest),
)


def _plain_id(txn: LedgerTransaction) -> Digest:
    return digest_of(
        {
            "txn_type": txn.txn_type.value,
            "payload": txn.payload,
            "author_did": txn.author_did,
            "timestamp": txn.timestamp,
        }
    )


def _assert_framed_matches_plain(txn: LedgerTransaction) -> None:
    """The framed id and leaf equal the digests of the plain maps; a record
    the plain encoding rejects fails its id check instead of raising."""
    try:
        expected_id = _plain_id(txn)
    except UnsupportedType:
        assert not txn.id_recomputes()
        with pytest.raises(UnsupportedType):
            LedgerTransaction.compute_id(txn.txn_type, txn.payload, txn.author_did, txn.timestamp)
        return
    assert LedgerTransaction.compute_id(txn.txn_type, txn.payload, txn.author_did, txn.timestamp) == expected_id
    assert txn.id_recomputes() is (txn.txn_id == expected_id)
    assert txn.leaf() == digest_of(txn.to_dict())


class TestFramedEncoding:
    @settings(max_examples=300, deadline=None)
    @given(records, st.booleans())
    def test_random_records(self, txn, consistent_id):
        if consistent_id:
            try:
                txn = dataclasses.replace(txn, txn_id=_plain_id(txn))
            except UnsupportedType:
                pass
        _assert_framed_matches_plain(txn)

    @pytest.mark.parametrize("part", ["payload", "author", "signature", "timestamp"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_tampered_records(self, part, warm):
        txn = _txn(5)
        _assert_framed_matches_plain(txn)
        _assert_framed_matches_plain(_tamper(_warm(txn) if warm else txn, part))
