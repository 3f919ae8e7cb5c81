import dataclasses
import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssiledger.state as state_mod
from conftest import Identity
from ssiledger import canonical, ledger
from ssiledger.canonical import UnsupportedType, canonicalize
from ssiledger.consensus import Batch
from ssiledger.crypto import Digest, ZERO_DIGEST, digest_of
from ssiledger.ledger import (
    Block,
    Chain,
    ChainFault,
    EmptyBlock,
    LedgerTransaction,
    MalformedRecord,
    TxnType,
    append_block,
    build_block,
    check_file,
    read_chain,
    validate_chain,
    write_chain,
)
from ssiledger.state import (
    AttrType,
    NodeState,
    SchemaRecord,
    _writers_of,
    did_reg_payload,
    fold_chain,
    fold_read_set,
    schema_payload,
    verify_txn_signature,
)
from test_state import _on


def _oracle_pair(a: bytes, b: bytes) -> bytes:
    # independent of ledger._root: plain hashlib over concatenated bytes
    return hashlib.sha256(a + b).digest()


def _oracle_leaf(txn: LedgerTransaction) -> bytes:
    # independent of the framed leaf: the digest of the full record map
    return hashlib.sha256(canonicalize(txn.to_dict())).digest()


def _oracle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree up to the root; each level pairs an odd last node with itself."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        level = levels[-1] + levels[-1][-1:] * (len(levels[-1]) % 2)
        levels.append([_oracle_pair(level[i], level[i + 1]) for i in range(0, len(level), 2)])
    return levels


@functools.cache
def _pool() -> tuple[LedgerTransaction, ...]:
    return tuple(_txn(n) for n in range(33))


def _root_of(txns) -> bytes:
    return build_block(Block.genesis(), txns, timestamp=5).merkle_root.value


class TestMerkle:
    """The root ``build_block`` commits to, and the root ``validate_chain`` checks."""

    def test_single_leaf_is_identity(self):
        assert _root_of(_pool()[:1]) == _oracle_leaf(_pool()[0])

    def test_two_leaves_hand_computed(self):
        a, b = _pool()[:2]
        assert _root_of([a, b]) == _oracle_pair(_oracle_leaf(a), _oracle_leaf(b))

    def test_three_leaves_duplicates_last(self):
        a, b, c = (_oracle_leaf(txn) for txn in _pool()[:3])
        assert _root_of(_pool()[:3]) == _oracle_pair(_oracle_pair(a, b), _oracle_pair(c, c))

    def test_empty_rejected(self):
        """Zero leaves have no root: a stored block after genesis must hold a txn
        (``build_block`` refuses to make one, see ``TestBlocks``)."""
        genesis = Block.genesis()
        empty = Block(1, genesis.block_hash, ZERO_DIGEST, 5, (), Block.compute_hash(1, genesis.block_hash, ZERO_DIGEST, 5))
        result = validate_chain(Chain((genesis, empty)))
        assert (result.ok, result.height, result.reason) == (False, 1, ChainFault.BAD_MERKLE)

    def test_deterministic(self):
        decoded = [LedgerTransaction.from_dict(txn.to_dict()) for txn in _pool()[:7]]  # leaves not yet cached
        assert _root_of(_pool()[:7]) == _root_of(decoded)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=33, unique=True))
    def test_matches_hashlib_oracle(self, picks):
        txns = [_pool()[i] for i in picks]
        block = build_block(Block.genesis(), txns, timestamp=5)
        assert block.merkle_root.value == _oracle_levels([_oracle_leaf(txn) for txn in txns])[-1][0]
        assert validate_chain(Chain((Block.genesis(), block)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.randoms(use_true_random=False))
    def test_permutation_changes_root(self, n, rng):
        txns = list(_pool()[:n])
        shuffled = txns[:]
        rng.shuffle(shuffled)
        if shuffled != txns:
            assert _root_of(shuffled) != _root_of(txns)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
    def test_proofs_round_trip(self, n):
        """Each leaf's path of siblings, built by the oracle, folds to the block's
        root; and another record at that index, its own id intact, is caught
        by the root check alone."""
        txns = list(_pool()[:n])
        block = build_block(Block.genesis(), txns, timestamp=5)
        levels = _oracle_levels([_oracle_leaf(txn) for txn in txns])
        for index in range(n):
            current = levels[0][index]
            for depth, level in enumerate(levels[:-1]):
                pos = index >> depth
                sibling = level[min(pos ^ 1, len(level) - 1)]
                current = _oracle_pair(sibling, current) if pos % 2 else _oracle_pair(current, sibling)
            assert current == block.merkle_root.value
            swapped = dataclasses.replace(block, txns=(*txns[:index], _pool()[32], *txns[index + 1 :]))
            result = validate_chain(Chain((Block.genesis(), swapped)))
            assert (result.ok, result.height, result.reason) == (False, 1, ChainFault.BAD_MERKLE)

    def test_proof_against_wrong_root_rejects(self):
        """Records that are intact under a header whose root is not theirs: BadMerkle."""
        block = build_block(Block.genesis(), _pool()[:4], timestamp=5)
        wrong = hashlib.sha256(block.merkle_root.value).digest()
        forged = dataclasses.replace(
            block, merkle_root=Digest(wrong), block_hash=Block.compute_hash(1, block.prev_hash, Digest(wrong), 5)
        )
        result = validate_chain(Chain((Block.genesis(), forged)))
        assert (result.ok, result.height, result.reason) == (False, 1, ChainFault.BAD_MERKLE)


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
        leaves = [_oracle_leaf(t) for t in tampered.txns]
        assert _oracle_pair(*leaves) != tampered.merkle_root.value
        result = validate_chain(Chain((Block.genesis(), tampered)))
        assert (result.ok, result.height, result.reason) == (False, 1, ChainFault.BAD_MERKLE)


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

    @pytest.mark.parametrize("size, control", [(0, {"epoch": 1, "votes": [{"voter": 2}]}), (1, None), (3, None)])
    def test_batch_digest_is_the_digest_of_its_map(self, size, control):
        batch = Batch(1, 7, 40, tuple(_txn(i) for i in range(size)), control=control)
        body = {"instance": 1, "seq": 7, "timestamp": 40, "txns": [t.leaf().hex for t in batch.txns], "control": control}
        assert batch.digest_hex() == digest_of(body).hex


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


class TestLineFraming:
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_breaks_inside_strings_round_trip(self, tmp_path, char):
        identity = Identity.create(f"framing-{ord(char)}")
        document = dataclasses.replace(identity.document, endpoint=f"sim://a{char}b")
        payload = did_reg_payload(identity.did, document)
        txn = LedgerTransaction.create(TxnType.DID_REG, payload, identity.did, identity.signing_private, 1)
        chain = Chain.new()
        chain = chain.append(build_block(chain.head, [txn, _txn(2)], timestamp=3))
        path = tmp_path / "net.ledger.jsonl"
        write_chain(chain, path)
        assert char.encode() in path.read_bytes()  # written raw, inside a string
        reread = read_chain(path)
        assert reread == chain and validate_chain(reread)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_line_cut_inside_a_string_is_unterminated(self, tmp_path, end):
        lines = _chain(2).to_lines()
        cut = lines[1].index("sim://") + 3
        lines[1] = lines[1][:cut] + end + lines[1][cut:]
        path = tmp_path / "net.ledger.jsonl"
        path.write_bytes("\n".join(lines).encode() + b"\n")
        with pytest.raises(json.JSONDecodeError, match="^Unterminated string starting at: line 1 column"):
            read_chain(path)

    def test_crlf_line_ends_are_read(self, tmp_path):
        chain = _chain(3)
        path = tmp_path / "net.ledger.jsonl"
        path.write_bytes(b"".join(line.encode() + b"\r\n" for line in chain.to_lines()) + b"\r\n")
        reread = read_chain(path)
        assert reread == chain and validate_chain(reread)


def _base_lines() -> list[dict]:
    """A valid chain's lines, decoded: DID_REGs and a SCHEMA, whose payload holds lists."""
    author = Identity.create("screen-author")
    schema = SchemaRecord.create("screen", "1.0", [("ref", AttrType.STRING), ("year", AttrType.INTEGER)])
    chain = _chain(2)
    records = [_txn(7, author), LedgerTransaction.create(TxnType.SCHEMA, schema_payload(schema), author.did, author.signing_private, 8)]
    chain = chain.append(build_block(chain.head, records, timestamp=9))
    return [json.loads(line) for line in chain.to_lines()]


BASE_LINES = _base_lines()
# the keys a verdict can read on BASE_LINES' chain: its DIDs and schema id, and one that is not there
READ_KEYS = sorted(
    {txn["author_did"] for line in BASE_LINES for txn in line["txns"]}
    | {txn["payload"]["schema_id"] for line in BASE_LINES for txn in line["txns"] if txn["txn_type"] == "SCHEMA"}
) + ["did:sample:nobody"]


def _leaves(value, prefix=()) -> list[tuple]:
    """The key path of every scalar in a decoded value: header fields, record
    fields and the payloads' members."""
    if isinstance(value, dict):
        return [path for key, item in value.items() for path in _leaves(item, prefix + (key,))]
    if isinstance(value, list):
        return [path for index, item in enumerate(value) for path in _leaves(item, prefix + (index,))]
    return [prefix]


def _shuffled(value, rng: random.Random):
    """The same value with every map's keys in a random order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffled(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


UPPER = "upper"  # the edit upper-cases the string there: hex ids and digests, DIDs, keys' values
edit_values = st.sampled_from(
    [1.5, 2.0, -0.0, 1e300, float("nan"), float("inf"), float("-inf"), "\ud800", "a\udfffb", UPPER, 7]
) | st.floats()


def _read(path, read_line):
    """(the chain or the error read_chain raises, its verdict) for a file read line by line."""
    try:
        chain = read_line(path)
    except MalformedRecord as exc:
        return str(exc), None
    try:
        result = validate_chain(chain)
    except Exception as exc:  # noqa: BLE001 - the two reads must fail alike
        return chain, type(exc)
    return chain, (result.ok, result.height, result.reason)


def _plain_read(path) -> Chain:
    """The unscreened read: plain ``json.loads`` and ``Block.from_dict`` per
    line, so each payload is checked and encoded when first framed."""
    lines = path.read_text(encoding="utf-8").split("\n")
    return Chain(blocks=tuple(Block.from_dict(json.loads(line)) for line in lines if line.strip()))


def _outcome(call):
    try:
        return call()
    except (UnsupportedType, UnicodeEncodeError) as exc:
        return type(exc)


def _edited_file(data, tmp_path_factory, max_edits: int = 3):
    """``BASE_LINES`` written with up to ``max_edits`` edited values per line,
    every map's keys shuffled and one of three separator styles."""
    rng = data.draw(st.randoms(use_true_random=False))
    lines = []
    for base in BASE_LINES:
        block = json.loads(json.dumps(base))
        edits = st.lists(st.tuples(st.sampled_from(_leaves(block)), edit_values), max_size=max_edits)
        for path, new in data.draw(edits):
            *outer, last = path
            container = block
            for key in outer:
                container = container[key]
            old = container[last]
            if new == UPPER:
                new = old.upper() if isinstance(old, str) else old
            container[last] = new
        separators = data.draw(st.sampled_from([(",", ":"), (", ", ": "), (" , ", " :  ")]))
        lines.append(json.dumps(_shuffled(block, rng), separators=separators))
    path = tmp_path_factory.mktemp("screen") / "net.ledger.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestScreenedRead:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_screened_read_equals_plain_read(self, tmp_path_factory, data):
        path = _edited_file(data, tmp_path_factory)
        (screened, verdict), (plain, plain_verdict) = _read(path, read_chain), _read(path, _plain_read)
        assert verdict == plain_verdict
        if isinstance(plain, str):
            assert screened == plain  # the same MalformedRecord message
            return
        pairs = [(a, b) for x, y in zip(screened.blocks, plain.blocks) for a, b in zip(x.txns, y.txns)]
        assert len(pairs) == sum(len(block.txns) for block in plain.blocks)
        for fast, reference in pairs:
            assert fast.id_recomputes() is reference.id_recomputes()
            assert _outcome(fast.leaf) == _outcome(reference.leaf)

    @pytest.mark.parametrize("edit", [None, 1.5, float("nan")])
    def test_float_free_lines_skip_the_check_walk(self, tmp_path, monkeypatch, edit):
        lines = [json.loads(json.dumps(line)) for line in BASE_LINES]
        if edit is not None:
            lines[2]["txns"][0]["payload"]["document"]["metadata"] = {"x": edit}
        path = tmp_path / "net.ledger.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
        checked = []
        real_check = canonical._check

        def counting(value):
            checked.append(value)
            return real_check(value)

        monkeypatch.setattr(canonical, "_check", counting)
        chain = read_chain(path)
        result = validate_chain(chain)
        header_keys = {"height", "merkle_root", "prev_hash", "timestamp"}
        headers = [value for value in checked if isinstance(value, dict) and set(value) == header_keys]
        records = [value for value in checked if not any(value is header for header in headers)]
        if edit is None:
            assert result.ok
            assert len(headers) == len(chain.blocks) and records == []  # the block hashes alone
        else:
            # the flagged line's payloads take the checked encoding; its float fails the id check
            assert (result.ok, result.height, result.reason) == (False, 2, ChainFault.BAD_MERKLE)
            assert any(value is chain.blocks[2].txns[0].payload for value in records)


class TestOnePassCheck:
    """``check_file`` and ``fold_read_set`` against ``read_chain``, then
    ``validate_chain``, then ``fold_chain``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_read_then_validate_then_fold(self, tmp_path_factory, data):
        path = _edited_file(data, tmp_path_factory, data.draw(st.sampled_from([0, 3])))  # 0: a valid file
        chain, verdict = _read(path, read_chain)
        try:
            check, records, _ = check_file(path)
        except MalformedRecord as exc:
            assert str(exc) == chain  # the same MalformedRecord message
            return
        assert (check.ok, check.height, check.reason) == verdict
        if not check.ok:
            assert records == []
            return
        assert len(records) == chain.txn_count()
        full = fold_chain(chain)
        for reads in [set(), *({key} for key in READ_KEYS), set(READ_KEYS)]:
            closure = _writers_of(records, reads)[0]
            assert reads <= closure
            assert _on(fold_read_set(records, reads), closure) == _on(full, closure)

    def test_read_error_wins_over_an_earlier_fault(self, tmp_path):
        lines = _chain(3).to_lines()
        path = tmp_path / "net.ledger.jsonl"
        path.write_text("\n".join([lines[0], lines[2], lines[1], lines[3][:-1]]) + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as raised:
            read_chain(path)
        with pytest.raises(json.JSONDecodeError) as raised_once:
            check_file(path)
        assert str(raised_once.value) == str(raised.value)

    def test_lowest_fault_is_reported(self, tmp_path):
        lines = [json.loads(line) for line in _chain(3).to_lines()]
        lines[1]["timestamp"] += 1
        lines[3]["txns"][0]["timestamp"] += 1
        path = tmp_path / "net.ledger.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
        check, records, _ = check_file(path)
        assert (check.ok, check.height, check.reason, records) == (False, 1, ChainFault.BAD_HASH, [])
        assert check == validate_chain(read_chain(path))

    def test_builds_only_the_records_it_folds(self, tmp_path, monkeypatch):
        chain = _chain(4)
        path = tmp_path / "net.ledger.jsonl"
        write_chain(chain, path)
        check, records, _ = check_file(path)
        built = []
        monkeypatch.setattr(state_mod, "_built", lambda record: built.append(record) or ledger._built(record))
        did = chain.blocks[2].txns[0].author_did
        folded = fold_read_set(records, {did})
        assert folded.dids == {did: fold_chain(chain).dids[did]}
        assert [record[2] for record in built] == [did]


class TestChainAppend:
    def test_append_leaves_every_chain_as_it_was(self):
        base = _chain(2)
        a, b = build_block(base.head, [_txn(10)], 11), build_block(base.head, [_txn(20)], 21)
        left = base.append(a)
        right = base.append(b)  # base no longer ends its block list: its blocks are copied
        longer = left.append(build_block(a, [_txn(30)], 31))
        assert base.blocks == _chain(2).blocks and base.height == 2
        assert left.blocks == base.blocks + (a,) and right.blocks == base.blocks + (b,)
        assert longer.blocks[:-1] == left.blocks and longer.height == 4
        assert (base.head, left.head, right.head) == (base.blocks[-1], a, b)
        assert all(validate_chain(chain) for chain in (base, left, right, longer))
        assert Chain(blocks=list(right.blocks)) == right != left


class TestAppendBlock:
    """``append_block`` adds one line and keeps the bytes before it."""

    @pytest.mark.parametrize("height", [0, 1, 3])
    def test_same_bytes_as_the_rewrite(self, tmp_path, height):
        path, rewritten = tmp_path / "net.ledger.jsonl", tmp_path / "rewritten.jsonl"
        write_chain(_chain(height), path)
        check, _, head = check_file(path)
        assert check.ok and head == read_chain(path).head
        block = build_block(head, [_txn(90), _txn(91)], timestamp=92)
        write_chain(read_chain(path).append(block), rewritten)
        append_block(path, block)
        assert path.read_bytes() == rewritten.read_bytes()

    @pytest.mark.parametrize("end", ["", "\r", "\r\n"])
    def test_old_line_ends_are_kept(self, tmp_path, end):
        path = tmp_path / "net.ledger.jsonl"
        text = "\r\n".join(_chain(1).to_lines()) + end
        path.write_bytes(text.encode())
        block = build_block(read_chain(path).head, [_txn(7)], timestamp=8)
        append_block(path, block)
        line = canonicalize(block.to_dict()) + b"\n"
        assert path.read_bytes() == text.encode() + (b"" if end == "\r\n" else b"\n") + line
        assert validate_chain(read_chain(path)) and read_chain(path).head == block


HEX_FIELDS = ("txn_id", "author_signature", "prev_hash", "merkle_root", "block_hash")


def _recased(text: str, edit: str) -> str:
    """The same bytes in another hex spelling: one letter in upper case, or a space."""
    if edit == "space":
        return text[:2] + " " + text[2:]
    i = next(i for i, char in enumerate(text) if char in "abcdef")
    return text[:i] + text[i].upper() + text[i + 1 :]


@pytest.mark.parametrize("edit", ["upper", "space"])
@pytest.mark.parametrize("field", HEX_FIELDS)
def test_hex_field_spelled_otherwise_is_malformed(tmp_path, field, edit):
    """The hashes render these fields as ``bytes.hex`` does, so another
    spelling of the same bytes would pass them unseen: it fails the read."""
    path = tmp_path / "net.ledger.jsonl"
    write_chain(_chain(2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    block = json.loads(lines[1])
    holder = block["txns"][1] if field in ("txn_id", "author_signature") else block
    holder[field] = _recased(holder[field], edit)
    lines[1] = json.dumps(block)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="is not lower-case hex"):
        read_chain(path)
