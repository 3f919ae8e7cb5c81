"""Hash-chained ledger structure: transactions, Merkle roots, blocks, chains.

Transactions are typed public records (DID registrations, schemas, credential
definitions, revocation entries, consent proofs). Blocks commit to their
transactions through a binary Merkle tree and to their predecessor through
the previous block hash, so mutating anything in an approved block invalidates
it and every block after it.

Merkle leaves hash the full canonical transaction record, signature included,
not just the transaction id: the tamper-detection contract is that flipping
any single bit anywhere in a stored chain is caught by ``validate_chain``.
The transaction id itself covers (type, payload, author, timestamp) and is
what consensus uses for deduplication.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .canonical import UnsupportedType, canonicalize, map_layout
from .crypto import Digest, ZERO_DIGEST, digest_of, sign, verify


class LedgerError(Exception):
    """Base class for ledger construction errors."""


class EmptyLeaves(LedgerError):
    """Merkle root of zero leaves is undefined."""


class EmptyBlock(LedgerError):
    """Blocks must carry at least one transaction."""


class MalformedRecord(LedgerError):
    """Serialized block or transaction does not parse back into the model."""


class TxnType(str, enum.Enum):
    DID_REG = "DID_REG"
    SCHEMA = "SCHEMA"
    CRED_DEF = "CRED_DEF"
    REVOC_ENTRY = "REVOC_ENTRY"
    CONSENT_PROOF = "CONSENT_PROOF"


# The id preimage and the Merkle leaf are canonical maps with fixed keys, so each
# has a fixed layout: constant key prefixes around the members' canonical bytes.
_ID_LAYOUT = map_layout("author_did", "payload", "timestamp", "txn_type")
_LEAF_LAYOUT = map_layout("author_did", "author_signature", "payload", "timestamp", "txn_id", "txn_type")
_TYPE_BYTES = {txn_type: canonicalize(txn_type.value) for txn_type in TxnType}


def _txn_id(txn_type: TxnType, payload: bytes, author_did: Any, timestamp: Any) -> Digest:
    """The id: SHA-256 of the id's canonical map, the payload already encoded."""
    preimage = _ID_LAYOUT % (canonicalize(author_did), payload, canonicalize(timestamp), _TYPE_BYTES[txn_type])
    return Digest(hashlib.sha256(preimage).digest())


def _quoted_hex(raw: bytes) -> bytes:
    """``canonicalize`` of ``raw.hex()``: JSON escapes no hex digit."""
    return b'"%s"' % raw.hex().encode()


@dataclass(frozen=True, slots=True)
class LedgerTransaction:
    """A typed public record, signed by its author over the canonical payload.

    Its payload bytes, id check and Merkle leaf are cached on first use, so the
    payload must never be mutated in place: derive a changed record with
    ``dataclasses.replace``, whose caches start empty. The payload bytes are its
    only full encoding: the signature covers them, the id and leaf frame them."""

    txn_type: TxnType
    payload: Any
    author_did: str
    author_signature: bytes
    timestamp: int
    txn_id: Digest
    _payload_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _id_ok: bool | None = field(default=None, init=False, repr=False, compare=False)
    _leaf: Digest | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def compute_id(txn_type: TxnType, payload: Any, author_did: str, timestamp: int) -> Digest:
        return _txn_id(txn_type, canonicalize(payload), author_did, timestamp)

    @classmethod
    def create(
        cls,
        txn_type: TxnType,
        payload: Any,
        author_did: str,
        signing_private: bytes,
        timestamp: int,
    ) -> "LedgerTransaction":
        """Build a transaction, signing the canonical payload. The payload is
        encoded once: the signature, the id and the payload cache share it."""
        payload_bytes = canonicalize(payload)
        txn = cls(
            txn_type=txn_type,
            payload=payload,
            author_did=author_did,
            author_signature=sign(signing_private, payload_bytes),
            timestamp=timestamp,
            txn_id=_txn_id(txn_type, payload_bytes, author_did, timestamp),
        )
        object.__setattr__(txn, "_payload_bytes", payload_bytes)
        return txn

    def _payload(self) -> bytes:
        if self._payload_bytes is None:
            object.__setattr__(self, "_payload_bytes", canonicalize(self.payload))
        return self._payload_bytes

    def _frame(self) -> None:
        """Fill the id check and the leaf together: the leaf holds the id's members too."""
        payload, did, timestamp = self._payload(), canonicalize(self.author_did), canonicalize(self.timestamp)
        type_bytes = _TYPE_BYTES[self.txn_type]
        txn_id = self.txn_id.value
        id_ok = hashlib.sha256(_ID_LAYOUT % (did, payload, timestamp, type_bytes)).digest() == txn_id
        signature = _quoted_hex(self.author_signature)
        leaf = _LEAF_LAYOUT % (did, signature, payload, timestamp, _quoted_hex(txn_id), type_bytes)
        object.__setattr__(self, "_id_ok", id_ok)
        object.__setattr__(self, "_leaf", Digest(hashlib.sha256(leaf).digest()))

    def verify_signature(self, verification_key: bytes) -> bool:
        """Never cached: every node runs its own check on the shared record."""
        return verify(verification_key, self._payload(), self.author_signature)

    def id_recomputes(self) -> bool:
        """Total: a record that cannot be encoded fails its id check."""
        if self._id_ok is None:
            try:
                self._frame()
            except (UnsupportedType, UnicodeEncodeError):
                object.__setattr__(self, "_id_ok", False)
        return self._id_ok

    def to_dict(self) -> dict:
        return {
            "txn_type": self.txn_type.value,
            "payload": self.payload,
            "author_did": self.author_did,
            "author_signature": self.author_signature.hex(),
            "timestamp": self.timestamp,
            "txn_id": self.txn_id.hex,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerTransaction":
        try:
            return cls(
                txn_type=TxnType(data["txn_type"]),
                payload=data["payload"],
                author_did=data["author_did"],
                author_signature=bytes.fromhex(data["author_signature"]),
                timestamp=data["timestamp"],
                txn_id=Digest.from_hex(data["txn_id"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedRecord(f"bad transaction record: {exc}") from exc

    def leaf(self) -> Digest:
        """Merkle leaf: digest of the full canonical record, signature included."""
        if self._leaf is None:
            self._frame()
        return self._leaf


def merkle_root(leaves: Sequence[Digest]) -> Digest:
    """Binary Merkle root; an odd node at any level is paired with itself."""
    if not leaves:
        raise EmptyLeaves("cannot compute a Merkle root of zero leaves")
    level = [leaf.value for leaf in leaves]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [hashlib.sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
    return Digest(level[0])


def merkle_proof(leaves: Sequence[Digest], index: int) -> list[tuple[Digest, str]]:
    """Inclusion proof for ``leaves[index]``: (sibling, side) pairs, where side
    is which side the sibling sits on when hashing upward."""
    if not leaves:
        raise EmptyLeaves("cannot prove inclusion in zero leaves")
    if not 0 <= index < len(leaves):
        raise IndexError(f"leaf index {index} out of range")
    proof: list[tuple[Digest, str]] = []
    level = [leaf.value for leaf in leaves]
    pos = index
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        sibling = pos + 1 if pos % 2 == 0 else pos - 1
        proof.append((Digest(level[sibling]), "right" if pos % 2 == 0 else "left"))
        level = [hashlib.sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
        pos //= 2
    return proof


def verify_inclusion(txn_id: Digest, proof: Iterable[tuple[Digest, str]], root: Digest) -> bool:
    """Fold a leaf through an inclusion proof and compare against the root."""
    current = txn_id.value
    for sibling, side in proof:
        if side == "left":
            current = hashlib.sha256(sibling.value + current).digest()
        elif side == "right":
            current = hashlib.sha256(current + sibling.value).digest()
        else:
            return False
    return current == root.value


@dataclass(frozen=True)
class Block:
    """One link in the chain. The block hash covers only the header; the header
    commits to the transactions via the Merkle root."""

    height: int
    prev_hash: Digest
    merkle_root: Digest
    timestamp: int
    txns: tuple[LedgerTransaction, ...]
    block_hash: Digest

    @staticmethod
    def compute_hash(height: int, prev_hash: Digest, root: Digest, timestamp: int) -> Digest:
        return digest_of(
            {
                "height": height,
                "prev_hash": prev_hash.hex,
                "merkle_root": root.hex,
                "timestamp": timestamp,
            }
        )

    @classmethod
    def genesis(cls, timestamp: int = 0) -> "Block":
        return cls(
            height=0,
            prev_hash=ZERO_DIGEST,
            merkle_root=ZERO_DIGEST,
            timestamp=timestamp,
            txns=(),
            block_hash=cls.compute_hash(0, ZERO_DIGEST, ZERO_DIGEST, timestamp),
        )

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash.hex,
            "merkle_root": self.merkle_root.hex,
            "timestamp": self.timestamp,
            "txns": [txn.to_dict() for txn in self.txns],
            "block_hash": self.block_hash.hex,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Block":
        try:
            return cls(
                height=data["height"],
                prev_hash=Digest.from_hex(data["prev_hash"]),
                merkle_root=Digest.from_hex(data["merkle_root"]),
                timestamp=data["timestamp"],
                txns=tuple(LedgerTransaction.from_dict(t) for t in data["txns"]),
                block_hash=Digest.from_hex(data["block_hash"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedRecord(f"bad block record: {exc}") from exc


def build_block(prev: Block, txns: Sequence[LedgerTransaction], timestamp: int) -> Block:
    """Assemble the next block on top of ``prev``. Empty blocks are forbidden;
    batching is the consensus layer's job."""
    if not txns:
        raise EmptyBlock("a block must contain at least one transaction")
    txns = tuple(txns)
    root = merkle_root([txn.leaf() for txn in txns])
    height = prev.height + 1
    return Block(
        height=height,
        prev_hash=prev.block_hash,
        merkle_root=root,
        timestamp=timestamp,
        txns=txns,
        block_hash=Block.compute_hash(height, prev.block_hash, root, timestamp),
    )


class ChainFault(str, enum.Enum):
    BAD_MERKLE = "BadMerkle"
    BAD_HASH = "BadHash"
    BAD_LINK = "BadLink"
    BAD_HEIGHT = "BadHeight"


@dataclass(frozen=True)
class ChainValidation:
    """Outcome of ``validate_chain``: valid, or the lowest offending height."""

    ok: bool
    height: int | None = None
    reason: ChainFault | None = None

    def __bool__(self) -> bool:
        return self.ok


VALID = ChainValidation(ok=True)


@dataclass(frozen=True)
class Chain:
    """An immutable sequence of blocks; append returns a new chain value."""

    blocks: tuple[Block, ...]

    @classmethod
    def new(cls, genesis_timestamp: int = 0) -> "Chain":
        return cls(blocks=(Block.genesis(genesis_timestamp),))

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.head.height

    def append(self, block: Block) -> "Chain":
        return Chain(blocks=self.blocks + (block,))

    def txn_count(self) -> int:
        return sum(len(block.txns) for block in self.blocks)

    def digest(self) -> Digest:
        """Commitment to the whole chain: digest over all block hashes in order."""
        return digest_of([block.block_hash.hex for block in self.blocks])

    def to_lines(self) -> list[str]:
        return [canonicalize(block.to_dict()).decode("utf-8") for block in self.blocks]


def validate_chain(chain: Chain) -> ChainValidation:
    """Check every block's height, linkage, Merkle root and hash.

    Total: never raises. Reports the lowest offending height, so tampering
    with block i surfaces at height i (internal damage) or i+1 (broken link).
    """
    prev: Block | None = None
    for i, block in enumerate(chain.blocks):
        if block.height != i:
            return ChainValidation(False, i, ChainFault.BAD_HEIGHT)
        if i == 0:
            if block.prev_hash != ZERO_DIGEST:
                return ChainValidation(False, i, ChainFault.BAD_LINK)
        else:
            assert prev is not None
            if block.prev_hash != prev.block_hash:
                return ChainValidation(False, i, ChainFault.BAD_LINK)
        if block.txns:
            # ids first: a record that cannot be encoded fails there, not in leaf()
            if not all(txn.id_recomputes() for txn in block.txns) or (
                merkle_root([txn.leaf() for txn in block.txns]) != block.merkle_root
            ):
                return ChainValidation(False, i, ChainFault.BAD_MERKLE)
        elif i > 0 or block.merkle_root != ZERO_DIGEST:
            return ChainValidation(False, i, ChainFault.BAD_MERKLE)
        if (
            Block.compute_hash(block.height, block.prev_hash, block.merkle_root, block.timestamp)
            != block.block_hash
        ):
            return ChainValidation(False, i, ChainFault.BAD_HASH)
        prev = block
    return VALID


def write_chain(chain: Chain, path: str | Path) -> None:
    """Persist as JSON lines: one canonical-JSON block per line, height order."""
    Path(path).write_text("\n".join(chain.to_lines()) + "\n", encoding="utf-8")


def read_chain(path: str | Path) -> Chain:
    import json

    blocks = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            blocks.append(Block.from_dict(json.loads(line)))
    if not blocks:
        raise MalformedRecord(f"no blocks in {path}")
    return Chain(blocks=tuple(blocks))
