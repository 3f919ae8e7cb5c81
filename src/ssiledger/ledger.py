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

A ledger file is decoded by one line decoder. ``read_chain`` builds every
record from it; ``check_file`` validates the file in the same pass and leaves
the records unbuilt. ``append_block`` adds a line and keeps the ones before.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .canonical import UnsupportedType, _encode_checked, _float_screen, _member, canonicalize, map_layout, write_atomic
from .crypto import Digest, ZERO_DIGEST, digest_of, sign, verify


class LedgerError(Exception):
    """Base class for ledger construction errors."""


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
_TXN_TYPES = {txn_type.value: txn_type for txn_type in TxnType}


def _txn_id(txn_type: TxnType, payload: bytes, author_did: Any, timestamp: Any) -> Digest:
    """The id: SHA-256 of the id's canonical map, the payload already encoded."""
    preimage = _ID_LAYOUT % (canonicalize(author_did), payload, canonicalize(timestamp), _TYPE_BYTES[txn_type])
    return Digest(hashlib.sha256(preimage).digest())


def _hex_field(text: Any) -> bytes:
    """The bytes of a stored hex field, which must be exactly their ``hex()``:
    the hashes render these fields in lower case, so an upper-case digit or a
    space that ``bytes.fromhex`` would accept must not reach them."""
    raw = bytes.fromhex(text)
    if raw.hex() != text:
        raise ValueError(f"hex field {text!r} is not lower-case hex")
    return raw


@dataclass(frozen=True, slots=True)
class LedgerTransaction:
    """A typed public record, signed by its author over the canonical payload.

    Its payload bytes, id check, id hex and Merkle leaf are cached on first use
    (all but the id hex when the record is decoded: ``from_dict``, or a line of
    a ledger file), and so are two facts ``state`` derives from the payload: a
    DID_REG's self-certification (``_did_document``: the parsed document whose
    key derives the registered DID, or False when it does not; never from a
    payload that fails to parse) and the payload's map-key names
    (``_key_names``, which the privacy lint tests against each node's own deny
    list). So the payload must never be
    mutated in place: derive a changed record with ``dataclasses.replace``,
    whose caches start empty. The payload bytes are its only full encoding: the
    signature covers them, the id and leaf frame them. No verdict is cached:
    every node verifies for itself."""

    txn_type: TxnType
    payload: Any
    author_did: str
    author_signature: bytes
    timestamp: int
    txn_id: Digest
    _payload_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _id_ok: bool | None = field(default=None, init=False, repr=False, compare=False)
    _leaf: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _did_document: Any = field(default=None, init=False, repr=False, compare=False)
    _key_names: frozenset | None = field(default=None, init=False, repr=False, compare=False)
    _id_hex: str | None = field(default=None, init=False, repr=False, compare=False)

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

    @property
    def id_hex(self) -> str:
        """``txn_id.hex``, rendered once per record."""
        if self._id_hex is None:
            object.__setattr__(self, "_id_hex", self.txn_id.value.hex())
        return self._id_hex

    def _payload(self) -> bytes:
        if self._payload_bytes is None:
            object.__setattr__(self, "_payload_bytes", canonicalize(self.payload))
        return self._payload_bytes

    def _frame(self) -> None:
        """Fill the id check and the leaf together: the leaf holds the id's members too."""
        id_ok, leaf = _framing(
            self._payload(), self.author_did, self.timestamp, self.txn_type, self.author_signature.hex(), self.txn_id.hex
        )
        object.__setattr__(self, "_id_ok", id_ok)
        object.__setattr__(self, "_leaf", leaf)

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
        return _built(_record(data, screened=False))

    def leaf(self) -> Digest:
        """Merkle leaf: digest of the full canonical record, signature included."""
        return Digest(self._leaf_bytes())

    def _leaf_bytes(self) -> bytes:
        if self._leaf is None:
            self._frame()
        return self._leaf


# Fewest checks that ``verify_signatures`` splits over two threads. Handing work
# to the worker and waiting for it took 20-45 us and a verify 85-100 us (medians,
# 2-vCPU KVM Xeon guest, CPython 3.11), but below this many checks the split was
# no faster in most trials: each verify hands the GIL over twice.
PARALLEL_MIN = 16
_worker = None  # the one-worker executor, made on first use


def _forget_worker() -> None:
    """After a fork: the child has no worker thread, so it makes its own."""
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def verify_signatures(checks: Sequence[tuple[LedgerTransaction, bytes]]) -> list[bool]:
    """``txn.verify_signature(key)`` of each (record, key) check, in order.
    Every record's payload is encoded here, on the calling thread; the verifies
    then run on two threads when there are ``PARALLEL_MIN`` or more of them and
    the process may use two CPUs: libsodium runs without the GIL. A verdict is a
    pure function of the key, the payload bytes and the signature, so it does
    not matter which thread computes it, and each verify goes through this
    module's ``verify``, once."""
    global _worker
    calls = [(key, txn._payload(), txn.author_signature) for txn, key in checks]
    check = verify
    if len(calls) < PARALLEL_MIN or _usable_cpus() < 2:
        return [check(*call) for call in calls]
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor

        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ssiledger-verify")
    half = len(calls) // 2
    theirs = _worker.submit(lambda: [check(*call) for call in calls[half:]])
    return [check(*call) for call in calls[:half]] + theirs.result()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _framing(payload: bytes, author_did: Any, timestamp: Any, txn_type: TxnType, signature_hex: str, id_hex: str):
    """(whether the id recomputes, the Merkle leaf) of a record, from its payload
    bytes and the lower-case hex text of its signature and id: JSON escapes no
    hex digit, so quoting the text gives the fields' canonical bytes. Raises
    ``UnsupportedType`` or ``UnicodeEncodeError`` where a member does not encode."""
    did, timestamp, type_bytes = _member(author_did), _member(timestamp), _TYPE_BYTES[txn_type]
    id_ok = hashlib.sha256(_ID_LAYOUT % (did, payload, timestamp, type_bytes)).hexdigest() == id_hex
    leaf = _LEAF_LAYOUT % (did, b'"%s"' % signature_hex.encode(), payload, timestamp, b'"%s"' % id_hex.encode(), type_bytes)
    return id_ok, hashlib.sha256(leaf).digest()


def _record(data: dict, screened: bool) -> tuple:
    """A stored record, decoded and framed: (txn_type, payload, author_did,
    signature, timestamp, id hex, payload bytes, id check, leaf), the last two
    filled as ``_frame`` fills them. A record that does not parse raises
    ``MalformedRecord``. ``screened``: ``data`` was decoded from JSON text with
    no float (see ``canonical._float_screen``), so the payload passes the
    canonical check and is encoded here without it. A member that still fails
    to encode, a float or a lone surrogate, fails the id check and leaves the
    leaf to ``LedgerTransaction.leaf``, which raises as it does for any record."""
    try:
        kind = data["txn_type"]
        txn_type = (type(kind) is str and _TXN_TYPES.get(kind)) or TxnType(kind)  # the call raises the enum's error
        payload = data["payload"]
        author_did = data["author_did"]
        signature_hex = data["author_signature"]
        signature = _hex_field(signature_hex)
        timestamp = data["timestamp"]
        id_hex = data["txn_id"]
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedRecord(f"bad transaction record: {exc}") from exc
    payload_bytes, id_ok, leaf = None, False, None
    try:
        payload_bytes = _encode_checked(payload) if screened else canonicalize(payload)
        if isinstance(id_hex, str):
            id_ok, leaf = _framing(payload_bytes, author_did, timestamp, txn_type, signature_hex, id_hex)
    except (UnsupportedType, UnicodeEncodeError):
        pass
    if not id_ok:  # an id equal to a SHA-256 hex digest is well-formed; any other is parsed for its error
        try:
            Digest(_hex_field(id_hex))
        except (ValueError, TypeError) as exc:
            raise MalformedRecord(f"bad transaction record: {exc}") from exc
    return txn_type, payload, author_did, signature, timestamp, id_hex, payload_bytes, id_ok, leaf


# one store per slot, in field order: a built record skips the frozen init's setattr calls
_SLOT_STORES = tuple(LedgerTransaction.__dict__[f.name].__set__ for f in fields(LedgerTransaction))


def _built(record: tuple) -> LedgerTransaction:
    """The ``LedgerTransaction`` of a ``_record``, its framing filled in."""
    txn_type, payload, author_did, signature, timestamp, id_hex, payload_bytes, id_ok, leaf = record
    txn_id = Digest(bytes.fromhex(id_hex))
    txn = object.__new__(LedgerTransaction)
    values = (txn_type, payload, author_did, signature, timestamp, txn_id, payload_bytes, id_ok, leaf, None, None, None)
    for store, value in zip(_SLOT_STORES, values):
        store(txn, value)
    return txn


def _root(level: list[bytes]) -> bytes:
    """Binary Merkle root of raw leaves, at least one; an odd node at any level
    is paired with itself. Extends ``level``."""
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [hashlib.sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level), 2)]
    return level[0]


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
        return _built_block(*_block(data, screened=False))


def _block(data: dict, screened: bool) -> tuple[tuple, list[tuple]]:
    """A stored block, decoded: its header (height, prev_hash, merkle_root,
    timestamp, block_hash) and its records, each a ``_record``. A block that
    does not parse raises ``MalformedRecord``."""
    try:
        height = data["height"]
        prev_hash = Digest(_hex_field(data["prev_hash"]))
        merkle_root = Digest(_hex_field(data["merkle_root"]))
        timestamp = data["timestamp"]
        records = [_record(record, screened) for record in data["txns"]]
        block_hash = Digest(_hex_field(data["block_hash"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedRecord(f"bad block record: {exc}") from exc
    return (height, prev_hash, merkle_root, timestamp, block_hash), records


def _built_block(header: tuple, records: list[tuple]) -> Block:
    height, prev_hash, merkle_root, timestamp, block_hash = header
    return Block(height, prev_hash, merkle_root, timestamp, tuple(map(_built, records)), block_hash)


def build_block(prev: Block, txns: Sequence[LedgerTransaction], timestamp: int) -> Block:
    """Assemble the next block on top of ``prev``. Empty blocks are forbidden;
    batching is the consensus layer's job."""
    if not txns:
        raise EmptyBlock("a block must contain at least one transaction")
    txns = tuple(txns)
    root = Digest(_root([txn._leaf_bytes() for txn in txns]))
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


class Chain:
    """A sequence of blocks used as a value: ``append`` returns a new chain and
    leaves this one as it was. Chains made by appending share one block list,
    so appending at its end costs O(1); appending to a chain that is no longer
    at the end of its list copies its blocks first."""

    __slots__ = ("_list", "_length", "_tuple")

    def __init__(self, blocks: Iterable[Block]):
        self._tuple = blocks if type(blocks) is tuple else None
        self._list = list(blocks)
        self._length = len(self._list)

    @classmethod
    def new(cls, genesis_timestamp: int = 0) -> "Chain":
        return cls(blocks=(Block.genesis(genesis_timestamp),))

    @property
    def blocks(self) -> tuple[Block, ...]:
        if self._tuple is None:
            self._tuple = tuple(self._list[: self._length])
        return self._tuple

    @property
    def head(self) -> Block:
        return self._list[self._length - 1]

    @property
    def height(self) -> int:
        return self.head.height

    def append(self, block: Block) -> "Chain":
        blocks = self._list if len(self._list) == self._length else self._list[: self._length]
        blocks.append(block)
        chain = object.__new__(Chain)
        chain._list, chain._length, chain._tuple = blocks, self._length + 1, None
        return chain

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chain) and self.blocks == other.blocks

    def txn_count(self) -> int:
        return sum(len(block.txns) for block in self.blocks)

    def digest(self) -> Digest:
        """Commitment to the whole chain: digest over all block hashes in order."""
        return digest_of([block.block_hash.hex for block in self.blocks])

    def to_lines(self) -> list[str]:
        return [canonicalize(block.to_dict()).decode("utf-8") for block in self.blocks]


def _first_fault(blocks: Iterable[tuple[tuple, list[bytes] | None]]) -> ChainValidation:
    """The lowest fault of the blocks, each a (header as ``_block`` gives it,
    its records' leaves or None where a record's id does not recompute) pair:
    tampering with block i surfaces at height i or i+1 (broken link)."""
    prev_hash = ZERO_DIGEST
    for i, ((height, link, root, timestamp, block_hash), leaves) in enumerate(blocks):
        if height != i:
            return ChainValidation(False, i, ChainFault.BAD_HEIGHT)
        if link != prev_hash:
            return ChainValidation(False, i, ChainFault.BAD_LINK)
        if leaves:
            merkle_ok = _root(leaves) == root.value
        else:  # a record whose id fails, or no records: only genesis has none, under the zero root
            merkle_ok = leaves is not None and i == 0 and root == ZERO_DIGEST
        if not merkle_ok:
            return ChainValidation(False, i, ChainFault.BAD_MERKLE)
        try:
            hash_ok = Block.compute_hash(height, link, root, timestamp) == block_hash
        except (UnsupportedType, UnicodeEncodeError):
            hash_ok = False  # a hand-edited header: a float height or timestamp, a lone surrogate
        if not hash_ok:
            return ChainValidation(False, i, ChainFault.BAD_HASH)
        prev_hash = block_hash
    return VALID


def validate_chain(chain: Chain) -> ChainValidation:
    """Check every block's height, linkage, Merkle root and hash. Total: never raises."""
    return _first_fault(
        (
            (block.height, block.prev_hash, block.merkle_root, block.timestamp, block.block_hash),
            # a record that cannot be encoded fails its id check; a record whose id recomputes has its leaf
            [txn._leaf for txn in block.txns] if all(txn.id_recomputes() for txn in block.txns) else None,
        )
        for block in chain.blocks
    )


def write_chain(chain: Chain, path: str | Path) -> None:
    """Persist as JSON lines: one canonical-JSON block per line, height order,
    each ended by "\n". Other line breaks (U+2028, U+2029, U+0085) stay raw
    inside strings. The file is replaced whole (``canonical.write_atomic``)."""
    write_atomic(path, "\n".join(chain.to_lines()) + "\n")


def append_block(path: str | Path, block: Block) -> None:
    """Add ``block`` as one canonical line after the file's bytes, kept as they are ("\r\n" too; a last
    line with no "\n" gets one). The file is replaced whole (``canonical.write_atomic``)."""
    with open(path, encoding="utf-8", newline="") as file:
        text = file.read()
    if not text.endswith("\n"):
        text += "\n"
    write_atomic(path, text + canonicalize(block.to_dict()).decode("utf-8") + "\n")


def _decoded_blocks(path: str | Path) -> Iterator[tuple[tuple, list[tuple]]]:
    """The blocks of a ``write_chain`` file, each ``_block`` of a line. Lines end
    at "\n" only ("\r\n" is read as well); blank lines are skipped. A line
    decoded with no float has its payloads encoded without the canonical check.
    A file with no block raises ``MalformedRecord``."""
    hooks, floats = _float_screen()
    empty = True
    try:
        with open(path, encoding="utf-8", newline="\n") as lines:
            for line in lines:
                line = line.rstrip("\r\n")  # the line end, which json.loads would report inside a string
                if line.strip():
                    seen = len(floats)
                    data = json.loads(line, **hooks)
                    empty = False
                    yield _block(data, screened=len(floats) == seen)
    except UnicodeDecodeError:
        Path(path).read_text(encoding="utf-8")  # raises with the offset in the file, not in a read buffer
        raise
    if empty:
        raise MalformedRecord(f"no blocks in {path}")


def read_chain(path: str | Path) -> Chain:
    """Read a ``write_chain`` file. Every record comes with its id check and
    leaf filled in, so ``validate_chain`` of the chain hashes only the headers."""
    return Chain(blocks=tuple(_built_block(header, records) for header, records in _decoded_blocks(path)))


def check_file(path: str | Path) -> tuple[ChainValidation, list[tuple], Block | None]:
    """``validate_chain(read_chain(path))`` in one pass over the file; for a
    valid chain also its records in chain order, decoded and framed but not
    built (see ``_record``), and its head block, built. Raises as ``read_chain``
    does: an error anywhere in the file wins over a fault, the lowest fault."""
    blocks = list(_decoded_blocks(path))
    check = _first_fault(
        (header, [record[8] for record in records] if all(record[7] for record in records) else None)
        for header, records in blocks
    )
    if not check.ok:
        return check, [], None
    return check, [record for _, records in blocks for record in records], _built_block(*blocks[-1])
