"""Replicated ordering with a master and a backup protocol instance.

Two protocol instances run concurrently over the same request pool, each with
its own primary and its own pre-prepare / prepare / commit pipeline. Both
instances order batches; only the master instance's order is executed against
the ledger. Every node monitors both instances' commit throughput and latency
over a sliding window; when the backup sustainably outperforms the master by
more than the configured ratio, nodes broadcast signed instance-change votes,
and a quorum certificate of 2f+1 votes — ordered through the backup instance
itself so all nodes agree on one cutover — promotes the backup to master.

Execution safety rests on two rules. First, a batch of the master instance is
executed only once 2f+1 nodes have announced (ExecReady) that they committed
it. Second, a node that votes for an instance change stops announcing for the
old master, freezing the frontier its vote reports. Together these guarantee
the agreed cutover sequence is never below anything any honest node already
executed, so every node executes exactly: old master up to the cutover, then
the new master from its first sequence, with already-applied transactions
deduplicated. Byzantine behaviours modelled for testing are crash, message
delay and primary equivocation; adaptive adversaries (e.g. lying in votes)
are out of scope.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable

from .canonical import UnsupportedType, _quoted_hex, canonicalize, map_layout
from .crypto import Digest, digest_of, sign, verify
from .ledger import Chain, LedgerTransaction, TxnType, build_block
from .state import NodeState, fold_into, signing_key
from .simnet import DELIVER, SUBMIT, SimNetwork


@dataclass(frozen=True)
class ConsensusConfig:
    """Protocol and monitoring knobs. N is always 3f+1."""

    f: int = 1
    window: int = 10  # monitor window, in committed batches
    delta: float = 2.0  # degradation ratio that triggers an instance change
    batch_max: int = 5
    batch_timeout: int = 50  # ms a primary waits before batching what it has
    monitor_interval: int = 200  # ms between monitor evaluations
    stall_vote_after: int = 2000  # ms of blocked execution before voting anyway
    genesis_timestamp: int = 0
    denied_fields: tuple[str, ...] | None = None  # privacy lint override

    @property
    def n(self) -> int:
        return 3 * self.f + 1

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def validate(self) -> None:
        for name in ("f", "window", "batch_max", "batch_timeout", "monitor_interval", "stall_vote_after",
                     "genesis_timestamp"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.f < 1:
            raise ValueError("fault bound f must be >= 1")
        if type(self.delta) not in (int, float) or not self.delta > 1:
            raise ValueError("degradation threshold delta must be > 1")
        if min(self.batch_timeout, self.stall_vote_after) < 0 or self.monitor_interval < 1:
            raise ValueError("timeouts must be >= 0 ms and the monitor interval >= 1 ms")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.window < 1:
            raise ValueError("monitor window must be >= 1")


@dataclass
class FaultPlan:
    """When (in sim ms) nodes crash or start equivocating."""

    crash: dict[int, int] = field(default_factory=dict)
    equivocate: dict[int, int] = field(default_factory=dict)


# --- protocol messages -----------------------------------------------------


_BATCH_LAYOUT = map_layout("control", "instance", "seq", "timestamp", "txns")


@dataclass(frozen=True, slots=True)
class Batch:
    """One instance's proposal. Its digest, computed once per object, commits
    to the Merkle leaves of its txns, which hash each whole signed record: it
    is ``digest_of`` the map {instance, seq, timestamp, txns: the leaves in
    hex, control}, framed by its fixed layout."""

    instance: int
    seq: int
    timestamp: int
    txns: tuple[LedgerTransaction, ...]
    control: Any = None  # instance-change certificate payload, if a control batch
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def digest_hex(self) -> str:
        if self._digest is None:
            leaves = b",".join([_quoted_hex(txn._leaf_bytes()) for txn in self.txns])
            members = (self.control, self.instance, self.seq, self.timestamp)
            body = _BATCH_LAYOUT % (*map(canonicalize, members), b"[%b]" % leaves)
            object.__setattr__(self, "_digest", hashlib.sha256(body).hexdigest())
        return self._digest


@dataclass(frozen=True)
class Request:
    txn: LedgerTransaction


@dataclass(frozen=True)
class _SlotBody:
    instance: int
    seq: int
    batch: Batch


@dataclass(frozen=True)
class _SlotDigest:
    instance: int
    seq: int
    digest: str


class PrePrepare(_SlotBody):
    """The primary's batch for (instance, seq)."""


class Prepare(_SlotDigest):
    """Sender accepted the primary's batch of (instance, seq) with this digest."""


class Commit(_SlotDigest):
    """Sender saw 2f+1 Prepares for its accepted digest."""


class ExecReady(_SlotDigest):
    """Sender has committed (instance, seq); 2f+1 of these authorize execution."""


@dataclass(frozen=True)
class InstanceChangeVote:
    epoch: int
    new_master: int
    last_committed: int  # voter's committed frontier on the instance being demoted
    voter: int
    signature: bytes

    @staticmethod
    def body(epoch: int, new_master: int, last_committed: int, voter: int) -> dict:
        return {
            "epoch": epoch,
            "new_master": new_master,
            "last_committed": last_committed,
            "voter": voter,
        }

    @classmethod
    def create(
        cls, epoch: int, new_master: int, last_committed: int, voter: int, signing_private: bytes
    ) -> "InstanceChangeVote":
        body = cls.body(epoch, new_master, last_committed, voter)
        return cls(epoch, new_master, last_committed, voter, sign(signing_private, digest_of(body).value))

    def verify_with(self, public: bytes) -> bool:
        body = self.body(self.epoch, self.new_master, self.last_committed, self.voter)
        return verify(public, digest_of(body).value, self.signature)

    def to_dict(self) -> dict:
        return {
            **self.body(self.epoch, self.new_master, self.last_committed, self.voter),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceChangeVote":
        return cls(
            epoch=data["epoch"],
            new_master=data["new_master"],
            last_committed=data["last_committed"],
            voter=data["voter"],
            signature=bytes.fromhex(data["signature"]),
        )


class FetchBatch(_SlotDigest):
    """Asks a node that committed this digest for the body."""


class BatchReply(_SlotBody):
    """The body a ``FetchBatch`` asked for."""


# --- performance monitoring ------------------------------------------------


class PerfMonitor:
    """Sliding-window throughput/latency tracking for both instances."""

    def __init__(self, window: int):
        self.window = window
        self.reset()

    def reset(self) -> None:
        self.commits: dict[int, deque] = {0: deque(maxlen=self.window), 1: deque(maxlen=self.window)}
        self.totals: dict[int, int] = {0: 0, 1: 0}

    def record(self, instance: int, commit_time: int, latency: float) -> None:
        self.commits[instance].append((commit_time, latency))
        self.totals[instance] += 1

    def count(self, instance: int) -> int:
        return len(self.commits[instance])

    def throughput(self, instance: int, now: int) -> float:
        """Committed batches per simulated ms over the retained window."""
        window = self.commits[instance]
        if not window:
            return 0.0
        span = max(now - window[0][0], 1)
        return len(window) / span

    def mean_latency(self, instance: int) -> float:
        window = self.commits[instance]
        if not window:
            return 0.0
        return sum(lat for _, lat in window) / len(window)

    def evaluate(self, master: int, backup: int, config: ConsensusConfig, now: int) -> int | None:
        """Return the instance to promote, or None to keep the master.

        The ratio comparison runs once both instances have a full window. A
        master that made almost no progress while the backup filled three
        windows is treated as stalled and replaced outright.
        """
        if self.count(backup) < config.window:
            return None
        if self.count(master) < config.window:
            if self.totals[backup] >= 3 * config.window:
                return backup
            return None
        master_tp = self.throughput(master, now)
        backup_tp = self.throughput(backup, now)
        if master_tp == 0 or backup_tp / master_tp > config.delta:
            return backup
        master_lat = self.mean_latency(master)
        backup_lat = self.mean_latency(backup)
        if backup_lat > 0 and master_lat / backup_lat > config.delta:
            return backup
        return None


# --- per-instance bookkeeping ----------------------------------------------


# A node makes a slot only for a seq within SEQ_WINDOW above its instance's
# committed frontier (PBFT's water marks h and h + L), and keeps a vote only for
# an epoch within VOTE_WINDOW above its own. A primary proposes only within half
# its window, so a node whose frontier lags the primary's by less than the other
# half still takes the proposal in. The widest seen in any measured run is 40
# seqs (a 2000-txn burst) and 2 epochs (the partition case).
SEQ_WINDOW = 128
VOTE_WINDOW = 4


@dataclass(slots=True)
class Slot:
    """One (instance, seq): the bodies seen, and each node's first vote in each
    phase. This node's own Prepare is the batch it accepted from the primary."""

    batches: dict[str, Batch] = field(default_factory=dict)
    prepares: dict[int, str] = field(default_factory=dict)
    commits: dict[int, str] = field(default_factory=dict)
    exec_readies: dict[int, str] = field(default_factory=dict)
    committed_digest: str | None = None
    fetched: str | None = None  # the digest of the body this node asked a peer for


@dataclass
class InstanceState:
    primary: int
    next_seq: int = 1
    slots: dict[int, Slot] = field(default_factory=dict)
    # primary only: admitted txns not yet proposed nor applied, in admission order
    unproposed: dict[str, LedgerTransaction] = field(default_factory=dict)
    last_committed: int = 0  # highest contiguous committed seq

    def slot(self, seq: int) -> Slot | None:
        """The slot of ``seq``, made only within the window: every seq at or
        below ``last_committed`` has its slot already."""
        slot = self.slots.get(seq)
        if slot is None and self.last_committed < seq <= self.last_committed + SEQ_WINDOW:
            slot = self.slots[seq] = Slot()
        return slot

    def proposable(self) -> bool:
        """Whether ``next_seq`` is within the primary's half of the window."""
        return self.next_seq <= self.last_committed + SEQ_WINDOW // 2

    def bump_committed(self) -> None:
        while (slot := self.slots.get(self.last_committed + 1)) is not None and slot.committed_digest is not None:
            self.last_committed += 1


# --- the node ---------------------------------------------------------------


class ConsensusNode:
    """One replica: request pool, two ordering instances, execution, monitor."""

    def __init__(
        self,
        node_id: int,
        config: ConsensusConfig,
        network: SimNetwork,
        node_keys: dict[int, bytes],
        signing_private: bytes,
        log: Callable[[int, int, str, dict], None],
        horizon: int = 0,
    ):
        self.id = node_id
        self.config = config
        self.net = network
        self.node_keys = node_keys
        self.signing_private = signing_private
        self.log = log
        self.horizon = horizon
        self.peers = [n for n in sorted(node_keys) if n != node_id]
        self.quorum = config.quorum

        self.chain = Chain.new(config.genesis_timestamp)
        self.state = (
            NodeState()
            if config.denied_fields is None
            else NodeState(denied_fields=frozenset(config.denied_fields))
        )
        self.applied: set = set()
        self.pending: dict[str, LedgerTransaction] = {}
        self.first_seen: dict[str, int] = {}
        # ``verdict_key`` -> signature verdict, computed ahead for the events
        # due at the current ms (``Simulation``) and dropped after them
        self.verdicts: dict[tuple[str, bytes, bytes], bool] = {}

        self.instances = {0: InstanceState(primary=0), 1: InstanceState(primary=1)}
        self.master_instance = 0
        self.epoch = 0
        self.exec_cursor = {0: 0, 1: 0}
        self.pending_switch: dict | None = None
        self.votes: dict[int, dict[int, InstanceChangeVote]] = {}
        self.voted_epoch = 0  # the highest epoch voted for; above ``epoch``, the master is frozen
        self.cert_epoch = 0  # the highest epoch this node proposed a certificate for
        self.exec_blocked_since: int | None = None
        self.exec_blocked_cursor = 0  # master exec_cursor when the stall clock started

        self.monitor = PerfMonitor(config.window)
        self.crashed = False  # tested only where events enter: on_message, on_timer, on_submit
        self.equivocate_from: int | None = None
        self.batch_timer_armed = {0: False, 1: False}
        self.rejected_submissions = 0

    # -- helpers

    def _event(self, event_type: str, **detail: Any) -> None:
        self.log(self.net.now, self.id, event_type, detail)

    def _broadcast(self, message: Any) -> None:
        self.net.broadcast(self.id, self.peers, message)

    def _backup_id(self) -> int:
        return 1 - self.master_instance

    def is_equivocating(self) -> bool:
        return self.equivocate_from is not None and self.net.now >= self.equivocate_from

    # -- client requests

    def on_submit(self, txn: LedgerTransaction) -> bool:
        """Client submission: signature-gate, pool, gossip. Returns the ack."""
        if self.crashed:
            return False
        if not self._admit(SUBMIT, txn):
            self.rejected_submissions += 1
            self._event("submit_rejected", txn_id=txn.id_hex)
            return False
        return True

    def on_request(self, src: int, request: Request) -> None:
        self._admit(DELIVER, request)

    def admission_check(self, kind: str, payload: Any) -> tuple[LedgerTransaction, bytes] | None:
        """The (record, key) whose signature ``_admit`` verifies, and the
        ``Simulation`` verifies ahead, when this node takes in ``payload`` as a
        SUBMIT or as a DELIVER from a peer. None where it verifies none: it has
        crashed, the delivery is no well-formed ``Request`` of a txn it has not
        seen (``on_message``'s tests), the id does not recompute, or
        ``signing_key`` finds no key for the record."""
        if self.crashed:
            return None
        if kind == DELIVER:
            if type(payload) is not Request or not _well_formed(payload, self.instances):
                return None
            payload = payload.txn
            if payload.id_hex in self.first_seen:
                return None
        elif kind != SUBMIT:
            return None
        key = signing_key(self.state, payload) if payload.id_recomputes() else None
        return None if key is None else (payload, key)

    def _admit(self, kind: str, payload: Any) -> bool:
        """The one admission gate: whether ``admission_check`` names a (record,
        key) and the signature verifies, by the verdict this node holds for
        them or else by a verify now; if so, pool and gossip the record the
        first time it is seen. The id does not cover the signature bytes, so the
        gate comes first: a re-signed copy of a seen txn is still refused."""
        check = self.admission_check(kind, payload)
        if check is None:
            return False
        txn, key = check
        verdict = self.verdicts.get(verdict_key(txn, key)) if self.verdicts else None
        if not (txn.verify_signature(key) if verdict is None else verdict):
            return False
        txn_id = txn.id_hex
        if txn_id in self.first_seen:
            return True
        self.first_seen[txn_id] = self.net.now
        if txn_id in self.applied:
            return True
        self.pending[txn_id] = txn
        self._broadcast(Request(txn))
        for instance_id, instance in self.instances.items():
            if instance.primary != self.id:
                continue
            instance.unproposed[txn_id] = txn
            if len(instance.unproposed) >= self.config.batch_max:
                self.propose(instance_id)
            elif not self.batch_timer_armed[instance_id]:
                self.batch_timer_armed[instance_id] = True
                self.net.timer(self.id, self.config.batch_timeout, ("batch", instance_id))
        return True

    # -- proposing

    def on_batch_timer(self, instance_id: int) -> None:
        self.batch_timer_armed[instance_id] = False
        self.propose(instance_id)

    def propose(self, instance_id: int) -> None:
        instance = self.instances[instance_id]
        seq = instance.next_seq
        candidates = list(islice(instance.unproposed.values(), self.config.batch_max))
        if not candidates or not instance.proposable():  # ``_commit`` proposes again as the window moves
            return
        instance.next_seq += 1
        for txn in candidates:
            del instance.unproposed[txn.id_hex]
        batch = Batch(instance_id, seq, self.net.now, tuple(candidates))
        if self.is_equivocating() and len(self.peers) >= 2:
            # same seq, conflicting content, to disjoint halves of the peers
            twin = replace(batch, timestamp=batch.timestamp + 1)
            half = len(self.peers) // 2
            for dst in self.peers[:half]:
                self.net.send(self.id, dst, PrePrepare(instance_id, seq, batch))
            for dst in self.peers[half:]:
                self.net.send(self.id, dst, PrePrepare(instance_id, seq, twin))
            self._event("equivocation", instance=instance_id, seq=seq)
        else:
            self._broadcast(PrePrepare(instance_id, seq, batch))
        self._accept_preprepare(instance_id, seq, batch)
        if instance.unproposed and not self.batch_timer_armed[instance_id]:
            self.batch_timer_armed[instance_id] = True
            self.net.timer(self.id, self.config.batch_timeout, ("batch", instance_id))

    # -- three-phase handlers

    def on_preprepare(self, src: int, msg: PrePrepare) -> None:
        if src != self.instances[msg.instance].primary:
            return
        if msg.batch.instance != msg.instance or msg.batch.seq != msg.seq:
            return
        if msg.batch.control is not None and not self._control_valid(msg.batch):
            return
        self._accept_preprepare(msg.instance, msg.seq, msg.batch)

    def _accept_preprepare(self, instance_id: int, seq: int, batch: Batch) -> None:
        slot = self.instances[instance_id].slot(seq)
        if slot is None:
            return
        digest = batch.digest_hex()
        slot.batches[digest] = batch
        if self.id not in slot.prepares:
            slot.prepares[self.id] = digest
            self._broadcast(Prepare(instance_id, seq, digest))
            self._check_prepared(instance_id, seq, slot)

    def on_prepare(self, src: int, msg: Prepare) -> None:
        slot = self.instances[msg.instance].slot(msg.seq)
        if slot is not None:
            slot.prepares.setdefault(src, msg.digest)
            self._check_prepared(msg.instance, msg.seq, slot)

    def _quorum(self, votes: dict[int, str], digest: str | None) -> bool:
        """Whether 2f+1 nodes' votes in one phase are for ``digest``."""
        return list(votes.values()).count(digest) >= self.quorum

    def _check_prepared(self, instance_id: int, seq: int, slot: Slot) -> None:
        digest = slot.prepares.get(self.id)
        if digest is None or self.id in slot.commits or not self._quorum(slot.prepares, digest):
            return
        slot.commits[self.id] = digest
        self._broadcast(Commit(instance_id, seq, digest))
        self._check_committed(instance_id, seq, slot, digest)

    def on_commit(self, src: int, msg: Commit) -> None:
        slot = self.instances[msg.instance].slot(msg.seq)
        if slot is not None:
            slot.commits.setdefault(src, msg.digest)
            self._check_committed(msg.instance, msg.seq, slot, msg.digest)

    def _check_committed(self, instance_id: int, seq: int, slot: Slot, digest: str) -> None:
        """Commit the slot if ``digest``, the one whose commits or body just
        arrived, holds a commit quorum. Each node's first commit counts once,
        so two digests can never both reach 2f+1 of 3f+1."""
        if slot.committed_digest is not None or not self._quorum(slot.commits, digest):
            return
        if digest in slot.batches:
            self._commit(instance_id, seq, digest)
        elif slot.fetched is None:
            # commit certificate without the body: fetch it from a committer
            slot.fetched = digest
            holders = sorted(n for n, d in slot.commits.items() if d == digest and n != self.id)
            if holders:
                self.net.send(self.id, holders[0], FetchBatch(instance_id, seq, digest))

    def on_fetch(self, src: int, msg: FetchBatch) -> None:
        slot = self.instances[msg.instance].slots.get(msg.seq)
        if slot is not None and msg.digest in slot.batches:
            self.net.send(self.id, src, BatchReply(msg.instance, msg.seq, slot.batches[msg.digest]))

    def on_batch_reply(self, src: int, msg: BatchReply) -> None:
        # only the body this node fetched, checked by the batch's actual digest:
        # a wrong or unasked-for body is dropped, so a slot keeps one body
        slot = self.instances[msg.instance].slots.get(msg.seq)
        digest = msg.batch.digest_hex()
        if slot is None or slot.fetched != digest:
            return
        slot.batches[digest] = msg.batch
        self._check_committed(msg.instance, msg.seq, slot, digest)

    def _commit(self, instance_id: int, seq: int, digest: str) -> None:
        instance = self.instances[instance_id]
        slot = instance.slots[seq]
        slot.committed_digest = digest
        instance.bump_committed()
        batch = slot.batches[digest]
        if batch.control is None:
            latency = self._batch_latency(batch)
            self.monitor.record(instance_id, self.net.now, latency)
        self._event("commit", instance=instance_id, seq=seq, txns=len(batch.txns))
        if instance_id != self.master_instance or self.voted_epoch <= self.epoch:
            slot.exec_readies[self.id] = digest
            self._broadcast(ExecReady(instance_id, seq, digest))
        if batch.control is not None:
            self._apply_switch_cert(batch.control)
        self.try_execute()
        held = instance.unproposed
        if held and (len(held) >= self.config.batch_max or not self.batch_timer_armed[instance_id]):
            # only a full window holds back batch_max txns, or some with no
            # batch timer armed: propose them as the window moves
            self.propose(instance_id)

    def _batch_latency(self, batch: Batch) -> float:
        """Mean ms from first sight to now over the batch's txns: the integer
        sum of the latencies over their count."""
        count = len(batch.txns)
        if not count:
            return float(self.net.now - batch.timestamp)
        first_seen, default = self.first_seen, batch.timestamp
        seen = sum([first_seen.get(txn.id_hex, default) for txn in batch.txns])
        return (self.net.now * count - seen) / count

    def on_exec_ready(self, src: int, msg: ExecReady) -> None:
        slot = self.instances[msg.instance].slot(msg.seq)
        if slot is None:
            return
        slot.exec_readies.setdefault(src, msg.digest)
        # every handler leaves execution at its fixed point, so only the
        # master's next slot can have become executable
        if msg.instance == self.master_instance and msg.seq == self.exec_cursor[msg.instance] + 1:
            self.try_execute()

    # -- instance change

    def on_monitor_tick(self) -> None:
        if not self.pending_switch:
            decision = self.monitor.evaluate(
                self.master_instance, self._backup_id(), self.config, self.net.now
            )
            if decision is None and (self._execution_stalled() or self._requests_stalled()):
                decision = self._backup_id()
            if decision is not None:
                self._cast_vote(decision)
        self._maybe_propose_cert()
        if self.net.now + self.config.monitor_interval <= self.horizon:
            self.net.timer(self.id, self.config.monitor_interval, ("monitor", None))

    def _execution_stalled(self) -> bool:
        """Committed master batches are waiting on execution authorization for
        longer than the stall bound — vote so an instance change can unstick."""
        cursor = self.exec_cursor[self.master_instance]
        if self.instances[self.master_instance].last_committed <= cursor:
            self.exec_blocked_since = None
            return False
        if self.exec_blocked_since is None or cursor != self.exec_blocked_cursor:  # moved: restart
            self.exec_blocked_since, self.exec_blocked_cursor = self.net.now, cursor
            return False
        return self.net.now - self.exec_blocked_since >= self.config.stall_vote_after

    def _requests_stalled(self) -> bool:
        """A valid admitted request has gone unserved past the stall bound:
        the master instance is not making progress for clients (e.g. its
        primary equivocates or crashed), so push for an instance change."""
        for txn_id in self.pending:  # admission order: the oldest comes first
            return self.net.now - self.first_seen[txn_id] >= self.config.stall_vote_after
        return False

    def _cast_vote(self, new_master: int) -> None:
        epoch = self.epoch + 1
        if self.voted_epoch >= epoch:
            return
        self.voted_epoch = epoch
        vote = InstanceChangeVote.create(
            epoch, new_master, self.instances[self.master_instance].last_committed, self.id, self.signing_private
        )
        self.votes.setdefault(epoch, {})[self.id] = vote
        self._broadcast(vote)
        self._event("instance_change_vote", epoch=epoch, new_master=new_master, last_committed=vote.last_committed)
        self._maybe_propose_cert()

    def on_vote(self, src: int, vote: InstanceChangeVote) -> None:
        if not self.epoch < vote.epoch <= self.epoch + VOTE_WINDOW:
            return
        if vote.voter != src or not vote.verify_with(self.node_keys.get(vote.voter, b"")):
            return
        self.votes.setdefault(vote.epoch, {})[vote.voter] = vote
        # join rule: f+1 distinct voters means at least one honest node saw
        # degradation; join so the change can reach quorum
        if len(self.votes[vote.epoch]) >= self.config.f + 1 and vote.epoch == self.epoch + 1:
            self._cast_vote(vote.new_master)
        self._maybe_propose_cert()

    def _maybe_propose_cert(self) -> None:
        """The proposed new master's primary turns a vote quorum into a control
        batch ordered through its own instance."""
        epoch = self.epoch + 1
        votes = self.votes.get(epoch, {})
        if len(votes) < self.quorum or self.cert_epoch >= epoch:
            return
        new_master = self._backup_id()
        instance = self.instances[new_master]
        if instance.primary != self.id or not instance.proposable():
            return
        chosen = sorted(votes)[: self.quorum]
        cert_votes = [votes[v] for v in chosen]
        cutover = max(v.last_committed for v in cert_votes)
        self.cert_epoch = epoch
        control = {
            "epoch": epoch,
            "new_master": new_master,
            "old_master": self.master_instance,
            "cutover": cutover,
            "votes": [v.to_dict() for v in cert_votes],
        }
        seq = instance.next_seq
        instance.next_seq += 1
        batch = Batch(new_master, seq, self.net.now, (), control=control)
        self._broadcast(PrePrepare(new_master, seq, batch))
        self._accept_preprepare(new_master, seq, batch)

    def _control_valid(self, batch: Batch) -> bool:
        control = batch.control
        try:
            if control["epoch"] != self.epoch + 1:
                return False
            # it demotes this node's master for the other instance: ``try_execute`` reads both as instance ids
            old, new = control["old_master"], control["new_master"]
            if type(old) is not int or type(new) is not int or (old, new) != (self.master_instance, 1 - old):
                return False
            votes = [InstanceChangeVote.from_dict(v) for v in control["votes"]]
            if len({v.voter for v in votes}) < self.quorum:
                return False
            for vote in votes:
                if vote.epoch != control["epoch"] or vote.new_master != control["new_master"]:
                    return False
                if not vote.verify_with(self.node_keys.get(vote.voter, b"")):
                    return False
            return control["cutover"] == max(v.last_committed for v in votes)
        except (KeyError, TypeError, ValueError):
            return False

    def _apply_switch_cert(self, control: dict) -> None:
        if control["epoch"] != self.epoch + 1:
            return
        self.pending_switch = control
        self._event("instance_change_cert", epoch=control["epoch"], cutover=control["cutover"])

    # -- execution

    def try_execute(self) -> None:
        while True:
            if self.pending_switch is not None:
                old = self.pending_switch["old_master"]
                cutover = self.pending_switch["cutover"]
                while self.exec_cursor[old] < cutover:
                    slot = self.instances[old].slots.get(self.exec_cursor[old] + 1)
                    if slot is None or slot.committed_digest is None:
                        return  # wait for delayed commits of the demoted master
                    self._execute_next(old)
                self.epoch = self.pending_switch["epoch"]
                self.master_instance = self.pending_switch["new_master"]
                self.pending_switch = None
                self.exec_blocked_since = None
                self.monitor.reset()
                self._event("instance_change", epoch=self.epoch, master_instance=self.master_instance)
                continue
            master_id = self.master_instance
            slot = self.instances[master_id].slots.get(self.exec_cursor[master_id] + 1)
            if slot is None or not self._quorum(slot.exec_readies, slot.committed_digest):
                return
            self._execute_next(master_id)

    def _execute_next(self, instance_id: int) -> None:
        seq = self.exec_cursor[instance_id] + 1
        slot = self.instances[instance_id].slots[seq]
        self.exec_cursor[instance_id] = seq
        batch = slot.batches[slot.committed_digest]
        if batch.control is not None:
            return
        applied, pending = self.applied, self.pending
        pools = [instance.unproposed for instance in self.instances.values() if instance.unproposed]
        fresh = []
        for txn in batch.txns:
            txn_id = txn.id_hex
            if txn_id in applied:
                continue
            applied.add(txn_id)
            pending.pop(txn_id, None)
            for pool in pools:
                pool.pop(txn_id, None)
            fresh.append(txn)
        accepted = []
        for txn, rejection in zip(fresh, fold_into(self.state, fresh)):
            if rejection is None:
                accepted.append(txn)
            else:
                self._event("txn_rejected", txn_id=txn.id_hex, reason=rejection.value)
        if accepted:
            block = build_block(self.chain.head, accepted, batch.timestamp)
            self.chain = self.chain.append(block)
            self._event("ledger_append", height=block.height, instance=instance_id, seq=seq, epoch=self.epoch,
                        txns=len(accepted))

    # -- dispatch

    def on_timer(self, payload: tuple) -> None:
        if self.crashed:
            return
        kind, data = payload
        if kind == "batch":
            self.on_batch_timer(data)
        elif kind == "monitor":
            self.on_monitor_tick()

    def on_message(self, src: int, message: Any) -> None:
        if self.crashed:
            return
        kind = type(message)
        handler = _HANDLERS.get(kind)
        if handler is None or not _well_formed(message, self.instances):
            return
        if kind is Request and message.txn.id_hex in self.first_seen:
            return  # most of the gossip, dropped here as ``admission_check`` would drop it
        getattr(self, handler)(src, message)


def verdict_key(txn: LedgerTransaction, key: bytes) -> tuple[str, bytes, bytes]:
    """What the verdict of ``txn.verify_signature(key)`` is a function of, for
    a record whose id recomputes: its id stands for its payload bytes."""
    return txn.id_hex, txn.author_signature, key


def _well_formed(message: Any, instances: dict) -> bool:
    """Whether a peer's message holds what its handler reads: a record in a
    ``Request``, int fields in an ``InstanceChangeVote``, and in a message
    that names a slot, an int instance among ``instances``, an int seq
    (``type(...) is int``: a bool is no seq), and a str digest or a ``Batch``
    body of records with an int timestamp whose digest computes."""
    kind = type(message)
    if kind is Request:
        return _is_record(message.txn)
    if kind is InstanceChangeVote:
        fields = (message.epoch, message.new_master, message.last_committed, message.voter)
        return all(type(value) is int for value in fields)
    if type(message.instance) is not int or message.instance not in instances or type(message.seq) is not int:
        return False
    if kind is not PrePrepare and kind is not BatchReply:
        return type(message.digest) is str
    batch = message.batch
    if type(batch) is not Batch or type(batch.timestamp) is not int or type(batch.txns) is not tuple:
        return False
    if not all(map(_is_record, batch.txns)):
        return False
    try:
        batch.digest_hex()
    except (UnsupportedType, UnicodeEncodeError):  # a member the canonical encoding refuses
        return False
    return True


def _is_record(txn: Any) -> bool:
    """Whether a peer's ``txn`` is a record whose type, id and signature a node
    can read; a payload, author or timestamp that the canonical encoding
    refuses fails the record's id check and its batch's digest instead."""
    return (
        type(txn) is LedgerTransaction
        and type(txn.txn_type) is TxnType
        and type(txn.author_signature) is bytes
        and type(txn.txn_id) is Digest
    )


# message type -> the ConsensusNode method that handles it, looked up by name on
# each call, so that a handler patched on the class or the node is honoured
_HANDLERS = {
    Request: "on_request",
    PrePrepare: "on_preprepare",
    Prepare: "on_prepare",
    Commit: "on_commit",
    ExecReady: "on_exec_ready",
    InstanceChangeVote: "on_vote",
    FetchBatch: "on_fetch",
    BatchReply: "on_batch_reply",
}
