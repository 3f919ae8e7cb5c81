"""Simulation harness: wires nodes to the network, injects workload and
faults, runs the event loop to completion, and emits a deterministic report.

A run is a pure function of (consensus config, network config, fault plan,
workload, seed): identical inputs give byte-identical reports and event logs.
All report values are integers or strings so the canonical-JSON rendering is
exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable

from .canonical import canonical_json, write_atomic
from .consensus import ConsensusConfig, ConsensusNode, FaultPlan
from .crypto import generate_encryption_keypair, generate_signing_keypair, sha256
from .ledger import LedgerTransaction, TxnType
from .simnet import CONTROL, DELIVER, SUBMIT, TIMER, LinkProfile, NetworkConfig, Partition, SimNetwork
from .state import DidDocument, derive_did, did_reg_payload

MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class WorkloadItem:
    time: int
    node: int
    txn: LedgerTransaction


class Simulation:
    """One in-process network of 3f+1 consensus nodes over simulated time."""

    def __init__(
        self,
        config: ConsensusConfig,
        net_config: NetworkConfig | None = None,
        faults: FaultPlan | None = None,
        seed: int = 0,
        horizon: int = 0,
    ):
        config.validate()
        self.config = config
        self.seed = seed
        self.horizon = horizon
        self.faults = faults or FaultPlan()
        net_config = net_config or NetworkConfig(n=config.n)
        if net_config.n != config.n:
            raise ValueError(f"network has {net_config.n} nodes, consensus needs {config.n}")
        self.network = SimNetwork(net_config, seed)
        self.events: list[dict] = []
        self.submitted = 0
        self.accepted = 0
        # (ms, node) -> the txns due to that node at that ms, in submission
        # order: one SUBMIT event, whose entry goes when it runs
        self._submissions: dict[tuple[int, int], list[LedgerTransaction]] = {}

        node_keys: dict[int, bytes] = {}
        privates: dict[int, bytes] = {}
        for i in range(config.n):
            pair = generate_signing_keypair(sha256(f"consensus-node:{seed}:{i}".encode()).value)
            node_keys[i] = pair.public
            privates[i] = pair.private
        self.nodes = [
            ConsensusNode(i, config, self.network, node_keys, privates[i], self.events, horizon)
            for i in range(config.n)
        ]
        for node_id, at in sorted(self.faults.crash.items()):
            self.network.inject(at, CONTROL, node_id, "crash")
        for node_id, at in sorted(self.faults.equivocate.items()):
            self.nodes[node_id].equivocate_from = at
        if horizon > 0:
            for node in self.nodes:
                self.network.timer(node.id, config.monitor_interval, ("monitor", None))

    @property
    def now(self) -> int:
        return self.network.now

    def submit_at(self, at: int, node: int, txn: LedgerTransaction) -> None:
        due = (max(at, self.now), node)
        txns = self._submissions.get(due)
        if txns is None:
            txns = self._submissions[due] = []
            self.network.inject(at, SUBMIT, node, txns)
        txns.append(txn)

    def run(self) -> None:
        """Drain the event queue, one event at a time. Recurring timers stop
        at the horizon, so this terminates once all in-flight work settles."""
        network, nodes = self.network, self.nodes
        processed = 0
        for _, _, kind, node_id, payload, src in iter(network.pop, None):
            processed += 1
            if processed > MAX_EVENTS:
                raise RuntimeError("event budget exceeded; simulation is not settling")
            node = nodes[node_id]
            if kind == DELIVER:
                node.on_message(src, payload)
            elif kind == TIMER:
                node.on_timer(payload)
            elif kind == SUBMIT:
                del self._submissions[network.now, node_id]
                self.submitted += len(payload)
                self.accepted += node.on_submit(payload)
            elif kind == CONTROL and payload == "crash":
                node.crashed = True
                node._event("crash")

    def settle(self, txn: LedgerTransaction, node: int = 0) -> bool:
        """Scenario helper: submit now, run to quiescence, report whether the
        transaction was applied on every honest node."""
        self.submit_at(self.now, node, txn)
        self.run()
        return all(
            txn.txn_id.hex in n.applied for n in self.nodes if self.is_honest(n.id)
        )

    def is_honest(self, node_id: int) -> bool:
        return node_id not in self.faults.crash and node_id not in self.faults.equivocate

    def honest_nodes(self) -> list[ConsensusNode]:
        return [n for n in self.nodes if self.is_honest(n.id)]

    def safety_violations(self) -> int:
        """Count (instance, seq) pairs where two honest nodes committed
        different batch digests — must always be zero."""
        digests: dict[tuple[int, int], set[str]] = {}
        for node in self.honest_nodes():
            for instance_id, instance in node.instances.items():
                for seq, slot in instance.slots.items():
                    if slot.committed_digest is not None:
                        digests.setdefault((instance_id, seq), set()).add(slot.committed_digest)
        return sum(len(committed) > 1 for committed in digests.values())

    def honest_chains_fork(self) -> bool:
        """Whether two honest chains diverge: neither one's block hashes are a
        prefix of the other's. A chain that only lags behind is a prefix."""
        chains = [[block.block_hash for block in node.chain.blocks] for node in self.honest_nodes()]
        longest = max(chains, key=len, default=[])
        return any(chain != longest[: len(chain)] for chain in chains)

    def report(self) -> "SimReport":
        per_node = []
        for node in self.nodes:
            per_node.append(
                {
                    "node": node.id,
                    "honest": self.is_honest(node.id),
                    "crashed": node.crashed,
                    "chain_digest": node.chain.digest().hex,
                    "chain_height": node.chain.height,
                    "ledger_txns": node.chain.txn_count(),
                    "committed_batches": {
                        "0": node.instances[0].last_committed,
                        "1": node.instances[1].last_committed,
                    },
                    "epoch": node.epoch,
                    "master_instance": node.master_instance,
                    "rejected_submissions": node.rejected_submissions,
                }
            )
        honest_digests = sorted(
            {entry["chain_digest"] for entry in per_node if entry["honest"]}
        )
        instance_changes = [e for e in self.events if e["event_type"] == "instance_change"]
        commit_events = [e for e in self.events if e["event_type"] == "commit"]
        return SimReport(
            seed=self.seed,
            f=self.config.f,
            n=self.config.n,
            horizon=self.horizon,
            end_time=self.now,
            submitted=self.submitted,
            accepted=self.accepted,
            messages_sent=self.network.sent,
            messages_dropped=self.network.dropped,
            per_node=per_node,
            honest_digests=honest_digests,
            safety_violations=self.safety_violations(),
            instance_change_count=len(instance_changes),
            instance_changes=[
                {"time": e["time"], "node": e["node"], **e["detail"]} for e in instance_changes
            ],
            commit_count=len(commit_events),
        )

    def write_events(self, path: str | Path) -> None:
        write_atomic(path, "".join(canonical_json(event) + "\n" for event in self.events))


@dataclass(frozen=True)
class SimReport:
    seed: int
    f: int
    n: int
    horizon: int
    end_time: int
    submitted: int
    accepted: int
    messages_sent: int
    messages_dropped: int
    per_node: list
    honest_digests: list
    safety_violations: int
    instance_change_count: int
    instance_changes: list
    commit_count: int

    @property
    def honest_chains_agree(self) -> bool:
        return len(self.honest_digests) <= 1

    def to_dict(self) -> dict:
        return {**asdict(self), "honest_chains_agree": self.honest_chains_agree}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def synthetic_did_workload(
    count: int, seed: int, start: int = 10, interval: int = 40, node: int = 0
) -> list[WorkloadItem]:
    """Deterministic workload of self-certifying DID registrations."""
    items = []
    for i in range(count):
        signing = generate_signing_keypair(sha256(f"workload:{seed}:{i}:sign".encode()).value)
        agreement = generate_encryption_keypair(sha256(f"workload:{seed}:{i}:agree".encode()).value)
        did = derive_did(signing.public)
        document = DidDocument(
            verification_key=signing.public,
            agreement_key=agreement.public,
            endpoint=f"sim://workload/{i}",
        )
        at = start + i * interval
        txn = LedgerTransaction.create(
            TxnType.DID_REG,
            did_reg_payload(did, document),
            author_did=did,
            signing_private=signing.private,
            timestamp=at,
        )
        items.append(WorkloadItem(time=at, node=node, txn=txn))
    return items


def run_simulation(
    config: ConsensusConfig,
    net_config: NetworkConfig | None,
    faults: FaultPlan | None,
    workload: Iterable[WorkloadItem],
    horizon: int,
    seed: int,
) -> tuple[SimReport, Simulation]:
    """Build, feed, and drain a simulation; returns the report and the
    simulation itself (for chain/state/event inspection)."""
    sim = Simulation(config, net_config, faults, seed=seed, horizon=horizon)
    for item in workload:
        sim.submit_at(item.time, item.node, item.txn)
    sim.run()
    return sim.report(), sim


def parse_config(raw: Any) -> tuple[ConsensusConfig, NetworkConfig, FaultPlan]:
    """Decode the JSON configuration format used by the command line. Total:
    whatever does not decode to a configuration raises ValueError."""
    try:
        return _parse_config(raw)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed config: {type(exc).__name__}: {exc}") from exc


def _parse_config(raw: dict) -> tuple[ConsensusConfig, NetworkConfig, FaultPlan]:
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    consensus_raw = raw.get("consensus", {})
    denied = raw.get("privacy", {}).get("denied_fields")
    if denied is not None and not (isinstance(denied, list) and all(isinstance(d, str) for d in denied)):
        raise ValueError("privacy.denied_fields must be a list of field names")
    config = ConsensusConfig(
        f=consensus_raw.get("f", 1),
        window=consensus_raw.get("window", 10),
        delta=consensus_raw.get("delta", 2.0),
        batch_max=consensus_raw.get("batch_max", 5),
        batch_timeout=consensus_raw.get("batch_timeout_ms", 50),
        monitor_interval=consensus_raw.get("monitor_interval_ms", 200),
        stall_vote_after=consensus_raw.get("stall_vote_after_ms", 2000),
        genesis_timestamp=consensus_raw.get("genesis_timestamp", 0),
        denied_fields=tuple(denied) if denied is not None else None,
    )
    config.validate()
    declared_n = raw.get("n", consensus_raw.get("n"))
    if declared_n is not None and declared_n != config.n:
        raise ValueError(f"n={declared_n} is not 3f+1 for f={config.f} (need {config.n})")
    n = config.n
    network_raw = raw.get("network", {})
    default_link = LinkProfile(
        min_latency=network_raw.get("min_latency_ms", 5),
        max_latency=network_raw.get("max_latency_ms", 15),
        drop_prob=network_raw.get("drop_prob", 0.0),
    )
    partitions = [
        Partition(
            start=_int(p["start"], "partition start"),
            end=_int(p["end"], "partition end"),
            group_a=frozenset(_int(node, "partition member", n) for node in p["group_a"]),
            group_b=frozenset(_int(node, "partition member", n) for node in p["group_b"]),
        )
        for p in network_raw.get("partitions", [])
    ]
    net_config = NetworkConfig(
        n=n,
        default_link=default_link,
        slow_nodes={_int(int(k), "slow node", n): float(v) for k, v in network_raw.get("slow_nodes", {}).items()},
        partitions=partitions,
    )
    faults_raw = raw.get("faults", {})
    faults = FaultPlan(
        crash={_int(int(k), "crashed node", n): int(v) for k, v in faults_raw.get("crash", {}).items()},
        equivocate={_int(int(k), "equivocating node", n): int(v) for k, v in faults_raw.get("equivocate", {}).items()},
    )
    return config, net_config, faults


def _int(value: Any, what: str, end: int | None = None) -> int:
    """``value`` if it is an integer, non-negative and below ``end`` when given."""
    if type(value) is not int or value < 0 or (end is not None and value >= end):
        bound = f" below {end}" if end is not None else ""
        raise ValueError(f"{what} must be a non-negative integer{bound}, got {value!r}")
    return value


def parse_workload(raw: Any, seed: int, n: int) -> list[WorkloadItem]:
    """Decode the JSON workload format used by the command line for a network
    of ``n`` nodes: ``{"synthetic_registrations": {...}}`` or ``{"txns": [...]}``.
    Raises ValueError for a malformed workload and MalformedRecord for a txn
    record that does not parse."""
    if isinstance(raw, dict) and "synthetic_registrations" in raw:
        params = raw["synthetic_registrations"]
        if not isinstance(params, dict):
            raise ValueError("synthetic_registrations must be a JSON object")
        return synthetic_did_workload(
            count=_int(params.get("count", 50), "count"),
            seed=params.get("seed", seed),
            start=_int(params.get("start_ms", 10), "start_ms"),
            interval=_int(params.get("interval_ms", 40), "interval_ms"),
            node=_int(params.get("node", 0), "node", n),
        )
    if isinstance(raw, dict) and isinstance(raw.get("txns"), list):
        items = []
        for item in raw["txns"]:
            if not isinstance(item, dict) or "txn" not in item:
                raise ValueError(f"workload txn item must be an object with a txn, got {item!r}")
            time = _int(item.get("time"), "workload txn time")
            node = _int(item.get("node", 0), "node", n)
            items.append(WorkloadItem(time=time, node=node, txn=LedgerTransaction.from_dict(item["txn"])))
        return items
    raise ValueError("workload file needs 'synthetic_registrations' or a list of 'txns'")
