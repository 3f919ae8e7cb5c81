import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Identity
import ssiledger.simulation as simulation
from ssiledger.consensus import (
    Batch,
    BatchReply,
    Commit,
    ConsensusConfig,
    ExecReady,
    FaultPlan,
    FetchBatch,
    InstanceChangeVote,
    PerfMonitor,
    Prepare,
    PrePrepare,
    Request,
    SEQ_WINDOW,
    Slot,
    VOTE_WINDOW,
)
from ssiledger.crypto import sha256
from ssiledger.ledger import LedgerTransaction, TxnType
from ssiledger.simnet import LinkProfile, NetworkConfig, Partition
from ssiledger.simulation import (
    Simulation,
    WorkloadItem,
    parse_config,
    run_simulation,
    synthetic_did_workload,
)
from ssiledger.state import (
    AttrType,
    CredDefRecord,
    SchemaRecord,
    cred_def_payload,
    did_reg_payload,
    fold_chain,
    resolve_did,
    schema_payload,
)

FAST = ConsensusConfig(f=1, batch_max=5, batch_timeout=50)
DIGEST = "00" * 32
_TXN = synthetic_did_workload(1, seed=71)[0].txn
# what a peer can send as a record that is none: no object, an unknown type, a
# str signature, a str id
NOT_RECORDS = {
    "none": None,
    "type-x": dataclasses.replace(_TXN, txn_type="X"),
    "str-signature": dataclasses.replace(_TXN, author_signature=_TXN.author_signature.hex()),
    "str-id": dataclasses.replace(_TXN, txn_id=_TXN.txn_id.hex),
}
# messages a faulty peer can send that no honest node sends: a field of the
# wrong type, a seq below 1 or past the window, a body that is no batch of
# records or whose digest does not encode, a request that holds no record, and a
# flood of bodies that no node asked for
MALFORMED = {
    **{f"request-{name}": [Request(txn)] for name, txn in NOT_RECORDS.items()},
    **{f"preprepare-{name}": [PrePrepare(0, 1, Batch(0, 1, 5, (txn,)))] for name, txn in NOT_RECORDS.items() if txn},
    "prepare-far-seq": [Prepare(0, 10**12, DIGEST), Prepare(0, 5000, DIGEST)],
    "commit-far-seq": [Commit(0, SEQ_WINDOW + 1, DIGEST)],
    "exec-ready-far-seq": [ExecReady(1, SEQ_WINDOW + 1, DIGEST)],
    "prepare-list-seq": [Prepare(0, [1], DIGEST)],
    "prepare-seq-0": [Prepare(0, 0, DIGEST)],
    "exec-ready-list-instance": [ExecReady([0], 1, DIGEST)],
    "fetch-list-digest": [FetchBatch(0, 1, ["d"])],
    "commit-str-seq": [Commit(0, "1", DIGEST)],
    "commit-bool-seq": [Commit(0, True, DIGEST)],
    "commit-list-digest": [Commit(0, 1, ["d"])],
    "preprepare-no-body": [PrePrepare(0, 1, None)],
    "preprepare-float-timestamp": [PrePrepare(0, 1, Batch(0, 1, 1.5, ()))],
    "preprepare-txn-not-a-record": [PrePrepare(0, 1, Batch(0, 1, 5, ("txn",)))],
    "preprepare-float-control": [PrePrepare(0, 1, Batch(0, 1, 5, (), control=1.5))],
    "batch-reply-no-body": [BatchReply(0, 1, None)],
    "batch-reply-flood": [BatchReply(0, 1, Batch(0, 1, timestamp, ())) for timestamp in range(1000)],
}
SHARP = ConsensusConfig(f=1, batch_max=2, batch_timeout=20, window=10, delta=2.0)


def _workload(count: int, seed: int, node: int = 1, interval: int = 40):
    return synthetic_did_workload(count, seed=seed, start=10, interval=interval, node=node)


class TestConfig:
    def test_n_is_3f_plus_1(self):
        assert ConsensusConfig(f=1).n == 4
        assert ConsensusConfig(f=2).n == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsensusConfig(f=0).validate()
        with pytest.raises(ValueError):
            ConsensusConfig(delta=1.0).validate()
        with pytest.raises(ValueError):
            ConsensusConfig(batch_max=0).validate()
        with pytest.raises(ValueError, match="^monitor window must be >= 1$"):
            ConsensusConfig(window=0).validate()

    def test_network_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="^network has 7 nodes, consensus needs 4$"):
            Simulation(ConsensusConfig(f=1), NetworkConfig(n=7))

    def test_a_run_past_the_event_budget_stops(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_EVENTS", 50)
        sim = Simulation(FAST, seed=1, horizon=0)
        for item in _workload(3, seed=2):
            sim.submit_at(item.time, item.node, item.txn)
        with pytest.raises(RuntimeError, match="^event budget exceeded; simulation is not settling$"):
            sim.run()


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_node_maps = st.dictionaries(st.sampled_from(["0", "3", "4", "9", "-1", "x"]), _json | st.integers(-1, 5), max_size=3)
_partitions = st.lists(
    st.dictionaries(
        st.sampled_from(["start", "end", "group_a", "group_b"]),
        st.integers(-1, 9) | st.lists(st.integers(-1, 5), max_size=3) | _json,
        max_size=4,
    ),
    max_size=2,
)
_values = _json | st.integers(-2, 12) | st.floats(-2, 12) | _node_maps | _partitions


def _section(*keys: str):
    return _json | st.dictionaries(st.sampled_from(keys), _values, max_size=len(keys))


_configs = _json | st.fixed_dictionaries(
    {},
    optional={
        "n": _values,
        "consensus": _section(
            "f", "n", "window", "delta", "batch_max", "batch_timeout_ms", "monitor_interval_ms",
            "stall_vote_after_ms", "genesis_timestamp",
        ),
        "privacy": _section("denied_fields"),
        "network": _section("min_latency_ms", "max_latency_ms", "drop_prob", "slow_nodes", "partitions"),
        "faults": _section("crash", "equivocate"),
    },
)


@settings(max_examples=400, deadline=None)
@given(_configs)
def test_parse_config_is_total(raw):
    """Any JSON value decodes to a configuration a simulation runs on, or
    raises ValueError; nothing else escapes."""
    try:
        config, net, faults = parse_config(raw)
    except ValueError:
        return
    if config.n <= 10:
        Simulation(config, net, faults, seed=1, horizon=0).run()


class TestPerfMonitor:
    def _fill(self, monitor: PerfMonitor, instance: int, start: int, step: int, latency: float, count: int):
        for i in range(count):
            monitor.record(instance, start + i * step, latency)

    def test_equal_performance_keeps_master(self):
        monitor = PerfMonitor(window=10)
        self._fill(monitor, 0, start=0, step=100, latency=50, count=10)
        self._fill(monitor, 1, start=0, step=100, latency=50, count=10)
        assert monitor.evaluate(0, 1, SHARP, now=1000) is None

    def test_latency_degradation_triggers_switch(self):
        monitor = PerfMonitor(window=10)
        self._fill(monitor, 0, start=0, step=100, latency=300, count=10)  # slow master
        self._fill(monitor, 1, start=0, step=100, latency=50, count=10)
        assert monitor.evaluate(0, 1, SHARP, now=1000) == 1

    def test_mild_degradation_below_threshold_keeps(self):
        monitor = PerfMonitor(window=10)
        self._fill(monitor, 0, start=0, step=100, latency=75, count=10)  # 1.5x
        self._fill(monitor, 1, start=0, step=100, latency=50, count=10)
        assert monitor.evaluate(0, 1, SHARP, now=1000) is None

    def test_throughput_collapse_triggers_switch(self):
        monitor = PerfMonitor(window=10)
        self._fill(monitor, 0, start=0, step=1000, latency=50, count=10)  # crawling
        self._fill(monitor, 1, start=9000, step=100, latency=50, count=10)
        assert monitor.evaluate(0, 1, SHARP, now=10_000) == 1

    def test_stalled_master_with_busy_backup(self):
        monitor = PerfMonitor(window=10)
        self._fill(monitor, 1, start=0, step=50, latency=50, count=30)  # 3W on backup
        assert monitor.evaluate(0, 1, SHARP, now=2000) == 1

    def test_insufficient_backup_data_keeps(self):
        monitor = PerfMonitor(window=10)
        self._fill(monitor, 1, start=0, step=50, latency=50, count=5)
        assert monitor.evaluate(0, 1, SHARP, now=2000) is None


class TestHappyPath:
    def test_all_ledgers_byte_identical(self):
        report, sim = run_simulation(FAST, None, None, _workload(10, seed=1, interval=60), 3000, seed=2)
        assert report.accepted == 10
        assert report.safety_violations == 0
        serialized = {"\n".join(node.chain.to_lines()) for node in sim.nodes}
        assert len(serialized) == 1  # byte-identical, not merely equal digests
        assert sim.nodes[0].chain.txn_count() == 10

    def test_deterministic_report_and_events(self):
        workload = _workload(15, seed=3)
        first, sim_one = run_simulation(FAST, None, None, workload, 3000, seed=9)
        second, sim_two = run_simulation(FAST, None, None, workload, 3000, seed=9)
        assert first.to_json() == second.to_json()
        assert sim_one.events == sim_two.events

    def test_zero_workload_only_genesis(self):
        report, sim = run_simulation(FAST, None, None, [], 2000, seed=4)
        assert report.commit_count == 0
        assert all(node.chain.height == 0 for node in sim.nodes)

    def test_liveness_bound(self):
        # fault-free: every valid transaction applies within
        # 50 x mean link latency x N simulated ms of submission
        config = ConsensusConfig(f=1, batch_max=5, batch_timeout=50)
        workload = _workload(20, seed=5)
        report, sim = run_simulation(config, None, None, workload, 5000, seed=6)
        bound = 50 * 10 * config.n
        applied_at = {node.id: {} for node in sim.nodes}  # node -> txn id -> ms
        for event in sim.events:
            if event["event_type"] == "ledger_append":
                node = sim.nodes[event["node"]]
                for txn in node.chain.blocks[event["detail"]["height"]].txns:
                    applied_at[node.id][txn.txn_id.hex] = event["time"]
        for item in workload:
            for node in sim.nodes:
                applied = applied_at[node.id].get(item.txn.txn_id.hex)
                assert applied is not None, "transaction never applied"
                assert applied - item.time <= bound

    def test_master_only_execution(self):
        report, sim = run_simulation(FAST, None, None, _workload(10, seed=7), 3000, seed=8)
        appends = [e for e in sim.events if e["event_type"] == "ledger_append"]
        assert appends, "nothing executed"
        assert all(e["detail"]["instance"] == 0 for e in appends)  # no change: master stayed 0


class TestSafetyViolations:
    """``safety_violations`` counts each (instance, seq) that two honest nodes
    committed with different digests. Node 3 crashes after the run has
    settled, so it holds committed slots but is not honest."""

    @pytest.fixture
    def sim(self):
        _, sim = run_simulation(FAST, None, FaultPlan(crash={3: 50_000}), _workload(6, seed=13), 3000, seed=14)
        for node in (1, 3):
            for instance in (0, 1):
                assert self._first_committed(sim, node, instance) is not None
        assert sim.safety_violations() == 0
        return sim

    @staticmethod
    def _first_committed(sim, node: int, instance: int) -> int | None:
        slots = sim.nodes[node].instances[instance].slots
        return min((seq for seq, slot in slots.items() if slot.committed_digest is not None), default=None)

    def _conflict(self, sim, node: int, instance: int) -> None:
        seq = self._first_committed(sim, node, instance)
        sim.nodes[node].instances[instance].slots[seq].committed_digest = "ff" * 32

    def test_two_honest_nodes_differ_at_one_slot(self, sim):
        self._conflict(sim, 1, 0)
        assert sim.safety_violations() == 1

    def test_they_differ_on_both_instances(self, sim):
        self._conflict(sim, 1, 0)
        self._conflict(sim, 1, 1)
        assert sim.safety_violations() == 2

    def test_a_seq_committed_on_one_honest_node_only(self, sim):
        slots = sim.nodes[1].instances[0].slots
        slots[max(slots) + 1] = Slot(committed_digest="ff" * 32)
        assert sim.safety_violations() == 0

    def test_a_conflict_on_a_crashed_node_only(self, sim):
        assert sim.nodes[3].crashed
        self._conflict(sim, 3, 0)
        assert sim.safety_violations() == 0


class TestFaultTolerance:
    def test_one_crashed_backup_still_commits(self):
        report, sim = run_simulation(
            FAST, None, FaultPlan(crash={3: 0}), _workload(12, seed=11), 3000, seed=12
        )
        honest = [n for n in sim.nodes if n.id != 3]
        assert all(n.chain.txn_count() == 12 for n in honest)
        assert len({n.chain.digest().hex for n in honest}) == 1
        assert report.safety_violations == 0

    def test_a_crashed_node_takes_nothing_in(self):
        """Messages, timers and submissions all stop at a crashed node's
        entry points: its pool, slots, votes and chain stay empty."""
        workload = _workload(12, seed=11, node=2) + _workload(1, seed=15, node=1)
        report, sim = run_simulation(FAST, None, FaultPlan(crash={1: 0}), workload, 3000, seed=12)
        crashed = sim.nodes[1]
        assert (report.accepted, crashed.rejected_submissions) == (12, 0)
        assert not crashed.first_seen and not crashed.pending and not crashed.votes
        assert all(not instance.slots and not instance.unproposed for instance in crashed.instances.values())
        assert crashed.chain.height == 0 and crashed.monitor.totals == {0: 0, 1: 0}
        assert all(n.chain.txn_count() == 12 for n in sim.nodes if n.id != 1)
        for name in ("_admit", "on_batch_timer", "on_monitor_tick", "on_request", "on_prepare", "on_vote"):
            setattr(crashed, name, None)  # a call past an entry point would raise
        crashed.on_timer(("batch", 1))
        crashed.on_timer(("monitor", None))
        crashed.on_message(0, Request(workload[0].txn))
        assert not crashed.on_submit(workload[0].txn)

    def test_beyond_f_crashes_lose_liveness_keep_safety(self):
        report, sim = run_simulation(
            FAST, None, FaultPlan(crash={2: 0, 3: 0}), _workload(12, seed=13), 3000, seed=14
        )
        assert report.commit_count == 0
        assert all(node.chain.height == 0 for node in sim.nodes)
        assert report.safety_violations == 0

    def test_mid_run_crash_preserves_agreement(self):
        report, sim = run_simulation(
            FAST, None, FaultPlan(crash={3: 800}), _workload(20, seed=15), 4000, seed=16
        )
        honest = [n for n in sim.nodes if n.id != 3]
        assert len({n.chain.digest().hex for n in honest}) == 1
        assert all(n.chain.txn_count() == 20 for n in honest)


class TestMasterReplacement:
    def test_slow_master_replaced_within_two_windows(self):
        net = NetworkConfig(n=4, slow_nodes={0: 10.0})
        report, sim = run_simulation(SHARP, net, None, _workload(60, seed=21), 8000, seed=22)
        assert report.instance_change_count > 0
        switch_time = report.instance_changes[0]["time"]
        master_commits_before = sum(
            1
            for e in sim.events
            if e["event_type"] == "commit"
            and e["node"] == 1
            and e["detail"]["instance"] == 0
            and e["time"] <= switch_time
        )
        assert master_commits_before <= 2 * SHARP.window
        assert report.honest_chains_agree
        assert all(entry["master_instance"] == 1 for entry in report.per_node)
        assert sim.nodes[1].chain.txn_count() == 60

    def test_mild_slowdown_keeps_master(self):
        net = NetworkConfig(n=4, slow_nodes={0: 1.5})
        report, sim = run_simulation(SHARP, net, None, _workload(60, seed=23), 8000, seed=24)
        assert report.instance_change_count == 0
        assert report.honest_chains_agree

    def test_appends_after_switch_come_from_new_master(self):
        net = NetworkConfig(n=4, slow_nodes={0: 10.0})
        report, sim = run_simulation(SHARP, net, None, _workload(60, seed=25), 8000, seed=26)
        assert report.instance_change_count > 0
        for node in sim.nodes:
            switch_at = next(
                e["time"]
                for e in sim.events
                if e["event_type"] == "instance_change" and e["node"] == node.id
            )
            for event in sim.events:
                if event["event_type"] == "ledger_append" and event["node"] == node.id:
                    if event["time"] > switch_at:
                        assert event["detail"]["instance"] == 1


class TestEquivocation:
    def test_equivocating_master_primary_is_contained(self):
        report, sim = run_simulation(
            SHARP,
            None,
            FaultPlan(equivocate={0: 1200}),
            _workload(50, seed=31),
            12_000,
            seed=32,
        )
        assert report.safety_violations == 0
        honest = [n for n in sim.nodes if n.id != 0]
        assert len({n.chain.digest().hex for n in honest}) == 1
        # liveness recovered through an instance change
        assert report.instance_change_count > 0
        assert all(n.chain.txn_count() == 50 for n in honest)

    def test_no_two_honest_nodes_commit_different_batches(self):
        # direct inspection of per-sequence commits, not just the report
        report, sim = run_simulation(
            SHARP, None, FaultPlan(equivocate={0: 600}), _workload(30, seed=33), 10_000, seed=34
        )
        for instance_id in (0, 1):
            all_seqs = set()
            for node in sim.nodes[1:]:
                all_seqs.update(
                    s for s, slot in node.instances[instance_id].slots.items() if slot.committed_digest is not None
                )
            for seq in all_seqs:
                digests = {
                    node.instances[instance_id].slots[seq].committed_digest
                    for node in sim.nodes[1:]
                    if seq in node.instances[instance_id].slots
                    and node.instances[instance_id].slots[seq].committed_digest is not None
                }
                assert len(digests) == 1


class TestSubmissionRules:
    def test_duplicate_submission_commits_once(self):
        sim = Simulation(FAST, seed=41, horizon=0)
        item = synthetic_did_workload(1, seed=42)[0]
        sim.submit_at(5, 0, item.txn)
        sim.submit_at(6, 2, item.txn)
        sim.run()
        assert all(node.chain.txn_count() == 1 for node in sim.nodes)

    def test_invalid_signature_rejected_before_ordering(self):
        sim = Simulation(FAST, seed=43, horizon=0)
        item = synthetic_did_workload(1, seed=44)[0]
        forged = dataclasses.replace(item.txn, author_signature=b"\x11" * 64)
        sim.submit_at(5, 0, forged)
        sim.run()
        assert sim.accepted == 0
        assert sim.nodes[0].rejected_submissions == 1
        assert all(node.chain.height == 0 for node in sim.nodes)

    def test_resigned_copy_of_a_seen_txn_is_refused(self):
        sim = Simulation(FAST, seed=43, horizon=0)
        item = synthetic_did_workload(1, seed=44)[0]
        sim.submit_at(5, 0, item.txn)
        sim.submit_at(6, 0, dataclasses.replace(item.txn, author_signature=b"\x11" * 64))
        sim.run()
        assert (sim.accepted, sim.nodes[0].rejected_submissions) == (1, 1)
        assert all(node.chain.txn_count() == 1 for node in sim.nodes)

    def test_resubmitting_an_admitted_txn_is_acked_and_gossips_nothing(self):
        """A client sends node 0 a txn it admitted a ms before: the node acks
        it again, so ``accepted`` counts it twice, and sends no ``Request``."""
        txn = synthetic_did_workload(1, seed=42)[0].txn
        runs = []
        for times in ([5], [5, 6]):
            sim = Simulation(FAST, seed=3, horizon=0)
            for at in times:
                sim.submit_at(at, 0, txn)
            sim.run()
            runs.append(sim)
        once, twice = runs
        assert (once.accepted, twice.accepted) == (1, 2)
        assert twice.network.sent == once.network.sent == 90
        assert all(node.chain.txn_count() == 1 for node in twice.nodes)

    def test_request_for_a_txn_applied_before_it_was_seen(self):
        """Node 3 commits and executes a batch of the master before any
        ``Request`` for its txn reaches it. The ``Request`` that comes then
        marks the txn seen, pools nothing and makes the node send nothing."""
        sim = Simulation(FAST, seed=1, horizon=0)
        node, txn = sim.nodes[3], synthetic_did_workload(1, seed=42)[0].txn
        batch = Batch(0, 1, 5, (txn,))
        digest = batch.digest_hex()
        messages = [(0, PrePrepare(0, 1, batch))]
        messages += [(src, kind(0, 1, digest)) for kind in (Prepare, Commit, ExecReady) for src in (0, 1)]
        for src, message in messages:
            node.on_message(src, message)
        assert txn.id_hex in node.applied and txn.id_hex not in node.first_seen
        while sim.network.pop() is not None:
            pass
        node.on_message(1, Request(txn))
        assert node.first_seen == {txn.id_hex: sim.now} and not node.pending
        assert sim.network.pop() is None

    def test_state_digests_match_across_nodes(self):
        report, sim = run_simulation(FAST, None, None, _workload(8, seed=45), 3000, seed=46)
        digests = {node.state.digest().hex for node in sim.nodes}
        assert len(digests) == 1

    def test_configured_deny_list_reaches_the_state_machine(self):
        from ssiledger.simulation import parse_config

        config, net, faults = parse_config(
            {"consensus": {"f": 1}, "privacy": {"denied_fields": ["blood_type"]}}
        )
        sim = Simulation(config, net, faults, seed=47, horizon=0)
        assert "blood_type" in sim.nodes[0].state.denied_fields
        assert "name" not in sim.nodes[0].state.denied_fields


class TestExecutionStall:
    @pytest.mark.parametrize("advancing", [True, False])
    def test_stall_vote_only_when_execution_stops(self, advancing):
        sim = Simulation(FAST, seed=51, horizon=0)
        node = sim.nodes[1]
        node.instances[0].last_committed = 1000  # execution never catches up
        for tick in range(1, 2 * FAST.stall_vote_after // FAST.monitor_interval + 1):
            node.net.now = tick * FAST.monitor_interval
            if advancing:
                node.exec_cursor[0] = tick
            node.on_monitor_tick()
        assert (node.voted_epoch > 0) is not advancing
        assert (node.voted_epoch <= node.epoch) is advancing


def _burst(count: int, batch_max: int, net_config: NetworkConfig | None = None):
    """``count`` DID_REGs due at time 0, spread over nodes 1 to 3."""
    config = ConsensusConfig(f=1, batch_max=batch_max, batch_timeout=50)
    items = synthetic_did_workload(count, seed=61, start=0, interval=0)
    workload = [dataclasses.replace(item, node=1 + i % 3) for i, item in enumerate(items)]
    report, sim = run_simulation(config, net_config, None, workload, 0, seed=62)
    return config, workload, sim


class TestBurst:
    def test_burst_lands_once_in_admission_order(self):
        config, workload, sim = _burst(300, 50)
        ids = sorted(item.txn.txn_id.hex for item in workload)
        for node in sim.nodes:
            landed = [txn.txn_id.hex for block in node.chain.blocks for txn in block.txns]
            assert sorted(landed) == ids
        assert len({node.chain.digest().hex for node in sim.nodes}) == 1
        for instance_id in (0, 1):
            primary = sim.nodes[instance_id]
            slots = primary.instances[instance_id].slots
            batches = [slots[seq].batches[slots[seq].prepares[primary.id]] for seq in sorted(slots)]
            assert all(len(batch.txns) <= config.batch_max for batch in batches)
            proposed = [txn.txn_id.hex for batch in batches for txn in batch.txns]
            assert len(proposed) == len(set(proposed))
            chosen = set(proposed)
            assert proposed == [tid for tid in primary.first_seen if tid in chosen]

    def test_a_burst_past_the_window_lands_on_slow_links(self):
        """At ten times the default latency a 700-txn burst needs 140 seqs, more
        than a primary may have open at once: as its window moves, the primary
        proposes what it held back, and every node applies every txn."""
        config, workload, sim = _burst(700, 5, NetworkConfig(default_link=LinkProfile(50, 150)))
        assert max(sim.nodes[0].instances[0].slots) > SEQ_WINDOW
        assert all(_applied_everything(node, workload) for node in sim.nodes)


class TestUnencodableSubmission:
    def test_float_payload_is_rejected_not_raised(self):
        workload = _workload(6, seed=21)
        good = workload[2].txn
        bad = dataclasses.replace(
            good, payload={**good.payload, "weight": 1.5}, txn_id=sha256(b"unencodable")
        )
        at = workload[2].time + 1
        report, sim = run_simulation(
            FAST, None, None, workload + [WorkloadItem(time=at, node=1, txn=bad)], 3000, seed=22
        )
        assert report.accepted == 6
        assert [node.rejected_submissions for node in sim.nodes] == [0, 1, 0, 0]
        rejected = [e for e in sim.events if e["event_type"] == "submit_rejected"]
        assert rejected == [
            {"time": at, "node": 1, "event_type": "submit_rejected", "detail": {"txn_id": bad.txn_id.hex}}
        ]
        assert all(node.chain.txn_count() == 6 for node in sim.nodes)
        node = sim.nodes[2]
        node.on_request(1, Request(bad))  # a peer's gossip is dropped the same way
        assert bad.txn_id.hex not in node.first_seen and bad.txn_id.hex not in node.pending


class TestLiveState:
    """Each node folds executed batches into its own state in place; the
    state must always be the fold of the node's own chain."""

    CASES = {
        "crash": (None, FaultPlan(crash={0: 700}), 6000),
        "delay": (NetworkConfig(n=4, slow_nodes={0: 10.0}), None, 8000),
        "drop": (NetworkConfig(n=4, default_link=LinkProfile(5, 15, drop_prob=0.05)), None, 6000),
        "partition": (
            NetworkConfig(n=4, partitions=[Partition(300, 900, frozenset({0, 1}), frozenset({2, 3}))]),
            None,
            6000,
        ),
        "equivocation": (None, FaultPlan(equivocate={0: 600}), 10_000),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_live_state_is_the_fold_of_the_chain(self, case):
        net, faults, horizon = self.CASES[case]
        _, sim = run_simulation(SHARP, net, faults, _workload(30, seed=63), horizon, seed=64)
        for node in sim.honest_nodes():
            assert node.chain.txn_count() > 0
            assert node.state.to_dict() == fold_chain(node.chain).to_dict()

    def test_rejected_records_leave_no_trace(self):
        issuer = Identity.create("live-issuer")
        schema = SchemaRecord.create("live", "1.0", [("ref", AttrType.STRING)])
        other = SchemaRecord.create("other", "1.0", [("ref", AttrType.STRING)])
        cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)

        def signed(txn_type, payload, timestamp, author=issuer):
            return LedgerTransaction.create(txn_type, payload, author.did, author.signing_private, timestamp)

        sim = Simulation(FAST, seed=61, horizon=0)
        for txn in (
            issuer.registration_txn(1),
            signed(TxnType.SCHEMA, schema_payload(schema), 2),
            signed(TxnType.CRED_DEF, cred_def_payload(cred_def), 3),
        ):
            assert sim.settle(txn)
        private = Identity.create("live-private")
        newcomer = Identity.create("live-newcomer")
        batch = [  # batch_max of them, due at once on the master primary: one batch
            signed(TxnType.DID_REG, did_reg_payload(issuer.did, dataclasses.replace(issuer.document, endpoint="sim://x")), 4),
            signed(
                TxnType.DID_REG,
                did_reg_payload(private.did, dataclasses.replace(private.document, metadata={"email": "a@b"})),
                5,
                author=private,
            ),
            signed(TxnType.SCHEMA, {**schema_payload(other), "schema_id": schema.schema_id.hex}, 6),
            signed(TxnType.REVOC_ENTRY, {"cred_def_id": cred_def.cred_def_id.hex, "revoked": [sha256(b"x").hex, "zz"]}, 7),
            newcomer.registration_txn(8),
        ]
        for txn in batch:
            sim.submit_at(sim.now + 1, 0, txn)
        sim.run()
        rejected = sorted(e["detail"]["reason"] for e in sim.events if e["event_type"] == "txn_rejected")
        assert rejected == sorted(["DuplicateDid", "PrivacyViolation", "Malformed", "Malformed"] * FAST.n)
        for node in sim.nodes:
            assert node.chain.height == 4 and node.chain.head.txns == (batch[-1],)
            assert node.state.to_dict() == fold_chain(node.chain).to_dict()
            assert resolve_did(node.state, issuer.did) == issuer.document
            assert resolve_did(node.state, private.did) is None


class TestRefusedMessages:
    """Each guard on a consensus message from outside: the message goes
    straight to node 3 of a four-node network, which is the primary of neither
    instance. A refused message makes the node send no ``Prepare`` and switch
    no master; the well-formed message each case departs from is accepted."""

    NODE = 3

    @pytest.fixture
    def sim(self):
        return Simulation(FAST, seed=1, horizon=0)

    @staticmethod
    def _vote(sim, voter: int, epoch: int = 1, new_master: int = 1, last_committed: int = 0, key: int | None = None):
        signer = sim.nodes[voter if key is None else key].signing_private
        return InstanceChangeVote.create(epoch, new_master, last_committed, voter, signer)

    def _control(self, sim, votes=None, **changes) -> dict:
        votes = votes if votes is not None else [self._vote(sim, voter) for voter in (0, 1, 2)]
        control = {
            "epoch": 1,
            "new_master": 1,
            "old_master": 0,
            "cutover": max(vote.last_committed for vote in votes),
            "votes": [vote.to_dict() for vote in votes],
        }
        return {**control, **changes}

    @staticmethod
    def _preprepare(control=None, instance: int = 1, seq: int = 1, batch_instance: int = 1, batch_seq: int = 1):
        return PrePrepare(instance, seq, Batch(batch_instance, batch_seq, 5, (), control=control))

    def _deliver(self, sim, src: int, message) -> list:
        """Deliver ``message`` from ``src`` to the node; the types of the
        messages it sends in response."""
        sim.nodes[self.NODE].on_message(src, message)
        sent = []
        while (event := sim.network.pop()) is not None:
            assert event.src == self.NODE
            sent.append(type(event.payload))
        return sent

    def _refused(self, sim, src: int, message) -> None:
        sent = self._deliver(sim, src, message)
        node = sim.nodes[self.NODE]
        assert Prepare not in sent
        assert (node.epoch, node.master_instance, node.pending_switch) == (0, 0, None)

    def test_well_formed_control_batch_is_prepared(self, sim):
        assert self._deliver(sim, 1, self._preprepare(self._control(sim))) == [Prepare] * 3

    def test_well_formed_batch_is_prepared(self, sim):
        assert self._deliver(sim, 1, self._preprepare()) == [Prepare] * 3

    def test_preprepare_from_a_node_that_is_not_the_primary(self, sim):
        self._refused(sim, 2, self._preprepare())

    def test_preprepare_below_seq_1(self, sim):
        self._refused(sim, 1, self._preprepare(seq=0, batch_seq=0))

    def test_batch_of_another_instance(self, sim):
        self._refused(sim, 1, self._preprepare(batch_instance=0))

    def test_batch_of_another_seq(self, sim):
        self._refused(sim, 1, self._preprepare(batch_seq=2))

    @pytest.mark.parametrize("epoch", [0, 2])
    def test_control_for_another_epoch(self, sim, epoch):
        votes = [self._vote(sim, voter, epoch=epoch) for voter in (0, 1, 2)]
        self._refused(sim, 1, self._preprepare(self._control(sim, votes, epoch=epoch)))

    def test_control_with_fewer_than_2f_plus_1_distinct_voters(self, sim):
        votes = [self._vote(sim, voter) for voter in (0, 1, 1)]
        self._refused(sim, 1, self._preprepare(self._control(sim, votes)))

    @pytest.mark.parametrize("change", [{"epoch": 2}, {"new_master": 0}])
    def test_control_holding_a_vote_for_another_epoch_or_master(self, sim, change):
        votes = [self._vote(sim, 0), self._vote(sim, 1), self._vote(sim, 2, **change)]
        self._refused(sim, 1, self._preprepare(self._control(sim, votes)))

    def test_control_holding_a_vote_whose_signature_fails(self, sim):
        votes = [self._vote(sim, 0), self._vote(sim, 1), self._vote(sim, 2, key=3)]
        self._refused(sim, 1, self._preprepare(self._control(sim, votes)))

    @pytest.mark.parametrize("key", ["epoch", "new_master", "cutover", "votes"])
    def test_control_missing_a_key(self, sim, key):
        control = self._control(sim)
        del control[key]
        self._refused(sim, 1, self._preprepare(control))

    def test_control_holding_a_vote_missing_a_key(self, sim):
        control = self._control(sim)
        del control["votes"][2]["signature"]
        self._refused(sim, 1, self._preprepare(control))

    @pytest.mark.parametrize("cutover", [0, 4])
    def test_cutover_that_is_not_the_highest_last_committed(self, sim, cutover):
        votes = [self._vote(sim, 0), self._vote(sim, 1), self._vote(sim, 2, last_committed=3)]
        self._refused(sim, 1, self._preprepare(self._control(sim, votes, cutover=cutover)))
        assert self._deliver(sim, 1, self._preprepare(self._control(sim, votes))) == [Prepare] * 3

    def test_votes_whose_signatures_fail_are_dropped(self, sim):
        """f+1 valid votes make the node join the change; f+1 that do not verify
        are not even recorded."""
        for voter in (0, 1):
            self._refused(sim, voter, self._vote(sim, voter, key=2))
        assert sim.nodes[self.NODE].votes == {}
        for voter in (0, 1):
            sent = self._deliver(sim, voter, self._vote(sim, voter))
        assert sent == [InstanceChangeVote] * 3

    @pytest.mark.parametrize("old_master, new_master", [(7, 1), (1, 0), (0, 0), (True, 1)])
    def test_ordered_control_that_does_not_demote_the_master_is_refused(self, sim, old_master, new_master):
        """The backup primary, holding a valid vote quorum, orders a
        certificate whose old master is not the node's master or whose new
        master is not the other instance. The node prepares none of it, so a
        prepare and a commit quorum of its peers leave it as it was: nothing
        raises (an old master of 7 raised ``KeyError: 7``), no switch pends."""
        votes = [self._vote(sim, voter, new_master=new_master) for voter in (0, 1, 2)]
        proposal = self._preprepare(self._control(sim, votes, old_master=old_master, new_master=new_master))
        digest = proposal.batch.digest_hex()
        self._refused(sim, 1, proposal)
        for message in (Prepare(1, 1, digest), Commit(1, 1, digest)):
            for src in (0, 2):
                self._refused(sim, src, message)
        assert sim.nodes[self.NODE].instances[1].slots[1].committed_digest is None

    @pytest.mark.parametrize("epoch", [0, 2])
    def test_committed_control_batch_of_a_stale_epoch_does_not_switch(self, sim, epoch):
        """A control batch reaches the node only as a body fetched for a commit
        quorum: that path never checks the certificate, so the switch checks
        its epoch."""
        batch = self._preprepare(self._control(sim, epoch=epoch)).batch
        for src in (0, 1, 2):
            self._refused(sim, src, Commit(1, 1, batch.digest_hex()))
        self._refused(sim, 0, BatchReply(1, 1, batch))
        assert sim.nodes[self.NODE].instances[1].slots[1].committed_digest is not None

    def test_committed_control_batch_of_the_next_epoch_switches(self, sim):
        batch = self._preprepare(self._control(sim)).batch
        for src in (0, 1, 2):
            self._deliver(sim, src, Commit(1, 1, batch.digest_hex()))
        self._deliver(sim, 0, BatchReply(1, 1, batch))
        assert (sim.nodes[self.NODE].epoch, sim.nodes[self.NODE].master_instance) == (1, 1)

    def test_a_node_switched_without_its_vote_announces_for_the_new_master(self, sim):
        """The master is frozen only from a node's own vote to its switch. The
        node never voted, and a certificate switched it: it announces its next
        commit of the new master with an ``ExecReady``."""
        batch = self._preprepare(self._control(sim)).batch
        for src in (0, 1, 2):
            self._deliver(sim, src, Commit(1, 1, batch.digest_hex()))
        self._deliver(sim, 0, BatchReply(1, 1, batch))
        node = sim.nodes[self.NODE]
        assert (node.voted_epoch, node.epoch) == (0, 1)
        proposal = self._preprepare(seq=2, batch_seq=2)
        digest = proposal.batch.digest_hex()
        assert self._deliver(sim, 1, proposal) == [Prepare] * 3
        assert [self._deliver(sim, src, Prepare(1, 2, digest)) for src in (0, 1)] == [[], [Commit] * 3]
        assert [self._deliver(sim, src, Commit(1, 2, digest)) for src in (0, 1)] == [[], [ExecReady] * 3]
        assert node.instances[1].slots[2].exec_readies == {self.NODE: digest}

    def test_a_vote_flood_keeps_a_window_of_epochs(self, sim):
        """1000 signed votes from one node, for epochs 2 to 1001: the node keeps
        those within ``VOTE_WINDOW`` epochs above its own."""
        for epoch in range(2, 1002):
            self._refused(sim, 0, self._vote(sim, 0, epoch=epoch))
        assert sorted(sim.nodes[self.NODE].votes) == list(range(2, VOTE_WINDOW + 1))

    @pytest.mark.parametrize("message", [object(), "prepare", ("Prepare", 1, 1, "00")])
    def test_message_of_an_unknown_type(self, sim, message):
        self._refused(sim, 1, message)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_message_raises_nothing_and_leaves_no_slot(self, sim, case):
        node = sim.nodes[self.NODE]
        for message in MALFORMED[case]:
            self._refused(sim, 0, message)
        assert [instance.slots for instance in node.instances.values()] == [{}, {}]
        assert sim.settle(Identity.create(f"after-{case}").registration_txn(1))

    @pytest.mark.parametrize("instance", [2, -1])
    def test_message_for_an_unknown_instance(self, sim, instance):
        digest = self._preprepare().batch.digest_hex()
        for message in (self._preprepare(instance=instance), Prepare(instance, 1, digest), Commit(instance, 1, digest)):
            self._refused(sim, 1, message)
        assert sim.nodes[self.NODE].instances.keys() == {0, 1}


_junk = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | st.binary(max_size=3)
_small = st.integers(-2, SEQ_WINDOW + 2) | st.sampled_from([5000, 10**12])
_fields = _small | _junk | st.lists(st.integers(0, 2), max_size=2)
_payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["did", "document", "x"]), inner, max_size=2),
    max_leaves=4,
)
_records = (
    st.sampled_from([_TXN, *NOT_RECORDS.values()])
    | st.builds(
        LedgerTransaction.create,
        st.sampled_from(TxnType),
        _payloads,
        st.text(max_size=3) | st.integers(0, 3),
        st.just(sha256(b"faulty peer").value),
        st.integers(0, 3),
    )
    | st.builds(lambda payload: dataclasses.replace(_TXN, payload=payload), _payloads | st.floats())
    | _junk
)
_batches = st.builds(
    Batch,
    _fields,
    _fields,
    _fields,
    st.lists(_records, max_size=3).map(tuple) | _junk,
    st.none() | _payloads,
)
_messages = st.one_of(
    st.builds(Request, _records),
    st.builds(
        lambda seq, txns: PrePrepare(0, seq, Batch(0, seq, 5, txns)),  # a rival proposal of the master's primary
        st.integers(1, 3),
        st.lists(_records, max_size=2).map(tuple),
    ),
    *(st.builds(kind, _fields, _fields, _batches) for kind in (PrePrepare, BatchReply)),
    *(st.builds(kind, _fields, _fields, st.just(DIGEST) | _junk) for kind in (Prepare, Commit, ExecReady, FetchBatch)),
    st.builds(InstanceChangeVote, _fields, _fields, _fields, st.just(0) | _fields, st.binary(max_size=64) | _junk),
    _junk,
)
# a signed vote of the faulty node for an epoch: it lies only about when to
# change, not about its frontier or the new master (the module leaves such lies
# out of scope)
_signed = st.integers(-1, 3 * VOTE_WINDOW).map(lambda epoch: ("signed", epoch))
_floods = st.builds(
    lambda kind, start, count: [kind(0, seq, DIGEST) for seq in range(start, start + count)],
    st.sampled_from([Prepare, Commit, ExecReady]),
    st.integers(1, SEQ_WINDOW),
    st.integers(1, 2 * SEQ_WINDOW),
) | st.integers(1, 3 * VOTE_WINDOW).map(lambda count: [("signed", epoch) for epoch in range(1, count + 1)])


class _FaultyNetwork:
    """A faulty node's view of the network: after each message the node sends, it
    sends the next drawn list of messages to the same node."""

    def __init__(self, network, drawn: list):
        self.network, self.drawn = network, drawn

    def __getattr__(self, name):
        return getattr(self.network, name)

    def send(self, src: int, dst: int, message) -> None:
        self.network.send(src, dst, message)
        for extra in self.drawn.pop() if self.drawn else ():
            self.network.send(src, dst, extra)

    def broadcast(self, src: int, peers, message) -> None:
        for dst in peers:
            self.send(src, dst, message)


def _run_with_faulty_peer(drawn: list, faulty: int = 0) -> tuple[Simulation, list]:
    """Four DID_REGs submitted to node 1, while node ``faulty`` runs the
    protocol and also sends ``drawn``, one list of messages after each message
    of its own; ``("signed", epoch)`` stands for its signed vote for ``epoch``."""
    workload = _workload(4, seed=81)
    sim = Simulation(FAST, seed=82, horizon=8000)
    node = sim.nodes[faulty]
    signed = lambda epoch: InstanceChangeVote.create(epoch, epoch % 2, 0, faulty, node.signing_private)
    messages = [[signed(m[1]) if type(m) is tuple else m for m in sends] for sends in reversed(drawn)]
    node.net = _FaultyNetwork(sim.network, messages)
    for item in workload:
        sim.submit_at(item.time, item.node, item.txn)
    sim.run()
    return sim, workload


def _applied_everything(node, workload) -> bool:
    return all(item.txn.id_hex in node.applied for item in workload)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 3]),
    st.lists(_messages.map(lambda message: [message]) | _signed.map(lambda vote: [vote]) | _floods, max_size=12),
)
def test_a_faulty_peer_cannot_crash_bloat_or_stall_the_others(faulty, drawn):
    """A faulty node sends drawn messages: of any type, with any field values,
    and floods. Nothing raises, every node keeps its slots and votes within
    their windows, and no honest chain forks. A faulty node that is no primary
    (node 3) cannot stall an honest node: each applies every txn. Node 0, the
    master's primary, can leave honest nodes out of a commit quorum, and they
    cannot catch up yet (``test_a_node_left_out_by_a_rival_proposal_catches_up``)."""
    sim, workload = _run_with_faulty_peer(drawn, faulty)
    for node in sim.nodes:
        for instance in node.instances.values():
            assert all(seq <= instance.last_committed + SEQ_WINDOW for seq in instance.slots)
        assert all(epoch <= node.epoch + VOTE_WINDOW for epoch in node.votes)
    honest = [node for node in sim.nodes if node.id != faulty]
    chains = [[block.block_hash for block in node.chain.blocks] for node in honest]
    longest = max(chains, key=len)
    assert all(chain == longest[: len(chain)] for chain in chains)
    if faulty == 3:
        assert all(_applied_everything(node, workload) for node in honest)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="a node has no catch-up yet (ROADMAP item 4)")
def test_a_node_left_out_by_a_rival_proposal_catches_up():
    """Node 0, the master's primary, sends node 2 a rival batch for seq 1, and
    a commit of another digest ahead of its own. Node 2 prepares the rival,
    so only two honest commits of the real batch reach it and it never
    commits seq 1, while nodes 0, 1 and 3 execute everything: node 2 alone
    votes for an instance change, and no other node joins it."""
    rival = PrePrepare(0, 1, Batch(0, 1, 5, ()))
    sim, workload = _run_with_faulty_peer([[rival], [Commit(0, 1, DIGEST)]])
    assert [node.id for node in sim.nodes[1:] if not _applied_everything(node, workload)] == []  # today: [2]


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="a node has no catch-up yet (ROADMAP item 4)")
def test_a_node_lagging_a_window_behind_catches_up():
    """Every message from node 0 to node 3 takes 3 s. Nodes 0, 1 and 2 commit a
    150-seq burst among themselves, and node 3, its frontier still at 0, drops
    their Prepares and Commits past ``SEQ_WINDOW``. When node 0's messages come
    in, node 3 commits up to ``SEQ_WINDOW`` and can prepare nothing after it."""
    config, workload, sim = _burst(150, 1, NetworkConfig(link_overrides={(0, 3): LinkProfile(3000, 3000)}))
    assert all(_applied_everything(node, workload) for node in sim.nodes[:3])
    assert _applied_everything(sim.nodes[3], workload)  # today: node 3 stops at SEQ_WINDOW
