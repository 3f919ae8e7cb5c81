"""Byte-identity pins for the consensus simulation.

A run is a pure function of (config, seed, workload). Each case below runs a
small workload under one fault mode and pins the SHA-256 of the canonical
event log (what ``sim run --events`` writes) and of the report (what
``sim run --out`` writes). A change to the simulator, the network model or
the consensus protocol that moves one RNG draw, one event or one log line
moves a pin. A change meant to keep runs byte-identical leaves every pin as
it is; a change of behaviour recomputes them and says why.
"""

import hashlib

import pytest

import ssiledger.ledger as ledger_mod
from ssiledger.canonical import canonical_json
from ssiledger.consensus import ConsensusConfig, FaultPlan
from ssiledger.simnet import LinkProfile, NetworkConfig, Partition
from ssiledger.simulation import WorkloadItem, run_simulation, synthetic_did_workload

SHARP = ConsensusConfig(f=1, batch_max=2, batch_timeout=20, window=10, delta=2.0)

CASES = {
    "crash": (SHARP, None, FaultPlan(crash={0: 700}), 40, 6000),
    "slow-master": (SHARP, NetworkConfig(n=4, slow_nodes={0: 10.0}), None, 40, 8000),
    "drop": (SHARP, NetworkConfig(n=4, default_link=LinkProfile(5, 15, drop_prob=0.05)), None, 30, 6000),
    "partition": (
        SHARP,
        NetworkConfig(n=4, partitions=[Partition(300, 900, frozenset({0, 1}), frozenset({2, 3}))]),
        None,
        30,
        6000,
    ),
    "override-equivocate": (
        SHARP,
        NetworkConfig(n=4, link_overrides={(1, 2): LinkProfile(20, 40), (3, 0): LinkProfile(9, 4)}),
        FaultPlan(equivocate={0: 600}),
        30,
        10_000,
    ),
    "f3": (ConsensusConfig(f=3, batch_max=3, batch_timeout=30), None, None, 12, 3000),
}

# case -> (sha256 of the event log file, sha256 of the report JSON)
PINS = {
    "crash": (
        "ff457cad137baefaeb4c1158367d9c944da4e388f02f8a8b8c2d9bcdd0da9268",
        "e408df9b9266d7721ddf3966649cb3793327a9fa3c48a49b1e233f823e2c63f8",
    ),
    "slow-master": (
        "1eb3730ecba201659101703aa476336b7b3e7673c85109bea548408b0d82e3bf",
        "022b40fc8150336c08afa0fd7c8aa6d2ceb814c4e681edb5e9839ed879845e60",
    ),
    "drop": (
        "9b6e480ca298b5a8e251e74597e7f868d4e936f88385d106556ad608f7dd0d04",
        "40ae8e8d7f804e93a08efd8bf51d0aacaf965cf99120d70702f1db3ddcd8c177",
    ),
    "partition": (
        "ffb13175fba2b09e7262530a49a60e16a3c096bf2aa4369c8b7243b903a8e525",
        "e4cc1742271e336e49a9f6b4290f4a412c7446f7410a04f86371b1b0ef1d9fba",
    ),
    "override-equivocate": (
        "93498ae6d03a5167b5c0a10318502973891d813e5ceb96fe8d746f237bf824f8",
        "e4c407a14570a0279258edb4e44361e2fddfcbb442a243c2e9f6ea3d2aaa1e77",
    ),
    "f3": (
        "da0204bc977e2f7cca3b8d7c3ebf3e9b1cb209d3be7f3df70a3bb34bdba0cd22",
        "175564934b70466b0b2b92c5e1e7a3d70adc7189cec3b83bc4c51f27530f80d7",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_and_report_are_pinned(name, tmp_path):
    config, net, faults, count, horizon = CASES[name]
    workload = synthetic_did_workload(count, seed=70, start=10, interval=40, node=1)
    report, sim = run_simulation(config, net, faults, workload, horizon, seed=71)
    events = tmp_path / "events.jsonl"
    sim.write_events(events)
    pins = (
        hashlib.sha256(events.read_bytes()).hexdigest(),
        hashlib.sha256((report.to_json() + "\n").encode()).hexdigest(),
    )
    assert pins == PINS[name]


# case -> (config, network, faults, workload, horizon): runs with many records due at one ms. A
# workload (count, interval, per) is ``count`` records, ``per`` of them due to one node at each due
# time, ``interval`` ms apart, round-robin over nodes 1 to 3
GROUPED = {
    "burst": (ConsensusConfig(f=1, batch_max=20, batch_timeout=30), None, None, (120, 0, 1), 3000),
    "burst-equivocate": (
        ConsensusConfig(f=1, batch_max=10, batch_timeout=30),
        None,
        FaultPlan(equivocate={0: 15}),
        (80, 0, 1),
        8000,
    ),
    "paced-crash": (SHARP, None, FaultPlan(crash={0: 150}), (120, 5, 2), 3000),
    "f3": (ConsensusConfig(f=3, batch_max=10, batch_timeout=30), None, None, (40, 0, 1), 3000),
}


@pytest.mark.parametrize("name", sorted(GROUPED))
def test_checks_verified_ahead_leave_every_byte_as_verified_inline(name, monkeypatch):
    """The same run with every event's records verified on the calling thread
    (``PARALLEL_MIN`` above any event's records), with the default threshold,
    and with the records of every event that hands a node two or more split
    over two threads where the process may use two CPUs: the reports and event
    logs are identical. Each event a node admits from is one ``verify_signatures``
    call; only those with ``PARALLEL_MIN`` or more checks count as checked ahead."""
    config, net, faults, (count, interval, per), horizon = GROUPED[name]
    workload = [
        WorkloadItem(10 + i // per * interval, 1 + i // per % 3, item.txn)
        for i, item in enumerate(synthetic_did_workload(count, seed=72, start=10, interval=interval))
    ]
    checked_ahead = []
    verify_signatures = ledger_mod.verify_signatures
    monkeypatch.setattr(
        ledger_mod, "verify_signatures", lambda checks: checked_ahead.append(len(checks)) or verify_signatures(checks)
    )
    runs = {}
    for threshold in (10**9, ledger_mod.PARALLEL_MIN, 2):
        monkeypatch.setattr(ledger_mod, "PARALLEL_MIN", threshold)
        checked_ahead.clear()
        report, sim = run_simulation(config, net, faults, workload, horizon, seed=73)
        assert report.safety_violations == 0 and report.honest_chains_agree
        events = "".join(canonical_json(event) + "\n" for event in sim.events)
        runs[threshold] = (report.to_json(), events, sum(size for size in checked_ahead if size >= threshold))
    inline, default, eager = runs[10**9], runs[ledger_mod.PARALLEL_MIN], runs[2]
    assert inline[2] == 0 and eager[2] > 0
    assert default[:2] == inline[:2] and eager[:2] == inline[:2]
