"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
results and timings.
"""

from __future__ import annotations

import os
import random
import time

import pytest
from click.testing import CliRunner

from conftest import CredEnv, diploma_attributes
from ssiledger.auth import ChallengeVerifier
from ssiledger.cli import main as cli_main
from ssiledger.consensus import ConsensusConfig, FaultPlan
from ssiledger.credentials import issue, present, revoke, verify_credential, verify_presentation
from ssiledger.crypto import decrypt_from, generate_encryption_keypair, sha256
from ssiledger.ledger import validate_chain
from ssiledger.scenarios import privacy_scan, run_scenario
from ssiledger.simnet import NetworkConfig
from ssiledger.simulation import run_simulation, synthetic_did_workload
from ssiledger.state import apply


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            print(f"\nPASS {self.name} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s ({elapsed:.2f}s)"


def test_criterion_1_hash_vectors():
    with Budget("criterion 1: published SHA-256 vectors", 1.0):
        assert (
            sha256(b"tubitak").hex
            == "8c9b3371a4cae382bad1d752000902f871f8f78b1a2b62e4fe3ac47f40a2b742"
        )
        assert (
            sha256(b"Tubitak").hex
            == "50ae8005208300584bd519ecfca19a083ad2831930668cee1b594bc8bb1b353c"
        )


def test_criterion_2_tamper_propagation():
    from test_ledger import _chain, mutate_one_bit

    with Budget("criterion 2: tamper propagation, 100/100 chains", 5.0):
        rng = random.Random(20260808)
        detected = 0
        for i in range(100):
            chain = _chain(10, txns_per_block=1, start=i * 10)
            mutated, height = mutate_one_bit(chain, rng)
            result = validate_chain(mutated)
            if not result.ok and result.height <= height + 1:
                detected += 1
        assert detected == 100, f"only {detected}/100 mutations detected in bound"


FAULT_MATRIX = {
    "no-fault": (None, None),
    "one-crash": (None, FaultPlan(crash={3: 0})),
    "byzantine-equivocator": (None, FaultPlan(equivocate={0: 1200})),
    "master-slowdown": (NetworkConfig(n=4, slow_nodes={0: 10.0}), None),
}


def test_criterion_3_consensus_safety():
    config = ConsensusConfig(f=1, batch_max=2, batch_timeout=20, window=10, delta=2.0)
    with Budget("criterion 3: consensus safety across fault matrix x 20 seeds", 60.0):
        for fault_name, (net, faults) in FAULT_MATRIX.items():
            for seed in range(20):
                workload = synthetic_did_workload(
                    40, seed=1000 + seed, start=10, interval=30, node=1
                )
                horizon = 10_000 if fault_name == "byzantine-equivocator" else 6_000
                report, sim = run_simulation(config, net, faults, workload, horizon, seed=seed)
                assert report.safety_violations == 0, f"{fault_name} seed {seed}: safety violated"
                assert report.honest_chains_agree, f"{fault_name} seed {seed}: chains diverged"
                # every mode in this matrix keeps liveness for honest nodes
                assert all(
                    node.chain.txn_count() == 40 for node in sim.honest_nodes()
                ), f"{fault_name} seed {seed}: liveness lost"


def test_criterion_4_master_replacement():
    config = ConsensusConfig(f=1, batch_max=2, batch_timeout=20, window=10, delta=2.0)
    with Budget("criterion 4: master replacement thresholds over 20 seeds", 30.0):
        switched = 0
        for seed in range(20):
            net = NetworkConfig(n=4, slow_nodes={0: 10.0})
            workload = synthetic_did_workload(60, seed=2000 + seed, start=10, interval=30, node=1)
            report, sim = run_simulation(config, net, None, workload, 8_000, seed=seed)
            if report.instance_change_count > 0:
                switch_time = report.instance_changes[0]["time"]
                master_before = sum(
                    1
                    for e in sim.events
                    if e["event_type"] == "commit"
                    and e["node"] == 1
                    and e["detail"]["instance"] == 0
                    and e["time"] <= switch_time
                )
                if master_before <= 2 * config.window:
                    switched += 1
        assert switched >= 19, f"10x slowdown switched within 2W in only {switched}/20 seeds"

        stayed = 0
        for seed in range(20):
            net = NetworkConfig(n=4, slow_nodes={0: 1.5})
            workload = synthetic_did_workload(60, seed=3000 + seed, start=10, interval=30, node=1)
            report, _ = run_simulation(config, net, None, workload, 8_000, seed=seed)
            if report.instance_change_count == 0:
                stayed += 1
        assert stayed == 20, f"1.5x slowdown wrongly switched in {20 - stayed}/20 seeds"


def test_criterion_5_credential_lifecycle(cred_env: CredEnv):
    import dataclasses

    with Budget("criterion 5: credential lifecycle and field-fuzz tampering", 5.0):
        credential = issue(
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            cred_env.schema,
            cred_env.holder_did,
            diploma_attributes(),
            issued_at=10,
        )
        assert verify_credential(credential, cred_env.state).valid
        audience = "did:sample:acceptance-verifier"
        presentation = present(
            cred_env.holder_wallet, cred_env.holder_relation, [credential], audience, 12
        )
        assert verify_presentation(presentation, cred_env.state, expected_audience=audience).valid

        mutations = [
            dataclasses.replace(credential, cred_def_id=sha256(b"m1")),
            dataclasses.replace(credential, issuer_did=credential.issuer_did + "x"),
            dataclasses.replace(credential, subject_did=credential.subject_did + "x"),
            dataclasses.replace(credential, attributes={**credential.attributes, "year": 2099}),
            dataclasses.replace(
                credential, attributes={**credential.attributes, "degree": "MSc"}
            ),
            dataclasses.replace(credential, issued_at=credential.issued_at + 1),
            dataclasses.replace(credential, credential_hash=sha256(b"m2")),
            dataclasses.replace(
                credential,
                issuer_signature=credential.issuer_signature[:-1]
                + bytes([credential.issuer_signature[-1] ^ 0x01]),
            ),
        ]
        invalid = sum(0 if verify_credential(m, cred_env.state).valid else 1 for m in mutations)
        assert invalid == len(mutations), "a tampered credential verified"

        entry = revoke(
            cred_env.issuer.did,
            cred_env.issuer.signing_private,
            cred_env.cred_def,
            credential.credential_hash,
            timestamp=15,
        )
        revoked_state, rejection = apply(cred_env.state, entry)
        assert rejection is None
        result = verify_credential(credential, revoked_state)
        assert not result.valid and result.reason == "Revoked"


def test_criterion_6_challenge_response():
    with Budget("criterion 6: challenge-response authentication", 10.0):
        subject = generate_encryption_keypair(sha256(b"acceptance-subject").value)
        verifier = ChallengeVerifier()

        challenge = verifier.issue(subject.public, ttl=120, now=0)
        response = decrypt_from(subject.private, challenge.ciphertext)
        assert verifier.check(response, now=30).authenticated

        rng = random.Random(99)
        rejected = 0
        for _ in range(10_000):
            guess = rng.randbytes(32)
            if verifier.check(guess, now=31).reason == "Mismatch":
                rejected += 1
        assert rejected == 10_000, "a random guess authenticated"

        assert verifier.check(response, now=32).reason == "Replayed"

        late = verifier.issue(subject.public, ttl=60, now=100)
        late_response = decrypt_from(subject.private, late.ciphertext)
        assert verifier.check(late_response, now=161).reason == "Expired"


def test_criterion_7_privacy_scan():
    with Budget("criterion 7: privacy scan across all scenarios", 10.0):
        total_sentinels = 0
        for name in ("medical", "employment", "loan"):
            result = run_scenario(name, seed=1)
            assert result.ok, f"{name}: {result.failures}"
            leaks = privacy_scan(result.sim, result.receipts, result.sentinels)
            assert leaks == [], f"{name}: attribute values leaked: {leaks}"
            total_sentinels += len(result.sentinels)
        assert total_sentinels >= 10


@pytest.mark.parametrize("name", ["medical", "employment", "loan"])
def test_criterion_8_scenario_golden_transcripts(name):
    with Budget(f"criterion 8: scenario replay '{name}' matches golden transcript", 30.0):
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            ["scenario", "run", name, "--seed", "1", "--json"],
            env={"WALLET_SECRET": "acceptance"},
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        golden_path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.transcript.json")
        with open(golden_path, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert result.output == golden, f"{name} transcript deviates from golden file"
