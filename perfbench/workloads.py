"""The four benchmark workloads, their inputs and their output checks.

Every workload drives the public ``ssiledger`` API from outside the package
with inputs made from the benchmark seed, in one process on one thread.
``setup()`` makes the inputs and is timed as ``setup_s``; ``unit()`` runs one
unit of measured work and checks every output of it. Why each workload exists
is written in README.md next to this file.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

from meter import INTERPRETER, WALLET, wall_section
from ssiledger.canonical import canonical_json
from ssiledger.cli import main as cli_main
from ssiledger.consensus import ConsensusConfig, FaultPlan
from ssiledger.credentials import Presentation, issue, revoke, verify_presentation
from ssiledger.crypto import (
    digest_of,
    generate_encryption_keypair,
    generate_signing_keypair,
    sha256,
    sign,
)
from ssiledger.ledger import (
    Chain,
    LedgerTransaction,
    TxnType,
    build_block,
    read_chain,
    validate_chain,
    write_chain,
)
from ssiledger.scenarios import SCENARIOS, ScenarioRunner, run_scenario
from ssiledger.simnet import LinkProfile, NetworkConfig
from ssiledger.simulation import Simulation, WorkloadItem, synthetic_did_workload
from ssiledger.state import (
    AttrType,
    CredDefRecord,
    DidDocument,
    NodeState,
    SchemaRecord,
    apply,
    cred_def_payload,
    derive_did,
    did_reg_payload,
    fold_chain,
    schema_payload,
    verify_txn_signature,
)

REGISTER_TXNS = 2000
SCHEDULE_START = 10  # simulated ms of the first due time
PACED_INTERVAL = 5  # simulated ms between due times on register-paced
SUBMITTERS = (1, 2, 3)  # node 0 is the master primary and crashes on register-paced
VERIFIER_HOLDERS = 4000
VERIFY_CALLS_PER_UNIT = 2000
LEDGER_BLOCK_TXNS = 50
REVOKE_EVERY = 10


@dataclass
class Unit:
    """What one unit of measured work did and whether its outputs were right."""

    attempted: int
    failed: int
    wall_s: float  # wall seconds of the measured sections
    ops: int  # primary ops completed: txns applied, replays, presentation verifications
    ops_s: float  # wall seconds spent on those ops
    command_s: list[float]  # wall seconds of each user-level command in the unit
    notes: list[str] = field(default_factory=list)
    sims: list[Simulation] = field(default_factory=list)
    call_us: list[float] = field(default_factory=list)  # wall µs per verify_presentation call
    txns: int = 0  # ledger txns the unit processed, the per-txn denominator


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` cuts it."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


# --- consensus outputs --------------------------------------------------------


def applied_everywhere(sim: Simulation) -> dict[str, tuple[int, int]]:
    """txn id -> (due time, simulated ms at which the txn was on every honest
    node's chain), from the ``ledger_append`` events and each node's chain."""
    honest = {node.id: node for node in sim.honest_nodes()}
    seen: dict[int, dict[str, int]] = {node_id: {} for node_id in honest}
    due: dict[str, int] = {}
    for event in sim.events:
        node = honest.get(event["node"])
        if node is None or event["event_type"] != "ledger_append":
            continue
        for txn in node.chain.blocks[event["detail"]["height"]].txns:
            seen[node.id].setdefault(txn.txn_id.hex, event["time"])
            due[txn.txn_id.hex] = txn.timestamp
    common = set.intersection(*(set(times) for times in seen.values()))
    return {tid: (due[tid], max(times[tid] for times in seen.values())) for tid in common}


def commit_figures(sims: list[Simulation]) -> dict[str, float]:
    """Simulated commit latency (due -> applied on every honest node) and the
    longest gap between two consecutive txns becoming applied everywhere."""
    latencies: list[int] = []
    outage = 0
    for sim in sims:
        applied = applied_everywhere(sim)
        latencies.extend(at - due for due, at in applied.values())
        times = sorted(at for _, at in applied.values())
        outage = max([outage] + [b - a for a, b in zip(times, times[1:])])
    return {
        "commit_ms_p50": float(statistics.median(latencies)) if latencies else 0.0,
        "commit_ms_p99": quantile(latencies, 99),
        "outage_ms": float(outage),
    }


def consensus_figures(sims: list[Simulation]) -> dict[str, float]:
    """Deterministic per-run counts of the consensus and network layers."""
    txns = sum(len(applied_everywhere(sim)) for sim in sims) or 1
    batches = [
        e["detail"]["txns"]
        for sim in sims
        for e in sim.events
        if e["event_type"] == "commit" and e["detail"]["txns"] > 0
    ]
    return {
        "simnet.messages_per_txn": sum(sim.network.sent for sim in sims) / txns,
        "simulation.events_logged_per_txn": sum(len(sim.events) for sim in sims) / txns,
        "consensus.txns_per_batch": sum(batches) / len(batches) if batches else 0.0,
        "consensus.instance_changes": float(
            sum(max(node.epoch for node in sim.honest_nodes()) for sim in sims)
        ),
        "consensus.slots_retained": float(
            max(
                sum(len(inst.slots) for inst in node.instances.values())
                for sim in sims
                for node in sim.honest_nodes()
            )
        ),
    }


def check_register(sim: Simulation, items: list[WorkloadItem], expect_instance_change: bool) -> tuple[int, list[str]]:
    """Failed ops of one register run: txns missing from an honest chain plus
    refused submissions; every op fails on a safety violation, diverging
    honest chains, or an instance-change count the workload rules out."""
    notes = []
    report = sim.report()
    applied = applied_everywhere(sim)
    missing = sum(1 for item in items if item.txn.txn_id.hex not in applied)
    rejected = sum(node.rejected_submissions for node in sim.nodes)
    failed = missing + rejected
    if missing:
        notes.append(f"{missing} submitted txns not applied on every honest node")
    if rejected:
        notes.append(f"{rejected} submissions rejected")
    if report.safety_violations or not report.honest_chains_agree:
        notes.append(f"safety violations {report.safety_violations}, honest digests {len(report.honest_digests)}")
        failed = len(items)
    changes = max(node.epoch for node in sim.honest_nodes())
    if (changes >= 1) != expect_instance_change:
        notes.append(f"{changes} instance changes, expected {'>= 1' if expect_instance_change else '0'}")
        failed = len(items)
    return min(failed, len(items)), notes


# --- register-paced / register-burst ------------------------------------------


class RegisterWorkload:
    """Self-certifying DID registrations through the 4-node network (f=1)."""

    reference = INTERPRETER

    def __init__(self, name: str, seed: int, paced: bool, count: int = REGISTER_TXNS):
        self.name = name
        self.seed = seed
        self.paced = paced
        self.count = count
        self.items: list[WorkloadItem] = []
        self._reference: tuple | None = None
        self.section = wall_section  # times measured work; run.py picks the clock

    def setup(self) -> None:
        interval = PACED_INTERVAL if self.paced else 0
        generated = synthetic_did_workload(self.count, self.seed, start=SCHEDULE_START, interval=interval)
        self.items = [
            WorkloadItem(item.time, SUBMITTERS[i % len(SUBMITTERS)], item.txn)
            for i, item in enumerate(generated)
        ]
        self.simulation()

    def simulation(self) -> Simulation:
        """A fresh network with the whole schedule injected, ready to run."""
        last_due = self.items[-1].time
        config = ConsensusConfig(f=1, batch_max=5 if self.paced else 50)
        network = NetworkConfig(n=config.n, default_link=LinkProfile(min_latency=5, max_latency=15))
        crash = {0: SCHEDULE_START + (last_due - SCHEDULE_START) * 2 // 3} if self.paced else {}
        sim = Simulation(config, network, FaultPlan(crash=crash), seed=self.seed, horizon=last_due)
        for item in self.items:
            sim.submit_at(item.time, item.node, item.txn)
        return sim

    def warm(self) -> Unit | None:
        return None

    def unit(self) -> Unit:
        sim = self.simulation()
        with self.section() as timed:
            sim.run()
        wall = timed.seconds
        failed, notes = check_register(sim, self.items, expect_instance_change=self.paced)
        # a run is a pure function of its inputs: every unit must match the first
        fingerprint = (
            sim.network.sent,
            tuple(sorted({node.chain.digest().hex for node in sim.honest_nodes()})),
            tuple(sorted(commit_figures([sim]).items())),
        )
        if self._reference is None:
            self._reference = fingerprint
        elif fingerprint != self._reference:
            notes.append("run differs from the first run of the same inputs")
            failed = len(self.items)
        applied = len(applied_everywhere(sim))
        return Unit(
            attempted=len(self.items),
            failed=failed,
            wall_s=wall,
            ops=applied,
            ops_s=wall,
            command_s=[wall],
            notes=notes,
            sims=[sim],
            txns=applied,
        )


# --- lifecycle ----------------------------------------------------------------


class LifecycleWorkload:
    """The three scripted replays in equal shares, one after another."""

    reference = WALLET  # the wallet's scrypt is most of a replay

    def __init__(self, seed: int, golden_dir: Path):
        self.name = "lifecycle"
        self.seed = seed
        self.golden_dir = golden_dir
        self.rounds = 0
        self.runners: list[ScenarioRunner] = []
        self.section = wall_section  # times measured work; run.py picks the clock

    def setup(self) -> None:
        self.runners = [ScenarioRunner(name, seed=1) for name in SCENARIOS]

    def warm(self) -> Unit:
        """The seed-1 round, checked byte for byte against the golden
        transcripts. It also warms caches before the timed rounds."""
        failed, notes = 0, []
        for runner in self.runners:
            result = runner.run()
            golden = (self.golden_dir / f"{runner.name}.transcript.json").read_text(encoding="utf-8")
            if not result.ok or canonical_json(result.transcript()) + "\n" != golden:
                failed += 1
                notes.append(f"{runner.name} seed 1 does not match its golden transcript")
        return Unit(attempted=len(self.runners), failed=failed, wall_s=0.0, ops=0, ops_s=0.0, command_s=[], notes=notes)

    def unit(self) -> Unit:
        self.rounds += 1
        scenario_seed = 1 + self.seed * 1000 + self.rounds
        failed, notes, command_s, sims = 0, [], [], []
        for name in SCENARIOS:
            with self.section() as timed:
                result = run_scenario(name, seed=scenario_seed)
            command_s.append(timed.seconds)
            sims.append(result.sim)
            if not result.ok:
                failed += 1
                notes.append(f"{name} seed {scenario_seed}: {result.failures}")
        return Unit(
            attempted=len(SCENARIOS),
            failed=failed,
            wall_s=sum(command_s),
            ops=len(SCENARIOS) - failed,
            ops_s=sum(command_s),
            command_s=command_s,
            notes=notes,
            sims=sims,
            txns=sum(sim.honest_nodes()[0].chain.txn_count() for sim in sims),
        )


# --- verifier -----------------------------------------------------------------


def _keys(seed: int, label: str):
    signing = generate_signing_keypair(sha256(f"perfbench:{seed}:{label}:sign".encode()).value)
    agreement = generate_encryption_keypair(sha256(f"perfbench:{seed}:{label}:agree".encode()).value)
    return signing, agreement


def _did_reg(signing, agreement, endpoint: str, timestamp: int) -> tuple[str, LedgerTransaction]:
    did = derive_did(signing.public)
    document = DidDocument(verification_key=signing.public, agreement_key=agreement.public, endpoint=endpoint)
    txn = LedgerTransaction.create(
        TxnType.DID_REG, did_reg_payload(did, document), did, signing.private, timestamp
    )
    return did, txn


class LedgerFile:
    """Appends blocks the way ``ssiledger ledger append`` does: every txn
    must verify against the state so far and apply without rejection."""

    def __init__(self) -> None:
        self.chain = Chain.new()
        self.state = NodeState()

    def append(self, txns: list[LedgerTransaction], timestamp: int) -> None:
        for start in range(0, len(txns), LEDGER_BLOCK_TXNS):
            block_txns = txns[start : start + LEDGER_BLOCK_TXNS]
            for txn in block_txns:
                if not txn.id_recomputes() or not verify_txn_signature(self.state, txn):
                    raise ValueError(f"benchmark input {txn.txn_id.hex} does not verify")
                self.state, rejection = apply(self.state, txn)
                if rejection is not None:
                    raise ValueError(f"benchmark input {txn.txn_id.hex} rejected: {rejection.value}")
            self.chain = self.chain.append(build_block(self.chain.head, block_txns, timestamp))


class VerifierWorkload:
    """Reads a ledger file of a few thousand txns: presentation verification
    against the folded state, and the ``cred verify`` command."""

    reference = INTERPRETER

    def __init__(self, seed: int, workdir: Path, holders: int = VERIFIER_HOLDERS, calls: int = VERIFY_CALLS_PER_UNIT):
        self.name = "verifier"
        self.seed = seed
        self.workdir = workdir
        self.holders = holders
        self.calls = calls
        self.ledger_path = workdir / "net.ledger.jsonl"
        self.audience = ""
        self.presentations: list[Presentation] = []
        self.expected: list[str] = []  # "valid" or "Revoked", per holder
        self.state: NodeState | None = None
        self.ledger_txns = 0
        self.cursor = 0
        self.cli_cursor = seed
        self.section = wall_section  # times measured work; run.py picks the clock

    def setup(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        t0 = 1_700_000_000
        ledger = LedgerFile()
        issuer_signing, issuer_agreement = _keys(self.seed, "issuer")
        issuer_did, issuer_txn = _did_reg(issuer_signing, issuer_agreement, "sim://issuer", t0)
        ledger.append([issuer_txn], t0)
        schema = SchemaRecord.create(
            "degree",
            "1.0",
            [("holder_ref", AttrType.STRING), ("year", AttrType.INTEGER), ("graduated_on", AttrType.DATE)],
        )
        cred_def = CredDefRecord.create(schema.schema_id, issuer_did, issuer_signing.public)
        ledger.append(
            [
                LedgerTransaction.create(TxnType.SCHEMA, schema_payload(schema), issuer_did, issuer_signing.private, t0 + 1),
                LedgerTransaction.create(TxnType.CRED_DEF, cred_def_payload(cred_def), issuer_did, issuer_signing.private, t0 + 2),
            ],
            t0 + 2,
        )
        audience_signing, _ = _keys(self.seed, "audience")
        self.audience = derive_did(audience_signing.public)

        holders, registrations, revocations = [], [], []
        for i in range(self.holders):
            signing, agreement = _keys(self.seed, f"holder-{i}")
            did, txn = _did_reg(signing, agreement, f"sim://holder/{i}", t0 + 10)
            registrations.append(txn)
            credential = issue(
                issuer_signing.private,
                cred_def,
                schema,
                did,
                {"holder_ref": f"H-{self.seed}-{i}", "year": 2000 + i % 25, "graduated_on": "2019-06-30"},
                t0 + 20,
            )
            if i % REVOKE_EVERY == 0:
                revocations.append(revoke(issuer_did, issuer_signing.private, cred_def, credential.credential_hash, t0 + 30 + i))
            holders.append((signing, did, credential))
        ledger.append(registrations, t0 + 10)
        ledger.append(revocations, t0 + 30)
        write_chain(ledger.chain, self.ledger_path)

        self.presentations, self.expected = [], []
        for i, (signing, did, credential) in enumerate(holders):
            body = Presentation.body([credential], did, self.audience, t0 + 40)
            presentation = Presentation(
                credentials=(credential,),
                holder_did=did,
                audience_did=self.audience,
                presented_at=t0 + 40,
                holder_signature=sign(signing.private, digest_of(body).value),
            )
            self.presentation_path(i).write_text(canonical_json(presentation.to_dict()) + "\n", encoding="utf-8")
            self.presentations.append(presentation)
            self.expected.append("Revoked" if i % REVOKE_EVERY == 0 else "valid")

        chain = read_chain(self.ledger_path)
        self.state = fold_chain(chain)
        if not validate_chain(chain) or self.state.digest() != ledger.state.digest():
            raise ValueError("ledger file does not read back to the state it was built from")
        self.ledger_txns = chain.txn_count()

    def presentation_path(self, i: int) -> Path:
        return self.workdir / f"holder-{i}.pres.json"

    def warm(self) -> Unit | None:
        return None

    def _outcome(self, valid: bool, reason: str | None) -> str:
        return "valid" if valid else (reason or "invalid")

    def unit(self) -> Unit:
        failed, notes, call_s = 0, [], []
        clock = time.perf_counter
        with self.section() as timed:
            for _ in range(self.calls):
                i = self.cursor
                self.cursor = (self.cursor + 1) % self.holders
                start = clock()
                result = verify_presentation(self.presentations[i], self.state, expected_audience=self.audience)
                call_s.append(clock() - start)
                if self._outcome(result.valid, result.reason) != self.expected[i]:
                    failed += 1
                    notes.append(f"holder {i}: verify_presentation gave {result.reason}, expected {self.expected[i]}")
        busy = timed.seconds
        scale = 1e6 * timed.seconds / timed.raw_s  # per-call wall µs in the section's clock

        i = self.cli_cursor % self.holders
        self.cli_cursor += 1
        args = ["cred", "verify", "--ledger", str(self.ledger_path), "--audience", self.audience, str(self.presentation_path(i))]
        with self.section() as timed:
            result = CliRunner().invoke(cli_main, args)
        cli_s = timed.seconds
        want = 0 if self.expected[i] == "valid" else 4
        if result.exit_code != want:
            failed += 1
            notes.append(f"holder {i}: cred verify exited {result.exit_code}, expected {want}")
        return Unit(
            attempted=self.calls + 1,
            failed=failed,
            wall_s=busy + cli_s,
            ops=self.calls,
            ops_s=busy,
            command_s=[cli_s],
            notes=notes,
            call_us=[c * scale for c in call_s],
            txns=self.ledger_txns,
        )


def make_workload(name: str, seed: int, root: Path):
    """The named workload, with its inputs and work files under ``root``."""
    if name == "register-paced":
        return RegisterWorkload(name, seed, paced=True)
    if name == "register-burst":
        return RegisterWorkload(name, seed, paced=False)
    if name == "lifecycle":
        return LifecycleWorkload(seed, root / "tests" / "golden")
    if name == "verifier":
        return VerifierWorkload(seed, root / ".perfbench" / "work" / f"verifier-{os.getpid()}")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("register-paced", "register-burst", "lifecycle", "verifier")

