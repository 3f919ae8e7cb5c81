"""Scripted end-to-end scenario replays over an in-process four-node network.

Three scenarios exercise the full credential lifecycle:

* ``medical``    — a patient gathers treatment records from two hospitals and
                   presents both to a third, which verifies them against the
                   ledger without contacting the issuers.
* ``employment`` — a new hire presents degree, prior-employment, lab-result
                   and residence credentials from four different issuers to an
                   employer in a single verified presentation.
* ``loan``       — a bank with no prior relationship to the applicant obtains
                   an attested credit report from her existing bank via the
                   third-party flow, with a dual-signed consent receipt whose
                   hash lands on the ledger.

Every credential attribute value is a unique sentinel string, and each run
ends with a byte-level scan of the serialized ledger, node states, event log
and consent receipts proving that no attribute value ever left the wallets.
Transcripts are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .auth import ChallengeVerifier
from .canonical import canonicalize
from .consensus import ConsensusConfig
from .credentials import (
    ConsentReceipt,
    IssuerParty,
    VerifierParty,
    authenticate,
    issue,
    present,
    record_consent,
    third_party_flow,
    verify_consent_receipt,
    verify_presentation,
)
from .crypto import sha256
from .ledger import LedgerTransaction, TxnType
from .simulation import Simulation
from .state import (
    AttrType,
    CredDefRecord,
    SchemaRecord,
    cred_def_payload,
    did_reg_payload,
    schema_payload,
)
from .wallet import Wallet

SCENARIOS = ("medical", "employment", "loan")


@dataclass
class Org:
    """An institution: wallet, public DID, and verifier state for auth."""

    label: str
    wallet: Wallet
    did: str
    auth: ChallengeVerifier = field(default_factory=ChallengeVerifier)
    schema: SchemaRecord | None = None
    cred_def: CredDefRecord | None = None

    def signing_private(self) -> bytes:
        return self.wallet.identity("public").signing.private


class ScenarioRunner:
    """Drives one scenario against a fresh simulated network; once ``run``
    returns, the runner is the result: its steps, failures, receipts, wallets
    and network."""

    def __init__(self, name: str, seed: int = 1, consent: bool = True):
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIOS}")
        self.name = name
        self.seed = seed
        self.consent = consent
        self.sim = Simulation(ConsensusConfig(f=1), seed=seed, horizon=0)
        self.steps: list[dict] = []
        self.failures: list[str] = []
        self.sentinels: list[str] = []
        self.receipts: list[ConsentReceipt] = []
        self.wallets: dict[str, Wallet] = {}

    # -- deterministic material

    def _seed_bytes(self, *parts: str) -> bytes:
        return sha256((f"{self.name}:{self.seed}:" + ":".join(parts)).encode()).value

    def sentinel(self, slug: str) -> str:
        token = sha256(f"sentinel:{self.name}:{self.seed}:{slug}".encode()).hex[:12]
        value = f"SV-{self.name}-{self.seed}-{slug}-{token}"
        self.sentinels.append(value)
        return value

    # -- transcript plumbing

    def _step(self, actor: str, action: str, outcome: str, detail: dict | None = None) -> None:
        self.steps.append(
            {
                "n": len(self.steps) + 1,
                "time": self.sim.now,
                "actor": actor,
                "action": action,
                "outcome": outcome,
                "detail": detail or {},
            }
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    def transcript(self) -> dict:
        """Deterministic, canonicalizable transcript for golden comparison."""
        honest = self.sim.honest_nodes()
        return {
            "scenario": self.name,
            "seed": self.seed,
            "steps": self.steps,
            "summary": {
                "ok": self.ok,
                "failures": self.failures,
                "chain_digests": sorted({n.chain.digest().hex for n in honest}),
                "chain_height": honest[0].chain.height,
                "ledger_txns": honest[0].chain.txn_count(),
                "consent_proofs": len(honest[0].state.consent_proofs),
                "sentinel_count": len(self.sentinels),
            },
        }

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    def _expect(self, condition: bool, actor: str, action: str, detail: dict | None = None) -> bool:
        self._step(actor, action, "ok" if condition else "failed", detail)
        if not condition:
            self._fail(f"{actor}: {action}")
        return condition

    # -- ledger interaction

    def ledger_view(self):
        """Node 0's live state: later commits change it in place, so read it now."""
        return self.sim.nodes[0].state

    def _commit(self, actor: str, action: str, txn: LedgerTransaction, detail: dict | None = None) -> bool:
        committed = self.sim.settle(txn, node=0)
        info = {"txn_type": txn.txn_type.value, "txn_id": txn.txn_id.hex[:16]}
        info.update(detail or {})
        return self._expect(committed, actor, action, info)

    # -- party construction

    def _register_identity(self, wallet: Wallet, relation: str, actor: str, metadata: dict | None = None) -> str:
        did, document = wallet.new_pairwise(
            relation, seed=self._seed_bytes(actor, relation), metadata=metadata
        )
        txn = wallet.identity(relation).sign_txn(TxnType.DID_REG, did_reg_payload(did, document), self.sim.now)
        self._commit(actor, f"register DID for relation '{relation}'", txn, {"did": did})
        return did

    def _org(self, label: str) -> Org:
        wallet = Wallet.create(label, f"{label}-unlock-secret".encode())
        self.wallets[label] = wallet
        did = self._register_identity(wallet, "public", label, metadata={"org": label})
        return Org(label=label, wallet=wallet, did=did)

    def _publish_definitions(
        self, org: Org, schema_name: str, version: str, attributes: list[tuple[str, AttrType]]
    ) -> None:
        identity = org.wallet.identity("public")
        schema = SchemaRecord.create(schema_name, version, attributes)
        schema_txn = identity.sign_txn(TxnType.SCHEMA, schema_payload(schema), self.sim.now)
        self._commit(org.label, f"publish schema '{schema_name}'", schema_txn)
        cred_def = CredDefRecord.create(schema.schema_id, org.did, identity.signing.public)
        cred_def_txn = identity.sign_txn(TxnType.CRED_DEF, cred_def_payload(cred_def), self.sim.now)
        self._commit(org.label, f"publish credential definition for '{schema_name}'", cred_def_txn)
        org.schema = schema
        org.cred_def = cred_def

    # -- protocol steps

    def _authenticate(self, owner_wallet: Wallet, relation: str, org: Org, owner_label: str) -> bool:
        result = authenticate(org.auth, owner_wallet, relation, self.sim.now)
        return self._expect(
            result.authenticated,
            org.label,
            f"authenticate {owner_label} by challenge-response",
            {"subject_did": owner_wallet.did(relation)},
        )

    def _issue_and_store(
        self, org: Org, owner_wallet: Wallet, owner_label: str, subject_did: str, attributes: dict
    ):
        credential = issue(
            org.signing_private(), org.cred_def, org.schema, subject_did, attributes, self.sim.now
        )
        owner_wallet.store_credential(credential, self.ledger_view(), received_at=self.sim.now)
        self._step(
            org.label,
            f"issue '{org.schema.name}' credential to {owner_label}",
            "ok",
            {"credential_hash": credential.credential_hash.hex[:16], "subject_did": subject_did},
        )
        return credential

    def _record_consent(
        self, owner_wallet: Wallet, owner_relation: str, org: Org, shared: list, purpose: str
    ) -> None:
        receipt, txn = record_consent(
            owner_wallet,
            owner_relation,
            org.did,
            org.signing_private(),
            shared,
            purpose,
            self.sim.now,
        )
        self._land_consent(owner_wallet.owner_label, org.label, receipt, txn)

    def _land_consent(self, owner_label: str, org_label: str, receipt: ConsentReceipt, txn: LedgerTransaction) -> None:
        """Hold the receipt, commit its consent txn, and check that the ledger
        matches the receipt's hash."""
        detail = {"receipt_hash": receipt.receipt_hash().hex[:16]}
        self.receipts.append(receipt)
        self._commit(owner_label, f"record consent with {org_label}", txn, detail)
        recorded = verify_consent_receipt(receipt, self.ledger_view())
        self._expect(recorded.valid, org_label, "match held receipt hash against the ledger", detail)

    # -- the scenarios

    def run(self) -> "ScenarioRunner":
        runner = {"medical": self._run_medical, "employment": self._run_employment, "loan": self._run_loan}
        runner[self.name]()
        self._final_checks()
        return self

    def _run_medical(self) -> None:
        alice = Wallet.create("alice", b"alice-unlock-secret")
        self.wallets["alice"] = alice
        hospital_a = self._org("hospital-a")
        hospital_b = self._org("hospital-b")
        hospital_c = self._org("hospital-c")

        record_attrs = [
            ("patient_ref", AttrType.STRING),
            ("treatment", AttrType.STRING),
            ("discharged_on", AttrType.DATE),
        ]
        self._publish_definitions(hospital_a, "medical-record", "1.0", record_attrs)
        self._publish_definitions(hospital_b, "medical-record", "1.0", record_attrs)

        for relation, org in (("hospital-a", hospital_a), ("hospital-b", hospital_b)):
            self._register_identity(alice, relation, "alice")
        presentation_did = self._register_identity(alice, "hospital-c", "alice")

        for relation, org, slug in (
            ("hospital-a", hospital_a, "treatment-a"),
            ("hospital-b", hospital_b, "treatment-b"),
        ):
            self._authenticate(alice, relation, org, "alice")
            self._issue_and_store(
                org,
                alice,
                "alice",
                presentation_did,
                {
                    "patient_ref": self.sentinel(f"{slug}-patient"),
                    "treatment": self.sentinel(slug),
                    "discharged_on": "2026-03-14",
                },
            )

        credentials = alice.find_credentials(subject_did=presentation_did)
        self._expect(
            len(credentials) == 2, "alice", "hold both hospital records in the wallet"
        )
        presentation = present(alice, "hospital-c", credentials, hospital_c.did, self.sim.now)
        self._step(
            "alice",
            "present medical records to hospital-c",
            "ok",
            {"credentials": len(presentation.credentials), "audience": hospital_c.did},
        )
        verdict = verify_presentation(presentation, self.ledger_view(), expected_audience=hospital_c.did)
        self._expect(
            verdict.valid,
            "hospital-c",
            "verify records are original, unmutated and issued by hospitals A and B",
            {"valid": verdict.valid},
        )
        self._record_consent(
            alice,
            "hospital-c",
            hospital_c,
            [(attr, attr_type) for attr, attr_type in record_attrs],
            "continuity of care",
        )

    def _run_employment(self) -> None:
        bob = Wallet.create("bob", b"bob-unlock-secret")
        self.wallets["bob"] = bob
        acme = self._org("acme")
        issuers = [
            (
                self._org("state-university"),
                "degree",
                [
                    ("degree_ref", AttrType.STRING),
                    ("field_of_study", AttrType.STRING),
                    ("graduated_on", AttrType.DATE),
                    ("honors", AttrType.BOOLEAN),
                ],
                {"degree_ref": "degree", "field_of_study": "field", "graduated_on": None, "honors": None},
            ),
            (
                self._org("previous-employer"),
                "employment-history",
                [
                    ("employment_ref", AttrType.STRING),
                    ("role", AttrType.STRING),
                    ("ended_on", AttrType.DATE),
                ],
                {"employment_ref": "employment", "role": "role", "ended_on": None},
            ),
            (
                self._org("city-lab"),
                "lab-result",
                [("result_ref", AttrType.STRING), ("sampled_on", AttrType.DATE)],
                {"result_ref": "lab", "sampled_on": None},
            ),
            (
                self._org("civil-registry"),
                "residence",
                [("address_ref", AttrType.STRING), ("registered_on", AttrType.DATE)],
                {"address_ref": "residence", "registered_on": None},
            ),
        ]
        presentation_did = self._register_identity(bob, "acme", "bob")

        credentials = []
        for org, schema_name, attrs, slug_map in issuers:
            self._publish_definitions(org, schema_name, "1.0", attrs)
            relation = org.label
            self._register_identity(bob, relation, "bob")
            self._authenticate(bob, relation, org, "bob")
            values: dict[str, Any] = {}
            for attr, attr_type in attrs:
                slug = slug_map.get(attr)
                if attr_type == AttrType.STRING:
                    values[attr] = self.sentinel(slug or attr)
                elif attr_type == AttrType.DATE:
                    values[attr] = "2025-11-30"
                elif attr_type == AttrType.BOOLEAN:
                    values[attr] = True
                else:
                    values[attr] = 7
            credentials.append(
                self._issue_and_store(org, bob, "bob", presentation_did, values)
            )

        presentation = present(bob, "acme", credentials, acme.did, self.sim.now)
        self._step(
            "bob",
            "present all four credentials to acme",
            "ok",
            {"credentials": len(presentation.credentials)},
        )
        verdict = verify_presentation(presentation, self.ledger_view(), expected_audience=acme.did)
        self._expect(
            verdict.valid,
            "acme",
            "verify authenticity of all presented documents",
            {"valid": verdict.valid},
        )
        shared = [(attr, attr_type) for _, _, attrs, _ in issuers for attr, attr_type in attrs]
        self._record_consent(bob, "acme", acme, shared, "employment onboarding")

    def _run_loan(self) -> None:
        alice = Wallet.create("alice", b"alice-unlock-secret")
        self.wallets["alice"] = alice
        bank_a = self._org("bank-a")
        bank_b = self._org("bank-b")
        self._publish_definitions(
            bank_a,
            "credit-report",
            "1.0",
            [
                ("customer_ref", AttrType.STRING),
                ("score_band", AttrType.STRING),
                ("credit_score", AttrType.INTEGER),
                ("issued_on", AttrType.DATE),
            ],
        )
        self._register_identity(alice, "bank-a", "alice")
        self._register_identity(alice, "bank-b", "alice")

        provider = IssuerParty(
            did=bank_a.did,
            signing_private=bank_a.signing_private(),
            schema=bank_a.schema,
            cred_def=bank_a.cred_def,
            auth=bank_a.auth,
        )
        requester = VerifierParty(
            did=bank_b.did, signing_private=bank_b.signing_private(), auth=bank_b.auth
        )
        attributes = {
            "customer_ref": self.sentinel("customer"),
            "score_band": self.sentinel("score-band"),
            "credit_score": 700 + self.seed % 100,
            "issued_on": "2026-02-02",
        }
        try:
            flow = third_party_flow(
                requester,
                provider,
                alice,
                provider_relation="bank-a",
                requester_relation="bank-b",
                requested_attributes=attributes,
                ledger=self.ledger_view,
                now=self.sim.now,
                consent=self.consent,
                purpose="loan application KYC",
            )
        except Exception as exc:
            self._step("alice", "third-party credit attestation flow", "failed", {"error": str(exc)})
            self._fail(f"third-party flow aborted: {exc}")
            return
        for done in flow.steps:
            self._step("flow", done, "ok")
        self._expect(
            flow.verification.valid,
            "bank-b",
            "verify attested credit report via on-ledger keys",
            {"valid": flow.verification.valid},
        )
        self._land_consent("alice", "bank-b", flow.receipt, flow.consent_txn)

    # -- closing checks

    def _final_checks(self) -> None:
        digests = {n.chain.digest().hex for n in self.sim.honest_nodes()}
        self._expect(
            len(digests) == 1,
            "network",
            "all honest node ledgers agree",
            {"digest": sorted(digests)[0][:16] if digests else ""},
        )
        self._expect(
            self.sim.safety_violations() == 0, "network", "no conflicting commits at any sequence"
        )
        leaks = privacy_scan(self.sim, self.receipts, self.sentinels)
        self._expect(
            not leaks,
            "auditor",
            "byte-scan ledger, states and receipts for attribute values",
            {"sentinels": len(self.sentinels), "leaks": leaks},
        )
        if self.sentinels and any(w.credentials for w in self.wallets.values()):
            in_wallets = _sentinels_in_wallets(self.wallets, self.sentinels)
            self._expect(
                in_wallets,
                "auditor",
                "confirm sentinels are present in wallets (scan soundness)",
            )


def _sentinels_in_wallets(wallets: dict[str, Wallet], sentinels: list[str]) -> bool:
    blob = b"".join(canonicalize(w.to_dict()) for w in wallets.values())
    return any(s.encode() in blob for s in sentinels)


def privacy_scan(sim: Simulation, receipts: list[ConsentReceipt], sentinels: list[str]) -> list[str]:
    """Return every sentinel that appears anywhere in the public artifacts:
    serialized chains, node state dumps, the event log, or consent receipts."""
    parts = []
    for node in sim.nodes:
        parts.extend(line.encode() for line in node.chain.to_lines())
        parts.append(canonicalize(node.state.to_dict()))
    parts.extend(canonicalize(e) for e in sim.events)
    parts.extend(canonicalize(r.to_dict()) for r in receipts)
    corpus = b"\n".join(parts)
    return [s for s in sentinels if s.encode() in corpus]


def run_scenario(name: str, seed: int = 1, consent: bool = True) -> ScenarioRunner:
    return ScenarioRunner(name, seed=seed, consent=consent).run()
