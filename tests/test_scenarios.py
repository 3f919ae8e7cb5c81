import pytest
from click.testing import CliRunner

import ssiledger.scenarios as scenarios
from ssiledger.canonical import canonical_json
from ssiledger.cli import main
from ssiledger.credentials import VerificationResult
from ssiledger.scenarios import SCENARIOS, ScenarioRunner, privacy_scan, run_scenario


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_passes(name):
    result = run_scenario(name, seed=1)
    assert result.ok, result.failures
    assert result.sim.safety_violations() == 0
    honest_digests = {n.chain.digest().hex for n in result.sim.honest_nodes()}
    assert len(honest_digests) == 1


@pytest.mark.parametrize("name", SCENARIOS)
def test_transcripts_deterministic_per_seed(name):
    first = canonical_json(run_scenario(name, seed=7).transcript())
    second = canonical_json(run_scenario(name, seed=7).transcript())
    assert first == second


def test_different_seeds_differ():
    one = run_scenario("loan", seed=1).transcript()
    two = run_scenario("loan", seed=2).transcript()
    assert canonical_json(one) != canonical_json(two)


def test_loan_records_consent_hash_on_ledger():
    result = run_scenario("loan", seed=1)
    state = result.sim.nodes[0].state
    assert len(state.consent_proofs) == 1
    assert state.consent_proofs[0].receipt_hash == result.receipts[0].receipt_hash()


def test_declined_consent_leaves_ledger_clean():
    result = run_scenario("loan", seed=1, consent=False)
    assert not result.ok
    state = result.sim.nodes[0].state
    assert len(state.consent_proofs) == 0
    # no credential definitions were revoked, no receipts were recorded
    assert result.receipts == []


def test_privacy_scan_finds_planted_leak():
    # the scan itself must be able to detect a value if one were leaked
    result = run_scenario("medical", seed=3)
    assert privacy_scan(result.sim, result.receipts, result.sentinels) == []
    planted = result.sim.events[0]["detail"].setdefault("leak", result.sentinels[0])
    leaks = privacy_scan(result.sim, result.receipts, result.sentinels)
    assert result.sentinels[0] in leaks


def test_sentinels_live_in_wallets_only():
    result = run_scenario("employment", seed=5)
    from ssiledger.canonical import canonicalize

    wallet_blob = b"".join(canonicalize(w.to_dict()) for w in result.wallets.values())
    found = [s for s in result.sentinels if s.encode() in wallet_blob]
    assert found, "sentinel values should be present in wallet credential stores"


def test_unknown_scenario_is_refused():
    with pytest.raises(ValueError, match="^unknown scenario 'nope'"):
        ScenarioRunner("nope")


def test_a_check_that_fails_fails_the_run(monkeypatch):
    """A presentation the verifier refuses: the step reads ``failed``, the run
    is not ok, and ``scenario run`` exits 6."""
    monkeypatch.setattr(scenarios, "verify_presentation", lambda *args, **kwargs: VerificationResult(False, "Refused"))
    action = "verify records are original, unmutated and issued by hospitals A and B"
    result = run_scenario("medical", seed=1)
    assert not result.ok and result.failures == [f"hospital-c: {action}"]
    assert [step["outcome"] for step in result.steps if step["action"] == action] == ["failed"]
    assert CliRunner().invoke(main, ["scenario", "run", "medical"]).exit_code == 6
