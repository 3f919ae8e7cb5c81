import base64
import dataclasses
import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ssiledger
import ssiledger.cli as cli
import ssiledger.state as state_mod
from conftest import Identity, small_order_registration
from ssiledger.cli import main
from ssiledger.canonical import canonical_json
from ssiledger.credentials import Presentation, VerifiableCredential, issue, revoke, verify_credential, verify_presentation
from ssiledger.crypto import CryptoError, Digest, digest_of, sign
from ssiledger.ledger import (
    Block,
    Chain,
    LedgerTransaction,
    TxnType,
    _built,
    build_block,
    check_file,
    read_chain,
    validate_chain,
    write_chain,
)
from ssiledger.state import (
    AttrType,
    CredDefRecord,
    NodeState,
    SchemaRecord,
    cred_def_payload,
    fold_chain,
    fold_into,
    schema_payload,
)
from ssiledger.wallet import KdfParams, Wallet

SECRET = {"WALLET_SECRET": "cli-test-secret"}
UNREADABLE = "error: unreadable record: "


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, env=SECRET, catch_exceptions=False, **kwargs)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for key, value in SECRET.items():
        monkeypatch.setenv(key, value)
    return tmp_path


@pytest.fixture
def issuer_setup(runner, workdir):
    """Wallets, a ledger with registered DIDs, a schema and a cred def."""
    assert invoke(runner, ["wallet", "create", "--wallet", "issuer.wallet.json", "--owner", "uni"]).exit_code == 0
    assert invoke(runner, ["wallet", "create", "--wallet", "holder.wallet.json", "--owner", "alice"]).exit_code == 0
    assert invoke(runner, ["ledger", "init", "--out", "net.ledger.jsonl"]).exit_code == 0
    assert invoke(
        runner,
        ["did", "new", "--wallet", "issuer.wallet.json", "--relation", "public",
         "--seed", "aa", "--txn-out", "issuer.txn.json", "--now", "100"],
    ).exit_code == 0
    assert invoke(
        runner,
        ["did", "new", "--wallet", "holder.wallet.json", "--relation", "employer",
         "--seed", "bb", "--txn-out", "holder.txn.json", "--now", "100"],
    ).exit_code == 0
    assert invoke(
        runner,
        ["ledger", "append", "--ledger", "net.ledger.jsonl", "--now", "110",
         "issuer.txn.json", "holder.txn.json"],
    ).exit_code == 0
    out = invoke(
        runner,
        ["schema", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
         "--ledger", "net.ledger.jsonl", "--name", "degree",
         "--attr", "degree:string", "--attr", "year:integer", "--now", "120"],
    )
    assert out.exit_code == 0
    schema_id = out.output.strip().split()[-1]
    out = invoke(
        runner,
        ["creddef", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
         "--ledger", "net.ledger.jsonl", "--schema-id", schema_id, "--now", "130"],
    )
    assert out.exit_code == 0
    cred_def_id = out.output.strip().split()[-1]
    holder_did = json.loads(
        invoke(runner, ["wallet", "list", "--wallet", "holder.wallet.json", "--json"]).output
    )["relations"]["employer"]["did"]
    return {"schema_id": schema_id, "cred_def_id": cred_def_id, "holder_did": holder_did}


def _issue(runner, setup, out="alice.cred.json"):
    return invoke(
        runner,
        ["cred", "issue", "--wallet", "issuer.wallet.json", "--relation", "public",
         "--ledger", "net.ledger.jsonl", "--cred-def", setup["cred_def_id"],
         "--subject", setup["holder_did"],
         "--attr", "degree=BSc", "--attr", "year=2019",
         "--out", out, "--now", "140"],
    )


class TestWalletCommands:
    def test_create_and_unlock(self, runner, workdir):
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"]).exit_code == 0
        assert invoke(runner, ["wallet", "unlock", "--wallet", "w.json"]).exit_code == 0

    def test_wrong_secret_exit_5(self, runner, workdir):
        invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"])
        result = runner.invoke(
            main, ["wallet", "unlock", "--wallet", "w.json"], env={"WALLET_SECRET": "nope"}
        )
        assert result.exit_code == 5

    def test_aborted_prompt_is_no_wrong_secret(self, runner, workdir):
        """No secret in the environment and nothing on stdin: the prompt aborts (exit 1)."""
        invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"])
        result = runner.invoke(main, ["wallet", "unlock", "--wallet", "w.json"], env={"WALLET_SECRET": None}, input="")
        assert result.exit_code == 1
        assert "Aborted!" in result.output and "cannot unlock wallet" not in result.output

    def test_kdf_failure_is_no_wrong_secret(self, runner, workdir, monkeypatch):
        invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"])

        def failing(self, secret):
            raise CryptoError("scrypt refused n=16384, r=8, p=1")

        monkeypatch.setattr(KdfParams, "derive", failing)
        result = invoke(runner, ["wallet", "unlock", "--wallet", "w.json"])
        assert (result.exit_code, result.output) == (1, "error: cannot unlock wallet: scrypt refused n=16384, r=8, p=1\n")

    def test_secret_that_is_not_utf8(self, runner, workdir):
        """An environment value is bytes, and the secret is those bytes even where they do not decode."""
        create, unlock = (["wallet", verb, "--wallet", "w.json"] for verb in ("create", "unlock"))
        assert runner.invoke(main, create + ["--owner", "bob"], env={"WALLET_SECRET": "\udcff"}).exit_code == 0
        assert runner.invoke(main, unlock, env={"WALLET_SECRET": "\udcff"}).exit_code == 0
        assert runner.invoke(main, unlock, env={"WALLET_SECRET": "\udcfe"}).exit_code == 5

    def test_create_aborted_prompt(self, runner, workdir):
        """No secret in the environment and nothing on stdin: click's abort, no wallet."""
        result = runner.invoke(main, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"], env={"WALLET_SECRET": None}, input="")
        assert result.exit_code == 1
        assert "Aborted!" in result.output and "error:" not in result.output
        assert not Path("w.json").exists()

    def test_create_empty_secret(self, runner, workdir):
        result = runner.invoke(main, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"], env={"WALLET_SECRET": ""})
        assert (result.exit_code, result.output) == (1, "error: unlock secret must be non-empty\n")
        assert not Path("w.json").exists()

    def test_duplicate_create_refused(self, runner, workdir):
        invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"])
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"]).exit_code == 1

    def test_list_shows_relations(self, runner, workdir):
        invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"])
        invoke(runner, ["did", "new", "--wallet", "w.json", "--relation", "bank", "--seed", "cc"])
        listing = json.loads(invoke(runner, ["wallet", "list", "--wallet", "w.json", "--json"]).output)
        assert "bank" in listing["relations"]
        assert listing["relations"]["bank"]["did"].startswith("did:sample:")

    def test_did_new_for_a_relation_held_already(self, runner, workdir):
        invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"])
        assert invoke(runner, ["did", "new", "--wallet", "w.json", "--relation", "bank", "--seed", "cc"]).exit_code == 0
        before = Path("w.json").read_bytes()
        result = invoke(runner, ["did", "new", "--wallet", "w.json", "--relation", "bank", "--txn-out", "t.json"])
        assert (result.exit_code, result.output) == (1, "error: wallet already has relation 'bank'\n")
        assert Path("w.json").read_bytes() == before and not Path("t.json").exists()


class TestCredentialFlow:
    def test_issue_verify_ok(self, runner, workdir, issuer_setup):
        assert _issue(runner, issuer_setup).exit_code == 0
        result = invoke(
            runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl", "--json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["valid"] is True

    def test_tampered_file_exit_3(self, runner, workdir, issuer_setup):
        _issue(runner, issuer_setup)
        cred = json.loads(Path("alice.cred.json").read_text())
        cred["attributes"]["degree"] = "PhD"
        Path("alice.cred.json").write_text(json.dumps(cred))
        result = invoke(runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl"])
        assert result.exit_code == 3

    def test_revoked_exit_4(self, runner, workdir, issuer_setup):
        _issue(runner, issuer_setup)
        assert invoke(
            runner,
            ["cred", "revoke", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "net.ledger.jsonl", "--now", "150", "alice.cred.json"],
        ).exit_code == 0
        result = invoke(runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl"])
        assert result.exit_code == 4

    def test_presentation_flow(self, runner, workdir, issuer_setup):
        _issue(runner, issuer_setup)
        assert invoke(
            runner,
            ["cred", "present", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--audience", "did:sample:acme", "--out", "p.pres.json", "--now", "160",
             "alice.cred.json"],
        ).exit_code == 0
        ok = invoke(
            runner,
            ["cred", "verify", "p.pres.json", "--ledger", "net.ledger.jsonl",
             "--audience", "did:sample:acme"],
        )
        assert ok.exit_code == 0
        wrong = invoke(
            runner,
            ["cred", "verify", "p.pres.json", "--ledger", "net.ledger.jsonl",
             "--audience", "did:sample:other"],
        )
        assert wrong.exit_code == 3

    def test_float_in_ledger_file_reports_invalid_height(self, runner, workdir, issuer_setup):
        _issue(runner, issuer_setup)
        lines = Path("net.ledger.jsonl").read_text(encoding="utf-8").splitlines()
        block = json.loads(lines[1])
        block["txns"][1]["payload"]["document"]["endpoint"] = 1.5
        lines[1] = json.dumps(block)
        Path("net.ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = invoke(runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl"])
        assert result.exit_code == 1
        assert "invalid at height 1: BadMerkle" in result.output

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_break_in_a_record_keeps_the_ledger_readable(self, runner, workdir, issuer_setup, char):
        assert invoke(
            runner,
            ["did", "new", "--wallet", "holder.wallet.json", "--relation", "shop",
             "--endpoint", f"sim://a{char}", "--txn-out", "odd.txn.json", "--now", "135"],
        ).exit_code == 0
        appended = invoke(runner, ["ledger", "append", "--ledger", "net.ledger.jsonl", "--now", "136", "odd.txn.json"])
        assert (appended.exit_code, appended.output) == (0, "appended block 4 with 1 txn(s)\n")
        assert char.encode() in Path("net.ledger.jsonl").read_bytes()
        assert _issue(runner, issuer_setup).exit_code == 0  # reads the ledger
        verified = invoke(runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl"])
        assert (verified.exit_code, verified.output) == (0, "valid\n")
        state = invoke(runner, ["ledger", "state", "--ledger", "net.ledger.jsonl"])
        assert state.exit_code == 0
        assert f"sim://a{char}" in [doc["endpoint"] for doc in json.loads(state.output)["dids"].values()]
        assert invoke(
            runner,
            ["did", "new", "--wallet", "holder.wallet.json", "--relation", "shop2",
             "--txn-out", "next.txn.json", "--now", "137"],
        ).exit_code == 0
        appended = invoke(runner, ["ledger", "append", "--ledger", "net.ledger.jsonl", "--now", "138", "next.txn.json"])
        assert (appended.exit_code, appended.output) == (0, "appended block 5 with 1 txn(s)\n")

    @pytest.mark.parametrize("field, value", [("timestamp", 1.5), ("height", 1.0), ("timestamp", "\ud800")])
    def test_hand_edited_header_reports_bad_hash(self, runner, workdir, issuer_setup, field, value):
        _issue(runner, issuer_setup)
        lines = Path("net.ledger.jsonl").read_text(encoding="utf-8").splitlines()
        block = json.loads(lines[1])
        block[field] = value
        lines[1] = json.dumps(block)
        Path("net.ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = invoke(runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl"])
        assert (result.exit_code, result.output) == (1, "error: ledger net.ledger.jsonl is invalid at height 1: BadHash\n")

    @pytest.mark.parametrize(
        "record, audience, output",
        [
            (lambda pres, cred: 5, None, UNREADABLE + "argument of type 'int' is not iterable"),
            (lambda pres, cred: [1], None, UNREADABLE + "list indices must be integers or slices, not str"),
            (lambda pres, cred: "x", None, UNREADABLE + "string indices must be integers, not 'str'"),
            (lambda pres, cred: {**pres, "credentials": 5}, None, UNREADABLE + "'int' object is not iterable"),
            (
                lambda pres, cred: {**pres, "holder_signature": "zz"},
                None,
                UNREADABLE + "non-hexadecimal number found in fromhex() arg at position 0",
            ),
            (lambda pres, cred: {**cred, "cred_def_id": "abcd"}, None, UNREADABLE + "digest must be exactly 32 bytes"),
            (lambda pres, cred: {**pres, "holder_did": ["a"]}, None, UNREADABLE + "unhashable type: 'list'"),
            (lambda pres, cred: {**pres, "holder_did": ["a"]}, "did:sample:acme", UNREADABLE + "unhashable type: 'list'"),
            # the audience is checked before the holder is looked up
            (lambda pres, cred: {**pres, "holder_did": ["a"]}, "did:sample:other", "invalid: WrongAudience"),
        ],
    )
    def test_malformed_record_exit_3(self, runner, workdir, issuer_setup, record, audience, output):
        _issue(runner, issuer_setup)
        assert invoke(
            runner,
            ["cred", "present", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--audience", "did:sample:acme", "--out", "p.pres.json", "--now", "160",
             "alice.cred.json"],
        ).exit_code == 0
        pres = json.loads(Path("p.pres.json").read_text())
        cred = json.loads(Path("alice.cred.json").read_text())
        Path("x.json").write_text(json.dumps(record(pres, cred)))
        args = ["cred", "verify", "x.json", "--ledger", "net.ledger.jsonl"]
        result = invoke(runner, args + (["--audience", audience] if audience else []))
        assert (result.exit_code, result.output) == (3, output + "\n")

    @pytest.mark.parametrize(
        "year, output",
        [
            (1.5, {
                "pres": UNREADABLE + "float not allowed in canonical values at $.credentials[0].attributes.year",
                "cred": UNREADABLE + "float not allowed in canonical values at $.attributes.year",
            }),
            ("\ud800", {
                "pres": UNREADABLE + "'utf-8' codec can't encode character '\\ud800' in position 87: surrogates not allowed",
                "cred": UNREADABLE + "'utf-8' codec can't encode character '\\ud800' in position 38: surrogates not allowed",
            }),
        ],
    )
    def test_attribute_that_does_not_encode_exit_3(self, runner, workdir, issuer_setup, year, output):
        """The message names the value's place in the whole signed map: its path, or
        its position in the map's encoding."""
        _issue(runner, issuer_setup)
        assert invoke(
            runner,
            ["cred", "present", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--audience", "did:sample:acme", "--out", "p.pres.json", "--now", "160",
             "alice.cred.json"],
        ).exit_code == 0
        cred = json.loads(Path("alice.cred.json").read_text())
        cred["attributes"]["year"] = year
        pres = json.loads(Path("p.pres.json").read_text())
        pres["credentials"][0]["attributes"]["year"] = year
        for kind, record in (("pres", pres), ("cred", cred)):
            Path("x.json").write_text(json.dumps(record))
            result = invoke(runner, ["cred", "verify", "x.json", "--ledger", "net.ledger.jsonl"])
            assert (result.exit_code, result.output) == (3, output[kind] + "\n")

    def test_issue_by_non_issuer_refused(self, runner, workdir, issuer_setup):
        result = invoke(
            runner,
            ["cred", "issue", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--ledger", "net.ledger.jsonl", "--cred-def", issuer_setup["cred_def_id"],
             "--subject", issuer_setup["holder_did"], "--attr", "degree=BSc",
             "--attr", "year=2019", "--out", "x.json"],
        )
        assert result.exit_code == 1


class TestUnreadableInput:
    @pytest.fixture
    def files(self, runner, workdir):
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "o"]).exit_code == 0
        assert invoke(runner, ["did", "new", "--wallet", "w.json", "--relation", "public", "--seed", "cc"]).exit_code == 0
        assert invoke(runner, ["ledger", "init", "--out", "l.jsonl"]).exit_code == 0
        state = {"subject_did": "did:sample:x", "nonce": "00" * 32, "issued_at": 0, "ttl": 10, "consumed": False}
        Path("state.json").write_text(json.dumps(state))
        Path("resp.json").write_text(json.dumps({"response": "00" * 32}))

    COMMANDS = {
        "ledger append": (["ledger", "append", "--ledger", "l.jsonl", "x.json"], 3, "bad transaction record: "),
        "cred present": (
            ["cred", "present", "--wallet", "w.json", "--relation", "public", "--audience", "did:sample:a",
             "--out", "p.json", "x.json"],
            3,
            "",
        ),
        "cred revoke": (["cred", "revoke", "--wallet", "w.json", "--relation", "public", "--ledger", "l.jsonl", "x.json"], 3, ""),
        "auth check response": (["auth", "check", "--state", "state.json", "x.json"], 3, ""),
        "auth check state": (["auth", "check", "--state", "x.json", "resp.json"], 1, ""),
    }
    CONTENTS = {
        "5": "'int' object is not subscriptable",
        "[1]": "list indices must be integers or slices, not str",
        "{}": None,  # the first missing key
    }
    MISSING = {"ledger append": "'txn_type'", "auth check state": "'nonce'", "auth check response": "'response'"}

    @pytest.mark.parametrize("content", sorted(CONTENTS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_error_line(self, runner, files, command, content):
        args, code, prefix = self.COMMANDS[command]
        Path("x.json").write_text(content)
        reason = self.CONTENTS[content] or self.MISSING.get(command, "'cred_def_id'")
        result = invoke(runner, args)
        assert (result.exit_code, result.output) == (code, f"error: unreadable record x.json: {prefix}{reason}\n")

    NOT_UTF8 = {
        **{command: args for command, (args, _, _) in COMMANDS.items()},
        "cred verify": ["cred", "verify", "--ledger", "l.jsonl", "x.json"],
        "auth respond": ["auth", "respond", "--wallet", "w.json", "--relation", "public", "--out", "r.json", "x.json"],
    }

    @pytest.mark.parametrize("command", sorted(NOT_UTF8))
    def test_a_file_that_is_not_utf8(self, runner, files, command):
        Path("x.json").write_bytes(b"\xff\xfe{}")
        result = invoke(runner, self.NOT_UTF8[command])
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert (result.exit_code, result.output) == (1, f"error: cannot read x.json: {reason}\n")

    NESTED = {
        "cred verify": NOT_UTF8["cred verify"],
        "ledger append": NOT_UTF8["ledger append"],
        "sim run --config": ["sim", "run", "--config", "x.json", "--workload", "load.json", "--out", "r.json"],
        "sim run --workload": ["sim", "run", "--config", "c.json", "--workload", "x.json", "--out", "r.json"],
        "auth check": NOT_UTF8["auth check response"],
    }

    @pytest.mark.parametrize("command", sorted(NESTED))
    def test_json_nested_too_deep(self, runner, files, command):
        """100 000 nested arrays exhaust the JSON decoder's recursion limit:
        one ``error:`` line and exit 1, no traceback."""
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1}}))
        Path("load.json").write_text(json.dumps({"synthetic_registrations": {"count": 1, "seed": 5}}))
        Path("x.json").write_text("[" * 100_000 + "]" * 100_000)
        result = invoke(runner, self.NESTED[command])
        assert result.exit_code == 1
        assert result.output.startswith("error: cannot read x.json: ") and result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "state",
        [
            {"nonce": "00" * 32, "issued_at": "0", "ttl": 10},
            {"nonce": "00" * 32, "issued_at": 0, "ttl": [10]},
            {"nonce": "zz", "consumed": True},
            {"nonce": "00" * 32, "consumed": True, "note": 1.5},
        ],
    )
    def test_auth_state_that_does_not_fit_exit_1(self, runner, files, state):
        Path("x.json").write_text(json.dumps(state))
        before = Path("x.json").read_bytes()
        result = invoke(runner, ["auth", "check", "--state", "x.json", "resp.json"])
        assert result.exit_code == 1
        assert result.output.startswith("error: unreadable record x.json: ") and result.output.count("\n") == 1
        assert Path("x.json").read_bytes() == before


class TestVerifyFoldsWhatItReads:
    @staticmethod
    def _write_ledger(unrelated: int) -> None:
        """A ledger with ``unrelated`` DID_REGs around one issuer's schema and
        cred def and one holder, plus the holder's credential and presentation."""
        issuer, holder = Identity.create("reads-issuer"), Identity.create("reads-holder")
        schema = SchemaRecord.create("reads", "1.0", [("ref", AttrType.STRING)])
        cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)
        others = [Identity.create(f"reads-other-{i}").registration_txn(2) for i in range(unrelated)]
        records = [
            issuer.registration_txn(1),
            *others[: unrelated // 2],
            LedgerTransaction.create(TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 3),
            LedgerTransaction.create(TxnType.CRED_DEF, cred_def_payload(cred_def), issuer.did, issuer.signing_private, 4),
            *others[unrelated // 2 :],
            holder.registration_txn(5),
        ]
        chain = Chain.new()
        write_chain(chain.append(build_block(chain.head, records, 6)), "net.ledger.jsonl")
        credential = issue(issuer.signing_private, cred_def, schema, holder.did, {"ref": "r"}, 7)
        body = Presentation.body([credential], holder.did, "did:sample:acme", 8)
        signature = sign(holder.signing_private, digest_of(body).value)
        presentation = Presentation((credential,), holder.did, "did:sample:acme", 8, signature)
        Path("c.json").write_text(json.dumps(credential.to_dict()))
        Path("p.json").write_text(json.dumps(presentation.to_dict()))

    @pytest.mark.parametrize("unrelated", [0, 8, 40])
    def test_records_folded_do_not_grow_with_the_ledger(self, runner, workdir, monkeypatch, unrelated):
        self._write_ledger(unrelated)
        folded = []
        real_fold_into = state_mod.fold_into

        def counting(state, txns):
            txns = list(txns)
            folded.append(len(txns))
            return real_fold_into(state, txns)

        monkeypatch.setattr(state_mod, "fold_into", counting)
        for record, count in (("p.json", 4), ("c.json", 3)):
            folded.clear()
            result = invoke(runner, ["cred", "verify", record, "--ledger", "net.ledger.jsonl"])
            assert (result.exit_code, result.output) == (0, "valid\n")
            assert folded == [count]  # the issuer's and holder's DID_REGs, the schema, the cred def


def _corpus_base() -> tuple[list[dict], dict]:
    """A valid ledger's lines, decoded: DID_REGs, then a schema and a cred def,
    then a revocation. Also the record files: a presentation that verifies and
    a revoked credential."""
    issuer, holder = Identity.create("corpus-issuer"), Identity.create("corpus-holder")
    schema = SchemaRecord.create("corpus", "1.0", [("ref", AttrType.STRING)])
    cred_def = CredDefRecord.create(schema.schema_id, issuer.did, issuer.signing_public)
    valid, revoked = (issue(issuer.signing_private, cred_def, schema, holder.did, {"ref": ref}, 7) for ref in "ab")
    blocks = [
        [issuer.registration_txn(1), holder.registration_txn(1), Identity.create("corpus-other").registration_txn(1)],
        [
            LedgerTransaction.create(TxnType.SCHEMA, schema_payload(schema), issuer.did, issuer.signing_private, 3),
            LedgerTransaction.create(TxnType.CRED_DEF, cred_def_payload(cred_def), issuer.did, issuer.signing_private, 4),
        ],
        [revoke(issuer.did, issuer.signing_private, cred_def, revoked.credential_hash, 8)],
    ]
    chain = Chain.new()
    for height, records in enumerate(blocks, 1):
        chain = chain.append(build_block(chain.head, records, 10 * height))
    body = Presentation.body([valid], holder.did, "did:sample:acme", 9)
    presentation = Presentation((valid,), holder.did, "did:sample:acme", 9, sign(holder.signing_private, digest_of(body).value))
    files = {"p.json": presentation.to_dict(), "c.json": revoked.to_dict()}
    return [json.loads(line) for line in chain.to_lines()], files


def _flipped(text: str) -> str:
    return ("1" if text[0] == "0" else "0") + text[1:]


def _text(lines: list[dict]) -> str:
    """The lines as ``write_chain`` writes them, bar floats and lone surrogates,
    which ``canonical_json`` refuses: sorted keys, no spaces, ASCII escapes."""
    return "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n" for line in lines)


def _rehashed(lines: list[dict]) -> list[dict]:
    """Every block hash and link recomputed over the headers as they stand."""
    prev = None
    for line in lines:
        if prev is not None:
            line["prev_hash"] = prev
        root, link = Digest.from_hex(line["merkle_root"]), Digest.from_hex(line["prev_hash"])
        prev = line["block_hash"] = Block.compute_hash(line["height"], link, root, line["timestamp"]).hex
    return lines


def _set(height: int, path: list, value, rehash: bool = False):
    """The case that sets one value of one line (a callable maps the old value)."""

    def case(lines: list[dict]) -> bytes:
        *outer, last = path
        container = lines[height]
        for key in outer:
            container = container[key]
        container[last] = value(container[last]) if callable(value) else value
        return _text(_rehashed(lines) if rehash else lines).encode()

    return case


def _swapped(lines: list[dict]) -> str:
    return _text(lines[:1] + lines[2:3] + lines[1:2] + lines[3:])


def _two_faults(lines: list[dict]) -> bytes:
    lines[1]["timestamp"] += 1  # a BadHash at height 1
    lines[3]["txns"][0]["txn_id"] = _flipped(lines[3]["txns"][0]["txn_id"])  # a BadMerkle at height 3
    return _text(lines).encode()


def _spaced_and_shuffled(lines: list[dict]) -> bytes:
    return "".join(json.dumps(dict(reversed(line.items())), separators=(" , ", " : ")) + "\n" for line in lines).encode()


# each case turns the valid ledger's decoded lines into the bytes of a ledger file
LEDGER_CORPUS = {
    "as-written": lambda lines: _text(lines).encode(),
    "crlf": lambda lines: _text(lines).replace("\n", "\r\n").encode(),
    "blank-lines": lambda lines: ("\n" + _text(lines).replace("\n", "\n \n") + "\n\t\n").encode(),
    "bom": lambda lines: ("\ufeff" + _text(lines)).encode(),
    "float-in-payload": _set(1, ["txns", 2, "payload", "document", "endpoint"], 1.5),
    "float-timestamp": _set(2, ["timestamp"], 30.0),
    "lone-surrogate": _set(1, ["txns", 0, "payload", "document", "endpoint"], "sim://\ud800"),
    "upper-case-txn-id": _set(2, ["txns", 0, "txn_id"], str.upper),
    "upper-case-prev-hash": _set(3, ["prev_hash"], str.upper),
    "upper-case-key": _set(1, ["txns", 0, "payload", "document", "verification_key"], str.upper),
    "short-txn-id": _set(2, ["txns", 1, "txn_id"], lambda text: text[:-2]),
    "odd-length-signature": _set(1, ["txns", 0, "author_signature"], lambda text: text[:-1]),
    "true-height": _set(1, ["height"], True),
    "true-height-rehashed": _set(1, ["height"], True, rehash=True),
    "extra-record-key": _set(2, ["txns", 0, "note"], "x"),
    "extra-block-key": _set(2, ["note"], [1, 2]),
    "spaced-and-shuffled": _spaced_and_shuffled,
    "flipped-prev-hash": _set(2, ["prev_hash"], _flipped),
    "flipped-merkle-root": _set(2, ["merkle_root"], _flipped),
    "flipped-block-hash": _set(2, ["block_hash"], _flipped),
    "flipped-signature": _set(2, ["txns", 1, "author_signature"], _flipped),
    "flipped-txn-id": _set(3, ["txns", 0, "txn_id"], _flipped),
    "flipped-payload-key": _set(1, ["txns", 1, "payload", "document", "agreement_key"], _flipped),
    "flipped-revoked-hash": _set(3, ["txns", 0, "payload", "revoked", 0], _flipped),
    "swapped-blocks": lambda lines: _swapped(lines).encode(),
    "duplicated-line": lambda lines: _text(lines[:3] + lines[2:]).encode(),
    "truncated": lambda lines: _text(lines).encode()[: len(_text(lines)) * 2 // 3],
    "empty": lambda lines: b"",
    "blank-only": lambda lines: b"\n \r\n",
    "fault-then-read-error": lambda lines: (_swapped(lines) + '{"height": 4').encode(),
    "two-faults": _two_faults,
    "not-a-map": lambda lines: (_text(lines) + "[1, 2]\n").encode(),
    "not-utf-8": lambda lines: _text(lines).encode() + b"\xff\n",
}


def _reference(args: list[str]) -> tuple[int, str]:
    """What ``cred verify``, ``ledger state`` and ``ledger append`` of one
    fresh DID_REG print, composed from the library as the commands read a
    ledger before the one-pass check: the whole chain read, validated and
    folded, then the verdict or the new block."""
    path = args[args.index("--ledger") + 1]
    try:
        chain = read_chain(path)
    except Exception as exc:  # noqa: BLE001 - the command reports any read error
        return 1, f"error: cannot read ledger {path}: {exc}\n"
    check = validate_chain(chain)
    if not check.ok:
        return 1, f"error: ledger {path} is invalid at height {check.height}: {check.reason.value}\n"
    state = fold_chain(chain)
    if args[:2] == ["ledger", "state"]:
        return 0, canonical_json(state.to_dict()) + "\n"
    if args[:2] == ["ledger", "append"]:
        return 0, f"appended block {chain.height + 1} with 1 txn(s)\n"
    data = json.loads(Path(args[-1]).read_text())
    if "holder_signature" in data:
        result = verify_presentation(Presentation.from_dict(data), state, expected_audience="did:sample:acme")
    else:
        result = verify_credential(VerifiableCredential.from_dict(data), state)
    if result.valid:
        return 0, "valid\n"
    return 4 if result.reason == "Revoked" else 3, f"invalid: {result.reason}\n"


class TestLedgerFileCorpus:
    """``cred verify``, ``ledger state`` and ``ledger append`` on hand-made
    ledger files print the line and exit with the code of the reference
    composition. An append keeps the file's bytes and adds one line."""

    @pytest.mark.parametrize("case", sorted(LEDGER_CORPUS))
    def test_same_line_and_exit_code(self, runner, workdir, case):
        lines, files = _corpus_base()
        for name, record in files.items():
            Path(name).write_text(json.dumps(record))
        Path("net.ledger.jsonl").write_bytes(LEDGER_CORPUS[case](lines))
        commands = [
            ["ledger", "state", "--ledger", "net.ledger.jsonl"],
            ["cred", "verify", "--ledger", "net.ledger.jsonl", "--audience", "did:sample:acme", "p.json"],
            ["cred", "verify", "--ledger", "net.ledger.jsonl", "c.json"],
        ]
        for args in commands:
            result = invoke(runner, args)
            assert (result.exit_code, result.output) == _reference(args), args

    @pytest.mark.parametrize("case", sorted(LEDGER_CORPUS))
    def test_append_keeps_the_bytes_and_adds_one_line(self, runner, workdir, case):
        lines, _ = _corpus_base()
        before = LEDGER_CORPUS[case](lines)
        Path("net.ledger.jsonl").write_bytes(before)
        txn = Identity.create("corpus-new").registration_txn(50)
        Path("reg.json").write_text(json.dumps(txn.to_dict()))
        args = ["ledger", "append", "--ledger", "net.ledger.jsonl", "--now", "60", "reg.json"]
        expected = _reference(args)
        result = invoke(runner, args)
        assert (result.exit_code, result.output) == expected
        after = Path("net.ledger.jsonl").read_bytes()
        if result.exit_code != 0:
            assert after == before
            return
        kept = before if before.endswith(b"\n") else before + b"\n"
        assert after.startswith(kept) and after.count(b"\n") == kept.count(b"\n") + 1
        check, records, head = check_file("net.ledger.jsonl")
        assert check.ok and head.txns == (txn,)
        folded = NodeState()
        fold_into(folded, map(_built, records))
        Path("net.ledger.jsonl").write_bytes(before)
        reference = fold_chain(read_chain("net.ledger.jsonl"))
        fold_into(reference, [txn])
        assert folded.to_dict() == reference.to_dict()


class TestConsentCommand:
    def test_record_consent(self, runner, workdir, issuer_setup):
        result = invoke(
            runner,
            ["consent", "record",
             "--owner-wallet", "holder.wallet.json", "--owner-relation", "employer",
             "--verifier-wallet", "issuer.wallet.json", "--verifier-relation", "public",
             "--ledger", "net.ledger.jsonl",
             "--shared", "degree:string", "--shared", "year:integer",
             "--purpose", "hiring", "--out", "c.receipt.json", "--now", "170"],
        )
        assert result.exit_code == 0
        receipt = json.loads(Path("c.receipt.json").read_text())
        assert receipt["shared"] == [["degree", "string"], ["year", "integer"]]
        state = json.loads(
            invoke(runner, ["ledger", "state", "--ledger", "net.ledger.jsonl"]).output
        )
        assert len(state["consent_proofs"]) == 1


class TestAuthCommands:
    def test_full_auth_loop(self, runner, workdir, issuer_setup):
        holder_did = issuer_setup["holder_did"]
        assert invoke(
            runner,
            ["auth", "challenge", "--ledger", "net.ledger.jsonl", "--did", holder_did,
             "--ttl", "120", "--out", "ch.json", "--state", "vs.json", "--now", "200"],
        ).exit_code == 0
        assert invoke(
            runner,
            ["auth", "respond", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--out", "resp.json", "ch.json"],
        ).exit_code == 0
        assert invoke(
            runner, ["auth", "check", "--state", "vs.json", "--now", "210", "resp.json"]
        ).exit_code == 0
        replay = invoke(runner, ["auth", "check", "--state", "vs.json", "--now", "211", "resp.json"])
        assert replay.exit_code == 5

    def test_expired_challenge(self, runner, workdir, issuer_setup):
        holder_did = issuer_setup["holder_did"]
        invoke(
            runner,
            ["auth", "challenge", "--ledger", "net.ledger.jsonl", "--did", holder_did,
             "--ttl", "10", "--out", "ch.json", "--state", "vs.json", "--now", "200"],
        )
        invoke(
            runner,
            ["auth", "respond", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--out", "resp.json", "ch.json"],
        )
        late = invoke(runner, ["auth", "check", "--state", "vs.json", "--now", "500", "resp.json"])
        assert late.exit_code == 5
        assert "Expired" in late.output

    def test_wrong_wallet_cannot_respond(self, runner, workdir, issuer_setup):
        invoke(
            runner,
            ["auth", "challenge", "--ledger", "net.ledger.jsonl",
             "--did", issuer_setup["holder_did"],
             "--ttl", "120", "--out", "ch.json", "--state", "vs.json", "--now", "200"],
        )
        result = invoke(
            runner,
            ["auth", "respond", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--out", "resp.json", "ch.json"],
        )
        assert result.exit_code == 5


class TestSimCommand:
    def _config(self, path: Path, n: int | None = None):
        config = {"consensus": {"f": 1, "batch_max": 5, "batch_timeout_ms": 50}}
        if n is not None:
            config["n"] = n
        path.write_text(json.dumps(config))

    def _workload(self, path: Path):
        path.write_text(
            json.dumps({"synthetic_registrations": {"count": 12, "seed": 5, "interval_ms": 40}})
        )

    def test_run_and_determinism(self, runner, workdir):
        self._config(Path("c.json"))
        self._workload(Path("w.json"))
        first = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "42", "--workload", "w.json",
             "--out", "r1.json", "--events", "e1.jsonl", "--horizon", "3000"],
        )
        assert first.exit_code == 0
        second = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "42", "--workload", "w.json",
             "--out", "r2.json", "--horizon", "3000"],
        )
        assert second.exit_code == 0
        assert Path("r1.json").read_bytes() == Path("r2.json").read_bytes()
        report = json.loads(Path("r1.json").read_text())
        assert report["honest_chains_agree"] is True
        assert len(set(report["honest_digests"])) == 1
        assert Path("e1.jsonl").exists()

    def test_report_into_a_missing_directory_exit_1(self, runner, workdir):
        self._config(Path("c.json"))
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--workload", "w.json", "--out", "missing-dir/r.json", "--horizon", "3000"],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot write missing-dir/r.json: ") and result.stderr.count("\n") == 1
        assert sorted(path.name for path in workdir.iterdir()) == ["c.json", "w.json"]

    def test_bad_n_exit_1(self, runner, workdir):
        self._config(Path("c.json"), n=3)
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json"],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "network",
        [
            {"min_latency_ms": 5.5},
            {"max_latency_ms": 15.5},
            {"min_latency_ms": "5"},
            {"min_latency_ms": True},
            {"min_latency_ms": -50, "max_latency_ms": -40},
            {"max_latency_ms": -1},
            {"drop_prob": 1.5},
            {"drop_prob": -0.1},
            {"drop_prob": float("nan")},
            {"drop_prob": "0.1"},
            {"slow_nodes": {"0": -2.0}},
            {"slow_nodes": {"0": float("inf")}},
            {"slow_nodes": {"0": float("nan")}},
        ],
    )
    def test_bad_link_settings_exit_1(self, runner, workdir, network):
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1}, "network": network}))
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json", "--horizon", "2000"],
        )
        assert result.exit_code == 1
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert not Path("r.json").exists()

    @pytest.mark.parametrize(
        "config, workload",
        [
            ({"network": {"partitions": [{"start": 0, "group_a": [0], "group_b": [1]}]}}, None),
            ({"network": {"partitions": [{"start": 0, "end": 9, "group_a": [0], "group_b": 7}]}}, None),
            ({"network": {"slow_nodes": {"0": [2]}}}, None),
            ([{"consensus": {"f": 1}}], None),
            ({"consensus": {"f": "x"}}, None),
            ({"faults": {"crash": {"9": 100}}}, None),
            ({"consensus": {"f": 1, "monitor_interval_ms": 0}}, None),
            (None, {"txns": [{"node": 0, "txn": {}}]}),
            (None, {"synthetic_registrations": {"count": "x"}}),
            (None, {"txns": [{"time": 10, "txn": {"txn_type": "DID_REG"}}]}),
        ],
    )
    def test_malformed_input_exit_1(self, runner, workdir, config, workload):
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1}} if config is None else config))
        if workload is None:
            self._workload(Path("w.json"))
        else:
            Path("w.json").write_text(json.dumps(workload))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json", "--horizon", "2000"],
        )
        assert result.exit_code == 1
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert not Path("r.json").exists()

    def test_max_latency_below_min_is_the_min(self, runner, workdir):
        network = {"min_latency_ms": 12, "max_latency_ms": 3}
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1}, "network": network}))
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json", "--horizon", "2000"],
        )
        assert result.exit_code == 0
        assert json.loads(Path("r.json").read_text())["honest_chains_agree"] is True

    def test_lagging_node_is_no_safety_violation(self, runner, workdir):
        network = {"partitions": [{"start": 0, "end": 100_000, "group_a": [3], "group_b": [0, 1, 2]}]}
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1, "batch_max": 5, "batch_timeout_ms": 50}, "network": network}))
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json", "--horizon", "2000"],
        )
        assert result.exit_code == 0
        assert "honest chains agree: False" in result.output
        assert "SAFETY VIOLATION" not in result.output
        report = json.loads(Path("r.json").read_text())
        assert (report["honest_chains_agree"], report["safety_violations"]) == (False, 0)

    def test_forked_honest_chains_exit_2(self, runner, workdir, monkeypatch):
        import ssiledger.cli as cli_mod
        from ssiledger.ledger import Chain as LedgerChain
        from ssiledger.simulation import run_simulation as real_run

        def forked(*args, **kwargs):
            report, sim = real_run(*args, **kwargs)
            sim.nodes[2].chain = LedgerChain.new(genesis_timestamp=1)  # a different genesis: no prefix of the others
            return report, sim

        monkeypatch.setattr(cli_mod, "run_simulation", forked)
        self._config(Path("c.json"))
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json", "--horizon", "2000"],
        )
        assert result.exit_code == 2
        assert "CONSENSUS SAFETY VIOLATION DETECTED" in result.output

    def test_safety_violation_exit_2(self, runner, workdir, monkeypatch):
        # a violating run cannot be produced honestly, so fake the report
        import dataclasses

        import ssiledger.cli as cli_mod
        from ssiledger.simulation import run_simulation as real_run

        def tainted(*args, **kwargs):
            report, sim = real_run(*args, **kwargs)
            return dataclasses.replace(report, safety_violations=1), sim

        monkeypatch.setattr(cli_mod, "run_simulation", tainted)
        self._config(Path("c.json"))
        self._workload(Path("w.json"))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "1", "--workload", "w.json",
             "--out", "r.json", "--horizon", "2000"],
        )
        assert result.exit_code == 2


class TestScenarioCommand:
    def test_medical_runs_clean(self, runner, workdir):
        result = invoke(runner, ["scenario", "run", "medical", "--seed", "1"])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_artifacts_written(self, runner, workdir):
        result = invoke(
            runner, ["scenario", "run", "loan", "--seed", "1", "--out", "artifacts"]
        )
        assert result.exit_code == 0
        produced = {p.name for p in Path("artifacts").iterdir()}
        assert {"transcript.json", "net.ledger.jsonl", "net.state.json", "net.events.jsonl"} <= produced
        assert any(name.endswith(".receipt.json") for name in produced)

    def test_artifacts_into_a_regular_file_exit_1(self, runner, workdir):
        Path("artifacts").write_text("not a directory")
        result = invoke(runner, ["scenario", "run", "loan", "--seed", "1", "--out", "artifacts"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot write artifacts: ") and result.stderr.count("\n") == 1
        assert Path("artifacts").read_text() == "not a directory"

    def test_skip_consent_exit_6(self, runner, workdir):
        result = invoke(runner, ["scenario", "run", "loan", "--seed", "1", "--skip-consent"])
        assert result.exit_code == 6

    def test_json_transcript_deterministic(self, runner, workdir):
        first = invoke(runner, ["scenario", "run", "medical", "--seed", "2", "--json"])
        second = invoke(runner, ["scenario", "run", "medical", "--seed", "2", "--json"])
        assert first.exit_code == 0
        assert first.output == second.output


class TestLedgerWritePath:
    """Every command that writes the ledger file checks each record's id, then
    its signature, then folds it, in argument order; the first failure ends
    the command with one ``error:`` line, exit 3, and the file untouched."""

    @pytest.fixture
    def ledger(self, runner, workdir):
        assert invoke(runner, ["ledger", "init", "--out", "l.jsonl"]).exit_code == 0
        author = Identity.create("write-path")
        Path("reg.json").write_text(json.dumps(author.registration_txn(5).to_dict()))
        record = SchemaRecord.create("degree", "1.0", [("degree", AttrType.STRING)])
        schema = LedgerTransaction.create(TxnType.SCHEMA, schema_payload(record), author.did, author.signing_private, 6)
        Path("schema.json").write_text(json.dumps(schema.to_dict()))
        forged = {**author.registration_txn(7).to_dict(), "author_signature": "11" * 64}
        Path("forged.json").write_text(json.dumps(forged))
        moved = {**author.registration_txn(5).to_dict(), "timestamp": 8}  # signed payload intact, id stale
        Path("moved.json").write_text(json.dumps(moved))
        Path("undecodable.json").write_text("[1]")
        Path("small-order.json").write_text(json.dumps(small_order_registration().to_dict()))
        return Path("l.jsonl").read_bytes()

    def _append(self, runner, *files):
        return invoke(runner, ["ledger", "append", "--ledger", "l.jsonl", "--now", "9", *files])

    def test_registration_and_schema_by_it_make_one_block(self, runner, ledger):
        result = self._append(runner, "reg.json", "schema.json")
        assert (result.exit_code, result.output) == (0, "appended block 1 with 2 txn(s)\n")
        lines = Path("l.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and len(json.loads(lines[1])["txns"]) == 2

    @pytest.mark.parametrize(
        "files, output",
        [
            (["forged.json"], "forged.json: transaction signature does not verify"),
            (["moved.json"], "moved.json: transaction signature does not verify"),
            (["forged.json", "undecodable.json"], "forged.json: transaction signature does not verify"),
            (["reg.json", "reg.json"], "reg.json: rejected (DuplicateDid)"),
            (["schema.json", "reg.json"], "schema.json: transaction signature does not verify"),
            (["small-order.json"], "small-order.json: transaction signature does not verify"),
        ],
    )
    def test_first_failure_ends_the_command(self, runner, ledger, files, output):
        result = self._append(runner, *files)
        assert (result.exit_code, result.output) == (3, f"error: {output}\n")
        assert Path("l.jsonl").read_bytes() == ledger

    @pytest.mark.parametrize("already", [True, False], ids=["on-the-ledger", "earlier-in-the-command"])
    def test_txn_id_is_appended_once(self, runner, ledger, already):
        if already:
            assert self._append(runner, "reg.json", "schema.json").exit_code == 0
            ledger, files = Path("l.jsonl").read_bytes(), ["schema.json"]
        else:
            files = ["reg.json", "schema.json", "schema.json"]
        schema_id = json.loads(Path("schema.json").read_text())["txn_id"]
        result = self._append(runner, *files)
        expected = f"error: schema.json: duplicate transaction id {schema_id}\n"
        assert (result.exit_code, result.output) == (3, expected)
        assert Path("l.jsonl").read_bytes() == ledger

    def test_schema_by_an_unregistered_did_is_refused(self, runner, ledger):
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "o"]).exit_code == 0
        assert invoke(runner, ["did", "new", "--wallet", "w.json", "--relation", "public", "--seed", "dd"]).exit_code == 0
        result = invoke(
            runner,
            ["schema", "publish", "--wallet", "w.json", "--relation", "public", "--ledger", "l.jsonl",
             "--name", "n", "--attr", "a:string"],
        )
        expected = "error: transaction signature does not verify against the ledger\n"
        assert (result.exit_code, result.output) == (3, expected)
        assert Path("l.jsonl").read_bytes() == ledger

    @pytest.mark.parametrize(
        "command",
        [
            "ledger append",
            "ledger state",
            "schema publish",
            "creddef publish",
            "cred issue",
            "cred revoke",
            "consent record",
            "auth challenge",
        ],
    )
    def test_publish_and_revoke_read_the_ledger_once(self, runner, workdir, issuer_setup, monkeypatch, command):
        """Every command that reads the ledger reads it once, through ``check_file``."""
        assert _issue(runner, issuer_setup).exit_code == 0
        wallet = ["--wallet", "issuer.wallet.json", "--relation", "public", "--ledger", "net.ledger.jsonl"]
        out = invoke(runner, ["schema", "publish", *wallet, "--name", "transcript", "--attr", "grade:string"])
        Path("reg.json").write_text(json.dumps(Identity.create("read-once").registration_txn(150).to_dict()))
        args = {
            "ledger append": ["ledger", "append", "--ledger", "net.ledger.jsonl", "reg.json"],
            "ledger state": ["ledger", "state", "--ledger", "net.ledger.jsonl"],
            "schema publish": ["schema", "publish", *wallet, "--name", "diploma", "--attr", "grade:string"],
            "creddef publish": ["creddef", "publish", *wallet, "--schema-id", out.output.strip().split()[-1]],
            "cred issue": ["cred", "issue", *wallet, "--cred-def", issuer_setup["cred_def_id"],
                           "--subject", issuer_setup["holder_did"], "--attr", "degree=MSc", "--attr", "year=2020",
                           "--out", "bob.cred.json"],
            "cred revoke": ["cred", "revoke", *wallet, "alice.cred.json"],
            "consent record": ["consent", "record", "--owner-wallet", "holder.wallet.json",
                               "--owner-relation", "employer", "--verifier-wallet", "issuer.wallet.json",
                               "--verifier-relation", "public", "--ledger", "net.ledger.jsonl",
                               "--shared", "degree:string", "--purpose", "hiring", "--out", "c.receipt.json"],
            "auth challenge": ["auth", "challenge", "--ledger", "net.ledger.jsonl", "--did", issuer_setup["holder_did"],
                               "--out", "ch.json", "--state", "vs.json"],
        }[command]
        reads = []
        monkeypatch.setattr(cli, "check_file", lambda path: reads.append(path) or check_file(path))
        assert invoke(runner, args).exit_code == 0
        assert reads == ["net.ledger.jsonl"]
        verify = invoke(runner, ["cred", "verify", "alice.cred.json", "--ledger", "net.ledger.jsonl"])
        assert verify.exit_code == (4 if command == "cred revoke" else 0)


class TestRecordsAlreadyOnTheLedger:
    """A schema, cred def or revocation already on the ledger passes the
    checks a new record passes, prints the usual line and exits 0, but leaves
    the ledger file byte-identical. A record refused before is refused still."""

    WALLET = ["--wallet", "issuer.wallet.json", "--relation", "public", "--ledger", "net.ledger.jsonl"]

    @pytest.mark.parametrize("command", ["schema publish", "creddef publish", "cred revoke"])
    def test_second_run_leaves_the_file_byte_identical(self, runner, workdir, issuer_setup, command):
        assert _issue(runner, issuer_setup).exit_code == 0
        args = {
            "schema publish": ["schema", "publish", *self.WALLET, "--name", "degree",
                               "--attr", "degree:string", "--attr", "year:integer"],
            "creddef publish": ["creddef", "publish", *self.WALLET, "--schema-id", issuer_setup["schema_id"]],
            "cred revoke": ["cred", "revoke", *self.WALLET, "alice.cred.json"],
        }[command]
        first = invoke(runner, [*args, "--now", "150"])
        assert first.exit_code == 0
        ledger = Path("net.ledger.jsonl").read_bytes()
        again = invoke(runner, [*args, "--now", "160"])
        assert (again.exit_code, again.output) == (0, first.output)
        assert Path("net.ledger.jsonl").read_bytes() == ledger

    def test_schema_on_the_ledger_by_an_unregistered_did_is_refused(self, runner, workdir, issuer_setup):
        assert invoke(runner, ["did", "new", "--wallet", "holder.wallet.json", "--relation", "shop"]).exit_code == 0
        ledger = Path("net.ledger.jsonl").read_bytes()
        result = invoke(
            runner,
            ["schema", "publish", "--wallet", "holder.wallet.json", "--relation", "shop",
             "--ledger", "net.ledger.jsonl", "--name", "degree", "--attr", "degree:string", "--attr", "year:integer"],
        )
        expected = "error: transaction signature does not verify against the ledger\n"
        assert (result.exit_code, result.output) == (3, expected)
        assert Path("net.ledger.jsonl").read_bytes() == ledger

    def test_revoked_credential_revoked_by_a_non_issuer_is_refused(self, runner, workdir, issuer_setup):
        assert _issue(runner, issuer_setup).exit_code == 0
        assert invoke(runner, ["cred", "revoke", *self.WALLET, "alice.cred.json"]).exit_code == 0
        ledger = Path("net.ledger.jsonl").read_bytes()
        result = invoke(
            runner,
            ["cred", "revoke", "--wallet", "holder.wallet.json", "--relation", "employer",
             "--ledger", "net.ledger.jsonl", "alice.cred.json"],
        )
        assert result.exit_code == 3 and result.output.startswith("error: ")
        assert Path("net.ledger.jsonl").read_bytes() == ledger


class TestNameTypeOptions:
    @pytest.mark.parametrize(
        "spec, reason",
        [("degree", "list index out of range"), ("degree:float", "'float' is not a valid AttrType")],
    )
    def test_bad_spec_exit_1(self, runner, workdir, issuer_setup, spec, reason):
        ledger = Path("net.ledger.jsonl").read_bytes()
        commands = {
            "--attr": ["schema", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
                       "--ledger", "net.ledger.jsonl", "--name", "n", "--attr", "a:string", "--attr", spec],
            "--shared": ["consent", "record", "--owner-wallet", "holder.wallet.json", "--owner-relation", "employer",
                         "--verifier-wallet", "issuer.wallet.json", "--verifier-relation", "public",
                         "--ledger", "net.ledger.jsonl", "--shared", spec, "--purpose", "hiring", "--out", "c.json"],
        }
        for option, args in commands.items():
            result = invoke(runner, args)
            assert (result.exit_code, result.output) == (1, f"error: bad {option}: {reason}\n")
        assert Path("net.ledger.jsonl").read_bytes() == ledger


class TestHexOptions:
    """A hex option value that does not parse: one ``error:`` line, exit 1,
    and the wallet and ledger files untouched."""

    @pytest.mark.parametrize(
        "option, value, reason",
        [
            ("--seed", "zz", "non-hexadecimal number found in fromhex() arg at position 0"),
            ("--schema-id", "zz", "non-hexadecimal number found in fromhex() arg at position 0"),
            ("--cred-def", "00", "digest must be exactly 32 bytes"),
        ],
        ids=["seed", "schema-id", "cred-def"],
    )
    def test_bad_value_exit_1(self, runner, workdir, issuer_setup, option, value, reason):
        wallet = ["--wallet", "issuer.wallet.json", "--relation", "public"]
        commands = {
            "--seed": ["did", "new", "--wallet", "issuer.wallet.json", "--relation", "other"],
            "--schema-id": ["creddef", "publish", *wallet, "--ledger", "net.ledger.jsonl"],
            "--cred-def": ["cred", "issue", *wallet, "--ledger", "net.ledger.jsonl", "--subject",
                           issuer_setup["holder_did"], "--attr", "degree=BSc", "--out", "x.json"],
        }
        files = {name: Path(name).read_bytes() for name in ("issuer.wallet.json", "net.ledger.jsonl")}
        result = invoke(runner, commands[option] + [option, value])
        assert (result.exit_code, result.output) == (1, f"error: bad {option}: {reason}\n")
        assert {name: Path(name).read_bytes() for name in files} == files


class TestUnknownRelation:
    """A relation the wallet does not hold: one ``error:`` line, exit 1, and
    the ledger file untouched."""

    def _commands(self, setup):
        wallet = ["--wallet", "issuer.wallet.json", "--relation", "nobody", "--ledger", "net.ledger.jsonl"]
        consent = ["consent", "record", "--owner-wallet", "holder.wallet.json", "--verifier-wallet", "issuer.wallet.json",
                   "--ledger", "net.ledger.jsonl", "--shared", "degree:string", "--purpose", "hiring", "--out", "c.json"]
        return {
            "schema publish": ["schema", "publish", *wallet, "--name", "n", "--attr", "a:string"],
            "creddef publish": ["creddef", "publish", *wallet, "--schema-id", setup["schema_id"]],
            "cred issue": ["cred", "issue", *wallet, "--cred-def", setup["cred_def_id"], "--subject",
                           setup["holder_did"], "--attr", "degree=BSc", "--out", "x.json"],
            "cred revoke": ["cred", "revoke", *wallet, "alice.cred.json"],
            "consent record verifier": consent + ["--owner-relation", "employer", "--verifier-relation", "nobody"],
            "consent record owner": consent + ["--owner-relation", "nobody", "--verifier-relation", "public"],
            "auth respond": ["auth", "respond", "--wallet", "issuer.wallet.json", "--relation", "nobody", "--out", "r.json",
                             "alice.cred.json"],
            "cred present": ["cred", "present", "--wallet", "holder.wallet.json", "--relation", "nobody",
                             "--audience", "did:sample:acme", "--out", "p.json", "alice.cred.json"],
        }

    @pytest.mark.parametrize(
        "command",
        ["schema publish", "creddef publish", "cred issue", "cred revoke", "consent record verifier", "consent record owner",
         "auth respond", "cred present"],
    )
    def test_one_error_line(self, runner, workdir, issuer_setup, command):
        assert _issue(runner, issuer_setup).exit_code == 0
        ledger = Path("net.ledger.jsonl").read_bytes()
        result = invoke(runner, self._commands(issuer_setup)[command])
        assert (result.exit_code, result.output) == (1, "error: wallet has no relation 'nobody'\n")
        assert Path("net.ledger.jsonl").read_bytes() == ledger
        assert not any(Path(name).exists() for name in ("x.json", "c.json", "r.json", "p.json"))


class TestUnreadableWallet:
    CONTENTS = {
        "5": "TypeError: 'int' object is not subscriptable",
        "[1]": "TypeError: list indices must be integers or slices, not str",
        "{}": "KeyError: 'kdf'",
        "not json": "JSONDecodeError: Expecting value: line 1 column 1 (char 0)",
    }

    @pytest.mark.parametrize("content", sorted(CONTENTS))
    @pytest.mark.parametrize(
        "args", [["wallet", "list", "--wallet", "w.json"], ["did", "new", "--wallet", "w.json", "--relation", "r"]]
    )
    def test_one_error_line(self, runner, workdir, args, content):
        Path("w.json").write_text(content)
        result = invoke(runner, args)
        expected = f"error: cannot read wallet: w.json is not a wallet file: {self.CONTENTS[content]}\n"
        assert (result.exit_code, result.output) == (1, expected)
        assert Path("w.json").read_text() == content

    def test_value_the_encoding_rejects(self, runner, workdir):
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "o"]).exit_code == 0
        data = json.loads(Path("w.json").read_text())
        Path("w.json").write_text(json.dumps({**data, "owner_label": 1.5}))
        result = invoke(runner, ["wallet", "list", "--wallet", "w.json", "--json"])
        expected = "error: cannot read wallet: w.json is not a wallet file: UnsupportedType: float not allowed in canonical values at $.owner_label\n"
        assert (result.exit_code, result.output) == (1, expected)

    @pytest.mark.parametrize("kdf", [{"n": "x"}, {"n": 3}, {"r": True}])
    @pytest.mark.parametrize("command", ["unlock", "list"])
    def test_kdf_parameters_that_do_not_fit(self, runner, workdir, kdf, command):
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "o"]).exit_code == 0
        data = json.loads(Path("w.json").read_text())
        Path("w.json").write_text(json.dumps({**data, "kdf": {**data["kdf"], **kdf}}))
        result = invoke(runner, ["wallet", command, "--wallet", "w.json"])
        expected = (
            "error: cannot read wallet: w.json is not a wallet file: MalformedWallet: "
            "kdf n must be an int power of two above 1, r and p ints of at least 1\n"
        )
        assert (result.exit_code, result.output) == (1, expected)

    @pytest.mark.parametrize("kdf", [{"r": 32768, "p": 32768}, {"r": 1, "p": 2**30}, {"n": 2**32}, {"n": 2**40}])
    @pytest.mark.parametrize("command", ["unlock", "list"])
    def test_kdf_parameters_outside_the_scrypt_domain(self, runner, workdir, kdf, command):
        """RFC 7914 (and libsodium) need r*p below 2**30 and n below 2**32: a
        file outside that domain is unreadable, not a wrong secret (exit 5)."""
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "o"]).exit_code == 0
        data = json.loads(Path("w.json").read_text())
        Path("w.json").write_text(json.dumps({**data, "kdf": {**data["kdf"], **kdf}}))
        result = invoke(runner, ["wallet", command, "--wallet", "w.json"])
        expected = (
            "error: cannot read wallet: w.json is not a wallet file: MalformedWallet: "
            "kdf r*p must be below 2**30 and n below 2**32\n"
        )
        assert (result.exit_code, result.output) == (1, expected)


@pytest.mark.parametrize("field", ["txn_id", "author_signature", "prev_hash", "merkle_root", "block_hash"])
def test_hex_in_upper_case_fails_the_read(runner, workdir, issuer_setup, field):
    """Bit 0x20 of one hex letter flipped: the same bytes, so no hash would
    see it; the read refuses the file."""
    assert _issue(runner, issuer_setup).exit_code == 0
    lines = Path("net.ledger.jsonl").read_text(encoding="utf-8").splitlines()
    block = json.loads(lines[1])
    holder = block["txns"][0] if field in ("txn_id", "author_signature") else block
    i = next(i for i, char in enumerate(holder[field]) if char in "abcdef")
    holder[field] = holder[field][:i] + holder[field][i].upper() + holder[field][i + 1 :]
    lines[1] = json.dumps(block)
    Path("net.ledger.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for args in (["cred", "verify", "alice.cred.json"], ["ledger", "state"]):
        result = invoke(runner, args + ["--ledger", "net.ledger.jsonl"])
        assert result.exit_code == 1
        assert result.output.startswith("error: cannot read ledger net.ledger.jsonl: ") and result.output.count("\n") == 1
        assert "is not lower-case hex" in result.output


def _flip_first_byte(text: str) -> str:
    raw = base64.b64decode(text)
    return base64.b64encode(bytes([raw[0] ^ 1]) + raw[1:]).decode()


class TestDamagedRelation:
    """A relation whose key blob in the wallet file does not open: every
    command that signs or decrypts with it ends with one ``error:`` line,
    exit 1, and writes no ledger, wallet or output file."""

    DAMAGE = {
        "ciphertext-byte": ("ciphertext", _flip_first_byte, "ciphertext did not authenticate"),
        "8-byte-nonce": ("nonce", lambda text: base64.b64encode(bytes(8)).decode(),
                         "AEAD takes a 32-byte key, a 12-byte nonce and a 16-byte tag"),
        "not-base64": ("ciphertext", lambda text: text[:-1],
                       "sign key blob does not decode: Error: Incorrect padding"),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_one_error_line(self, runner, workdir, issuer_setup, damage):
        assert _issue(runner, issuer_setup).exit_code == 0
        field, change, reason = self.DAMAGE[damage]
        data = json.loads(Path("issuer.wallet.json").read_text())
        blob = data["relations"]["public"]["signing_private"]
        blob[field] = change(blob[field])
        Path("issuer.wallet.json").write_text(json.dumps(data))
        files = {name: Path(name).read_bytes() for name in ("issuer.wallet.json", "net.ledger.jsonl")}
        wallet = ["--wallet", "issuer.wallet.json", "--relation", "public", "--ledger", "net.ledger.jsonl"]
        commands = [
            ["schema", "publish", *wallet, "--name", "n", "--attr", "a:string"],
            ["creddef", "publish", *wallet, "--schema-id", issuer_setup["schema_id"]],
            ["cred", "issue", *wallet, "--cred-def", issuer_setup["cred_def_id"], "--subject",
             issuer_setup["holder_did"], "--attr", "degree=BSc", "--out", "x.json"],
            ["cred", "revoke", *wallet, "alice.cred.json"],
            ["consent", "record", "--owner-wallet", "holder.wallet.json", "--owner-relation", "employer",
             "--verifier-wallet", "issuer.wallet.json", "--verifier-relation", "public", "--ledger", "net.ledger.jsonl",
             "--shared", "degree:string", "--purpose", "hiring", "--out", "c.json"],
            ["auth", "respond", "--wallet", "issuer.wallet.json", "--relation", "public", "--out", "r.json",
             "alice.cred.json"],
            ["cred", "present", "--wallet", "issuer.wallet.json", "--relation", "public", "--audience", "did:sample:acme",
             "--out", "p.json", "alice.cred.json"],
        ]
        for args in commands:
            result = invoke(runner, args)
            expected = f"error: cannot read wallet: relation 'public' does not open: {reason}\n"
            assert (result.exit_code, result.output) == (1, expected), args
        assert {name: Path(name).read_bytes() for name in files} == files
        assert not any(Path(name).exists() for name in ("x.json", "c.json", "r.json", "p.json"))


class TestUnusableAgreementKey:
    """``ledger append`` takes any agreement key; one that X25519 cannot use
    ends ``auth challenge`` with one ``error:`` line, exit 1, no file written."""

    @pytest.mark.parametrize(
        "key,reason",
        [(bytes(5), "recipient key must be 32 raw X25519 public bytes"), (bytes(32), "recipient key is a point of small order")],
        ids=["5-bytes", "all-zero"],
    )
    def test_one_error_line(self, runner, workdir, key, reason):
        subject = Identity.create("unusable-agreement")
        subject.document = dataclasses.replace(subject.document, agreement_key=key)
        Path("reg.json").write_text(json.dumps(subject.registration_txn(1).to_dict()))
        assert invoke(runner, ["ledger", "init", "--out", "l.jsonl"]).exit_code == 0
        assert invoke(runner, ["ledger", "append", "--ledger", "l.jsonl", "--now", "2", "reg.json"]).exit_code == 0
        result = invoke(
            runner,
            ["auth", "challenge", "--ledger", "l.jsonl", "--did", subject.did, "--out", "c.json", "--state", "s.json"],
        )
        assert (result.exit_code, result.output) == (1, f"error: {reason}\n")
        assert not Path("c.json").exists() and not Path("s.json").exists()


# The CLI in a child process that may not write a file past FILE_SIZE_LIMIT
# bytes. SIGXFSZ is ignored, so a write past the limit fails with EFBIG.
FILE_SIZE_LIMIT = 8192
LIMITED_CLI = f"""
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, ({FILE_SIZE_LIMIT}, {FILE_SIZE_LIMIT}))
from ssiledger.cli import main
main(sys.argv[1:], prog_name="ssiledger")
"""
TOO_LARGE = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"


def _limited(args: list[str]) -> subprocess.CompletedProcess:
    source = str(Path(ssiledger.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source, "PYTHONDONTWRITEBYTECODE": "1", **SECRET}
    return subprocess.run([sys.executable, "-c", LIMITED_CLI, *args], env=env, capture_output=True, text=True, timeout=120)


class TestFailedRewrite:
    """A rewrite that cannot be written whole leaves the file byte-identical
    and no other file behind, and ends with one ``error:`` line, exit 1."""

    def test_ledger_append(self, workdir):
        chain = Chain.new()
        records = [Identity.create(f"rewrite-{i}").registration_txn(1) for i in range(20)]
        write_chain(chain.append(build_block(chain.head, records, 2)), "net.ledger.jsonl")
        Path("reg.json").write_text(json.dumps(Identity.create("rewrite-new").registration_txn(3).to_dict()))
        before = Path("net.ledger.jsonl").read_bytes()
        assert len(before) > FILE_SIZE_LIMIT
        result = _limited(["ledger", "append", "--ledger", "net.ledger.jsonl", "--now", "4", "reg.json"])
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", f"error: cannot write net.ledger.jsonl: {TOO_LARGE}\n"
        )
        assert Path("net.ledger.jsonl").read_bytes() == before
        assert sorted(path.name for path in workdir.iterdir()) == ["net.ledger.jsonl", "reg.json"]

    def test_did_new(self, workdir):
        wallet = Wallet.create("bob", SECRET["WALLET_SECRET"].encode())
        for i in range(20):
            wallet.new_pairwise(f"relation-{i}")
        wallet.save("w.json")
        before = Path("w.json").read_bytes()
        assert len(before) > FILE_SIZE_LIMIT
        result = _limited(["did", "new", "--wallet", "w.json", "--relation", "one-more"])
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: cannot write w.json: {TOO_LARGE}\n")
        assert Path("w.json").read_bytes() == before
        assert [path.name for path in workdir.iterdir()] == ["w.json"]

    def test_ledger_state_out(self, workdir):
        chain = Chain.new()
        records = [Identity.create(f"state-{i}").registration_txn(1) for i in range(40)]
        write_chain(chain.append(build_block(chain.head, records, 2)), "net.ledger.jsonl")
        Path("state.json").write_text(json.dumps({"old": "x" * FILE_SIZE_LIMIT}))
        before = Path("state.json").read_bytes()
        result = _limited(["ledger", "state", "--ledger", "net.ledger.jsonl", "--out", "state.json"])
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: cannot write state.json: {TOO_LARGE}\n")
        assert Path("state.json").read_bytes() == before
        assert sorted(path.name for path in workdir.iterdir()) == ["net.ledger.jsonl", "state.json"]

    def test_rewrite_keeps_the_file_mode(self, workdir):
        write_chain(Chain.new(), "new.ledger.jsonl")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(Path("new.ledger.jsonl").stat().st_mode) == 0o666 & ~umask
        os.chmod("new.ledger.jsonl", 0o640)
        write_chain(Chain.new(1), "new.ledger.jsonl")
        assert stat.S_IMODE(Path("new.ledger.jsonl").stat().st_mode) == 0o640
        assert read_chain("new.ledger.jsonl") == Chain.new(1)


# The CLI in a child process whose file writes wait, up to RACE_WAIT seconds,
# until the other child has reached its write too: two commands that read a
# file before either writes it both get to read.
RACE_WAIT = 3
RACING_CLI = f"""
import sys, time
from pathlib import Path
import ssiledger.cli, ssiledger.ledger, ssiledger.wallet
mine, other = Path(sys.argv[1]), Path(sys.argv[2])
def racing(write):
    def write_atomic(path, text):
        mine.touch()
        deadline = time.monotonic() + {RACE_WAIT}
        while not other.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        write(path, text)
    return write_atomic
for module in (ssiledger.cli, ssiledger.ledger, ssiledger.wallet):
    module.write_atomic = racing(module.write_atomic)
from ssiledger.cli import main
main(sys.argv[3:], prog_name="ssiledger")
"""


def _race(first: list[str], second: list[str]) -> list[subprocess.CompletedProcess]:
    """Run two commands at once, each in a child process, and wait for both."""
    source = str(Path(ssiledger.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source, "PYTHONDONTWRITEBYTECODE": "1", **SECRET}
    children = [
        subprocess.Popen(
            [sys.executable, "-c", RACING_CLI, mine, other, *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for mine, other, args in (("a.ready", "b.ready", first), ("b.ready", "a.ready", second))
    ]
    outputs = [child.communicate(timeout=60) for child in children]
    return [subprocess.CompletedProcess(child.args, child.returncode, *output) for child, output in zip(children, outputs)]


class TestConcurrentWriters:
    """Two commands that read a file and then replace it, run at once, both
    land: the second reads the file only after the first has written it."""

    def test_two_ledger_appends(self, workdir):
        write_chain(Chain.new(), "net.ledger.jsonl")
        txns = [Identity.create(f"race-{name}").registration_txn(1) for name in "ab"]
        for name, txn in zip("ab", txns):
            Path(f"{name}.json").write_text(json.dumps(txn.to_dict()))
        results = _race(*(["ledger", "append", "--ledger", "net.ledger.jsonl", "--now", "2", f"{name}.json"] for name in "ab"))
        assert [result.returncode for result in results] == [0, 0], [result.stderr for result in results]
        chain = read_chain("net.ledger.jsonl")
        assert validate_chain(chain) and chain.height == 2
        assert sorted(txn.id_hex for block in chain.blocks for txn in block.txns) == sorted(txn.id_hex for txn in txns)

    def test_two_did_news(self, workdir):
        Wallet.create("bob", SECRET["WALLET_SECRET"].encode()).save("w.json")
        results = _race(*(["did", "new", "--wallet", "w.json", "--relation", name] for name in "xy"))
        assert [result.returncode for result in results] == [0, 0], [result.stderr for result in results]
        wallet = Wallet.load("w.json")
        wallet.unlock(SECRET["WALLET_SECRET"].encode())
        assert sorted(wallet.to_dict()["relations"]) == ["x", "y"]
        assert all(wallet.identity(name).did in result.stdout for name, result in zip("xy", results))

    def test_two_auth_checks_of_one_response(self, workdir):
        """The state file is read and rewritten too: one check consumes the
        challenge, and the other sees it consumed."""
        nonce = "ab" * 16
        Path("vs.json").write_text(json.dumps({"subject_did": "did:x", "nonce": nonce, "issued_at": 1, "ttl": 60}))
        Path("resp.json").write_text(json.dumps({"response": nonce}))
        results = _race(*(["auth", "check", "--state", "vs.json", "--now", "2", "resp.json"] for _ in range(2)))
        assert sorted((result.returncode, result.stdout) for result in results) == [
            (0, "authenticated\n"), (5, "rejected: Replayed\n")
        ]
        assert json.loads(Path("vs.json").read_text())["consumed"] is True


def test_write_into_a_missing_directory_names_no_temp_file(runner, workdir):
    """The error line names the file asked for and the errno, the same on every
    run, and the failed write leaves no temporary file behind."""
    for _ in range(2):
        result = invoke(runner, ["ledger", "init", "--out", "nodir/l.jsonl"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error: cannot write nodir/l.jsonl: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}\n"
    assert list(workdir.iterdir()) == []


def _error_line(result, code: int, line: str) -> None:
    assert (result.exit_code, result.stdout, result.stderr) == (code, "", f"error: {line}\n")


class TestRarelyTakenBranches:
    """Each command branch that only a hand-made input reaches: its exit code
    and its one ``error:`` line, or its output where it succeeds."""

    def _publish_flags(self, runner):
        """A schema with a boolean attribute and its cred def on the ledger."""
        out = invoke(
            runner,
            ["schema", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "net.ledger.jsonl", "--name", "flags", "--attr", "honors:boolean", "--now", "150"],
        )
        schema_id = out.output.split()[-1]
        out = invoke(
            runner,
            ["creddef", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "net.ledger.jsonl", "--schema-id", schema_id, "--now", "160"],
        )
        return out.output.split()[-1]

    def _issue_under(self, runner, setup, cred_def_id, *attrs):
        args = ["cred", "issue", "--wallet", "issuer.wallet.json", "--relation", "public",
                "--ledger", "net.ledger.jsonl", "--cred-def", cred_def_id, "--subject", setup["holder_did"]]
        for attr in attrs:
            args += ["--attr", attr]
        return invoke(runner, args + ["--out", "flag.cred.json", "--now", "170"])

    def test_wallet_list_text_counts_stored_credentials(self, runner, workdir, issuer_setup):
        assert _issue(runner, issuer_setup).exit_code == 0
        holder = Wallet.load("holder.wallet.json")
        holder.unlock(SECRET["WALLET_SECRET"].encode())
        credential = VerifiableCredential.from_dict(json.loads(Path("alice.cred.json").read_text()))
        holder.store_credential(credential, fold_chain(read_chain("net.ledger.jsonl")), received_at=141)
        holder.save("holder.wallet.json")
        result = invoke(runner, ["wallet", "list", "--wallet", "holder.wallet.json"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == (
            f"owner: alice\n  relation employer: {issuer_setup['holder_did']}\n  credentials held: 1\n"
        )

    def test_ledger_init_onto_an_existing_file(self, runner, workdir):
        Path("l.jsonl").write_text("kept\n")
        _error_line(invoke(runner, ["ledger", "init", "--out", "l.jsonl"]), 1, "l.jsonl already exists")
        assert Path("l.jsonl").read_text() == "kept\n"

    def test_schema_with_a_duplicate_attribute(self, runner, workdir, issuer_setup):
        result = invoke(
            runner,
            ["schema", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "net.ledger.jsonl", "--name", "twice", "--attr", "a:string", "--attr", "a:integer"],
        )
        _error_line(result, 1, "bad --attr: schema attribute names must be unique")

    def test_issue_a_boolean_attribute(self, runner, workdir, issuer_setup):
        cred_def_id = self._publish_flags(runner)
        result = self._issue_under(runner, issuer_setup, cred_def_id, "honors=TRUE")
        assert (result.exit_code, result.stderr) == (0, "")
        issued = json.loads(Path("flag.cred.json").read_text())
        assert issued["attributes"] == {"honors": True}

    def test_issue_a_boolean_that_is_neither_true_nor_false(self, runner, workdir, issuer_setup):
        cred_def_id = self._publish_flags(runner)
        _error_line(self._issue_under(runner, issuer_setup, cred_def_id, "honors=maybe"), 1, "bad --attr: 'maybe' is not a boolean")
        assert not Path("flag.cred.json").exists()

    def test_issue_an_attribute_outside_the_schema(self, runner, workdir, issuer_setup):
        result = self._issue_under(runner, issuer_setup, issuer_setup["cred_def_id"], "degree=BSc", "grade=A")
        _error_line(result, 1, "attribute 'grade' is not in schema 'degree'")

    def test_issue_under_an_unknown_cred_def(self, runner, workdir, issuer_setup):
        unknown = "ab" * 32
        _error_line(self._issue_under(runner, issuer_setup, unknown, "degree=BSc"), 1, f"cred def {unknown} not on ledger")

    def test_creddef_for_a_schema_not_on_the_ledger(self, runner, workdir, issuer_setup):
        unknown = "cd" * 32
        before = Path("net.ledger.jsonl").read_bytes()
        result = invoke(
            runner,
            ["creddef", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "net.ledger.jsonl", "--schema-id", unknown],
        )
        _error_line(result, 1, f"schema {unknown} not on ledger")
        assert Path("net.ledger.jsonl").read_bytes() == before

    def test_revoke_when_the_cred_def_is_not_on_the_ledger(self, runner, workdir, issuer_setup):
        assert _issue(runner, issuer_setup).exit_code == 0
        assert invoke(runner, ["ledger", "init", "--out", "other.ledger.jsonl"]).exit_code == 0
        assert invoke(
            runner, ["ledger", "append", "--ledger", "other.ledger.jsonl", "--now", "110", "issuer.txn.json"]
        ).exit_code == 0
        result = invoke(
            runner,
            ["cred", "revoke", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "other.ledger.jsonl", "alice.cred.json"],
        )
        _error_line(result, 3, "credential definition not on ledger")

    def test_challenge_for_a_did_not_on_the_ledger(self, runner, workdir, issuer_setup):
        result = invoke(
            runner,
            ["auth", "challenge", "--ledger", "net.ledger.jsonl", "--did", "did:sample:nobody",
             "--out", "c.json", "--state", "s.json"],
        )
        _error_line(result, 1, "did:sample:nobody not on ledger")
        assert not Path("c.json").exists() and not Path("s.json").exists()

    def test_sim_run_of_a_txns_workload(self, runner, workdir):
        """The ``{"txns": [...]}`` workload, built from ``did new --txn-out``
        files: every txn commits on every node."""
        assert invoke(runner, ["wallet", "create", "--wallet", "w.json", "--owner", "bob"]).exit_code == 0
        items = []
        for i in range(3):
            assert invoke(
                runner,
                ["did", "new", "--wallet", "w.json", "--relation", f"r{i}", "--seed", f"{i + 1:02x}",
                 "--txn-out", f"r{i}.txn.json", "--now", str(10 + i)],
            ).exit_code == 0
            items.append({"time": 10 + 20 * i, "node": i, "txn": json.loads(Path(f"r{i}.txn.json").read_text())})
        Path("w.workload.json").write_text(json.dumps({"txns": items}))
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1, "batch_max": 5, "batch_timeout_ms": 50}}))
        result = invoke(
            runner,
            ["sim", "run", "--config", "c.json", "--seed", "3", "--workload", "w.workload.json",
             "--out", "r.json", "--horizon", "3000"],
        )
        assert (result.exit_code, result.stderr) == (0, "")
        report = json.loads(Path("r.json").read_text())
        assert (report["submitted"], report["accepted"], report["honest_chains_agree"]) == (3, 3, True)
        assert [node["ledger_txns"] for node in report["per_node"]] == [3, 3, 3, 3]

    def test_ledger_state_into_a_file(self, runner, workdir, issuer_setup):
        printed = invoke(runner, ["ledger", "state", "--ledger", "net.ledger.jsonl"])
        result = invoke(runner, ["ledger", "state", "--ledger", "net.ledger.jsonl", "--out", "s.json"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "wrote state to s.json\n", "")
        assert Path("s.json").read_text() == printed.stdout

    def test_issue_with_an_attribute_missing(self, runner, workdir, issuer_setup):
        result = self._issue_under(runner, issuer_setup, issuer_setup["cred_def_id"], "degree=BSc")
        _error_line(result, 3, "degree: missing attribute 'year'")
        assert not Path("flag.cred.json").exists()

    def test_present_a_credential_made_out_to_another_did(self, runner, workdir, issuer_setup):
        assert _issue(runner, issuer_setup).exit_code == 0
        issuer_did = json.loads(Path("alice.cred.json").read_text())["issuer_did"]
        result = invoke(
            runner,
            ["cred", "present", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--audience", "did:sample:acme", "--out", "p.json", "alice.cred.json"],
        )
        _error_line(result, 3, f"credential subject {issuer_setup['holder_did']} is not {issuer_did}")
        assert not Path("p.json").exists()

    @pytest.mark.parametrize(
        "workload, line",
        [
            ({"synthetic_registrations": [5]}, "synthetic_registrations must be a JSON object"),
            ({"txns": [{"time": 10}]}, "workload txn item must be an object with a txn, got {'time': 10}"),
            ({"txns": 5}, "workload file needs 'synthetic_registrations' or a list of 'txns'"),
        ],
        ids=["registrations-not-an-object", "item-without-txn", "neither"],
    )
    def test_sim_run_of_a_workload_that_does_not_parse(self, runner, workdir, workload, line):
        Path("c.json").write_text(json.dumps({"consensus": {"f": 1}}))
        Path("w.json").write_text(json.dumps(workload))
        result = invoke(runner, ["sim", "run", "--config", "c.json", "--workload", "w.json", "--out", "r.json"])
        _error_line(result, 1, line)
        assert not Path("r.json").exists()

    def test_a_directory_as_the_ledger(self, runner, workdir):
        Path("d").mkdir()
        result = invoke(runner, ["ledger", "state", "--ledger", "d"])
        _error_line(result, 1, "cannot read ledger d: [Errno 21] Is a directory: 'd'")

    def test_ledger_replaced_while_the_lock_is_taken(self, runner, workdir, issuer_setup, monkeypatch):
        """A writer replaces the ledger between the open and the lock: the
        command lets the file it opened go, locks the one now at the path, and
        appends its block there."""
        flock, locked = cli.fcntl.flock, []

        def replace_first(file, operation):
            if not locked:
                Path("copy.jsonl").write_bytes(Path("net.ledger.jsonl").read_bytes())
                os.replace("copy.jsonl", "net.ledger.jsonl")
            else:
                assert locked[-1].closed
            locked.append(file)
            flock(file, operation)

        monkeypatch.setattr(cli.fcntl, "flock", replace_first)
        before = Path("net.ledger.jsonl").read_text().splitlines()
        result = invoke(
            runner,
            ["schema", "publish", "--wallet", "issuer.wallet.json", "--relation", "public",
             "--ledger", "net.ledger.jsonl", "--name", "late", "--attr", "a:string", "--now", "150"],
        )
        assert (result.exit_code, result.stderr) == (0, "")
        assert len(locked) == 2
        after = Path("net.ledger.jsonl").read_text().splitlines()
        assert after[:-1] == before and check_file("net.ledger.jsonl")[0].ok
