"""Command-line surface.

Subcommand groups: wallet and DID management, a file-backed ledger for
offline credential exchange, credential operations, consent records,
challenge-response authentication, the consensus simulator, and the scripted
scenario replays.

Exit codes: 0 ok, 1 usage or configuration error, 2 consensus safety
violation, 3 verification failure, 4 revoked credential, 5 authentication
failure, 6 scenario assertion failure.

The wallet unlock secret comes from the ``WALLET_SECRET`` environment
variable, or an interactive prompt when unset.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, NoReturn

import click

from .auth import DEFAULT_TTL, ChallengeVerifier
from .canonical import canonical_json, write_atomic
from .credentials import (
    Presentation,
    VerifiableCredential,
    issue,
    ledger_reads,
    present,
    record_consent,
    revoke,
    verify_credential,
    verify_presentation,
)
from .crypto import CryptoError, Digest
from .ledger import (
    Block,
    Chain,
    LedgerTransaction,
    MalformedRecord,
    TxnType,
    _built,
    append_block,
    build_block,
    check_file,
    write_chain,
)
from .scenarios import SCENARIOS, run_scenario
from .simulation import parse_config, parse_workload, run_simulation
from .state import (
    AttrType,
    CredDefRecord,
    NodeState,
    SchemaRecord,
    cred_def_payload,
    did_reg_payload,
    fold_into,
    fold_read_set,
    schema_payload,
    verify_txn_signature,
)
from .wallet import MalformedWallet, PairwiseIdentity, UnknownRelation, UnlockFailed, Wallet, WeakSecret

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SAFETY = 2
EXIT_VERIFY = 3
EXIT_REVOKED = 4
EXIT_AUTH = 5
EXIT_SCENARIO = 6


def _fail(message: str, code: int = EXIT_USAGE) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _save(write: Callable[[str | Path], None], path: str | Path) -> None:
    """``write(path)``, which replaces the file whole or leaves it as it was; a
    write that fails ends the command with one ``error:`` line, exit 1."""
    try:
        write(path)
    except OSError as exc:  # not str(exc), which names write_atomic's temp file, a random name
        _fail(f"cannot write {path}: [Errno {exc.errno}] {exc.strerror}")


def _write(path: str | Path, value: dict) -> None:
    _save(lambda target: write_atomic(target, canonical_json(value) + "\n"), path)


def _read_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bytes not UTF-8, text not JSON or nested too deep
        _fail(f"cannot read {path}: {exc}")


def _parse(parse, path: str, code: int = EXIT_VERIFY):
    """``parse`` of the JSON in ``path``: one ``error:`` line and exit ``code``
    where the value does not fit."""
    data = _read_json(path)
    try:
        return parse(data)
    except (KeyError, ValueError, TypeError, AttributeError, MalformedRecord) as exc:
        _fail(f"unreadable record {path}: {exc}", code)


def _secret() -> bytes:
    secret = os.environ.get("WALLET_SECRET")
    if secret is None:
        secret = click.prompt("wallet secret", hide_input=True)
    return secret.encode("utf-8", "surrogateescape")  # an environment value's own bytes, decodable or not


def _load_wallet(path: str) -> Wallet:
    try:
        return Wallet.load(path)
    except (MalformedWallet, OSError) as exc:
        _fail(f"cannot read wallet: {exc}")


def _open_wallet(path: str) -> Wallet:
    wallet = _load_wallet(path)
    secret = _secret()
    try:
        wallet.unlock(secret)
    except UnlockFailed as exc:
        _fail(f"cannot unlock wallet: {exc}", EXIT_AUTH)
    except CryptoError as exc:
        _fail(f"cannot unlock wallet: {exc}")
    return wallet


def _identity(wallet: Wallet, relation: str) -> PairwiseIdentity:
    try:
        return wallet.identity(relation)
    except UnknownRelation:
        _fail(f"wallet has no relation {relation!r}")
    except MalformedWallet as exc:
        _fail(f"cannot read wallet: {exc}")


def _lock(path: str, error: str) -> None:
    """Hold an exclusive ``flock`` on the file at ``path`` until the command
    ends, so that commands that read the file and then replace it run one
    after the other. The lock sits on the file itself; a writer replaces the
    file, so a lock won on a file that is no longer at ``path`` is let go and
    taken again. A file that does not open ends the command with ``error:
    <error>: ...``, exit 1."""
    context = click.get_current_context()
    while True:
        try:
            file = context.with_resource(open(path, "rb"))
            fcntl.flock(file, fcntl.LOCK_EX)
            if os.path.samestat(os.fstat(file.fileno()), os.stat(path)):
                return
        except OSError as exc:
            _fail(f"{error}: {exc}")
        file.close()


def _valid(path: str) -> tuple[list[tuple], Block]:
    """The records and head block of a valid ledger file (``check_file``); a
    read error, else a fault, ends the command with one ``error:`` line, exit 1."""
    try:
        check, records, head = check_file(path)
    except Exception as exc:
        _fail(f"cannot read ledger {path}: {exc}")
    if not check.ok:
        _fail(f"ledger {path} is invalid at height {check.height}: {check.reason.value}")
    return records, head


def _ledger_state(path: str) -> tuple[tuple[list[tuple], Block], NodeState]:
    _lock(path, f"cannot read ledger {path}")  # held to the command's end: a write below reads nothing stale
    stored = _valid(path)
    state = NodeState()
    fold_into(state, map(_built, stored[0]))
    return stored, state


def _name_types(specs: tuple[str, ...], option: str) -> list[tuple[str, AttrType]]:
    """``name:type`` option values as (name, type) pairs; one that does not
    parse ends the command with ``bad <option>: ...``, exit 1."""
    try:
        return [(a.split(":", 1)[0], AttrType(a.split(":", 1)[1])) for a in specs]
    except (IndexError, ValueError) as exc:
        _fail(f"bad {option}: {exc}")


def _hex(text: str, option: str, parse=bytes.fromhex):
    """``parse`` of a hex option value (bytes, or a ``Digest`` with
    ``Digest.from_hex``); one that does not parse ends the command with
    ``bad <option>: ...``, exit 1."""
    try:
        return parse(text)
    except ValueError as exc:
        _fail(f"bad {option}: {exc}")


def _now(override: int | None) -> int:
    return override if override is not None else int(time.time())


@click.group()
def main() -> None:
    """Self-sovereign identity over a simulated permissioned ledger."""


# --- wallet ------------------------------------------------------------------


@main.group()
def wallet() -> None:
    """Create, unlock-check, and inspect wallets."""


@wallet.command("create")
@click.option("--wallet", "wallet_path", required=True, type=click.Path())
@click.option("--owner", required=True, help="Owner label stored in the wallet.")
def wallet_create(wallet_path: str, owner: str) -> None:
    if Path(wallet_path).exists():
        _fail(f"{wallet_path} already exists")
    secret = _secret()
    try:
        w = Wallet.create(owner, secret)
    except (WeakSecret, CryptoError) as exc:
        _fail(str(exc))
    _save(w.save, wallet_path)
    click.echo(f"created wallet for '{owner}' at {wallet_path}")


@wallet.command("unlock")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
def wallet_unlock(wallet_path: str) -> None:
    """Verify the unlock secret opens the wallet."""
    _open_wallet(wallet_path)
    click.echo("unlocked")


@wallet.command("list")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def wallet_list(wallet_path: str, as_json: bool) -> None:
    """List relations and held credentials (no secrets required)."""
    w = _load_wallet(wallet_path)
    data = w.to_dict()
    listing = {
        "owner": w.owner_label,
        "relations": {
            name: {"did": entry["did"], "peer_did": entry["peer_did"]}
            for name, entry in data["relations"].items()
        },
        "credentials": [
            {
                "cred_def_id": c["credential"]["cred_def_id"],
                "issuer_did": c["credential"]["issuer_did"],
                "subject_did": c["credential"]["subject_did"],
            }
            for c in data["credentials"]
        ],
    }
    if as_json:
        click.echo(canonical_json(listing))
    else:
        click.echo(f"owner: {listing['owner']}")
        for name, entry in listing["relations"].items():
            click.echo(f"  relation {name}: {entry['did']}")
        click.echo(f"  credentials held: {len(listing['credentials'])}")


# --- did ----------------------------------------------------------------------


@main.group()
def did() -> None:
    """Pairwise DID management."""


@did.command("new")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--endpoint", default=None)
@click.option("--seed", "seed_hex", default=None, help="Hex seed for reproducible keys.")
@click.option("--txn-out", type=click.Path(), default=None, help="Write a DID_REG transaction.")
@click.option("--now", "now_override", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def did_new(
    wallet_path: str,
    relation: str,
    endpoint: str | None,
    seed_hex: str | None,
    txn_out: str | None,
    now_override: int | None,
    as_json: bool,
) -> None:
    _lock(wallet_path, "cannot read wallet")
    w = _open_wallet(wallet_path)
    seed = _hex(seed_hex, "--seed") if seed_hex else None
    try:
        new_did, document = w.new_pairwise(relation, seed=seed, endpoint=endpoint)
    except Exception as exc:
        _fail(str(exc))
    _save(w.save, wallet_path)
    if txn_out:
        txn = w.identity(relation).sign_txn(TxnType.DID_REG, did_reg_payload(new_did, document), _now(now_override))
        _write(txn_out, txn.to_dict())
    payload = {"did": new_did, "relation": relation, "document": document.to_dict()}
    click.echo(canonical_json(payload) if as_json else f"{relation}: {new_did}")


# --- ledger (file-backed, for offline credential exchange) --------------------


@main.group()
def ledger() -> None:
    """A local ledger file: one canonical-JSON block per line."""


@ledger.command("init")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--genesis-timestamp", type=int, default=0)
def ledger_init(out_path: str, genesis_timestamp: int) -> None:
    if Path(out_path).exists():
        _fail(f"{out_path} already exists")
    _save(lambda target: write_chain(Chain.new(genesis_timestamp), target), out_path)
    click.echo(f"initialized ledger at {out_path}")


@ledger.command("append")
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--now", "now_override", type=int, default=None)
@click.argument("txn_files", nargs=-1, required=True, type=click.Path(exists=True))
def ledger_append(ledger_path: str, now_override: int | None, txn_files: tuple[str, ...]) -> None:
    """Validate, apply, and commit transactions as one new block."""
    stored, state = _ledger_state(ledger_path)
    # each file is read as it is reached, so errors come in argument order
    named_txns = ((txn_file, _parse(LedgerTransaction.from_dict, txn_file)) for txn_file in txn_files)
    block = _append(ledger_path, stored, state, named_txns, now_override)
    click.echo(f"appended block {block.height} with {len(block.txns)} txn(s)")


def _append(
    ledger_path: str, stored: tuple, state: NodeState, named_txns: Iterable, now_override: int | None, on_ledger=False
) -> Block | None:
    """The one write path of a ledger file, whose (records, head) are ``stored``:
    each (name, txn) in turn must recompute its id, verify under ``state`` and
    fold into it in place, and its id must be new to the file and to this
    command; one new block on the head holds them all. The first that fails
    ends the command (exit 3, the file untouched) naming its file, or none.
    Records already ``on_ledger`` are checked alike, bar the id, but append no block."""
    records, head = stored
    seen = set() if on_ledger else {record[5] for record in records}  # each record's id hex
    accepted = []
    for name, txn in named_txns:
        where = f"{name}: " if name else ""
        if not txn.id_recomputes() or not verify_txn_signature(state, txn):
            against = "" if name else " against the ledger"
            _fail(f"{where}transaction signature does not verify{against}", EXIT_VERIFY)
        (rejection,) = fold_into(state, (txn,))
        if rejection is not None:
            _fail(f"{where}rejected ({rejection.value})", EXIT_VERIFY)
        if txn.id_hex in seen:
            _fail(f"{where}duplicate transaction id {txn.id_hex}", EXIT_VERIFY)
        seen.add(txn.id_hex)
        accepted.append(txn)
    if on_ledger:
        return None
    block = build_block(head, accepted, _now(now_override))
    _save(lambda target: append_block(target, block), ledger_path)
    return block


@ledger.command("state")
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None)
def ledger_state(ledger_path: str, out_path: str | None) -> None:
    _, state = _ledger_state(ledger_path)
    if out_path:
        _write(out_path, state.to_dict())
        click.echo(f"wrote state to {out_path}")
    else:
        click.echo(canonical_json(state.to_dict()))


# --- schema / credential definitions ------------------------------------------


@main.group()
def schema() -> None:
    """Publish attribute schemas."""


@schema.command("publish")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--name", "schema_name", required=True)
@click.option("--version", default="1.0")
@click.option("--attr", "attrs", multiple=True, required=True, help="name:type, e.g. degree:string")
@click.option("--now", "now_override", type=int, default=None)
def schema_publish(
    wallet_path: str,
    relation: str,
    ledger_path: str,
    schema_name: str,
    version: str,
    attrs: tuple[str, ...],
    now_override: int | None,
) -> None:
    w = _open_wallet(wallet_path)
    identity = _identity(w, relation)
    parsed = _name_types(attrs, "--attr")
    try:
        record = SchemaRecord.create(schema_name, version, parsed)
    except ValueError as exc:
        _fail(f"bad --attr: {exc}")
    txn = identity.sign_txn(TxnType.SCHEMA, schema_payload(record), _now(now_override))
    stored, state = _ledger_state(ledger_path)
    _append(ledger_path, stored, state, [(None, txn)], now_override, record.schema_id.hex in state.schemas)
    click.echo(f"schema_id: {record.schema_id.hex}")


@main.group()
def creddef() -> None:
    """Publish credential definitions binding a schema to an issuer key."""


@creddef.command("publish")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--schema-id", "schema_id_hex", required=True)
@click.option("--now", "now_override", type=int, default=None)
def creddef_publish(
    wallet_path: str,
    relation: str,
    ledger_path: str,
    schema_id_hex: str,
    now_override: int | None,
) -> None:
    w = _open_wallet(wallet_path)
    identity = _identity(w, relation)
    stored, state = _ledger_state(ledger_path)
    schema_record = state.schemas.get(_hex(schema_id_hex, "--schema-id", Digest.from_hex).hex)
    if schema_record is None:
        _fail(f"schema {schema_id_hex} not on ledger")
    record = CredDefRecord.create(schema_record.schema_id, identity.did, identity.signing.public)
    txn = identity.sign_txn(TxnType.CRED_DEF, cred_def_payload(record), _now(now_override))
    _append(ledger_path, stored, state, [(None, txn)], now_override, record.cred_def_id.hex in state.cred_defs)
    click.echo(f"cred_def_id: {record.cred_def_id.hex}")


# --- credentials ----------------------------------------------------------------


@main.group()
def cred() -> None:
    """Issue, verify, revoke and present credentials."""


def _typed_value(raw: str, attr_type: AttrType):
    if attr_type == AttrType.INTEGER:
        return int(raw)
    if attr_type == AttrType.BOOLEAN:
        if raw.lower() not in ("true", "false"):
            raise ValueError(f"{raw!r} is not a boolean")
        return raw.lower() == "true"
    return raw


@cred.command("issue")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--cred-def", "cred_def_hex", required=True)
@click.option("--subject", "subject_did", required=True)
@click.option("--attr", "attrs", multiple=True, required=True, help="name=value")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--now", "now_override", type=int, default=None)
def cred_issue(
    wallet_path: str,
    relation: str,
    ledger_path: str,
    cred_def_hex: str,
    subject_did: str,
    attrs: tuple[str, ...],
    out_path: str,
    now_override: int | None,
) -> None:
    w = _open_wallet(wallet_path)
    identity = _identity(w, relation)
    _, state = _ledger_state(ledger_path)
    cred_def = state.cred_defs.get(_hex(cred_def_hex, "--cred-def", Digest.from_hex).hex)
    if cred_def is None:
        _fail(f"cred def {cred_def_hex} not on ledger")
    if cred_def.issuer_did != identity.did:
        _fail(f"wallet relation '{relation}' is not the issuer of this cred def")
    schema_record = state.schemas[cred_def.schema_id.hex]
    types = schema_record.attribute_types()
    attributes = {}
    try:
        for item in attrs:
            name, raw = item.split("=", 1)
            if name not in types:
                _fail(f"attribute {name!r} is not in schema '{schema_record.name}'")
            attributes[name] = _typed_value(raw, types[name])
    except ValueError as exc:
        _fail(f"bad --attr: {exc}")
    try:
        credential = issue(
            identity.signing.private,
            cred_def,
            schema_record,
            subject_did,
            attributes,
            _now(now_override),
        )
    except Exception as exc:
        _fail(str(exc), EXIT_VERIFY)
    _write(out_path, credential.to_dict())
    click.echo(f"credential_hash: {credential.credential_hash.hex}")


@cred.command("verify")
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--audience", default=None, help="Expected audience DID (presentations).")
@click.option("--json", "as_json", is_flag=True)
@click.argument("record_file", type=click.Path(exists=True))
def cred_verify(
    ledger_path: str,
    audience: str | None,
    as_json: bool,
    record_file: str,
) -> None:
    """Verify a credential or presentation file against a ledger. Every record
    of the ledger is read and hash-checked in one pass; only those the verdict
    can depend on are built and folded."""
    records, _ = _valid(ledger_path)
    data = _read_json(record_file)
    try:
        if "holder_signature" in data:
            presentation = Presentation.from_dict(data)
            state = fold_read_set(records, ledger_reads(presentation))
            result = verify_presentation(presentation, state, expected_audience=audience)
        else:
            credential = VerifiableCredential.from_dict(data)
            result = verify_credential(credential, fold_read_set(records, ledger_reads(credential)))
    except (KeyError, ValueError, TypeError) as exc:
        result = None
        _fail(f"unreadable record: {exc}", EXIT_VERIFY)
    output = {"valid": result.valid, "reason": result.reason}
    click.echo(canonical_json(output) if as_json else ("valid" if result.valid else f"invalid: {result.reason}"))
    if result.valid:
        sys.exit(EXIT_OK)
    sys.exit(EXIT_REVOKED if result.reason == "Revoked" else EXIT_VERIFY)


@cred.command("revoke")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--now", "now_override", type=int, default=None)
@click.argument("cred_file", type=click.Path(exists=True))
def cred_revoke(
    wallet_path: str,
    relation: str,
    ledger_path: str,
    now_override: int | None,
    cred_file: str,
) -> None:
    """Publish a revocation entry for a credential you issued."""
    w = _open_wallet(wallet_path)
    identity = _identity(w, relation)
    credential = _parse(VerifiableCredential.from_dict, cred_file)
    stored, state = _ledger_state(ledger_path)
    cred_def = state.cred_defs.get(credential.cred_def_id.hex)
    if cred_def is None:
        _fail("credential definition not on ledger", EXIT_VERIFY)
    try:
        txn = revoke(
            identity.did,
            identity.signing.private,
            cred_def,
            credential.credential_hash,
            _now(now_override),
        )
    except Exception as exc:
        _fail(str(exc), EXIT_VERIFY)
    revoked = credential.credential_hash in state.registries[cred_def.registry_key].revoked
    _append(ledger_path, stored, state, [(None, txn)], now_override, revoked)
    click.echo(f"revoked {credential.credential_hash.hex}")


@cred.command("present")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--audience", required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--now", "now_override", type=int, default=None)
@click.argument("cred_files", nargs=-1, required=True, type=click.Path(exists=True))
def cred_present(
    wallet_path: str,
    relation: str,
    audience: str,
    out_path: str,
    now_override: int | None,
    cred_files: tuple[str, ...],
) -> None:
    w = _open_wallet(wallet_path)
    _identity(w, relation)  # a relation that is missing or does not open is exit 1, not a verification failure
    credentials = [_parse(VerifiableCredential.from_dict, f) for f in cred_files]
    try:
        presentation = present(w, relation, credentials, audience, _now(now_override))
    except Exception as exc:
        _fail(str(exc), EXIT_VERIFY)
    _write(out_path, presentation.to_dict())
    click.echo(f"presentation of {len(credentials)} credential(s) written to {out_path}")


# --- consent --------------------------------------------------------------------


@main.group()
def consent() -> None:
    """Dual-signed consent receipts; only their hash goes on ledger."""


@consent.command("record")
@click.option("--owner-wallet", required=True, type=click.Path(exists=True))
@click.option("--owner-relation", required=True)
@click.option("--verifier-wallet", required=True, type=click.Path(exists=True))
@click.option("--verifier-relation", required=True)
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--shared", "shared_attrs", multiple=True, required=True, help="name:type")
@click.option("--purpose", required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--now", "now_override", type=int, default=None)
def consent_record(
    owner_wallet: str,
    owner_relation: str,
    verifier_wallet: str,
    verifier_relation: str,
    ledger_path: str,
    shared_attrs: tuple[str, ...],
    purpose: str,
    out_path: str,
    now_override: int | None,
) -> None:
    owner = _open_wallet(owner_wallet)
    verifier = _open_wallet(verifier_wallet)
    verifier_identity = _identity(verifier, verifier_relation)
    _identity(owner, owner_relation)  # record_consent signs with it
    shared = _name_types(shared_attrs, "--shared")
    receipt, txn = record_consent(
        owner,
        owner_relation,
        verifier_identity.did,
        verifier_identity.signing.private,
        shared,
        purpose,
        _now(now_override),
    )
    _append(ledger_path, *_ledger_state(ledger_path), [(None, txn)], now_override)
    _write(out_path, receipt.to_dict())
    click.echo(f"receipt_hash: {receipt.receipt_hash().hex}")


# --- auth -----------------------------------------------------------------------


@main.group()
def auth() -> None:
    """Challenge-response authentication."""


@auth.command("challenge")
@click.option("--ledger", "ledger_path", required=True, type=click.Path(exists=True))
@click.option("--did", "subject_did", required=True)
@click.option("--ttl", type=int, default=DEFAULT_TTL)
@click.option("--out", "out_path", required=True, type=click.Path(), help="Challenge to send.")
@click.option("--state", "state_path", required=True, type=click.Path(), help="Verifier-side state.")
@click.option("--now", "now_override", type=int, default=None)
def auth_challenge(
    ledger_path: str,
    subject_did: str,
    ttl: int,
    out_path: str,
    state_path: str,
    now_override: int | None,
) -> None:
    from .state import resolve_did

    _, state = _ledger_state(ledger_path)
    document = resolve_did(state, subject_did)
    if document is None:
        _fail(f"{subject_did} not on ledger")
    issued_at = _now(now_override)
    try:
        challenge = ChallengeVerifier().issue(document.agreement_key, ttl=ttl, now=issued_at)
    except (ValueError, CryptoError) as exc:
        _fail(str(exc))
    _write(out_path, {"subject_did": subject_did, "ciphertext": challenge.ciphertext.hex()})
    nonce = challenge.nonce.hex()
    _write(state_path, {"subject_did": subject_did, "nonce": nonce, "issued_at": issued_at, "ttl": ttl, "consumed": False})
    click.echo(f"challenge written to {out_path}")


@auth.command("respond")
@click.option("--wallet", "wallet_path", required=True, type=click.Path(exists=True))
@click.option("--relation", required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.argument("challenge_file", type=click.Path(exists=True))
def auth_respond(wallet_path: str, relation: str, out_path: str, challenge_file: str) -> None:
    w = _open_wallet(wallet_path)
    _identity(w, relation)  # a relation that is missing or does not open is exit 1, not an authentication failure
    data = _read_json(challenge_file)
    try:
        nonce = w.respond_challenge(relation, bytes.fromhex(data["ciphertext"]))
    except Exception as exc:
        _fail(str(exc), EXIT_AUTH)
    _write(out_path, {"response": nonce.hex()})
    click.echo(f"response written to {out_path}")


@auth.command("check")
@click.option("--state", "state_path", required=True, type=click.Path(exists=True))
@click.option("--now", "now_override", type=int, default=None)
@click.argument("response_file", type=click.Path(exists=True))
def auth_check(state_path: str, now_override: int | None, response_file: str) -> None:
    _lock(state_path, f"cannot read {state_path}")  # two checks of one response at once: one authenticates
    state, verifier = _parse(lambda data: (data, _challenge_verifier(data)), state_path, EXIT_USAGE)
    response = _parse(lambda data: bytes.fromhex(data["response"]), response_file)
    result = verifier.check(response, _now(now_override))
    state["consumed"] = True
    _write(state_path, state)
    if result.authenticated:
        click.echo("authenticated")
        sys.exit(EXIT_OK)
    click.echo(f"rejected: {result.reason}")
    sys.exit(EXIT_AUTH)


def _challenge_verifier(state: dict) -> ChallengeVerifier:
    """The verifier side of one challenge, from the state file ``auth challenge`` wrote."""
    canonical_json(state)  # it is written back: a value the encoding rejects raises here, not after the check
    verifier = ChallengeVerifier()
    nonce = bytes.fromhex(state["nonce"])
    if state.get("consumed"):
        verifier.consumed.add(nonce)
        return verifier
    issued_at, ttl = state["issued_at"], state["ttl"]
    if type(issued_at) is not int or type(ttl) is not int:
        raise TypeError("issued_at and ttl must be integers")
    verifier.pending[nonce] = issued_at + ttl
    return verifier


# --- sim ------------------------------------------------------------------------


@main.group()
def sim() -> None:
    """Deterministic consensus simulation."""


@sim.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=0)
@click.option("--workload", "workload_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--events", "events_path", type=click.Path(), default=None)
@click.option("--horizon", type=int, default=10_000, help="Simulated ms before timers stop.")
def sim_run(
    config_path: str,
    seed: int,
    workload_path: str,
    out_path: str,
    events_path: str | None,
    horizon: int,
) -> None:
    try:
        config, net_config, faults = parse_config(_read_json(config_path))
        workload = parse_workload(_read_json(workload_path), seed, config.n)
    except (ValueError, MalformedRecord) as exc:
        _fail(str(exc))
    report, simulation = run_simulation(config, net_config, faults, workload, horizon, seed)
    _write(out_path, report.to_dict())
    if events_path:
        _save(simulation.write_events, events_path)
    click.echo(
        f"committed {report.commit_count} batches; "
        f"honest chains agree: {report.honest_chains_agree}; "
        f"instance changes: {report.instance_change_count}"
    )
    if report.safety_violations > 0 or simulation.honest_chains_fork():
        click.echo("CONSENSUS SAFETY VIOLATION DETECTED", err=True)
        sys.exit(EXIT_SAFETY)


# --- scenario ---------------------------------------------------------------------


@main.group()
def scenario() -> None:
    """Scripted end-to-end replays of the identity use cases."""


@scenario.command("run")
@click.argument("name", type=click.Choice(SCENARIOS))
@click.option("--seed", type=int, default=1)
@click.option("--json", "as_json", is_flag=True, help="Print the canonical transcript.")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Artifact directory.")
@click.option("--skip-consent", is_flag=True, help="Test hook: owner declines consent.")
def scenario_run(name: str, seed: int, as_json: bool, out_dir: str | None, skip_consent: bool) -> None:
    result = run_scenario(name, seed=seed, consent=not skip_consent)
    transcript = result.transcript()
    if as_json:
        click.echo(canonical_json(transcript))
    else:
        for step in result.steps:
            mark = "ok " if step["outcome"] == "ok" else "FAIL"
            click.echo(f"[{step['n']:>2}] t={step['time']:>5}ms {mark} {step['actor']}: {step['action']}")
        summary = transcript["summary"]
        click.echo(
            f"scenario {name}: {'PASS' if result.ok else 'FAIL'} "
            f"(ledger txns {summary['ledger_txns']}, consent proofs {summary['consent_proofs']})"
        )
    if out_dir:
        out = Path(out_dir)
        _save(lambda target: target.mkdir(parents=True, exist_ok=True), out)
        _write(out / "transcript.json", transcript)
        _save(lambda target: write_chain(result.sim.nodes[0].chain, target), out / "net.ledger.jsonl")
        _save(result.sim.nodes[0].state.dump, out / "net.state.json")
        _save(result.sim.write_events, out / "net.events.jsonl")
        for i, receipt in enumerate(result.receipts):
            _write(out / f"consent-{i}.receipt.json", receipt.to_dict())
    if not result.ok:
        sys.exit(EXIT_SCENARIO)


if __name__ == "__main__":
    main()
