"""The one-owner rules of ``src/`` (ROADMAP aim 2): a rule is an observation of
the source, every file under ``src/`` as bytes keyed by its path, and the value
it must have. A breach case appends a snippet to one file of the real source;
its rule must then observe something else."""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLI, CONSENSUS, CRYPTO, LEDGER, SIMULATION, WALLET = (
    f"src/ssiledger/{name}.py" for name in ("cli", "consensus", "crypto", "ledger", "simulation", "wallet")
)


@pytest.fixture(scope="module")
def source() -> dict[str, bytes]:
    files = sorted(path for path in (ROOT / "src").rglob("*") if path.is_file())
    return {path.relative_to(ROOT).as_posix(): path.read_bytes() for path in files}


SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def walk(node: ast.AST, scope: str = ""):
    """Each node below ``node``, with the dotted name of the scope it is in
    ("" at module level). Only a class or a function opens a scope: a call in
    an ``except`` handler is its function's."""
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, SCOPES) else scope
        yield child, inner
        yield from walk(child, inner)


@functools.lru_cache(maxsize=32)  # the files of src/, and a breached copy or two
def _walked(text: bytes) -> list[tuple[ast.AST, str]]:
    return list(walk(ast.parse(text)))


def nodes(source: dict[str, bytes], where: str = "src/"):
    """(path, node, scope) for each node of each ``.py`` file whose path starts with ``where``."""
    for path, text in source.items():
        if path.startswith(where) and path.endswith(".py"):
            for node, scope in _walked(text):
                yield path, node, scope


def called(node: ast.AST) -> str | None:
    """The name ``f`` of a call ``f(…)`` or ``x.f(…)``; None for any other node."""
    return getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None


def callers(source: dict[str, bytes], where: str, name: str) -> set[str]:
    return {scope or "<module>" for _, node, scope in nodes(source, where) if called(node) == name}


# (where: one file, or "src/" for all of them; a called name; the scopes that call it, and no others)
OWNERS = [
    # one admission rule, state.admissible, asked by a node's two handlers that admit and by the CLI's write
    # path; only it and verify_txn_signature (the benchmark's and the tests' signature check) find a key
    ("src/", "admissible", {"ConsensusNode.on_submit", "ConsensusNode.on_request", "_append"}),
    ("src/", "signing_key", {"admissible", "verify_txn_signature"}),
    ("src/", "verify_signatures", {"admissible"}),
    ("src/", "verify_signature", {"verify_txn_signature"}),
    ("src/", "verify_txn_signature", set()),
    # a Request carries what a node admitted while handling one event, sent where the two handlers that admit end
    ("src/", "Request", {"ConsensusNode._send_requests"}),
    ("src/", "_send_requests", {"ConsensusNode.on_submit", "ConsensusNode.on_request"}),
    # the CLI's one write path of a ledger file, and its one reader of one
    *((CLI, name, {"_append"}) for name in ("append_block", "build_block")),
    (CLI, "check_file", {"_valid"}),
]


def file_writers(source: dict[str, bytes]) -> list[str]:
    """Files that write a file other than through canonical.write_atomic, which
    replaces it whole or leaves it as it was. Raw bytes: comments count."""
    return [path for path, data in source.items() if re.search(rb"write_text\(|write_bytes\(", data)]


def ledger_reads(source: dict[str, bytes]) -> list[bytes]:
    """Ledger reads in cli.py, which reads a ledger only through ledger.check_file. Raw text: comments count."""
    return re.findall(rb"read_chain|validate_chain|fold_chain", source[CLI])


def whole_texts(source: dict[str, bytes]) -> set[str]:
    """Scopes that build a file's text whole for canonical.write_atomic: a
    ``….join(…)`` call or a ``+`` anywhere in its text argument. A writer hands
    it the text a line at a time. Parsed: comments do not count."""
    return {
        scope
        for _, node, scope in nodes(source)
        if called(node) == "write_atomic"
        for argument in [*node.args[1:], *(keyword.value for keyword in node.keywords)]
        for part in ast.walk(argument)
        if called(part) == "join" or (isinstance(part, ast.BinOp) and isinstance(part.op, ast.Add))
    }


def makes_slot(node: ast.AST) -> bool:
    """A call of ``Slot``, or a store into some object's ``slots``."""
    if called(node) == "Slot":
        return True
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        owner = node.value
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("setdefault", "update"):
        owner = node.func.value
    else:
        return False
    return getattr(owner, "attr", None) == "slots"


def slot_makers(source: dict[str, bytes]) -> tuple[set[str], bool]:
    """The scopes that make a consensus slot, and whether InstanceState.slot reads SEQ_WINDOW."""
    found = list(nodes(source))
    window = any(scope == "InstanceState.slot" and getattr(node, "id", None) == "SEQ_WINDOW" for _, node, scope in found)
    return {scope for _, node, scope in found if makes_slot(node)}, window


def names(node: ast.AST) -> set[str | None]:
    """The names a node spells: a name, an attribute, an import and its module's parts."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split(".")) | {node.asname}
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


def thread_namers(source: dict[str, bytes]) -> set[tuple[str, str]]:
    """(path, scope) pairs that name a thread, other than ledger.verify_signatures
    with its lazily made one-worker executor. Parsed: comments do not count."""
    threads = {"ThreadPoolExecutor", "threading", "_thread", "concurrent"}
    found = {(path, scope) for path, node, scope in nodes(source) if names(node) & threads}
    return found - {(LEDGER, "verify_signatures")}


def key_derivers(source: dict[str, bytes]) -> set[str]:
    """Which of crypto.py's Ed25519 key derivation and signer it calls other than in exactly one function,
    which signs only under the public key libsodium derived from the seed: a signer that takes a caller's
    public key would be the double-public-key oracle that leaks the private key."""
    pairs = ((name, callers(source, CRYPTO, name)) for name in ("_seed_keypair", "_sign_detached"))
    return {name for name, scopes in pairs if len(scopes) != 1 or "<module>" in scopes}


def requests_made(source: dict[str, bytes]) -> int:
    return sum(called(node) == "Request" for _, node, _ in nodes(source))


RULES = {  # name -> (observation, the value it must have)
    "one file writer": (file_writers, []),
    "no whole-file text": (whole_texts, set()),
    "one ledger reader": (ledger_reads, []),
    "one slot maker": (slot_makers, ({"InstanceState.slot"}, True)),
    "one thread owner": (thread_namers, set()),
    "one key derivation": (key_derivers, set()),
    "one Request made": (requests_made, 1),
    **{
        f"{name}( in {where.removeprefix('src/ssiledger/')}": (functools.partial(callers, where=where, name=name), owners)
        for where, name, owners in OWNERS
    },
}


@pytest.mark.parametrize("rule", RULES)
def test_the_rule_holds(source, rule):
    observe, expected = RULES[rule]
    assert observe(source) == expected


NODE = "class ConsensusNode:\n    def {}(self, *args): {}"  # the scope of the real method of that name
BREACHES = {  # name -> (rule, the file the snippet is appended to, the snippet)
    "setdefault-in-on_fetch": ("one slot maker", CONSENSUS, NODE.format("on_fetch", "self.slots.setdefault(1, None)")),
    "store-in-_commit": ("one slot maker", CONSENSUS, NODE.format("_commit", "instance.slots[seq + 1] = None")),
    "import-threading": ("one thread owner", SIMULATION, "import threading"),
    "second-signing_key": ("signing_key( in src/", CONSENSUS, NODE.format("_admit", "signing_key(state, txn)")),
    "verify-in-on_request": ("verify_signature( in src/", CONSENSUS, NODE.format("on_request", "verify_signature()")),
    "group-verify-in-on_request": ("verify_signatures( in src/", CONSENSUS, NODE.format("on_request", "verify_signatures()")),
    "verify-in-Simulation.run": (
        "verify_signatures( in src/", SIMULATION, "class Simulation:\n    def run(self): ledger.verify_signatures([])"
    ),
    "admissible-outside-_append": ("admissible( in src/", CLI, "def _ok(s, t): return admissible(s, (t,))[0]"),
    "send-from-_admit": ("_send_requests( in src/", CONSENSUS, NODE.format("_admit", "self._send_requests()")),
    "Request-in-simulation": ("Request( in src/", SIMULATION, "def gossip(txns): return Request(txns)"),
    "second-Request-in-_send_requests": ("one Request made", CONSENSUS, NODE.format("_send_requests", "Request(())")),
    "second-signer": ("one key derivation", CRYPTO, "def _sign_again(m, key): _sign_detached(None, None, m, len(m), key)"),
    "write_text-in-wallet": ("one file writer", WALLET, "def _save(path, text): path.write_text(text)"),
    "join-in-simulation": ("no whole-file text", SIMULATION, 'def _log(path, lines): write_atomic(path, "".join(lines))'),
    "plus-in-ledger": ("no whole-file text", LEDGER, "def _add(path, text, line): write_atomic(path, text + line)"),
    "read_chain-comment-in-cli": ("one ledger reader", CLI, "# read_chain(path) would read the ledger again"),
    "append_block-outside-_append": ("append_block( in cli.py", CLI, "def _extend(path, block): append_block(path, block)"),
    "build_block-outside-_append": ("build_block( in cli.py", CLI, "def _block(head, txns): return build_block(head, txns, 0)"),
    "verify_txn_signature-in-cli": ("verify_txn_signature( in src/", CLI, "def _ok(s, t): return verify_txn_signature(s, t)"),
    "check_file-outside-_valid": ("check_file( in cli.py", CLI, "def _head(path): return check_file(path)[2]"),
}


@pytest.mark.parametrize("breach", BREACHES)
def test_the_rule_rejects_a_breach(source, breach):
    rule, path, snippet = BREACHES[breach]
    observe, expected = RULES[rule]
    assert observe({**source, path: source[path] + f"\n{snippet}\n".encode()}) != expected


def test_a_call_in_an_except_handler_is_credited_to_its_function():
    snippet = """
class Node:
    def check(self):
        try:
            pass
        except ValueError as exc:
            first(exc)
        except KeyError:
            second()
"""
    credited = {called(node): scope for node, scope in walk(ast.parse(snippet)) if called(node)}
    assert credited == {"first": "Node.check", "second": "Node.check"}
