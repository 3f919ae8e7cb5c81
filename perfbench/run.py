"""Benchmark entry point.

    python3 perfbench/run.py --workload register-paced --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports ``ssiledger`` from ``src/``
there and reads the golden transcripts from ``tests/golden/``. Without them it
exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced units of work with units run under a tracer that wraps
the public functions of every module, for ``--seconds``; it reports the
per-layer metrics and the tracing overhead, and writes the span table to
``.perfbench/out/``. Both modes check every output. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from importlib import metadata
from pathlib import Path

from meter import reference_section, wall_section
from tracing import LAYERS, Tracer

ROOT = Path.cwd()
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 25

END_TO_END = {
    "throughput_per_s": "1/s",
    "command_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(root: Path) -> dict:
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "git_commit": git_commit(root),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, section) -> float:
    """Median seconds of repeated set-ups; the last one is kept."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
        len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_MIN_SECONDS
    ):
        with section() as timed:
            workload.setup()
        times.append(timed.seconds)
    return statistics.median(times)


def recording(reference, sections: list):
    """``reference_section`` for ``reference``, also keeping every section it timed."""

    @contextlib.contextmanager
    def section():
        with reference_section(reference) as timed:
            yield timed
        sections.append(timed)

    return section


class Totals:
    """Checked ops across every unit of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, unit) -> None:
        if unit is None:
            return
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.notes.extend(unit.notes)


def run_unit(workload, totals: Totals, keep):
    """One checked unit; ``keep`` digests it before its simulations are released."""
    unit = workload.unit()
    totals.add(unit)
    keep(unit)
    unit.sims = []
    gc.collect()
    return unit


def measure(workload, seconds: float, totals: Totals, keep) -> list:
    """Run units until ``seconds`` of wall time have passed (at least one)."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(workload, totals, keep))
        if time.perf_counter() - start >= seconds:
            return units


# --- untraced run -------------------------------------------------------------


def plain_run(workload, seconds: float, totals: Totals) -> tuple[dict, dict]:
    from workloads import commit_figures, quantile

    sections: list = []
    workload.section = recording(workload.reference, sections)
    setup_s = timed_setup(workload, workload.section)
    totals.add(workload.warm())
    figures: dict[str, float] = {}  # simulated, so the first unit's stand for all

    def keep(unit) -> None:
        if unit.sims and not figures:
            figures.update(commit_figures(unit.sims))

    units = measure(workload, seconds, totals, keep)
    throughput = statistics.median(u.ops / u.ops_s for u in units)
    commands = [s for u in units for s in u.command_s]
    metrics = {
        "throughput_per_s": throughput,
        "command_ms_p50": statistics.median(commands) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    # the same figures under the names the README's workload table uses
    named: dict[str, tuple[float, str]] = {}
    if workload.name.startswith("register"):
        named["txn_per_s"] = (throughput, "txn/s")
        for key in ("commit_ms_p50", "commit_ms_p99", "outage_ms")[: 3 if workload.paced else 2]:
            named[key] = (figures[key], "ms")
    elif workload.name == "lifecycle":
        named["replays_per_s"] = (throughput, "replays/s")
    else:
        calls = [us for u in units for us in u.call_us]
        named["verify_us_p50"] = (statistics.median(calls), "us")
        named["verify_us_p99"] = (quantile(calls, 99), "us")
        named["cli_verify_s_p50"] = (statistics.median(commands), "s")
    slowdown = sorted(timed.raw_s / timed.seconds for timed in sections)
    detail = {
        "units": len(units),
        "unit_rates": [u.ops / u.ops_s for u in units],
        "named": named,
        "slowdown": (slowdown[0], statistics.median(slowdown), slowdown[-1]),
    }
    return metrics, detail


# --- traced run ---------------------------------------------------------------


def retained_bytes_per_txn(workload) -> float:
    """Memory a finished register run still holds per txn, by tracemalloc,
    measured while the Simulation is still referenced."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = workload.simulation()
        sim.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        txns = sum(node.chain.txn_count() for node in sim.honest_nodes()) / len(sim.honest_nodes())
    finally:
        tracemalloc.stop()
    del sim
    return retained / txns


def layer_metrics(tracer, units: list, replays: int, figures: dict) -> dict[str, float]:
    """The per-layer metrics of ``PER_LAYER``, from the traced units."""
    txns = sum(u.txns for u in units) or 1
    per_unit = len(units)
    window = tracer.window_s or 1.0
    us, ms = 1e6, 1e3

    def per_txn(span: str) -> float:
        return tracer.calls(span) / txns

    def per_replay(span: str) -> float:
        return tracer.calls(span) / replays if replays else 0.0

    canonical_calls, canonical_s = tracer.layer_entries("canonical")
    shares = {layer: s / window for layer, s in tracer.layer_self_s().items()}
    out = {
        "canonical.calls_per_txn": canonical_calls / txns,
        "canonical.us_per_call": canonical_s * us / canonical_calls if canonical_calls else 0.0,
        "crypto.verify.calls_per_txn": per_txn("crypto.verify"),
        "crypto.verify.us_per_call": tracer.per_call("crypto.verify", us),
        "crypto.digest_of.calls_per_txn": per_txn("crypto.digest_of"),
        "crypto.sign.calls": tracer.calls("crypto.sign") / per_unit,
        "ledger.txn_to_dict.calls_per_txn": per_txn("ledger.LedgerTransaction.to_dict"),
        "ledger.id_recomputes.calls_per_txn": per_txn("ledger.LedgerTransaction.id_recomputes"),
        "ledger.build_block.us_per_call": tracer.per_call("ledger.build_block", us),
        "ledger.merkle_root.us_per_call": tracer.per_call("ledger.merkle_root", us),
        "ledger.read_chain.s": tracer.per_call("ledger.read_chain", 1),
        "ledger.validate_chain.s": tracer.per_call("ledger.validate_chain", 1),
        "state.apply.us_per_call": tracer.per_call("state.apply", us),
        "state.apply.calls_per_txn": per_txn("state.apply"),
        "state.verify_txn_signature.calls_per_txn": per_txn("state.verify_txn_signature"),
        "state.derive_did.calls_per_txn": per_txn("state.derive_did"),
        "state.fold_chain.s": tracer.per_call("state.fold_chain", 1),
        "simnet.messages_per_txn": figures.get("simnet.messages_per_txn", 0.0),
        "simnet.events_per_txn": per_txn("simnet.SimNetwork.pop"),
        "simnet.send.us_per_call": tracer.per_call("simnet.SimNetwork.send", us),
        "simnet.pop.us_per_call": tracer.per_call("simnet.SimNetwork.pop", us),
        "simnet.queue_peak": float(tracer.queue_peak),
        "consensus.txns_per_batch": figures.get("consensus.txns_per_batch", 0.0),
        "consensus.batch_digest.calls_per_txn": per_txn("consensus.Batch.digest_hex"),
        "consensus.on_submit.us_per_call": tracer.per_call("consensus.ConsensusNode.on_submit", us),
        "consensus.on_message.us_per_call": tracer.per_call("consensus.ConsensusNode.on_message", us),
        "consensus.on_timer.us_per_call": tracer.per_call("consensus.ConsensusNode.on_timer", us),
        "consensus.instance_changes": figures.get("consensus.instance_changes", 0.0),
        "consensus.slots_retained": figures.get("consensus.slots_retained", 0.0),
        "consensus.retained_bytes_per_txn": figures.get("consensus.retained_bytes_per_txn", 0.0),
        "simulation.run.self_share": tracer.self_s("simulation.Simulation.run") / window,
        "simulation.settle.ms_per_call": tracer.per_call("simulation.Simulation.settle", ms),
        "simulation.events_logged_per_txn": figures.get("simulation.events_logged_per_txn", 0.0),
        "wallet.kdf.calls_per_replay": per_replay("wallet.KdfParams.derive"),
        "wallet.kdf.ms_per_call": tracer.per_call("wallet.KdfParams.derive", ms),
        "wallet.identity.calls_per_replay": per_replay("wallet.Wallet.identity"),
        "auth.issue.us_per_call": tracer.per_call("auth.ChallengeVerifier.issue", us),
        "auth.check.us_per_call": tracer.per_call("auth.ChallengeVerifier.check", us),
        "credentials.verify_presentation.us_per_call": tracer.per_call("credentials.verify_presentation", us),
        "credentials.verify_credential.us_per_call": tracer.per_call("credentials.verify_credential", us),
        "credentials.issue.us_per_call": tracer.per_call("credentials.issue", us),
        "credentials.present.us_per_call": tracer.per_call("credentials.present", us),
        "scenarios.privacy_scan.ms_per_call": tracer.per_call("scenarios.privacy_scan", ms),
        "cli.cred_verify.self_s": tracer.self_s("cli.cred_verify") / max(tracer.calls("cli.cred_verify"), 1),
        "commit_ms_p50": figures.get("commit_ms_p50", 0.0),
        "commit_ms_p99": figures.get("commit_ms_p99", 0.0),
        "outage_ms": figures.get("outage_ms", 0.0),
    }
    for layer in LAYERS:
        out["scenarios.replay_self_share" if layer == "scenarios" else f"{layer}.self_share"] = shares[layer]
    out["other.self_share"] = 1.0 - sum(shares.values())
    return out


# Per-layer metrics of the traced run: name -> (unit, better). Counts are per
# ledger txn, per replay, or per unit of work; times are means per call.
PER_LAYER = {
    "canonical.calls_per_txn": ("calls/txn", "lower"),
    "canonical.us_per_call": ("us", "lower"),
    "canonical.self_share": ("share", "lower"),
    "crypto.verify.calls_per_txn": ("calls/txn", "lower"),
    "crypto.verify.us_per_call": ("us", "lower"),
    "crypto.digest_of.calls_per_txn": ("calls/txn", "lower"),
    "crypto.sign.calls": ("calls/unit", "lower"),
    "crypto.self_share": ("share", "lower"),
    "ledger.txn_to_dict.calls_per_txn": ("calls/txn", "lower"),
    "ledger.id_recomputes.calls_per_txn": ("calls/txn", "lower"),
    "ledger.build_block.us_per_call": ("us", "lower"),
    "ledger.merkle_root.us_per_call": ("us", "lower"),
    "ledger.read_chain.s": ("s", "lower"),
    "ledger.validate_chain.s": ("s", "lower"),
    "ledger.self_share": ("share", "lower"),
    "state.apply.us_per_call": ("us", "lower"),
    "state.apply.calls_per_txn": ("calls/txn", "lower"),
    "state.verify_txn_signature.calls_per_txn": ("calls/txn", "lower"),
    "state.derive_did.calls_per_txn": ("calls/txn", "lower"),
    "state.fold_chain.s": ("s", "lower"),
    "state.self_share": ("share", "lower"),
    "simnet.messages_per_txn": ("msgs/txn", "lower"),
    "simnet.events_per_txn": ("events/txn", "lower"),
    "simnet.send.us_per_call": ("us", "lower"),
    "simnet.pop.us_per_call": ("us", "lower"),
    "simnet.queue_peak": ("events", "lower"),
    "simnet.self_share": ("share", "lower"),
    "consensus.txns_per_batch": ("txns/batch", "higher"),
    "consensus.batch_digest.calls_per_txn": ("calls/txn", "lower"),
    "consensus.on_submit.us_per_call": ("us", "lower"),
    "consensus.on_message.us_per_call": ("us", "lower"),
    "consensus.on_timer.us_per_call": ("us", "lower"),
    "consensus.instance_changes": ("count", "lower"),
    "consensus.slots_retained": ("slots", "lower"),
    "consensus.retained_bytes_per_txn": ("bytes/txn", "lower"),
    "consensus.self_share": ("share", "lower"),
    "simulation.run.self_share": ("share", "lower"),
    "simulation.settle.ms_per_call": ("ms", "lower"),
    "simulation.events_logged_per_txn": ("events/txn", "lower"),
    "simulation.self_share": ("share", "lower"),
    "wallet.kdf.calls_per_replay": ("calls/replay", "lower"),
    "wallet.kdf.ms_per_call": ("ms", "lower"),
    "wallet.identity.calls_per_replay": ("calls/replay", "lower"),
    "wallet.self_share": ("share", "lower"),
    "auth.issue.us_per_call": ("us", "lower"),
    "auth.check.us_per_call": ("us", "lower"),
    "auth.self_share": ("share", "lower"),
    "credentials.verify_presentation.us_per_call": ("us", "lower"),
    "credentials.verify_credential.us_per_call": ("us", "lower"),
    "credentials.issue.us_per_call": ("us", "lower"),
    "credentials.present.us_per_call": ("us", "lower"),
    "credentials.self_share": ("share", "lower"),
    "scenarios.privacy_scan.ms_per_call": ("ms", "lower"),
    "scenarios.replay_self_share": ("share", "lower"),
    "cli.cred_verify.self_s": ("s", "lower"),
    "cli.self_share": ("share", "lower"),
    "other.self_share": ("share", "lower"),
    "commit_ms_p50": ("ms", "lower"),
    "commit_ms_p99": ("ms", "lower"),
    "outage_ms": ("ms", "lower"),
    "trace.untraced_unit_s": ("s", "lower"),
    "trace.traced_unit_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def traced_run(workload, seconds: float, totals: Totals, out_dir: Path, meta: dict) -> tuple[dict, dict]:
    from workloads import commit_figures, consensus_figures

    workload.setup()
    totals.add(workload.warm())
    # simulated figures of the first unit: a pure function of the seed, so
    # they repeat exactly however many units the run fits in
    figures: dict[str, float] = {}

    def keep(unit) -> None:
        if unit.sims and not figures:
            figures.update(commit_figures(unit.sims))
            figures.update(consensus_figures(unit.sims))

    # Untraced and traced units alternate, so a drift in machine speed hits
    # both sides of the overhead figure alike. The wrappers are installed only
    # for the traced units: even disabled, they would slow the untraced ones.
    tracer = Tracer()
    untraced, units = [], []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        untraced.append(run_unit(workload, totals, keep))
        tracer.install()
        workload.section = tracer.window
        try:
            units.append(run_unit(workload, totals, keep))
        finally:
            tracer.uninstall()
            workload.section = wall_section
    if workload.name.startswith("register"):
        figures["consensus.retained_bytes_per_txn"] = retained_bytes_per_txn(workload)
    replays = sum(u.ops for u in units) if workload.name == "lifecycle" else 0
    metrics = layer_metrics(tracer, units, replays, figures)
    untraced_unit_s = statistics.median(u.wall_s for u in untraced)
    traced_unit_s = statistics.median(u.wall_s for u in units)
    metrics["trace.untraced_unit_s"] = untraced_unit_s
    metrics["trace.traced_unit_s"] = traced_unit_s
    metrics["trace.overhead_frac"] = traced_unit_s / untraced_unit_s - 1
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(set(metrics) ^ set(PER_LAYER))}")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-seed{workload.seed}.json"
    trace_path.write_text(
        json.dumps({"meta": meta, "workload": workload.name, "seed": workload.seed, "units": len(units),
                    "window_s": tracer.window_s, "metrics": metrics, "spans": tracer.table()}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    detail = {"units": len(units), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, detail


# --- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ssiledger" / "__init__.py").is_file():
        return fail(f"no ssiledger sources under {src}; run from the root of a checkout")
    if not (ROOT / "tests" / "golden").is_dir():
        return fail("no tests/golden/ in this checkout")
    sys.path.insert(0, str(src))
    import ssiledger

    if Path(ssiledger.__file__).resolve().parent != (src / "ssiledger").resolve():
        return fail(f"imported ssiledger from {ssiledger.__file__}, not from {src}")
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; pick one of {', '.join(WORKLOADS)}")

    meta = run_metadata(ROOT)
    workload = make_workload(args.workload, args.seed, ROOT)
    totals = Totals()
    try:
        if args.trace:
            metrics, detail = traced_run(workload, args.seconds, totals, ROOT / ".perfbench" / "out", meta)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, detail = plain_run(workload, args.seconds, totals)
            units = END_TO_END
    finally:
        workdir = getattr(workload, "workdir", None)
        if workdir is not None and workdir.exists():
            shutil.rmtree(workdir)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"units {detail['units']}" + ("" if "unit_rates" not in detail else " rates " + " ".join(f"{r:.5g}" for r in detail["unit_rates"])))
    if "slowdown" in detail:
        low, mid, high = detail["slowdown"]
        reference = workload.reference
        print(f"{reference.name} reference task time / {reference.seconds * 1e3:g} ms: median {mid:.3f} "
              f"(range {low:.3f}-{high:.3f}); times above are in reference seconds")
    for key, (value, unit) in detail.get("named", {}).items():
        print(f"{key} {value:.6g} {unit}")
    if args.trace:
        print(f"wall per unit: untraced {metrics['trace.untraced_unit_s']:.4f} s, traced "
              f"{metrics['trace.traced_unit_s']:.4f} s (overhead {metrics['trace.overhead_frac']:+.1%})")
        shares = {k: v for k, v in metrics.items() if k.endswith("self_share") and k != "simulation.run.self_share"}
        print("self-time shares: " + ", ".join(f"{k.split('.')[0]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"spans written to {detail['trace_file']}")
    frac = totals.failed / totals.attempted if totals.attempted else 1.0
    print(f"failed_ops_frac {frac:.6g} ({totals.failed} of {totals.attempted} ops failed)")
    for note in totals.notes[:20]:
        print(f"check failed: {note}")
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
