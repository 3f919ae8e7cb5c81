"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py        (from the root of a checkout)

Each case runs a small copy of a workload through the same checks the
benchmark uses. Clean inputs must give no failed op; one corrupted signature
or one flipped expected outcome must give a non-zero failed-op fraction. It
also checks that BENCHMARK.json lists exactly the metrics run.py prints.
The functions are named ``test_*`` so pytest can collect this file as well.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import RegisterWorkload, VerifierWorkload  # noqa: E402


def _flip(signature: bytes) -> bytes:
    return bytes([signature[0] ^ 1]) + signature[1:]


def _frac(unit) -> float:
    return unit.failed / unit.attempted


def _register(corrupt: bool) -> float:
    workload = RegisterWorkload("register-burst", seed=5, paced=False, count=40)
    workload.setup()
    if corrupt:
        item = workload.items[7]
        bad = dataclasses.replace(item.txn, author_signature=_flip(item.txn.author_signature))
        workload.items[7] = dataclasses.replace(item, txn=bad)
    return _frac(workload.unit())


def _verifier(corrupt_signature: bool, flip_expected: bool) -> float:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        workload = VerifierWorkload(seed=5, workdir=workdir / "verifier", holders=30, calls=30)
        workload.setup()
        workload.cli_cursor = 3  # the CLI reads holder 3's presentation file
        if corrupt_signature:
            pres = workload.presentations[3]
            bad = dataclasses.replace(pres, holder_signature=_flip(pres.holder_signature))
            workload.presentations[3] = bad
            workload.presentation_path(3).write_text(json.dumps(bad.to_dict()), encoding="utf-8")
        if flip_expected:
            workload.expected[10] = "valid" if workload.expected[10] == "Revoked" else "Revoked"
        return _frac(workload.unit())
    finally:
        shutil.rmtree(workdir)


def test_register_clean_inputs_pass():
    assert _register(corrupt=False) == 0


def test_register_corrupted_signature_fails():
    assert _register(corrupt=True) > 0


def test_verifier_clean_inputs_pass():
    assert _verifier(corrupt_signature=False, flip_expected=False) == 0


def test_verifier_corrupted_signature_fails():
    # in-process verification and the CLI both see holder 3's bad signature
    workload_frac = _verifier(corrupt_signature=True, flip_expected=False)
    assert workload_frac == 2 / 31


def test_verifier_flipped_expectation_fails():
    assert _verifier(corrupt_signature=False, flip_expected=True) > 0


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
