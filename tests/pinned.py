"""The CLI calls whose output bytes tier-1 pins, and the script that writes their reference.

Each call is ``simulate --report --trace`` on a shipped scenario, or
``simulate --report`` on ``bench/generate.py``'s ``dense_direct`` seed 1. The
shipped scenarios' stdout, report and trace are kept whole under
``tests/reference/``, so a failure can show the first line that differs; the
generated run keeps only the SHA-256 digest of its stdout and its report, in
``tests/reference/digests.json``, next to the platform that made them
(temperatures and wear go through ``math.exp``, ``expm1`` and ``log``, which
another libm may round differently).

Regenerate the reference only when output changes on purpose, from the
repository root::

    PYTHONPATH=src python tests/pinned.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"
SHIPPED = ("turion6", "step_demo")
GENERATED = "dense_direct_seed1"


def _cli(*args: str) -> bytes:
    """stdout of ``python -m dvfsim *args`` on this checkout's sources; the call must exit 0 and print no stderr."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONUTF8": "1"}
    proc = subprocess.run([sys.executable, "-m", "dvfsim", *args], capture_output=True, timeout=120, env=env)
    if proc.returncode != 0 or proc.stderr:
        raise AssertionError(f"dvfsim {' '.join(args)} exited {proc.returncode}: {proc.stderr.decode()}")
    return proc.stdout


def dense_direct_document(seed: int) -> dict:
    """``bench/generate.py``'s dense_direct document for ``seed``."""
    spec = importlib.util.spec_from_file_location("bench_generate", ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.dense_direct(seed)


def produce(work: Path) -> dict[str, bytes]:
    """Run every pinned call with its outputs under ``work``; returns {reference file name: bytes}."""
    out = {}
    for name in SHIPPED:
        report, trace = work / f"{name}.report.json", work / f"{name}.trace.csv"
        scenario = ROOT / "scenarios" / f"{name}.json"
        out[f"{name}.stdout"] = _cli("simulate", "--scenario", str(scenario), "--report", str(report), "--trace", str(trace))
        out[report.name], out[trace.name] = report.read_bytes(), trace.read_bytes()
    scenario, report = work / f"{GENERATED}.json", work / f"{GENERATED}.report.json"
    scenario.write_text(json.dumps(dense_direct_document(1)), encoding="utf-8")
    out[f"{GENERATED}.stdout"] = _cli("simulate", "--scenario", str(scenario), "--report", str(report))
    out[report.name] = report.read_bytes()
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = produce(Path(tmp))
    REFERENCE.mkdir(exist_ok=True)
    digests = {}
    for name, data in outputs.items():
        if name.startswith(GENERATED):
            digests[name] = sha256(data)
        else:
            (REFERENCE / name).write_bytes(data)
    made_on = f"{platform.system()} {platform.machine()}, {platform.python_implementation()} {platform.python_version()}"
    libc = " ".join(platform.libc_ver())
    doc = {"platform": f"{made_on}, {libc}".strip(", "), "sha256": digests}
    (REFERENCE / "digests.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
