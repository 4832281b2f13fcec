"""The CLI calls whose output bytes tier-1 pins, and the script that writes their reference.

On each shipped scenario the calls are ``validate``, ``simulate --report
--trace``, ``compare --report`` with three policies, and ``sweep`` over
``wear.alpha``, ``wear.k_shock`` and ``wear.f_span_hz`` with and without
``--policies``. On three copies of
``turion6.json`` (one under a ``fixed`` governor, one under ``stepped:0.05``
with ``dwell_stalls``, and one on a hotter, faster part whose spans heat by
more than about 29 degC, so that its wear takes the E1 route) and on
``bench/generate.py``'s ``sparse_stepped`` seed 1
the call is ``simulate --report --trace``; on its ``dense_direct`` seed 1 it is
``simulate --report``. Two failing calls, a usage error and a schema error,
keep their exit status and stderr.

The calls on the shipped scenarios, and the two failures, are kept whole under
``tests/reference/``, so a failure can show the first line that differs; the
rest keep only the SHA-256 digest of each output, in
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
DIGESTS = REFERENCE / "digests.json"
SHIPPED = ("turion6", "step_demo")
VARIANTS = {  # a copy of turion6.json with these sections replaced
    "turion6_fixed": {"governor": {"kind": "fixed", "fixed_index": 3}},
    "turion6_stalls": {
        "policy": {"kind": "stepped", "dwell_s": 0.05},
        "sim": {"duration_s": 120.0, "trace_dt_s": 0.1, "cost_rate_usd_per_mwh": 100.0, "dwell_stalls": True},
    },
    "turion6_e1": {
        "thermal": {"r_th_k_per_w": 10, "c_th_j_per_k": 0.5, "t_amb_c": 25.0, "t_ref_c": 45.0, "l_base_hours": 10000.0}
    },
}
GENERATED = {"sparse_stepped_seed1": ("sparse_stepped", 1, True), "dense_direct_seed1": ("dense_direct", 1, False)}
FAILURES = ("usage_error", "schema_error")
# (name tag, key, values) of each pinned sweep on the shipped scenarios
SWEEPS = (("", "wear.alpha", "1,2,3"), ("_k_shock", "wear.k_shock", "1e-5,1e-4,2e-3"),
          ("_f_span", "wear.f_span_hz", "2.5e8,1e9,4e9"))


def _cli(*args: str, status: int = 0) -> tuple[bytes, bytes]:
    """(stdout, stderr) of ``python -m dvfsim *args`` run from the repository root on this checkout's sources.

    The call must exit with ``status``, and a call that succeeds must print no stderr.
    """
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONUTF8": "1"}
    cmd = [sys.executable, "-m", "dvfsim", *args]
    proc = subprocess.run(cmd, capture_output=True, timeout=120, env=env, cwd=ROOT)
    if proc.returncode != status or (status == 0 and proc.stderr):
        raise AssertionError(f"dvfsim {' '.join(args)} exited {proc.returncode}: {proc.stderr.decode()}")
    return proc.stdout, proc.stderr


def generated_document(workload: str, seed: int) -> dict:
    """``bench/generate.py``'s document for ``workload`` and ``seed``."""
    spec = importlib.util.spec_from_file_location("bench_generate", ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.GENERATORS[workload](seed)


def _shipped_document(name: str) -> dict:
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))


def variant_document(name: str) -> dict:
    """The document of ``VARIANTS[name]``: ``turion6.json`` with that variant's sections."""
    return {**_shipped_document("turion6"), **VARIANTS[name]}


def _simulate(out: dict, work: Path, name: str, scenario: str, trace: bool = True) -> None:
    report = work / f"{name}.report.json"
    args = ["simulate", "--scenario", scenario, "--report", str(report)]
    if trace:
        args += ["--trace", str(work / f"{name}.trace.csv")]
    out[f"{name}.stdout"] = _cli(*args)[0]
    out[report.name] = report.read_bytes()
    if trace:
        out[f"{name}.trace.csv"] = (work / f"{name}.trace.csv").read_bytes()


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def produce(work: Path) -> dict[str, bytes]:
    """Run every pinned call with its outputs under ``work``; returns {reference name: bytes}.

    A failing call's entry is its exit status on one line, then its stderr.
    """
    out = {}
    for name in SHIPPED:
        scenario = f"scenarios/{name}.json"  # relative, since validate prints the path it is given
        _simulate(out, work, name, scenario)
        out[f"{name}.validate.stdout"] = _cli("validate", "--scenario", scenario)[0]
        compared = work / f"{name}.compare.json"
        policies = "direct,stepped,stepped:0.05"
        out[f"{name}.compare.stdout"] = _cli("compare", "--scenario", scenario, "--policies", policies, "--report", str(compared))[0]
        out[compared.name] = compared.read_bytes()
        for tag, param, values in SWEEPS:
            sweep = ("sweep", "--scenario", scenario, "--param", param, "--values", values)
            out[f"{name}.sweep{tag}.stdout"] = _cli(*sweep)[0]
            out[f"{name}.sweep{tag}_policies.stdout"] = _cli(*sweep, "--policies", "direct,stepped")[0]
    for name in VARIANTS:
        _simulate(out, work, name, _write(work, name, variant_document(name)))
    for name, (workload, seed, trace) in GENERATED.items():
        _simulate(out, work, name, _write(work, name, generated_document(workload, seed)), trace)

    usage = ("sweep", "--scenario", "scenarios/turion6.json", "--param", "wear.alpha", "--values", "1,x")
    out["usage_error.stderr"] = b"exit 64\n" + _cli(*usage, "--policies", "direct,stepped", status=64)[1]
    doc = _shipped_document("turion6")
    doc["processor"]["coeff_a"] = True
    doc["bogus"] = 1
    out["schema_error.stderr"] = b"exit 2\n" + _cli("validate", "--scenario", _write(work, "schema_error", doc), status=2)[1]
    return out


def digested(name: str) -> bool:
    """Whether the reference keeps only the digest of ``name``: the outputs of every call on a written document."""
    return name.partition(".")[0] in (*VARIANTS, *GENERATED)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = produce(Path(tmp))
    REFERENCE.mkdir(exist_ok=True)
    for path in REFERENCE.iterdir():
        path.unlink()
    digests = {}
    for name, data in outputs.items():
        if digested(name):
            digests[name] = sha256(data)
        else:
            (REFERENCE / name).write_bytes(data)
    made_on = f"{platform.system()} {platform.machine()}, {platform.python_implementation()} {platform.python_version()}"
    libc = " ".join(platform.libc_ver())
    doc = {"platform": f"{made_on}, {libc}".strip(", "), "sha256": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
