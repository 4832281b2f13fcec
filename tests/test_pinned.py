"""Valid input gives the same bytes as the reference under tests/reference/ (see tests/pinned.py)."""

import json

import pytest

from pinned import GENERATED, REFERENCE, SHIPPED, produce, sha256


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("pinned"))


def _platform() -> str:
    return json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))["platform"]


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return f"line {n}: got {g!r}, reference {w!r}"
    return f"{len(got_lines)} lines, reference {len(want_lines)}"


@pytest.mark.parametrize("name", [f"{s}.{part}" for s in SHIPPED for part in ("stdout", "report.json", "trace.csv")])
def test_shipped_scenario_output_matches_the_reference_bytes(outputs, name):
    want = (REFERENCE / name).read_bytes()
    got = outputs[name]
    assert got == want, f"{name}: {_first_difference(got, want)} (reference made on {_platform()})"


@pytest.mark.parametrize("name", [f"{GENERATED}.stdout", f"{GENERATED}.report.json"])
def test_generated_workload_output_matches_the_reference_digest(outputs, name):
    want = json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))["sha256"][name]
    assert sha256(outputs[name]) == want, f"{name} differs from the reference made on {_platform()}"
