"""Valid input gives the same bytes as the reference under tests/reference/, and so do the
pinned failures (see tests/pinned.py)."""

import json

import pytest

from pinned import DIGESTS, REFERENCE, digested, produce, sha256

_DOC = json.loads(DIGESTS.read_text(encoding="utf-8"))
_WHOLE = sorted(p.name for p in REFERENCE.iterdir() if p != DIGESTS)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("pinned"))


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return f"line {n}: got {g!r}, reference {w!r}"
    return f"{len(got_lines)} lines, reference {len(want_lines)}"


def test_the_reference_holds_every_pinned_output(outputs):
    assert sorted(n for n in outputs if not digested(n)) == _WHOLE
    assert sorted(n for n in outputs if digested(n)) == sorted(_DOC["sha256"])


@pytest.mark.parametrize("name", _WHOLE)
def test_shipped_scenario_output_matches_the_reference_bytes(outputs, name):
    want = (REFERENCE / name).read_bytes()
    got = outputs[name]
    assert got == want, f"{name}: {_first_difference(got, want)} (reference made on {_DOC['platform']})"


@pytest.mark.parametrize("name", sorted(_DOC["sha256"]))
def test_generated_workload_output_matches_the_reference_digest(outputs, name):
    got = sha256(outputs[name])
    assert got == _DOC["sha256"][name], f"{name} differs from the reference made on {_DOC['platform']}"
