"""Worker process: runs one workload's passes in-process and checks them.

Usage: python3 -I bench/worker.py PLAN_JSON SECONDS TRACE

Loads ``dvfsim`` from the checkout's ``src/``, runs one warm-up pass, then
whole passes over the plan's CLI invocations until SECONDS have gone by. With
TRACE = 1 it alternates untraced passes with passes under ``layers.Tracer``.
Peak resident memory is read before the checks start. Prints one JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from hostspeed import Normaliser  # noqa: E402
from layers import LAYERS, Tracer, unit  # noqa: E402


def load_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import dvfsim
    import dvfsim.cli

    if not Path(dvfsim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"dvfsim was imported from {dvfsim.__file__}, not from {root / 'src'}")
    return dvfsim


def _outputs(plan) -> list[Path]:
    return [Path(p) for op in plan["ops"] for p in op["outputs"].values()]


def run_pass(plan, entry) -> tuple[float, list[int], list[str]]:
    """One timed pass: every invocation in order, stdout and stderr captured."""
    for path in _outputs(plan):
        path.unlink(missing_ok=True)
    gc.collect()
    codes, texts = [], []
    t0 = time.perf_counter()
    for op in plan["ops"]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes.append(entry(op["argv"]))
        texts.append(out.getvalue() + "\0" + err.getvalue())
    return time.perf_counter() - t0, codes, texts


def digest(plan, codes, texts) -> str:
    h = hashlib.sha256(json.dumps([codes, texts]).encode())
    for path in _outputs(plan):
        h.update(path.read_bytes() if path.exists() else b"\0missing")
    return h.hexdigest()


def layer_metrics(plan, tracer: Tracer) -> dict[str, float]:
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.s"] = tracer.incl.get(layer, 0.0)
        m[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    m["engine.simulate_s"] = tracer.tag_incl["simulate"]
    m["engine.self_s"] = tracer.excl["engine"] - tracer.tag_excl["trace"]
    m["engine.trace_s"] = tracer.tag_incl["trace"]
    m["cli.self_s"] = tracer.excl["cli"]
    sims = tracer.tag_calls["simulate"]
    m["engine.validate_per_simulate"] = tracer.tag_calls["validate"] / sims if sims else 0.0
    reports = [report for report, _ in tracer.results["simulate"]]
    sampled = sum(len(points) for points in tracer.results["trace"])
    traces = [Path(op["outputs"]["trace"]) for op in plan["ops"] if "trace" in op["outputs"]]
    written = sum(len(p.read_bytes().splitlines()) - 1 for p in traces)
    m["engine.trace_rows_written_ratio"] = written / sampled if sampled else 0.0
    # Constant-power spans, counted from public outputs as the oracle rebuilds them.
    m["sim.spans"] = sum(
        len({0.0, r.ledger.elapsed, *(o.start for o in r.per_task), *(o.finish for o in r.per_task),
             *(e.time for e in r.transition_log)}) - 1
        for r in reports
    )
    m["sim.hops"] = sum(len(r.transition_log) for r in reports)
    m["sim.trace_points"] = sampled
    written_by_reporting = [Path(p) for op in plan["ops"] for k, p in op["outputs"].items() if k in ("report", "trace")]
    m["reporting.bytes"] = sum(p.stat().st_size for p in written_by_reporting)
    return m


def write_spans(path: Path, spans: list[tuple]) -> None:
    """The first traced pass's spans, times in seconds from its first span."""
    origin = min((s[2] for s in spans), default=0.0)
    with path.open("w", encoding="utf-8") as f:
        f.write("index,name,module,start_s,end_s,parent\n")
        for i, (name, module, t0, t1, parent) in enumerate(spans):
            f.write(f"{i},{name},{module},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")


def check_outputs(plan, dv, codes, texts, files: Path) -> list[str]:
    """Check each operation that succeeded in the warm-up pass; return the problems found."""
    problems = []
    session = checks.Session(dv)
    for op, code, text in zip(plan["ops"], codes, texts):
        out, err = text.split("\0")
        if code != 0:
            sys.stderr.write(f"failed: {' '.join(op['argv'])}: exit {code}: {err.strip()}\n")
            continue
        try:
            session.check(op, out, files)
        except Exception as exc:  # every check failure is reported, none aborts the run
            problems.append(f"{op['verb']} {op['scenario']}: {exc}")
            traceback.print_exc(file=sys.stderr)
    return problems


def main() -> None:
    plan_path, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    dv = load_program(Path(plan["root"]))
    main_fn = dv.cli.main
    modules = {name: sys.modules[f"dvfsim.{name}"] for name in LAYERS}
    tracer = Tracer("dvfsim", modules)

    # Warm-up pass: fills caches and gives the outputs every later pass must repeat.
    _, first_codes, first_texts = run_pass(plan, main_fn)
    attempted = len(plan["ops"])
    failed = sum(c != 0 for c in first_codes)
    reference = digest(plan, first_codes, first_texts)
    first_dir = Path(plan["work"]) / "first"
    first_dir.mkdir()
    for path in _outputs(plan):
        if path.exists():
            os.replace(path, first_dir / path.name)

    plain, traced, raw, layers, mismatches = [], [], [], [], 0
    norm = Normaliser()
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or not plain or (trace and not traced):
        use_tracer = trace and len(traced) < len(plain)
        if use_tracer:
            tracer.reset()
            tracer.keep_spans = not traced
            tracer.install()
            try:
                elapsed, codes, texts = run_pass(plan, tracer.entry(main_fn))
            finally:
                tracer.uninstall()
            m = layer_metrics(plan, tracer)
            if tracer.keep_spans:
                spans = tracer.spans
            tracer.reset()  # drop the pass's results before timing the reference loop
            scaled = norm.scale(elapsed)
            traced.append(scaled)
            layers.append({k: v * scaled / elapsed if unit(k) == "s" else v for k, v in m.items()})
        else:
            elapsed, codes, texts = run_pass(plan, main_fn)
            plain.append(norm.scale(elapsed))
        raw.append(elapsed)
        attempted += len(codes)
        failed += sum(c != 0 for c in codes)
        mismatches += digest(plan, codes, texts) != reference
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(plan, dv, first_codes, first_texts, first_dir)
    if mismatches:
        problems.append(f"{mismatches} passes gave outputs that differ from the first pass")
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "passes": plain,
        "raw_passes": raw,
        "peak_rss_mib": peak_rss_mib,
    }
    if trace:
        result["traced_passes"] = traced
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        write_spans(Path(plan["spans_file"]), spans)
    shutil.rmtree(first_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
