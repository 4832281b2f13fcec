"""dvfsim benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload sparse_stepped --seed 1 --seconds 30 --trace 0

Writes the workload's seeded inputs under bench/out/, times set-up in fresh
interpreters, runs the workload's passes in one worker process, and prints
``{"correct", "attempted", "failed", "metrics"}`` as the last line of stdout.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Normaliser  # noqa: E402
from layers import unit  # noqa: E402

SETUP_PROBES = 9  # timed fresh interpreters, after one untimed warm-up
PROBE_TIMEOUT_S = 30
WORKER_SLACK_S = 100  # warm-up pass plus checks, beyond the measured seconds


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def setup_seconds(plan) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, each importing dvfsim and loading the inputs."""
    argv = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(ROOT), *plan["scenarios"]]
    times = []
    norm = None
    for i in range(SETUP_PROBES + 1):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        done, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to((ROOT / "src").resolve()):
            _fail(f"set-up probe imported dvfsim from {module}")
        if i:
            times.append(norm.scale((int(done) - start) / 1e9))
        else:
            norm = Normaliser()  # after the untimed warm-up probe
    return times


def run_worker(plan, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, "-I", str(BENCH / "worker.py"), str(Path(plan["work"]) / "plan.json"), str(seconds)]
    argv.append("1" if trace else "0")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=seconds + WORKER_SLACK_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description="dvfsim benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "dvfsim" / "cli.py", ROOT / "scenarios"):
        if not needed.exists():
            _fail(f"{needed} is missing: run from a checkout of the dvfsim repository")
    oracle.selftest()

    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.prepare(args.workload, args.seed, ROOT, work)
        plan["spans_file"] = str(OUT / f"spans-{args.workload}.csv")
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        setup = setup_seconds(plan)
        res = run_worker(plan, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(res["passes"])
    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in res["layers"].items()}
        overhead = statistics.median(res["traced_passes"]) - wall
        metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "sim_tasks_per_s": {"value": plan["tasks_per_pass"] / wall, "unit": "tasks/s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, setup=setup, **{k: res[k] for k in res if "passes" in k})
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
