"""The benchmark's three workloads as plans of CLI invocations.

A plan is plain JSON: the scenario files a user would load, and the list of
operations one pass runs, each an argv for ``dvfsim.cli.main`` plus what the
checks need to know about it. ``prepare`` writes the seeded inputs into a work
directory and returns the plan, which the caller saves there for the worker.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import generate

WORKLOADS = ("sparse_stepped", "dense_direct", "demo_verbs")
DEMO_SCENARIOS = ("turion6.json", "step_demo.json")
DEMO_POLICIES = "direct,stepped,stepped:0.05,stepped:0.25"
SWEEP_PARAM = "wear.alpha"
SWEEP_COUNT = 8
SWEEP_ALPHA = (1.0, 4.0)


def _simulate(scenario: str, work: Path, tag: str, trace: bool) -> dict:
    outputs = {"report": str(work / f"{tag}-report.json")}
    if trace:
        outputs["trace"] = str(work / f"{tag}-trace.csv")
    argv = ["simulate", "--scenario", scenario]
    for flag, path in outputs.items():
        argv += [f"--{flag}", path]
    return {"verb": "simulate", "scenario": scenario, "argv": argv, "outputs": outputs}


def _demo_ops(scenario: str, work: Path, tag: str, values: list[float]) -> list[dict]:
    compare_out = str(work / f"{tag}-compare.json")
    sweep_out = str(work / f"{tag}-sweep.csv")
    text = ",".join(repr(v) for v in values)
    return [
        {"verb": "validate", "scenario": scenario, "argv": ["validate", "--scenario", scenario], "outputs": {}},
        _simulate(scenario, work, tag, trace=True),
        {
            "verb": "compare",
            "scenario": scenario,
            "policies": DEMO_POLICIES.split(","),
            "argv": ["compare", "--scenario", scenario, "--policies", DEMO_POLICIES, "--report", compare_out],
            "outputs": {"report": compare_out},
        },
        {
            "verb": "sweep",
            "scenario": scenario,
            "values": values,
            "argv": ["sweep", "--scenario", scenario, "--param", SWEEP_PARAM, "--values", text, "--out", sweep_out],
            "outputs": {"out": sweep_out},
        },
    ]


def _simulations(op: dict) -> int:
    """How many simulate() runs one operation triggers."""
    if op["verb"] == "compare":
        return len(op["policies"])
    if op["verb"] == "sweep":
        return len(op["values"])
    return 1 if op["verb"] == "simulate" else 0


def prepare(name: str, seed: int, root: Path, work: Path) -> dict:
    """Write the workload's inputs for ``seed`` under ``work`` and return its plan."""
    if name in generate.GENERATORS:
        scenario = str(work / f"{name}.json")
        Path(scenario).write_text(json.dumps(generate.GENERATORS[name](seed)), encoding="utf-8")
        ops = [_simulate(scenario, work, "run", trace=name == "sparse_stepped")]
        scenarios = [scenario]
    elif name == "demo_verbs":
        rng = random.Random(seed)
        values = sorted(round(rng.uniform(*SWEEP_ALPHA), 3) for _ in range(SWEEP_COUNT))
        scenarios = [str(root / "scenarios" / f) for f in DEMO_SCENARIOS]
        ops = []
        for path in scenarios:
            ops += _demo_ops(path, work, Path(path).stem, values)
    else:
        raise ValueError(f"unknown workload {name!r}")
    tasks = {s: len(json.loads(Path(s).read_text(encoding="utf-8"))["tasks"]) for s in scenarios}
    plan = {
        "workload": name,
        "seed": seed,
        "root": str(root),
        "work": str(work),
        "scenarios": scenarios,
        "ops": ops,
        "tasks_per_pass": sum(_simulations(op) * tasks[op["scenario"]] for op in ops),
    }
    return plan
