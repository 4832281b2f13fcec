"""Seeded scenario generator for the synthetic benchmark workloads.

Each function returns a scenario document (the JSON the CLI reads) built only
from ``random.Random(seed)``; the same seed always gives the same document.
Arrivals are jittered inside fixed slots rather than drawn as a Poisson
process, so the horizon and the trace length are the same for every seed and
the work per run varies little; only the per-task make-up changes.

Run ``python3 bench/generate.py --workload sparse_stepped --seed 1 --out s.json``
to write one document.
"""

from __future__ import annotations

import argparse
import json
import random

# The shipped six-level ladder and power model (scenarios/turion6.json).
LADDER = [
    {"freq_hz": 800e6, "vdd_v": 0.90},
    {"freq_hz": 1000e6, "vdd_v": 0.96},
    {"freq_hz": 1200e6, "vdd_v": 1.02},
    {"freq_hz": 1400e6, "vdd_v": 1.08},
    {"freq_hz": 1600e6, "vdd_v": 1.14},
    {"freq_hz": 1800e6, "vdd_v": 1.20},
]
PROCESSOR = {"levels": LADDER, "coeff_a": 4.0e-9, "coeff_b": 0.5, "p_device_w": 2.0, "p_idle_w": 0.8}
F_MIN = LADDER[0]["freq_hz"]
F_MAX = LADDER[-1]["freq_hz"]

# sparse_stepped: shipped thermal constants, tau = r_th * c_th = 5 s.
SPARSE_TASKS = 1000
SPARSE_SLOT_S = 8.0  # one task per slot; gaps of several tau between bursts
SPARSE_JITTER_S = 2.0
SPARSE_CYCLES = (0.5e9, 2.7e9)  # 0.28-1.5 s at the top clock
SPARSE_SLACK = (1.0, 2.5)  # deadline window / run time at the top clock
SPARSE_DWELL_S = 0.05
SPARSE_TRACE_DT_S = 0.1
SPARSE_THERMAL = {
    "r_th_k_per_w": 2.0,
    "c_th_j_per_k": 2.5,
    "t_amb_c": 25.0,
    "t_ref_c": 45.0,
    "l_base_hours": 10000.0,
}

# dense_direct: heat-sinked part, tau = 0.5 K/W * 200 J/K = 100 s, far longer
# than any span, so each span needs only one or two wear-rate evaluations.
DENSE_TASKS = 10000
DENSE_SLOT_S = 0.05  # mean offered load equals the bottom clock's capacity: tasks queue
DENSE_CYCLES = (2e7, 6e7)  # 11-33 ms at the top clock
DENSE_SLACK = (1.2, 3.0)  # deadline window / run time at the bottom clock
DENSE_TRACE_DT_S = 5.0
DENSE_THERMAL = {
    "r_th_k_per_w": 0.5,
    "c_th_j_per_k": 200.0,
    "t_amb_c": 25.0,
    "t_ref_c": 45.0,
    "l_base_hours": 10000.0,
}

WEAR = {"k_shock": 1.0e-4, "alpha": 2.0}
TAIL_S = 20.0  # idle horizon after the last slot, so the queue drains


def _doc(thermal, tasks, governor, policy, duration, trace_dt):
    return {
        "processor": PROCESSOR,
        "thermal": thermal,
        "wear": WEAR,
        "tasks": tasks,
        "governor": governor,
        "policy": policy,
        "sim": {"duration_s": duration, "trace_dt_s": trace_dt, "cost_rate_usd_per_mwh": 100.0},
    }


def sparse_stepped(seed: int) -> dict:
    """1,000 bursts, one per 8 s slot, run by lowest_feasible under stepped:0.05."""
    rng = random.Random(seed)
    tasks = []
    for i in range(SPARSE_TASKS):
        arrival = i * SPARSE_SLOT_S + rng.uniform(0.0, SPARSE_JITTER_S)
        cycles = rng.uniform(*SPARSE_CYCLES)
        window = cycles / F_MAX * rng.uniform(*SPARSE_SLACK)
        tasks.append({"id": f"s{i}", "cycles": cycles, "arrival_s": arrival, "deadline_s": arrival + window})
    duration = SPARSE_TASKS * SPARSE_SLOT_S + TAIL_S
    return _doc(
        SPARSE_THERMAL,
        tasks,
        {"kind": "lowest_feasible"},
        {"kind": "stepped", "dwell_s": SPARSE_DWELL_S},
        duration,
        SPARSE_TRACE_DT_S,
    )


def dense_direct(seed: int) -> dict:
    """10,000 short tasks, one per 50 ms slot, run by min_energy under direct."""
    rng = random.Random(seed)
    tasks = []
    for i in range(DENSE_TASKS):
        arrival = (i + rng.random()) * DENSE_SLOT_S
        cycles = rng.uniform(*DENSE_CYCLES)
        window = cycles / F_MIN * rng.uniform(*DENSE_SLACK)
        tasks.append({"id": f"d{i}", "cycles": cycles, "arrival_s": arrival, "deadline_s": arrival + window})
    duration = DENSE_TASKS * DENSE_SLOT_S + TAIL_S
    return _doc(DENSE_THERMAL, tasks, {"kind": "min_energy"}, {"kind": "direct"}, duration, DENSE_TRACE_DT_S)


GENERATORS = {"sparse_stepped": sparse_stepped, "dense_direct": dense_direct}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(GENERATORS[args.workload](args.seed), f)


if __name__ == "__main__":
    main()
