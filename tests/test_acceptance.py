"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or ``-rA``); a failed
assertion marks the criterion red. Randomized checks use fixed seeds so the
suite is deterministic.
"""

import json
import math
import random

import pytest

from dvfsim import (
    FrequencyLevel,
    GovernorPolicy,
    SteadyState,
    Task,
    ThermalParams,
    TransitionPolicy,
    WearParams,
    compare_policies,
    governor_rule,
    plan_transition,
    run_scenario,
    simulate,
    write_report,
)
from dvfsim.power import energy_cost
from dvfsim.reporting import trace_writer
from dvfsim.thermal import steady_state_temp
from dvfsim.transitions import full_span, shock_wear

from helpers import (
    SCENARIO_DIR,
    left_sum,
    make_scenario,
    make_spec,
    make_thermal,
    make_wear,
    run_cli,
    steady_wear_factors,
    trace_probe_scenario,
)

DIRECT = TransitionPolicy("direct")
STEPPED = TransitionPolicy("stepped")


def random_spec(rng, n_min=2, n_max=7):
    n = rng.randint(n_min, n_max)
    freq = rng.uniform(2e8, 1e9)
    vdd = rng.uniform(0.7, 0.9)
    levels = []
    for i in range(n):
        levels.append(FrequencyLevel(i, freq, vdd))
        freq += rng.uniform(5e7, 5e8)
        vdd += rng.uniform(0.02, 0.2)
    return make_spec(
        levels=levels,
        coeff_a=rng.uniform(1e-10, 1e-8),
        coeff_b=rng.uniform(0.0, 1.0),
        p_device=rng.uniform(0.0, 6.0),
        p_idle=rng.uniform(0.0, 2.0),
    )


def test_ac01_energy_cost_anchors():
    assert energy_cost(12.0, 1.0, 100.0) == 1200.0
    assert energy_cost(100.0, 1.0, 100.0) == 10000.0
    print("AC1 PASS: 12 MW and 100 MW peak-hour costs are exactly $1,200 and $10,000")


def test_ac02_arrhenius_anchors_and_lifetime_doubling():
    params = make_thermal(t_ref=55.0)
    for temp, factor in ((55.0, 1.0), (65.0, 2.0), (45.0, 0.5)):
        for wear_factor in steady_wear_factors(params, temp):
            assert math.isclose(wear_factor, factor, rel_tol=1e-12)

    def constant_temp_run(t_amb):
        thermal = ThermalParams(r_th=1.0, c_th=5.0, t_amb=t_amb, t_ref=55.0, l_base=3600.0)
        spec = make_spec(p_idle=0.0, thermal=thermal)
        report, _ = simulate(make_scenario(spec=spec, tasks=(), duration=100.0, trace_dt=1.0))
        assert report.transition_count == 0
        return report.projected_lifetime

    ratio = constant_temp_run(45.0) / constant_temp_run(55.0)
    assert math.isclose(ratio, 2.0, rel_tol=1e-9)
    print("AC2 PASS: wear-rate anchors {1, 2, 0.5} and 10 degC-cooler run doubles projected lifetime")


def test_ac03_simulated_energy_matches_closed_form():
    rng = random.Random(20260808)
    for _ in range(100):
        spec = random_spec(rng)
        index = rng.randrange(len(spec.levels))
        level = spec.levels[index]
        cycles = rng.uniform(1e8, 1e10)
        arrival = rng.uniform(0.0, 10.0)
        t_active = cycles / level.freq
        deadline = arrival + t_active * rng.uniform(1.1, 3.0)
        duration = deadline + rng.uniform(1.0, 50.0)
        sc = make_scenario(
            spec=spec,
            tasks=(Task("t", cycles, arrival, deadline),),
            governor=GovernorPolicy("fixed", index),
            policy=DIRECT,
            duration=duration,
            trace_dt=duration / 10.0,
        )
        report, _ = simulate(sc)
        p_active = spec.coeff_a * level.freq * level.vdd**2 + spec.coeff_b * level.vdd + spec.p_device
        expected = p_active * t_active + spec.p_idle * (duration - t_active)
        assert math.isclose(report.energy.total_j, expected, rel_tol=1e-9)
    print("AC3 PASS: 100 randomized single-task runs match the closed-form energy within 1e-9")


def test_ac04_step_convexity_suite():
    spec1 = make_spec(wear=make_wear(alpha=1.0))
    direct1 = sum(
        shock_wear(spec1.wear, h.delta_f) for h in plan_transition(spec1, spec1.levels[0], spec1.levels[5], DIRECT)
    )
    stepped1 = sum(
        shock_wear(spec1.wear, h.delta_f) for h in plan_transition(spec1, spec1.levels[0], spec1.levels[5], STEPPED)
    )
    assert math.isclose(stepped1, direct1, rel_tol=1e-12)

    spec2 = make_spec(wear=make_wear(alpha=2.0))
    direct2 = sum(
        shock_wear(spec2.wear, h.delta_f) for h in plan_transition(spec2, spec2.levels[0], spec2.levels[5], DIRECT)
    )
    stepped2 = sum(
        shock_wear(spec2.wear, h.delta_f) for h in plan_transition(spec2, spec2.levels[0], spec2.levels[5], STEPPED)
    )
    assert math.isclose(stepped2, direct2 / 5.0, rel_tol=1e-12)

    rng = random.Random(41)
    for _ in range(200):
        spec = random_spec(rng, n_min=3, n_max=8)
        wear = WearParams(k_shock=1e-4, alpha=rng.uniform(1.0001, 4.0), f_span=full_span(spec.levels))
        a = rng.randrange(len(spec.levels) - 2)
        b = rng.randrange(a + 2, len(spec.levels))
        if rng.random() < 0.5:
            a, b = b, a
        direct = sum(shock_wear(wear, h.delta_f) for h in plan_transition(spec, spec.levels[a], spec.levels[b], DIRECT))
        stepped = sum(
            shock_wear(wear, h.delta_f) for h in plan_transition(spec, spec.levels[a], spec.levels[b], STEPPED)
        )
        assert stepped < direct
    print("AC4 PASS: stepping is wear-neutral at alpha=1, 5x cheaper at alpha=2, and strictly cheaper for alpha>1")


def test_ac05_governor_matches_exhaustive_enumeration():
    rng = random.Random(7731)
    checked = 0
    while checked < 100:
        spec = random_spec(rng)
        cycles = rng.uniform(1e8, 1e10)
        arrival = rng.uniform(0.0, 10.0)
        window = cycles / spec.levels[-1].freq * rng.uniform(0.5, 8.0)
        task = Task("t", cycles, arrival, arrival + window)

        feasible, best_index, best_energy = [], None, math.inf
        for level in spec.levels:
            t_run = cycles / level.freq
            if t_run > window:
                continue
            feasible.append(level.index)
            p_active = spec.coeff_a * level.freq * level.vdd**2 + spec.coeff_b * level.vdd + spec.p_device
            energy = p_active * t_run + spec.p_idle * (window - t_run)
            if energy < best_energy:
                best_index, best_energy = level.index, energy

        min_energy = governor_rule(spec, GovernorPolicy("min_energy"))
        lowest_feasible = governor_rule(spec, GovernorPolicy("lowest_feasible"))
        if best_index is None:
            for rule in (min_energy, lowest_feasible):
                assert rule(task, arrival) is None
        else:
            assert min_energy(task, arrival).index == best_index
            assert lowest_feasible(task, arrival).index == feasible[0]
            checked += 1
    print("AC5 PASS: min-energy and lowest-feasible governors match exhaustive enumeration on 100 feasible instances")


def test_ac06_thermal_correctness():
    params = ThermalParams(r_th=0.5, c_th=10.0, t_amb=25.0, t_ref=25.0, l_base=1000.0)

    steady = SteadyState(params, 20.0)
    for dt in (0.1, 1.0, 5.0, 17.3):
        full = steady.step(25.0, dt)[0]
        half = steady.step(steady.step(25.0, dt / 2)[0], dt / 2)[0]
        assert math.isclose(half, full, rel_tol=1e-12)

    after, _, _ = steady.step(25.0, 10.0 * params.tau)
    target = steady_state_temp(params, 20.0)
    assert abs(after - target) / target < 1e-3

    def oracle(n):
        t_ss, h, total = 35.0, 5.0 / n, 0.0
        for k in range(n + 1):
            temp = t_ss + (25.0 - t_ss) * math.exp(-(k * h) / 5.0)
            rate = 2.0 ** ((temp - 25.0) / 10.0) / 1000.0
            total += rate if 0 < k < n else rate / 2.0
        return total * h

    _, wear, _ = steady.step(25.0, 5.0)
    assert math.isclose(wear, oracle(10**4), rel_tol=1e-6)
    print("AC6 PASS: half-step composition 1e-12, 10-tau settle within 0.1%, transient wear within 1e-6 of oracle")


def test_ac07_conservation_and_consistency():
    from dvfsim import load_scenario

    sc = load_scenario(SCENARIO_DIR / "turion6.json")
    report, _ = simulate(sc)
    assert abs(report.active_s + report.idle_s - sc.duration) < 1e-9
    assert report.ledger.shock_wear == left_sum(e.wear for e in report.transition_log)

    probe = trace_probe_scenario()
    probe_report, trace = simulate(probe)
    times = [p.time for p in trace]
    powers = [p.power for p in trace]
    integral = sum(0.5 * (powers[i] + powers[i + 1]) * (times[i + 1] - times[i]) for i in range(len(times) - 1))
    rel = abs(integral - probe_report.energy.total_j) / probe_report.energy.total_j
    assert rel <= 1e-3
    print(f"AC7 PASS: time conserved within 1e-9 s, shock ledger exact, trace integral off by {rel:.2e} at dt=tau/50")


def test_ac08_step_based_transitions_reproduce_the_tradeoff():
    from dvfsim import load_scenario

    sc = load_scenario(SCENARIO_DIR / "turion6.json")
    assert sc.spec.wear.alpha == 2.0

    zero_dwell = compare_policies(sc, [DIRECT, STEPPED])
    direct_run, stepped_run = zero_dwell.runs
    assert stepped_run.report.energy.total_j == direct_run.report.energy.total_j
    assert stepped_run.report.projected_lifetime > direct_run.report.projected_lifetime

    with_dwell = compare_policies(sc, [DIRECT, TransitionPolicy("stepped", 0.5)])
    slow_run = with_dwell.runs[1]
    assert slow_run.delta_energy_j != 0.0
    assert slow_run.newly_missed == ("t1", "t3", "t4")
    print("AC8 PASS: zero-dwell stepping extends lifetime at identical energy; dwelling shifts energy and flags misses")


def test_ac09_repeated_runs_are_byte_identical(tmp_path):
    from dvfsim import load_scenario

    sc = load_scenario(SCENARIO_DIR / "turion6.json")
    blobs = []
    for tag in ("one", "two"):
        rp, tp = tmp_path / f"r_{tag}.json", tmp_path / f"t_{tag}.csv"
        with trace_writer(tp) as write_span:
            report = run_scenario(sc, write_span)
        write_report(report, rp)
        blobs.append((rp.read_bytes(), tp.read_bytes()))
    assert blobs[0] == blobs[1]
    print("AC9 PASS: repeated simulations produce byte-identical report and trace files")


def test_ac10_cli_contract(tmp_path):
    cli = run_cli

    turion = str(SCENARIO_DIR / "turion6.json")
    demo = str(SCENARIO_DIR / "step_demo.json")

    assert cli("validate", "--scenario", turion).returncode == 0

    bad = tmp_path / "bad.json"
    doc = json.loads(open(turion).read())
    doc["sim"]["duration_s"] = 0.5
    bad.write_text(json.dumps(doc))
    assert cli("validate", "--scenario", str(bad)).returncode == 2

    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    run = cli("simulate", "--scenario", turion, "--report", str(report_path), "--trace", str(trace_path))
    assert run.returncode == 0
    assert json.loads(report_path.read_text())["schema_version"] == 1
    assert trace_path.read_text().startswith("time_s,freq_hz,power_w,temp_c,cum_wear\n")

    run = cli("compare", "--scenario", demo, "--policies", "direct,stepped")
    assert run.returncode == 0
    cells = {line.split()[0]: line.split() for line in run.stdout.splitlines()[1:] if line.strip()}
    assert math.isclose(float(cells["stepped"][4]), float(cells["direct"][4]) / 5.0, rel_tol=1e-9)

    sweep_out = tmp_path / "sweep.csv"
    run = cli("sweep", "--scenario", demo, "--param", "wear.alpha", "--values", "1,2", "--out", str(sweep_out))
    assert run.returncode == 0
    assert len(sweep_out.read_text().splitlines()) == 3

    assert cli("transmogrify").returncode == 64
    assert cli("simulate", "--scenario", str(tmp_path / "absent.json")).returncode == 1
    print("AC10 PASS: CLI exit codes and output formats verified on the shipped scenarios")
