"""Checks of one pass's CLI outputs against the oracle and the model's properties.

The CLI's files and printed lines are what a user sees, so they are checked
first against a run of the same scenario through the package API, which also
exposes the transition log. Everything in that run is then checked against
``oracle`` (rebuilt power profile, exact thermal wear, shock-wear sum,
governor rule) and against properties the method must have. No stored copy
of any output is used.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import oracle

TRACE_HEADER = "time_s,freq_hz,power_w,temp_c,cum_wear"
SWEEP_HEADER = "value,energy_j,shock_wear,thermal_wear,projected_lifetime_s"


class CheckError(Exception):
    pass


def _equal(what: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _close(what: str, got: float, want: float, rel: float) -> None:
    if not abs(got - want) <= rel * abs(want):
        raise CheckError(f"{what}: got {got!r}, expected {want!r} within {rel:g} relative")


def _lifetime(value) -> float:
    return math.inf if value == "unbounded" else value


def check_run(doc: dict, rep, trace_rows: list[list[float]] | None = None) -> None:
    """Check one simulated run (a SimReport) of ``doc`` against the oracle."""
    tasks = sorted(doc["tasks"], key=lambda t: t["arrival_s"])
    out = rep.per_task
    _equal("task order", [o.id for o in out], [t["id"] for t in tasks])

    finish = -math.inf
    for t, o in zip(tasks, out):
        if o.start < t["arrival_s"]:
            raise CheckError(f"task {o.id} starts at {o.start!r} before its arrival {t['arrival_s']!r}")
        if o.start < finish:
            raise CheckError(f"task {o.id} starts at {o.start!r} while the previous task runs to {finish!r}")
        finish = o.finish
        _equal(f"task {o.id} deadline_met", o.deadline_met, o.finish <= t["deadline_s"])
        level, infeasible = oracle.governor_choice(doc, t["cycles"], t["deadline_s"], o.start)
        _equal(f"task {o.id} (level, infeasible)", (o.level_index, o.infeasible), (level, infeasible))

    freqs = [f for f, _ in oracle.levels(doc)]
    stepped = doc["policy"]["kind"] == "stepped"
    freq, when = freqs[0], 0.0
    for e in rep.transition_log:
        _equal(f"hop at {e.time!r} starts from the current clock", e.from_hz, freq)
        if e.to_hz not in freqs or e.time < when:
            raise CheckError(f"hop at {e.time!r} to {e.to_hz!r} Hz is off the ladder or out of order")
        if stepped and abs(freqs.index(e.to_hz) - freqs.index(e.from_hz)) != 1:
            raise CheckError(f"stepped hop at {e.time!r} skips ladder levels")
        _equal(f"hop at {e.time!r} delta_f", e.delta_f, abs(e.to_hz - e.from_hz))
        _close(f"hop at {e.time!r} shock", e.wear, oracle.shock(doc, e.delta_f), 1e-12)
        freq, when = e.to_hz, e.time
    log = rep.transition_log
    _equal("transition count", rep.transition_count, len(log))
    _close("total delta_f", rep.total_delta_f_hz, math.fsum(e.delta_f for e in log), 1e-12)
    _close("shock wear", rep.ledger.shock_wear, math.fsum(oracle.shock(doc, e.delta_f) for e in log), 1e-12)

    duration = doc["sim"]["duration_s"]
    end = rep.ledger.elapsed
    _close("elapsed", end, duration, 1e-12)
    _close("active_s + idle_s", rep.active_s + rep.idle_s, duration, 1e-12)

    profile = oracle.rebuild_profile(
        doc, [(o.start, o.finish) for o in out], [(e.time, e.from_hz, e.to_hz) for e in log], end
    )
    active = [iv for iv in profile if iv.active]
    _close("active_j", rep.energy.active_j, math.fsum(iv.power * (iv.t1 - iv.t0) for iv in active), 1e-9)
    idle_j = math.fsum(iv.power * (iv.t1 - iv.t0) for iv in profile if not iv.active)
    _close("idle_j", rep.energy.idle_j, idle_j, 1e-9)
    _close("active_s", rep.active_s, math.fsum(iv.t1 - iv.t0 for iv in active), 1e-9)
    work: dict[int, list[float]] = {}
    for iv in active:
        work.setdefault(iv.task, []).append(iv.freq * (iv.t1 - iv.t0))
    for i, t in enumerate(tasks):
        _close(f"task {t['id']} cycles executed", math.fsum(work.get(i, [])), t["cycles"], 1e-9)

    th = oracle.integrate(doc, profile)
    _close("thermal wear", rep.ledger.thermal_wear, th.wear, 1e-6)
    _close("peak temperature", rep.peak_temp, th.peak, 1e-12)
    _close("average temperature", rep.avg_temp, th.temp_integral / end, 1e-9)
    total = rep.ledger.thermal_wear + rep.ledger.shock_wear
    _close("projected lifetime", rep.projected_lifetime, end / total, 1e-12)
    rate = doc["sim"]["cost_rate_usd_per_mwh"]
    _close("cost", rep.cost_usd, rep.energy.total_j / end / 1e6 * (end / 3600.0) * rate, 1e-12)

    if trace_rows is not None:
        _check_trace(doc, rep, profile, th, trace_rows)


def _check_trace(doc, rep, profile, th, rows) -> None:
    dt = doc["sim"]["trace_dt_s"]
    want = math.floor(Fraction(repr(rep.ledger.elapsed)) / Fraction(repr(dt))) + 1
    _equal("trace rows", len(rows), want)
    starts = [iv.t0 for iv in profile]
    prev = 0.0
    for k, (time, freq, power, temp, wear) in enumerate(rows):
        _equal(f"trace row {k} time", time, k * dt)
        j = bisect.bisect_right(starts, time) - 1
        iv = profile[j]
        _equal(f"trace clock at {time!r}", freq, iv.freq)
        _close(f"trace power at {time!r}", power, iv.power, 1e-12)
        _close(f"trace temperature at {time!r}", temp, oracle.temp_at(doc, iv, th.start_temps[j], time), 1e-9)
        if temp > rep.peak_temp:
            raise CheckError(f"trace temperature {temp!r} at {time!r} exceeds the reported peak {rep.peak_temp!r}")
        if wear < prev:
            raise CheckError(f"cumulative wear falls at {time!r}")
        prev = wear
    _close("final trace cum_wear", rows[-1][4], rep.ledger.thermal_wear + rep.ledger.shock_wear, 1e-9)


def _read_trace(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _equal("trace header", lines[0], TRACE_HEADER)
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _check_report_file(path: Path, rep) -> None:
    """The written report.json carries exactly the API run's numbers."""
    d = json.loads(path.read_text(encoding="utf-8"))
    pairs = [
        ("energy.active_j", d["energy"]["active_j"], rep.energy.active_j),
        ("energy.idle_j", d["energy"]["idle_j"], rep.energy.idle_j),
        ("energy.total_j", d["energy"]["total_j"], rep.energy.total_j),
        ("cost_usd", d["cost_usd"], rep.cost_usd),
        ("transitions.count", d["transitions"]["count"], rep.transition_count),
        ("transitions.total_delta_f_hz", d["transitions"]["total_delta_f_hz"], rep.total_delta_f_hz),
        ("time.active_s", d["time"]["active_s"], rep.active_s),
        ("time.idle_s", d["time"]["idle_s"], rep.idle_s),
        ("temperature.peak_c", d["temperature"]["peak_c"], rep.peak_temp),
        ("temperature.average_c", d["temperature"]["average_c"], rep.avg_temp),
        ("wear.thermal", d["wear"]["thermal"], rep.ledger.thermal_wear),
        ("wear.shock", d["wear"]["shock"], rep.ledger.shock_wear),
        ("wear.elapsed_s", d["wear"]["elapsed_s"], rep.ledger.elapsed),
        ("projected_lifetime_s", _lifetime(d["projected_lifetime_s"]), rep.projected_lifetime),
        (
            "tasks",
            [(t["id"], t["level_index"], t["start_s"], t["finish_s"], t["deadline_met"], t["infeasible"]) for t in d["tasks"]],
            [(o.id, o.level_index, o.start, o.finish, o.deadline_met, o.infeasible) for o in rep.per_task],
        ),
    ]
    for what, got, want in pairs:
        _equal(f"report.json {what}", got, want)


def _check_simulate_stdout(text: str, rep) -> None:
    fields = dict(line.split(" = ", 1) for line in text.splitlines())
    fields = {k.strip(): v for k, v in fields.items()}
    life = rep.projected_lifetime
    want = {
        "energy_total_j": format(rep.energy.total_j, ".9g"),
        "deadline_misses": f"{sum(not o.deadline_met for o in rep.per_task)}/{len(rep.per_task)}",
        "transitions": str(rep.transition_count),
        "wear_total": format(rep.ledger.thermal_wear + rep.ledger.shock_wear, ".9g"),
        "projected_lifetime_s": "unbounded" if math.isinf(life) else format(life, ".9g"),
    }
    for key, value in want.items():
        _equal(f"simulate prints {key}", fields.get(key), value)


def _parse_policy(label: str) -> tuple[str, float]:
    kind, _, dwell = label.partition(":")
    return kind, float(dwell) if dwell else 0.0


class Session:
    """Checks one pass's outputs; caches the API run of each scenario."""

    def __init__(self, dv):
        self.dv = dv
        self._runs: dict[str, tuple] = {}

    def _api(self, scenario):
        report, _ = self.dv.simulate(scenario)
        return report

    def _base(self, path: str):
        if path not in self._runs:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            scenario = self.dv.load_scenario(path)
            self._runs[path] = (doc, scenario, self._api(scenario))
        return self._runs[path]

    def check(self, op: dict, stdout: str, files: Path) -> None:
        """Check one operation; ``files`` holds the outputs the pass wrote."""
        doc, scenario, rep = self._base(op["scenario"])
        out = {key: files / Path(p).name for key, p in op["outputs"].items()}
        verb = op["verb"]
        if verb == "validate":
            levels, tasks = len(doc["processor"]["levels"]), len(doc["tasks"])
            _equal("validate output", stdout, f"{op['scenario']}: OK ({levels} levels, {tasks} tasks)\n")
        elif verb == "simulate":
            _check_simulate_stdout(stdout, rep)
            _check_report_file(out["report"], rep)
            check_run(doc, rep, _read_trace(out["trace"]) if "trace" in out else None)
        elif verb == "compare":
            self._check_compare(op, doc, scenario, json.loads(out["report"].read_text(encoding="utf-8")))
        elif verb == "sweep":
            _check_sweep(op, doc, rep, out["out"].read_text(encoding="utf-8"))
        else:
            raise CheckError(f"no check for verb {verb!r}")

    def _check_compare(self, op, doc, scenario, cmp) -> None:
        labels = op["policies"]
        rows = cmp["policies"]
        _equal("compare policies", [r["label"] for r in rows], labels)
        _equal("compare baseline", cmp["baseline"], labels[0])
        reps = {}
        for label, row in zip(labels, rows):
            kind, dwell = _parse_policy(label)
            rep = self._api(replace(scenario, policy=self.dv.TransitionPolicy(kind, dwell)))
            reps[label] = rep
            got = (row["energy_total_j"], row["thermal_wear"], row["shock_wear"], row["deadline_misses"])
            misses = sum(not o.deadline_met for o in rep.per_task)
            _equal(f"compare {label}", got, (rep.energy.total_j, rep.ledger.thermal_wear, rep.ledger.shock_wear, misses))
            _equal(f"compare {label} lifetime", _lifetime(row["projected_lifetime_s"]), rep.projected_lifetime)
            check_run(dict(doc, policy={"kind": kind, "dwell_s": dwell}), rep)
        base = reps[labels[0]]
        base_missed = {o.id for o in base.per_task if not o.deadline_met}
        for label, row in zip(labels, rows):
            rep = reps[label]
            missed = {o.id for o in rep.per_task if not o.deadline_met}
            _equal(f"compare {label} delta_energy_j", row["delta_energy_j"], rep.energy.total_j - base.energy.total_j)
            _equal(f"compare {label} newly_missed", row["newly_missed"], sorted(missed - base_missed))
            _equal(f"compare {label} newly_met", row["newly_met"], sorted(base_missed - missed))
        # The paper's claims: a stepped walk with no dwell costs the same energy
        # as a direct jump and, for a super-linear shock, strictly less wear.
        if "direct" in reps and "stepped" in reps:
            direct, stepped = reps["direct"], reps["stepped"]
            alpha = doc["wear"]["alpha"]
            _close("stepped energy = direct energy", stepped.energy.total_j, direct.energy.total_j, 1e-12)
            if alpha > 1 and not stepped.ledger.shock_wear < direct.ledger.shock_wear:
                raise CheckError(f"stepped shock wear is not below direct at alpha = {alpha}")
            if Path(op["scenario"]).name == "step_demo.json":
                # One full-span burst: five equal hops each way cost 5 * (1/5)^alpha,
                # which is 1/5 of the direct jumps at the shipped alpha = 2.
                want = direct.ledger.shock_wear * 5 ** (1 - alpha)
                _close("step_demo stepped shock", stepped.ledger.shock_wear, want, 1e-12)


def _check_sweep(op, doc, rep, text: str) -> None:
    lines = text.splitlines()
    _equal("sweep header", lines[0], SWEEP_HEADER)
    rows = [line.split(",") for line in lines[1:]]
    _equal("sweep rows", len(rows), len(op["values"]))
    duration = doc["sim"]["duration_s"]
    for value, row in zip(op["values"], rows):
        v, energy, shock, thermal, life = (float(x) if x != "unbounded" else math.inf for x in row)
        _equal("sweep value", v, value)
        _equal(f"sweep alpha={value} energy", energy, rep.energy.total_j)
        _equal(f"sweep alpha={value} thermal wear", thermal, rep.ledger.thermal_wear)
        want = math.fsum(oracle.shock(doc, e.delta_f, alpha=value) for e in rep.transition_log)
        _close(f"sweep alpha={value} shock wear", shock, want, 1e-12)
        _close(f"sweep alpha={value} lifetime", life, duration / (thermal + shock), 1e-12)
