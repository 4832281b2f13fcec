import json
import math
import os
import pty
import resource
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from dvfsim import TransitionPolicy, cli, engine, load_scenario, simulate, thermal
from dvfsim.reporting import TRACE_HEADER
from helpers import SCENARIO_DIR, TRACE_ROW, call_cli, load_json, run_cli, source_env
from pinned import REFERENCE, VARIANTS, variant_document
from strategies import workloads

TURION = str(SCENARIO_DIR / "turion6.json")
STEP_DEMO = str(SCENARIO_DIR / "step_demo.json")
E1 = "turion6_e1"  # the pinned copy of turion6.json on a hotter, faster part, whose wear takes the E1 route


def scenario_path(name, tmp_path):
    """The path of the shipped scenario ``name``, or of the pinned variant ``name`` written under ``tmp_path``."""
    if name not in VARIANTS:
        return str(SCENARIO_DIR / f"{name}.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(variant_document(name)))
    return str(path)


def table_rows(stdout):
    rows = {}
    for line in stdout.splitlines()[1:]:
        cells = line.split()
        if len(cells) >= 6 and (cells[0] in ("direct", "stepped") or cells[0].startswith("stepped:")):
            rows[cells[0]] = cells
    return rows


class TestValidate:
    def test_invalid_scenario_exits_2_and_lists_violations(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["processor"]["levels"].reverse()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = call_cli("validate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "not strictly increasing" in result.stderr

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        result = call_cli("validate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "line" in result.stderr

    def test_task_numbers_may_be_json_integers_but_not_bools(self, tmp_path):
        doc = load_json(TURION)
        doc["tasks"] = [{k: v if k == "id" else math.ceil(v) for k, v in t.items()} for t in doc["tasks"]]
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc))
        assert call_cli("validate", "--scenario", str(path)).returncode == 0
        doc["tasks"][0]["cycles"] = True
        path.write_text(json.dumps(doc))
        result = call_cli("validate", "--scenario", str(path))
        assert result == (2, "", "invalid scenario (schema): tasks[0].cycles: expected a number\n")


class TestSimulate:
    @pytest.mark.parametrize(
        "name, rows, end",
        [("turion6", 1202, "120.0"), ("step_demo", 302, "30.0"), (E1, 1202, "120.0")],
        ids=["turion6", "step_demo", E1],
    )
    def test_every_verb_runs_and_a_trace_changes_no_other_output(self, tmp_path, monkeypatch, name, rows, end):
        e1_calls = []
        scaled_e1 = thermal._scaled_e1
        monkeypatch.setattr(thermal, "_scaled_e1", lambda *args: e1_calls.append(args) or scaled_e1(*args))
        scenario = scenario_path(name, tmp_path)
        for argv in (
            ["validate"],
            ["simulate"],
            ["compare", "--policies", "direct,stepped"],
            ["sweep", "--param", "wear.alpha", "--values", "1,2"],
            ["sweep", "--param", "wear.alpha", "--values", "1,2", "--policies", "direct,stepped"],
        ):
            assert call_cli(argv[0], "--scenario", scenario, *argv[1:]).returncode == 0
        untraced, traced, trace = (tmp_path / file for file in ("untraced.json", "traced.json", "trace.csv"))
        summary = call_cli("simulate", "--scenario", scenario, "--report", str(untraced))
        assert summary.returncode == 0
        assert call_cli("simulate", "--scenario", scenario, "--report", str(traced), "--trace", str(trace)) == summary
        assert traced.read_bytes() == untraced.read_bytes()
        lines = trace.read_text().splitlines()
        assert (lines[0], len(lines), lines[-1].split(",")[0]) == (TRACE_HEADER, rows, end)
        assert bool(e1_calls) == (name == E1)  # neither shipped scenario takes the E1 route

    @pytest.mark.parametrize("scenario", [TURION, "missing.json"], ids=["shipped", "missing"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_one_file_for_report_and_trace_is_a_usage_error(self, tmp_path, monkeypatch, scenario, existing):
        monkeypatch.chdir(tmp_path)  # refused before the scenario file is read, and the file is left as it was
        target = tmp_path / "x.json"
        if existing:
            target.write_text("kept")
        result = call_cli("simulate", "--scenario", scenario, "--report", "x.json", "--trace", "./x.json")
        assert result == (64, "", "usage error: --report and --trace both name 'x.json'\n")
        if existing:
            assert target.read_text() == "kept"
        else:
            assert not target.exists()

    @pytest.mark.parametrize("scenario", [TURION, "missing.json"], ids=["shipped", "missing"])
    def test_a_hard_link_for_report_and_trace_is_a_usage_error(self, tmp_path, monkeypatch, scenario):
        monkeypatch.chdir(tmp_path)  # two names, one file: the paths differ even once resolved
        target = tmp_path / "a.json"
        target.write_text("kept")
        os.link(target, tmp_path / "b.json")
        result = call_cli("simulate", "--scenario", scenario, "--report", "a.json", "--trace", "b.json")
        assert result == (64, "", "usage error: --report and --trace both name 'a.json'\n")
        assert target.read_text() == "kept"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs the /dev/null device")
    def test_a_device_may_take_both_report_and_trace(self):
        result = call_cli("simulate", "--scenario", TURION, "--report", "/dev/null", "--trace", "/dev/null")
        assert result.returncode == 0

    def test_invalid_scenario_exits_2(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["sim"]["duration_s"] = 1.0  # shorter than the deadlines
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        result = call_cli("simulate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "sim.duration" in result.stderr


class TestNonFiniteInput:
    """NaN, Infinity, out-of-range numbers and an overflowing active power exit 2, an overflowing wear rate exits 1:
    one line each."""

    def write_with_cycles(self, tmp_path, literal):
        doc = json.loads(open(TURION).read())
        doc["tasks"][0]["cycles"] = "CYCLES"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc).replace('"CYCLES"', literal))
        return str(path)

    def assert_one_line(self, result, code, text):
        assert result.returncode == code
        assert len(result.stderr.strip().splitlines()) == 1
        assert text in result.stderr

    def test_nan_and_infinity_are_parse_errors(self, tmp_path):
        for literal in ("NaN", "Infinity", "-Infinity"):
            result = call_cli("validate", "--scenario", self.write_with_cycles(tmp_path, literal))
            self.assert_one_line(result, 2, f"invalid scenario (parse): {tmp_path}")
            assert f"non-finite number {literal} is not allowed" in result.stderr

    def test_literals_beyond_the_float_range_are_schema_errors(self, tmp_path):
        for literal in ("1e400", "-1e400", "1" + "0" * 400):
            result = call_cli("validate", "--scenario", self.write_with_cycles(tmp_path, literal))
            self.assert_one_line(result, 2, "invalid scenario (schema): tasks[0].cycles: expected a finite number")

    def test_sweep_reads_documents_the_same_way(self, tmp_path):
        path = self.write_with_cycles(tmp_path, "NaN")
        result = call_cli("sweep", "--scenario", path, "--param", "wear.alpha", "--values", "1,2")
        self.assert_one_line(result, 2, "non-finite number NaN is not allowed")

    @pytest.mark.parametrize("verb", ["validate", "sweep"])
    @pytest.mark.parametrize(
        "content, text",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf-8", "nested-too-deep"],
    )
    def test_unreadable_text_is_a_parse_error(self, tmp_path, verb, content, text):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        args = ("--param", "wear.alpha", "--values", "1,2") if verb == "sweep" else ()
        result = call_cli(verb, "--scenario", str(path), *args)
        self.assert_one_line(result, 2, f"invalid scenario (parse): {path}: ")
        assert text in result.stderr

    def test_an_overflowing_active_power_is_a_validation_error(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["processor"]["levels"][-1]["vdd_v"] = 1e200  # a finite voltage whose square overflows
        path = tmp_path / "vdd.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "simulate"):
            result = call_cli(verb, "--scenario", str(path))
            assert (result.returncode, result.stdout, result.stderr) == (
                2, "", "invalid scenario (validation): levels: active power overflows a float\n")

    @pytest.mark.parametrize(
        "section, key, value, line",
        [
            ("processor", "coeff_a", 7.5e298, "levels: active power overflows a float"),  # the top level's is inf
            ("thermal", "r_th_k_per_w", 1e308, "thermal.r_th: steady state t_amb + P * r_th overflows a float"),
        ],
        ids=["active-power", "steady-state"],
    )
    def test_a_power_or_steady_state_that_rounds_to_inf_is_a_validation_error(self, tmp_path, section, key, value,
                                                                               line):
        doc = json.loads(open(TURION).read())
        doc[section][key] = value
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "simulate"):
            result = call_cli(verb, "--scenario", str(path))
            want = (2, "", f"invalid scenario (validation): {line}\n")
            assert (result.returncode, result.stdout, result.stderr) == want

    def test_overflowing_model_values_exit_1(self, tmp_path):
        hot = json.loads(open(TURION).read())
        hot["thermal"]["r_th_k_per_w"] = 5000.0  # the first task heats toward 65,000 degC ...
        hot["thermal"]["c_th_j_per_k"] = 1e-4  # ... within a millisecond, and 2^6500 overflows
        jolt = json.loads(open(TURION).read())
        jolt["wear"].update(f_span_hz=1.0, alpha=100.0)  # (1e9 Hz / 1 Hz)^100 overflows
        cases = (("hot", hot, "error: thermal wear from "),
                 ("jolt", jolt, "error: the shock wear of a 1e+09 Hz hop overflows a float\n"))
        for name, doc, text in cases:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.assert_one_line(call_cli("simulate", "--scenario", str(path)), 1, text)


class TestNonFiniteReport:
    """A valid scenario whose report would carry Infinity exits 1 in one line and writes no report or trace."""

    @pytest.mark.parametrize(
        "changes, name",
        [
            ({"processor": {"coeff_a": 1e297}, "thermal": {"r_th_k_per_w": 1e-306},
              "sim": {"cost_rate_usd_per_mwh": 1e20}}, "cost_usd"),
            ({"thermal": {"r_th_k_per_w": 1e299, "c_th_j_per_k": 1.0}}, "avg_temp_c"),
            ({"wear": {"k_shock": 1e300, "f_span_hz": 1.0}}, "wear_total"),
            ({"processor": {"levels": [{"freq_hz": 1e307, "vdd_v": 0.9}, {"freq_hz": 1.79e308, "vdd_v": 1.2}],
                            "coeff_a": 0.0}, "governor": {"kind": "fixed", "fixed_index": 1}}, "total_delta_f_hz"),
        ],
        ids=["cost", "average-temperature", "shock-wear", "frequency-span"],
    )
    def test_a_non_finite_report_value_exits_1(self, tmp_path, changes, name):
        doc = json.loads(open(STEP_DEMO).read())
        for section, values in changes.items():
            doc[section].update(values)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert call_cli("validate", "--scenario", str(path)).returncode == 0
        report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
        result = call_cli("simulate", "--scenario", str(path), "--report", str(report), "--trace", str(trace))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [result.stderr.strip()]
        assert result.stderr.startswith(f"error: {name} is ")
        assert not report.exists()
        assert not trace.exists()  # the streamed trace was complete, but the run failed: it is removed


class TestTraceCap:
    """A trace of more than 10**6 points is refused: exit 2 in validation, exit 1 for a run that overruns."""

    VERB_ARGS = {
        "validate": (),
        "simulate": (),
        "compare": ("--policies", "direct,stepped"),
        "sweep": ("--param", "wear.alpha", "--values", "1,2"),
    }

    @pytest.mark.parametrize("trace_dt", [1e-7, 1e-320])
    @pytest.mark.parametrize("verb", sorted(VERB_ARGS))
    def test_too_fine_a_trace_is_invalid(self, tmp_path, verb, trace_dt):
        doc = json.loads(open(TURION).read())
        doc["sim"]["trace_dt_s"] = trace_dt
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        result = call_cli(verb, "--scenario", str(path), *self.VERB_ARGS[verb])
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            "invalid scenario (validation): sim.trace_dt: gives more than 1000000 trace points over sim.duration"
        ]

    def test_a_run_past_the_cap_exits_1(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["tasks"] = [
            {"id": "small", "cycles": 1e9, "arrival_s": 0.0, "deadline_s": 2.0},
            {"id": "big", "cycles": 1.8e16, "arrival_s": 3.0, "deadline_s": 5.0},
        ]
        doc["sim"].update(duration_s=10.0, trace_dt_s=1.0)
        path = tmp_path / "overrun.json"
        path.write_text(json.dumps(doc))
        assert call_cli("validate", "--scenario", str(path)).returncode == 0
        trace = tmp_path / "trace.csv"
        for args in ((), ("--trace", str(trace))):
            result = call_cli("simulate", "--scenario", str(path), *args)
            assert result.returncode == 1
            assert len(result.stderr.strip().splitlines()) == 1
            assert "trace points" in result.stderr
        assert not trace.exists()  # the rows up to the big task's start were written, and then removed


class TestCompare:
    def test_comparison_report_file(self, tmp_path):
        out = tmp_path / "cmp.json"
        result = call_cli(
            "compare", "--scenario", TURION, "--policies", "direct,stepped:0.5", "--report", str(out)
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["baseline"] == "direct"
        assert [p["label"] for p in doc["policies"]] == ["direct", "stepped:0.5"]
        assert doc["policies"][1]["newly_missed"]
        assert "newly missed deadlines" in result.stdout

    def test_a_terminal_gets_the_same_plain_text(self):
        env = source_env()
        env.pop("NO_COLOR", None)
        master, slave = pty.openpty()
        args = ("compare", "--scenario", TURION, "--policies", "direct,stepped")
        proc = run_cli(*args, capture_output=False, stdout=slave, stderr=subprocess.PIPE, env=env)
        os.close(slave)
        out = b""
        try:
            while chunk := os.read(master, 4096):
                out += chunk
        except OSError:  # EIO: the terminal is drained and its other end closed
            pass
        finally:
            os.close(master)
        assert proc.returncode == 0, proc.stderr
        assert out.startswith(b"policy")
        assert b"\x1b[" not in out

    def test_single_policy_is_a_usage_error(self):
        assert call_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct").returncode == 64

    def test_dwell_on_direct_is_a_usage_error(self):
        result = call_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct:0.5,stepped")
        assert result.returncode == 64

    @pytest.mark.parametrize("dwell", ["nan", "inf", "1e400"])
    def test_a_non_finite_dwell_is_a_usage_error(self, tmp_path, dwell):
        for scenario in (STEP_DEMO, str(tmp_path / "missing.json")):  # refused before the file is read
            result = call_cli("compare", "--scenario", scenario, "--policies", f"direct,stepped:{dwell}")
            assert result == (64, "", f"usage error: dwell '{dwell}' in --policies must be finite and >= 0\n")

    @given(st.floats(min_value=0.0, allow_infinity=False))
    def test_a_label_reads_back_as_its_policy(self, dwell):
        policy = TransitionPolicy("stepped", dwell)
        assert cli._parse_policies(f"direct,{engine.policy_label(policy)}")[1] == policy

    def test_dwells_that_print_alike_get_distinct_labels(self, tmp_path):
        out = tmp_path / "cmp.json"
        result = call_cli("compare", "--scenario", TURION, "--policies", "stepped:0.1234567,stepped:0.1234568",
                          "--report", str(out))
        assert result.returncode == 0, result.stderr
        labels = ["stepped:0.1234567", "stepped:0.1234568"]
        assert list(table_rows(result.stdout)) == labels
        assert [p["label"] for p in load_json(out)["policies"]] == labels


class TestSweep:
    def test_alpha_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = call_cli(
            "sweep", "--scenario", STEP_DEMO, "--param", "wear.alpha", "--values", "1,2", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "value,energy_j,shock_wear,thermal_wear,projected_lifetime_s"
        assert len(lines) == 3

    def test_linear_alpha_equalizes_policies(self):
        # run the same sweep under each transition policy; alpha=1 rows must agree
        result = call_cli(
            "sweep", "--scenario", STEP_DEMO, "--param", "wear.alpha", "--values", "1,2", "--policies", "direct,stepped"
        )
        assert result.returncode == 0, result.stderr
        shocks = {"direct": {}, "stepped": {}}
        for row in result.stdout.splitlines()[1:]:
            value, policy, _, shock, *_ = row.split(",")
            shocks[policy][float(value)] = float(shock)
        assert math.isclose(shocks["direct"][1.0], shocks["stepped"][1.0], rel_tol=1e-12)
        assert shocks["stepped"][2.0] < shocks["direct"][2.0]

    @st.composite
    @staticmethod
    def wear_sweeps(draw):
        """(document, --param, values, --policies args) of a sweep of hundreds of turion6 tasks over a wear.* key,
        or over thermal.t_ref_c, which every value runs in full. The first value always runs in full, so it is
        drawn where no hop's shock overflows; of the later ones, some fail validation, and some overflow a hop's
        shock, the wear total or the thermal wear."""
        doc = load_json(TURION)
        tasks = draw(workloads(load_scenario(TURION).spec, max_tasks=300))
        doc["tasks"] = [{"id": t.id, "cycles": t.cycles, "arrival_s": t.arrival, "deadline_s": t.deadline} for t in tasks]
        horizon = max(t.deadline for t in tasks)
        doc["sim"].update(duration_s=horizon, trace_dt_s=horizon)
        doc["policy"] = draw(st.sampled_from([{"kind": "direct"}, {"kind": "stepped", "dwell_s": 0.05}]))
        # f_span_hz at most turion6's smallest jump, so that alpha 1e4 overflows the shock of any hop
        doc["wear"] = {"k_shock": draw(st.floats(0.0, 1e3)), "alpha": draw(st.floats(1.0, 30.0)),
                       "f_span_hz": draw(st.floats(1e2, 2e8))}
        param, first, later, edges = draw(st.sampled_from([  # the first edge of each wear key fails validation
            ("wear.k_shock", st.floats(0.0, 1e3), st.floats(0.0, 1e305), (-1.0, 1e308)),
            ("wear.alpha", st.floats(1.0, 10.0), st.floats(1.0, 80.0), (0.5, 1e4)),
            ("wear.f_span_hz", st.floats(1e2, 1e10), st.floats(1e-3, 1e10), (0.0, 1e-200)),
            ("thermal.t_ref_c", st.floats(0.0, 100.0), st.floats(-50.0, 150.0), (-1e4,)),
        ]))
        values = [draw(first), *draw(st.lists(later | st.sampled_from(edges), max_size=3))]
        policies = draw(st.sampled_from([(), ("--policies", "direct,stepped:0.05")]))
        return doc, param, values, policies

    @given(wear_sweeps())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_sweep_prints_what_one_run_per_value_prints(self, tmp_path, sweep):
        doc, param, values, policies = sweep
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        args = ("sweep", "--scenario", str(path), "--param", param, *policies)
        header, rows = None, []
        for value in values:  # a sweep of one value runs in full
            code, stdout, stderr = call_cli(*args, f"--values={value!r}")
            if code:
                break
            header, *value_rows = stdout.splitlines(keepends=True)
            rows += value_rows
        stdout = header + "".join(rows) if not code else ""
        text = f"--values={','.join(map(repr, values))}"
        assert call_cli(*args, text) == (code, stdout, stderr)
        out = tmp_path / "sweep.csv"
        out.unlink(missing_ok=True)
        assert call_cli(*args, text, "--out", str(out)) == (code, "", stderr)
        assert (out.read_text() if out.exists() else "") == stdout

    @pytest.mark.parametrize("param, runs", [("wear.alpha", 2), ("wear.k_shock", 2), ("thermal.t_ref_c", 6)])
    def test_only_a_wear_sweep_runs_each_policy_once(self, monkeypatch, param, runs):
        calls = []
        monkeypatch.setattr(engine, "_run", lambda *args, run=engine._run: calls.append(args) or run(*args))
        result = call_cli("sweep", "--scenario", TURION, "--param", param, "--values", "1,2,3", "--policies",
                          "direct,stepped")
        assert result.returncode == 0, result.stderr
        assert len(calls) == runs

    def test_unknown_parameter_exits_2(self):
        result = call_cli("sweep", "--scenario", STEP_DEMO, "--param", "wear.bogus", "--values", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("governor.fixed_index", "1.5", "sweep parameter 'governor.fixed_index' needs integer values"),
            ("tasks.id", "1", "sweep parameter 'tasks.id' is not a scenario key"),
            ("scenario.processor", "1", "sweep parameter 'scenario.processor' is not a scenario key"),
        ],
    )
    def test_sweep_key_rules_exit_2_in_one_line(self, param, values, message):
        result = call_cli("sweep", "--scenario", TURION, "--param", param, "--values", values)
        assert result == (2, "", f"invalid scenario (schema): {message}\n")

    @pytest.mark.parametrize(
        "param, kind",
        [("sim.dwell_stalls", "boolean"), ("governor.kind", "string"), ("policy.kind", "string"), ("processor.levels", "array")],
    )
    def test_a_non_number_key_exits_64_before_reading(self, tmp_path, param, kind):
        for scenario in (TURION, str(tmp_path / "missing.json")):
            result = call_cli("sweep", "--scenario", scenario, "--param", param, "--values", "1")
            assert result == (64, "", f"usage error: --param {param} holds a JSON {kind}, not a number\n")

    def test_integer_values_sweep_the_fixed_index(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["governor"] = {"kind": "fixed", "fixed_index": 5}
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(doc))
        result = call_cli("sweep", "--scenario", str(path), "--param", "governor.fixed_index", "--values", "0,1")
        assert result.returncode == 0, result.stderr
        assert [row.split(",")[0] for row in result.stdout.splitlines()[1:]] == ["0.0", "1.0"]

    def test_a_section_that_is_not_an_object_exits_2(self, tmp_path):
        doc = json.loads(open(STEP_DEMO).read())
        doc["sim"] = 5
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        result = call_cli("sweep", "--scenario", str(path), "--param", "sim.duration_s", "--values", "60")
        assert result.returncode == 2
        assert result.stderr.strip() == "invalid scenario (schema): sim: expected an object"


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", "--trace"),
            ("simulate", "--report"),
            ("sweep", "--param", "wear.alpha", "--values", "1", "--out"),
        ],
        ids=["simulate-trace", "simulate-report", "sweep-out"],
    )
    def test_unwritable_out_is_a_one_line_runtime_error(self, tmp_path, args):
        out = tmp_path / "missing-dir" / "out"
        result = call_cli(args[0], "--scenario", STEP_DEMO, *args[1:], str(out))
        assert result.returncode == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")

    def test_an_unwritable_trace_fails_before_the_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda *args: runs.append(args))
        report, trace = tmp_path / "report.json", tmp_path / "missing-dir" / "trace.csv"
        result = call_cli("simulate", "--scenario", STEP_DEMO, "--report", str(report), "--trace", str(trace))
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot write {trace}: ")
        assert runs == []
        assert not report.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_a_failed_row_write_on_a_device_leaves_the_device(self):
        result = call_cli("simulate", "--scenario", TURION, "--trace", "/dev/full")
        assert result.returncode == 1
        assert result.stderr.splitlines() == ["error: cannot write /dev/full: [Errno 28] No space left on device"]
        assert os.path.exists("/dev/full")

    def test_a_failed_row_write_removes_the_partial_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"

        def limit_file_size():  # the full trace is about 80 kB
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

        result = run_cli("simulate", "--scenario", TURION, "--trace", str(trace), preexec_fn=limit_file_size)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: cannot write {trace}: [Errno 27] File too large"]
        assert not trace.exists()


    def long_trace(self, tmp_path):
        """turion6.json sampled every 0.01 s: 12,001 rows, so the rows past TRACE_CHUNK are rendered by a child."""
        doc = json.loads(open(TURION).read())
        doc["sim"]["trace_dt_s"] = 0.01
        path = tmp_path / "long_trace.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_a_failed_row_write_past_the_switch_removes_the_partial_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"

        def limit_file_size():  # the first 4,096 rows are about 270 kB and the full trace about 790 kB
            resource.setrlimit(resource.RLIMIT_FSIZE, (500_000, 500_000))

        result = run_cli("simulate", "--scenario", self.long_trace(tmp_path), "--trace", str(trace),
                         preexec_fn=limit_file_size)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.splitlines() == [f"error: cannot write {trace}: [Errno 27] File too large"]
        assert not trace.exists()

    def test_a_trace_past_the_switch_prints_the_summary_once(self, tmp_path):
        scenario = self.long_trace(tmp_path)
        result = run_cli("simulate", "--scenario", scenario, "--trace", str(tmp_path / "trace.csv"))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == call_cli("simulate", "--scenario", scenario).stdout


class TestLazyTrace:
    """Only simulate --trace samples the trace, and it streams one row per point of the run's trace."""

    @pytest.fixture
    def samples(self, monkeypatch):
        calls = []
        sample = engine._Timeline.sample

        def counted(timeline, until):
            calls.append(until)
            return sample(timeline, until)

        monkeypatch.setattr(engine._Timeline, "sample", counted)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", TURION],
            ["compare", "--scenario", TURION, "--policies", "direct,stepped,stepped:0.05"],
            ["sweep", "--scenario", TURION, "--param", "wear.alpha", "--values", "1,2,3"],
        ],
        ids=["simulate", "compare", "sweep"],
    )
    def test_verbs_without_a_trace_sample_nothing(self, samples, argv):
        assert call_cli(*argv).returncode == 0
        assert samples == []

    @pytest.mark.parametrize("scenario", [TURION, STEP_DEMO], ids=["turion6", "step_demo"])
    def test_the_streamed_trace_has_the_pinned_bytes(self, samples, tmp_path, scenario):
        streamed = tmp_path / "streamed.csv"
        assert call_cli("simulate", "--scenario", scenario, "--trace", str(streamed)).returncode == 0
        assert samples
        assert streamed.read_bytes() == (REFERENCE / f"{Path(scenario).stem}.trace.csv").read_bytes()

    def test_a_trace_across_several_chunks_has_one_row_per_point(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["tasks"] = []  # one idle span of 3 * TRACE_CHUNK + 1 sampling intervals
        doc["sim"].update(duration_s=(3 * engine.TRACE_CHUNK + 1) * 0.5, trace_dt_s=0.5)
        scenario = tmp_path / "one_span.json"
        scenario.write_text(json.dumps(doc))
        streamed = tmp_path / "streamed.csv"
        assert call_cli("simulate", "--scenario", str(scenario), "--trace", str(streamed)).returncode == 0
        trace = simulate(load_scenario(scenario))[1]
        assert streamed.read_text() == TRACE_HEADER + "\n" + "".join(TRACE_ROW % point for point in trace)
        lines = streamed.read_text().splitlines()
        assert len(lines) == 3 * engine.TRACE_CHUNK + 3
        assert float(lines[-1].split(",")[0]) == doc["sim"]["duration_s"]


class TestOneValidationPerScenario:
    """A Scenario validates itself when it is built, and nothing validates it again."""

    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []
        validate = engine._validate_scenario

        def counted(scenario):
            seen.append(scenario)
            return validate(scenario)

        monkeypatch.setattr(engine, "_validate_scenario", counted)
        return seen

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["validate", "--scenario", TURION], 1),
            (["simulate", "--scenario", TURION], 1),
            (["sweep", "--scenario", TURION, "--param", "wear.alpha", "--values", "1,2,3"], 3),
            (["compare", "--scenario", TURION, "--policies", "direct,stepped,stepped:0.05"], 1),
            (
                ["sweep", "--scenario", TURION, "--param", "wear.alpha", "--values", "1,2,3"]
                + ["--policies", "direct,stepped"],
                3,
            ),
        ],
        ids=["validate", "simulate", "sweep", "compare", "sweep-policies"],
    )
    def test_each_verb_validates_once_per_scenario(self, validated, argv, calls):
        assert call_cli(*argv).returncode == 0
        assert len(validated) == calls


class TestUsage:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("--param", "wear.alpha", "--values", "1,,2"), "empty value in --values '1,,2'"),
            (
                ("--param", "policy.dwell_s", "--values", "0.1", "--policies", "direct,stepped"),
                "--policies sets the policy, so --param policy.dwell_s would have no effect",
            ),
            (("--param", "wear.alpha", "--values", ""), "--values is empty"),
            (("--param", "wear.alpha", "--values", "1,x"), "bad --values '1,x'"),
            (
                ("--param", "wear.alpha", "--values", "1", "--policies", "direct,bogus"),
                "unknown policy 'bogus' (expected direct or stepped[:dwell_s])",
            ),
        ],
        ids=["empty-value", "swept-policy-key", "no-values", "bad-value", "bad-policy"],
    )
    def test_sweep_usage_errors_exit_64_in_one_line(self, tmp_path, args, message):
        for scenario in (TURION, str(tmp_path / "missing.json")):  # refused before the file is read
            assert call_cli("sweep", "--scenario", scenario, *args) == (64, "", f"usage error: {message}\n")


class TestParser:
    """``main`` builds only the named subcommand's parser; help and usage errors read as they did with all
    four subcommands built. The expected texts are argparse's at 80 columns."""

    HELP = {
        "": """usage: dvfsim [-h] command ...

DVFS energy/temperature/wear co-simulator

positional arguments:
  command
    validate  check a scenario file, listing every violation
    simulate  run one scenario and optionally write report/trace
    compare   run the scenario under several transition policies
    sweep     re-run the scenario across values of one parameter

options:
  -h, --help  show this help message and exit
""",
        "validate": """usage: dvfsim validate [-h] --scenario SCENARIO

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO
""",
        "simulate": """usage: dvfsim simulate [-h] --scenario SCENARIO [--report REPORT]
                       [--trace TRACE]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO
  --report REPORT      write the run report (JSON) here
  --trace TRACE        write the sampled trace (CSV) here
""",
        "compare": """usage: dvfsim compare [-h] --scenario SCENARIO --policies POLICIES
                      [--report REPORT]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO
  --policies POLICIES  e.g. direct,stepped or direct,stepped:0.05
  --report REPORT      write the comparison (JSON) here
""",
        "sweep": """usage: dvfsim sweep [-h] --scenario SCENARIO --param PARAM --values VALUES
                    [--policies POLICIES] [--out OUT]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO
  --param PARAM        dotted scenario key, e.g. wear.alpha
  --values VALUES      comma-separated numbers
  --policies POLICIES  run each value under each policy, as compare does; adds
                       a policy column
  --out OUT            write the sweep CSV here instead of stdout
""",
    }
    CHOICES = "(choose from 'validate', 'simulate', 'compare', 'sweep')"

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal's width

    @pytest.mark.parametrize("verb", HELP, ids=lambda verb: verb or "top")
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_text(self, verb, flag):
        assert call_cli(*([verb, flag] if verb else [flag])) == (0, self.HELP[verb], "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "a subcommand is required"),
            (["bogus"], f"argument command: invalid choice: 'bogus' {CHOICES}"),
            (["sim", "--scenario", TURION], f"argument command: invalid choice: 'sim' {CHOICES}"),
            (["--bogus", "validate", "--scenario", TURION], "unrecognized arguments: --bogus"),
            (["validate", "--scenario", TURION, "--bogus"], "unrecognized arguments: --bogus"),
            (["simulate"], "the following arguments are required: --scenario"),
            (["sweep", "--scenario", TURION, "--param", "wear.alpha"], "the following arguments are required: --values"),
            (["simulate", "validate"], "the following arguments are required: --scenario"),
            (["validate", "--scenario"], "argument --scenario: expected one argument"),
            (["--scen", TURION], f"argument command: invalid choice: {TURION!r} {CHOICES}"),
            (
                ["sweep", "--scenario", TURION, "--p", "wear.alpha", "--values", "1"],
                "ambiguous option: --p could match --param, --policies",
            ),
            # an empty path is refused before the scenario file (here a missing one) is read
            (["validate", "--scenario", ""], "argument --scenario: empty path"),
            (["simulate", "--scenario", "missing.json", "--report", ""], "argument --report: empty path"),
            (["simulate", "--scenario", "missing.json", "--trace", ""], "argument --trace: empty path"),
            (
                ["compare", "--scenario", "missing.json", "--policies", "direct,stepped", "--report", ""],
                "argument --report: empty path",
            ),
            (
                ["sweep", "--scenario", "missing.json", "--param", "wear.alpha", "--values", "1", "--out", ""],
                "argument --out: empty path",
            ),
        ],
        ids=[
            "no-argument", "unknown-subcommand", "abbreviated-subcommand", "unknown-option-before",
            "unknown-option-after", "missing-required", "missing-second-required", "second-subcommand",
            "option-without-value", "abbreviated-option-first", "ambiguous-abbreviation",
            "empty-scenario", "empty-report", "empty-trace", "empty-compare-report", "empty-out",
        ],
    )
    def test_usage_errors(self, argv, message):
        assert call_cli(*argv) == (64, "", f"usage error: {message}\n")

    def test_an_abbreviated_option_is_taken(self):
        assert call_cli("validate", "--scen", TURION) == (0, f"{TURION}: OK (6 levels, 4 tasks)\n", "")

    def test_a_named_subcommand_gets_its_parser_alone(self, monkeypatch):
        built = []
        build = cli.build_parser

        def spy(commands):
            built.append(list(commands))
            return build(commands)

        monkeypatch.setattr(cli, "build_parser", spy)
        call_cli("validate", "--scenario", TURION)
        call_cli("bogus")
        assert built == [["validate"], ["validate", "simulate", "compare", "sweep"]]


class TestSweepPolicies:
    """``sweep --policies`` runs each value under each policy: the shock-exponent experiment."""

    ARGS = ("sweep", "--scenario", TURION, "--param", "wear.alpha", "--policies", "direct,stepped")

    def test_shock_exponent_sweep_runs_on_the_shipped_scenario(self):
        result = call_cli(*self.ARGS, "--values", "1,1.5,2,3")
        assert result.returncode == 0, result.stderr
        header, *lines = result.stdout.splitlines()
        assert header == "value,policy,energy_j,shock_wear,thermal_wear,projected_lifetime_s"
        rows = [line.split(",") for line in lines]
        assert [(row[0], row[1]) for row in rows] == [
            (value, policy) for value in ("1.0", "1.5", "2.0", "3.0") for policy in ("direct", "stepped")
        ]
        direct, stepped = rows[0::2], rows[1::2]
        # each column to the precision the table of the former shock-exponent script printed
        assert [format(float(row[3]), ".6g") for row in direct] == ["0.00048", "0.00043606", "0.0004", "0.0003456"]
        assert [format(float(row[3]), ".6g") for row in stepped] == ["0.00048", "0.000214663", "9.6e-05", "1.92e-05"]
        ratios = [float(s[5]) / float(d[5]) for d, s in zip(direct, stepped)]
        assert [format(r, ".4f") for r in ratios] == ["1.0000", "2.0265", "4.1336", "17.1474"]

    @pytest.mark.parametrize(
        "alphas, code, message",
        [
            ("1,x", 64, "usage error: bad --values '1,x'"),
            ("1,nan", 2, "invalid scenario (schema): wear.alpha: expected a finite number"),
            ("0.5", 2, "invalid scenario (validation): wear.alpha: must be finite and >= 1"),
        ],
        ids=["1,x", "1,nan", "0.5"],
    )
    def test_shock_exponent_sweep_rejects_bad_alphas_in_one_line(self, alphas, code, message):
        assert call_cli(*self.ARGS, "--values", alphas) == (code, "", message + "\n")
