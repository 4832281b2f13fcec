import json
import math
import os
import pty
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from dvfsim import cli, engine, load_scenario, simulate, thermal
from dvfsim.reporting import TRACE_HEADER
from helpers import SCENARIO_DIR, TRACE_ROW, load_json, run_cli, source_env
from pinned import REFERENCE, VARIANTS, variant_document

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
    def test_shipped_scenarios_are_valid(self):
        for path in (TURION, STEP_DEMO):
            result = run_cli("validate", "--scenario", path)
            assert result.returncode == 0, result.stderr
            assert "OK" in result.stdout

    def test_invalid_scenario_exits_2_and_lists_violations(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["processor"]["levels"].reverse()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run_cli("validate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "not strictly increasing" in result.stderr

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        result = run_cli("validate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "line" in result.stderr

    def test_task_numbers_may_be_json_integers_but_not_bools(self, tmp_path):
        doc = load_json(TURION)
        doc["tasks"] = [{k: v if k == "id" else math.ceil(v) for k, v in t.items()} for t in doc["tasks"]]
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(path)).returncode == 0
        doc["tasks"][0]["cycles"] = True
        path.write_text(json.dumps(doc))
        result = run_cli("validate", "--scenario", str(path))
        assert result.returncode == 2
        assert result.stderr == "invalid scenario (schema): tasks[0].cycles: expected a number\n"


class TestSimulate:
    def test_writes_report_and_trace(self, tmp_path):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        result = run_cli("simulate", "--scenario", TURION, "--report", str(report), "--trace", str(trace))
        assert result.returncode == 0, result.stderr
        assert "energy_total_j" in result.stdout
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert doc["transitions"]["count"] == 6
        first_line = trace.read_text().splitlines()[0]
        assert first_line == "time_s,freq_hz,power_w,temp_c,cum_wear"

    @pytest.mark.parametrize(
        "name, rows, end",
        [("turion6", 1202, "120.0"), ("step_demo", 302, "30.0"), (E1, 1202, "120.0")],
        ids=["turion6", "step_demo", E1],
    )
    def test_every_verb_runs_and_a_trace_changes_no_other_output(self, tmp_path, monkeypatch, capsys, name, rows, end):
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
            assert cli.main([argv[0], "--scenario", scenario, *argv[1:]]) == 0
        untraced, traced, trace = (tmp_path / file for file in ("untraced.json", "traced.json", "trace.csv"))
        capsys.readouterr()
        assert cli.main(["simulate", "--scenario", scenario, "--report", str(untraced)]) == 0
        summary = capsys.readouterr()
        assert cli.main(["simulate", "--scenario", scenario, "--report", str(traced), "--trace", str(trace)]) == 0
        assert capsys.readouterr() == summary
        assert traced.read_bytes() == untraced.read_bytes()
        lines = trace.read_text().splitlines()
        assert (lines[0], len(lines), lines[-1].split(",")[0]) == (TRACE_HEADER, rows, end)
        assert bool(e1_calls) == (name == E1)  # neither shipped scenario takes the E1 route

    def test_missing_scenario_exits_1(self, tmp_path):
        result = run_cli("simulate", "--scenario", str(tmp_path / "absent.json"))
        assert result.returncode == 1

    @pytest.mark.parametrize("scenario", [TURION, "missing.json"], ids=["shipped", "missing"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_one_file_for_report_and_trace_is_a_usage_error(self, tmp_path, monkeypatch, capsys, scenario, existing):
        monkeypatch.chdir(tmp_path)  # refused before the scenario file is read, and the file is left as it was
        target = tmp_path / "x.json"
        if existing:
            target.write_text("kept")
        assert cli.main(["simulate", "--scenario", scenario, "--report", "x.json", "--trace", "./x.json"]) == 64
        assert capsys.readouterr() == ("", "usage error: --report and --trace both name 'x.json'\n")
        if existing:
            assert target.read_text() == "kept"
        else:
            assert not target.exists()

    @pytest.mark.parametrize("scenario", [TURION, "missing.json"], ids=["shipped", "missing"])
    def test_a_hard_link_for_report_and_trace_is_a_usage_error(self, tmp_path, monkeypatch, capsys, scenario):
        monkeypatch.chdir(tmp_path)  # two names, one file: the paths differ even once resolved
        target = tmp_path / "a.json"
        target.write_text("kept")
        os.link(target, tmp_path / "b.json")
        assert cli.main(["simulate", "--scenario", scenario, "--report", "a.json", "--trace", "b.json"]) == 64
        assert capsys.readouterr() == ("", "usage error: --report and --trace both name 'a.json'\n")
        assert target.read_text() == "kept"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs the /dev/null device")
    def test_a_device_may_take_both_report_and_trace(self, capsys):
        assert cli.main(["simulate", "--scenario", TURION, "--report", "/dev/null", "--trace", "/dev/null"]) == 0

    def test_invalid_scenario_exits_2(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["sim"]["duration_s"] = 1.0  # shorter than the deadlines
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        result = run_cli("simulate", "--scenario", str(bad))
        assert result.returncode == 2
        assert "sim.duration" in result.stderr


class TestNonFiniteInput:
    """NaN, Infinity and out-of-range numbers exit 2, an overflowing wear rate exits 1: one line each."""

    def write_with_cycles(self, tmp_path, literal):
        doc = json.loads(open(TURION).read())
        doc["tasks"][0]["cycles"] = "CYCLES"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc).replace('"CYCLES"', literal))
        return str(path)

    def assert_one_line(self, result, code, text):
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert text in result.stderr

    def test_nan_and_infinity_are_parse_errors(self, tmp_path):
        for literal in ("NaN", "Infinity", "-Infinity"):
            result = run_cli("validate", "--scenario", self.write_with_cycles(tmp_path, literal))
            self.assert_one_line(result, 2, f"invalid scenario (parse): {tmp_path}")
            assert f"non-finite number {literal} is not allowed" in result.stderr

    def test_literals_beyond_the_float_range_are_schema_errors(self, tmp_path):
        for literal in ("1e400", "-1e400", "1" + "0" * 400):
            result = run_cli("validate", "--scenario", self.write_with_cycles(tmp_path, literal))
            self.assert_one_line(result, 2, "invalid scenario (schema): tasks[0].cycles: expected a finite number")

    def test_sweep_reads_documents_the_same_way(self, tmp_path):
        path = self.write_with_cycles(tmp_path, "NaN")
        result = run_cli("sweep", "--scenario", path, "--param", "wear.alpha", "--values", "1,2")
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
        result = run_cli(verb, "--scenario", str(path), *args)
        self.assert_one_line(result, 2, f"invalid scenario (parse): {path}: ")
        assert text in result.stderr

    def test_overflowing_model_values_exit_1(self, tmp_path):
        hot = json.loads(open(TURION).read())
        hot["thermal"]["r_th_k_per_w"] = 5000.0  # the first task heats toward 65,000 degC ...
        hot["thermal"]["c_th_j_per_k"] = 1e-4  # ... within a millisecond, and 2^6500 overflows
        jolt = json.loads(open(TURION).read())
        jolt["wear"].update(f_span_hz=1.0, alpha=100.0)  # (2e8 Hz / 1 Hz)^100 overflows
        for name, doc in (("hot", hot), ("jolt", jolt)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.assert_one_line(run_cli("simulate", "--scenario", str(path)), 1, "error: ")


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
        assert run_cli("validate", "--scenario", str(path)).returncode == 0
        report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
        result = run_cli("simulate", "--scenario", str(path), "--report", str(report), "--trace", str(trace))
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
        result = run_cli(verb, "--scenario", str(path), *self.VERB_ARGS[verb])
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
        assert run_cli("validate", "--scenario", str(path)).returncode == 0
        trace = tmp_path / "trace.csv"
        for args in ((), ("--trace", str(trace))):
            result = run_cli("simulate", "--scenario", str(path), *args)
            assert result.returncode == 1
            assert len(result.stderr.strip().splitlines()) == 1
            assert "trace points" in result.stderr
        assert not trace.exists()  # the rows up to the big task's start were written, and then removed


class TestCompare:
    def test_full_span_stepping_cuts_shock_wear_to_a_fifth(self):
        result = run_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct,stepped")
        assert result.returncode == 0, result.stderr
        rows = table_rows(result.stdout)
        direct = float(rows["direct"][4])
        stepped = float(rows["stepped"][4])
        assert math.isclose(stepped, direct / 5.0, rel_tol=1e-9)

    def test_comparison_report_file(self, tmp_path):
        out = tmp_path / "cmp.json"
        result = run_cli(
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
        argv = [sys.executable, "-m", "dvfsim", "compare", "--scenario", TURION, "--policies", "direct,stepped"]
        proc = subprocess.run(argv, stdout=slave, stderr=subprocess.PIPE, env=env, timeout=120)
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
        assert run_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct").returncode == 64

    def test_dwell_on_direct_is_a_usage_error(self):
        result = run_cli("compare", "--scenario", STEP_DEMO, "--policies", "direct:0.5,stepped")
        assert result.returncode == 64

    @pytest.mark.parametrize("dwell", ["nan", "inf", "1e400"])
    def test_a_non_finite_dwell_is_a_usage_error(self, tmp_path, dwell):
        for scenario in (STEP_DEMO, str(tmp_path / "missing.json")):  # refused before the file is read
            result = run_cli("compare", "--scenario", scenario, "--policies", f"direct,stepped:{dwell}")
            assert (result.returncode, result.stdout) == (64, "")
            assert result.stderr == f"usage error: dwell '{dwell}' in --policies must be finite and >= 0\n"


class TestSweep:
    def test_alpha_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep", "--scenario", STEP_DEMO, "--param", "wear.alpha", "--values", "1,2", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "value,energy_j,shock_wear,thermal_wear,projected_lifetime_s"
        assert len(lines) == 3

    def test_linear_alpha_equalizes_policies(self):
        # run the same sweep under each transition policy; alpha=1 rows must agree
        result = run_cli(
            "sweep", "--scenario", STEP_DEMO, "--param", "wear.alpha", "--values", "1,2", "--policies", "direct,stepped"
        )
        assert result.returncode == 0, result.stderr
        shocks = {"direct": {}, "stepped": {}}
        for row in result.stdout.splitlines()[1:]:
            value, policy, _, shock, *_ = row.split(",")
            shocks[policy][float(value)] = float(shock)
        assert math.isclose(shocks["direct"][1.0], shocks["stepped"][1.0], rel_tol=1e-12)
        assert shocks["stepped"][2.0] < shocks["direct"][2.0]

    def test_unknown_parameter_exits_2(self):
        result = run_cli("sweep", "--scenario", STEP_DEMO, "--param", "wear.bogus", "--values", "1")
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
        result = run_cli("sweep", "--scenario", TURION, "--param", param, "--values", values)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"invalid scenario (schema): {message}\n"

    @pytest.mark.parametrize(
        "param, kind",
        [("sim.dwell_stalls", "boolean"), ("governor.kind", "string"), ("policy.kind", "string"), ("processor.levels", "array")],
    )
    def test_a_non_number_key_exits_64_before_reading(self, tmp_path, param, kind):
        for scenario in (TURION, str(tmp_path / "missing.json")):
            result = run_cli("sweep", "--scenario", scenario, "--param", param, "--values", "1")
            assert (result.returncode, result.stdout) == (64, "")
            assert result.stderr == f"usage error: --param {param} holds a JSON {kind}, not a number\n"

    def test_integer_values_sweep_the_fixed_index(self, tmp_path):
        doc = json.loads(open(TURION).read())
        doc["governor"] = {"kind": "fixed", "fixed_index": 5}
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(doc))
        result = run_cli("sweep", "--scenario", str(path), "--param", "governor.fixed_index", "--values", "0,1")
        assert result.returncode == 0, result.stderr
        assert [row.split(",")[0] for row in result.stdout.splitlines()[1:]] == ["0.0", "1.0"]

    def test_a_section_that_is_not_an_object_exits_2(self, tmp_path):
        doc = json.loads(open(STEP_DEMO).read())
        doc["sim"] = 5
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        result = run_cli("sweep", "--scenario", str(path), "--param", "sim.duration_s", "--values", "60")
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
        result = run_cli(args[0], "--scenario", STEP_DEMO, *args[1:], str(out))
        assert result.returncode == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")

    def test_an_unwritable_trace_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda *args: runs.append(args))
        report, trace = tmp_path / "report.json", tmp_path / "missing-dir" / "trace.csv"
        assert cli.main(["simulate", "--scenario", STEP_DEMO, "--report", str(report), "--trace", str(trace)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {trace}: ")
        assert runs == []
        assert not report.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_a_failed_row_write_on_a_device_leaves_the_device(self):
        result = run_cli("simulate", "--scenario", TURION, "--trace", "/dev/full")
        assert result.returncode == 1
        assert result.stderr.splitlines() == ["error: cannot write /dev/full: [Errno 28] No space left on device"]
        assert os.path.exists("/dev/full")

    def test_a_failed_row_write_removes_the_partial_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        argv = [sys.executable, "-m", "dvfsim", "simulate", "--scenario", TURION, "--trace", str(trace)]

        def limit_file_size():  # the full trace is about 80 kB
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

        result = subprocess.run(
            argv, capture_output=True, text=True, timeout=120, env=source_env(), preexec_fn=limit_file_size
        )
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: cannot write {trace}: [Errno 27] File too large"]
        assert not trace.exists()


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
    def test_verbs_without_a_trace_sample_nothing(self, samples, capsys, argv):
        assert cli.main(argv) == 0
        assert samples == []

    @pytest.mark.parametrize("scenario", [TURION, STEP_DEMO], ids=["turion6", "step_demo"])
    def test_the_streamed_trace_has_the_pinned_bytes(self, samples, tmp_path, capsys, scenario):
        streamed = tmp_path / "streamed.csv"
        assert cli.main(["simulate", "--scenario", scenario, "--trace", str(streamed)]) == 0
        assert samples
        assert streamed.read_bytes() == (REFERENCE / f"{Path(scenario).stem}.trace.csv").read_bytes()

    def test_a_trace_across_several_chunks_has_one_row_per_point(self, tmp_path, capsys):
        doc = json.loads(open(TURION).read())
        doc["tasks"] = []  # one idle span of 3 * TRACE_CHUNK + 1 sampling intervals
        doc["sim"].update(duration_s=(3 * engine.TRACE_CHUNK + 1) * 0.5, trace_dt_s=0.5)
        scenario = tmp_path / "one_span.json"
        scenario.write_text(json.dumps(doc))
        streamed = tmp_path / "streamed.csv"
        assert cli.main(["simulate", "--scenario", str(scenario), "--trace", str(streamed)]) == 0
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
    def test_each_verb_validates_once_per_scenario(self, validated, capsys, argv, calls):
        assert cli.main(argv) == 0
        assert len(validated) == calls


class TestUsage:
    def test_unknown_subcommand_exits_64(self):
        result = run_cli("launch", "--scenario", TURION)
        assert result.returncode == 64
        assert "usage" in result.stderr.lower()

    def test_unknown_flag_exits_64(self):
        result = run_cli("simulate", "--scenario", TURION, "--turbo")
        assert result.returncode == 64

    def test_no_subcommand_exits_64(self):
        assert run_cli().returncode == 64

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
            result = run_cli("sweep", "--scenario", scenario, *args)
            assert result.returncode == 64
            assert result.stderr == f"usage error: {message}\n"
            assert result.stdout == ""


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
    def test_help_text(self, capsys, verb, flag):
        assert cli.main([verb, flag] if verb else [flag]) == 0
        assert capsys.readouterr() == (self.HELP[verb], "")

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
        ],
        ids=[
            "no-argument", "unknown-subcommand", "abbreviated-subcommand", "unknown-option-before",
            "unknown-option-after", "missing-required", "missing-second-required", "second-subcommand",
            "option-without-value", "abbreviated-option-first", "ambiguous-abbreviation",
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert cli.main(argv) == 64
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    def test_an_abbreviated_option_is_taken(self, capsys):
        assert cli.main(["validate", "--scen", TURION]) == 0
        assert capsys.readouterr() == (f"{TURION}: OK (6 levels, 4 tasks)\n", "")

    def test_a_named_subcommand_gets_its_parser_alone(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def spy(commands):
            built.append(list(commands))
            return build(commands)

        monkeypatch.setattr(cli, "build_parser", spy)
        cli.main(["validate", "--scenario", TURION])
        cli.main(["bogus"])
        assert built == [["validate"], ["validate", "simulate", "compare", "sweep"]]


class TestSweepPolicies:
    """``sweep --policies`` runs each value under each policy: the shock-exponent experiment."""

    ARGS = ("sweep", "--scenario", TURION, "--param", "wear.alpha", "--policies", "direct,stepped")

    def test_shock_exponent_sweep_runs_on_the_shipped_scenario(self):
        result = run_cli(*self.ARGS, "--values", "1,1.5,2,3")
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
        result = run_cli(*self.ARGS, "--values", alphas)
        assert result.returncode == code
        assert result.stderr == message + "\n"
        assert result.stdout == ""
